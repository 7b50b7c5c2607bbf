"""Membership tests, the Krylov-walk classifier, and decomposition checks.

Three families of point sets are covered, all living inside a formed (or
formless) space base-changed to GF(q^k):

* case ``Z``: isotropic subspaces of a symplectic space of dimension t
  with an intersection-deficiency condition (parameters t > h >= 0);
* case ``Y``: isotropic subspaces of a symmetric space of dimension n - t
  with a sum-excess condition (parameters t < h <= n), split/non-split
  resolved through the sign parameter eps;
* case ``ZY``: subspaces of a formless space of dimension (t1 - t2)/2
  with the intersection condition (parameters t2 <= h <= t1).

Members are Frobenius-Krylov spans B + <y, Phi^-1 y, ...> over a
Frobenius-stable bottom B.  The scan lists the candidate pairs (B, y) and
classifies them in blocks (``classify_block``): one numpy kernel keeps
the members of a block and walks all of them at once, adding Phi y,
Phi^2 y, ... until each span turns non-isotropic (kind ``w``) or
stabilizes while isotropic (kind ``wprime``; ``id`` for stable members).
A single subspace is a block of one (``classify``).
Each case places its labels in one frame (top, level, bottom), the
(rank, level) that the ``weyl`` word families take (``StrataConfig.frame``):
members have dimension top - level, and a member whose chain runs v steps
down and u steps up has the label (r, s) = (level + v, level - u).  The
label (r, s, kind, sign) is compared against the predicted index sets,
closure identities, Kottwitz-Rapoport fibers and sign-class statistics.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf import FieldCtx
from . import linalg, space as spc
from .linalg import gaussian_binomial
from .report import check, inconclusive
from .space import (
    BudgetExceeded,
    FormedSpace,
    Subspace,
    apply_phi,
    intersect,
    is_isotropic,
    perp,
    sum_spaces,
)

SUBSPACE_BUDGET = 10**7

# The parameters each case reads besides (p, e, k), in report order; all
# but the dimension n and the sign eps are vertex-lattice types.
CASE_PARAMS = {"Z": ("t", "h"), "Y": ("n", "h", "t", "eps"), "ZY": ("t1", "h", "t2")}


class ConfigError(ValueError):
    pass


class ChainError(RuntimeError):
    """A chain step changed dimension by more than one, or an up walk
    outran the dimension: malformed member or wrong arithmetic."""


@dataclass(frozen=True)
class StratumLabel:
    r: int
    s: int
    kind: str  # "w" | "wprime" | "id"
    sign: str | None = None

    def key(self) -> str:
        base = f"{self.kind}({self.r},{self.s})"
        return base + (self.sign or "")

    def __str__(self):
        return self.key()


@dataclass(frozen=True)
class StrataConfig:
    """Parameters of one stratification run.

    ``q`` must be presented as (p, e); ``k`` is the working extension
    degree.  ``eps`` only matters for case Y with n even, where it decides
    the split (-1) versus non-split (+1) symmetric form.
    """

    case: str
    p: int
    e: int = 1
    k: int = 1
    n: int = 0
    h: int = 0
    t: int = 0
    t1: int = 0
    t2: int = 0
    eps: int = -1

    def __post_init__(self):
        if self.case not in CASE_PARAMS:
            raise ConfigError(f"unknown case {self.case!r}")
        if self.k < 1:
            raise ConfigError("extension degree k must be >= 1")
        if any(getattr(self, name) % 2 for name in CASE_PARAMS[self.case]
               if name not in ("n", "eps")):
            raise ConfigError("types must be even integers")
        if self.case == "Z" and not 0 <= self.h <= self.t:
            raise ConfigError("case Z needs 0 <= h <= t")
        if self.case == "ZY" and not 0 <= self.t2 <= self.h <= self.t1:
            raise ConfigError("case ZY needs t2 <= h <= t1")
        if self.case == "Y":
            if not 0 <= self.t <= self.h <= self.n:
                raise ConfigError("case Y needs 0 <= t <= h <= n")
            if self.eps not in (-1, 1):
                raise ConfigError("eps must be +-1")
            if self.n % 2 == 0 and self.h == self.n and self.eps == -1:
                raise ConfigError("a maximal level forces eps = +1")

    # -- derived quantities ---------------------------------------------

    @property
    def frame(self) -> tuple[int, int, int]:
        """(top, level, bottom): the labels sit around the level, members
        have dimension top - level, and their chains run between the bottom
        and the top.  These are the (rank, level) that the ``weyl`` word
        families take: Z is (t/2, h/2, 0), Y in primed coordinates is
        ((n - t)//2, (n - h)//2, 0), and ZY is (t1/2, h/2, t2/2)."""
        if self.case == "Z":
            return self.t // 2, self.h // 2, 0
        if self.case == "Y":
            return (self.n - self.t) // 2, (self.n - self.h) // 2, 0
        return self.t1 // 2, self.h // 2, self.t2 // 2

    @property
    def member_dim(self) -> int:
        top, level, _ = self.frame
        return top - level

    @property
    def space_kind(self) -> str:
        if self.case == "Z":
            return "symplectic"
        if self.case == "ZY":
            return "none"
        if self.n % 2 == 1:
            return "symmetric-odd"
        return "symmetric-even-split" if self.eps == -1 else "symmetric-even-nonsplit"

    @property
    def space_dim(self) -> int:
        if self.case == "Z":
            return self.t
        if self.case == "Y":
            return self.n - self.t
        return (self.t1 - self.t2) // 2

    def field_ctx(self) -> FieldCtx:
        return FieldCtx(self.p, self.e, self.k)

    def build_space(self) -> FormedSpace:
        return FormedSpace(self.field_ctx(), self.space_kind, self.space_dim)

    def describe(self) -> dict:
        d = {"case": self.case, "p": self.p, "e": self.e, "k": self.k}
        d.update((name, getattr(self, name)) for name in CASE_PARAMS[self.case])
        return d


# -- membership and classification ---------------------------------------

def member(cfg: StrataConfig, U: Subspace) -> bool:
    """U has the member dimension d, is isotropic unless the case is
    formless, and meets Phi(U) in dimension >= d - 1; as dim Phi(U) = d,
    that is dim(U + Phi(U)) <= d + 1.  U must live in the configured
    space over the configured field GF(q^k)."""
    sp, ctx = U.space, U.space.ctx
    if (sp.kind, sp.dim, ctx.p, ctx.e, ctx.k) != (cfg.space_kind, cfg.space_dim,
                                                  cfg.p, cfg.e, cfg.k):
        raise ConfigError("subspace does not live in the configured space")
    d = cfg.member_dim
    if U.dim != d:
        return False
    return (cfg.case == "ZY" or is_isotropic(U)) and sum_spaces(U, apply_phi(U)).dim <= d + 1


def _phi_stable(U: Subspace) -> bool:
    """Frobenius stability: a canonical matrix is stable exactly when all
    its entries are Frobenius-fixed."""
    FROB = U.space.ctx.FROB
    return all(FROB[x] == x for row in U.rows for x in row)


def _krylov_data(U: Subspace):
    """(B, y, v) from one down chain to the bottom B: y spans U_(v-1) mod
    B, reduced against B's rows (so zero at B's pivots) with a leading 1,
    as the block scan draws it; y is None when U is stable."""
    above, cur, v = None, U, 0
    while not _phi_stable(cur):
        above, cur, v = cur, intersect(cur, apply_phi(cur)), v + 1
        if cur.dim != above.dim - 1:
            raise ChainError(f"down step dropped {above.dim - cur.dim} dimensions")
    if not v:
        return cur, None, 0
    ctx = U.space.ctx
    r = next(r for r in above.rows if not cur.contains(r))
    y = linalg.residual(ctx, cur.rows, cur.pivots, r)
    scale = ctx.MUL[ctx.INV[next(x for x in y if x)]]
    return cur, tuple(scale[x] for x in y), v


def classify(cfg: StrataConfig, U: Subspace) -> tuple[StratumLabel, list[int], str]:
    """(label, chain dimensions, KR class) of one member: its down chain
    gives (B, y, v), and ``classify_block`` classifies it as a block of one."""
    B, y, v = _krylov_data(U)
    line = np.array([y if v else ()], dtype=np.int16)
    blk = _Block(v, (B,), np.zeros(1, dtype=np.intp), line)
    _, codes = classify_block(cfg, _Arrays(U.space), blk, kr=True)
    return _decode(cfg, v, int(codes[0]))


def _label_is_signed(cfg: StrataConfig, kind: str) -> bool:
    """Whether the tops of this kind are maximal isotropics of an even
    symmetric space, split by component sign: ``w`` at level 0, ``wprime``
    at level 1."""
    return (cfg.space_kind.startswith("symmetric-even")
            and (kind, cfg.frame[1]) in (("w", 0), ("wprime", 1)))


# -- expected index sets, reachability, reference dimensions -------------

def predicted_index_set(cfg: StrataConfig) -> frozenset[StratumLabel]:
    """The predicted full label set for the configuration."""
    top, level, bottom = cfg.frame
    if cfg.case == "ZY":
        # A stable chain end forces a fully stable member, so the box of
        # labels degenerates: only j < level < i survives besides the
        # fixed point (level, level).  Verified exhaustively; the printed box includes
        # edge labels that hold no points.
        return frozenset({StratumLabel(level, level, "w")} | {
            StratumLabel(i, j, "w") for i in range(level + 1, top + 1)
            for j in range(bottom, level)})
    if top == level:
        return frozenset({StratumLabel(level, level, "id")})
    # The symmetric even kinds each lose one family of labels to a parity
    # obstruction on maximal isotropics (verified exhaustively): in the
    # split form a `w` chain cannot exit at a Lagrangian top (same-family
    # intersections have fixed parity, forcing stability), so j >= 1
    # there; in the non-split form there are no Frobenius-stable
    # Lagrangians, so `wprime` needs j >= 1 and the fixed point disappears
    # when members are Lagrangian.
    kind = cfg.space_kind
    labels = set()
    if kind != "symmetric-even-nonsplit" or level >= 1:
        labels.add(StratumLabel(level, level, "id"))
    w_js = range(1 if kind == "symmetric-even-split" else 0, level + 1)
    wp_js = range(1 if kind == "symmetric-even-nonsplit" else 0, level)
    for label_kind, js in (("w", w_js), ("wprime", wp_js)):
        signs = ("+", "-") if _label_is_signed(cfg, label_kind) else (None,)
        labels.update(StratumLabel(i, j, label_kind, sign)
                      for i in range(level + 1, top + 1) for j in js for sign in signs)
    return frozenset(labels)


def reachable_at_k(cfg: StrataConfig, label: StratumLabel, k: int | None = None) -> bool:
    """Whether a stratum has GF(q^k)-points.

    Write v = r - level and u = level - s for the numbers of intersection
    and sum steps of a member's chain.  Empirically (exhaustive enumeration
    over k <= 4 on desk-scale configurations, frozen in the tests):

    * kind ``id``: always;
    * kind ``w``: v + u <= floor(k/2) -- the non-isotropic exit reads the
      first nonzero entry of the orbit Gram of a Phi^k-fixed vector, which
      sits at most at floor(k/2) (see ``classify_block``);
    * kind ``wprime`` and the formless case: v, u >= 1 and v + u <= k;
    * except that members at h = n of a non-split even space are
      Lagrangians, and a non-split form stays non-split over an odd-degree
      extension, so at odd k only ``id`` is reachable there.
    """
    if k is None:
        k = cfg.k
    if label.r == label.s:
        return True  # kind ``id`` and the formless fixed point
    if cfg.space_kind == "symmetric-even-nonsplit" and cfg.h == cfg.n and k % 2:
        return False
    level = cfg.frame[1]
    down, up = label.r - level, level - label.s
    if label.kind == "w" and cfg.case != "ZY":
        return down + up <= k // 2
    return down >= 1 and up >= 1 and down + up <= k


def reference_dimension(cfg: StrataConfig, label: StratumLabel) -> int:
    """Stratum dimension from the closed tables (audited against the
    Deligne-Lusztig formula and point-count growth in the tests)."""
    r, s = label.r, label.s
    if r == s:
        return 0
    if label.kind == "wprime" or cfg.case == "ZY":
        return r - s - 1
    return r + s - cfg.space_kind.startswith("symmetric-even")


def closure_index_set(cfg: StrataConfig, label: StratumLabel) -> frozenset[StratumLabel]:
    """Labels of the strata inside the closure of the given stratum."""
    full = predicted_index_set(cfg)
    out = {label}
    for other in full:
        if other == label:
            continue
        if label.kind == "id":
            continue
        if cfg.case == "ZY":
            if other.kind == "w" and label.s <= other.s and other.r <= label.r:
                out.add(other)
            continue
        if label.kind == "w":
            if other.kind == "id":
                out.add(other)
            elif other.kind == "w" and other.r <= label.r and other.s <= label.s:
                if other.sign is None or other.sign == label.sign:
                    out.add(other)
            elif other.kind == "wprime" and other.r <= label.r:
                out.add(other)
        else:  # wprime
            if other.kind == "id":
                out.add(other)
            elif other.kind == "wprime" and other.r <= label.r and other.s >= label.s:
                if other.sign is None or other.sign == label.sign:
                    out.add(other)
    return frozenset(out)


def top_labels(cfg: StrataConfig) -> list[StratumLabel]:
    """The labels of largest reference dimension, sorted by key: one, or
    both signs of a signed top."""
    labels = sorted(predicted_index_set(cfg), key=StratumLabel.key)
    top = max(reference_dimension(cfg, label) for label in labels)
    return [label for label in labels if reference_dimension(cfg, label) == top]


# -- member enumeration and the block kernel ------------------------------

# candidates per block; the kernel's arrays hold a few rows per candidate
CHUNK = 2048

_SIGNS = (None, "+", "-")
_KR = (None, "id", "w", "wprime")


class _Block(NamedTuple):
    """Candidates of one Krylov depth v: candidate i is the stable bottom
    ``bottoms[which[i]]`` with the line <y[i]> of its complement (at v = 0
    the stable member itself, and y has no columns).  A bottom is kept
    once per block, however many of its lines the block holds."""

    v: int
    bottoms: tuple
    which: np.ndarray
    y: np.ndarray


class _Arrays:
    """The block kernel's view of a space: the field tables as flat int16
    arrays (codes are below ``gf.ENUMERATION_BOUND`` = 4096), a square
    root of each square code (-1 for the non-squares) and the Gram as its
    nonzero entries (i, j, g_ij), or None when formless.

    Every table read is a 1-D ``take``, the cheapest gather numpy has:
    ``NEG.take(z)`` and the like, and ``add``/``mul`` for the two-operand
    tables, stored row-major, which read entry x * size + y.  ``stride``
    is the size typed as that index: int16 while size^2 < 2^15, int32
    above.
    """

    def __init__(self, sp: FormedSpace):
        ctx = sp.ctx
        self.space = sp
        self.stride = (np.int16 if ctx.size ** 2 < 2 ** 15 else np.int32)(ctx.size)
        self.ADD, self.MUL, self.NEG, self.INV, self.FROB, self.FROB_INV = (
            np.array(t, dtype=np.int16).ravel()
            for t in (ctx.ADD, ctx.MUL, ctx.NEG, ctx.INV, ctx.FROB, ctx.FROB_INV))
        codes = np.arange(ctx.size, dtype=np.int16)
        self.SQRT = np.full(ctx.size, -1, dtype=np.int16)
        self.SQRT[self.mul(codes, codes)] = codes
        self.gram = None if sp.gram is None else [
            (i, j, g) for i, nz in enumerate(sp._gram_nz) for j, g in nz]

    def add(self, x, y) -> np.ndarray:
        """x + y, elementwise over the broadcast of the code arrays (or
        ints) x and y."""
        return self.ADD.take(x * self.stride + y)

    def mul(self, x, y) -> np.ndarray:
        """x * y, elementwise over the broadcast of x and y."""
        return self.MUL.take(x * self.stride + y)


def rational_subspaces(sp: FormedSpace, d: int, isotropic_only: bool):
    """Every Frobenius-stable d-subspace (isotropic ones only when asked),
    once: the echelon matrices with GF(q) entries, in the order of
    ``linalg.row_spaces``, which solves for the isotropic ones (the Gram
    entries lie in GF(q))."""
    gram = sp.gram if isotropic_only else None
    for rows, pivots in linalg.row_spaces(sp.ctx, sp.ctx.subfield_codes(1), sp.dim, d, gram):
        yield Subspace(sp, rows, pivots)


def _blocks(cfg: StrataConfig, A: _Arrays, budget: int | None):
    """Every member candidate rational over GF(q^k), in blocks of at most
    ``CHUNK``; ``classify_block`` picks out the members.

    A member U that is not Phi-stable runs down its chain
    U = U_0 > U_1 > ... > U_v = B, U_(i+1) = U_i cap Phi(U_i), one
    dimension a step, to its Phi-stable bottom B; and U_(i-1) is
    U_i + Phi^-1(U_i), so U is the Frobenius-Krylov span
    B + <y, Phi^-1 y, ..., Phi^-(v-1) y> of a vector y spanning U_(v-1)/B.
    As Phi^k(U) = U, y can be taken Phi^k-fixed in a GF(q^k)-rational
    complement of B (in B^perp in the formed cases), where it is unique up
    to a scalar.  Conversely, such a span is a member with bottom B when
    it is isotropic (y isotropic and orthogonal to each Phi^-j y, j < v),
    has dimension d, and misses Phi^-v y.  So the candidates are pairs
    (B, y), the stable members (v = 0) first, each exactly once.  Since
    Phi^-k y = y, v <= k - 1: at v = k the span would contain Phi^-v y,
    and past k it would have dimension below d.

    The stable bottoms come from ``linalg.row_spaces`` over GF(q)
    (``rational_subspaces``), which solves for the isotropic ones.  Phi^k
    fixes every vector of the working field, so B's complement is the m
    rows of rref(B^perp) (all of V when formless) whose pivots are not
    B's, and y is zero at B's pivots with a leading 1.  ``_lines`` solves
    for the isotropic lines of the complements of many bottoms at once.

    ``budget`` (default ``SUBSPACE_BUDGET``) bounds the stable members
    plus the (B, line of its complement) candidates, isotropic or not,
    counted in closed form before the scan starts.
    """
    sp = A.space
    d, k = cfg.member_dim, cfg.k
    iso = cfg.case in ("Z", "Y")
    # the dimension m of the complements of the stable (d - v)-subspaces
    dims = {v: sp.dim - (2 if iso else 1) * (d - v) for v in range(1, min(d, k - 1) + 1)}
    # exact: the stable members, then for each v the stable bottoms times
    # the lines of their complement
    estimate = spc.count_oracle(sp, d, iso) + sum(
        spc.count_oracle(sp, d - v, iso) * gaussian_binomial(m, 1, sp.ctx.size)
        for v, m in dims.items())
    spc.gate(estimate, budget, SUBSPACE_BUDGET, f"estimated {estimate} member candidates")
    stable = rational_subspaces(sp, d, iso)
    while batch := tuple(itertools.islice(stable, CHUNK)):
        yield _Block(0, batch, np.arange(len(batch)), np.zeros((len(batch), 0), dtype=np.int16))
    for v, m in dims.items():
        yield from _chunked(v, _lines(A, rational_subspaces(sp, d - v, iso), m, iso))


# coefficient rows solved at once for a group of bottoms in the y-scan
_GROUP = 8 * CHUNK


def _lines(A: _Arrays, bottoms, m: int, iso: bool):
    """(B, y) pairs, y an array of lines of B's m-dimensional complement
    (the isotropic ones in the symmetric kinds; in the symplectic and
    formless kinds every line is isotropic), bottom after bottom, each
    bottom's lines in the order of ``linalg.row_spaces``.

    Bottoms are taken in groups of about ``_GROUP`` coefficient rows, a
    group's complements stacked as one (G, m, dim) array with their Grams
    from the kernel's ``_form``; ``_line_coeffs`` solves the group's lines
    in coefficients, and each y is their combination of its bottom's
    complement rows.  A bottom with more than ``CHUNK`` rows is a group of
    its own, streamed in pieces.
    """
    sp = A.space
    symmetric = sp.kind.startswith("symmetric")
    rows = sum(sp.ctx.size ** _free(m, pc, symmetric) for pc in range(m))
    size = _GROUP // rows if 0 < rows <= CHUNK else 1
    while group := tuple(itertools.islice(bottoms, size)):
        comp = np.array([_complement(B, iso) for B in group],
                        dtype=np.int16).reshape(len(group), m, sp.dim)
        grams = _form(A, comp[:, :, None], comp[:, None]) if symmetric else None
        for which, x in _line_coeffs(A, grams, len(group), m):
            y = np.zeros((len(x), sp.dim), dtype=np.int16)
            for j in range(m):
                y = A.add(y, A.mul(x[:, j, None], comp[which, j]))
            bounds = np.searchsorted(which, np.arange(len(group) + 1)).tolist()
            for B, lo, hi in zip(group, bounds, bounds[1:]):
                yield B, y[lo:hi]


def _complement(B: Subspace, iso: bool) -> list:
    """The rows of rref(B^perp) (of V when formless) whose pivots are not
    B's: they span a complement of B there."""
    W = perp(B) if iso else spc.full_subspace(B.space)
    return [r for r, pc in zip(W.rows, W.pivots) if pc not in B.pivots]


def _free(m: int, pc: int, solve: bool) -> int:
    """The coefficients a line of lead pc enumerates: every entry after
    the lead, but for the last when it is solved for."""
    return m - pc - 1 - (solve and pc < m - 1)


def _line_coeffs(A: _Arrays, grams, count: int, m: int):
    """The lines of GF(q^k)^m for each of ``count`` bottoms, as (which, x)
    pieces: x[i] is the leading-1 coefficient row of a line of bottom
    which[i].  With Grams (count, m, m) of a symmetric form only the
    isotropic lines come out; with None, every line.

    Concatenated, the pieces run bottom-major, each bottom's lines in the
    order of ``linalg.row_spaces``: by lead position, then the free
    entries after the lead in product order over the field codes (the
    earliest slowest), the solved last entry ascending (``_roots``).  Each
    lead's free entries are one mixed-radix array, in slices of at most
    ``CHUNK`` rows; a lone bottom is yielded slice by slice, a group in
    one piece.
    """
    q = A.space.ctx.size
    pieces = []
    for pc in range(m):
        free = _free(m, pc, grams is not None)
        for lo in range(0, q ** free, CHUNK):
            x = np.zeros((min(CHUNK, q ** free - lo), m), dtype=np.int16)
            x[:, pc] = 1
            index = np.arange(lo, lo + len(x))
            for j in range(free):
                x[:, pc + 1 + j] = index // q ** (free - 1 - j) % q
            if grams is None:
                piece = np.repeat(np.arange(count), len(x)), np.tile(x, (count, 1))
            else:
                piece = _roots(A, grams, pc, x)
            if count == 1:
                yield piece
            else:
                pieces.append(piece)
    if pieces:
        which = np.concatenate([w for w, _ in pieces]).astype(np.int16)
        order = np.argsort(which, kind="stable")
        yield which[order], np.concatenate([x for _, x in pieces])[order]


def _roots(A: _Arrays, grams, pc: int, x):
    """The isotropic lines among the rows x of lead pc under each Gram,
    as (which, x) with x's last entry solved, bottom-major, then by row,
    the roots ascending.

    With the last entry t and x' the row as given (its last entry 0),
    x G x = a t^2 + b t + c for a = g_mm, b = 2 (x' G)_m and c = x' G x',
    and the roots follow ``linalg._quadratic_roots``: for a != 0 the two,
    one or no roots (-b +- r) / 2a, r^2 the discriminant (``SQRT``); for
    a = 0 and b != 0 the one root -c / b; for a = b = 0 every scalar when
    c = 0, none otherwise.  At pc = m - 1 the row is the last basis
    vector, a line when a = 0.
    """
    G, L, m = len(grams), len(x), x.shape[1]
    a = grams[:, m - 1, m - 1, None]
    if pc == m - 1:
        which = (a[:, 0] == 0).nonzero()[0]
        return which, np.repeat(x, len(which), axis=0)
    xg = np.zeros((G, L, m - pc), dtype=np.int16)  # x' G, columns pc..m-1
    for j in range(pc, m - 1):
        xg = A.add(xg, A.mul(x[None, :, j, None], grams[:, None, j, pc:]))
    c = np.zeros((G, L), dtype=np.int16)
    for j in range(pc, m - 1):
        c = A.add(c, A.mul(x[None, :, j], xg[..., j - pc]))
    b = A.add(xg[..., -1], xg[..., -1])
    two_a = A.add(a, a)
    r = A.SQRT.take(A.add(A.mul(b, b), A.NEG.take(A.mul(A.add(two_a, two_a), c))))
    inv, minus_b = A.INV.take(two_a), A.NEG.take(b)
    # where r = -1 (no root) t and u are read off and never used
    t, u = A.mul(A.add(minus_b, r), inv), A.mul(A.add(minus_b, A.NEG.take(r)), inv)
    quadratic = np.broadcast_to(a != 0, b.shape)
    every = ~quadratic & (b == 0)
    count = np.where(quadratic, (r >= 0).astype(np.intp) + (r > 0),
                     np.where(every, np.where(c == 0, A.space.ctx.size, 0), 1)).ravel()
    first = np.where(quadratic, np.minimum(t, u), A.mul(A.NEG.take(c), A.INV.take(b))).ravel()
    cells = np.repeat(np.arange(count.size), count)
    rank = np.arange(len(cells)) - np.repeat(np.cumsum(count) - count, count)
    out = x[cells % L]
    out[:, m - 1] = np.where(every.ravel()[cells], rank,
                             np.where(rank == 0, first[cells], np.maximum(t, u).ravel()[cells]))
    return cells // L, out


def _chunked(v: int, pairs):
    """Blocks of at most ``CHUNK`` candidates from (bottom, lines) pairs,
    in order; lines that do not fit continue in the next block."""
    bottoms, which, ys, size = [], [], [], 0
    for B, lines in pairs:
        while len(lines):
            if not bottoms or bottoms[-1] is not B:
                bottoms.append(B)
            part, lines = lines[:CHUNK - size], lines[CHUNK - size:]
            which.append(np.full(len(part), len(bottoms) - 1))
            ys.append(part)
            size += len(part)
            if size == CHUNK:
                yield _Block(v, tuple(bottoms), np.concatenate(which), np.concatenate(ys))
                bottoms, which, ys, size = [], [], [], 0
    if size:
        yield _Block(v, tuple(bottoms), np.concatenate(which), np.concatenate(ys))


def enumerate_members(cfg: StrataConfig, budget: int | None = None):
    """Stream every member rational over GF(q^k), exactly once, as
    canonical subspaces: the candidates of ``_blocks`` that
    ``classify_block`` keeps, in scan order."""
    A = _Arrays(cfg.build_space())
    for blk in _blocks(cfg, A, budget):
        index, _ = classify_block(cfg, A, blk, kr=False)
        yield from (_span(blk, i) for i in index.tolist())


def _span(blk: _Block, i: int) -> Subspace:
    """Candidate i of a block as a subspace, B + <y, ..., Phi^-(v-1) y>."""
    B = blk.bottoms[blk.which[i]]
    if not blk.v:
        return B
    rows = [*B.rows, tuple(blk.y[i].tolist())]
    for _ in range(blk.v - 1):
        rows.append(spc._phi_vector(B.space, rows[-1], True))
    return Subspace.from_rows(B.space, rows)


def _code(u, w, sign, kr):
    """A label code: up steps, kind ``w``, sign and KR class as one integer."""
    return ((u * 2 + w) * 3 + sign) * 4 + kr


def _decode(cfg: StrataConfig, v: int, code: int) -> tuple[StratumLabel, list[int], str | None]:
    """(label, chain dimensions, KR class) of a member of depth v with
    this label code."""
    rest, kr = divmod(code, 4)
    rest, sign = divmod(rest, 3)
    u, w = divmod(rest, 2)
    level, d = cfg.frame[1], cfg.member_dim
    kind = "w" if w else "wprime" if v else "id"
    return StratumLabel(level + v, level - u, kind, _SIGNS[sign]), list(range(d - v, d + u + 1)), _KR[kr]


def classify_block(cfg: StrataConfig, A: _Arrays, blk: _Block, kr: bool):
    """The members of a block and their label codes (``_decode``), as
    (index, codes) with ``index`` the members' candidate positions; the
    KR class is coded only when ``kr``.  Every step is one array
    operation over the block's candidates.

    A candidate (B, y) of depth v >= 1 is a member when the Krylov
    vectors Phi^-j y, 0 < j <= v, each leave the span of those before it
    and, for j < v and a formed space, pair to 0 with y.  Every Krylov
    vector is zero at B's pivots, as y is and Frobenius keeps zeros, so
    B's rows never enter a residual: the spans are kept as semi-echelon
    rows (row i has a 1 at its pivot, where the rows after it vanish)
    seeded with y.

    The up walk reduces Phi y, Phi^2 y, ... against those rows and stops
    ``stable`` on a zero residual, ``anisotropic`` when form(Phi^j y,
    Phi^-(v-1) y), the one new pair, is nonzero, at a top of dimension
    d + u.  The label is (level + v, level - u) in every case.  That pair
    is Frob^-(v-1)(g_(j+v-1)) in the orbit Gram g_m = form(Phi^m y, y),
    and g_0..g_(v-1) vanish, so kind ``w`` exits at the first nonzero
    g_m, m = v + u.  As Phi^k y = y, g_(k-m) = +-Frob^(k-m)(g_m) (minus
    when symplectic), so m <= floor(k/2): the ``w`` bound of
    ``reachable_at_k``.

    A signed label (``_label_is_signed``) takes the sign of the member
    (kind ``w``) or of its top (``wprime``), with B's rows gathered by
    index (``_minus``).  The KR class does not read the walk: a member U
    and its image are isotropic, so U + Phi(U) is isotropic exactly when
    every row of U pairs to 0 with every row of Phi(U); stable members
    are ``id`` and formless ones ``wprime``.
    """
    v, y = blk.v, blk.y
    formed = A.gram is not None
    if not v:
        return np.arange(len(y)), np.full(len(y), _code(0, cfg.case == "ZY", 0, int(kr)))
    rows, pivots, keep = [y], [(y != 0).argmax(1)], np.ones(len(y), dtype=bool)
    z = last = y
    for j in range(1, v + 1):
        z = A.FROB_INV.take(z)
        if formed and j < v:
            keep &= _form(A, y, z) == 0
        res = _reduce(A, rows, pivots, z)
        keep &= res.any(1)
        if j < v:
            _append(A, rows, pivots, res)
            last = z
    index = keep.nonzero()[0]
    rows, pivots = [r[index] for r in rows], [p[index] for p in pivots]
    z, last = y[index], last[index]
    u = np.zeros(len(index), dtype=np.int64)
    aniso = np.zeros(len(index), dtype=bool)
    live = np.ones(len(index), dtype=bool)
    # a live residual joins the independent rows, so at most dim - v join
    for _ in range(y.shape[1] - v + 1):
        z = A.FROB.take(z)
        if formed:
            exits = live & (_form(A, z, last) != 0)
            aniso |= exits
            live &= ~exits
        res = _reduce(A, rows, pivots, z)
        live &= res.any(1)
        if not live.any():
            break
        res[~live] = 0
        _append(A, rows, pivots, res)
        u += live
    else:
        raise ChainError(f"up walk still live past the dimension {y.shape[1]}")
    w = aniso | (cfg.case == "ZY")
    sign = np.zeros(len(index), dtype=np.int64)
    for kind, of_kind, top in (("w", w, rows[:v]), ("wprime", ~w, rows)):
        at = of_kind.nonzero()[0]
        if len(at) and _label_is_signed(cfg, kind):
            F = np.concatenate([_bottom_rows(blk, index[at]), np.stack([r[at] for r in top], 1)], 1)
            sign[at] = 1 + _minus(A, F)
    krc = 0
    if kr:
        krc = 3
        if formed:
            U = np.concatenate([_bottom_rows(blk, index), np.stack(rows[:v], 1)], 1)
            krc = np.where(_pairs_nonzero(A, U, A.FROB.take(U)), 2, 3)
    return index, _code(u, w, sign, krc)


def _bottom_rows(blk: _Block, at) -> np.ndarray:
    """The rows of the bottoms of the candidates at ``at``, shape
    (len(at), d - v, dim)."""
    shape = (len(blk.bottoms), blk.bottoms[0].dim, blk.y.shape[1])
    return np.array([B.rows for B in blk.bottoms], dtype=np.int16).reshape(shape)[blk.which[at]]


def _form(A: _Arrays, x, y) -> np.ndarray:
    """The form on the vectors along the last axes of x and y, broadcast
    over the others."""
    acc = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), dtype=np.int16)
    for i, j, g in A.gram:
        acc = A.add(acc, A.mul(A.mul(g, x[..., i]), y[..., j]))
    return acc


def _reduce(A: _Arrays, rows, pivots, z) -> np.ndarray:
    """Each z reduced by its semi-echelon rows: zero exactly where z lies
    in their span."""
    for r, p in zip(rows, pivots):
        z = A.add(z, A.mul(A.NEG.take(np.take_along_axis(z, p[:, None], 1)), r))
    return z


def _append(A: _Arrays, rows: list, pivots: list, res) -> None:
    """Add residuals as the next semi-echelon rows, each scaled to a 1 at
    its first nonzero entry, its pivot (a zero residual stays zero)."""
    p = (res != 0).argmax(1)
    rows.append(A.mul(A.INV.take(np.take_along_axis(res, p[:, None], 1)), res))
    pivots.append(p)


def _pairs_nonzero(A: _Arrays, U, W) -> np.ndarray:
    """Whether some row of U[i] pairs to a nonzero value with some row of
    W[i], for each i."""
    return (_form(A, U[:, :, None, :], W[:, None, :, :]) != 0).any((1, 2))


def _minus(A: _Arrays, F) -> np.ndarray:
    """Whether each maximal isotropic F[i] (its rows along axis 1) of the
    even symmetric space has component sign ``-``.

    The sign is ``+`` exactly when dim(F cap L_ref) is congruent to m
    modulo 2 for a reference Lagrangian L_ref.  That dimension is m minus
    the rank of F's coordinates along an isotropic complement of L_ref, so
    the sign is ``+`` when that rank is even.  In the split kind L_ref is
    span(e_1..e_m), with complement span(f_1..f_m).  In the non-split kind
    the last pair spans diag(1, -delta), and L_ref is
    span(e_1..e_(m-1), s e_m + f_m) with s^2 = delta (the root of smaller
    code), which exists only where delta is a square; along the complement
    span(f_1..f_(m-1), f_m - s e_m) the last coordinate is a multiple of
    s x_(f_m) - x_(e_m).
    """
    sp, ctx = A.space, A.space.ctx
    m = sp.dim // 2
    cols = F[..., m:].copy()
    if sp.kind == "symmetric-even-nonsplit" and m:
        delta = ctx.NEG[sp.gram[-1][-1]]
        s = next((x for x in range(ctx.size) if ctx.MUL[x][x] == delta), None)
        if s is None:
            raise ConfigError("no maximal isotropic exists where delta is not a square")
        cols[..., -1] = A.add(A.mul(s, F[..., -1]), A.NEG.take(F[..., m - 1]))
    return _rank(A, cols) % 2 == 1


def _rank(A: _Arrays, M) -> np.ndarray:
    """The rank of each matrix M[i]: the number of its rows that leave
    the span of the rows before them (``_reduce``, ``_append``)."""
    rank = np.zeros(len(M), dtype=np.int64)
    rows, pivots = [], []
    for i in range(M.shape[1]):
        res = _reduce(A, rows, pivots, M[:, i])
        rank += res.any(1)
        _append(A, rows, pivots, res)
    return rank


def _tally(cfg: StrataConfig, budget: int | None, kr: bool) -> Counter:
    """Classify every member once: a Counter of (KR class, label) pairs,
    the KR class None unless ``kr``."""
    A = _Arrays(cfg.build_space())
    found: Counter = Counter()
    for blk in _blocks(cfg, A, budget):
        _, codes = classify_block(cfg, A, blk, kr)
        for code, count in zip(*np.unique(codes, return_counts=True)):
            found[blk.v, int(code)] += int(count)
    tally: Counter = Counter()
    for (v, code), count in found.items():
        label, _, kr_class = _decode(cfg, v, code)
        tally[kr_class, label] += count
    return tally


def _label_counts(tally: Counter) -> Counter:
    counts: Counter[StratumLabel] = Counter()
    for (_, label), c in tally.items():
        counts[label] += c
    return counts


def stratum_counts(cfg: StrataConfig, budget: int | None = None):
    """Exhaustive classification; returns (Counter[label], member_total)."""
    counts = _label_counts(_tally(cfg, budget, kr=False))
    return counts, sum(counts.values())


# -- decomposition verification -------------------------------------------

def _kr_fiber_prediction(cfg: StrataConfig, label: StratumLabel) -> str:
    if label.kind == "id":
        return "id"
    if cfg.case == "ZY":
        return "id" if label.r == label.s else "wprime"
    return "w" if label.kind == "w" and label.s == cfg.frame[1] else "wprime"


def stable_count_check(cfg: StrataConfig, counts: Counter, name: str) -> dict:
    """The stable members (labels with r = s) against their closed-form
    count, taken over GF(q) so that no second working field is built."""
    stable = sum(c for l, c in counts.items() if l.r == l.s)
    base = FormedSpace(FieldCtx(cfg.p, cfg.e, 1), cfg.space_kind, cfg.space_dim)
    oracle = spc.count_oracle(base, cfg.member_dim, cfg.case != "ZY")
    return check(name, ok=stable == oracle, data={"members": sum(counts.values())})


def verify_decomposition(cfg: StrataConfig, budget: int | None = None) -> dict:
    """Run all decomposition checks; returns a report dictionary."""
    checks = []
    expected = predicted_index_set(cfg)
    reach = frozenset(l for l in expected if reachable_at_k(cfg, l))

    try:
        kr_counts = _tally(cfg, budget, kr=True)
    except BudgetExceeded as exc:
        return {
            "config": cfg.describe(),
            "counts": [],
            "checks": [inconclusive("enumeration", witness=str(exc))],
        }

    counts = _label_counts(kr_counts)
    realized = frozenset(counts)

    checks.append(stable_count_check(cfg, counts, "partition"))

    stray = sorted(l.key() for l in realized - expected)
    checks.append(check("labels_within_index_set", witness=stray))

    missing = sorted(l.key() for l in reach - realized)
    extra = sorted(l.key() for l in realized - reach)
    checks.append(check("index_set_coverage_at_k", ok=not missing and not extra, data={
        "expected_at_k": sorted(l.key() for l in reach),
        "missing": missing,
        "extra": extra,
    }))

    closure_union = frozenset().union(*(closure_index_set(cfg, tl) for tl in top_labels(cfg)))
    checks.append(check("top_closure_identity", ok=closure_union == expected, witness={
        "closure_minus_index": sorted(l.key() for l in closure_union - expected),
        "index_minus_closure": sorted(l.key() for l in expected - closure_union),
    }))

    # sorted: label hashes include hash(None), which varies between runs
    mono_bad = []
    for label in sorted(expected, key=StratumLabel.key):
        dl = reference_dimension(cfg, label)
        for other in sorted(closure_index_set(cfg, label), key=StratumLabel.key):
            if other != label and reference_dimension(cfg, other) >= dl:
                mono_bad.append((label.key(), other.key()))
    checks.append(check("dimension_monotonicity", witness=mono_bad))

    kr_bad = []
    for (kr, label), cnt in sorted(kr_counts.items(), key=lambda x: (x[0][0], x[0][1].key())):
        if _kr_fiber_prediction(cfg, label) != kr:
            kr_bad.append({"kr": kr, "label": label.key(), "count": cnt})
    checks.append(check("kr_refinement", witness=kr_bad))

    if cfg.case == "Y" and cfg.n % 2 == 0 and cfg.t < cfg.h == cfg.n:
        nonw = sum(c for (kr, _), c in kr_counts.items() if kr != "w")
        checks.append(check("kr_cross_locus_empty", ok=nonw == 0,
                            data={"non_w_members": nonw}))

    signed_expected = sorted(
        (l for l in reach if l.sign == "+"), key=lambda l: l.key()
    )
    if signed_expected:
        pair_bad = []
        for label in signed_expected:
            twin = StratumLabel(label.r, label.s, label.kind, "-")
            if counts.get(twin, 0) != counts.get(label, 0) or counts.get(label, 0) == 0:
                pair_bad.append({"label": label.key(), "plus": counts.get(label, 0),
                                 "minus": counts.get(twin, 0)})
        checks.append(check("sign_classes_balanced", witness=pair_bad))

    return {
        "config": cfg.describe(),
        "counts": [
            {"label": label.key(), "count": counts[label]}
            for label in sorted(counts, key=lambda l: l.key())
        ],
        "checks": checks,
    }
