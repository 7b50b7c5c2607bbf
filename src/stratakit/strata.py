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

Members are enumerated as Frobenius-Krylov spans B + <y, Phi^-1 y, ...>
over a Frobenius-stable bottom B and classified from that data: one walk
adds Phi y, Phi^2 y, ... until the span turns non-isotropic (kind ``w``)
or stabilizes while isotropic (kind ``wprime``; ``id`` for stable members).
Each case places its labels in one frame (top, level, bottom), the
(rank, level) that the ``weyl`` word families take (``StrataConfig.frame``):
members have dimension top - level, and a member whose chain runs v steps
down and u steps up has the label (r, s) = (level + v, level - u).  The
label (r, s, kind, sign) is compared against the predicted index sets,
closure identities, Kottwitz-Rapoport fibers and sign-class statistics.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field

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
    """A chain step changed dimension by more than one: malformed member."""


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


@dataclass(frozen=True)
class KrylovMember(Subspace):
    """A member U = B + <y, Phi^-1 y, ..., last = Phi^-(v-1) y> with its
    Krylov data, which stay outside equality and hashing."""

    y: tuple | None = field(default=None, compare=False)
    v: int = field(default=0, compare=False)
    last: tuple | None = field(default=None, compare=False)


def _krylov_data(U: Subspace):
    """(y, v, last) from one down chain to B: y is any vector of U_(v-1) - B."""
    above, cur, v = None, U, 0
    while not _phi_stable(cur):
        above, cur, v = cur, intersect(cur, apply_phi(cur)), v + 1
        if cur.dim != above.dim - 1:
            raise ChainError(f"down step dropped {above.dim - cur.dim} dimensions")
    if not v:
        return None, 0, None
    y = last = next(r for r in above.rows if not cur.contains(r))
    for _ in range(v - 1):
        last = spc._phi_vector(U.space, last, True)
    return y, v, last


def classify_flag(cfg: StrataConfig, U: Subspace) -> tuple[StratumLabel, list[int]]:
    """Stratum label of a member plus the dimensions of its flag chain.

    U = B + <y, ..., Phi^-(v-1) y> (``enumerate_members``; other members
    run their down chain once) has the down chain B + <y, ..., Phi^-i y>
    to its bottom B of dimension d - v.  The up walk reduces Phi y, Phi^2
    y, ... against one echelon basis seeded with U's rows, and stops
    ``stable`` on a zero residual, ``anisotropic`` when form(Phi^j y,
    Phi^-(v-1) y), the one new pair, is nonzero, at a top of dimension
    d + u.  The label is (level + v, level - u) in every case.
    That pair is Frob^-(v-1)(g_(j+v-1)) in the orbit Gram g_m = form(Phi^m
    y, y), and g_0..g_(v-1) vanish, so kind ``w`` exits at the first nonzero
    g_m, m = v + u.  As Phi^k y = y, g_(k-m) = +-Frob^(k-m)(g_m) (minus when
    symplectic), so m <= floor(k/2): the ``w`` bound of ``reachable_at_k``.
    """
    sp, ctx, d = U.space, U.space.ctx, U.dim
    y, v, last = (U.y, U.v, U.last) if isinstance(U, KrylovMember) else _krylov_data(U)
    rows, pivots, z, anisotropic = list(U.rows), list(U.pivots), y, False
    while v:
        z = spc._phi_vector(sp, z)
        if sp.gram is not None and sp.form(z, last):
            anisotropic = True
            break
        res = linalg.residual(ctx, rows, pivots, z)
        p = next((j for j, x in enumerate(res) if x), None)
        if p is None:
            break
        scale = ctx.MUL[ctx.INV[res[p]]]
        rows.append(tuple(scale[x] for x in res))
        pivots.append(p)
    u = len(rows) - d
    level = cfg.frame[1]
    kind = "w" if anisotropic or cfg.case == "ZY" else "wprime" if v else "id"
    sign = None
    if _label_is_signed(cfg, kind):
        sign = component_sign(cfg, U if kind == "w" else Subspace.from_rows(sp, rows))
    return StratumLabel(level + v, level - u, kind, sign), list(range(d - v, d + u + 1))


def _label_is_signed(cfg: StrataConfig, kind: str) -> bool:
    """Whether the tops of this kind are maximal isotropics of an even
    symmetric space, split by component sign: ``w`` at level 0, ``wprime``
    at level 1."""
    return (cfg.space_kind.startswith("symmetric-even")
            and (kind, cfg.frame[1]) in (("w", 0), ("wprime", 1)))


def kr_class(cfg: StrataConfig, U: Subspace) -> str:
    """First-step trichotomy: stable / isotropic span / non-isotropic span.

    A member U and its image are isotropic, so U + Phi(U) is isotropic
    exactly when every row of U is orthogonal to every row of Phi(U).
    """
    if _phi_stable(U):
        return "id"
    if cfg.case == "ZY":
        return "wprime"
    form = U.space.form
    phi_rows = apply_phi(U).rows
    return "w" if any(form(u, v) for u in U.rows for v in phi_rows) else "wprime"


def component_sign(cfg: StrataConfig, F: Subspace) -> str:
    """Family of a maximal isotropic in the even symmetric space.

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
    if cfg.case != "Y" or cfg.n % 2 != 0:
        raise ConfigError("component signs only exist in even symmetric Y cases")
    sp, ctx = F.space, F.space.ctx
    m = sp.dim // 2
    if F.dim != m:
        raise ConfigError("component sign needs a maximal isotropic subspace")
    cols = [r[m:] for r in F.rows]
    if sp.kind == "symmetric-even-nonsplit" and m:
        delta = ctx.NEG[sp.gram[-1][-1]]
        s = next((x for x in range(ctx.size) if ctx.MUL[x][x] == delta), None)
        if s is None:
            raise ConfigError("no maximal isotropic exists where delta is not a square")
        ms = ctx.MUL[s]
        cols = [c[:-1] + (ctx.ADD[ms[c[-1]]][ctx.NEG[r[m - 1]]],) for c, r in zip(cols, F.rows)]
    return "-" if linalg.rank(ctx, cols) % 2 else "+"


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
      sits at most at floor(k/2) (see ``classify_flag``);
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


# -- member enumeration ---------------------------------------------------

def rational_subspaces(sp: FormedSpace, d: int, isotropic_only: bool):
    """Every Frobenius-stable d-subspace (isotropic ones only when asked),
    once: the echelon matrices with GF(q) entries, in the order of
    ``linalg.row_spaces``, which solves for the isotropic ones (the Gram
    entries lie in GF(q))."""
    gram = sp.gram if isotropic_only else None
    for rows, pivots in linalg.row_spaces(sp.ctx, sp.ctx.subfield_codes(1), sp.dim, d, gram):
        yield Subspace(sp, rows, pivots)


def enumerate_members(cfg: StrataConfig, budget: int | None = None):
    """Stream every member rational over GF(q^k), exactly once.

    A member U that is not Phi-stable runs down its chain
    U = U_0 > U_1 > ... > U_v = B, U_(i+1) = U_i cap Phi(U_i), one
    dimension a step, to its Phi-stable bottom B; and U_(i-1) is
    U_i + Phi^-1(U_i), so U is the Frobenius-Krylov span
    B + <y, Phi^-1 y, ..., Phi^-(v-1) y> of a vector y spanning U_(v-1)/B.
    As Phi^k(U) = U, y can be taken Phi^k-fixed in a GF(q^k)-rational
    complement of B (in B^perp in the formed cases), where it is unique up
    to a scalar.  Conversely, such a span is a member with bottom B when
    it is isotropic (y isotropic and orthogonal to each Phi^-j y, j < v),
    has dimension d, and misses Phi^-v y.  So the members are enumerated
    as pairs (B, y), the stable ones (v = 0) first; the others come as
    ``KrylovMember`` values that carry (y, v).  Since Phi^-k y = y,
    v <= k - 1: at v = k the span would contain Phi^-v y, and past k it
    would have dimension below d.

    Both scans come from ``linalg.row_spaces``, which solves for the
    isotropic subspaces rather than filtering: the stable ones over GF(q)
    (``rational_subspaces``), and the lines <y> of the complement over
    GF(q^k) in its coordinates, under the complement's Gram in the
    symmetric kinds (in the symplectic and formless kinds every line is
    isotropic).  Phi^k fixes every vector of the working field, so the
    complement is the rows of rref(B^perp) whose pivots are not B's: y is
    zero at B's pivots with a leading 1, and a v = 1 member's echelon
    form is B with y's pivot column cleared, plus y.

    ``budget`` (default ``SUBSPACE_BUDGET``) bounds the stable members
    plus the (B, line of its complement) candidates, isotropic or not,
    counted in closed form before the scan starts.
    """
    sp = cfg.build_space()
    ctx = sp.ctx
    d, k = cfg.member_dim, cfg.k
    iso = cfg.case in ("Z", "Y")
    symmetric = sp.kind.startswith("symmetric")
    scalars = ctx.subfield_codes(k)
    vmax = min(d, k - 1)
    limit = SUBSPACE_BUDGET if budget is None else budget
    # the one budget gate, exact: the stable members, then for each v the
    # stable bottoms times the lines of their complement
    estimate = spc.count_oracle(sp, d, iso) + sum(
        spc.count_oracle(sp, d - v, iso)
        * gaussian_binomial(sp.dim - (2 if iso else 1) * (d - v), 1, len(scalars))
        for v in range(1, vmax + 1))
    if estimate > limit:
        raise BudgetExceeded(f"estimated {estimate} member candidates exceeds budget {limit}")
    yield from rational_subspaces(sp, d, iso)
    form = sp.form
    for v in range(1, vmax + 1):
        for B in rational_subspaces(sp, d - v, iso):
            amb = perp(B) if iso else spc.full_subspace(sp)
            comp = [r for r, pc in zip(amb.rows, amb.pivots) if pc not in B.pivots]
            heads = [pc for pc in amb.pivots if pc not in B.pivots]  # y's pivot, by its lead
            gram = [[form(a, b) for b in comp] for a in comp] if symmetric else None
            nzcomp = linalg._nonzero(comp)
            for (x,), (lead,) in linalg.row_spaces(ctx, scalars, len(comp), 1, gram):
                y = linalg._combine(ctx, sp.dim, nzcomp, x)
                z = spc._phi_vector(sp, y, True)  # the next Krylov vector
                if v == 1:
                    (red, piv), last = _adjoin(ctx, B, y, heads[lead]), y
                else:
                    rows = [*B.rows, y]
                    while len(rows) < d and not (iso and form(y, z)):
                        rows.append(z)
                        z = spc._phi_vector(sp, z, True)
                    if len(rows) < d:
                        continue
                    red, piv = linalg.rref(ctx, rows)
                    if len(red) < d:
                        continue
                    last = rows[-1]
                if not linalg.contains_vector(ctx, red, piv, z):
                    yield KrylovMember(sp, red, piv, y, v, last)


def _adjoin(ctx: FieldCtx, B: Subspace, y, p: int) -> tuple:
    """Echelon data of B + <y> for y zero at B's pivots with its leading 1
    at p: B's rows with column p cleared, and y, in pivot order."""
    ADD, MUL, NEG = ctx.ADD, ctx.MUL, ctx.NEG
    rows = []
    for r in B.rows:
        if r[p]:
            m = MUL[NEG[r[p]]]
            r = tuple([ADD[a][m[b]] for a, b in zip(r, y)])
        rows.append(r)
    at = bisect.bisect(B.pivots, p)
    rows.insert(at, y)
    return tuple(rows), B.pivots[:at] + (p,) + B.pivots[at:]


def _tally(cfg: StrataConfig, budget: int | None, kr: bool) -> Counter:
    """Classify every member once: a Counter of (KR class, label) pairs,
    the KR class None unless ``kr``."""
    return Counter((kr_class(cfg, U) if kr else None, classify_flag(cfg, U)[0])
                   for U in enumerate_members(cfg, budget=budget))


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
