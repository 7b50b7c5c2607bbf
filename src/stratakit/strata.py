"""Membership tests, the flag-chain classifier, and decomposition checks.

Three families of point sets are covered, all living inside a formed (or
formless) space base-changed to GF(q^k):

* case ``Z``: isotropic subspaces of a symplectic space of dimension t
  with an intersection-deficiency condition (parameters t > h >= 0);
* case ``Y``: isotropic subspaces of a symmetric space of dimension n - t
  with a sum-excess condition (parameters t < h <= n), split/non-split
  resolved through the sign parameter eps;
* case ``ZY``: subspaces of a formless space of dimension (t1 - t2)/2
  with the intersection condition (parameters t2 <= h <= t1).

Every member is classified by running its intersection chain down to a
Frobenius-stable bottom and its sum chain up until the span either turns
non-isotropic (kind ``w``) or stabilizes while isotropic (kind ``wprime``;
kind ``id`` when the member itself is stable).  The resulting label
(r, s, kind, sign) is compared against the predicted index sets, closure
identities, Kottwitz-Rapoport fibers and sign-class statistics.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

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
        if self.case not in ("Z", "Y", "ZY"):
            raise ConfigError(f"unknown case {self.case!r}")
        if self.k < 1:
            raise ConfigError("extension degree k must be >= 1")
        if self.case == "Z":
            if self.t % 2 or self.h % 2:
                raise ConfigError("types must be even integers")
            if not 0 <= self.h <= self.t:
                raise ConfigError("case Z needs 0 <= h <= t")
        elif self.case == "Y":
            if self.t % 2 or self.h % 2:
                raise ConfigError("types must be even integers")
            if not 0 <= self.t <= self.h <= self.n:
                raise ConfigError("case Y needs 0 <= t <= h <= n")
            if self.eps not in (-1, 1):
                raise ConfigError("eps must be +-1")
            if self.n % 2 == 0 and self.h == self.n and self.eps == -1:
                raise ConfigError("a maximal level forces eps = +1")
        else:
            if self.t1 % 2 or self.t2 % 2 or self.h % 2:
                raise ConfigError("types must be even integers")
            if not 0 <= self.t2 <= self.h <= self.t1:
                raise ConfigError("case ZY needs t2 <= h <= t1")

    # -- derived quantities ---------------------------------------------

    @property
    def th(self) -> int:
        return self.t // 2

    @property
    def hh(self) -> int:
        return self.h // 2

    @property
    def nh(self) -> int:
        return self.n // 2

    @property
    def hp(self) -> int:
        return self.nh - self.hh

    @property
    def tp(self) -> int:
        return self.nh - self.th

    @property
    def th1(self) -> int:
        return self.t1 // 2

    @property
    def th2(self) -> int:
        return self.t2 // 2

    @property
    def member_dim(self) -> int:
        if self.case == "Z":
            return self.th - self.hh
        if self.case == "Y":
            return self.hh - self.th
        return self.th1 - self.hh

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
        return self.th1 - self.th2

    @property
    def ambient_degree(self) -> int:
        """Coordinate field degree needed to see all GF(q^k)-points."""
        if self.space_kind == "symmetric-even-nonsplit" and self.k % 2 == 1:
            return 2 * self.k
        return self.k

    def field_ctx(self) -> FieldCtx:
        return FieldCtx(self.p, self.e, self.ambient_degree)

    def build_space(self) -> FormedSpace:
        return FormedSpace(self.field_ctx(), self.space_kind, self.space_dim)

    def describe(self) -> dict:
        d = {"case": self.case, "p": self.p, "e": self.e, "k": self.k}
        if self.case == "Z":
            d.update(t=self.t, h=self.h)
        elif self.case == "Y":
            d.update(n=self.n, h=self.h, t=self.t, eps=self.eps)
        else:
            d.update(t1=self.t1, h=self.h, t2=self.t2)
        return d


# -- membership and classification ---------------------------------------

def member(cfg: StrataConfig, U: Subspace) -> bool:
    sp = U.space
    if sp.dim != cfg.space_dim or sp.kind != cfg.space_kind:
        raise ConfigError("subspace does not live in the configured space")
    d = cfg.member_dim
    if U.dim != d:
        return False
    phiU = apply_phi(U)
    if cfg.case == "Z":
        return is_isotropic(U) and intersect(U, phiU).dim >= d - 1
    if cfg.case == "Y":
        return is_isotropic(U) and sum_spaces(U, phiU).dim <= d + 1
    return intersect(U, phiU).dim >= d - 1


def _phi_stable(U: Subspace) -> bool:
    """Frobenius stability; a canonical matrix of an untwisted space is
    stable exactly when all its entries are Frobenius-fixed."""
    sp = U.space
    if sp.kind != "symmetric-even-nonsplit":
        FROB = sp.ctx.FROB
        return all(FROB[x] == x for row in U.rows for x in row)
    return apply_phi(U).rows == U.rows


def _chain_down(U: Subspace) -> list[Subspace]:
    chain = [U]
    cur = U
    while not _phi_stable(cur):
        nxt = intersect(cur, apply_phi(cur))
        if nxt.dim != cur.dim - 1:
            raise ChainError(f"down step dropped {cur.dim - nxt.dim} dimensions")
        chain.insert(0, nxt)
        cur = nxt
    return chain


def _chain_up(U: Subspace) -> tuple[list[Subspace], str]:
    """Sum chain until stabilization or, in a formed space, loss of
    isotropy; returns (chain, kind)."""
    formed = U.space.gram is not None
    chain = [U]
    cur = U
    while not _phi_stable(cur):
        nxt = sum_spaces(cur, apply_phi(cur))
        if formed and not is_isotropic(nxt):
            return chain, "anisotropic"
        if nxt.dim != cur.dim + 1:
            raise ChainError(f"up step added {nxt.dim - cur.dim} dimensions")
        chain.append(nxt)
        cur = nxt
    return chain, "stable"


def classify_flag(cfg: StrataConfig, U: Subspace) -> tuple[StratumLabel, list[Subspace]]:
    """Stratum label of a member plus the full flag chain for audit."""
    down = _chain_down(U)
    bottom = down[0]
    up, stop = _chain_up(U)
    top = up[-1]
    if cfg.case == "ZY":
        return StratumLabel(cfg.th1 - bottom.dim, cfg.th1 - top.dim, "w"), down[:-1] + up
    if cfg.case == "Z":
        r = cfg.th - bottom.dim
        s = cfg.th - top.dim
    else:
        r = cfg.tp - bottom.dim
        s = cfg.tp - top.dim
    if stop == "anisotropic":
        kind = "w"
    elif top.dim == U.dim and bottom.dim == U.dim:
        kind = "id"
    else:
        kind = "wprime"
    sign = None
    if _label_is_signed(cfg, kind):
        sign = component_sign(cfg, top if kind == "wprime" else U)
    return StratumLabel(r, s, kind, sign), down[:-1] + up


def _label_is_signed(cfg: StrataConfig, kind: str) -> bool:
    if cfg.case != "Y" or cfg.n % 2 != 0:
        return False
    if cfg.h == cfg.n and kind == "w":
        return True
    if cfg.h == cfg.n - 2 and kind == "wprime":
        return True
    return False


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

    The reference family is span(e_1..e_m); the sign is ``+`` exactly when
    dim(F cap L_ref) is congruent to m modulo 2.
    """
    if cfg.case != "Y" or cfg.n % 2 != 0:
        raise ConfigError("component signs only exist in even symmetric Y cases")
    sp = F.space
    m = sp.dim // 2
    if F.dim != m:
        raise ConfigError("component sign needs a maximal isotropic subspace")
    lref = Subspace.from_rows(sp, [sp.e(i + 1) for i in range(m)])
    inter = intersect(F, lref)
    return "+" if (inter.dim - m) % 2 == 0 else "-"


# -- expected index sets, reachability, reference dimensions -------------

def predicted_index_set(cfg: StrataConfig) -> frozenset[StratumLabel]:
    """The predicted full label set for the configuration."""
    labels: set[StratumLabel] = set()
    if cfg.case == "Z":
        t, h = cfg.th, cfg.hh
        if t == h:
            return frozenset({StratumLabel(h, h, "id")})
        labels.add(StratumLabel(h, h, "id"))
        for i in range(h + 1, t + 1):
            for j in range(0, h + 1):
                labels.add(StratumLabel(i, j, "w"))
            for j in range(0, h):
                labels.add(StratumLabel(i, j, "wprime"))
        return frozenset(labels)
    if cfg.case == "ZY":
        # A stable chain end forces a fully stable member, so the box of
        # labels degenerates: only j < h < i survives besides the fixed
        # point (h, h).  Verified exhaustively; the printed box includes
        # edge labels that hold no points.
        t1, t2, h = cfg.th1, cfg.th2, cfg.hh
        labels.add(StratumLabel(h, h, "w"))
        for i in range(h + 1, t1 + 1):
            for j in range(t2, h):
                labels.add(StratumLabel(i, j, "w"))
        return frozenset(labels)
    # Case Y, in primed coordinates.  The split/non-split flavors each
    # lose one family of labels to a parity obstruction on maximal
    # isotropics (verified exhaustively): in the split form a `w` chain
    # cannot exit at a Lagrangian top (same-family intersections have
    # fixed parity, forcing stability), so j >= 1 there; in the non-split
    # form there are no Frobenius-stable Lagrangians, so `wprime` needs
    # j >= 1 and the fixed point disappears when members are Lagrangian.
    hp, tp = cfg.hp, cfg.tp
    if cfg.t == cfg.h:
        return frozenset({StratumLabel(hp, hp, "id")})
    kind = cfg.space_kind
    if kind != "symmetric-even-nonsplit" or hp >= 1:
        labels.add(StratumLabel(hp, hp, "id"))
    w_js = range(1 if kind == "symmetric-even-split" else 0, hp + 1)
    wp_js = range(1 if kind == "symmetric-even-nonsplit" else 0, hp)
    for label_kind, js in (("w", w_js), ("wprime", wp_js)):
        signs = ("+", "-") if _label_is_signed(cfg, label_kind) else (None,)
        labels.update(StratumLabel(i, j, label_kind, sign)
                      for i in range(hp + 1, tp + 1) for j in js for sign in signs)
    return frozenset(labels)


def reachable_at_k(cfg: StrataConfig, label: StratumLabel, k: int | None = None) -> bool:
    """Whether a stratum has GF(q^k)-points.

    Write v = r - h and u = h - s for the numbers of intersection and sum
    steps of a member's chain.  Empirically (exhaustive enumeration over
    k <= 4 on desk-scale configurations, frozen in the tests):

    * kind ``id``: always;
    * kind ``w``: v + u <= floor(k/2) -- the non-isotropic exit pairs a
      chain vector against a Frobenius iterate, and the orbit Gram of a
      GF(q^k)-rational vector only has floor(k/2) free entries;
    * kind ``wprime`` and the formless case: v, u >= 1 and v + u <= k;
    * except that members at h = n of a non-split even space are
      Lagrangians, and a non-split form stays non-split over an odd-degree
      extension, so at odd k only ``id`` is reachable there.
    """
    if k is None:
        k = cfg.k
    if label.kind == "id":
        return True
    if cfg.space_kind == "symmetric-even-nonsplit" and cfg.h == cfg.n and k % 2:
        return False
    h = cfg.hp if cfg.case == "Y" else cfg.hh
    down = label.r - h
    up = h - label.s
    if label.r == label.s:
        return True  # formless fixed point
    if label.kind == "w" and cfg.case != "ZY":
        return down + up <= k // 2
    return down >= 1 and up >= 1 and down + up <= k


def reference_dimension(cfg: StrataConfig, label: StratumLabel) -> int:
    """Stratum dimension from the closed tables (audited against the
    Deligne-Lusztig formula and point-count growth in the tests)."""
    r, s = label.r, label.s
    if label.kind == "id":
        return 0
    if cfg.case == "Z":
        return r + s if label.kind == "w" else r - s - 1
    if cfg.case == "ZY":
        return 0 if r == s else r - s - 1
    if cfg.n % 2 == 1:
        return r + s if label.kind == "w" else r - s - 1
    return r + s - 1 if label.kind == "w" else r - s - 1


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


def top_label(cfg: StrataConfig) -> StratumLabel:
    if cfg.case == "Z":
        if cfg.t == cfg.h:
            return StratumLabel(cfg.hh, cfg.hh, "id")
        return StratumLabel(cfg.th, cfg.hh, "w")
    if cfg.case == "ZY":
        if cfg.th2 < cfg.hh < cfg.th1:
            return StratumLabel(cfg.th1, cfg.th2, "w")
        return StratumLabel(cfg.hh, cfg.hh, "w")
    if cfg.t == cfg.h:
        return StratumLabel(cfg.hp, cfg.hp, "id")
    sign = "+" if _label_is_signed(cfg, "w") else None
    return StratumLabel(cfg.tp, cfg.hp, "w", sign)


# -- member enumeration ---------------------------------------------------

def _fixed_vectors(sp: FormedSpace, rows, power: int = 1):
    """Phi^power-fixed vectors spanning the span of ``rows``, which must be
    Phi^power-stable (Galois descent).

    The echelon rows of a stable subspace of an untwisted space are fixed
    already.  In the twisted kind sigma = Phi^power has order r on vectors,
    and the traces cv + sigma(cv) + ... + sigma^(r-1)(cv) span the fixed
    vectors when c runs over the basis 1, g, ..., g^(r-1) of the field
    over the fixed field of sigma (g primitive).
    """
    if sp.kind != "symmetric-even-nonsplit":
        yield from rows
        return
    ctx = sp.ctx
    ADD, MUL = ctx.ADD, ctx.MUL
    order = ctx.k // math.gcd(ctx.k, power)
    for i in range(order):
        c = MUL[ctx.pow(ctx.gen_code, i)]
        for v in rows:
            w = acc = tuple(c[x] for x in v)
            for _ in range(order - 1):
                for _ in range(power):
                    w = spc._phi_vector(sp, w)
                acc = tuple(ADD[a][b] for a, b in zip(acc, w))
            yield acc


def rational_form_basis(sp: FormedSpace) -> list[tuple[int, ...]]:
    """A basis of Frobenius-fixed vectors: the standard basis in the
    untwisted kinds, traces of scaled standard vectors in the twisted one."""
    basis = _extend_basis(sp.ctx, [], _fixed_vectors(sp, spc.full_subspace(sp).rows))
    if len(basis) != sp.dim:
        raise RuntimeError("failed to build a fixed basis (bug)")
    return basis


def _extend_basis(ctx: FieldCtx, rows, candidates) -> list[tuple[int, ...]]:
    """Greedy basis extension: the candidates, in order, that are
    independent of the basis ``rows`` and of the candidates taken before."""
    rows = list(rows)
    out = []
    for vec in candidates:
        red, _ = linalg.rref(ctx, rows + [vec])
        if len(red) > len(rows):
            rows.append(vec)
            out.append(vec)
    return out


def _nonzero(rows) -> list[list[tuple[int, int]]]:
    return [[(j, x) for j, x in enumerate(r) if x] for r in rows]


def _combine(ctx: FieldCtx, n: int, basis, coeffs) -> tuple[int, ...]:
    """The vector sum of c * b over coeffs and the ``_nonzero`` basis rows."""
    ADD, MUL = ctx.ADD, ctx.MUL
    out = [0] * n
    for c, vec in zip(coeffs, basis):
        if c:
            m = MUL[c]
            for j, x in vec:
                out[j] = ADD[out[j]][m[x]]
    return tuple(out)


def rational_subspaces(sp: FormedSpace, d: int, isotropic_only: bool):
    """All Frobenius-stable d-subspaces, via the fixed-form basis."""
    ctx = sp.ctx
    if sp.kind != "symmetric-even-nonsplit":
        yield from spc.enumerate_subspaces(sp, d, k=1, isotropic_only=isotropic_only)
        return
    basis, n = _nonzero(rational_form_basis(sp)), sp.dim
    base_scalars = ctx.subfield_codes(1)
    row_filter = None
    if isotropic_only:
        form = sp.form

        def row_filter(coeff_rows):
            new = _combine(ctx, n, basis, coeff_rows[-1])
            if form(new, new) != 0:
                return False
            return all(form(_combine(ctx, n, basis, r), new) == 0
                       for r in coeff_rows[:-1])

    for rows in linalg.enumerate_echelon(ctx, sp.dim, d, base_scalars, row_filter):
        vecs = [_combine(ctx, n, basis, r) for r in rows]
        U = Subspace.from_rows(sp, vecs)
        if U.dim != d:
            raise RuntimeError("fixed basis was not independent (bug)")
        yield U


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
    as pairs (B, y), the stable ones (v = 0) first.  Since Phi^-k y = y,
    v <= k - 1: at v = k the span would contain Phi^-v y, and past k it
    would have dimension below d.
    """
    sp = cfg.build_space()
    ctx = sp.ctx
    d, k = cfg.member_dim, cfg.k
    iso = cfg.case in ("Z", "Y")
    symmetric = sp.kind.startswith("symmetric")
    scalars = ctx.subfield_codes(k)
    vmax = min(d, k - 1)
    limit = spc.SUBSPACE_BUDGET if budget is None else budget
    # upfront scan estimate: stable bottoms times the lines of a complement
    estimate = sum(spc.count_oracle(sp, d - v, k=1, isotropic_only=iso)
                   * gaussian_binomial(sp.dim - (2 if iso else 1) * (d - v), 1, len(scalars))
                   for v in range(1, vmax + 1))
    if estimate > limit:
        raise BudgetExceeded(f"estimated {estimate} member candidates exceeds budget {limit}")
    yield from rational_subspaces(sp, d, iso)
    form = sp.form
    scanned = 0
    for v in range(1, vmax + 1):
        for B in rational_subspaces(sp, d - v, iso):
            amb = perp(B) if iso else spc.full_subspace(sp)
            comp = _nonzero(_extend_basis(ctx, B.rows, _fixed_vectors(sp, amb.rows, k)))
            for coeffs in _line_reps(scalars, len(comp)):
                scanned += 1
                if scanned > limit:
                    raise BudgetExceeded(f"member scan exceeded budget {limit}")
                y = _combine(ctx, sp.dim, comp, coeffs)
                if symmetric and form(y, y):
                    continue
                rows = [*B.rows, y]
                z = spc._phi_vector(sp, y, True)  # the next Krylov vector
                for _ in range(v - 1):
                    if iso and form(y, z):
                        break
                    rows.append(z)
                    z = spc._phi_vector(sp, z, True)
                else:
                    U = Subspace.from_rows(sp, rows)
                    if U.dim == d and not U.contains(z):
                        yield U


def _line_reps(scalars, m: int):
    """Canonical projective representatives of lines in scalars^m."""
    for lead in range(m):
        for tail in itertools.product(scalars, repeat=m - lead - 1):
            yield (0,) * lead + (1,) + tail


def stratum_counts(cfg: StrataConfig, budget: int | None = None):
    """Exhaustive classification; returns (Counter[label], member_total)."""
    counts: Counter[StratumLabel] = Counter()
    total = 0
    for U in enumerate_members(cfg, budget=budget):
        label, _ = classify_flag(cfg, U)
        counts[label] += 1
        total += 1
    return counts, total


# -- decomposition verification -------------------------------------------

def _kr_fiber_prediction(cfg: StrataConfig, label: StratumLabel) -> str:
    if label.kind == "id":
        return "id"
    if cfg.case == "ZY":
        return "id" if label.r == label.s else "wprime"
    if cfg.case == "Z":
        h = cfg.hh
    else:
        h = cfg.hp
    if label.kind == "w" and label.s == h:
        return "w"
    return "wprime"


def verify_decomposition(cfg: StrataConfig, budget: int | None = None) -> dict:
    """Run all decomposition checks; returns a report dictionary."""
    checks = []
    expected = predicted_index_set(cfg)
    reach = frozenset(l for l in expected if reachable_at_k(cfg, l))

    counts: Counter[StratumLabel] = Counter()
    kr_counts: Counter[tuple[str, StratumLabel]] = Counter()
    total = 0
    try:
        for U in enumerate_members(cfg, budget=budget):
            label, _ = classify_flag(cfg, U)
            counts[label] += 1
            kr_counts[(kr_class(cfg, U), label)] += 1
            total += 1
    except BudgetExceeded as exc:
        return {
            "config": cfg.describe(),
            "counts": [],
            "checks": [inconclusive("enumeration", witness=str(exc))],
        }

    realized = frozenset(counts)

    checks.append(check("partition", ok=sum(counts.values()) == total,
                        data={"members": total}))

    stray = sorted(l.key() for l in realized - expected)
    checks.append(check("labels_within_index_set", witness=stray))

    missing = sorted(l.key() for l in reach - realized)
    extra = sorted(l.key() for l in realized - reach)
    checks.append(check("index_set_coverage_at_k", ok=not missing and not extra, data={
        "expected_at_k": sorted(l.key() for l in reach),
        "missing": missing,
        "extra": extra,
    }))

    top = top_label(cfg)
    tops = [top] if top.sign is None else [
        StratumLabel(top.r, top.s, top.kind, sg) for sg in ("+", "-")
    ]
    closure_union = frozenset().union(*(closure_index_set(cfg, tl) for tl in tops))
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
