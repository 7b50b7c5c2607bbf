"""Local-model affine charts as matrix varieties, with exact point counts.

Each stratum family has one affine chart near the worst point:

* ``Z``: matrices (e | f | X) of shape m x (m + 2*hh) over F_q with
  rank <= 1, whose trailing square block X is fixed by the antidiagonal
  adjoint X -> H X^T H (m = (t1 - h)/2, hh = h/2);
* ``Y``: plain rank <= 1 matrices of shape (hh - th2) x (n - h);
* ``ZY``: plain rank <= 1 matrices of shape (t1h - hh) x (hh - th2);
* ``pi-modular``: an affine space of dimension n/2 - th2 - 1.

Counts are computed by brute force over all entries (budgeted) and
against closed forms.  Dimension, smoothness and Gorenstein predicates
and the reduced-locus dimension table live here as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gf import _is_probable_prime
from .report import check, inconclusive
from .space import BudgetExceeded, gate

MATRIX_ENTRY_BUDGET = 10**8


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class ChartSpec:
    family: str  # "Z" | "Y" | "ZY" | "pi-modular"
    q: int
    n: int = 0
    h: int = 0
    t1: int = 0
    t2: int = 0

    def __post_init__(self):
        if self.family not in ("Z", "Y", "ZY", "pi-modular"):
            raise ChartError(f"unknown chart family {self.family!r}")
        if not _is_probable_prime(self.q):
            raise ChartError(f"charts count over a prime field, not q = {self.q}")
        for v in (self.h, self.t1, self.t2):
            if v % 2:
                raise ChartError("types must be even")
        if self.family == "Z" and not self.t1 > self.h >= 0:
            raise ChartError("Z chart needs t1 > h")
        if self.family == "Y" and not (self.t2 < self.h < self.n):
            raise ChartError("Y chart needs t2 < h < n")
        if self.family == "ZY" and not (self.t2 < self.h < self.t1):
            raise ChartError("ZY chart needs t2 < h < t1")
        if self.family == "pi-modular":
            if self.n % 2 or self.h != self.n:
                raise ChartError("pi-modular chart needs even n and h = n")
            if self.t2 > self.n - 2:
                raise ChartError("pi-modular chart needs t2 <= n - 2")

    def shape(self) -> tuple[int, int] | None:
        """(rows, cols) of the chart matrix; None for the affine chart."""
        if self.family == "Z":
            m = (self.t1 - self.h) // 2
            return (m, m + self.h)
        if self.family == "Y":
            return ((self.h - self.t2) // 2, self.n - self.h)
        if self.family == "ZY":
            return ((self.t1 - self.h) // 2, (self.h - self.t2) // 2)
        return None

    def dimension(self) -> int:
        if self.family == "pi-modular":
            return self.n // 2 - self.t2 // 2 - 1
        dim_z, dim_y, dim_zy = strata_dims(self.n, self.h, self.t1, self.t2)
        return {"Z": dim_z, "Y": dim_y, "ZY": dim_zy}[self.family]


def rank1_closed_form(a: int, b: int, q: int) -> int:
    """Number of a x b matrices over F_q of rank <= 1."""
    if a < 1 or b < 1:
        raise ChartError("matrix shape must be positive")
    return 1 + (q**a - 1) * (q**b - 1) // (q - 1)


def sym_block_rank1_count(m: int, a: int, q: int) -> int:
    """Rank <= 1 matrices of shape m x (m + a) whose trailing m x m block
    equals its antidiagonal adjoint.

    Writing a rank-one matrix as u v^T, the adjoint symmetry of the block
    forces the block part of v to be proportional to the reversal of u,
    which collapses the count to the plain rank <= 1 count of an
    m x (a + 1) matrix.  Frozen against brute force in the tests.
    """
    return rank1_closed_form(m, a + 1, q)


def chart_count_closed(spec: ChartSpec) -> int:
    q = spec.q
    if spec.family == "Z":
        m = (spec.t1 - spec.h) // 2
        return sym_block_rank1_count(m, spec.h, q)
    if spec.family == "pi-modular":
        return q ** spec.dimension()
    a, b = spec.shape()
    return rank1_closed_form(a, b, q)


def brute_rank1_count(a: int, b: int, q: int, ad_symmetric_block: int = 0,
                      budget: int | None = None) -> int:
    """Count rank <= 1 matrices of shape a x b by exhaustive enumeration.

    When ``ad_symmetric_block`` = m > 0 the trailing m columns form a
    square block constrained by X = H X^T H (entry (i, j) equals entry
    (m-1-j, m-1-i)).  The first ``low`` entries run over the rows of one
    digit-plane table of all q^low tuples; the rest are Python scalars,
    one chunk per value of them.
    """
    entries = a * b
    total = q**entries
    gate(total * entries, budget, MATRIX_ENTRY_BUDGET, f"{total} matrices x {entries} entries")
    minors = [
        (i1 * b + j1, i1 * b + j2, i2 * b + j1, i2 * b + j2)
        for i1 in range(a)
        for i2 in range(i1 + 1, a)
        for j1 in range(b)
        for j2 in range(j1 + 1, b)
    ]
    m = ad_symmetric_block
    sym_pairs = []
    if m:
        off = b - m
        for i in range(a):
            for j in range(m):
                p1 = i * b + off + j
                p2 = (m - 1 - j) * b + off + (m - 1 - i)
                if p1 < p2:
                    sym_pairs.append((p1, p2))
    low = min(entries, max(L for L in range(19) if q**L <= 1 << 18))
    # a signed dtype holding +-q^2 keeps every product, minor and q itself
    planes = list(np.indices((q,) * low, dtype=np.min_scalar_type(-q * q)).reshape(low, q**low))
    count = 0
    for high in itertools.product(range(q), repeat=entries - low):
        M = planes + list(high)
        ok = np.ones(q**low, dtype=bool)
        for p1, p2 in sym_pairs:
            ok &= M[p1] == M[p2]
        for a1, a2, a3, a4 in minors:
            det = M[a1] * M[a4] - M[a2] * M[a3]
            # det % q == 0; numpy divides an integer array by a scalar
            # many times faster than it takes the remainder
            ok &= det == det // q * q
        count += int(np.count_nonzero(ok))
    return count


def chart_count(spec: ChartSpec, budget: int | None = None) -> int:
    """Exact number of F_q-points of the chart, by brute force."""
    if spec.family == "pi-modular":
        return spec.q ** spec.dimension()
    a, b = spec.shape()
    m = (spec.t1 - spec.h) // 2 if spec.family == "Z" else 0
    return brute_rank1_count(a, b, spec.q, ad_symmetric_block=m, budget=budget)


# -- dimension and ring-theoretic predicates ------------------------------

def strata_dims(n: int, h: int, t1: int | None = None, t2: int | None = None):
    """(dim Z-stratum, dim Y-stratum, dim intersection).

    Entries are None when the corresponding parameter is missing.  The
    Y-dimension is n - (h + t2)/2 - 1: three independent computations
    (the chart above, the orthogonal stratification total, and inclusion
    monotonicity) pin the t2-sign, fixing a sign slip in one stated
    formula.
    """
    dim_z = (t1 + h) // 2 if t1 is not None else None
    dim_y = n - (h + t2) // 2 - 1 if t2 is not None else None
    dim_zy = (t1 - t2) // 2 - 1 if t1 is not None and t2 is not None else None
    return dim_z, dim_y, dim_zy


def predicates(n: int, h: int, t1: int | None = None, t2: int | None = None) -> dict:
    """Smoothness and Gorenstein criteria for the strata.

    Smoothness follows the chart shapes (a rank <= 1 chart is smooth
    exactly when it is a linear space) with the maximal-level blanket
    case; Gorenstein-ness is the numeric determinantal criterion, with
    ``*_in_scope`` flags recording the stated hypotheses h != 2*floor(n/2)
    and |h - t_i| > 2 rather than silently refusing to evaluate.
    """
    maximal = h == 2 * (n // 2)
    out: dict[str, bool | None] = {}
    if t1 is not None:
        out["smooth_Z"] = maximal or t1 - h == 2
        out["gorenstein_Z"] = t1 == 3 * h + 4
        out["gorenstein_Z_in_scope"] = not maximal and abs(h - t1) > 2
    if t2 is not None:
        out["smooth_Y"] = maximal or h - t2 == 2 or n - h == 1
        out["gorenstein_Y"] = t2 == 3 * h - 2 * n
        out["gorenstein_Y_in_scope"] = not maximal and abs(h - t2) > 2
    if t1 is not None and t2 is not None:
        out["smooth_ZY"] = maximal or t1 - h == 2 or h - t2 == 2
        out["gorenstein_ZY"] = 2 * h == t1 + t2
        out["gorenstein_ZY_in_scope"] = (
            not maximal and abs(h - t1) > 2 and abs(h - t2) > 2
        )
    return out


@dataclass(frozen=True)
class VertexTypeTable:
    """Allowed vertex-lattice types for an ambient of dimension n and
    sign eps (a lookup rule, not a lattice classification algorithm)."""

    n: int
    eps: int

    def __post_init__(self):
        if self.eps not in (-1, 1):
            raise ChartError("eps must be +-1")

    @property
    def t_max(self) -> int:
        if self.n % 2 == 1:
            return self.n - 1
        return self.n - 2 if self.eps == 1 else self.n

    def types(self) -> tuple[int, ...]:
        return tuple(range(0, self.t_max + 1, 2))


def is_admissible(n: int, h: int, eps: int) -> bool:
    """Whether the (n, h, eps) configuration exists at the level side.

    A maximal even level h = n forces eps = +1 (the level lattice then
    lives in a split space, so the vertex side is non-split).
    """
    if h % 2 or not 0 <= h <= 2 * (n // 2):
        return False
    if eps not in (-1, 1):
        return False
    if n % 2 == 0 and h == n and eps != 1:
        return False
    return True


def rz_dim(n: int, h: int, eps: int) -> int:
    """Dimension of the reduced locus: the case formula.

    Matches the stated special values for h = 0, h = n and h = n - 1;
    the general Y-side entry here is n - h/2 - 1 (the stated n - h/2 + 1
    disagrees with the stratum dimensions by 2, and the stated value for
    h = n - 2 with eps = -1 contradicts the worked example of that very
    case; both are corrected to the oracle).
    """
    if not is_admissible(n, h, eps):
        raise ChartError(f"inadmissible configuration (n={n}, h={h}, eps={eps})")
    t_max = VertexTypeTable(n, eps).t_max
    cands = []
    if h <= t_max:
        cands.append(0)  # worst points
    if t_max > h:
        cands.append((t_max + h) // 2)
    if h > 0:
        cands.append(n - h // 2 - 1)
    return max(cands)


def rz_dim_oracle(n: int, h: int, eps: int) -> int:
    """Max over allowed vertex types of the applicable stratum dimension."""
    if not is_admissible(n, h, eps):
        raise ChartError(f"inadmissible configuration (n={n}, h={h}, eps={eps})")
    best = None
    for t in VertexTypeTable(n, eps).types():
        if t == h:
            d = 0
        elif t > h:
            d = strata_dims(n, h, t1=t)[0]
        else:
            d = strata_dims(n, h, t2=t)[1]
        best = d if best is None else max(best, d)
    if best is None:
        raise ChartError("no vertex lattice at all (bug)")
    return best


def all_chart_specs(max_entries: int, qs=(3, 5), n_max: int = 12):
    """Every chart spec whose matrix has at most ``max_entries`` entries."""
    specs = []
    for q in qs:
        for n in range(2, n_max + 1, 2):
            for t2 in range(0, n, 2):
                if t2 <= n - 2:
                    specs.append(ChartSpec("pi-modular", q, n=n, h=n, t2=t2))
        for h in range(0, n_max + 1, 2):
            for t1 in range(h + 2, n_max + 1, 2):
                s = ChartSpec("Z", q, h=h, t1=t1)
                if s.shape()[0] * s.shape()[1] <= max_entries:
                    specs.append(s)
            for t2 in range(0, h, 2):
                for n in range(h + 2, n_max + 1):
                    s = ChartSpec("Y", q, n=n, h=h, t2=t2)
                    if s.shape()[0] * s.shape()[1] <= max_entries:
                        specs.append(s)
                for t1 in range(h + 2, n_max + 1, 2):
                    s = ChartSpec("ZY", q, h=h, t1=t1, t2=t2)
                    if s.shape()[0] * s.shape()[1] <= max_entries:
                        specs.append(s)
    return specs


def reconcile(spec: ChartSpec, budget: int | None = None) -> dict:
    """Brute force versus closed form, growth versus dimension, smoothness
    versus exact point count."""
    checks = []
    closed = chart_count_closed(spec)
    try:
        brute = chart_count(spec, budget=budget)
        checks.append(check("count_matches_closed_form", ok=brute == closed,
                            data={"brute": brute, "closed": closed}))
    except BudgetExceeded as exc:
        brute = None
        checks.append(inconclusive("count_matches_closed_form", witness=str(exc)))

    dim = spec.dimension()
    other_q = 5 if spec.q == 3 else 3
    other = ChartSpec(spec.family, other_q, n=spec.n, h=spec.h, t1=spec.t1, t2=spec.t2)
    c1, c2 = chart_count_closed(spec), chart_count_closed(other)
    growth = round(math.log(c1 / c2) / math.log(spec.q / other_q))
    checks.append(check("growth_exponent_matches_dimension", ok=growth == dim,
                        data={"growth": growth, "dimension": dim}))

    if spec.family == "Z":
        smooth = spec.t1 - spec.h == 2
    elif spec.family == "Y":
        smooth = spec.h - spec.t2 == 2 or spec.n - spec.h == 1
    elif spec.family == "ZY":
        smooth = spec.t1 - spec.h == 2 or spec.h - spec.t2 == 2
    else:
        smooth = True
    affine = closed == spec.q**dim
    # The self-dual Z chart is a symmetric rank-one cone: singular, yet a
    # bijective image of affine space, so it has q^dim points over every
    # field. No point count can see that singularity; it is the only
    # family where the biconditional degrades to an implication.
    cone = spec.family == "Z" and spec.h == 0 and spec.t1 >= 4
    ok = (smooth == affine) or (cone and affine and not smooth)
    checks.append(check("smooth_iff_affine_count", ok=ok, data={
        "smooth_predicate": smooth, "count_is_q_pow_dim": affine,
        **({"cone_exception": True} if cone and not smooth else {})}))
    return {
        "config": {"family": spec.family, "q": spec.q, "n": spec.n, "h": spec.h,
                   "t1": spec.t1, "t2": spec.t2},
        "counts": [{"label": "chart", "count": closed}],
        "checks": checks,
    }
