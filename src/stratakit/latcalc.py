"""Truncated hermitian lattice calculus in equal characteristic.

The base ring is R = GF(q^s)[pi]/(pi^(2N)) with the order-2 conjugation
pi -> -pi and the coefficientwise q-power Frobenius sigma (fixing pi);
this is the function-field stand-in for a ramified quadratic extension,
with pi^2 playing the role of the base uniformizer.  Lattices are free
R-submodules of R^n given by a column basis in a Hermite-style normal
form together with a global pi-power rescaling (``vfloor``); a hermitian
Gram matrix H and a sigma-semilinear operator tau(x) = A sigma(x) with
A unitary complete the data.

A ring element is its tuple of coefficient codes cut after the last
nonzero one (zero is the empty tuple), one canonical form, so tuple
equality, hashing and lattice keys are exact and each operation costs
the degrees of its operands rather than the width 2N; only counterexample
records print the dense width-2N tuples (:meth:`TruncRing.dense`).

All arithmetic is exact in R.  The interpretation as lattices over the
untruncated power series ring is valid while every valuation produced
stays below the guard N = half the truncation order; any operation that
would cross the guard raises :class:`GuardError`, and callers treat that
as an inconclusive trial, never a pass.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import cache, partial

from .gf import FieldCtx
from . import linalg
from .report import check, inconclusive
from .space import ChainError, gate

LATTICE_BUDGET = 10**6


class GuardError(RuntimeError):
    """A valuation crossed the truncation guard; the run is inconclusive."""


class LatticeError(ValueError):
    pass


class TruncRing:
    """GF(q^s)[pi]/(pi^(2N)) with conjugation and Frobenius.  An element
    is its coefficient tuple, lowest power first, cut after the last
    nonzero code: zero is (), the only false element, and one is (1,)."""

    def __init__(self, ctx: FieldCtx, N: int):
        if N < 2:
            raise LatticeError("guard N must be >= 2")
        self.ctx = ctx
        self.N = N
        self.width = 2 * N
        self.zero = ()
        self.one = (1,)
        self._neg_mul = [ctx.MUL[ctx.NEG[x]] for x in range(ctx.size)]

    def const(self, code: int) -> tuple[int, ...]:
        return (code,) if code else ()

    def pi_pow(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.width:
            raise GuardError(f"pi^{j} outside the ring window")
        return (0,) * j + (1,)

    def dense(self, a) -> tuple[int, ...]:
        """All width coefficients of a, the form a counterexample record
        prints."""
        return a + (0,) * (self.width - len(a))

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        ADD = self.ctx.ADD
        out = [ADD[x][y] for x, y in zip(a, b)]
        if len(a) > len(b):
            return (*out, *a[len(b):])
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def neg(self, a):
        NEG = self.ctx.NEG
        return tuple(NEG[x] for x in a)

    def mul(self, a, b):
        return self._mul_into(self.zero, a, b, self.ctx.MUL)

    def add_mul(self, acc, a, b):
        """acc + a * b in one pass."""
        return self._mul_into(acc, a, b, self.ctx.MUL)

    def sub_mul(self, acc, a, b):
        """acc - a * b in one pass."""
        return self._mul_into(acc, a, b, self._neg_mul)

    def _mul_into(self, acc, a, b, rows):
        """acc plus rows[a_i][b_j] pi^(i+j) over the nonzero terms of a and
        b, below the width (``rows`` is MUL, or MUL of the negated a_i),
        with the zeros that cancelling or the width leave on top stripped."""
        if not (a and b):
            return acc
        ADD, top = self.ctx.ADD, len(a) + len(b) - 1
        if top > self.width:
            top = self.width
        out = list(acc)
        if len(out) < top:
            out += [0] * (top - len(out))
        for i, x in enumerate(a):
            if x:
                row = rows[x]
                j = i
                for y in b:
                    if j == top:
                        break
                    if y:
                        out[j] = ADD[out[j]][row[y]]
                    j += 1
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def conj(self, a):
        odd = a[1::2]
        if not any(odd):
            return a
        NEG = self.ctx.NEG
        out = list(a)
        out[1::2] = [NEG[x] for x in odd]
        return tuple(out)

    def sigma(self, a):
        FROB = self.ctx.FROB
        return tuple(FROB[x] for x in a)

    def val(self, a) -> int:
        for i, x in enumerate(a):
            if x:
                return i
        return self.width

    def unit_inv(self, a):
        """Inverse of a unit (valuation 0) by Newton's step x <- 2x - a x^2
        from the inverse of the constant term: a step doubles the number
        of correct coefficients, so ceil(log2 width) steps reach the width."""
        if not a or a[0] == 0:
            raise LatticeError("not a unit")
        x = (self.ctx.INV[a[0]],)
        for _ in range((self.width - 1).bit_length() if len(a) > 1 else 0):
            x = self.sub_mul(self.add(x, x), x, self.mul(a, x))
        return x

    def shift(self, a, j: int):
        """Multiply by pi^j (j may be negative: exact division required)."""
        if j == 0 or not a:
            return a
        if j > 0:
            if len(a) + j > self.width:
                raise GuardError("shift pushes support past the truncation order")
            return (0,) * j + a
        if any(a[:-j]):
            raise LatticeError("inexact division by pi power")
        return a[-j:]


# -- matrices over the ring ------------------------------------------------

def mat_mul(R: TruncRing, A, B):
    out = [[R.zero] * len(B[0]) for _ in A]
    for i in range(len(A)):
        for k in range(len(B)):
            a = A[i][k]
            if not a:
                continue
            for j, b in enumerate(B[k]):
                if b:
                    out[i][j] = R.add_mul(out[i][j], a, b)
    return out


def mat_identity(R: TruncRing, n: int):
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]


def mat_conj_T(R: TruncRing, A):
    n, m = len(A), len(A[0])
    return [[R.conj(A[i][j]) for i in range(n)] for j in range(m)]


def mat_sigma(R: TruncRing, A):
    return [[R.sigma(x) for x in row] for row in A]


def _columns(A):
    return [tuple(row[j] for row in A) for j in range(len(A[0]))]


def _from_columns(cols):
    n = len(cols[0])
    return [[col[i] for col in cols] for i in range(n)]


def column_hnf(R: TruncRing, cols, n: int):
    """Hermite-style column normal form.

    Returns (pivot valuations a_0..a_{n-1}, matrix) where the matrix is
    lower triangular with diagonal pi^{a_i}, entries right of the pivot
    eliminated and entries left of it reduced modulo the row pivot.
    Raises on rank deficiency.
    """
    work = [list(c) for c in cols]
    pivs: list[int] = []
    for r in range(n):
        best = None
        bestv = R.width
        for j in range(r, len(work)):
            x = work[j][r]
            if x and (v := R.val(x)) < bestv:
                bestv, best = v, j
        if best is None or bestv == R.width:
            raise LatticeError("rank-deficient generating set")
        if bestv > R.N:
            raise GuardError("pivot valuation beyond the guard")
        work[r], work[best] = work[best], work[r]
        # normalize pivot column so the pivot entry is exactly pi^a
        unit = work[r][r][bestv:]
        if unit != R.one:
            uinv = R.unit_inv(unit)
            work[r] = [R.mul(uinv, x) for x in work[r]]
        piv = work[r]
        for j, col in enumerate(work):
            # the quotient by pi^a with the residue mod pi^a dropped; below
            # the pivot no entry has smaller valuation, so it is exact there
            q = col[r][bestv:]
            if j == r or not q:
                continue
            # the pivot column is zero above row r, where earlier steps
            # eliminated it
            work[j] = col[:r] + [R.sub_mul(col[i], q, piv[i]) for i in range(r, n)]
        pivs.append(bestv)
    for j in range(n, len(work)):
        if any(work[j]):
            raise LatticeError("extra generators outside the span (bug)")
    # One pass is canonical: after step r every other column is reduced
    # in row r (zero right of the pivot, a residue mod pi^(a_r) left of
    # it), and later steps change columns only in rows r' > r.
    return pivs, _from_columns([tuple(c) for c in work[:n]])


@dataclass(frozen=True)
class Lattice:
    """pi^vfloor times the column span of a normal-form basis matrix."""

    ring: TruncRing
    n: int
    vfloor: int
    basis: tuple  # rows of the lower-triangular normal form

    @staticmethod
    def from_columns(ring: TruncRing, cols, vfloor: int = 0) -> "Lattice":
        n = len(cols[0])
        _, mat = column_hnf(ring, cols, n)
        # pull a common pi power into the floor
        g = min(ring.val(x) for row in mat for x in row if x)
        if g > 0:
            mat = [[x[g:] for x in row] for row in mat]
            vfloor += g
        if abs(vfloor) > ring.N:
            raise GuardError("lattice floor beyond the guard")
        return Lattice(ring, n, vfloor, tuple(tuple(row) for row in mat))

    def columns(self):
        return _columns(self.basis)

    def key(self) -> tuple:
        return (self.vfloor, self.basis)

    def pivot_valuations(self) -> tuple[int, ...]:
        R = self.ring
        return tuple(R.val(self.basis[i][i]) for i in range(self.n))

    def det_valuation(self) -> int:
        return sum(self.pivot_valuations()) + self.n * self.vfloor

    def scale(self, j: int) -> "Lattice":
        if abs(self.vfloor + j) > self.ring.N:
            raise GuardError("scaling beyond the guard")
        return Lattice(self.ring, self.n, self.vfloor + j, self.basis)


def standard_lattice(ring: TruncRing, n: int) -> Lattice:
    return Lattice(ring, n, 0, tuple(tuple(r) for r in mat_identity(ring, n)))


def lattice_sum(L1: Lattice, L2: Lattice) -> Lattice:
    R = L1.ring
    v = min(L1.vfloor, L2.vfloor)
    cols = []
    for L in (L1, L2):
        shift = L.vfloor - v
        for c in L.columns():
            cols.append(tuple(R.shift(x, shift) for x in c))
    return Lattice.from_columns(R, cols, v)


def _coordinates(big: Lattice, cols, vfloor: int):
    """The coordinates X in big's basis of the vectors pi^vfloor col
    (big.basis . X = pi^(vfloor - big.vfloor) cols, X a list of columns),
    by forward substitution down the lower triangular basis; None when
    some vector is not in big.  The one solve of the lattice stack."""
    R, basis = big.ring, big.basis
    shift, piv = vfloor - big.vfloor, big.pivot_valuations()
    X = []
    for col in cols:
        try:
            b = [R.shift(x, shift) for x in col]
        except LatticeError:
            return None
        x = []
        for r, pv in enumerate(piv):
            acc = b[r]
            for j in range(r):
                if basis[r][j] and x[j]:
                    acc = R.sub_mul(acc, basis[r][j], x[j])
            if R.val(acc) < pv:
                return None
            x.append(acc[pv:])
        X.append(x)
    return X


def contains(big: Lattice, small: Lattice) -> bool:
    """small subset of big."""
    return _coordinates(big, small.columns(), small.vfloor) is not None


def index_in(big: Lattice, small: Lattice) -> int:
    """Length of big/small over the residue field (assumes containment)."""
    return small.det_valuation() - big.det_valuation()


def lattice_eq(L1: Lattice, L2: Lattice) -> bool:
    return L1.key() == L2.key()


def triangular_inverse(R: TruncRing, mat, pivs):
    """(shift, C) with mat^{-1} = pi^{-shift} C, C over the ring: the
    coordinates of pi^shift I in the lower triangular mat with pivot
    valuations pivs.

    The largest pivot valuation is not always enough: a unit below a pi
    pivot makes [[pi, 0], [1, pi]]^{-1} need pi^{-2}.  So the shift is the
    least one from there up to the guard at which pi^shift I solves.
    """
    n = len(mat)
    span, identity = Lattice(R, n, 0, mat), mat_identity(R, n)
    for m in range(max(pivs, default=0), R.N + 1):
        X = _coordinates(span, identity, m)
        if X is not None:
            return m, _from_columns(X)
    raise GuardError("inverse needs a shift beyond the guard")


_MISSING = object()


@dataclass(frozen=True)
class HermSpace:
    """Ambient hermitian space: Gram H (conj-transpose symmetric, unit
    determinant profile) and the semilinear operator tau = A o sigma;
    ``det_val`` is the valuation of det H."""

    ring: TruncRing
    n: int
    gram: tuple
    tau_matrix: tuple
    det_val: int
    # (op, vfloor, basis) -> result while an audit_scope is open, else None
    memo: dict | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def build(ring: TruncRing, gram, tau_matrix) -> "HermSpace":
        """The space of a Gram and a tau matrix, refused unless every entry
        is a ring element in canonical form (a trailing zero or a code
        outside the field would break equality), H is hermitian and tau
        unitary."""
        H = tuple(tuple(r) for r in gram)
        A = tuple(tuple(r) for r in tau_matrix)
        n, size = len(H), ring.ctx.size
        for what, M in (("Gram", H), ("tau", A)):
            for x in (x for row in M for x in row):
                if (len(x) > ring.width or (x and not x[-1])
                        or not all(0 <= c < size for c in x)):
                    raise LatticeError(f"{what} entry {x} is not a ring element in canonical form")
        Hct = mat_conj_T(ring, H)
        if any(H[i][j] != Hct[i][j] for i in range(n) for j in range(n)):
            raise LatticeError("Gram matrix is not hermitian")
        # unitarity of tau: conj(A)^T H A = sigma(H)
        lhs = mat_mul(ring, mat_conj_T(ring, A), mat_mul(ring, H, A))
        rhs = mat_sigma(ring, H)
        if any(lhs[i][j] != rhs[i][j] for i in range(n) for j in range(n)):
            raise LatticeError("tau matrix is not unitary for this Gram")
        return HermSpace(ring, n, H, A, sum(column_hnf(ring, _columns(H), n)[0]))

    def tau_vec(self, v):
        R = self.ring
        return [row[0] for row in mat_mul(R, self.tau_matrix, [[R.sigma(x)] for x in v])]

    @contextmanager
    def audit_scope(self):
        """Within the block, :meth:`tau`, :meth:`tau_step`, :func:`dual_sharp`
        and :func:`vertex_type` compute each lattice of this space once (one
        audit's memo)."""
        object.__setattr__(self, "memo", {})
        try:
            yield
        finally:
            object.__setattr__(self, "memo", None)

    def _memoized(self, op: str, compute, L: Lattice):
        if self.memo is None:
            return compute(self, L)
        key = (op, L.vfloor, L.basis)
        out = self.memo.get(key, _MISSING)  # a stored None is a result
        if out is _MISSING:  # a raising compute stores nothing
            out = self.memo[key] = compute(self, L)
        return out

    def tau(self, L: Lattice) -> Lattice:
        return self._memoized("tau", HermSpace._tau, L)

    def _tau(self, L: Lattice) -> Lattice:
        cols = [tuple(self.tau_vec(c)) for c in L.columns()]
        return Lattice.from_columns(self.ring, cols, L.vfloor)

    def tau_step(self, L: Lattice) -> Lattice:
        """L + tau L, one step of the tau-chain."""
        return self._memoized("step", lambda sp, L: lattice_sum(L, sp.tau(L)), L)


def dual_sharp(space: HermSpace, L: Lattice) -> Lattice:
    """The hermitian dual {v : h(v, L) integral}."""
    return space._memoized("dual", _dual_sharp, L)


def _dual_sharp(space: HermSpace, L: Lattice) -> Lattice:
    R = space.ring
    HB = mat_mul(R, space.gram, L.basis)
    hnf_pivs, HBn = column_hnf(R, _columns(HB), L.n)
    shift, C = triangular_inverse(R, HBn, hnf_pivs)
    # dual basis = conj((H B)^{-T}): columns of conj(C)^T / pi^shift
    dual_cols = _columns(mat_conj_T(R, C))
    return Lattice.from_columns(R, dual_cols, -L.vfloor - shift)


def vertex_type(space: HermSpace, L: Lattice):
    """dim(L-dual / L) when pi L-dual <= L <= L-dual, else None.

    Read off the Gram G = B^dagger H B of the basis B, L = pi^f span(B),
    whose Gram is (-1)^f pi^(2f) G: the index t is 2 val det L + val det H,
    and :func:`_sandwich_type` decides at level K = -2f.
    """
    return space._memoized("type", _vertex_type, L)


def _vertex_type(space: HermSpace, L: Lattice):
    level = partial(_level, _basis_gram(space, L.basis))
    return _sandwich_type(space.ring, level, -2 * L.vfloor, L.n,
                          2 * L.det_valuation() + space.det_val)


def _basis_gram(space: HermSpace, B):
    """G = B^dagger H B, the Gram matrix of the basis columns B."""
    R = space.ring
    return mat_mul(R, mat_conj_T(R, B), mat_mul(R, space.gram, B))


def _level(G, l: int):
    """The pi^l coefficient matrix over kappa of the ring matrix G."""
    return [[x[l] if l < len(x) else 0 for x in row] for row in G]


def _sandwich_type(R: TruncRing, level, K: int, n: int, t: int):
    """t when the rank-n lattice L = pi^f span(B) of index t is a vertex
    lattice, else None; K = -2f, and ``level(l)`` is the pi^l coefficient
    matrix over kappa of G = B^dagger H B.

    L <= L-dual exactly when pi^-K G is integral, that is when the levels
    below K vanish, and then pi L-dual <= L exactly when every elementary
    divisor of pi^-K G is 1 or pi, that is when level K has rank n - t.  A
    level at or past the ring width is unknown at this truncation:
    deciding there trips the guard.  The one sandwich decision, for both
    Gram sources (:func:`vertex_type` and :meth:`_Window.vertex_typer`).
    """
    if any(any(row) for l in range(min(K, R.width)) for row in level(l)):
        return None
    if K >= R.width:
        raise GuardError("residue index beyond the window")
    return t if linalg.rank(R.ctx, level(K) if K >= 0 else ()) == n - t else None


def tau_chain(space: HermSpace, M: Lattice):
    """(c, [T_0(M), ..., T_c(M)]) with unit index steps asserted."""
    chain = [M]
    cur = M
    while True:
        nxt = space.tau_step(cur)
        if lattice_eq(nxt, cur):
            return len(chain) - 1, chain
        if index_in(nxt, cur) != 1:
            raise ChainError("chain step has index > 1 (hypothesis violated)")
        chain.append(nxt)
        cur = nxt
        if len(chain) > 4 * space.n + 4:
            raise ChainError("chain failed to stabilize (bug)")


def check_hypotheses(space: HermSpace, M: Lattice) -> bool:
    """pi M-sharp <= M <= M-sharp and [M + tau M : M] <= 1."""
    if vertex_type(space, M) is None:
        return False
    return index_in(space.tau_step(M), M) <= 1


def crucial_dichotomy(space: HermSpace, M: Lattice) -> dict:
    """Evaluate the four dichotomy clauses and audit the conclusions.

    Returns a dict with the decided case ("Y", "Z" or "Both"), the chain
    lengths c and d, the produced vertex lattice types, and ``verified``
    flags for the full containment chains.  A False flag is a
    counterexample report, the most important possible output.
    """
    Ms = dual_sharp(space, M)
    h = index_in(Ms, M)
    cond1 = not contains(M, space.tau(Ms.scale(1)))   # tau(pi M#) not in M
    cond2 = not contains(Ms, space.tau(M))            # tau(M) not in M#
    c, chain_m = tau_chain(space, M)
    d, chain_ms = tau_chain(space, Ms)

    def audit(lam, chain, within):
        """Each lattice of the chain lies in the next, then lam is a vertex
        lattice whose type is within the bound."""
        ok = all(contains(big, small) for small, big in zip(chain, chain[1:]))
        t = vertex_type(space, lam)
        return {"lattice": lam.key(), "type": t, "ok": ok and t is not None and within(t)}

    def verify_case_y():
        lam = chain_m[-1]
        lam_s = dual_sharp(space, lam)
        return audit(lam, (lam_s.scale(1), Ms.scale(1), M, lam, lam_s, Ms), lambda t: t <= h)

    def verify_case_z():
        td = chain_ms[-1]
        lam = dual_sharp(space, td)
        return audit(lam, (Ms.scale(1), td.scale(1), lam, M, Ms, td), lambda t: t >= h)

    if cond1 and cond2:
        case = "anomalous-both-exclusions"
    elif cond1 or cond2:
        case = "Y" if cond1 else "Z"
    else:
        case = "Y" if c < d else "Z" if d < c else "Both"
    # a decided case audits its own conclusion, any other case both
    audits = {key: verify() for key, verify in (("Y", verify_case_y), ("Z", verify_case_z))
              if case in (key, "Both", "anomalous-both-exclusions")}
    return {
        "case": case,
        "c": c,
        "d": d,
        "h": h,
        "audits": audits,
        "verified": all(a["ok"] for a in audits.values()),
    }


# -- residue windows -------------------------------------------------------

class _Window:
    """The lattices between ``bot`` and ``top`` (pi top <= bot <= top): the
    subspaces of the residue space top/bot over kappa, each lifted through
    top's basis and added to bot.

    With bot = top . X, the constant terms of X span bot/pi top inside
    top/pi top = kappa^n; ``bot_rows`` and ``bot_pivots`` are their reduced
    echelon form, and top's basis columns at the other positions
    (``free``, lifted as ``vecs`` with top's floor) are a basis of top/bot
    exactly when their number is the index.
    """

    def __init__(self, bot: Lattice, top: Lattice):
        R = self.ring = top.ring
        self.top = top
        X = _coordinates(top, bot.columns(), bot.vfloor)
        if X is None:
            raise LatticeError("not contained")
        self.bot_rows, self.bot_pivots = linalg.rref(
            R.ctx, [[x[0] if x else 0 for x in col] for col in X])
        self.free = [i for i in range(top.n) if i not in self.bot_pivots]
        self.dim = len(self.free)
        if index_in(top, bot) != self.dim:
            raise LatticeError("quotient is not pi-elementary")
        cols = top.columns()
        self.vecs, self.vfloor = [cols[i] for i in self.free], top.vfloor
        # bot <= top, so bot's floor is at least top's
        self.bot_cols = [tuple(R.shift(x, bot.vfloor - self.vfloor) for x in c)
                         for c in bot.columns()]

    def lift(self, rows) -> Lattice:
        """bot plus the span of the lifts of the coefficient rows."""
        R = self.ring
        coeffs = [[R.const(c) for c in row] for row in rows]
        return Lattice.from_columns(R, self.bot_cols + mat_mul(R, coeffs, self.vecs),
                                    self.vfloor)

    def gate(self, budget: int | None) -> None:
        """Refuse a window of more than ``budget`` lattices (default
        ``LATTICE_BUDGET``), counted in closed form before any residue
        work (:func:`space.gate`)."""
        size, dim = self.ring.ctx.size, self.dim
        total = sum(linalg.gaussian_binomial(dim, d, size) for d in range(dim + 1))
        gate(total, budget, LATTICE_BUDGET, f"{total} intermediate lattices")

    def subspaces(self, dims=None, gram=None):
        """(rows, pivots) in reduced echelon form of every residue subspace,
        or of those of a dimension in ``dims``; with a Gram over kappa, only
        the totally isotropic ones (:func:`linalg.row_spaces`)."""
        ctx = self.ring.ctx
        for d in range(self.dim + 1) if dims is None else dims:
            yield from linalg.row_spaces(ctx, range(ctx.size), self.dim, d, gram)

    def form(self, space: HermSpace, extra_pi: int):
        """Gram over kappa of the residue of pi^extra_pi h on top/bot, in
        the basis ``vecs``: h(pi^f x, pi^f y) = (-1)^f pi^(2f) h(x, y), so
        it is (-1)^f times level l = -(extra_pi + 2f) of the Gram of
        ``vecs`` (an integral product), zero for l < 0.  A level at or past
        the ring width is unknown at this truncation: the guard trips."""
        R, f, d = self.ring, self.vfloor, self.dim
        l = -(extra_pi + 2 * f)
        if not d or l < 0:
            return ((0,) * d,) * d
        if l >= R.width:
            raise GuardError("residue index beyond the window")
        sign = R.ctx.NEG if f % 2 else range(R.ctx.size)
        G = _level(_basis_gram(space, _from_columns(self.vecs)), l)
        return tuple(tuple(sign[x] for x in row) for row in G)

    def vertex_typer(self, space: HermSpace):
        """(rows, pivots) -> the vertex type of M = pi top + lift(S), or
        None, for the residue subspace S in reduced echelon form, decided
        over kappa without lifting (:func:`_sandwich_type`); the window must
        be [pi top, top].

        With top = pi^f span(B), the columns of B X, X = [S^T | pi e_g for
        g not a pivot], are a basis of M, of index 2(val det top + n - d)
        + val det H for d = dim S, and its Gram is X^dagger G X with
        G = B^dagger H B.  Conjugation fixes kappa and negates pi, so with
        G_l the pi^l level of G (zero for l < 0) its pi^l level is
        [[S G_l S^T, (S G_(l-1))_g], [-(G_(l-1) S^T)_g, -(G_(l-2))_gg]].
        At K = -2f at or past the ring width, where the levels below the
        width vanish, level K is unknown here; M's own basis may have a
        higher floor (pi top, for one), so such an S is lifted and typed
        on the ring (:func:`vertex_type`).  The instance Grams keep K at 2
        or below.
        """
        top, R = self.top, self.ring
        if self.dim != top.n:
            raise LatticeError("window bottom is not pi times its top")
        ctx, n = R.ctx, top.n
        ADD, MUL, NEG = ctx.ADD, ctx.MUL, ctx.NEG
        K = -2 * top.vfloor
        base = 2 * (top.det_valuation() + n) + space.det_val
        G = _basis_gram(space, top.basis)
        # the levels _sandwich_type reads, as the _nonzero rows of each G_l
        # (for r G_l) and of its transpose (for G_l r^T)
        levels = [_level(G, l) for l in range(min(K, R.width - 1) + 1)]
        by_rows = [linalg._nonzero(g) for g in levels]
        by_cols = [linalg._nonzero(zip(*g)) for g in levels]
        zero = [0] * n

        @cache  # echelon rows recur across subspaces
        def functional(row, l, transposed):
            """row G_l, or G_l row^T when transposed; zero below level 0."""
            if l < 0:
                return zero
            return linalg._combine(ctx, n, (by_cols if transposed else by_rows)[l], row)

        def dot(u, v):
            acc = 0
            for x, y in zip(u, v):
                if x and y:
                    acc = ADD[acc][MUL[x][y]]
            return acc

        def type_of(rows, pivots):
            free = [g for g in range(n) if g not in pivots]

            def level(l):
                upper = [[dot(functional(r, l, False), s) for s in rows]
                         + [functional(r, l - 1, False)[g] for g in free] for r in rows]
                cols = [functional(s, l - 1, True) for s in rows]
                low = levels[l - 2] if l >= 2 else [zero] * n
                return upper + [[NEG[c[g]] for c in cols] + [NEG[low[g][h]] for h in free]
                                for g in free]

            try:
                return _sandwich_type(R, level, K, n, base - 2 * len(rows))
            except GuardError:
                return vertex_type(space, self.lift(rows))

        return type_of

    def tau_jump(self, space: HermSpace):
        """(rows, pivots, bound) -> whether dim(S + tau S) - dim S <= bound
        for the residue subspace S in reduced echelon form, tau acting on
        top/bot (both tau-stable).  The jump is the rank of the images of
        the rows reduced modulo S.

        tau(sum c_j b_j) is sum sigma(c_j) tau(b_j) over top's basis b;
        tau(b_j) mod pi top, reduced modulo bot/pi top, is zero at the
        pivots, and its free entries are the image of b_j in top/bot.
        """
        top, ctx = self.top, self.ring.ctx
        X = _coordinates(top, [space.tau_vec(b) for b in top.columns()], top.vfloor)
        if X is None:
            raise LatticeError("window top is not tau-stable")
        images = [linalg.residual(ctx, self.bot_rows, self.bot_pivots,
                                  [c[0] if c else 0 for c in x])
                  for x in X]
        if any(any(linalg._combine(ctx, top.n, linalg._nonzero(images), [ctx.FROB[c] for c in r]))
               for r in self.bot_rows):
            raise LatticeError("window bottom is not tau-stable")
        tau_rows = linalg._nonzero([[images[i][j] for j in self.free] for i in self.free])

        @cache  # echelon rows recur across subspaces
        def image(row):
            return linalg._combine(ctx, self.dim, tau_rows, [ctx.FROB[c] for c in row])

        def jump_at_most(rows, pivots, bound):
            moved = []
            for r in rows:
                v = linalg.residual(ctx, rows, pivots, image(r))
                if any(v):
                    moved.append(v)
                    # a single moved row has rank 1: bound 0 fails without a rank
                    if len(moved) > bound and (bound == 0 or linalg.rank(ctx, moved) > bound):
                        return False
            return True

        return jump_at_most


def _standard_window(space: HermSpace) -> _Window:
    """The window between pi L0-sharp and L0-sharp, L0 the standard
    lattice; every Gram entry is integral, so L0 <= L0-sharp."""
    top = dual_sharp(space, standard_lattice(space.ring, space.n))
    return _Window(top.scale(1), top)


# -- point sets of the stratification ---------------------------------------

def _point_set(space: HermSpace, lam: Lattice, lam_s: Lattice, h: int,
               budget: int | None, side: str) -> frozenset:
    """Keys of the type-h points of the closed stratum of the tau-stable
    vertex lattice lam (type t, dual lam_s): the lattices M of type h with
    [M + tau M : M] <= 1, lam <= M <= lam_s on the Z side (t >= h) and
    pi lam_s <= M <= lam on the Y side (t <= h).

    They are solved over kappa.  On the Z side, M = lam + lift(U) for U
    isotropic of dimension (t - h)/2 under the residue of pi h on
    lam_s/lam.  On the Y side, M/pi lam_s = X^perp for X isotropic of
    dimension (h - t)/2 under the residue of h on lam/pi lam_s.  In both,
    [M + tau M : M] is the jump of U (taking perps keeps it), and only the
    solutions are lifted.  The budget counts the whole window.
    """
    y = side == "Y"
    window = _Window(lam_s.scale(1), lam) if y else _Window(lam, lam_s)
    window.gate(budget)
    t = 2 * lam.det_valuation() + space.det_val
    d, odd = divmod(h - t if y else t - h, 2)
    if odd:
        return frozenset()
    ctx, gram = space.ring.ctx, window.form(space, 0 if y else 1)
    jump_at_most, gram_nz = window.tau_jump(space), linalg._nonzero(gram)
    out = set()
    for rows, pivots in window.subspaces((d,), gram):
        if jump_at_most(rows, pivots, 1):
            if y:
                XG = [linalg._combine(ctx, window.dim, gram_nz, r) for r in rows]
                rows = linalg.nullspace(ctx, XG, window.dim)[0]
            out.add(window.lift(rows).key())
    return frozenset(out)


def vertex_lattices_in_window(space: HermSpace, budget: int | None = None) -> dict:
    """Tau-stable vertex lattices between pi L0-sharp and L0-sharp, L0
    standard, each mapped to its type, in scan order.

    T = L0-sharp is tau-stable (A is a constant unitary), so tau acts on
    T/pi T, and M = pi T + lift(S) is tau-stable exactly when S has jump 0
    (:meth:`_Window.tau_jump`).  The window types such S over kappa
    (:meth:`_Window.vertex_typer`), and only the vertex lattices among
    them are lifted; the lifted tau-image decides.
    """
    window = _standard_window(space)
    window.gate(budget)
    jump_at_most = window.tau_jump(space)  # raises unless tau keeps T
    type_of = window.vertex_typer(space)
    out = {}
    for rows, pivots in window.subspaces():
        if jump_at_most(rows, pivots, 0) and (t := type_of(rows, pivots)) is not None:
            L = window.lift(rows)
            if lattice_eq(space.tau(L), L):
                out[L] = t
    return out


# -- instance generation -----------------------------------------------------

def tau_generator_set(ring: TruncRing, n: int, seed: int = 0, gram=None):
    """Seeded unitary matrices for the given Gram (identity by default).

    Candidate constants (signed permutations, plane rotations, unit
    diagonals) are filtered by the unitarity identity; the identity
    matrix always survives.
    """
    rng = random.Random(seed)
    ctx = ring.ctx
    if gram is None:
        gram = mixed_gram(ring, n, 0)

    def monomial(perm, entries):
        """The constant matrix with entries[i] at (i, perm[i])."""
        return [[x if j == p else 0 for j in range(n)] for p, x in zip(perm, entries)]

    cands = [monomial(range(n), [1] * n)]
    for _ in range(3):  # signed permutations
        perm = list(range(n))
        rng.shuffle(perm)
        cands.append(monomial(perm, [rng.choice([1, ctx.neg(1)]) for _ in range(n)]))
    # a rotation block a^2 + b^2 = 1 in the first two coordinates
    pairs = [(a, b) for a in range(ctx.size) for b in range(1, ctx.size)
             if ctx.add(ctx.mul(a, a), ctx.mul(b, b)) == 1] if n >= 2 else []
    if pairs:
        a, b = pairs[rng.randrange(len(pairs))]
        rot = monomial(range(n), [a, a] + [1] * (n - 2))
        rot[0][1], rot[1][0] = b, ctx.neg(b)
        cands.append(rot)
    for _ in range(4):  # unit diagonals
        cands.append(monomial(range(n), [rng.randrange(1, ctx.size) for _ in range(n)]))
    for _ in range(2):  # paired unit diagonals matching hyperbolic pi-blocks
        diag = [1] * n
        for b in range(n // 2):
            u = rng.randrange(1, ctx.size)
            diag[2 * b], diag[2 * b + 1] = u, ctx.inv(u)
        cands.append(monomial(range(n), diag))
    out = []
    for A in dict.fromkeys(tuple(tuple(ring.const(x) for x in row) for row in A0)
                           for A0 in cands):
        try:
            HermSpace.build(ring, gram, A)
        except LatticeError:
            continue
        out.append(A)
    if len(out) < 2:
        raise LatticeError("tau generator set is too thin for this Gram")
    return out


def mixed_gram(ring: TruncRing, n: int, pi_blocks: int):
    """pi_blocks hyperbolic pi-blocks [[0, pi], [-pi, 0]] plus a unit tail;
    the standard lattice then is a vertex lattice of type 2*pi_blocks."""
    if 2 * pi_blocks > n:
        raise LatticeError("too many pi blocks")
    H = mat_identity(ring, n)
    for b in range(pi_blocks):
        i = 2 * b
        H[i][i] = ring.zero
        H[i + 1][i + 1] = ring.zero
        H[i][i + 1] = ring.pi_pow(1)
        H[i + 1][i] = ring.neg(ring.pi_pow(1))
    return tuple(tuple(r) for r in H)


def gram_family(ring: TruncRing, n: int):
    """The ambient Gram matrices used by the instance generators."""
    return [mixed_gram(ring, n, b) for b in range(n // 2 + 1)]


def same_index_lemma_holds(space: HermSpace, M: Lattice) -> bool:
    """[M + tau M : M] = 1 implies [M# + tau M# : M#] = 1."""
    if index_in(space.tau_step(M), M) != 1:
        return True
    Ms = dual_sharp(space, M)
    return index_in(space.tau_step(Ms), Ms) == 1


def _check_rank(n: int) -> None:
    if n < 1:
        raise LatticeError(f"rank n = {n} must be at least 1")


def inclusion_report(p: int, e: int, s: int, n: int, h: int, seed: int = 0,
                     N: int = 8, budget: int | None = None) -> dict:
    """Check the five stratum inclusion bullets on an enumerated catalog.

    The catalog holds the tau-stable vertex lattices between pi L0 and
    L0-sharp for the identity Gram; point sets are computed over the
    coefficient field kappa = GF(q^s).  The level h is even with
    0 <= h <= 2 floor(n/2), the range of ``charts.is_admissible``: at
    any other level the bullets would report false counterexamples.
    """
    _check_rank(n)
    if h % 2 or not 0 <= h <= 2 * (n // 2):
        raise LatticeError(f"level h = {h} must be even and in 0..{2 * (n // 2)} at n = {n}")
    ctx = FieldCtx(p, e, s)
    ring = TruncRing(ctx, N)
    space = HermSpace.build(ring, mixed_gram(ring, n, 0),
                            tau_generator_set(ring, n, seed)[1])
    types = vertex_lattices_in_window(space, budget=budget)
    zl = [L for L, t in types.items() if t >= h]
    yl = [L for L, t in types.items() if t <= h]
    sharp = {L: dual_sharp(space, L) for L in types}
    zs = {L: _point_set(space, L, sharp[L], h, budget, "Z") for L in zl}
    ys = {L: _point_set(space, L, sharp[L], h, budget, "Y") for L in yl}
    # (name, left family, right family, set relation, lattice predicate).
    # In the lattice model both one-sided containments require the small
    # lattice inside the big one (the printed statements reverse this,
    # which would contradict the intersection bullet).
    bullets = (
        ("z_inclusion_iff_reverse_lattice_inclusion", zl, zl,
         lambda a, b: zs[a] <= zs[b], contains),
        ("y_inclusion_iff_lattice_inclusion", yl, yl,
         lambda a, b: ys[a] <= ys[b], lambda a, b: contains(b, a)),
        ("z_meets_y_iff_lattice_inclusion", zl, yl,
         lambda a, b: bool(zs[a] & ys[b]), lambda a, b: contains(b, a)),
        ("z_in_y_iff_worst_type_and_inclusion", zl, yl,
         lambda a, b: zs[a] <= ys[b], lambda a, b: types[a] == h and contains(b, a)),
        ("y_in_z_iff_worst_type_and_inclusion", zl, yl,
         lambda a, b: ys[b] <= zs[a], lambda a, b: types[b] == h and contains(b, a)),
    )
    checks = []
    for name, left, right, sets, lattices in bullets:
        bad = [(types[a], types[b]) for a in left for b in right
               if sets(a, b) != lattices(a, b)]
        checks.append(check(name, witness=bad[:3],
                            data={"pairs": len(left) * len(right) - len(bad)}))
    singles = [L for L, t in types.items() if t == h]
    bad = [types[L] for L in singles
           if zs[L] != frozenset({L.key()}) or ys[L] != frozenset({L.key()})]
    worst = {"worst_points": len(singles)}
    # with no lattice of type h the check has nothing to test
    checks.append(check("worst_points_are_singletons", ok=not bad, data=worst) if singles
                  else inconclusive("worst_points_are_singletons", data=worst))
    return {
        "config": {"p": p, "e": e, "s": s, "n": n, "h": h, "N": N},
        "counts": [{"label": f"type_{t}", "count": c}
                   for t, c in sorted(Counter(types.values()).items())],
        "checks": checks,
    }


_CASE_KEYS = {"Y": "case_Y", "Z": "case_Z", "Both": "case_Both"}


def _audit_outcome(space: HermSpace, draw):
    """(counters, counterexample record or None) of one drawn lattice: the
    hypotheses, the same-index lemma and the dichotomy; a guard trip
    anywhere, the draw included, counts as inconclusive, and a chain-lemma
    breach as an anomalous case.  A failed audit is recorded with
    everything needed to replay it: Gram, tau, lattice basis and floor,
    and result (the breach's message for a breach)."""
    counters = []
    try:
        M = draw()
        if M is None or not check_hypotheses(space, M):
            return ("hypothesis_rejected",), None
        if not same_index_lemma_holds(space, M):
            counters.append("same_index_failures")
        res = crucial_dichotomy(space, M)
    except GuardError:
        return (*counters, "inconclusive"), None
    except ChainError as exc:
        counters.append("anomalous")
        result = str(exc)
    else:
        counters.append(_CASE_KEYS.get(res["case"], "anomalous"))
        if res["verified"]:
            return tuple(counters), None
        result = {k: v for k, v in res.items() if k != "audits"}
    def dense(mat):
        return [[list(space.ring.dense(x)) for x in row] for row in mat]

    return tuple(counters), {
        "gram": dense(space.gram),
        "tau": dense(space.tau_matrix),
        "lattice": dense(M.basis),
        "vfloor": M.vfloor,
        "result": result,
    }


def _dichotomy_audit(p: int, e: int, s: int, n: int, seed: int, N: int,
                     counter: str, draws) -> dict:
    """The dichotomy audit loop shared by the exhaustive and random modes.

    ``draws(spaces)`` yields (space, key, draw) triples, where
    ``draw()`` returns the lattice to audit, or None for one that fails
    the vertex sandwich (:func:`_vertex_draw`), and ``key`` names it, or
    is None for a lattice no other draw repeats.  The first draw of a key is
    audited (:func:`_audit_outcome`) and later ones reuse its outcome,
    counterexample record included, so every draw counts as before.  The
    generator holds each space's :meth:`HermSpace.audit_scope` open while
    its lattices may recur; a raise out of the loop closes it, and so the
    scopes.
    """
    _check_rank(n)
    ring = TruncRing(FieldCtx(p, e, s), N)
    spaces = [HermSpace.build(ring, H, A) for H in gram_family(ring, n)
              for A in tau_generator_set(ring, n, seed, H)]
    stats = {counter: 0, "hypothesis_rejected": 0, "case_Y": 0, "case_Z": 0,
             "case_Both": 0, "anomalous": 0, "inconclusive": 0,
             "same_index_failures": 0, "counterexamples": []}
    outcomes = {}
    for space, key, draw in draws(spaces):
        stats[counter] += 1
        if key is None or key not in outcomes:
            outcomes[key] = _audit_outcome(space, draw)
        counters, record = outcomes[key]
        for name in counters:
            stats[name] += 1
        if record is not None:
            stats["counterexamples"].append(record)
    return stats


def _vertex_draw(space: HermSpace, window: _Window, type_of, rows, pivots):
    """The lattice pi top + lift(S) of the standard window's residue
    subspace S (reduced echelon rows and pivots), lifted only when
    ``type_of`` (:meth:`_Window.vertex_typer`) finds a vertex lattice, else
    None; the type found is kept in the space's memo, so
    :func:`vertex_type` does not run on the lattice again."""
    t = type_of(rows, pivots)
    if t is None:
        return None
    M = window.lift(rows)
    space._memoized("type", lambda sp, L: t, M)
    return M


def exhaustive_dichotomy(p: int, e: int, s: int, n: int = 2, seed: int = 0,
                         N: int = 8, budget: int | None = None) -> dict:
    """Audit every lattice between pi L0-sharp and L0-sharp for every tau
    in the generator set; counters and counterexamples as in
    :func:`dichotomy_trials`, with ``instances`` counting the lattices."""

    def draws(spaces):
        for space in spaces:
            # a window's lattices are all distinct: one space's memo at a time
            with space.audit_scope():
                window = _standard_window(space)
                window.gate(budget)
                type_of = window.vertex_typer(space)
                for rows, pivots in window.subspaces():
                    yield space, None, partial(_vertex_draw, space, window, type_of,
                                               rows, pivots)

    return _dichotomy_audit(p, e, s, n, seed, N, "instances", draws)


def dichotomy_trials(p: int, e: int, s: int, n: int, trials: int, seed: int = 0,
                     N: int = 8) -> dict:
    """Seeded random dichotomy audit; returns counters and counterexamples.

    A trial draws a space, then d uniform in 0..dim, then d random
    coefficient rows of its standard window.  The lift is kappa-linear, so
    the lattice depends only on the rows' span: (space index, reduced
    echelon form) keys the draw, the window types that span over kappa,
    and a draw that is no vertex lattice is rejected without a lift
    (:func:`_vertex_draw`)."""
    rng = random.Random(seed)

    def draws(spaces):
        ctx = spaces[0].ring.ctx
        with ExitStack() as scopes:
            for space in spaces:  # chain ends recur across trials: one memo per run
                scopes.enter_context(space.audit_scope())
            windows = [_standard_window(space) for space in spaces]
            typers = [w.vertex_typer(space) for w, space in zip(windows, spaces)]
            for _ in range(trials):
                i = rng.randrange(len(spaces))
                dim = windows[i].dim
                d = rng.randrange(0, dim + 1)
                rows = [[rng.randrange(ctx.size) for _ in range(dim)] for _ in range(d)]
                red, pivots = linalg.rref(ctx, rows)
                yield spaces[i], (i, red), partial(_vertex_draw, spaces[i], windows[i],
                                                   typers[i], red, pivots)

    return _dichotomy_audit(p, e, s, n, seed, N, "trials", draws)
