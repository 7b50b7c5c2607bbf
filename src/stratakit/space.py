"""Formed F_q-rational vector spaces and their subspace calculus.

A ``FormedSpace`` fixes a standard basis of a symplectic, symmetric
(split / non-split / odd) or formless space over a base field GF(q),
base-changed to a working extension GF(q^k).  Every Gram entry lies in
GF(q), so the Frobenius is the entrywise q-power in every kind.

Basis layout for even formed kinds of dimension 2m: indices 0..m-1 are
e_1..e_m, indices m..2m-1 are f_1..f_m, with <e_i, f_j> = delta_ij.  In
the non-split kind the last pair (e_m, f_m) spans the anisotropic plane
diag(1, -delta) instead, delta the smallest non-square of GF(q).  The odd
symmetric kind appends one anisotropic vector of square norm 1.

Subspaces are canonical reduced row-echelon matrices; equality of values
is equality of subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf import FieldCtx
from . import linalg
from .linalg import gaussian_binomial

KINDS = ("symplectic", "symmetric-even-split", "symmetric-even-nonsplit", "symmetric-odd", "none")


class SpaceError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured budget."""


class ChainError(RuntimeError):
    """A chain step changed dimension or index by more than one, or a chain
    outran its bound: a broken hypothesis or wrong arithmetic."""


def gate(total: int, budget: int | None, default: int, what: str) -> None:
    """The one budget gate: refuse ``total`` units of work, counted in
    closed form before any starts, past ``budget`` (``default`` if None)."""
    limit = default if budget is None else budget
    if total > limit:
        raise BudgetExceeded(f"{what} exceeds budget {limit}")


def _standard_gram(ctx: FieldCtx, kind: str, dim: int):
    if kind == "none":
        return None
    m = dim // 2
    g = [[0] * dim for _ in range(dim)]
    for i in range(m):
        g[i][m + i] = 1
        g[m + i][i] = ctx.NEG[1] if kind == "symplectic" else 1
    if kind == "symmetric-odd":
        g[dim - 1][dim - 1] = 1
    if kind == "symmetric-even-nonsplit" and m:
        scalars = ctx.subfield_codes(1)
        squares = {ctx.MUL[s][s] for s in scalars}
        delta = min(s for s in scalars if s not in squares)
        g[m - 1][dim - 1] = g[dim - 1][m - 1] = 0
        g[m - 1][m - 1], g[dim - 1][dim - 1] = 1, ctx.NEG[delta]
    return tuple(tuple(row) for row in g)


class FormedSpace:
    """An F_q-rational formed space over the working field GF(q^k)."""

    def __init__(self, ctx: FieldCtx, kind: str, dim: int):
        if kind not in KINDS:
            raise SpaceError(f"unknown kind {kind!r}")
        if kind in ("symplectic", "symmetric-even-split", "symmetric-even-nonsplit"):
            if dim % 2 != 0 or dim < 0:
                raise SpaceError(f"{kind} requires even dimension, got {dim}")
        if kind == "symmetric-odd" and dim % 2 != 1:
            raise SpaceError(f"symmetric-odd requires odd dimension, got {dim}")
        if dim < 0:
            raise SpaceError("negative dimension")
        self.ctx = ctx
        self.kind = kind
        self.dim = dim
        self.gram = _standard_gram(ctx, kind, dim)
        # the nonzero Gram entries (j, g_ij) of each row i
        self._gram_nz = None if self.gram is None else linalg._nonzero(self.gram)

    # basis helper: e_i is 1-indexed as in the standard layout
    def e(self, i: int) -> tuple[int, ...]:
        v = [0] * self.dim
        v[i - 1] = 1
        return tuple(v)

    def form(self, x, y) -> int:
        if self.gram is None:
            raise SpaceError("formless space")
        ctx = self.ctx
        ADD, MUL = ctx.ADD, ctx.MUL
        acc = 0
        for xi, nz in zip(x, self._gram_nz):
            if xi == 0:
                continue
            s = 0
            for j, g in nz:
                yj = y[j]
                if yj:
                    s = ADD[s][MUL[g][yj]]
            if s:
                acc = ADD[acc][MUL[xi][s]]
        return acc

    def describe(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, **self.ctx.describe()}

    def __eq__(self, other):
        return (
            isinstance(other, FormedSpace)
            and self.kind == other.kind
            and self.dim == other.dim
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash((self.kind, self.dim, self.ctx))

    def __repr__(self):
        return f"FormedSpace({self.kind}, dim={self.dim}, {self.ctx!r})"


@dataclass(frozen=True)
class Subspace:
    """A subspace in canonical reduced row-echelon form."""

    space: FormedSpace
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(default=())

    @staticmethod
    def from_rows(space: FormedSpace, rows) -> "Subspace":
        red, piv = linalg.rref(space.ctx, rows)
        return Subspace(space, red, piv)

    @property
    def dim(self) -> int:
        return len(self.rows)


def full_subspace(space: FormedSpace) -> Subspace:
    rows = tuple(space.e(i + 1) for i in range(space.dim))
    return Subspace(space, rows, tuple(range(space.dim)))


def apply_phi(U: Subspace) -> Subspace:
    """Frobenius: the entrywise q-power.  FROB fixes 0 and 1, so it maps a
    reduced echelon matrix to one with the same pivots, and the result
    needs no reduction."""
    rows = tuple(_phi_vector(U.space, r) for r in U.rows)
    return Subspace(U.space, rows, U.pivots)


def _phi_vector(space: FormedSpace, v: tuple[int, ...], inverse: bool = False) -> tuple[int, ...]:
    """Frobenius of one coordinate vector, or its inverse."""
    FROB = space.ctx.FROB_INV if inverse else space.ctx.FROB
    return tuple([FROB[x] for x in v])


def intersect(U: Subspace, W: Subspace) -> Subspace:
    _check_same(U, W)
    rows, piv = linalg.intersect(U.space.ctx, U.rows, W.rows, U.space.dim)
    return Subspace(U.space, rows, piv)


def perp(U: Subspace) -> Subspace:
    space = U.space
    if space.gram is None:
        raise SpaceError("perp needs a formed space")
    # row r's functional form(r, .) is r G, read off the sparse Gram rows
    mat = [linalg._combine(space.ctx, space.dim, space._gram_nz, r) for r in U.rows]
    basis, piv = linalg.nullspace(space.ctx, mat, space.dim)
    return Subspace(space, basis, piv)


def is_isotropic(U: Subspace) -> bool:
    """Whether the form vanishes on every pair of U's rows, each row with
    itself included."""
    space = U.space
    if space.gram is None:
        raise SpaceError("is_isotropic needs a formed space")
    rows = U.rows
    return not any(space.form(a, b) for i, a in enumerate(rows) for b in rows[i:])


def _check_same(U: Subspace, W: Subspace) -> None:
    if U.space != W.space:
        raise SpaceError("subspaces live in different ambient spaces")


def count_oracle(space: FormedSpace, d: int, isotropic_only: bool = False) -> int:
    """Closed-form count of the Frobenius-stable d-subspaces, isotropic
    ones only when asked.

    A stable subspace is spanned by its Frobenius-fixed vectors (Galois
    descent), so these are the d-subspaces of the GF(q)-rational form:
    gaussian binomials, and for isotropic ones the product formulas of the
    symplectic, odd, split (plus type) and non-split (minus type) forms.
    """
    Q = space.ctx.q
    n = space.dim
    if not isotropic_only:
        return gaussian_binomial(n, d, Q)
    if space.gram is None:
        raise SpaceError("isotropic count needs a formed space")
    m = n // 2
    if d > m:
        return 0
    num = den = 1
    for i in range(d):
        if space.kind in ("symplectic", "symmetric-odd"):
            num *= Q ** (2 * (m - i)) - 1
        elif space.kind == "symmetric-even-split":
            num *= (Q ** (m - i) - 1) * (Q ** (m - i - 1) + 1)
        else:
            num *= (Q ** (m - i) + 1) * (Q ** (m - i - 1) - 1)
        den *= Q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspace_to_json(U: Subspace) -> dict:
    ctx = U.space.ctx
    return {
        "space": U.space.describe(),
        "k": ctx.k,
        "rows": [[list(ctx.coeffs(x)) for x in r] for r in U.rows],
    }


def subspace_from_json(data: dict) -> Subspace:
    """The inverse of :func:`subspace_to_json`; malformed input, a
    top-level ``k`` other than the space's, or a coefficient outside
    0..p-1 raises ``SpaceError``."""
    try:
        sp, raw = data["space"], data["rows"]
        ctx = FieldCtx(sp["p"], sp["e"], sp["k"], tuple(sp["modulus"]) if "modulus" in sp else "auto")
        space = FormedSpace(ctx, sp["kind"], sp["dim"])
        if data["k"] != ctx.k:
            raise SpaceError(f"k = {data['k']} contradicts the space's k = {ctx.k}")
        bad = [r for r in raw if len(r) != space.dim
               or any(len(c) > ctx.degree or not all(x in range(ctx.p) for x in c) for c in r)]
    except (KeyError, TypeError) as exc:
        raise SpaceError(f"malformed subspace: {type(exc).__name__} {exc}") from None
    if bad:
        raise SpaceError(f"each row needs {space.dim} entries of at most {ctx.degree} "
                         f"coefficients in 0..{ctx.p - 1}, not {bad[0]}")
    return Subspace.from_rows(space, [tuple(ctx.from_coeffs(c) for c in r) for r in raw])
