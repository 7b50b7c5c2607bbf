"""Formed F_q-rational vector spaces and their subspace calculus.

A ``FormedSpace`` fixes a standard basis of a symplectic, symmetric
(hyperbolic-split / non-split twisted / odd) or formless space over a base
field GF(q), base-changed to a working extension GF(q^k).  The twisted
Frobenius acts as the entrywise q-power composed with a fixed basis
permutation; in the non-split even symmetric case that permutation swaps
the last hyperbolic pair, everywhere else it is the identity.

Basis layout for even formed kinds of dimension 2m: indices 0..m-1 are
e_1..e_m, indices m..2m-1 are f_1..f_m, with <e_i, f_j> = delta_ij.  The
odd symmetric kind appends one anisotropic vector of square norm 1.

Subspaces are canonical reduced row-echelon matrices; equality of values
is equality of subspaces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .gf import FieldCtx
from . import linalg
from .linalg import gaussian_binomial

KINDS = ("symplectic", "symmetric-even-split", "symmetric-even-nonsplit", "symmetric-odd", "none")

SUBSPACE_BUDGET = int(os.environ.get("STRATAKIT_SUBSPACE_BUDGET", 10**7))


class SpaceError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured budget."""


def _standard_gram(ctx: FieldCtx, kind: str, dim: int):
    if kind == "none":
        return None
    one = 1
    neg1 = ctx.NEG[1]
    g = [[0] * dim for _ in range(dim)]
    if kind == "symplectic":
        m = dim // 2
        for i in range(m):
            g[i][m + i] = one
            g[m + i][i] = neg1
    elif kind.startswith("symmetric"):
        m = dim // 2
        for i in range(m):
            g[i][m + i] = one
            g[m + i][i] = one
        if kind == "symmetric-odd":
            g[dim - 1][dim - 1] = one
    else:
        raise SpaceError(f"unknown kind {kind!r}")
    return tuple(tuple(row) for row in g)


class FormedSpace:
    """An F_q-rational formed space with its twisted Frobenius."""

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
        self._gram_nz = None if self.gram is None else tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram)
        perm = list(range(dim))
        if kind == "symmetric-even-nonsplit" and dim:
            m = dim // 2
            perm[m - 1], perm[dim - 1] = perm[dim - 1], perm[m - 1]
        self.phi_perm = tuple(perm)

    # basis helpers: e_i and f_i are 1-indexed as in the standard layout
    def e(self, i: int) -> tuple[int, ...]:
        v = [0] * self.dim
        v[i - 1] = 1
        return tuple(v)

    def f(self, i: int) -> tuple[int, ...]:
        m = self.dim // 2
        v = [0] * self.dim
        v[m + i - 1] = 1
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

    def contains(self, vec) -> bool:
        return linalg.contains_vector(self.space.ctx, self.rows, self.pivots, vec)


def full_subspace(space: FormedSpace) -> Subspace:
    rows = tuple(space.e(i + 1) for i in range(space.dim))
    return Subspace(space, rows, tuple(range(space.dim)))


def apply_phi(U: Subspace, power: int = 1) -> Subspace:
    """Twisted Frobenius: entrywise q-power then the basis permutation.

    Without a permutation the result needs no reduction: FROB fixes 0 and
    1, so it maps a reduced echelon matrix to one with the same pivots.
    """
    space = U.space
    if power < 0:
        raise SpaceError("negative Frobenius power")
    rows = U.rows
    for _ in range(power % _phi_order(space)):
        rows = tuple(_phi_vector(space, r) for r in rows)
    if space.kind != "symmetric-even-nonsplit":
        return Subspace(space, rows, U.pivots)
    return Subspace.from_rows(space, rows)


def _phi_vector(space: FormedSpace, v: tuple[int, ...], inverse: bool = False) -> tuple[int, ...]:
    """Twisted Frobenius of one coordinate vector, or its inverse (the
    basis permutation is an involution)."""
    FROB = space.ctx.FROB_INV if inverse else space.ctx.FROB
    perm = space.phi_perm
    out = [0] * space.dim
    for j, x in enumerate(v):
        if x:
            out[perm[j]] = FROB[x]
    return tuple(out)


def _phi_order(space: FormedSpace) -> int:
    # order of the twisted Frobenius on subspaces with entries in the ctx
    k = space.ctx.k
    if space.kind == "symmetric-even-nonsplit":
        return k if k % 2 == 0 else 2 * k
    return max(k, 1)


def sum_spaces(U: Subspace, W: Subspace) -> Subspace:
    _check_same(U, W)
    red, piv = linalg.rref(U.space.ctx, U.rows + W.rows)
    return Subspace(U.space, red, piv)


def intersect(U: Subspace, W: Subspace) -> Subspace:
    _check_same(U, W)
    rows = linalg.intersect(U.space.ctx, U.rows, W.rows, U.space.dim)
    return Subspace(U.space, rows, tuple(_pivots_of(rows)))


def perp(U: Subspace) -> Subspace:
    space = U.space
    if space.gram is None:
        raise SpaceError("perp needs a formed space")
    n = space.dim
    mat = [tuple(space.form(r, space.e(j + 1)) for j in range(n)) for r in U.rows]
    basis = linalg.nullspace(space.ctx, mat, n)
    return Subspace(space, basis, tuple(_pivots_of(basis)))


def is_isotropic(U: Subspace) -> bool:
    space = U.space
    if space.gram is None:
        raise SpaceError("is_isotropic needs a formed space")
    rows = U.rows
    symmetric = space.kind.startswith("symmetric")
    for i in range(len(rows)):
        if symmetric and space.form(rows[i], rows[i]) != 0:
            return False
        for j in range(i + 1, len(rows)):
            if space.form(rows[i], rows[j]) != 0:
                return False
    return True


def _check_same(U: Subspace, W: Subspace) -> None:
    if U.space != W.space:
        raise SpaceError("subspaces live in different ambient spaces")


def enumerate_subspaces(space: FormedSpace, d: int, k: int | None = None,
                        isotropic_only: bool = False, budget: int | None = None):
    """Stream every d-dimensional subspace with entries in GF(q^k) once.

    ``k`` is the coordinate subfield degree over the base field (defaults
    to the full working extension).  Deterministic order: echelon pivot
    patterns lexicographically, free entries in field enumeration order.
    """
    ctx = space.ctx
    if k is None:
        k = ctx.k
    scalars = ctx.subfield_codes(k)
    total = count_oracle(space, d, k, isotropic_only)
    if total is None:
        total = gaussian_binomial(space.dim, d, len(scalars))
    limit = SUBSPACE_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceeded(f"{total} subspaces exceeds budget {limit}")
    row_filter = None
    if isotropic_only:
        if space.gram is None:
            raise SpaceError("isotropic enumeration needs a formed space")
        symmetric = space.kind.startswith("symmetric")
        form = space.form

        def row_filter(rows):
            new = rows[-1]
            if symmetric and form(new, new) != 0:
                return False
            return all(form(r, new) == 0 for r in rows[:-1])

    for rows in linalg.enumerate_echelon(ctx, space.dim, d, scalars, row_filter):
        yield Subspace(space, rows, tuple(_pivots_of(rows)))


def _pivots_of(rows) -> list[int]:
    piv = []
    for r in rows:
        for j, x in enumerate(r):
            if x:
                piv.append(j)
                break
    return piv


def count_oracle(space: FormedSpace, d: int, k: int | None = None,
                 isotropic_only: bool = False) -> int | None:
    """Closed-form subspace count, or None when only enumeration will do.

    Unfiltered counts are gaussian binomials.  Isotropic counts use the
    classical product formulas for the symplectic, split hyperbolic even
    and odd symmetric kinds (the stored Gram is hyperbolic in all even
    kinds; the non-split twist only changes the Frobenius, not the form).
    """
    ctx = space.ctx
    if k is None:
        k = ctx.k
    Q = ctx.q ** k
    n = space.dim
    if not isotropic_only:
        return gaussian_binomial(n, d, Q)
    if space.gram is None:
        raise SpaceError("isotropic count needs a formed space")
    if d == 0:
        return 1
    m = n // 2
    if d > m:
        return 0
    num = den = 1
    if space.kind in ("symplectic", "symmetric-odd"):
        for i in range(d):
            num *= Q ** (2 * (m - i)) - 1
            den *= Q ** (i + 1) - 1
    elif space.kind in ("symmetric-even-split", "symmetric-even-nonsplit"):
        for i in range(d):
            num *= (Q ** (m - i) - 1) * (Q ** (m - i - 1) + 1)
            den *= Q ** (i + 1) - 1
    else:
        return None
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
    sp = data["space"]
    ctx = FieldCtx(sp["p"], sp["e"], sp["k"], tuple(sp["modulus"]) if "modulus" in sp else "auto")
    space = FormedSpace(ctx, sp["kind"], sp["dim"])
    rows = [tuple(ctx.from_coeffs(c) for c in r) for r in data["rows"]]
    return Subspace.from_rows(space, rows)
