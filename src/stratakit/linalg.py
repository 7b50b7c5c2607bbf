"""Row-echelon kernels over a FieldCtx.

Vectors are tuples of integer codes, matrices are tuples of such rows.
Everything returns canonical reduced row-echelon data so that equal row
spaces compare equal as plain tuples.
"""

from __future__ import annotations

import itertools

from .gf import FieldCtx

Row = tuple[int, ...]
Mat = tuple[Row, ...]


def rref(ctx: FieldCtx, rows) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (rows_without_zeros, pivot_columns)."""
    MUL, ADD, INV, NEG = ctx.MUL, ctx.ADD, ctx.INV, ctx.NEG
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        inv = INV[prow[c]]
        if inv != 1:
            m = MUL[inv]
            for j in range(c, ncols):
                prow[j] = m[prow[j]]
        live = [j for j in range(c, ncols) if prow[j]]
        for i in range(len(work)):
            row = work[i]
            if i != r and row[c] != 0:
                m = MUL[NEG[row[c]]]
                for j in live:
                    row[j] = ADD[row[j]][m[prow[j]]]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = tuple(tuple(row) for row in work[:r])
    return out, tuple(pivots)


def rank(ctx: FieldCtx, rows) -> int:
    return len(rref(ctx, rows)[0])


def intersect(ctx: FieldCtx, a: Mat, b: Mat, ncols: int) -> Mat:
    """Zassenhaus: rows with zero left half of rref([[A A],[B 0]]) span A^B."""
    if not a or not b:
        return ()
    stacked = [list(r) + list(r) for r in a] + [list(r) + [0] * ncols for r in b]
    red, _ = rref(ctx, stacked)
    # The rows with zero left half close the reduced matrix, and their
    # pivots all lie in the right half, so their right halves are already
    # in reduced echelon form.
    return tuple(r[ncols:] for r in red if not any(r[:ncols]))


def nullspace(ctx: FieldCtx, rows, ncols: int) -> Mat:
    """Canonical basis of the right kernel {x : rows . x = 0}.

    The rows are reduced pivoting from the right, so every pivot column
    lies right of the free columns its row involves: the kernel vector of
    free column f has its leading 1 at f and zeros at the other free
    columns, which is reduced echelon form already.
    """
    red, rpiv = rref(ctx, [r[::-1] for r in rows])
    pivots = [ncols - 1 - j for j in rpiv]
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    NEG = ctx.NEG
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = NEG[red[i][ncols - 1 - f]]
        basis.append(tuple(vec))
    return tuple(basis)


def residual(ctx: FieldCtx, rows, pivots, vec) -> list[int]:
    """vec reduced by echelon rows with leading 1s at ``pivots``, each zero
    at the pivots of the rows before it: zero exactly when vec is in their span."""
    ADD, MUL, NEG = ctx.ADD, ctx.MUL, ctx.NEG
    v = list(vec)
    for i, pc in enumerate(pivots):
        if v[pc] != 0:
            m = MUL[NEG[v[pc]]]
            row = rows[i]
            for j in range(pc, len(v)):
                if row[j]:
                    v[j] = ADD[v[j]][m[row[j]]]
    return v


def contains_vector(ctx: FieldCtx, red_rows: Mat, pivots, vec) -> bool:
    """Membership of vec in the row space given by rref data."""
    return not any(residual(ctx, red_rows, pivots, vec))


def enumerate_echelon(ctx: FieldCtx, ncols: int, dim: int):
    """Stream all dim-dimensional row spaces in canonical echelon form.

    Pivot sets run lexicographically, free entries in field enumeration
    order (slowest index varies last).
    """
    scalars = range(ctx.size)
    for pivots in itertools.combinations(range(ncols), dim):
        pivset = set(pivots)
        choices = []
        for pc in pivots:
            slots = [c for c in range(pc + 1, ncols) if c not in pivset]
            rows = []
            for values in itertools.product(scalars, repeat=len(slots)):
                row = [0] * ncols
                row[pc] = 1
                for c, v in zip(slots, values):
                    row[c] = v
                rows.append(tuple(row))
            choices.append(rows)
        yield from itertools.product(*choices)


def gaussian_binomial(n: int, d: int, q: int) -> int:
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
