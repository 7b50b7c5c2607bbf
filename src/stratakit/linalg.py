"""Row-echelon kernels over a FieldCtx.

Vectors are tuples of integer codes, matrices are tuples of such rows.
Everything returns canonical reduced row-echelon data so that equal row
spaces compare equal as plain tuples.
"""

from __future__ import annotations

import functools
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


def intersect(ctx: FieldCtx, a: Mat, b: Mat, ncols: int) -> tuple[Mat, tuple[int, ...]]:
    """Zassenhaus: rows with zero left half of rref([[A A],[B 0]]) span A^B;
    returns their right halves and pivots."""
    if not a or not b:
        return (), ()
    stacked = [list(r) + list(r) for r in a] + [list(r) + [0] * ncols for r in b]
    red, piv = rref(ctx, stacked)
    # The rows with zero left half close the reduced matrix, and their
    # pivots all lie in the right half, so their right halves are already
    # in reduced echelon form.
    k = sum(p < ncols for p in piv)
    return tuple(r[ncols:] for r in red[k:]), tuple(p - ncols for p in piv[k:])


def nullspace(ctx: FieldCtx, rows, ncols: int) -> tuple[Mat, tuple[int, ...]]:
    """Canonical basis of the right kernel {x : rows . x = 0}, with its
    pivots, the free columns.

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
    return tuple(basis), tuple(free)


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


def _nonzero(rows) -> list[list[tuple[int, int]]]:
    """The nonzero entries (j, x) of each row."""
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


def _functional(ctx: FieldCtx, gram_nz, r) -> list[int]:
    """The row vector r G for a Gram matrix G given by its ``_nonzero`` rows."""
    ADD, MUL = ctx.ADD, ctx.MUL
    out = [0] * len(gram_nz)
    for x, nz in zip(r, gram_nz):
        if x:
            m = MUL[x]
            for j, g in nz:
                out[j] = ADD[out[j]][m[g]]
    return out


def row_spaces(ctx: FieldCtx, scalars, n: int, d: int, gram=None):
    """Every d-dimensional row space of scalars^n once, as (rows, pivots)
    in reduced echelon form; with the Gram matrix G of a symmetric or
    alternating form, only the totally isotropic ones.  ``scalars`` are
    the ascending codes of a subfield.

    Pivot sets run lexicographically, each row's free entries in product
    order over ``scalars`` (the earliest entry slowest), earlier rows
    varying slower.  Isotropic rows are solved for, not drawn and
    rejected.  A new row x is orthogonal to each row r above it exactly
    when (r G) x = 0, a linear system in x's entries; its solutions with
    x's pivot entry 1 are spanned by the system's canonical kernel, whose
    free columns are the earliest ones (``nullspace`` pivots from the
    right), so product order over the kernel coordinates is the order
    above.  When G is symmetric, x's own isotropy x G x = 0 is a
    quadratic in the last kernel coordinate, solved with its roots
    ascending; when G is alternating, every x is isotropic.
    """
    # the rows above the last need their functionals r G
    gram_nz = _nonzero(gram) if gram is not None and d > 1 else None
    quadric = gram is not None and all(gram[i][j] == gram[j][i]
                                       for i in range(n) for j in range(i))
    roots = {ctx.MUL[s][s]: s for s in scalars} if quadric else None

    def solutions(pc, slots, funcs):
        """The rows x with x_pc = 1, support in pc and ``slots``, killed
        by every functional in ``funcs`` (and isotropic when G is
        symmetric), in order."""
        cols = (pc, *slots)
        kernel, _ = nullspace(ctx, [[f[c] for c in cols] for f in funcs], len(cols))
        if not kernel or not kernel[0][0]:
            return ()  # every solution has x_pc = 0
        if quadric:
            g = [[gram[a][b] for b in cols] for a in cols]
            if len(kernel) < len(cols):
                # the kernel vectors' Gram K G K^T: each u G, then (u G) K^T
                gnz, knz = _nonzero(g), _nonzero(zip(*kernel))
                g = [_combine(ctx, len(kernel), knz, _combine(ctx, len(cols), gnz, u))
                     for u in kernel]
            coeffs = _quadric_points(ctx, scalars, roots, g)
        else:
            coeffs = itertools.product((1,), *[scalars] * (len(kernel) - 1))
        return _build_rows(ctx, n, cols, kernel, coeffs)

    def extend(pivots, slots, rows, funcs):
        """Every completion of ``rows`` under ``pivots``, in order, each
        row solved against the functionals of the rows above it; the last
        row is yielded in place and needs no functional."""
        i = len(rows)
        found = solutions(pivots[i], slots[i], funcs)
        if i == d - 1:
            for row in found:
                yield rows + (row,), pivots
            return
        for row in found:
            f = funcs if gram_nz is None else funcs + (_functional(ctx, gram_nz, row),)
            yield from extend(pivots, slots, rows + (row,), f)

    if not d:
        yield (), ()
        return
    for pivots in itertools.combinations(range(n), d):
        slots = [[c for c in range(pc + 1, n) if c not in pivots] for pc in pivots]
        yield from extend(pivots, slots, (), ())


def _build_rows(ctx: FieldCtx, n: int, cols, kernel, coeffs):
    """The rows sum c_a K_a over the coefficient tuples c, K_a the kernel
    vectors on ``cols``."""
    pc = cols[0]
    if len(kernel) == n - pc:
        # the kernel is e_pc, ..., e_(n-1): a row is its coefficients
        return map(((0,) * pc).__add__, coeffs)
    spans = [[(cols[j], x) for j, x in enumerate(vec) if x] for vec in kernel]
    return map(functools.partial(_combine, ctx, n, spans), coeffs)


def _quadric_points(ctx: FieldCtx, scalars, roots: dict, g):
    """The tuples x = (1, x_1, ..., x_m) over ``scalars`` with x g x = 0
    for the symmetric matrix g, in product order: the last entry t of an
    x with prefix x' solves a t^2 + b t + c = 0, where a = g_mm,
    b = 2 (x' g)_m and c = x' g x'.  The prefix sums are carried down the
    prefix entries."""
    ADD, MUL = ctx.ADD, ctx.MUL
    last = len(g) - 1
    if not last:
        return [(1,)] if g[0][0] == 0 else []
    a = g[last][last]

    def extend(x, c, l):
        # c = x g x and l = the entries j, ..., m of x g for the prefix
        # x = (x_0, ..., x_(j-1)); x_0 = 1
        j = len(x)
        row, gjj = g[j][j + 1:], g[j][j]
        for s in scalars if j else (1,):
            ms = MUL[s]
            # (x + s e_j) g (x + s e_j) = c + s (2 l_j + s g_jj)
            cs = ADD[c][ms[ADD[ADD[l[0]][l[0]]][ms[gjj]]]]
            ls = [ADD[u][ms[h]] for u, h in zip(l[1:], row)]
            if j + 1 < last:
                yield from extend(x + (s,), cs, ls)
                continue
            for t in _quadratic_roots(ctx, roots, scalars, a, ADD[ls[0]][ls[0]], cs):
                yield x + (s, t)

    return extend((), 0, [0] * len(g))


def _quadratic_roots(ctx: FieldCtx, roots: dict, scalars, a: int, b: int, c: int):
    """The t in ``scalars`` with a t^2 + b t + c = 0, ascending, where
    ``roots`` maps each square of the scalars to one of its square roots
    (p is odd)."""
    ADD, MUL, NEG, INV = ctx.ADD, ctx.MUL, ctx.NEG, ctx.INV
    if a:
        two_a = ADD[a][a]
        r = roots.get(ADD[MUL[b][b]][NEG[MUL[ADD[two_a][two_a]][c]]])
        if r is None:
            return ()
        inv = INV[two_a]
        t = MUL[ADD[NEG[b]][r]][inv]
        if r == 0:
            return (t,)
        u = MUL[ADD[NEG[b]][NEG[r]]][inv]
        return (t, u) if t < u else (u, t)
    if b:
        return (MUL[NEG[c]][INV[b]],)
    return scalars if c == 0 else ()


def gaussian_binomial(n: int, d: int, q: int) -> int:
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
