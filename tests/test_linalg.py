"""The echelon solver ``linalg.row_spaces``: its order without a Gram
matrix, and the isotropic subspaces it solves for with one; and the numpy
line solver of the strata y-scan, checked against it."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stratakit import linalg, space as spc, strata
from stratakit.gf import FieldCtx
from subspace_scan import enumerate_subspaces


@pytest.mark.parametrize("ctx", [FieldCtx(3, 1, 1), FieldCtx(3, 2, 1)], ids=["GF(3)", "GF(9)"])
def test_row_spaces_are_the_coordinate_scan(ctx):
    # without a Gram matrix, over every code: each subspace of the
    # formless space once, rows, pivots and order alike, which is the
    # order the lattice windows are listed in
    for n in range(5):
        sp = spc.FormedSpace(ctx, "none", n)
        for d in range(n + 1):
            want = [(U.rows, U.pivots) for U in enumerate_subspaces(sp, d)]
            got = list(linalg.row_spaces(ctx, range(ctx.size), n, d))
            assert got == want
            assert len(got) == linalg.gaussian_binomial(n, d, ctx.size)


@pytest.mark.parametrize("p,kind,d", [
    (p, kind, d) for p in (3, 5) for kind in ("symmetric-even-split", "symmetric-even-nonsplit")
    for d in (2, 3)])
def test_symmetric_scan_builds_only_isotropic_rows(monkeypatch, p, kind, d):
    # every row the solver builds is isotropic: none is built and then
    # rejected for its own isotropy
    sp = spc.FormedSpace(FieldCtx(p, 1, 1), kind, 6)
    built = []
    build = linalg._build_rows

    def spy(*args):
        for row in build(*args):
            built.append(row)
            yield row

    monkeypatch.setattr(linalg, "_build_rows", spy)
    got = list(linalg.row_spaces(sp.ctx, range(p), 6, d, sp.gram))
    assert len(got) == spc.count_oracle(sp, d, True)
    assert built and all(sp.form(x, x) == 0 for x in built)


# isotropic lines of a quadratic space: scalars of GF(3), GF(5) and the
# GF(3) inside GF(9)
LINE_FIELDS = {"GF(3)": FieldCtx(3, 1, 1), "GF(5)": FieldCtx(5, 1, 1),
               "GF(3) in GF(9)": FieldCtx(3, 1, 2)}
QUADRIC_DIMS = {"symmetric-even-split": (2, 4, 6), "symmetric-even-nonsplit": (2, 4, 6),
                "symmetric-odd": (1, 3, 5)}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _quadric_gram(ctx, kind, dim):
    """The standard Gram matrix of the kind over GF(p): hyperbolic pairs
    (e_i, f_i); for the non-split kind the last pair replaced by the
    anisotropic plane diag(1, -delta), delta a non-square; for the odd kind
    a last diagonal 1."""
    m = dim // 2
    g = [[0] * dim for _ in range(dim)]
    for i in range(m):
        g[i][m + i] = g[m + i][i] = 1
    if kind == "symmetric-even-nonsplit":
        squares = {ctx.MUL[s][s] for s in range(ctx.p)}
        delta = min(set(range(ctx.p)) - squares)
        g[m - 1][dim - 1] = g[dim - 1][m - 1] = 0
        g[m - 1][m - 1], g[dim - 1][dim - 1] = 1, ctx.NEG[delta]
    if kind == "symmetric-odd":
        g[dim - 1][dim - 1] = 1
    return g


def _bilinear(ctx, g, x, y):
    """x G y, summed over every entry of G."""
    out = 0
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out = ctx.add(out, ctx.mul(xi, ctx.mul(g[i][j], yj)))
    return out


def _isotropic_lines_by_filter(ctx, scalars, g):
    """The canonical representatives of the lines of scalars^m (leading
    1), in product order, that are isotropic under g."""
    m = len(g)
    reps = ((0,) * lead + (1,) + tail for lead in range(m)
            for tail in itertools.product(scalars, repeat=m - lead - 1))
    return [x for x in reps if _bilinear(ctx, g, x, x) == 0]


def _isotropic_lines(ctx, scalars, g):
    return [rows[0] for rows, _ in linalg.row_spaces(ctx, scalars, len(g), 1, g)]


@PROPERTY
@given(st.data(), st.sampled_from(sorted(LINE_FIELDS)), st.sampled_from(sorted(QUADRIC_DIMS)))
def test_isotropic_lines_are_the_quadric_points(data, field, kind):
    # in the standard basis or a random one P (Gram P G P^T), each
    # isotropic line once and in the order of the filtered line scan, as
    # many as the closed-form point count of the kind over GF(p)
    ctx = LINE_FIELDS[field]
    scalars = ctx.subfield_codes(1)
    dim = data.draw(st.sampled_from(QUADRIC_DIMS[kind]))
    P = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    if data.draw(st.booleans()):
        P = [data.draw(st.lists(st.sampled_from(scalars), min_size=dim, max_size=dim))
             for _ in range(dim)]
        assume(linalg.rank(ctx, P) == dim)
    g0 = _quadric_gram(ctx, kind, dim)
    g = [[_bilinear(ctx, g0, P[a], P[b]) for b in range(dim)] for a in range(dim)]
    reps = _isotropic_lines(ctx, scalars, g)
    assert len(reps) == len(set(reps))
    assert reps == _isotropic_lines_by_filter(ctx, scalars, g)
    base = spc.FormedSpace(FieldCtx(ctx.p, 1, 1), kind, dim)
    assert len(reps) == spc.count_oracle(base, 1, True)


def test_isotropic_lines_take_every_quadratic_branch(monkeypatch):
    # in the standard bases the last basis vector is isotropic in the split
    # kind (a = 0), and e_1 + t f_m has b = 0 there; the non-split and odd
    # kinds end on an anisotropic vector (a != 0)
    seen = set()
    solve = linalg._quadratic_roots

    def spy(ctx, roots, scalars, a, b, c):
        seen.add(("a=0" if a == 0 else "a!=0") + (", b=0" if a == b == 0 else ""))
        return solve(ctx, roots, scalars, a, b, c)

    monkeypatch.setattr(linalg, "_quadratic_roots", spy)
    for ctx in LINE_FIELDS.values():
        scalars = ctx.subfield_codes(1)
        for kind, dims in QUADRIC_DIMS.items():
            for dim in dims:
                g = _quadric_gram(ctx, kind, dim)
                reps = _isotropic_lines(ctx, scalars, g)
                assert len(reps) == len(set(reps))
                assert reps == _isotropic_lines_by_filter(ctx, scalars, g)
    assert seen == {"a=0", "a=0, b=0", "a!=0"}


# The y-scan of ``strata`` solves the lines of many complements at once in
# numpy (``strata._line_coeffs``); ``row_spaces`` and the filtered scan are
# its references.  Fields of every code, so the scalars are the whole field.
SOLVER_FIELDS = {"GF(3)": FieldCtx(3, 1, 1), "GF(9)": FieldCtx(3, 2, 1),
                 "GF(25)": FieldCtx(5, 2, 1), "GF(27)": FieldCtx(3, 3, 1)}
SOLVER_KINDS = {"symmetric-even-split": (2, 4), "symmetric-even-nonsplit": (2, 4),
                "symmetric-odd": (1, 3), "symplectic": (2, 4), "none": (1, 2, 3)}


def _rebased(ctx, g, rng):
    """P G P^T for a random invertible P over every code of ctx."""
    m = len(g)
    while True:
        P = [[rng.randrange(ctx.size) for _ in range(m)] for _ in range(m)]
        if linalg.rank(ctx, P) == m:
            return [[_bilinear(ctx, g, P[a], P[b]) for b in range(m)] for a in range(m)]


def _solved_lines(ctx, grams, m, count=1):
    """Each bottom's lines from ``strata._line_coeffs``, as tuples, for a
    batch of symmetric Grams (None: every line, for ``count`` bottoms)."""
    A = strata._Arrays(spc.FormedSpace(ctx, "none", m))
    if grams is not None:
        grams, count = np.array(grams, dtype=np.int16), len(grams)
    out, seen = [[] for _ in range(count)], []
    for which, x in strata._line_coeffs(A, grams, count, m):
        seen += which.tolist()
        for b, row in zip(which.tolist(), x.tolist()):
            out[b].append(tuple(row))
    assert seen == sorted(seen)  # bottom-major across the pieces
    return out


@pytest.mark.parametrize("field", sorted(SOLVER_FIELDS))
def test_line_solver_is_row_spaces(field):
    # every kind, in the standard basis and two random ones, as one batch:
    # each bottom's lines are those of row_spaces and of the filtered scan,
    # in the same order
    ctx = SOLVER_FIELDS[field]
    codes = range(ctx.size)
    rng = random.Random(field)
    for kind, dims in SOLVER_KINDS.items():
        for m in dims:
            if ctx.size ** (m - 1) > 1000:
                continue
            g0 = spc.FormedSpace(ctx, kind, m).gram
            grams = None if g0 is None else [g0] + [_rebased(ctx, g0, rng) for _ in range(2)]
            want = [[rows[0] for rows, _ in linalg.row_spaces(ctx, codes, m, 1, g)]
                    for g in (grams or [None])]
            if kind.startswith("symmetric"):
                got = _solved_lines(ctx, grams, m)
            else:  # every line is isotropic, in each basis
                got = _solved_lines(ctx, None, m, count=len(want))
            for g, lines, reference in zip(grams or [None], got, want):
                assert lines == reference, (kind, m)
                assert lines == _isotropic_lines_by_filter(ctx, codes, g or [[0] * m] * m)


def test_line_solver_takes_every_root_branch(monkeypatch):
    # a batch of the standard split and non-split 4-spaces and two random
    # bases of each: bottoms of different a in one call, and the cells of
    # every branch of the quadratic in the last entry
    seen = set()
    solve = strata._roots

    def spy(A, grams, pc, x):
        ctx, m = A.space.ctx, x.shape[1]
        if pc < m - 1:
            assert len(set(grams[:, -1, -1].tolist())) > 1  # bottoms of different a
            for g in grams.tolist():
                a = g[-1][-1]
                for row in x.tolist():
                    c = _bilinear(ctx, g, row, row)
                    l = _bilinear(ctx, g, row, [0] * (m - 1) + [1])
                    b = ctx.add(l, l)
                    if a:
                        disc = ctx.add(ctx.mul(b, b), ctx.neg(ctx.mul(ctx.mul(4 % ctx.p, a), c)))
                        square = any(ctx.mul(s, s) == disc for s in range(ctx.size))
                        seen.add("a!=0, " + ("zero" if not disc else
                                             "square" if square else "non-square"))
                    else:
                        seen.add("a=0, " + ("b!=0" if b else "b=0, c=0" if not c else "b=0, c!=0"))
        return solve(A, grams, pc, x)

    monkeypatch.setattr(strata, "_roots", spy)
    for field in ("GF(3)", "GF(9)"):
        ctx, rng = SOLVER_FIELDS[field], random.Random(field)
        codes = range(ctx.size)
        grams = []
        for kind in ("symmetric-even-split", "symmetric-even-nonsplit"):
            g0 = spc.FormedSpace(ctx, kind, 4).gram
            grams += [g0, _rebased(ctx, g0, rng), _rebased(ctx, g0, rng)]
        for g, lines in zip(grams, _solved_lines(ctx, grams, 4)):
            assert lines == [rows[0] for rows, _ in linalg.row_spaces(ctx, codes, 4, 1, g)]
    assert seen == {"a!=0, square", "a!=0, zero", "a!=0, non-square",
                    "a=0, b!=0", "a=0, b=0, c=0", "a=0, b=0, c!=0"}
