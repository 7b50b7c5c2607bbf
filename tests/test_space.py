import itertools
import random

import pytest

from stratakit.gf import FieldCtx
from stratakit import linalg, space as spc, strata
from stratakit.space import (
    BudgetExceeded,
    FormedSpace,
    SpaceError,
    Subspace,
    apply_phi,
    count_oracle,
    intersect,
    is_isotropic,
    perp,
    subspace_from_json,
    subspace_to_json,
)
from chain_classifier import sum_spaces
from subspace_scan import enumerate_subspaces

F3 = FieldCtx(3, 1, 1)
F9 = FieldCtx(3, 1, 2)


def f(space, i):
    """f_i, 1-indexed as in the standard layout: basis index m + i - 1."""
    return space.e(space.dim // 2 + i)


def all_vectors(space, U):
    """Brute-force vector membership oracle: the set of vectors in U."""
    ctx = space.ctx
    out = set()
    for coeffs in itertools.product(range(ctx.size), repeat=U.dim):
        v = [0] * space.dim
        for c, row in zip(coeffs, U.rows):
            for j, x in enumerate(row):
                v[j] = ctx.add(v[j], ctx.mul(c, x))
        out.add(tuple(v))
    return out


def test_build_space_grams():
    sp = FormedSpace(F3, "symplectic", 4)
    assert sp.form(sp.e(1), f(sp, 1)) == 1
    assert sp.form(f(sp, 1), sp.e(1)) == F3.neg(1)
    assert sp.form(sp.e(1), sp.e(2)) == 0
    so = FormedSpace(F3, "symmetric-odd", 5)
    v = so.e(5)  # highest index is the anisotropic vector
    last = tuple(0 if i != 4 else 1 for i in range(5))
    assert so.form(last, last) == 1
    with pytest.raises(SpaceError):
        FormedSpace(F3, "symplectic", 3)
    with pytest.raises(SpaceError):
        FormedSpace(F3, "symmetric-odd", 4)


def test_phi_fixes_rational_subspaces():
    sp = FormedSpace(F9, "symplectic", 4)
    U = Subspace.from_rows(sp, [sp.e(1), f(sp, 2)])
    assert apply_phi(U).rows == U.rows


def test_phi_order():
    sp = FormedSpace(F9, "symplectic", 2)
    rng = random.Random(0)
    for _ in range(10):
        U = Subspace.from_rows(sp, [tuple(rng.randrange(9) for _ in range(2))])
        if U.dim == 0:
            continue
        assert apply_phi(apply_phi(U)).rows == U.rows


def test_sum_intersect_idempotent_and_plane():
    sp = FormedSpace(F3, "none", 2)
    L1 = Subspace.from_rows(sp, [(1, 0)])
    L2 = Subspace.from_rows(sp, [(0, 1)])
    assert sum_spaces(L1, L1).rows == L1.rows
    assert intersect(L1, L1).rows == L1.rows
    assert sum_spaces(L1, L2).dim == 2
    assert intersect(L1, L2).dim == 0


def test_dimension_identity_with_membership_oracle():
    sp = FormedSpace(F9, "none", 4)
    rng = random.Random(1)
    for _ in range(8):
        U = Subspace.from_rows(sp, [[rng.randrange(9) for _ in range(4)] for _ in range(2)])
        W = Subspace.from_rows(sp, [[rng.randrange(9) for _ in range(4)] for _ in range(2)])
        s = sum_spaces(U, W)
        i = intersect(U, W)
        assert s.dim + i.dim == U.dim + W.dim
        assert Subspace.from_rows(sp, i.rows) == i  # already canonical
        # oracle: intersection as a set of vectors
        assert all_vectors(sp, i) == all_vectors(sp, U) & all_vectors(sp, W)


def test_perp_examples():
    sp = FormedSpace(F3, "symplectic", 4)
    full = spc.full_subspace(sp)
    assert perp(full).dim == 0
    P = perp(Subspace.from_rows(sp, [sp.e(1)]))
    assert P.dim == 3
    vectors = all_vectors(sp, P)
    for v in (sp.e(1), sp.e(2), f(sp, 2)):
        assert v in vectors
    assert f(sp, 1) not in vectors


def test_perp_involution_and_reversal():
    sp = FormedSpace(F9, "symplectic", 4)
    rng = random.Random(2)
    for _ in range(10):
        U = Subspace.from_rows(sp, [[rng.randrange(9) for _ in range(4)] for _ in range(2)])
        assert perp(perp(U)).rows == U.rows
        W = sum_spaces(U, Subspace.from_rows(sp, [[rng.randrange(9) for _ in range(4)]]))
        pw, pu = perp(W), perp(U)
        assert set(pw.rows) <= all_vectors(sp, pu)
    # brute-force pairing check on one sample
    U = Subspace.from_rows(sp, [sp.e(1), (0, 1, 0, 1)])
    P = perp(U)
    for v in all_vectors(sp, P):
        assert all(sp.form(v, r) == 0 for r in U.rows)


@pytest.mark.parametrize("kind,dim", [
    ("symplectic", 4), ("symmetric-even-split", 4),
    ("symmetric-even-nonsplit", 4), ("symmetric-odd", 5),
])
def test_perp_is_the_kernel_of_the_form_matrix(kind, dim):
    # perp reads each functional r G off the sparse Gram; against the
    # kernel of the explicit matrix of form(r, e_j) values, and over GF(3)
    # against every vector the rows of U pair to zero
    rng = random.Random(f"{kind}-{dim}")
    for ctx in (F3, F9):
        sp = FormedSpace(ctx, kind, dim)
        for _ in range(20):
            d = rng.randrange(dim + 1)
            U = Subspace.from_rows(sp, [[rng.randrange(ctx.size) for _ in range(dim)]
                                        for _ in range(d)])
            mat = [[sp.form(r, sp.e(j + 1)) for j in range(dim)] for r in U.rows]
            P = perp(U)
            assert P == Subspace.from_rows(sp, linalg.nullspace(ctx, mat, dim)[0])
            assert P == Subspace.from_rows(sp, P.rows)  # canonical as returned
            assert P.dim == dim - U.dim
            if ctx is F3:
                assert all_vectors(sp, P) == {
                    v for v in itertools.product(range(3), repeat=dim)
                    if all(sp.form(r, v) == 0 for r in U.rows)}


def test_isotropy():
    sp = FormedSpace(F3, "symplectic", 4)
    assert is_isotropic(Subspace.from_rows(sp, [(1, 2, 0, 1)]))
    se = FormedSpace(F3, "symmetric-even-split", 4)
    e1f1 = tuple(F3.add(a, b) for a, b in zip(se.e(1), f(se, 1)))
    assert not is_isotropic(Subspace.from_rows(se, [e1f1]))
    assert is_isotropic(Subspace.from_rows(se, [se.e(1), se.e(2)]))


def test_semilinearity_of_form_under_phi():
    for kind in ("symplectic", "symmetric-even-split", "symmetric-even-nonsplit"):
        sp = FormedSpace(F9, kind, 4)
        rng = random.Random(3)
        for _ in range(20):
            x = tuple(rng.randrange(9) for _ in range(4))
            y = tuple(rng.randrange(9) for _ in range(4))
            fx = Subspace.from_rows(sp, [x])
            fy = Subspace.from_rows(sp, [y])
            if fx.dim == 0 or fy.dim == 0:
                continue
            phi = spc._phi_vector
            assert sp.form(phi(sp, x), phi(sp, y)) == F9.FROB[sp.form(x, y)]


def test_enumeration_counts():
    line_space = FormedSpace(F3, "none", 2)
    assert sum(1 for _ in enumerate_subspaces(line_space, 1)) == 4
    sp = FormedSpace(F3, "symplectic", 4)
    assert sum(1 for _ in enumerate_subspaces(sp, 2, isotropic_only=True)) == 40
    assert sum(1 for _ in enumerate_subspaces(sp, 2)) == 130


def test_enumeration_deterministic_and_canonical():
    sp = FormedSpace(F3, "symplectic", 4)
    first = [U.rows for U in enumerate_subspaces(sp, 2)]
    second = [U.rows for U in enumerate_subspaces(sp, 2)]
    assert first == second
    assert len(set(first)) == len(first)
    # canonical-form uniqueness: scrambled generators recover the same rows
    rng = random.Random(4)
    for rows in rng.sample(first, 25):
        mixed = [rows[0], tuple(F3.add(a, F3.mul(2, b)) for a, b in zip(rows[1], rows[0]))]
        assert Subspace.from_rows(sp, list(reversed(mixed))).rows == rows


def test_budget():
    # the member scan's one gate counts the stable scan too: Z t4 h0 at
    # k = 1 has exactly the 40 rational Lagrangians
    cfg = strata.StrataConfig(case="Z", p=3, k=1, t=4, h=0)
    with pytest.raises(BudgetExceeded):
        list(strata.enumerate_members(cfg, budget=39))
    assert sum(1 for _ in strata.enumerate_members(cfg, budget=40)) == 40


@pytest.mark.parametrize("kind,dim,d", [
    ("symplectic", 4, 1), ("symplectic", 4, 2), ("symplectic", 6, 2),
    ("symmetric-even-split", 4, 1), ("symmetric-even-split", 4, 2),
    ("symmetric-even-nonsplit", 4, 2), ("symmetric-odd", 5, 1), ("symmetric-odd", 5, 2),
    ("symmetric-even-nonsplit", 4, 1), ("symmetric-even-nonsplit", 6, 1),
    ("symmetric-even-nonsplit", 6, 2), ("symmetric-even-nonsplit", 6, 3),
])
def test_count_oracle_against_enumeration(kind, dim, d):
    # the oracle counts Frobenius-stable subspaces: the coordinate
    # subspaces over GF(q)
    sp = FormedSpace(F3, kind, dim)
    assert count_oracle(sp, d, isotropic_only=True) == sum(
        1 for _ in enumerate_subspaces(sp, d, True))
    assert count_oracle(sp, d) == sum(1 for _ in enumerate_subspaces(sp, d))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_nonsplit_gram_is_elliptic_over_gf_q(p, e):
    # the last pair spans diag(1, -delta), delta the smallest non-square of
    # GF(q): the 4-space has q^2 + 1 isotropic lines, the plane none over
    # GF(q) and two over GF(q^2), where delta becomes a square
    ctx = FieldCtx(p, e, 1)
    q = ctx.q
    sp = FormedSpace(ctx, "symmetric-even-nonsplit", 4)
    squares = {ctx.mul(x, x) for x in range(q)}
    delta = ctx.neg(sp.gram[3][3])
    assert sp.gram[1][1] == 1 and sp.gram[1][3] == sp.gram[3][1] == 0
    assert delta not in squares and all(x in squares for x in range(delta))
    lines = sum(1 for _ in enumerate_subspaces(sp, 1, True))
    assert lines == count_oracle(sp, 1, True) == q**2 + 1 == {3: 10, 5: 26, 9: 82}[q]
    plane = FormedSpace(ctx, "symmetric-even-nonsplit", 2)
    assert sum(1 for _ in enumerate_subspaces(plane, 1, True)) == 0
    plane2 = FormedSpace(FieldCtx(p, e, 2), "symmetric-even-nonsplit", 2)
    assert sum(1 for _ in enumerate_subspaces(plane2, 1, True)) == 2


def test_count_oracle_trivia():
    sp = FormedSpace(F3, "symplectic", 4)
    assert count_oracle(sp, 0) == 1
    assert count_oracle(sp, 2, isotropic_only=True) == 40


def test_subspace_json_roundtrip():
    sp = FormedSpace(F9, "symplectic", 4)
    U = Subspace.from_rows(sp, [(1, 4, 0, 7), (0, 0, 1, 2)])
    V = subspace_from_json(subspace_to_json(U))
    assert V.rows == U.rows and V.space == U.space


def test_kernel_outputs_are_plain_ints():
    sp = FormedSpace(F9, "symmetric-even-nonsplit", 4)
    rows = [(2, 5, 0, 7), (1, 1, 3, 1), (4, 0, 8, 2)]
    red, _ = linalg.rref(F9, rows)
    U = Subspace.from_rows(sp, rows[:2])
    W = Subspace.from_rows(sp, rows[1:])
    outputs = {"rref": red, "apply_phi": apply_phi(U).rows, "intersect": intersect(U, W).rows}
    for name, mat in outputs.items():
        assert mat and all(type(x) is int for row in mat for x in row), name


@pytest.mark.parametrize("cfg", [
    strata.StrataConfig(case="Z", p=3, k=2, t=4, h=2),
    strata.StrataConfig(case="Y", p=3, k=2, n=4, h=2, t=0, eps=-1),
    strata.StrataConfig(case="Y", p=3, k=2, n=6, h=4, t=0, eps=1),
], ids=["Z-t4-h2", "Y-split-n4-h2", "Y-nonsplit-n6-h4"])
def test_untwisted_apply_phi_equals_reduced_frobenius_rows(cfg):
    """apply_phi, which never reduces, against a full re-reduction."""
    members = list(strata.enumerate_members(cfg))
    assert members
    for U in members:
        sp = U.space
        want = Subspace.from_rows(sp, [spc._phi_vector(sp, r) for r in U.rows])
        got = apply_phi(U)
        assert (got.rows, got.pivots) == (want.rows, want.pivots)


@pytest.mark.parametrize("kind,dim", [
    ("symplectic", 4), ("symmetric-even-split", 4),
    ("symmetric-even-nonsplit", 4), ("symmetric-odd", 3),
])
def test_sparse_form_equals_dense_gram_sum(kind, dim):
    """Over a prime field codes are residues, so the dense sum
    sum_ij x_i g_ij y_j can be taken with integers mod p."""
    sp = FormedSpace(F3, kind, dim)
    p = F3.p
    vectors = list(itertools.product(range(p), repeat=dim))
    for x in vectors:
        for y in vectors:
            dense = sum(x[i] * sp.gram[i][j] * y[j]
                        for i in range(dim) for j in range(dim)) % p
            assert sp.form(x, y) == dense, (x, y)
