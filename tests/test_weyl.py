import pytest

from stratakit import weyl
from stratakit.weyl import (
    WeylCtx,
    WeylError,
    act,
    dl_dimension,
    enumerate_group,
    from_word,
    identity,
    inverse,
    is_irreducible,
    is_min_double_coset,
    length,
    longest_parabolic_length,
    mul,
    parabolic,
    reduced_word,
    simple,
    support,
)


def test_simple_reflection_actions():
    c3 = weyl.symplectic_ctx(3)
    s3 = from_word(c3, [3])
    assert act(s3, ("e", 3)) == ("f", 3)
    assert act(s3, ("f", 3)) == ("e", 3)
    assert act(s3, ("e", 1)) == ("e", 1)
    assert act(from_word(c3, []), ("e", 2)) == ("e", 2)


def test_g_word_swaps_one_pair():
    c3 = weyl.symplectic_ctx(3)
    for i in (1, 2, 3):
        g = from_word(c3, weyl.symplectic_g_word(i, 3))
        for j in (1, 2, 3):
            expect = ("f", j) if j == i else ("e", j)
            assert act(g, ("e", j)) == expect


def test_length_identity_and_longest():
    c2 = weyl.symplectic_ctx(2)
    assert length(identity(c2)) == 0
    dist = enumerate_group(c2)
    assert max(dist.values()) == 4
    assert longest_parabolic_length(c2, c2.simple_indices) == 4


@pytest.mark.parametrize("lie_type,rank", [
    ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 2), ("D", 3), ("D", 4),
])
def test_length_matches_word_search(lie_type, rank):
    ctx = WeylCtx(lie_type, rank)
    dist = enumerate_group(ctx)
    for images, d in dist.items():
        assert length(weyl.WeylElem(ctx, images)) == d


def test_reduced_word_and_support():
    c3 = weyl.symplectic_ctx(3)
    dist = enumerate_group(c3)
    for images, d in dist.items():
        w = weyl.WeylElem(c3, images)
        rw = reduced_word(w)
        assert len(rw) == d
        assert from_word(c3, rw).images == images
    # the support of every reduced word of a fixed element agrees
    w = from_word(c3, [1, 2, 3, 2, 1])
    target = support(w)
    seen = set()

    def search(prefix, cur):
        if cur.images == identity(c3).images and len(prefix) == length(w):
            seen.add(frozenset(prefix))
            return
        for s in weyl.right_descents(cur):
            search(prefix + [s], mul(cur, simple(c3, s)))

    search([], w)
    assert seen and all(fs == target for fs in seen)


def test_longest_parabolic_against_group_search():
    c3 = weyl.symplectic_ctx(3)
    for K in ([], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]):
        gens = [simple(c3, i) for i in K]
        seen = {identity(c3).images: 0}
        frontier = [identity(c3)]
        while frontier:
            new = []
            for w in frontier:
                for g in gens:
                    u = mul(w, g)
                    if u.images not in seen:
                        seen[u.images] = 0
                        new.append(u)
            frontier = new
        brute = max(length(weyl.WeylElem(c3, im)) for im in seen)
        assert longest_parabolic_length(c3, K) == brute


def test_min_double_coset_against_brute_force():
    c2 = weyl.symplectic_ctx(2)
    elements = [weyl.WeylElem(c2, im) for im in enumerate_group(c2)]
    for I, J in [((1,), (2,)), ((1,), (1,)), ((2,), (1, 2)), ((), (1,))]:
        WI = [w for w in elements if _in_parabolic(c2, w, I)]
        WJ = [w for w in elements if _in_parabolic(c2, w, J)]
        for w in elements:
            coset = {mul(mul(a, w), b).images for a in WI for b in WJ}
            minimum = min(length(weyl.WeylElem(c2, im)) for im in coset)
            assert is_min_double_coset(w, I, J) == (length(w) == minimum)


def _in_parabolic(ctx, w, K):
    return set(support(w)) <= set(K)


def test_identity_minimal():
    c3 = weyl.symplectic_ctx(3)
    assert is_min_double_coset(identity(c3), (1, 2), (3,))
    s1 = simple(c3, 1)
    assert not is_min_double_coset(s1, (1,), ())


def test_dl_dimension_examples():
    c3 = weyl.symplectic_ctx(3)
    # identity with Phi-stable parabolic has dimension 0
    I = parabolic(c3, weyl.symplectic_index_set(3, 1, 1, 1))
    assert dl_dimension(I, identity(c3)) == 0
    for (r, s) in [(2, 0), (2, 1), (3, 0), (3, 1)]:
        Irs = parabolic(c3, weyl.symplectic_index_set(3, 1, r, s))
        w = from_word(c3, weyl.symplectic_w_word(3, 1, r, s))
        assert dl_dimension(Irs, w) == r + s
    for (r, s) in [(2, 0), (3, 0)]:
        Irs = parabolic(c3, weyl.symplectic_index_set(3, 1, r, s))
        wp = from_word(c3, weyl.symplectic_wprime_word(3, 1, r, s))
        assert dl_dimension(Irs, wp) == r - s - 1


def test_dl_dimension_requires_minimality():
    c2 = weyl.symplectic_ctx(2)
    with pytest.raises(WeylError):
        dl_dimension(parabolic(c2, {1}), simple(c2, 1))


def test_irreducibility():
    c3 = weyl.symplectic_ctx(3)
    w = from_word(c3, [1, 2, 3])
    assert is_irreducible(parabolic(c3, ()), w)
    assert not is_irreducible(parabolic(c3, {1}), identity(c3))
    assert is_irreducible(parabolic(c3, {1, 2, 3}), identity(c3))
    # twisted type D: the twist closure can complete a proper subset
    d3 = weyl.orthogonal_even_ctx(3, twisted=True)
    assert is_irreducible(parabolic(d3, {1, 2}), identity(d3))
    assert not is_irreducible(parabolic(d3, {1}), identity(d3))
    assert not is_irreducible(
        parabolic(weyl.orthogonal_even_ctx(3, twisted=False), {1, 2}), identity(
            weyl.orthogonal_even_ctx(3, twisted=False)))


def test_w_lambda_words():
    # the first-step elements: one long conjugated reflection and s_{t-h}
    assert weyl.symplectic_w_lambda_word(2, 1) == [1, 2, 1]
    c2 = weyl.symplectic_ctx(2)
    assert length(from_word(c2, weyl.symplectic_w_lambda_word(2, 1))) == 3
    assert weyl.symplectic_wprime_lambda_word(2, 1) == [1]


def test_symplectic_audit_small():
    rep = weyl.symplectic_audit(4)
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_action_diagram_patterns():
    c3 = weyl.symplectic_ctx(3)
    w = from_word(c3, weyl.symplectic_w_word(3, 1, 3, 1))
    # the long cycle: e_1 -> f_2 -> f_1 -> e_2 -> e_1, e_3/f_3 fixed
    assert act(w, ("e", 1)) == ("f", 2)
    assert act(w, ("f", 2)) == ("f", 1)
    assert act(w, ("f", 1)) == ("e", 2)
    assert act(w, ("e", 2)) == ("e", 1)
    assert act(w, ("e", 3)) == ("e", 3)


def test_odd_orthogonal_words_are_coherent():
    # lengths, minimality and the dimension formula agree with the closed
    # table in the odd case, whose words are the symplectic ones in type B
    for (k, hp) in [(3, 1), (4, 2)]:
        ctx = WeylCtx("B", k)
        for r in range(hp + 1, k + 1):
            for s in range(0, hp + 1):
                w = from_word(ctx, weyl.symplectic_w_word(k, hp, r, s))
                I = parabolic(ctx, weyl.symplectic_index_set(k, hp, r, s))
                assert length(w) == r + s
                assert is_min_double_coset(w, I.gens, I.gens)
                assert dl_dimension(I, w) == r + s
            for s in range(0, hp):
                w = from_word(ctx, weyl.symplectic_wprime_word(k, hp, r, s))
                I = parabolic(ctx, weyl.symplectic_index_set(k, hp, r, s))
                assert length(w) == r - s - 1
                assert dl_dimension(I, w) == r - s - 1


def test_even_orthogonal_word_lengths_away_from_boundary():
    # for s >= 1 the stated words evaluate to length r + s - 1; the s = 0
    # words are incoherent as transcribed and the strata layer never uses
    # them (labels are computed intrinsically)
    for (k, hp) in [(3, 1), (4, 2)]:
        ctx = weyl.orthogonal_even_ctx(k, twisted=False)
        for r in range(hp + 1, k + 1):
            for s in range(1, hp + 1):
                w = from_word(ctx, weyl.orthogonal_even_w_word(k, hp, r, s))
                assert length(w) == r + s - 1


def test_linear_interior_words():
    for (m, hh) in [(3, 1), (4, 2)]:
        ctx = weyl.linear_ctx(m)
        for r in range(hh + 1, m + 1):
            for s in range(0, hh):
                w = from_word(ctx, weyl.linear_w_word(m, hh, r, s))
                I = parabolic(ctx, weyl.linear_index_set(m, hh, r, s))
                assert length(w) == r - s - 1
                assert is_min_double_coset(w, I.gens, I.gens)
                assert dl_dimension(I, w) == r - s - 1


def test_inverse_and_act_consistency():
    c3 = weyl.symplectic_ctx(3)
    w = from_word(c3, [2, 3, 1, 2])
    wi = inverse(w)
    assert mul(w, wi).images == identity(c3).images
    for v in [("e", 1), ("f", 2), ("e", 3)]:
        assert act(wi, act(w, v)) == v
