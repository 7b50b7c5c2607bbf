import itertools

import pytest

from stratakit import weyl
from stratakit.weyl import (
    WeylCtx,
    WeylError,
    act,
    dl_dimension,
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
from weyl_oracle import (
    conjugate_images,
    elements,
    enumerate_group,
    greedy_longest_parabolic_length,
    left_descents_by_length,
    longest_in,
    right_descents_by_length,
)


def _subsets(indices):
    return [set(c) for r in range(len(indices) + 1) for c in itertools.combinations(indices, r)]


def test_simple_reflection_actions():
    c3 = WeylCtx("C", 3)
    s3 = from_word(c3, [3])
    assert act(s3, ("e", 3)) == ("f", 3)
    assert act(s3, ("f", 3)) == ("e", 3)
    assert act(s3, ("e", 1)) == ("e", 1)
    assert act(from_word(c3, []), ("e", 2)) == ("e", 2)


def test_g_word_swaps_one_pair():
    c3 = WeylCtx("C", 3)
    for i in (1, 2, 3):
        g = from_word(c3, weyl.symplectic_g_word(i, 3))
        for j in (1, 2, 3):
            expect = ("f", j) if j == i else ("e", j)
            assert act(g, ("e", j)) == expect


def test_length_identity_and_longest():
    c2 = WeylCtx("C", 2)
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
    c3 = WeylCtx("C", 3)
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
    # root-support count against greedy ascent and against the longest
    # element found by searching the subgroup generated by K, for every K
    for lie_type, ranks in (("A", (3, 4)), ("B", (3,)), ("C", (2, 3, 4)), ("D", (2, 3, 4, 5))):
        for rank in ranks:
            ctx = WeylCtx(lie_type, rank)
            for K in _subsets(ctx.simple_indices):
                by_support = longest_parabolic_length(ctx, K)
                assert by_support == greedy_longest_parabolic_length(ctx, sorted(K))
                assert by_support == longest_in(ctx, enumerate_group(ctx, sorted(K)))
            with pytest.raises(WeylError):
                longest_parabolic_length(ctx, {rank + 1})


_RANK_AT_MOST_4 = [(t, k) for t in "ABC" for k in range(1, 5)] + [("D", k) for k in (2, 3, 4)]


@pytest.mark.parametrize("lie_type,rank", _RANK_AT_MOST_4)
def test_descents_and_minimality_match_lengths(lie_type, rank):
    # one-root descent tests against len(ws) < len(w) and len(sw) < len(w),
    # and the double-coset test for every pair of index sets
    ctx = WeylCtx(lie_type, rank)
    subsets = _subsets(ctx.simple_indices)
    for w in elements(ctx):
        right, left = right_descents_by_length(w), left_descents_by_length(w)
        assert weyl.right_descents(w) == sorted(right)
        for I in subsets:
            for J in subsets:
                assert is_min_double_coset(w, I, J) == (not left & I and not right & J)


@pytest.mark.parametrize("rank", [3, 4])
def test_dl_dimension_twisted_d_against_subgroup_search(rank):
    # len(w) + len(w0(Phi I)) - len(w0(W_I cap w W_(Phi I) w^-1)), each
    # longest length found by searching the subgroup itself
    ctx = WeylCtx("D", rank, twisted=True)
    group = elements(ctx)
    checked = 0
    for I in _subsets(ctx.simple_indices):
        phi_I = ctx.twist_set(I)
        W_I, W_phi = set(enumerate_group(ctx, sorted(I))), enumerate_group(ctx, sorted(phi_I))
        for w in group:
            if left_descents_by_length(w) & I or right_descents_by_length(w) & phi_I:
                with pytest.raises(WeylError):
                    dl_dimension(parabolic(ctx, I), w)
                continue
            meet = W_I & conjugate_images(w, W_phi)
            expect = length(w) + longest_in(ctx, W_phi) - longest_in(ctx, meet)
            assert dl_dimension(parabolic(ctx, I), w) == expect
            checked += 1
    assert checked > len(group)


def test_symplectic_audit_length_calls(monkeypatch):
    # a deterministic cost guard: the audit evaluates at most two lengths
    # per audited word (its own and the one inside dl_dimension)
    calls = 0
    real = weyl.length

    def counting(w):
        nonlocal calls
        calls += 1
        return real(w)

    monkeypatch.setattr(weyl, "length", counting)
    rep = weyl.symplectic_audit(8)
    words = len(rep["counts"]) + sum(c["name"].startswith("w") for c in rep["checks"])
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert 0 < calls <= 2 * words


def test_min_double_coset_against_brute_force():
    c2 = WeylCtx("C", 2)
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
    c3 = WeylCtx("C", 3)
    assert is_min_double_coset(identity(c3), (1, 2), (3,))
    s1 = simple(c3, 1)
    assert not is_min_double_coset(s1, (1,), ())


def test_dl_dimension_examples():
    c3 = WeylCtx("C", 3)
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
    c2 = WeylCtx("C", 2)
    with pytest.raises(WeylError):
        dl_dimension(parabolic(c2, {1}), simple(c2, 1))


def test_irreducibility():
    c3 = WeylCtx("C", 3)
    w = from_word(c3, [1, 2, 3])
    assert is_irreducible(parabolic(c3, ()), w)
    assert not is_irreducible(parabolic(c3, {1}), identity(c3))
    assert is_irreducible(parabolic(c3, {1, 2, 3}), identity(c3))
    # twisted type D: the twist closure can complete a proper subset
    d3 = WeylCtx("D", 3, twisted=True)
    assert is_irreducible(parabolic(d3, {1, 2}), identity(d3))
    assert not is_irreducible(parabolic(d3, {1}), identity(d3))
    d3 = WeylCtx("D", 3)
    assert not is_irreducible(parabolic(d3, {1, 2}), identity(d3))


def test_w_lambda_words():
    # the first-step elements: one long conjugated reflection and s_{t-h}
    assert weyl.symplectic_w_lambda_word(2, 1) == [1, 2, 1]
    c2 = WeylCtx("C", 2)
    assert length(from_word(c2, weyl.symplectic_w_lambda_word(2, 1))) == 3
    assert weyl.symplectic_wprime_lambda_word(2, 1) == [1]


def test_symplectic_audit_small():
    rep = weyl.symplectic_audit(4)
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_symplectic_audit_action_check_can_fail(monkeypatch):
    # a diagram in which w' crosses letters like w fails the action check
    # of every w' element, and nothing else
    real = weyl.expected_action
    monkeypatch.setattr(weyl, "expected_action",
                        lambda t, h, r, s, cross: real(t, h, r, s, True))
    rep = weyl.symplectic_audit(3)
    failed = [c for c in rep["checks"] if c["status"] != "pass"]
    assert failed and all(c["name"].startswith("w'") for c in failed)
    assert len(failed) == sum(c["name"].startswith("w'") for c in rep["checks"])
    for c in failed:
        assert c["witness"] == {"length": True, "reduced": True, "minimal": True,
                                "dimension": True, "action": False}


def test_action_diagram_patterns():
    c3 = WeylCtx("C", 3)
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
        ctx = WeylCtx("D", k)
        for r in range(hp + 1, k + 1):
            for s in range(1, hp + 1):
                w = from_word(ctx, weyl.orthogonal_even_w_word(k, hp, r, s))
                assert length(w) == r + s - 1


def test_linear_interior_words():
    for (m, hh) in [(3, 1), (4, 2)]:
        ctx = WeylCtx("A", m)
        for r in range(hh + 1, m + 1):
            for s in range(0, hh):
                w = from_word(ctx, weyl.linear_w_word(m, hh, r, s))
                I = parabolic(ctx, weyl.linear_index_set(m, hh, r, s))
                assert length(w) == r - s - 1
                assert is_min_double_coset(w, I.gens, I.gens)
                assert dl_dimension(I, w) == r - s - 1


def test_inverse_and_act_consistency():
    c3 = WeylCtx("C", 3)
    w = from_word(c3, [2, 3, 1, 2])
    wi = inverse(w)
    assert mul(w, wi).images == identity(c3).images
    for v in [("e", 1), ("f", 2), ("e", 3)]:
        assert act(wi, act(w, v)) == v
