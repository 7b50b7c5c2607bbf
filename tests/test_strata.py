import hashlib
import json
import os

import numpy as np
import pytest

from stratakit import linalg, space as spc, strata
from stratakit.gf import FieldCtx
from stratakit.strata import (
    ConfigError,
    StrataConfig,
    StratumLabel,
    classify,
    enumerate_members,
    predicted_index_set,
    reachable_at_k,
    reference_dimension,
    stratum_counts,
    top_labels,
    verify_decomposition,
)
from chain_classifier import (
    chain_up,
    classify_by_chains,
    member,
    reference_lagrangian,
    sign_by_intersection,
    sum_spaces,
)
from subspace_scan import enumerate_subspaces
import label_tables


def cfg_z(t, h, k=2, p=3):
    return StrataConfig("Z", p, 1, k, t=t, h=h)


def cfg_y(n, h, t, eps, k=2, p=3):
    return StrataConfig("Y", p, 1, k, n=n, h=h, t=t, eps=eps)


def cfg_zy(t1, h, t2, k=2, p=3):
    return StrataConfig("ZY", p, 1, k, t1=t1, h=h, t2=t2)


def classified(cfg):
    """(U, y, label, chain dimensions, KR class) of every member, in scan
    order, read off the block kernel's output; y is the member's line
    (empty when U is stable)."""
    A = strata._Arrays(cfg.build_space())
    for blk in strata._blocks(cfg, A, None):
        index, codes = strata.classify_block(cfg, A, blk, kr=True)
        for i, code in zip(index.tolist(), codes.tolist()):
            yield (strata._span(blk, i), tuple(blk.y[i].tolist()),
                   *strata._decode(cfg, blk.v, code))


def test_config_validation():
    with pytest.raises(ConfigError):
        StrataConfig("Z", 3, 1, 1, t=3, h=0)
    with pytest.raises(ConfigError):
        StrataConfig("Z", 3, 1, 1, t=2, h=4)
    with pytest.raises(ConfigError):
        StrataConfig("Y", 3, 1, 1, n=6, h=8, t=0)
    with pytest.raises(ConfigError):
        StrataConfig("Y", 3, 1, 1, n=6, h=6, t=0, eps=-1)  # maximal level needs +1
    with pytest.raises(ConfigError):
        StrataConfig("ZY", 3, 1, 1, t1=4, h=2, t2=4)
    with pytest.raises(ConfigError):
        StrataConfig("Q", 3, 1, 1)


def test_member_counts_rational_lagrangians():
    cfg = cfg_z(4, 0, k=1)
    counts, total = stratum_counts(cfg)
    assert total == 40
    assert counts == {StratumLabel(0, 0, "id"): 40}


def test_member_rejects_wrong_dimension_and_deficiency():
    cfg = cfg_z(4, 0, k=2)
    sp = cfg.build_space()
    line = spc.Subspace.from_rows(sp, [sp.e(1)])
    assert not member(cfg, line)  # wrong dimension
    assert classify(cfg, line) is None
    # a Lagrangian whose Frobenius image meets it only in 0
    U = spc.Subspace.from_rows(sp, [(1, 3, 0, 0), (0, 0, 1, 6)])
    if member(cfg, U):
        assert spc.intersect(U, spc.apply_phi(U)).dim >= 1
    # the one-sum member() and classify's down walk against the
    # intersection predicate on every d-subspace of the coordinate scan,
    # members and non-members alike
    for cfg in (cfg_z(4, 0), cfg_y(5, 2, 0, -1), cfg_zy(8, 4, 0)):
        d, verdicts = cfg.member_dim, set()
        for U in enumerate_subspaces(cfg.build_space(), d):
            want = ((cfg.case == "ZY" or spc.is_isotropic(U))
                    and spc.intersect(U, spc.apply_phi(U)).dim >= d - 1)
            assert member(cfg, U) == want, (cfg.describe(), U.rows)
            assert (classify(cfg, U) is not None) == want, (cfg.describe(), U.rows)
            verdicts.add(want)
        assert verdicts == {True, False}, cfg.describe()


def test_member_refuses_a_subspace_over_another_field():
    # U lives over GF(81) as the degree-4 extension of GF(3); the space
    # over GF(9), over GF(81) as the square of GF(9), or over GF(625) is
    # another space
    U = next(enumerate_members(cfg_z(4, 0, k=4)))
    assert classify(cfg_z(4, 0, k=4), U) is not None
    for cfg in (cfg_z(4, 0, k=2), StrataConfig("Z", 3, 2, 2, t=4, h=0), cfg_z(4, 0, k=4, p=5)):
        with pytest.raises(ConfigError):
            classify(cfg, U)


def test_classifier_stable_member_is_id():
    cfg = cfg_z(4, 2, k=2)
    sp = cfg.build_space()
    U = spc.Subspace.from_rows(sp, [sp.e(1)])
    assert classify(cfg, U) == (StratumLabel(1, 1, "id"), [1], "id")


def test_degenerate_worst_point():
    cfg = cfg_z(4, 4, k=2)
    counts, total = stratum_counts(cfg)
    assert total == 1
    assert counts == {StratumLabel(2, 2, "id"): 1}


def _phi_power(U, k):
    for _ in range(k):
        U = spc.apply_phi(U)
    return U


def _coordinate_scan(cfg):
    """Reference members: every (isotropic) coordinate subspace over the
    working field that is rational over GF(q^k) and passes ``member``."""
    sp = cfg.build_space()
    iso = cfg.case in ("Z", "Y")
    return {U.rows for U in enumerate_subspaces(sp, cfg.member_dim, isotropic_only=iso)
            if _phi_power(U, cfg.k).rows == U.rows and member(cfg, U)}


def _rational_scan(cfg):
    """Reference members where the coordinate scan is out of reach: the
    isotropic d-subspaces rational over GF(q^k), as the stable scan of the
    same space over the base field GF(q^k), that pass ``member``.  The two
    contexts share one modulus, so their codes agree, and the Grams must
    agree too (the non-split kind's delta is the smallest non-square of
    each base field)."""
    sp = cfg.build_space()
    base = spc.FormedSpace(FieldCtx(cfg.p, cfg.e * cfg.k, 1), sp.kind, sp.dim)
    assert base.ctx.modulus == sp.ctx.modulus and base.gram == sp.gram
    iso = cfg.case in ("Z", "Y")
    return {U.rows for U in strata.rational_subspaces(base, cfg.member_dim, iso)
            if member(cfg, spc.Subspace(sp, U.rows, U.pivots))}


def test_fast_path_matches_generic_enumeration():
    # k = 2 (one Krylov step) and k = 3 (up to two)
    for cfg in (cfg_z(4, 2), cfg_y(5, 2, 0, -1), cfg_y(6, 4, 2, 1), cfg_zy(6, 2, 0),
                cfg_z(4, 0, k=3), cfg_z(4, 2, k=3), cfg_zy(6, 2, 0, k=3),
                cfg_y(4, 2, 0, -1, k=3), cfg_y(4, 4, 2, 1, k=3)):
        fast = [u.rows for u in enumerate_members(cfg)]
        assert len(fast) == len(set(fast)), cfg.describe()
        assert set(fast) == _coordinate_scan(cfg), cfg.describe()
    # d = 2 at k = 3 in symmetric spaces, so the scan also tries two Krylov
    # steps: in the odd 5-space over GF(27) no member takes them (w needs
    # v + u <= 1 there, and h' = 0 leaves no wprime label), and no
    # candidate in the non-split 4-space passes, whose form stays
    # non-split over GF(27); the flat scan agrees on both
    for cfg, total in ((cfg_y(5, 4, 0, -1, k=3), 1000), (cfg_y(4, 4, 0, 1, k=3), 0)):
        assert min(cfg.member_dim, cfg.k - 1) == 2
        fast = [u.rows for u in enumerate_members(cfg)]
        assert len(fast) == len(set(fast)) == total, cfg.describe()
        assert set(fast) == _rational_scan(cfg), cfg.describe()


# sha256 of the candidate stream of ``strata._blocks`` (per candidate: v,
# its bottom's rows, y), recorded with the one-bottom-at-a-time scan
# through ``linalg.row_spaces``: the benchmark's strata configurations,
# then Z q3 t6 h2 k2 and Z q3 t6 h4 k2
STREAM_SHA256 = {
    cfg_z(4, 2, p=5): "3463b106b98576bf381eb2dc5c1109df7855f0e73ab90f77301d3a3bc0db48ad",
    cfg_z(4, 0, p=5): "de938590246b43b50f584188d115a8af172cc07ff1ca165c8bc50566ceba92f4",
    cfg_y(6, 4, 0, -1): "18484086a43c94abfb07501d450d7461d06200b8843caf1684edf8ce425883f5",
    cfg_y(6, 6, 0, 1): "f67ab631e2131d166b17aec426504e5c6d8e60daf8a1414d6122040f04dc9215",
    cfg_zy(8, 4, 0): "45cabcc61c57cec8d2ea611ccff3002b02b8bf1f66a2c5cf7c793592a8d0d361",
    cfg_z(4, 0, k=3): "05c84b7f10b25e31baf3a397dc32ad8fc1d29b42471a1e7f5a7d6114a64494c3",
    cfg_z(4, 2, k=3): "6562c26a0bd3abf89466cdf0863b0eab42a84ea1f8885321775d6e385fd679d4",
    cfg_y(4, 2, 0, -1, k=3): "0443d1e0e379f5b64d399e435a2e157601ddc32b4d72c7cbbed082cf2e6b7a4c",
    # no candidate: the non-split plane has no isotropic line over GF(27)
    cfg_y(2, 2, 0, 1, k=3): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    cfg_zy(6, 2, 0, k=3): "a29790bd7bb5c621a276acd25b32670e0e84bb94ecc8192636bdeb0b7731a820",
    cfg_z(6, 2): "f9c644d0f1fd2b9196ab2a0463b018255c725c17ac6fa9b09be1aff0192e6b10",
    cfg_z(6, 4): "db2625fb15f86afe30c10b7e3072c8e1fee67c5096009f317c939b71cecb70d2",
}


def _stream_sha256(cfg):
    A = strata._Arrays(cfg.build_space())
    digest = hashlib.sha256()
    for blk in strata._blocks(cfg, A, None):
        assert len(blk.y) <= strata.CHUNK
        bottoms = np.array([B.rows for B in blk.bottoms], dtype=np.int16).reshape(
            len(blk.bottoms), blk.bottoms[0].dim * A.space.dim)[blk.which]
        v = np.full((len(blk.y), 1), blk.v, dtype=np.int16)
        digest.update(np.concatenate([v, bottoms, blk.y], axis=1).astype(np.int16).tobytes())
    return digest.hexdigest()


def test_candidate_stream_is_pinned(monkeypatch):
    # the same candidates in the same order, so the blocks, their labels
    # and the enumeration order are unchanged; and on Z t6 h4 k2, whose one
    # bottom has 66,430 lines, the scan holds at most CHUNK coefficient rows
    # of a bottom and yields at most CHUNK lines at a time
    rows, lines = [], []
    line_coeffs, solve = strata._line_coeffs, strata._lines

    def coeffs_spy(*args):
        for which, x in line_coeffs(*args):
            rows.append(np.bincount(which, minlength=1).max())
            yield which, x

    def lines_spy(*args):
        for B, y in solve(*args):
            lines.append(len(y))
            yield B, y

    monkeypatch.setattr(strata, "_line_coeffs", coeffs_spy)
    monkeypatch.setattr(strata, "_lines", lines_spy)
    for cfg, want in STREAM_SHA256.items():
        rows.clear(), lines.clear()
        assert _stream_sha256(cfg) == want, cfg.describe()
    assert sum(lines) == sum(rows) == 66_430 and len(rows) > 30
    assert max(rows) <= strata.CHUNK and max(lines) <= strata.CHUNK


def test_nonsplit_quadric_points_at_odd_k():
    # members of Y n6 h4 t2 are the isotropic lines of the non-split
    # 4-space; over GF(27) the elliptic quadric has 27^2 + 1 points
    cfg = cfg_y(6, 4, 2, 1, k=3)
    assert cfg.member_dim == 1 and cfg.build_space().ctx.size == 27
    assert sum(1 for _ in enumerate_members(cfg)) == 27**2 + 1


def test_stable_isotropic_lines_beyond_degree_two():
    # over GF(729), where the Frobenius has order 6, the stable isotropic
    # lines of the non-split 4-space are still its 3^2 + 1 rational ones
    sp = spc.FormedSpace(FieldCtx(3, 1, 6), "symmetric-even-nonsplit", 4)
    lines = list(strata.rational_subspaces(sp, 1, True))
    assert len({U.rows for U in lines}) == len(lines) == 3**2 + 1
    assert all(spc.apply_phi(U).rows == U.rows and spc.is_isotropic(U) for U in lines)


@pytest.mark.parametrize("kind,dim", [
    ("symplectic", 4), ("symmetric-even-split", 4), ("symmetric-even-nonsplit", 4),
    ("symmetric-odd", 3), ("none", 3),
])
def test_rational_subspaces_are_the_rational_coordinate_scan(kind, dim):
    # the stable subspaces are the echelon matrices with GF(q) entries, in
    # the coordinate scan's order
    sp = spc.FormedSpace(FieldCtx(3, 1, 2), kind, dim)
    base = set(sp.ctx.subfield_codes(1))
    for iso in (False, True) if sp.gram else (False,):
        for d in range(dim + 1):
            want = [(U.rows, U.pivots) for U in enumerate_subspaces(sp, d, iso)
                    if all(x in base for row in U.rows for x in row)]
            got = [(U.rows, U.pivots) for U in strata.rational_subspaces(sp, d, iso)]
            assert got == want


@pytest.mark.parametrize("p,kind,d", [
    (3, "symplectic", 2), (3, "symplectic", 3), (3, "symmetric-even-split", 2),
    (3, "symmetric-even-split", 3), (5, "symmetric-even-split", 2), (5, "symmetric-even-split", 3),
    (3, "symmetric-even-nonsplit", 2), (3, "symmetric-even-nonsplit", 3),
    (5, "symmetric-even-nonsplit", 2),
])
def test_rational_subspaces_solve_in_the_coordinate_scan_order(p, kind, d):
    # in dimension 6 the orthogonality systems have several equations and
    # prune most rows; over GF(p) itself the stable scan is the whole
    # isotropic coordinate scan, rows, pivots and order alike
    sp = spc.FormedSpace(FieldCtx(p, 1, 1), kind, 6)
    want = [(U.rows, U.pivots) for U in enumerate_subspaces(sp, d, True)]
    got = [(U.rows, U.pivots) for U in strata.rational_subspaces(sp, d, True)]
    assert got == want
    assert len(got) == spc.count_oracle(sp, d, True)


def test_phi_equivariance_of_labels():
    cfg = cfg_z(4, 2)
    for i, (U, _, label, _, _) in enumerate(classified(cfg)):
        if i % 17:
            continue
        assert classify(cfg, spc.apply_phi(U))[0] == label


def test_kr_class_matches_label_fiber():
    # every member of Z t6 h4, through the tally's (KR class, label) pairs
    cfg = cfg_z(6, 4)
    tally = strata._tally(cfg, None, kr=True)
    assert sum(tally.values()) == 66430
    for kr, label in tally:
        if label.kind == "id":
            assert kr == "id"
        elif label.kind == "w" and label.s == cfg.frame[1]:
            assert kr == "w"
        else:
            assert kr == "wprime"


def test_kr_class_matches_isotropy_of_first_sum():
    # the pairwise-form shortcut against the span it stands for, on every
    # member: symplectic, split, non-split and odd symmetric spaces, with
    # members of dimension 1 and 2
    kinds = set()
    for cfg in (cfg_z(4, 2), cfg_z(4, 0), cfg_y(4, 2, 0, -1), cfg_y(6, 4, 2, 1),
                cfg_y(4, 4, 0, 1), cfg_y(5, 2, 0, -1), cfg_y(5, 4, 0, -1)):
        for U, _, _, _, kr in classified(cfg):
            phiU = spc.apply_phi(U)
            if phiU.rows == U.rows:
                want = "id"
            else:
                want = "wprime" if spc.is_isotropic(sum_spaces(U, phiU)) else "w"
            assert kr == want, (cfg.describe(), U.rows)
            kinds.add((cfg.space_kind, want))
    assert {kind for _, kind in kinds} == {"id", "w", "wprime"}
    assert len({space for space, _ in kinds}) == 4


def test_classify_applies_phi_once_per_down_step(monkeypatch):
    # classify runs a member's down chain: one Phi per down step, and the
    # stability tests read entries, not images
    calls = []

    def counted(U):
        calls.append(U)
        return spc.apply_phi(U)

    monkeypatch.setattr(strata, "apply_phi", counted)
    steps = 0
    for cfg in (cfg_y(4, 2, 0, 1), cfg_y(4, 2, 0, -1)):
        for U, _, _, dims, _ in classified(cfg):
            calls.clear()
            v = cfg.member_dim - dims[0]
            assert classify(cfg, U)[1] == dims
            assert len(calls) == v
            steps += v
    assert steps > 100


FROZEN_COUNTS = {
    # exhaustive runs, frozen: (case params, k) -> {label: count}
    ("Z", 4, 0, 1): {"id(0,0)": 40},
    ("Z", 4, 0, 2): {"id(0,0)": 40, "w(1,0)": 240},
    ("Z", 4, 0, 3): {"id(0,0)": 40, "w(1,0)": 960},
    ("Z", 4, 2, 2): {"id(1,1)": 40, "w(2,1)": 540, "wprime(2,0)": 240},
    ("Z", 6, 4, 2): {"id(2,2)": 364, "w(3,2)": 44226, "wprime(3,1)": 21840},
}


def test_frozen_counts_small():
    for key, expect in FROZEN_COUNTS.items():
        if key[0] != "Z" or key == ("Z", 6, 4, 2):
            continue
        cfg = cfg_z(key[1], key[2], k=key[3])
        counts, _ = stratum_counts(cfg)
        assert {l.key(): c for l, c in counts.items()} == expect


@pytest.mark.slow
def test_frozen_counts_rank_three():
    cfg = cfg_z(6, 4, k=2)
    counts, total = stratum_counts(cfg)
    assert total == 66430
    assert {l.key(): c for l, c in counts.items()} == FROZEN_COUNTS[("Z", 6, 4, 2)]


def test_predicted_index_sets():
    assert {l.key() for l in predicted_index_set(cfg_z(4, 2))} == {
        "id(1,1)", "w(2,0)", "w(2,1)", "wprime(2,0)"}
    # split even: no w labels with s = 0; signed wprime at h = n - 2
    assert {l.key() for l in predicted_index_set(cfg_y(6, 4, 0, -1))} == {
        "id(1,1)", "w(2,1)", "w(3,1)",
        "wprime(2,0)+", "wprime(2,0)-", "wprime(3,0)+", "wprime(3,0)-"}
    # non-split: no stable Lagrangian tops, so wprime needs s >= 1
    assert {l.key() for l in predicted_index_set(cfg_y(6, 4, 0, 1))} == {
        "id(1,1)", "w(2,0)", "w(2,1)", "w(3,0)", "w(3,1)"}
    # maximal level: signed w only
    assert {l.key() for l in predicted_index_set(cfg_y(6, 6, 0, 1))} == {
        "w(1,0)+", "w(1,0)-", "w(2,0)+", "w(2,0)-", "w(3,0)+", "w(3,0)-"}
    # formless: the stated box degenerates to the fixed point and interior
    assert {l.key() for l in predicted_index_set(cfg_zy(6, 2, 0))} == {
        "w(1,1)", "w(2,0)", "w(3,0)"}


def test_reachability_rule_against_exhaustive_runs():
    # k = 1 sees only the fixed points; k = 2 one step each way; the w
    # exit has the halved budget (frozen against the k <= 4 runs)
    for cfg, expect in [
        (cfg_z(4, 2, k=1), {"id(1,1)"}),
        (cfg_z(4, 2, k=2), {"id(1,1)", "w(2,1)", "wprime(2,0)"}),
        (cfg_z(4, 2, k=3), {"id(1,1)", "w(2,1)", "wprime(2,0)"}),
        (cfg_z(4, 0, k=3), {"id(0,0)", "w(1,0)"}),
        (cfg_zy(6, 2, 0, k=2), {"w(1,1)", "w(2,0)"}),
        (cfg_zy(6, 2, 0, k=3), {"w(1,1)", "w(2,0)", "w(3,0)"}),
        (cfg_zy(8, 4, 0, k=3), {"w(2,2)", "w(3,0)", "w(3,1)", "w(4,1)"}),
    ]:
        reach = {l.key() for l in predicted_index_set(cfg) if reachable_at_k(cfg, l)}
        assert reach == expect
        counts, _ = stratum_counts(cfg)
        assert {l.key() for l in counts} == expect


@pytest.mark.slow
def test_reachability_rule_at_k4():
    for cfg, expect in [
        (cfg_z(4, 0, k=4), {"id(0,0)", "w(1,0)", "w(2,0)"}),
        (cfg_z(4, 2, k=4), {"id(1,1)", "w(2,1)", "w(2,0)", "wprime(2,0)"}),
        (cfg_y(4, 2, 0, -1, k=4), {"id(1,1)", "w(2,1)", "wprime(2,0)+", "wprime(2,0)-"}),
    ]:
        reach = {l.key() for l in predicted_index_set(cfg) if reachable_at_k(cfg, l)}
        counts, _ = stratum_counts(cfg)
        assert {l.key() for l in counts} == reach == expect


def test_union_over_k_exhausts_index_set_on_small_configs():
    for make in (lambda k: cfg_z(4, 0, k=k), lambda k: cfg_z(4, 2, k=k)):
        cfg4 = make(4)
        full = predicted_index_set(cfg4)
        assert frozenset(l for l in full if any(
            reachable_at_k(cfg4, l, k) for k in (1, 2, 3, 4))) == full


def _minus(sp, spaces):
    """The kernel's sign of each maximal isotropic: True for ``-``."""
    rows = np.array([F.rows for F in spaces], dtype=np.int16)
    return strata._minus(strata._Arrays(sp), rows).tolist()


def test_component_sign():
    # the reference Lagrangian is +, and one that meets it in codimension
    # one (its e_1 swapped for f_1) is -, in both even kinds
    for cfg in (cfg_y(6, 6, 2, 1), cfg_y(6, 4, 2, -1)):
        sp = cfg.build_space()
        m = sp.dim // 2
        lref = reference_lagrangian(sp)
        neighbor = spc.Subspace.from_rows(sp, [sp.e(m + 1)] + list(lref.rows[1:]))
        assert spc.is_isotropic(neighbor) and spc.intersect(neighbor, lref).dim == m - 1
        assert _minus(sp, [lref, neighbor]) == [False, True]
    # over GF(3) delta is no square and the non-split 4-space has no
    # Lagrangian to sign
    sp = cfg_y(6, 6, 2, 1, k=1).build_space()
    with pytest.raises(ConfigError):
        _minus(sp, [spc.Subspace.from_rows(sp, [sp.e(1), sp.e(2)])])


@pytest.mark.parametrize("k", [2, 3])
def test_block_rank_matches_linalg_rank(k):
    # batches of 3 x 4 matrices over GF(9) and GF(27) with zero rows,
    # repeated rows, multiples and sums of other rows mixed in
    ctx = FieldCtx(3, 1, k)
    A = strata._Arrays(spc.FormedSpace(ctx, "none", 4))
    rng = np.random.default_rng(k)
    M = rng.integers(0, ctx.size, size=(400, 3, 4)).astype(np.int16)
    M[0::8, 1] = 0
    M[1::8, 2] = M[1::8, 1]
    M[2::8, 1] = A.mul(rng.integers(0, ctx.size, 50)[:, None], M[2::8, 0])
    M[3::8, 2] = A.add(M[3::8, 0], M[3::8, 1])
    M[5::8, 1:] = 0
    M[7::8] = 0
    want = [linalg.rank(ctx, m.tolist()) for m in M]
    assert strata._rank(A, M).tolist() == want
    assert set(want) == {0, 1, 2, 3}


@pytest.mark.parametrize("p,e,k", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5)])
def test_block_arithmetic_is_the_field_tables(p, e, k):
    # the kernel's gathers against FieldCtx's scalar tables, every pair
    # and every code, over GF(9) .. GF(81) (int16 index) and GF(243),
    # whose index x * 243 + y needs int32
    ctx = FieldCtx(p, e, k)
    q = ctx.size
    A = strata._Arrays(spc.FormedSpace(ctx, "none", 1))
    assert A.stride.dtype == (np.int32 if q > 181 else np.int16)
    codes = np.arange(q, dtype=np.int16)
    # 3-D broadcasts as in _roots, and an int times a code array as in
    # _form
    assert A.add(codes[None, :, None], codes[:, None, None])[..., 0].T.tolist() == ctx.ADD
    assert A.mul(codes[:, None], codes[None, :]).tolist() == ctx.MUL
    for g in (0, 1, q - 1):
        assert A.mul(g, codes).tolist() == ctx.MUL[g]
    for table in ("NEG", "INV", "FROB", "FROB_INV"):
        assert getattr(A, table).take(codes).tolist() == getattr(ctx, table), table
    sqrt = A.SQRT.take(codes).tolist()
    squares = {ctx.MUL[x][x] for x in range(q)}
    assert all((s == -1) == (c not in squares) for c, s in enumerate(sqrt))
    assert all(ctx.MUL[s][s] == c for c, s in enumerate(sqrt) if s >= 0)


def test_tally_over_a_field_with_a_wide_index():
    # over GF(3^5) and GF(17^2), whose table index needs int32, the
    # tallies the 2-D fancy-index kernel gave: a conic, and the signed
    # Lagrangians of a non-split 4-space
    conic = StrataConfig("Y", 3, 1, 5, n=3, h=2, t=0)
    assert strata._tally(conic, None, kr=True) == {
        ("id", StratumLabel(0, 0, "id")): 4, ("w", StratumLabel(1, 0, "w")): 240}
    signed = cfg_y(4, 4, 0, 1, k=2, p=17)
    assert strata._tally(signed, None, kr=True) == {
        ("w", StratumLabel(1, 0, "w", "+")): 290, ("w", StratumLabel(1, 0, "w", "-")): 290}


def test_wrong_arithmetic_stops_the_up_walk(monkeypatch, capsys):
    # with NEG read as the identity no residual of the conic's up walk
    # reaches zero: the walk stops at the space dimension and raises, and
    # the CLI reports a failed chain check instead of hanging
    from stratakit.cli import main

    init = strata._Arrays.__init__

    def identity_neg(self, sp):
        init(self, sp)
        self.NEG = np.arange(sp.ctx.size, dtype=np.int16)

    monkeypatch.setattr(strata._Arrays, "__init__", identity_neg)
    with pytest.raises(strata.ChainError, match="up walk"):
        strata._tally(StrataConfig("Y", 3, 1, 5, n=3, h=2, t=0), None, kr=True)
    assert main("strata count --case y --q 3 --k 5 --n 3 --h 2 --t 0".split()) == 1
    [check] = json.loads(capsys.readouterr().out)["stable"]["checks"]
    assert check["name"] == "chain" and check["status"] == "fail"
    assert check["witness"].startswith("up walk")


def test_component_sign_matches_intersection():
    # the kernel's one-rank sign against dim(F cap L_ref), on every
    # Lagrangian member of the non-split 6-space and every stable top of
    # a wprime chain of the split 6-space
    n_lagrangian = n_tops = 0
    for U, _, label, _, _ in classified(cfg_y(6, 6, 0, 1)):
        assert label.sign == sign_by_intersection(U), U.rows
        n_lagrangian += 1
    for U, _, label, _, _ in classified(cfg_y(6, 4, 0, -1)):
        up, stop = chain_up(U)
        if stop == "stable" and len(up) > 1:
            assert label.sign == sign_by_intersection(up[-1]), U.rows
            n_tops += 1
    assert n_lagrangian == 560 and n_tops > 0


def test_frobenius_swaps_the_rulings_only_when_nonsplit():
    # Phi keeps the form, so it permutes the two families of Lagrangians: a
    # non-split form is non-split over GF(q), so Phi swaps them on every
    # member of the non-split 6-space; the split form's families are
    # rational, so Phi keeps them, also on Lagrangians that are not stable.
    # span(e_1..e_m) is not isotropic under the non-split Gram, and its
    # intersection parity shows no swap
    cfg = cfg_y(6, 6, 0, 1)
    sp = cfg.build_space()
    naive = spc.Subspace.from_rows(sp, [sp.e(i + 1) for i in range(3)])
    assert not spc.is_isotropic(naive)
    members = list(enumerate_members(cfg))
    images = [spc.apply_phi(U) for U in members]
    signs = _minus(sp, members + images)
    assert signs[:560] == [not s for s in signs[560:]]
    naive_kept = sum(sign_by_intersection(phiU, naive) == sign_by_intersection(U, naive)
                     for U, phiU in zip(members, images))
    assert len(members) == 560 and naive_kept > 0
    sp = cfg_y(6, 4, 2, -1).build_space()
    lagrangians = list(enumerate_subspaces(sp, 2, isotropic_only=True))
    images = [spc.apply_phi(F) for F in lagrangians]
    signs = _minus(sp, lagrangians + images)
    assert signs[:len(lagrangians)] == signs[len(lagrangians):]
    assert sum(phiF != F for F, phiF in zip(lagrangians, images)) > 0


def test_signed_counts_balanced():
    counts, _ = stratum_counts(cfg_y(6, 6, 0, 1))
    assert counts[StratumLabel(1, 0, "w", "+")] == counts[StratumLabel(1, 0, "w", "-")] == 280


def test_reference_dimensions():
    z = cfg_z(6, 2)
    assert reference_dimension(z, StratumLabel(3, 1, "w")) == 4
    assert reference_dimension(z, StratumLabel(3, 0, "wprime")) == 2
    assert reference_dimension(z, StratumLabel(1, 1, "id")) == 0
    yo = cfg_y(5, 4, 0, -1)
    assert reference_dimension(yo, StratumLabel(2, 0, "w")) == 2
    ye = cfg_y(6, 4, 0, -1)
    assert reference_dimension(ye, StratumLabel(2, 1, "w")) == 2
    assert reference_dimension(ye, StratumLabel(2, 0, "wprime", "+")) == 1
    zy = cfg_zy(8, 4, 0)
    assert reference_dimension(zy, StratumLabel(4, 0, "w")) == 3
    assert reference_dimension(zy, StratumLabel(2, 2, "w")) == 0


def test_label_tables_match_the_frozen_grid():
    # every closed table of the grid against the frozen tables; a failure
    # names its configurations
    with open(os.path.join(os.path.dirname(__file__), "label_tables.json")) as fh:
        frozen = json.load(fh)
    names = [label_tables.name(cfg) for cfg in label_tables.GRID]
    assert len(names) == 273 and sorted(names) == sorted(frozen)
    bad = [name for cfg, name in zip(label_tables.GRID, names)
           if label_tables.table(cfg) != frozen[name]]
    assert not bad
    # every label sits in its frame: bottom <= s <= level <= r <= top
    for cfg in label_tables.GRID:
        top, level, bottom = cfg.frame
        assert cfg.member_dim == top - level
        assert all(bottom <= l.s <= level <= l.r <= top for l in predicted_index_set(cfg))


def test_top_closure_is_whole_index_set():
    for cfg in (cfg_z(6, 2), cfg_y(6, 4, 0, -1), cfg_y(6, 6, 0, 1),
                cfg_y(7, 4, 2, 1), cfg_zy(8, 4, 2)):
        top = top_labels(cfg)[0]
        tops = [top] if top.sign is None else [
            StratumLabel(top.r, top.s, top.kind, sg) for sg in ("+", "-")]
        closure = frozenset().union(
            *(strata.closure_index_set(cfg, t) for t in tops))
        assert closure == predicted_index_set(cfg)


def test_verify_decomposition_passes():
    for cfg in (cfg_z(4, 0), cfg_z(4, 2), cfg_y(5, 2, 0, -1),
                cfg_y(6, 4, 2, 1), cfg_y(6, 6, 2, 1), cfg_zy(6, 2, 0)):
        rep = verify_decomposition(cfg)
        bad = [c for c in rep["checks"] if c["status"] != "pass"]
        assert not bad, (cfg.describe(), bad)


def test_monotonicity_witness_is_sorted(monkeypatch):
    # a failing dimension_monotonicity check lists its pairs in key order,
    # not in the order of a frozenset of labels
    monkeypatch.setattr(strata, "reference_dimension", lambda cfg, label: 0)
    rep = verify_decomposition(cfg_z(6, 2, k=1))
    mono = next(c for c in rep["checks"] if c["name"] == "dimension_monotonicity")
    assert mono["status"] == "fail"
    assert len(mono["witness"]) > 1
    assert mono["witness"] == sorted(mono["witness"])


def drop_first_candidate(blocks):
    """A block source that loses the first candidate of its first block,
    a stable member whenever there is one."""
    def source(*args):
        it = blocks(*args)
        blk = next(it)
        yield blk._replace(which=blk.which[1:], y=blk.y[1:])
        yield from it

    return source


def test_partition_fails_on_a_dropped_stable_member(monkeypatch):
    # the stable members come first; without one of them the stable count
    # falls short of count_oracle
    cfg = cfg_y(6, 4, 2, 1)
    assert verify_decomposition(cfg)["checks"][0]["status"] == "pass"
    monkeypatch.setattr(strata, "_blocks", drop_first_candidate(strata._blocks))
    part = verify_decomposition(cfg)["checks"][0]
    assert (part["name"], part["status"]) == ("partition", "fail")


def test_kr_refinement_fails_when_u_pairs_with_itself(monkeypatch):
    # the KR class pairs U's rows with Phi(U)'s; paired with U's own rows,
    # an isotropic member never leaves isotropy, so the w(2,1) members read
    # wprime against their predicted w fiber
    cfg = cfg_z(4, 2)

    def kr_check():
        return next(c for c in verify_decomposition(cfg)["checks"] if c["name"] == "kr_refinement")

    assert kr_check()["status"] == "pass"
    pairs = strata._pairs_nonzero
    monkeypatch.setattr(strata, "_pairs_nonzero", lambda A, U, W: pairs(A, U, U))
    check = kr_check()
    assert check["status"] == "fail"
    assert check["witness"] == [{"kr": "wprime", "label": "w(2,1)", "count": 540}]


def test_verify_budget_inconclusive():
    rep = verify_decomposition(cfg_z(6, 2), budget=50)
    assert rep["checks"][0]["status"] == "inconclusive"


def test_nonsplit_stable_lines_at_k1():
    # the 3^2 + 1 isotropic lines of the non-split 4-space over GF(3)
    cfg = cfg_y(6, 4, 2, 1, k=1)
    counts, total = stratum_counts(cfg)
    assert set(counts) == {StratumLabel(1, 1, "id")}
    assert total == 10


def test_nonsplit_lagrangians_unreachable_at_odd_k():
    # a non-split form stays non-split over odd-degree extensions, so at
    # h = n (Lagrangian members) odd k has no members and predicts none
    for n, t in ((2, 0), (4, 2)):
        for k in (1, 2, 3):
            cfg = cfg_y(n, n, t, 1, k=k)
            reach = {l.key() for l in predicted_index_set(cfg) if reachable_at_k(cfg, l)}
            rep = verify_decomposition(cfg)
            bad = [c for c in rep["checks"] if c["status"] != "pass"]
            assert not bad, (n, t, k, bad)
            realized = {row["label"] for row in rep["counts"]}
            assert realized == reach
            assert bool(reach) == (k % 2 == 0)


def test_worst_point_at_maximal_level():
    # t = h = n leaves a 0-dimensional non-split space: one member, id(0,0)
    for n in (2, 4):
        for k in (1, 2):
            cfg = cfg_y(n, n, n, 1, k=k)
            rep = verify_decomposition(cfg)
            bad = [c for c in rep["checks"] if c["status"] != "pass"]
            assert not bad, (n, k, bad)
            assert rep["counts"] == [{"label": "id(0,0)", "count": 1}]
            assert "kr_cross_locus_empty" not in {c["name"] for c in rep["checks"]}


# the ten strata configurations of the benchmark (k = 2 and k = 3) and a
# k = 4 one whose w members reach v + u = 2
BENCHMARK_CONFIGS = (
    cfg_z(4, 2, p=5), cfg_z(4, 0, p=5), cfg_y(6, 4, 0, -1), cfg_y(6, 6, 0, 1),
    cfg_zy(8, 4, 0), cfg_z(4, 0, k=3), cfg_z(4, 2, k=3), cfg_y(4, 2, 0, -1, k=3),
    cfg_y(2, 2, 0, 1, k=3), cfg_zy(6, 2, 0, k=3), cfg_z(4, 0, k=4),
)


def test_classifier_matches_chain_reference():
    # the block kernel against the subspace chains: label, chain
    # dimensions and KR class on every member; the recovery path (a block
    # of one after the down chain) on a sample of the signed
    # configurations, both on Phi(U) and on U read back from JSON
    total = recovered = 0
    for cfg in BENCHMARK_CONFIGS:
        signed = cfg.case == "Y" and cfg.n % 2 == 0 and cfg.h >= cfg.n - 2
        for i, (U, _, label, dims, kr) in enumerate(classified(cfg)):
            assert (label, dims, kr) == classify_by_chains(cfg, U), (cfg.describe(), U.rows)
            total += 1
            if signed and i % 23 == 0:
                phiU = spc.apply_phi(U)
                assert classify(cfg, phiU) == classify_by_chains(cfg, phiU)
                back = spc.subspace_from_json(spc.subspace_to_json(U))
                assert classify(cfg, back) == (label, dims, kr)
                recovered += 1
    assert total == 34802 + 22981 + 8344
    assert recovered > 500


def _frob(ctx, x, j):
    for _ in range(j):
        x = ctx.FROB[x]
    return x


def test_orbit_gram_bounds_w_exits():
    # g_m = form(Phi^m y, y): a w chain exits at its first nonzero entry,
    # m = v + u, and Phi^k y = y makes g_(k-m) = +-Frob^(k-m)(g_m), which
    # caps that m at floor(k/2)
    n_w = 0
    for cfg in (cfg_z(4, 0, k=4), cfg_z(4, 2, k=3), cfg_y(4, 2, 0, -1, k=3)):
        k = cfg.k
        for U, y, label, dims, _ in classified(cfg):
            if label.kind != "w":
                continue
            sp, ctx = U.space, U.space.ctx
            orbit = [y]
            for _ in range(k):
                orbit.append(spc._phi_vector(sp, orbit[-1]))
            assert orbit[k] == y
            g = [sp.form(z, y) for z in orbit]
            first = next(m for m, x in enumerate(g) if x)
            assert first == len(dims) - 1 <= k // 2, (cfg.describe(), U.rows, g)
            for m in range(k + 1):
                mirror = _frob(ctx, g[m], k - m)
                if sp.kind == "symplectic":
                    mirror = ctx.NEG[mirror]
                assert g[k - m] == mirror
            n_w += 1
    assert n_w > 0
