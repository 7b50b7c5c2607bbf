import pytest

from stratakit import space as spc, strata
from stratakit.gf import FieldCtx
from stratakit.strata import (
    ConfigError,
    StrataConfig,
    StratumLabel,
    classify_flag,
    component_sign,
    enumerate_members,
    kr_class,
    member,
    predicted_index_set,
    reachable_at_k,
    reference_dimension,
    stratum_counts,
    top_label,
    verify_decomposition,
)


def cfg_z(t, h, k=2, p=3):
    return StrataConfig("Z", p, 1, k, t=t, h=h)


def cfg_y(n, h, t, eps, k=2, p=3):
    return StrataConfig("Y", p, 1, k, n=n, h=h, t=t, eps=eps)


def cfg_zy(t1, h, t2, k=2, p=3):
    return StrataConfig("ZY", p, 1, k, t1=t1, h=h, t2=t2)


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
    # a Lagrangian whose Frobenius image meets it only in 0
    U = spc.Subspace.from_rows(sp, [(1, 3, 0, 0), (0, 0, 1, 6)])
    if member(cfg, U):
        assert spc.intersect(U, spc.apply_phi(U)).dim >= 1


def test_classifier_stable_member_is_id():
    cfg = cfg_z(4, 2, k=2)
    sp = cfg.build_space()
    U = spc.Subspace.from_rows(sp, [sp.e(1)])
    label, chain = classify_flag(cfg, U)
    assert label == StratumLabel(1, 1, "id")
    assert [f.dim for f in chain] == [1]
    assert kr_class(cfg, U) == "id"


def test_degenerate_worst_point():
    cfg = cfg_z(4, 4, k=2)
    counts, total = stratum_counts(cfg)
    assert total == 1
    assert counts == {StratumLabel(2, 2, "id"): 1}


def _coordinate_scan(cfg):
    """Reference members: every (isotropic) coordinate subspace over the
    working field that is rational over GF(q^k) and passes ``member``."""
    sp = cfg.build_space()
    iso = cfg.case in ("Z", "Y")
    return {U.rows for U in spc.enumerate_subspaces(sp, cfg.member_dim, isotropic_only=iso)
            if spc.apply_phi(U, cfg.k).rows == U.rows and member(cfg, U)}


def test_fast_path_matches_generic_enumeration():
    # k = 2 (one Krylov step) and k = 3 (up to two, and for the non-split
    # form a GF(q^3)-rational complement inside GF(q^6) coordinates)
    for cfg in (cfg_z(4, 2), cfg_y(5, 2, 0, -1), cfg_y(6, 4, 2, 1), cfg_zy(6, 2, 0),
                cfg_z(4, 0, k=3), cfg_z(4, 2, k=3), cfg_zy(6, 2, 0, k=3),
                cfg_y(4, 2, 0, -1, k=3), cfg_y(4, 4, 2, 1, k=3)):
        fast = [u.rows for u in enumerate_members(cfg)]
        assert len(fast) == len(set(fast)), cfg.describe()
        assert set(fast) == _coordinate_scan(cfg), cfg.describe()


def test_nonsplit_quadric_points_at_odd_k():
    # members of Y n6 h4 t2 are the isotropic lines of the non-split
    # 4-space; over GF(27) the elliptic quadric has 27^2 + 1 points
    cfg = cfg_y(6, 4, 2, 1, k=3)
    assert cfg.member_dim == 1 and cfg.ambient_degree == 6
    assert sum(1 for _ in enumerate_members(cfg)) == 27**2 + 1


def test_rational_form_basis_is_fixed_beyond_degree_two():
    # over GF(729) the twisted Frobenius has order 6, so v + Phi(v) is not
    # fixed; the trace over the whole orbit is
    sp = spc.FormedSpace(FieldCtx(3, 1, 6), "symmetric-even-nonsplit", 4)
    basis = strata.rational_form_basis(sp)
    assert len(basis) == 4
    assert all(spc._phi_vector(sp, v) == v for v in basis)
    lines = {U.rows for U in strata.rational_subspaces(sp, 1, True)}
    assert len(lines) == 3**2 + 1
    assert all(spc.apply_phi(spc.Subspace.from_rows(sp, rows)).rows == rows for rows in lines)


def test_phi_equivariance_of_labels():
    cfg = cfg_z(4, 2)
    for i, U in enumerate(enumerate_members(cfg)):
        if i % 17:
            continue
        l1, _ = classify_flag(cfg, U)
        l2, _ = classify_flag(cfg, spc.apply_phi(U))
        assert l1 == l2


def test_kr_class_matches_label_fiber():
    cfg = cfg_z(6, 4)
    for i, U in enumerate(enumerate_members(cfg)):
        if i % 97:
            continue
        label, _ = classify_flag(cfg, U)
        kr = kr_class(cfg, U)
        if label.kind == "id":
            assert kr == "id"
        elif label.kind == "w" and label.s == cfg.hh:
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
        for U in enumerate_members(cfg):
            phiU = spc.apply_phi(U)
            if phiU.rows == U.rows:
                want = "id"
            else:
                want = "wprime" if spc.is_isotropic(spc.sum_spaces(U, phiU)) else "w"
            assert kr_class(cfg, U) == want, (cfg.describe(), U.rows)
            kinds.add((cfg.space_kind, want))
    assert {kind for _, kind in kinds} == {"id", "w", "wprime"}
    assert len({space for space, _ in kinds}) == 4


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


def test_component_sign():
    cfg = cfg_y(6, 6, 2, 1)
    sp = cfg.build_space()
    m = sp.dim // 2
    lref = spc.Subspace.from_rows(sp, [sp.e(i + 1) for i in range(m)])
    assert component_sign(cfg, lref) == "+"
    neighbor = spc.Subspace.from_rows(sp, [sp.e(1), sp.f(2)])
    assert component_sign(cfg, neighbor) == "-"
    with pytest.raises(ConfigError):
        component_sign(cfg, spc.Subspace.from_rows(sp, [sp.e(1)]))
    with pytest.raises(ConfigError):
        component_sign(cfg_z(4, 2), lref)


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


def test_top_closure_is_whole_index_set():
    for cfg in (cfg_z(6, 2), cfg_y(6, 4, 0, -1), cfg_y(6, 6, 0, 1),
                cfg_y(7, 4, 2, 1), cfg_zy(8, 4, 2)):
        top = top_label(cfg)
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


def test_verify_budget_inconclusive():
    rep = verify_decomposition(cfg_z(6, 2), budget=50)
    assert rep["checks"][0]["status"] == "inconclusive"


def test_nonsplit_ambient_degree():
    cfg = cfg_y(6, 4, 2, 1, k=1)
    assert cfg.ambient_degree == 2
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
