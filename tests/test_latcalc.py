import functools
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, reject, settings, strategies as st

from point_reference import lifts, side_window
from stratakit.gf import FieldCtx
from stratakit import latcalc as lc, report
from stratakit.linalg import gaussian_binomial
from stratakit.latcalc import (
    GuardError,
    HermSpace,
    Lattice,
    LatticeError,
    TruncRing,
    crucial_dichotomy,
    dual_sharp,
    index_in,
    lattice_eq,
    lattice_sum,
    mixed_gram,
    standard_lattice,
    tau_chain,
    tau_generator_set,
    vertex_type,
)

CTX9 = FieldCtx(3, 1, 2)
CTX3 = FieldCtx(3, 1, 1)


def ring9(N=8):
    return TruncRing(CTX9, N)


def elem(R, coeffs):
    """The ring element with the given low coefficients: the tuple cut
    after its last nonzero code."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def is_canonical(R, a):
    """A tuple of field codes no longer than the width, with no trailing
    zero: the one form of a ring element."""
    return (type(a) is tuple and len(a) <= R.width and (not a or a[-1] != 0)
            and all(0 <= x < R.ctx.size for x in a))


def id_space(ring, n, tau_index=0):
    return HermSpace.build(ring, mixed_gram(ring, n, 0),
                           tau_generator_set(ring, n, 0)[tau_index])


def pi_block_space(ring, n, blocks, tau_index=0):
    H = mixed_gram(ring, n, blocks)
    return HermSpace.build(ring, H, tau_generator_set(ring, n, 0, H)[tau_index])


def test_ring_arithmetic():
    R = ring9()
    a = elem(R, [1, 2, 0, 1])
    b = elem(R, [2, 1])
    assert R.mul(a, b) == R.mul(b, a)
    assert R.mul(a, R.unit_inv(a)) == R.one
    assert R.add(a, R.neg(a)) == R.zero == R.sub_mul(R.mul(a, b), b, a) == ()
    assert R.dense(R.zero) == (0,) * R.width and R.dense(b) == (2, 1) + (0,) * (R.width - 2)
    assert R.conj(R.conj(a)) == a
    assert R.sigma(R.conj(a)) == R.conj(R.sigma(a))
    # pi^(2N) = 0
    assert R.mul(R.pi_pow(R.N), R.mul(R.pi_pow(R.N), R.pi_pow(1))) == R.zero
    with pytest.raises(GuardError):
        R.shift(R.one, R.width)


# the kernel's products skip zero terms and stop at the degrees; the
# reference walks every pair of the dense coefficient tuples
RINGS = [TruncRing(ctx, N) for ctx in (CTX3, CTX9) for N in (2, 3, 8)]
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def schoolbook_mul(R, a, b):
    """Dense reference product of two dense (``R.dense``) coefficient
    tuples: every coefficient pair below the width."""
    ctx = R.ctx
    out = [0] * R.width
    for i in range(R.width):
        for j in range(R.width - i):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a[i], b[j]))
    return tuple(out)


@st.composite
def ring_elements(draw, R, kind=None):
    """A zero, constant, monomial c pi^j or dense element of R (random
    codes at every power, cut after the last nonzero one)."""
    kind = kind or draw(st.sampled_from(("zero", "constant", "monomial", "dense")))
    q = R.ctx.size
    if kind == "zero":
        return R.zero
    if kind == "dense":
        return elem(R, draw(st.lists(st.integers(0, q - 1), min_size=R.width,
                                     max_size=R.width)))
    j = 0 if kind == "constant" else draw(st.integers(0, R.width - 1))
    c = draw(st.integers(1, q - 1))
    return (0,) * j + (c,)


rings = st.sampled_from(RINGS)


@PROPERTY
@given(st.data(), rings)
def test_mul_matches_schoolbook(data, R):
    a, b = data.draw(ring_elements(R)), data.draw(ring_elements(R))
    ab = R.mul(a, b)
    assert is_canonical(R, ab)
    assert R.dense(ab) == schoolbook_mul(R, R.dense(a), R.dense(b))


@PROPERTY
@given(st.data(), rings, st.sampled_from(("add_mul", "sub_mul")))
def test_fused_mul_matches_schoolbook(data, R, op):
    # half the accumulators are a drawn element minus what the op adds,
    # so that the top coefficients cancel
    acc, a, b = (data.draw(ring_elements(R)) for _ in range(3))
    if data.draw(st.booleans()):
        acc = R.add(acc, R.mul(a, b) if op == "sub_mul" else R.neg(R.mul(a, b)))
    ab = schoolbook_mul(R, R.dense(a), R.dense(b))
    if op == "sub_mul":
        ab = tuple(R.ctx.neg(y) for y in ab)
    out = getattr(R, op)(acc, a, b)
    assert is_canonical(R, out)
    assert R.dense(out) == tuple(R.ctx.add(x, y) for x, y in zip(R.dense(acc), ab))


@PROPERTY
@given(st.data(), rings)
def test_add_matches_coefficientwise(data, R):
    # b is drawn, or -a plus a drawn element of lower degree, so that the
    # top coefficients cancel
    a, b = data.draw(ring_elements(R)), data.draw(ring_elements(R))
    if data.draw(st.booleans()):
        b = R.add(R.neg(a), elem(R, b[: max(len(a) - 1, 0)]))
    out = R.add(a, b)
    assert is_canonical(R, out) and is_canonical(R, R.neg(a))
    assert R.dense(out) == tuple(R.ctx.add(x, y) for x, y in zip(R.dense(a), R.dense(b)))


@PROPERTY
@given(st.data(), rings, st.sampled_from(("constant", "dense")))
def test_unit_inverse(data, R, kind):
    a0 = data.draw(st.integers(1, R.ctx.size - 1))
    a = (a0,) + data.draw(ring_elements(R, kind))[1:]
    inv = R.unit_inv(a)
    assert is_canonical(R, inv)
    assert R.mul(a, inv) == R.one
    assert schoolbook_mul(R, R.dense(inv), R.dense(a)) == R.dense(R.one)
    with pytest.raises(LatticeError):
        R.unit_inv(elem(R, (0,) + a[1:]))


# GF(3), GF(9) as (3, 1, 2), GF(9) as (3, 2, 1) and GF(5), each at guards 2, 3, 5, 8
NEWTON_RINGS = [TruncRing(FieldCtx(*f), N) for f in ((3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1))
                for N in (2, 3, 5, 8)]


@pytest.mark.parametrize("R", NEWTON_RINGS, ids=lambda R: f"{R.ctx.p}-{R.ctx.e}-{R.ctx.k}-N{R.N}")
def test_newton_unit_inverse_on_random_units(R):
    # too few Newton steps leave the top coefficients wrong; the product
    # is taken by the dense reference, not by the ring's own kernel
    rng, q = random.Random(R.width * R.ctx.size), R.ctx.size
    units = [R.const(c) for c in range(1, q)] + [
        elem(R, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(R.width - 1)])
        for _ in range(300)]
    for a in units:
        assert schoolbook_mul(R, R.dense(a), R.dense(R.unit_inv(a))) == R.dense(R.one), a


def random_normal_form(R, rng, n):
    """(mat, pivs): lower triangular, diagonal pi^(a_i) with a_i at most
    the guard, and the entries left of the diagonal of degree below a_i."""
    pivs = [rng.randrange(R.N + 1) for _ in range(n)]
    mat = [[R.pi_pow(a) if j == i else R.zero if j > i else
            elem(R, [rng.randrange(R.ctx.size) for _ in range(a)])
            for j in range(n)] for i, a in enumerate(pivs)]
    return mat, pivs


@pytest.mark.parametrize("N", (2, 3, 5))
def test_triangular_inverse_on_random_normal_forms(N):
    # mat C = pi^shift I, and a shift past the largest pivot is the least:
    # C is not divisible by pi, so pi^(shift - 1) I is not in mat's span.
    # A guard trip is a least shift past the guard, as a ring whose guard
    # is past the valuation of det mat (at most 4N) shows; an element of
    # R is one of the wider ring as it stands
    R, wide = TruncRing(CTX9, N), TruncRing(CTX9, 4 * N)
    rng, seen = random.Random(N), Counter()
    for _ in range(200):
        n = rng.randint(1, 4)
        mat, pivs = random_normal_form(R, rng, n)
        try:
            shift, C = lc.triangular_inverse(R, mat, pivs)
        except GuardError:
            assert lc.triangular_inverse(wide, mat, pivs)[0] > N, mat
            seen["guard"] += 1
            continue
        assert lc.mat_mul(R, mat, C) == [[R.pi_pow(shift) if i == j else R.zero
                                          for j in range(n)] for i in range(n)], mat
        if shift > max(pivs):
            assert any(x and x[0] for row in C for x in row), mat
            seen["past_pivot"] += 1
    assert seen["guard"] and seen["past_pivot"], seen


# sha256 prefixes of the constant terms of tau_generator_set at seeds 0-9
# (a refused Gram's LatticeError message in place of its list), for each
# Gram of gram_family at n <= 4 and kappa = GF(3^s); recorded from the
# candidate lists before their builders were merged into one
TAU_GENERATOR_PINS = {
    "n1 b0 s1": "1331ae4f6d36d27a",
    "n2 b0 s1": "d0522cfd307b7542",
    "n2 b1 s1": "2fc3b2eadb7a2bef",
    "n3 b0 s1": "4a870bad49db01b4",
    "n3 b1 s1": "0609d7e7d3140eaf",
    "n4 b0 s1": "e344be9c291e57b1",
    "n4 b1 s1": "4b1cd7e3615f25eb",
    "n4 b2 s1": "fc98db4165a30186",
    "n1 b0 s2": "2e88ee90c4a2bb4f",
    "n2 b0 s2": "6b69554789cac9a3",
    "n2 b1 s2": "258c23fd322098f0",
    "n3 b0 s2": "d7c31f7e0d1d86ae",
    "n3 b1 s2": "933f07fc86b7387d",
    "n4 b0 s2": "63be46a1d901fe57",
    "n4 b1 s2": "a0a6f49736e93bfa",
    "n4 b2 s2": "dfca58017b8d9b74",
}


def test_tau_generator_set_is_pinned():
    got = {}
    for s in (1, 2):
        R = TruncRing(FieldCtx(3, 1, s), 2)
        for n in range(1, 5):
            for b, gram in enumerate(lc.gram_family(R, n)):
                lists = []
                for seed in range(10):
                    try:
                        mats = tau_generator_set(R, n, seed, gram)
                    except LatticeError as exc:
                        lists.append(str(exc))
                        continue
                    assert all(len(x) <= 1 for A in mats for row in A for x in row)
                    lists.append([[[R.dense(x)[0] for x in row] for row in A] for A in mats])
                digest = hashlib.sha256(json.dumps(lists).encode()).hexdigest()[:16]
                got[f"n{n} b{b} s{s}"] = digest
    assert got == TAU_GENERATOR_PINS


@PROPERTY
@given(st.data(), rings)
def test_ring_associativity_sampled(data, R):
    a, b, c = (data.draw(ring_elements(R)) for _ in range(3))
    assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
    assert R.conj(R.mul(a, b)) == R.mul(R.conj(a), R.conj(b))


@functools.cache
def herm_spaces(Ns):
    """Every space of gram_family x tau_generator_set (seeds 0-2) for
    n = 2..4 over GF(3) and GF(9) at the guards Ns."""
    out = []
    for ctx in (CTX3, CTX9):
        for N in Ns:
            R = TruncRing(ctx, N)
            for n in (2, 3, 4):
                for H in lc.gram_family(R, n):
                    for seed in (0, 1, 2):
                        out += [HermSpace.build(R, H, A)
                                for A in tau_generator_set(R, n, seed, H)]
    return out


@st.composite
def window_lattices(draw):
    """A space and a lattice of its standard window, the lift of drawn
    coefficient rows; a lift that trips the guard is rejected."""
    sp = draw(st.sampled_from(herm_spaces((2, 3, 8))))
    window = lc._standard_window(sp)
    row = st.lists(st.integers(0, sp.ring.ctx.size - 1), min_size=window.dim,
                   max_size=window.dim)
    try:
        return sp, window.lift(draw(st.lists(row, max_size=window.dim)))
    except GuardError:
        reject()


@st.composite
def generator_changes(draw, R, cols):
    """cols after drawn invertible column operations (swap, unit scale,
    adding a pi^j multiple of another column), plus at times a redundant
    generator."""
    cols = [list(c) for c in cols]
    n = len(cols)
    for _ in range(draw(st.integers(0, 6))):
        op, i = draw(st.sampled_from(("swap", "scale", "add"))), draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        j += j >= i
        if op == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        elif op == "scale":
            u = (draw(st.integers(1, R.ctx.size - 1)),) + draw(ring_elements(R))[1:]
            cols[i] = [R.mul(u, x) for x in cols[i]]
        else:
            c = R.mul(R.pi_pow(draw(st.integers(0, R.width - 1))), draw(ring_elements(R)))
            cols[i] = [R.add(x, R.mul(c, y)) for x, y in zip(cols[i], cols[j])]
    if draw(st.booleans()):
        extra = [R.zero] * len(cols[0])
        for col in cols:
            c = draw(ring_elements(R))
            extra = [R.add(x, R.mul(c, y)) for x, y in zip(extra, col)]
        cols.append(extra)
    return [tuple(c) for c in cols]


@PROPERTY
@given(st.data(), window_lattices())
def test_hnf_canonical_under_generator_changes(data, drawn):
    _, M = drawn
    cols = data.draw(generator_changes(M.ring, M.columns()))
    assert Lattice.from_columns(M.ring, cols, M.vfloor).key() == M.key()


def test_dual_examples():
    R = ring9()
    sp = id_space(R, 2)
    L0 = standard_lattice(R, 2)
    assert lattice_eq(dual_sharp(sp, L0), L0)
    piL = L0.scale(1)
    dual = dual_sharp(sp, piL)
    assert dual.vfloor == -1
    assert index_in(dual, piL) == 2 * 2  # full pi-shift has index 2n
    assert lattice_eq(dual_sharp(sp, dual), piL)
    assert vertex_type(sp, piL) is None  # fails the vertex sandwich


@PROPERTY
@given(window_lattices())
def test_double_dual_random(drawn):
    sp, M = drawn
    try:
        assert lattice_eq(dual_sharp(sp, dual_sharp(sp, M)), M)
    except GuardError:
        reject()


def test_vertex_types():
    R = ring9()
    sp = id_space(R, 2)
    assert vertex_type(sp, standard_lattice(R, 2)) == 0
    spb = pi_block_space(R, 2, 1)
    assert vertex_type(spb, standard_lattice(R, 2)) == 2  # pi-modular
    sp4 = pi_block_space(R, 4, 1)
    assert vertex_type(sp4, standard_lattice(R, 4)) == 2


def test_tau_chain_examples():
    R = ring9()
    sp = id_space(R, 2)  # identity tau: everything stable
    L0 = standard_lattice(R, 2)
    c, chain = tau_chain(sp, L0)
    assert c == 0 and len(chain) == 1
    # a rank-2 instance where tau moves one line: c = 1
    swap = tuple(tuple(R.const(1) if i + j == 1 else R.zero for j in range(2))
                 for i in range(2))
    sp2 = HermSpace.build(R, mixed_gram(R, 2, 0), swap)
    g = CTX9.gen_code
    col1 = (R.const(g), R.pi_pow(1))
    col2 = (R.zero, R.mul(R.pi_pow(1), R.pi_pow(0)))
    M = Lattice.from_columns(R, [col1, (R.zero, R.pi_pow(1))])
    tM = sp2.tau(M)
    if not lattice_eq(lattice_sum(M, tM), M):
        c, chain = tau_chain(sp2, M)
        assert c >= 1
        assert all(index_in(chain[i + 1], chain[i]) == 1 for i in range(c))


def test_a_chain_lemma_breach_is_a_counterexample(monkeypatch, capsys):
    # the third tau-chain of the run takes a step of index n = 2: the
    # audit records it as an anomalous case with a replayable record, and
    # the report survives (exit 1, not the usage error 2)
    from stratakit.cli import main

    chain, calls = lc.tau_chain, []

    def breaking(space, M):
        calls.append(M)
        if len(calls) != 3:
            return chain(space, M)
        with monkeypatch.context() as m:
            m.setattr(HermSpace, "tau_step", lambda sp, L: L.scale(-1))
            return chain(space, M)

    monkeypatch.setattr(lc, "tau_chain", breaking)
    assert main(["latcalc", "dichotomy", "--n", "2", "--s", "2", "--exhaustive"]) == 1
    stable = json.loads(capsys.readouterr().out)["stable"]
    counts = {c["label"]: c["count"] for c in stable["counts"]}
    assert counts["anomalous"] == 1 and counts["inconclusive"] == 0
    status = {c["name"]: c["status"] for c in stable["checks"]}
    assert status["no_anomalous_cases"] == status["no_counterexamples"] == "fail"
    found = next(c for c in stable["checks"] if c["name"] == "no_counterexamples")
    [record] = found["witness"]
    assert record["result"] == "chain step has index > 1 (hypothesis violated)"
    R = TruncRing(FieldCtx(3, 1, 2), 8)
    assert all(len(x) == R.width for key in ("gram", "tau", "lattice")
               for row in record[key] for x in row)
    lattice = Lattice(R, 2, record["vfloor"],
                      tuple(tuple(elem(R, x) for x in r) for r in record["lattice"]))
    assert lattice.key() == calls[2].key()


def test_dichotomy_worst_point_is_both():
    R = ring9()
    sp = pi_block_space(R, 2, 1)
    lam = standard_lattice(R, 2)  # tau-stable vertex lattice of type 2 = h
    res = crucial_dichotomy(sp, lam)
    assert res["case"] == "Both"
    assert res["c"] == res["d"] == 0
    assert res["verified"]


def test_dichotomy_audit_fails_on_a_refused_link(monkeypatch, capsys):
    # a contains that refuses each lattice's inclusion in its own dual
    # breaks one link of either chain (lam <= lam# in case Y, M <= M# in
    # case Z), so every audit fails on its containments alone
    from stratakit.cli import main

    real_dual, real_contains = lc.dual_sharp, lc.contains
    dual_pairs = set()

    def recording_dual(space, L):
        D = real_dual(space, L)
        dual_pairs.add((D.key(), L.key()))
        return D

    def refusing(big, small):
        return (big.key(), small.key()) not in dual_pairs and real_contains(big, small)

    monkeypatch.setattr(lc, "dual_sharp", recording_dual)
    monkeypatch.setattr(lc, "contains", refusing)
    R = ring9()
    res = crucial_dichotomy(pi_block_space(R, 2, 1), standard_lattice(R, 2))
    assert not res["verified"]
    assert [(a["type"], a["ok"]) for a in res["audits"].values()] == [(2, False)]

    assert main(["latcalc", "dichotomy", "--n", "2", "--s", "2", "--exhaustive"]) == 1
    checks = json.loads(capsys.readouterr().out)["stable"]["checks"]
    found = next(c for c in checks if c["name"] == "no_counterexamples")
    assert found["status"] == "fail" and found["witness"]
    for record in found["witness"]:
        assert set(record) == {"gram", "tau", "lattice", "vfloor", "result"}
        assert record["result"]["verified"] is False
        # dense coefficient lists of width 2N = 16
        assert {len(x) for key in ("gram", "tau", "lattice") for row in record[key]
                for x in row} == {16}


def test_exhaustive_dichotomy_small():
    for s in (1, 2):
        stats = lc.exhaustive_dichotomy(3, 1, s, n=2, N=6)
        assert not stats["counterexamples"]
        assert stats["anomalous"] == 0
        assert stats["same_index_failures"] == 0
        audited = stats["case_Y"] + stats["case_Z"] + stats["case_Both"]
        assert audited > 0
        assert stats["inconclusive"] == 0


def test_random_dichotomy_n3():
    stats = lc.dichotomy_trials(3, 1, 2, n=3, trials=150, seed=5)
    assert not stats["counterexamples"]
    assert stats["anomalous"] == 0
    audited = stats["case_Y"] + stats["case_Z"] + stats["case_Both"]
    assert audited > 0
    denom = audited + stats["inconclusive"]
    assert stats["inconclusive"] / max(1, denom) < 0.05


def residue_forms(space, lam):
    """(alternating Gram on lam#/lam, the residue of pi h; symmetric Gram
    on lam/pi lam#, the residue of h)."""
    lam_s = dual_sharp(space, lam)
    return side_window(lam, lam_s, "Z").form(space, 1), side_window(lam, lam_s, "Y").form(space, 0)


def test_induced_forms_type0_and_pi_modular():
    R = ring9()
    sp = id_space(R, 2)
    g1, g2 = residue_forms(sp, standard_lattice(R, 2))
    assert len(g1) == 0 and len(g2) == 2  # type 0: no alternating part
    spb = pi_block_space(R, 2, 1)
    g1, g2 = residue_forms(spb, standard_lattice(R, 2))
    assert len(g1) == 2 and len(g2) == 0  # pi-modular: no symmetric part


def test_induced_forms_mixed_type2_rank4():
    R = ring9()
    sp = pi_block_space(R, 4, 1)
    g1, g2 = residue_forms(sp, standard_lattice(R, 4))
    assert len(g1) == 2 and len(g2) == 2
    ctx = R.ctx
    assert g1[0][0] == 0 and g1[0][1] == ctx.neg(g1[1][0]) != 0
    assert g2[0][1] == g2[1][0]


def test_enumerate_between_counts():
    R = TruncRing(CTX3, 6)
    sp = pi_block_space(R, 2, 1)
    lam = standard_lattice(R, 2)
    lam_s = dual_sharp(sp, lam)
    singleton = list(lifts(lc._Window(lam, lam)))
    assert len(singleton) == 1 and lattice_eq(singleton[0], lam)
    # between pi lam-sharp and lam-sharp: all subspaces of a 2-dim residue
    # space over F_3: 1 + 4 + 1
    window = list(lifts(lc._Window(lam_s.scale(1), lam_s)))
    assert len(window) == 6


def test_quotient_basis_dimension():
    R = ring9()
    L0 = standard_lattice(R, 3)
    window = lc._Window(L0.scale(1), L0)
    assert len(window.vecs) == window.dim == 3 and window.vfloor == 0


def _window_pairs():
    """(bot, top), once each: the standard window [pi L0#, L0#] of every
    space of herm_spaces((2, 8)), and both windows [lam, lam#], [pi lam#,
    lam] of every catalog lattice of the inclusion configurations of
    acceptance criterion 8."""
    pairs = {}
    for sp in herm_spaces((2, 8)):
        top = dual_sharp(sp, standard_lattice(sp.ring, sp.n))
        pairs[sp.ring.ctx.size, sp.ring.N, top.key()] = (top.scale(1), top)
    for n, s in ((2, 2), (3, 2), (4, 1)):
        R = TruncRing(FieldCtx(3, 1, s), 8)
        sp = HermSpace.build(R, mixed_gram(R, n, 0), tau_generator_set(R, n, 0)[1])
        for lam in lc.vertex_lattices_in_window(sp):
            lam_s = dual_sharp(sp, lam)
            for bot, top in ((lam, lam_s), (lam_s.scale(1), lam)):
                pairs[R.ctx.size, R.N, bot.key(), top.key()] = (bot, top)
    return list(pairs.values())


def test_quotient_basis_lifts_a_residue_basis():
    # the vectors complete bot to top, one per unit of index, so the
    # window's lattices are the distinct lifts of the residue subspaces
    pairs = _window_pairs()
    assert len(pairs) > 50
    for bot, top in pairs:
        R = top.ring
        window = lc._Window(bot, top)
        vecs, floor, dim = window.vecs, window.vfloor, window.dim
        assert floor == top.vfloor and dim == len(vecs) == index_in(top, bot)
        bot_cols = [tuple(R.shift(x, bot.vfloor - floor) for x in c) for c in bot.columns()]
        assert lattice_eq(Lattice.from_columns(R, bot_cols + vecs, floor), top)
        keys = [L.key() for L in lifts(window)]
        assert len(set(keys)) == len(keys) == sum(
            gaussian_binomial(dim, d, R.ctx.size) for d in range(dim + 1))


def test_standard_window_basis_is_the_dual_basis():
    # the seeded draws lift through L0#'s own columns, in order
    for sp in herm_spaces((2, 3, 8)):
        window = lc._standard_window(sp)
        top = window.top
        assert (window.vecs, window.vfloor) == (top.columns(), top.vfloor)


def test_quotient_basis_rejects_wide_and_uncontained_pairs():
    R = ring9()
    L0 = standard_lattice(R, 2)
    # pi^2 L0 and (pi^2, 0), (0, 1): an elementary divisor pi^2
    wide = [L0.scale(2), Lattice.from_columns(R, [(R.pi_pow(2), R.zero), (R.zero, R.one)])]
    for small in wide:
        with pytest.raises(LatticeError, match="not pi-elementary"):
            lc._Window(small, L0)
    with pytest.raises(LatticeError, match="not contained"):
        lc._Window(L0, L0.scale(1))


def test_inclusion_reports():
    for (n, h, s) in [(2, 0, 2), (2, 2, 2), (3, 2, 2)]:
        rep = lc.inclusion_report(3, 1, s, n=n, h=h)
        bad = [c for c in rep["checks"] if c["status"] != "pass"]
        assert not bad, (n, h, s, bad)


@pytest.mark.parametrize("seed,exit_code,types", [(5, 0, {0: 1, 2: 16, 4: 8}),
                                                  (0, 1, {0: 1, 2: 1, 4: 2})])
def test_inclusions_n4_h4_at_the_smallest_guard(seed, exit_code, types):
    # `latcalc inclusions --n 4 --h 4 --bign 2`.  Seed 5 passes every
    # bullet.  Seed 0 keeps failing the Y bullet between its type-0 and a
    # type-2 lattice: its tau has N(A) = A sigma(A) != 1, the open question
    # of ROADMAP item 2, which this test records and does not decide
    rep = lc.inclusion_report(3, 1, 2, 4, 4, seed, N=2)
    assert {int(c["label"][5:]): c["count"] for c in rep["counts"]} == types
    assert report.exit_code(report.make_report(rep["config"], rep["counts"], rep["checks"])) == exit_code
    failed = {c["name"]: c.get("witness") for c in rep["checks"] if c["status"] != "pass"}
    assert failed == ({} if exit_code == 0 else {"y_inclusion_iff_lattice_inclusion": [(0, 2)]})


def test_guard_trips_are_loud():
    R = TruncRing(CTX3, 2)
    sp = id_space(R, 2)
    L = standard_lattice(R, 2)
    with pytest.raises(GuardError):
        L.scale(5)


def test_tau_axioms_on_vectors():
    # sigma-semilinearity and compatibility with the hermitian form,
    # sampled over random vectors for every generator; the form, read off
    # the Gram of the basis (x, y), against the direct sum of
    # conj(x_i) H_ij y_j
    R = ring9(6)
    rng = random.Random(7)

    def herm(sp, x, y):
        return lc._basis_gram(sp, lc._from_columns([x, y]))[0][1]

    def direct_herm(H, x, y):
        """The dense coefficients of the form."""
        acc = R.dense(R.zero)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                term = schoolbook_mul(R, schoolbook_mul(R, R.dense(R.conj(xi)), R.dense(H[i][j])),
                                      R.dense(yj))
                acc = tuple(R.ctx.add(u, v) for u, v in zip(acc, term))
        return acc

    for H in (mixed_gram(R, 3, 0), mixed_gram(R, 3, 1)):
        for A in tau_generator_set(R, 3, 0, H):
            sp = HermSpace.build(R, H, A)
            for _ in range(6):
                x = [elem(R, [rng.randrange(9) for _ in range(4)]) for _ in range(3)]
                y = [elem(R, [rng.randrange(9) for _ in range(4)]) for _ in range(3)]
                c = elem(R, [rng.randrange(9) for _ in range(3)])
                assert R.dense(herm(sp, x, y)) == direct_herm(H, x, y)
                assert herm(sp, sp.tau_vec(x), sp.tau_vec(y)) == R.sigma(herm(sp, x, y))
                cx = [R.mul(c, xi) for xi in x]
                assert sp.tau_vec(cx) == [R.mul(R.sigma(c), t) for t in sp.tau_vec(x)]


def test_standard_lattice_inside_its_dual():
    # every Gram entry is integral, so L0 <= L0-sharp and the standard
    # window [pi L0-sharp, L0-sharp] needs no fallback
    spaces = herm_spaces((2, 8))
    for sp in spaces:
        L0 = standard_lattice(sp.ring, sp.n)
        assert lc.contains(dual_sharp(sp, L0), L0)
    assert len(spaces) > 300


def test_rejects_non_unitary_tau():
    R = ring9(6)
    g = CTX9.gen_code  # g^2 != 1, so g I is not orthogonal
    bad = tuple(tuple(R.const(g) if i == j else R.zero for j in range(2))
                for i in range(2))
    with pytest.raises(LatticeError):
        HermSpace.build(R, mixed_gram(R, 2, 0), bad)


@pytest.mark.parametrize("entry", [(0,), (1, 0), (0, 0, 0, 0, 1), (9,), (2, -1)],
                         ids=["zero-code", "trailing-zero", "past-width", "code-9", "negative"])
@pytest.mark.parametrize("which", ["gram", "tau"])
def test_build_refuses_non_canonical_entries(which, entry):
    # an entry outside the canonical form would compare unequal to the
    # same ring element, so the entry point refuses it before any check
    R = ring9(2)  # width 4 over GF(9)
    H, A = mixed_gram(R, 2, 0), tau_generator_set(R, 2, 0)[0]
    HermSpace.build(R, H, A)
    M = [list(row) for row in (H if which == "gram" else A)]
    M[1][0] = entry
    args = (M, A) if which == "gram" else (H, M)
    with pytest.raises(LatticeError, match="canonical form"):
        HermSpace.build(R, *args)


RING_OPS = ("const", "pi_pow", "add", "neg", "mul", "add_mul", "sub_mul", "_mul_into",
            "conj", "sigma", "unit_inv", "shift")


def test_ring_ops_return_canonical_elements(monkeypatch, capsys):
    # every element a ring op returns in one lattice command has no
    # trailing zero and fits the width, so tuple equality and truthiness
    # are ring equality and the zero test
    from stratakit.cli import main

    seen = Counter()
    for name in RING_OPS:
        def recording(self, *args, _op=getattr(TruncRing, name), _name=name):
            out = _op(self, *args)
            assert is_canonical(self, out), (_name, args, out)
            seen[_name, len(out)] += 1
            return out

        monkeypatch.setattr(TruncRing, name, recording)
    assert main(["latcalc", "dichotomy", "--n", "2", "--s", "2", "--exhaustive"]) == 0
    capsys.readouterr()
    # the run meets zeros, constants and longer elements
    lengths = Counter()
    for (_, length), count in seen.items():
        lengths[min(length, 2)] += count
    assert lengths[0] and lengths[1] and lengths[2], seen


def _without_counterexamples(stats):
    return {k: v for k, v in stats.items() if k != "counterexamples"}


@pytest.mark.parametrize("audit", [
    lambda N: lc.exhaustive_dichotomy(3, 1, 1, n=2, N=N),
    lambda N: lc.exhaustive_dichotomy(3, 1, 2, n=2, N=N),
    lambda N: lc.dichotomy_trials(3, 1, 2, 3, 150, seed=5, N=N),
], ids=["exhaustive-s1", "exhaustive-s2", "trials-n3"])
def test_dichotomy_stats_independent_of_truncation(audit):
    # a guard N that no valuation reaches is invisible in the statistics;
    # counterexample records carry width-2N coefficient tuples
    assert _without_counterexamples(audit(6)) == _without_counterexamples(audit(8))


@pytest.mark.parametrize("n,h,s", [(2, 0, 2), (2, 2, 2), (3, 2, 2)])
def test_inclusion_report_independent_of_truncation(n, h, s):
    reports = [lc.inclusion_report(3, 1, s, n=n, h=h, N=N) for N in (6, 8)]
    for rep in reports:
        assert rep.pop("config")["N"] in (6, 8)
    assert reports[0] == reports[1]


def _assert_each_lattice_computed_once(monkeypatch, audit):
    """Run the audit counting, per space, the audit scopes opened, the
    memoized dual, tau, tau-step and vertex-type bodies run, keyed by (op,
    vfloor, basis), and the memo lookups."""
    opened, runs, asked = Counter(), Counter(), Counter()
    open_scope, memoized = HermSpace.audit_scope, HermSpace._memoized

    def audit_scope(self):
        opened[self] += 1
        return open_scope(self)

    def looked_up(self, op, compute, L):
        if self.memo is None:
            return memoized(self, op, compute, L)
        asked[op] += 1

        def counted(space, L):
            runs[space, op, L.vfloor, L.basis] += 1
            return compute(space, L)

        return memoized(self, op, counted, L)

    monkeypatch.setattr(HermSpace, "audit_scope", audit_scope)
    monkeypatch.setattr(HermSpace, "_memoized", looked_up)
    audit()
    # one memo per space for the whole run, and in it each (op, lattice)
    # is computed at most once
    assert opened and set(opened.values()) == {1}
    assert runs and set(runs.values()) == {1}
    computed = Counter(op for _, op, _, _ in runs)
    assert set(computed) == {"dual", "tau", "step", "type"}
    # the memo is what saves the work: each op is asked for more often
    assert all(asked[op] > computed[op] for op in computed)


def test_audit_computes_each_lattice_once(monkeypatch):
    _assert_each_lattice_computed_once(
        monkeypatch, lambda: lc.dichotomy_trials(3, 1, 2, 3, 200, seed=0))


def test_exhaustive_audit_computes_each_lattice_once(monkeypatch):
    _assert_each_lattice_computed_once(
        monkeypatch, lambda: lc.exhaustive_dichotomy(3, 1, 2, n=2))


def test_a_raising_audit_closes_every_memo(monkeypatch):
    built = []
    build = HermSpace.build

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    def refusing(space, M):
        raise LatticeError("forced")

    monkeypatch.setattr(HermSpace, "build", staticmethod(recording))
    monkeypatch.setattr(lc, "crucial_dichotomy", refusing)
    for audit in (lambda: lc.dichotomy_trials(3, 1, 2, 3, 50, seed=0),
                  lambda: lc.exhaustive_dichotomy(3, 1, 2, n=2)):
        with pytest.raises(LatticeError):
            audit()
    assert built and all(sp.memo is None for sp in built)


def fresh_dichotomy_trials(p, e, s, n, trials, seed=0, N=8):
    """Reference for :func:`lc.dichotomy_trials`: the same draws, each
    lifted and audited afresh with no memo and no reuse of outcomes."""
    rng = random.Random(seed)
    ring = TruncRing(FieldCtx(p, e, s), N)
    spaces = [HermSpace.build(ring, H, A) for H in lc.gram_family(ring, n)
              for A in tau_generator_set(ring, n, seed, H)]
    windows = [lc._standard_window(sp) for sp in spaces]
    stats = dict.fromkeys(("trials", "hypothesis_rejected", "case_Y", "case_Z", "case_Both",
                           "anomalous", "inconclusive", "same_index_failures"), 0)
    stats["counterexamples"] = []
    for _ in range(trials):
        i = rng.randrange(len(spaces))
        space, window = spaces[i], windows[i]
        stats["trials"] += 1
        try:
            d = rng.randrange(0, window.dim + 1)
            M = window.lift([[rng.randrange(ring.ctx.size) for _ in range(window.dim)]
                             for _ in range(d)])
            if not lc.check_hypotheses(space, M):
                stats["hypothesis_rejected"] += 1
                continue
            if not lc.same_index_lemma_holds(space, M):
                stats["same_index_failures"] += 1
            res = lc.crucial_dichotomy(space, M)
        except GuardError:
            stats["inconclusive"] += 1
            continue
        stats[{"Y": "case_Y", "Z": "case_Z", "Both": "case_Both"}.get(res["case"], "anomalous")] += 1
        if not res["verified"]:
            stats["counterexamples"].append({
                "gram": [[list(ring.dense(x)) for x in row] for row in space.gram],
                "tau": [[list(ring.dense(x)) for x in row] for row in space.tau_matrix],
                "lattice": [[list(ring.dense(x)) for x in row] for row in M.basis],
                "vfloor": M.vfloor,
                "result": {k: v for k, v in res.items() if k != "audits"},
            })
    return stats


REUSE_RUNS = [(3, 2, 300, 0, 8), (3, 2, 300, 1, 3), (2, 2, 200, 3, 2), (4, 1, 150, 7, 8)]


@pytest.mark.parametrize("n,s,trials,seed,N", REUSE_RUNS)
def test_reused_outcomes_equal_fresh_audits(n, s, trials, seed, N):
    stats = lc.dichotomy_trials(3, 1, s, n, trials, seed=seed, N=N)
    assert stats == fresh_dichotomy_trials(3, 1, s, n, trials, seed=seed, N=N)


def test_reused_counterexamples_are_one_record_per_trial(monkeypatch):
    # the refused link of test_dichotomy_audit_fails_on_a_refused_link:
    # every decided audit fails, repeated draws included
    real_dual, real_contains = lc.dual_sharp, lc.contains
    dual_pairs = set()

    def recording_dual(space, L):
        D = real_dual(space, L)
        dual_pairs.add((D.key(), L.key()))
        return D

    def refusing(big, small):
        return (big.key(), small.key()) not in dual_pairs and real_contains(big, small)

    monkeypatch.setattr(lc, "dual_sharp", recording_dual)
    monkeypatch.setattr(lc, "contains", refusing)
    stats = lc.dichotomy_trials(3, 1, 2, 2, 120, seed=0)
    decided = sum(stats[k] for k in ("case_Y", "case_Z", "case_Both", "anomalous"))
    assert decided and len(stats["counterexamples"]) == decided
    # fewer distinct lattices than trials: some records are reused
    distinct = {json.dumps(r, sort_keys=True) for r in stats["counterexamples"]}
    assert len(distinct) < decided
    assert stats == fresh_dichotomy_trials(3, 1, 2, 2, 120, seed=0)


def test_reused_guard_trips_stay_inconclusive(monkeypatch):
    # the dual trips the guard on every lattice of odd det valuation (not
    # on the standard lattice, so the windows still build); a trip stores
    # nothing in the memo, and a repeated draw is inconclusive again
    body = lc._dual_sharp

    def tripping(space, L):
        if L.det_valuation() % 2:
            raise GuardError("forced trip")
        return body(space, L)

    monkeypatch.setattr(lc, "_dual_sharp", tripping)
    stats = lc.dichotomy_trials(3, 1, 2, 3, 300, seed=0)
    assert stats["inconclusive"] and stats["case_Y"] + stats["case_Z"] + stats["case_Both"]
    assert stats == fresh_dichotomy_trials(3, 1, 2, 3, 300, seed=0)


def test_memoized_results_equal_fresh_computations(monkeypatch):
    served = []
    memoized = HermSpace._memoized

    def recording(self, op, compute, L):
        out = memoized(self, op, compute, L)
        if self.memo is not None:
            served.append((self, compute, L, out))
        return out

    monkeypatch.setattr(HermSpace, "_memoized", recording)
    lc.dichotomy_trials(3, 1, 2, 3, 50, seed=0)
    assert served
    for space, compute, L, out in served:
        assert space.memo is None
        assert compute(space, L) == out


def test_no_space_keeps_a_memo_after_the_audits(monkeypatch):
    built = []
    build = HermSpace.build

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(HermSpace, "build", staticmethod(recording))
    lc.dichotomy_trials(3, 1, 2, 3, 50, seed=0)
    lc.inclusion_report(3, 1, 2, n=2, h=2)
    assert built and all(sp.memo is None for sp in built)


def test_a_none_vertex_type_is_memoized(monkeypatch):
    # a lattice outside the vertex sandwich is typed None, and the memo
    # serves that None as it serves a type
    calls = []
    body = lc._vertex_type

    def counted(space, L):
        calls.append(L)
        return body(space, L)

    monkeypatch.setattr(lc, "_vertex_type", counted)
    sp, L0 = id_space(ring9(), 2), standard_lattice(ring9(), 2)
    with sp.audit_scope():
        for _ in range(3):
            assert vertex_type(sp, L0.scale(1)) is None
            assert vertex_type(sp, L0) == 0
    assert calls == [L0.scale(1), L0]
    vertex_type(sp, L0)  # no scope, no memo
    assert len(calls) == 3


def test_guard_trip_is_not_memoized(monkeypatch):
    calls = []

    def tripping(space, L):
        calls.append(L)
        raise GuardError("forced trip")

    monkeypatch.setattr(lc, "_dual_sharp", tripping)
    sp, L0 = id_space(ring9(), 2), standard_lattice(ring9(), 2)
    with sp.audit_scope():
        for _ in range(2):
            with pytest.raises(GuardError):
                dual_sharp(sp, L0)
        assert len(calls) == 2 and sp.memo == {}
    assert sp.memo is None
    with pytest.raises(GuardError):
        with sp.audit_scope():
            dual_sharp(sp, L0)
    assert sp.memo is None
