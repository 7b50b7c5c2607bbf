import random

import pytest

from stratakit.gf import FieldCtx
from stratakit import latcalc as lc
from stratakit.latcalc import (
    GuardError,
    HermSpace,
    Lattice,
    LatticeError,
    TruncRing,
    crucial_dichotomy,
    dual_sharp,
    enumerate_between,
    identity_gram,
    index_in,
    induced_forms,
    lattice_eq,
    lattice_sum,
    mixed_gram,
    quotient_basis,
    standard_lattice,
    tau_chain,
    tau_generator_set,
    vertex_type,
)

CTX9 = FieldCtx(3, 1, 2)
CTX3 = FieldCtx(3, 1, 1)


def ring9(N=8):
    return TruncRing(CTX9, N)


def id_space(ring, n, tau_index=0):
    return HermSpace.build(ring, identity_gram(ring, n),
                           tau_generator_set(ring, n, 0)[tau_index])


def pi_block_space(ring, n, blocks, tau_index=0):
    H = mixed_gram(ring, n, blocks)
    return HermSpace.build(ring, H, tau_generator_set(ring, n, 0, H)[tau_index])


def test_ring_arithmetic():
    R = ring9()
    a = R.elem([1, 2, 0, 1])
    b = R.elem([2, 1])
    assert R.mul(a, b) == R.mul(b, a)
    assert R.mul(a, R.unit_inv(a)) == R.one
    assert R.conj(R.conj(a)) == a
    assert R.sigma(R.conj(a)) == R.conj(R.sigma(a))
    # pi^(2N) = 0
    assert R.mul(R.pi_pow(R.N), R.mul(R.pi_pow(R.N), R.pi_pow(1))) == R.zero
    with pytest.raises(GuardError):
        R.shift(R.one, R.width)


def test_ring_associativity_sampled():
    R = TruncRing(CTX3, 3)
    rng = random.Random(0)
    for _ in range(60):
        a = R.elem([rng.randrange(3) for _ in range(R.width)])
        b = R.elem([rng.randrange(3) for _ in range(R.width)])
        c = R.elem([rng.randrange(3) for _ in range(R.width)])
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.conj(R.mul(a, b)) == R.mul(R.conj(a), R.conj(b))


def test_hnf_canonical_under_generator_changes():
    R = ring9()
    rng = random.Random(1)
    for _ in range(15):
        cols = []
        for _ in range(3):
            col = tuple(R.elem([rng.randrange(9) for _ in range(4)]) for _ in range(3))
            cols.append(col)
        try:
            L = Lattice.from_columns(R, cols)
        except LatticeError:
            continue
        # scramble: column ops (swap, add pi-multiple of another column)
        mixed = [list(c) for c in cols]
        mixed[0], mixed[2] = mixed[2], mixed[0]
        f = R.pi_pow(1)
        mixed[1] = [R.add(x, R.mul(f, y)) for x, y in zip(mixed[1], mixed[0])]
        L2 = Lattice.from_columns(R, [tuple(c) for c in mixed])
        assert L.key() == L2.key()


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


def test_double_dual_random():
    R = ring9()
    sp = id_space(R, 3, tau_index=1)
    rng = random.Random(2)
    window = lc._standard_window(sp)
    for _ in range(10):
        M = lc.random_instance(window, rng)
        assert lattice_eq(dual_sharp(sp, dual_sharp(sp, M)), M)


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
    sp2 = HermSpace.build(R, identity_gram(R, 2), swap)
    g = CTX9.gen_code
    col1 = (R.const(g), R.pi_pow(1))
    col2 = (R.zero, R.mul(R.pi_pow(1), R.pi_pow(0)))
    M = Lattice.from_columns(R, [col1, (R.zero, R.pi_pow(1))])
    tM = sp2.tau(M)
    if not lattice_eq(lattice_sum(M, tM), M):
        c, chain = tau_chain(sp2, M)
        assert c >= 1
        assert all(index_in(chain[i + 1], chain[i]) == 1 for i in range(c))


def test_dichotomy_worst_point_is_both():
    R = ring9()
    sp = pi_block_space(R, 2, 1)
    lam = standard_lattice(R, 2)  # tau-stable vertex lattice of type 2 = h
    res = crucial_dichotomy(sp, lam)
    assert res["case"] == "Both"
    assert res["c"] == res["d"] == 0
    assert res["verified"]


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


def test_induced_forms_type0_and_pi_modular():
    R = ring9()
    sp = id_space(R, 2)
    g1, g2 = induced_forms(sp, standard_lattice(R, 2))
    assert len(g1) == 0 and len(g2) == 2  # type 0: no alternating part
    spb = pi_block_space(R, 2, 1)
    g1, g2 = induced_forms(spb, standard_lattice(R, 2))
    assert len(g1) == 2 and len(g2) == 0  # pi-modular: no symmetric part


def test_induced_forms_mixed_type2_rank4():
    R = ring9()
    sp = pi_block_space(R, 4, 1)
    g1, g2 = induced_forms(sp, standard_lattice(R, 4))
    assert len(g1) == 2 and len(g2) == 2
    ctx = R.ctx
    assert g1[0][0] == 0 and g1[0][1] == ctx.neg(g1[1][0])
    assert g2[0][1] == g2[1][0]


def test_enumerate_between_counts():
    R = TruncRing(CTX3, 6)
    sp = pi_block_space(R, 2, 1)
    lam = standard_lattice(R, 2)
    lam_s = dual_sharp(sp, lam)
    singleton = list(enumerate_between(sp, lam, lam))
    assert len(singleton) == 1 and lattice_eq(singleton[0], lam)
    # between pi lam-sharp and lam-sharp: all subspaces of a 2-dim residue
    # space over F_3: 1 + 4 + 1
    window = list(enumerate_between(sp, lam_s.scale(1), lam_s))
    assert len(window) == 6


def test_quotient_basis_dimension():
    R = ring9()
    sp = id_space(R, 3)
    L0 = standard_lattice(R, 3)
    vecs, floor = quotient_basis(sp, L0, L0.scale(1))
    assert len(vecs) == 3 and floor == 0


def test_inclusion_reports():
    for (n, h, s) in [(2, 0, 2), (2, 2, 2), (3, 2, 2)]:
        rep = lc.inclusion_report(3, 1, s, n=n, h=h)
        bad = [c for c in rep["checks"] if c["status"] != "pass"]
        assert not bad, (n, h, s, bad)


def test_guard_trips_are_loud():
    R = TruncRing(CTX3, 2)
    sp = id_space(R, 2)
    L = standard_lattice(R, 2)
    with pytest.raises(GuardError):
        L.scale(5)


def test_tau_axioms_on_vectors():
    # sigma-semilinearity and compatibility with the hermitian form,
    # sampled over random vectors for every generator
    R = ring9(6)
    rng = random.Random(7)
    for H in (identity_gram(R, 3), mixed_gram(R, 3, 1)):
        for A in tau_generator_set(R, 3, 0, H):
            sp = HermSpace.build(R, H, A)
            for _ in range(6):
                x = [R.elem([rng.randrange(9) for _ in range(4)]) for _ in range(3)]
                y = [R.elem([rng.randrange(9) for _ in range(4)]) for _ in range(3)]
                c = R.elem([rng.randrange(9) for _ in range(3)])
                assert sp.herm(sp.tau_vec(x), sp.tau_vec(y)) == R.sigma(sp.herm(x, y))
                cx = [R.mul(c, xi) for xi in x]
                assert sp.tau_vec(cx) == [R.mul(R.sigma(c), t) for t in sp.tau_vec(x)]


def test_standard_lattice_inside_its_dual():
    # every Gram entry is integral, so L0 <= L0-sharp and the standard
    # window [pi L0-sharp, L0-sharp] needs no fallback
    spaces = 0
    for s in (1, 2):
        for N in (2, 8):
            R = TruncRing(FieldCtx(3, 1, s), N)
            for n in (2, 3, 4):
                L0 = standard_lattice(R, n)
                for H in lc.gram_family(R, n):
                    for seed in (0, 1, 2):
                        for A in tau_generator_set(R, n, seed, H):
                            sp = HermSpace.build(R, H, A)
                            assert lc.contains(dual_sharp(sp, L0), L0)
                            spaces += 1
    assert spaces > 300


def test_rejects_non_unitary_tau():
    R = ring9(6)
    g = CTX9.gen_code  # g^2 != 1, so g I is not orthogonal
    bad = tuple(tuple(R.const(g) if i == j else R.zero for j in range(2))
                for i in range(2))
    with pytest.raises(LatticeError):
        HermSpace.build(R, identity_gram(R, 2), bad)


def test_is_zero_is_the_zero_tuple(monkeypatch, capsys):
    # every ring element reaching is_zero in one lattice command is a
    # width-length tuple, so tuple equality is the coefficientwise test
    from stratakit.cli import main

    fast = TruncRing.is_zero
    seen = []

    def recording(self, a):
        seen.append((self, a))
        return fast(self, a)

    monkeypatch.setattr(TruncRing, "is_zero", recording)
    assert main(["latcalc", "dichotomy", "--n", "2", "--s", "2", "--exhaustive"]) == 0
    capsys.readouterr()
    zero = sum(1 for _, a in seen if all(x == 0 for x in a))
    assert zero and zero < len(seen)
    for ring, a in seen:
        assert type(a) is tuple and len(a) == ring.width
        assert fast(ring, a) == all(x == 0 for x in a)
