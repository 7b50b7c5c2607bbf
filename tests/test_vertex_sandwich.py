"""The vertex sandwich pi L# <= L <= L# read off the Gram matrix, against
the route through the dual lattice, and the point sets built on it."""

import itertools
from collections import Counter

import pytest

from stratakit.gf import FieldCtx
from stratakit import latcalc as lc
from stratakit.linalg import row_spaces
from stratakit.latcalc import (
    GuardError,
    HermSpace,
    Lattice,
    TruncRing,
    contains,
    dual_sharp,
    index_in,
    mixed_gram,
    tau_generator_set,
    vertex_type,
)
from stratakit.space import BudgetExceeded


def dual_vertex_type(space, L):
    """Reference: the sandwich decided on the dual lattice itself."""
    Ls = dual_sharp(space, L)
    if not contains(Ls, L):
        return None
    if not contains(L, Ls.scale(1)):
        return None
    return index_in(Ls, L)


def outcome(route, space, L):
    try:
        return route(space, L)
    except GuardError:
        return "guard"


def sampled(window, stride):
    """Every stride-th lattice of the window, in enumeration order."""
    ctx, dim = window.ring.ctx, window.dim
    rows = (rows for d in range(dim + 1) for rows, _ in row_spaces(ctx, range(ctx.size), dim, d))
    return (window.lift(r) for r in itertools.islice(rows, 0, None, stride))


def windows(ring, n, gram, seeds):
    """(space, window) once each: the standard window, and for the catalog
    of tau-stable vertex lattices under the second generator of each seed,
    the windows [lam, lam#] and [pi lam#, lam] the point sets enumerate.
    The vertex type does not see tau, so windows repeated across seeds are
    kept once."""
    out = {}
    for seed in seeds:
        sp = HermSpace.build(ring, gram, tau_generator_set(ring, n, seed, gram)[1])
        std = lc._standard_window(sp)
        out.setdefault("standard", (sp, std))
        for lam in lc.vertex_lattices_in_window(sp):
            lam_s = dual_sharp(sp, lam)
            for bot, top in ((lam, lam_s), (lam_s.scale(1), lam)):
                out.setdefault((bot.key(), top.key()), (sp, lc._Window(bot, top)))
    return list(out.values())


@pytest.mark.parametrize("n,s", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_gram_route_matches_dual_route(n, s):
    # every lattice of every window, for every Gram of the family and the
    # tau generators of two seeds
    ring = TruncRing(FieldCtx(3, 1, s), 8)
    seen = Counter()
    for gram in lc.gram_family(ring, n):
        for sp, window in windows(ring, n, gram, (0, 5)):
            for M in window.lattices():
                want = outcome(dual_vertex_type, sp, M)
                assert outcome(vertex_type, sp, M) == want, (gram, M)
                seen[want] += 1
    assert seen[None] and any(isinstance(t, int) for t in seen), seen


@pytest.mark.slow
def test_gram_route_matches_dual_route_n4_kappa9(monkeypatch):
    # the ring of `latcalc inclusions --n 4 --h 4 --bign 2`: every 13th
    # lattice of each window at tau seeds 0 and 5.  At seed 5 the windows
    # above the type-4 catalog lattices hold floor -1 lattices whose dual
    # needs an inverse shift past the largest pivot; the Gram route
    # rejects each of them on a non-integral entry
    inverse = lc.triangular_inverse
    past_pivot = []

    def recording(R, mat, pivs):
        shift, C = inverse(R, mat, pivs)
        past_pivot.append(shift > max(pivs))
        return shift, C

    monkeypatch.setattr(lc, "triangular_inverse", recording)
    ring = TruncRing(FieldCtx(3, 1, 2), 2)
    seen = Counter()
    for sp, window in windows(ring, 4, mixed_gram(ring, 4, 0), (0, 5)):
        for M in sampled(window, 13):
            got = vertex_type(sp, M)
            past_pivot.clear()
            assert got == dual_vertex_type(sp, M), M
            if any(past_pivot):
                assert M.vfloor == -1 and got is None
                seen["past_pivot"] += 1
            seen[got] += 1
    assert seen["past_pivot"] and seen[None] and seen[4] and seen[2] and seen[0], seen


def test_triangular_inverse_shift_past_the_largest_pivot():
    R = TruncRing(FieldCtx(3, 1, 1), 8)
    pi, one = R.pi_pow(1), R.one
    mat = [[pi, R.zero], [one, pi]]
    shift, C = lc.triangular_inverse(R, mat, [1, 1])
    # [[pi, 0], [1, pi]]^-1 = pi^-2 [[pi, 0], [-1, pi]]
    assert shift == 2
    assert lc.mat_mul(R, mat, C) == [[R.pi_pow(2), R.zero], [R.zero, R.pi_pow(2)]]
    # pi^-4 is past the guard N = 2
    R2 = TruncRing(FieldCtx(3, 1, 1), 2)
    with pytest.raises(GuardError):
        lc.triangular_inverse(R2, [[R2.pi_pow(2), R2.zero], [R2.one, R2.pi_pow(2)]], [2, 2])


def test_residue_past_the_ring_width_is_a_guard_trip():
    # L0 written as pi^-N span(pi^N I): the Gram pi^(2N) I vanishes in the
    # ring, and its residue at pi^(2N) lies past the coefficient window
    R = TruncRing(FieldCtx(3, 1, 2), 2)
    sp = HermSpace.build(R, mixed_gram(R, 2, 0), tau_generator_set(R, 2, 0)[0])
    piN = R.pi_pow(R.N)
    L = Lattice(R, 2, -R.N, ((piN, R.zero), (R.zero, piN)))
    with pytest.raises(GuardError):
        vertex_type(sp, L)


def _inclusion_space(n, s):
    """The space and catalog of `latcalc inclusions` at seed 0, N = 8."""
    R = TruncRing(FieldCtx(3, 1, s), 8)
    sp = HermSpace.build(R, mixed_gram(R, n, 0), tau_generator_set(R, n, 0)[1])
    return sp, lc.vertex_lattices_in_window(sp)


@pytest.mark.parametrize("n,h,s", [(3, 2, 2), (4, 2, 1)])
def test_point_set_layer_equals_the_full_window_filter(monkeypatch, n, h, s):
    sp, catalog = _inclusion_space(n, s)
    lifts = []
    lift = lc._Window.lift

    def counted(window, rows):
        lifts.append(rows)
        return lift(window, rows)

    nonempty = 0
    for lam in catalog:
        t, lam_s = vertex_type(sp, lam), dual_sharp(sp, lam)
        pairs = ([(lam, lam_s)] if t >= h else []) + ([(lam_s.scale(1), lam)] if t <= h else [])
        for bot, top in pairs:
            every = list(lc._Window(bot, top).lattices())
            full = frozenset(M.key() for M in every if lc.n_point_conditions(sp, M, h))
            with monkeypatch.context() as m:
                m.setattr(lc._Window, "lift", counted)
                lifts.clear()
                assert lc._point_set(sp, bot, top, h, None) == full
            # only the layer of type h is lifted
            assert len(lifts) == sum(2 * M.det_valuation() + sp.det_val == h for M in every)
            nonempty += bool(full)
    assert nonempty


def full_window_catalogs(ring, gram, taus):
    """Reference for :func:`lc.vertex_lattices_in_window`: lift every
    lattice of the standard window and keep the tau-stable vertex
    lattices.  The window and the vertex types depend on the Gram alone,
    so they are computed once for all the tau matrices."""
    spaces = [HermSpace.build(ring, gram, A) for A in taus]
    sp = spaces[0]
    vertex = [L for L in lc._standard_window(sp).lattices() if vertex_type(sp, L) is not None]
    return [(sp, [L for L in vertex if lc.lattice_eq(sp.tau(L), L)]) for sp in spaces]


@pytest.mark.parametrize("n,s", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1),
                                 pytest.param(4, 2, marks=pytest.mark.slow)])
def test_catalog_equals_the_full_window_filter(n, s):
    # every Gram of the family with the tau generators of seeds 0-2
    ring = TruncRing(FieldCtx(3, 1, s), 8)
    found = Counter()
    for gram in lc.gram_family(ring, n):
        taus = list(dict.fromkeys(A for seed in range(3)
                                  for A in tau_generator_set(ring, n, seed, gram)))
        for sp, want in full_window_catalogs(ring, gram, taus):
            got = lc.vertex_lattices_in_window(sp)
            assert [L.key() for L in got] == [L.key() for L in want], (gram, sp.tau_matrix)
            found[bool(want)] += 1
    assert found[True], found


@pytest.mark.parametrize("n,s", [(2, 2), (3, 2), (4, 1), pytest.param(4, 2, marks=pytest.mark.slow)])
def test_catalog_lifts_only_tau_stable_subspaces(monkeypatch, n, s):
    # pi T + lift(S) is tau-stable exactly when S is stable under the
    # sigma-semilinear residue map, so the lifts are the tau-stable
    # lattices of the window, counted here by lifting every lattice
    sp, catalog = _inclusion_space(n, s)
    every = list(lc._standard_window(sp).lattices())
    stable = sum(lc.lattice_eq(sp.tau(L), L) for L in every)
    lifts = []
    lift = lc._Window.lift

    def counted(window, rows):
        lifts.append(rows)
        return lift(window, rows)

    monkeypatch.setattr(lc._Window, "lift", counted)
    assert [L.key() for L in lc.vertex_lattices_in_window(sp)] == [L.key() for L in catalog]
    assert len(lifts) == stable < len(every)


def test_catalog_refuses_a_window_top_that_tau_moves(monkeypatch):
    # with tau(L0-sharp) != L0-sharp the residue map is not defined, and
    # the catalog raises rather than skip the residue test
    ring = TruncRing(FieldCtx(3, 1, 2), 8)
    sp = HermSpace.build(ring, mixed_gram(ring, 2, 0), tau_generator_set(ring, 2, 0)[0])
    top = lc._standard_window(sp).top
    real_tau = HermSpace.tau

    def moving(space, L):
        return L.scale(1) if lc.lattice_eq(L, top) else real_tau(space, L)

    monkeypatch.setattr(HermSpace, "tau", moving)
    with pytest.raises(lc.LatticeError, match="not tau-stable"):
        lc.vertex_lattices_in_window(sp)


def test_point_set_budget_counts_the_whole_window():
    sp, catalog = _inclusion_space(3, 2)
    lam = next(L for L in catalog if vertex_type(sp, L) == 2)
    bot, top = lam, dual_sharp(sp, lam)
    window = lc._Window(bot, top)
    total = sum(1 for _ in window.lattices())
    # the budget counts every lattice of the window, not the one layer
    # that is enumerated
    assert 0 < len(lc._point_set(sp, bot, top, 2, total)) < total
    with pytest.raises(BudgetExceeded):
        lc._point_set(sp, bot, top, 2, total - 1)
    # so does a window with no layer of the type, by parity
    with pytest.raises(BudgetExceeded):
        lc._point_set(sp, bot, top, 1, total - 1)


def test_inclusion_report_pays_one_dual_per_catalog_lattice(monkeypatch):
    calls = []
    body = lc._dual_sharp

    def counted(space, L):
        calls.append(L)
        return body(space, L)

    monkeypatch.setattr(lc, "_dual_sharp", counted)
    rep = lc.inclusion_report(3, 1, 2, 3, 2)
    catalog = sum(c["count"] for c in rep["counts"])
    assert catalog > 1
    # the standard window's top and one dual per catalog lattice; a
    # rejected window lattice pays none
    assert len(calls) <= catalog + 2
