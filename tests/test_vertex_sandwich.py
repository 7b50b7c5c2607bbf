"""The vertex sandwich pi L# <= L <= L# read off the Gram matrix, against
the route through the dual lattice, and the point sets built on it."""

import inspect
import itertools
import json
import textwrap
from collections import Counter

import pytest

from point_reference import lifted_point_sets, lifts, side_window
from stratakit.gf import FieldCtx
from stratakit import cli, latcalc as lc
from stratakit.linalg import rank, row_spaces
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
            for M in lifts(window):
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


def guarded(route, *args):
    try:
        return route(*args)
    except GuardError:
        return "guard"


# (p, s, n, N): kappa = GF(p^s), rank n, guard N
WINDOW_CONFIGS = [(3, 2, 2, 8), (3, 2, 3, 8), (3, 1, 4, 8), (3, 2, 2, 2), (3, 1, 3, 3),
                  (5, 1, 3, 8), (3, 1, 4, 2)]


def deep_grams(ring, n):
    """Grams with an elementary divisor pi^2, outside the instance family:
    diag(pi^2, 1, ..., 1), a hyperbolic pi^2-block with a unit tail, and
    at n >= 3 a pi-block, pi^2 and a unit tail.  L0-sharp has floor -2,
    so the window decides at level 4, where the (pi e_f, pi e_g) block of
    its Gram is -G_2, not zero as for the family's Grams."""
    pi2 = ring.pi_pow(2)
    diagonal = [list(row) for row in mixed_gram(ring, n, 0)]
    diagonal[0][0] = pi2
    grams = [diagonal]
    if n >= 2:
        hyperbolic = [list(row) for row in mixed_gram(ring, n, 0)]
        hyperbolic[0][0] = hyperbolic[1][1] = ring.zero
        hyperbolic[0][1] = hyperbolic[1][0] = pi2
        grams.append(hyperbolic)
    if n >= 3:
        mixed = [list(row) for row in mixed_gram(ring, n, 1)]
        mixed[2][2] = pi2
        grams.append(mixed)
    return grams


def window_type_sweep(p, s, n, N):
    """(config, window's type, vertex type of the lift) for every residue
    subspace of the standard window of every Gram of the family with every
    tau generator of seeds 0 and 1, and, below the ring width (N >= 3), of
    each :func:`deep_grams` Gram with tau the identity (the vertex type
    does not see tau); a guard trip, the lift's included, is an outcome."""
    ring = TruncRing(FieldCtx(p, 1, s), N)
    spaces = [HermSpace.build(ring, gram, A) for gram in lc.gram_family(ring, n)
              for seed in (0, 1) for A in tau_generator_set(ring, n, seed, gram)]
    if N >= 3:
        spaces += [HermSpace.build(ring, gram, lc.mat_identity(ring, n))
                   for gram in deep_grams(ring, n)]
    for sp in spaces:
        window = lc._standard_window(sp)
        type_of = window.vertex_typer(sp)
        for rows, pivots in window.subspaces():
            want = guarded(lambda: vertex_type(sp, window.lift(rows)))
            yield (sp.gram, sp.tau_matrix, rows), guarded(type_of, rows, pivots), want


@pytest.mark.parametrize("p,s,n,N", WINDOW_CONFIGS)
def test_window_types_equal_the_vertex_type_of_the_lift(p, s, n, N):
    seen = Counter()
    for config, got, want in window_type_sweep(p, s, n, N):
        assert got == want, config
        seen["type" if isinstance(want, int) else want] += 1
    assert seen["type"] and seen[None], seen


# source edits of _Window.vertex_typer that the cross-check must catch
TYPER_MUTATIONS = {
    "pi-block-dropped": ("[NEG[low[g][h]] for h in free]", "[0 for h in free]"),
    "mixed-blocks-at-level-l": ("l - 1, ", "l, "),
}


@pytest.mark.parametrize("old,new", TYPER_MUTATIONS.values(), ids=list(TYPER_MUTATIONS))
def test_a_mutated_window_typer_fails_the_cross_check(monkeypatch, old, new):
    source = textwrap.dedent(inspect.getsource(lc._Window.vertex_typer))
    assert old in source
    namespace = dict(vars(lc))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(lc._Window, "vertex_typer", namespace["vertex_typer"])
    assert any(got != want for config in WINDOW_CONFIGS
               for _, got, want in window_type_sweep(*config))


def test_window_typer_trips_the_guard_at_the_ring_width(monkeypatch):
    # with H = pi^2 I at N = 2, T = L0-sharp = pi^-2 L0, so M's Gram in
    # T's basis is decided at level K = 4, the ring width: the window's
    # guard trips wherever the levels below it vanish, and the typer hands
    # those subspaces to the lift.  The lift of S = 0, pi T = pi^-1 L0, has
    # a basis a floor higher, whose Gram the ring route reads at level 2:
    # type 0, not inconclusive
    R = TruncRing(FieldCtx(3, 1, 2), 2)
    gram = [[R.pi_pow(2) if i == j else R.zero for j in range(2)] for i in range(2)]
    sp = HermSpace.build(R, gram, tau_generator_set(R, 2, 0, gram)[0])
    window = lc._standard_window(sp)
    type_of = window.vertex_typer(sp)
    trips, sandwich = [], lc._sandwich_type

    def recording(*args):
        try:
            return sandwich(*args)
        except GuardError:
            trips.append(args[2])
            raise

    monkeypatch.setattr(lc, "_sandwich_type", recording)
    seen = Counter()
    for rows, pivots in window.subspaces():
        got = guarded(type_of, rows, pivots)
        want = guarded(lambda: vertex_type(sp, window.lift(rows)))
        assert got == want, rows
        seen[got] += 1
    # every trip is the window's, at K = 4, and the lift decided each
    assert trips and set(trips) == {4} and seen == {None: 11, 0: 1}, (trips, seen)


def test_window_typer_needs_the_standard_shape():
    # [lam, lam#] for a type-2 lattice of rank 3 is no standard window
    sp, catalog = _inclusion_space(3, 2)
    lam = next(L for L in catalog if vertex_type(sp, L) == 2)
    with pytest.raises(lc.LatticeError, match="not pi times its top"):
        lc._Window(lam, dual_sharp(sp, lam)).vertex_typer(sp)


@pytest.mark.parametrize("audit", [lambda: lc.dichotomy_trials(3, 1, 2, 3, 300, seed=0),
                                   lambda: lc.exhaustive_dichotomy(3, 1, 2, n=2)],
                         ids=["trials", "exhaustive"])
def test_dichotomy_lifts_only_the_draws_the_window_types(monkeypatch, audit):
    # each lift follows the window typing the same rows as a vertex
    # lattice, each such typing is followed by its lift, and the ring
    # route never types a lifted draw again in the draw's space
    events, spaces = [], {}
    typer, lift, body = lc._Window.vertex_typer, lc._Window.lift, lc._vertex_type

    def recording_typer(window, space):
        type_of, spaces[window] = typer(window, space), space

        def typed(rows, pivots):
            events.append(("typed", window, rows, type_of(rows, pivots)))
            return events[-1][3]

        return typed

    def recording_lift(window, rows):
        L = lift(window, rows)
        events.append(("lift", window, rows, (spaces[window], L.key())))
        return L

    def recording_body(space, L):
        events.append(("ring", (space, L.key())))
        return body(space, L)

    monkeypatch.setattr(lc._Window, "vertex_typer", recording_typer)
    monkeypatch.setattr(lc._Window, "lift", recording_lift)
    monkeypatch.setattr(lc, "_vertex_type", recording_body)
    stats = audit()
    seen, lifted = Counter(), set()
    for i, event in enumerate(events):
        kind = event[0]
        if kind == "typed" and event[3] is not None:
            assert events[i + 1][:3] == ("lift", *event[1:3])
        elif kind == "lift":
            assert events[i - 1][:3] == ("typed", *event[1:3]) and events[i - 1][3] is not None
            lifted.add(event[3])
        elif kind == "ring":
            assert event[1] not in lifted
        seen[kind, kind != "typed" or event[3] is not None] += 1
    assert seen["typed", False] and seen["lift", True] and seen["ring", True], seen
    assert stats["hypothesis_rejected"] >= seen["typed", False]


def _inclusion_space(n, s):
    """The space and catalog of `latcalc inclusions` at seed 0, N = 8."""
    R = TruncRing(FieldCtx(3, 1, s), 8)
    sp = HermSpace.build(R, mixed_gram(R, n, 0), tau_generator_set(R, n, 0)[1])
    return sp, lc.vertex_lattices_in_window(sp)


@pytest.mark.parametrize("n,h,s", [(3, 2, 2), (4, 2, 1)])
def test_point_set_layer_equals_the_full_window_filter(monkeypatch, n, h, s):
    # the point set is solved over kappa: only its own points are lifted
    sp, catalog = _inclusion_space(n, s)
    lifted = []
    lift = lc._Window.lift

    def counted(window, rows):
        lifted.append(rows)
        return lift(window, rows)

    nonempty = 0
    for lam in catalog:
        t, lam_s = vertex_type(sp, lam), dual_sharp(sp, lam)
        for side in ("Z",) * (t >= h) + ("Y",) * (t <= h):
            full = lifted_point_sets(sp, lam, lam_s, side, (h,))[h]
            with monkeypatch.context() as m:
                m.setattr(lc._Window, "lift", counted)
                lifted.clear()
                assert lc._point_set(sp, lam, lam_s, h, None, side) == full
            assert len(lifted) == len(full)
            nonempty += bool(full)
    assert nonempty


def residue_route_sweep(n, s, seeds, Ns=(2, 8), hs=None):
    """(config, residue-route set, lift-and-test set) for every point set
    of `latcalc inclusions` at n and s: each catalog lattice, each h in
    0..n (or in ``hs``) and each side its type allows; a guard trip is an
    outcome."""
    for N in Ns:
        ring = TruncRing(FieldCtx(3, 1, s), N)
        for seed in seeds:
            sp = HermSpace.build(ring, mixed_gram(ring, n, 0), tau_generator_set(ring, n, seed)[1])
            for lam in lc.vertex_lattices_in_window(sp):
                t, lam_s = vertex_type(sp, lam), dual_sharp(sp, lam)
                for side, sided in (("Z", range(t + 1)), ("Y", range(t, n + 1))):
                    sided = [h for h in sided if hs is None or h in hs]
                    if not sided:
                        continue
                    try:
                        want = lifted_point_sets(sp, lam, lam_s, side, sided)
                    except GuardError:
                        want = dict.fromkeys(sided, "guard")
                    for h in sided:
                        try:
                            got = lc._point_set(sp, lam, lam_s, h, None, side)
                        except GuardError:
                            got = "guard"
                        yield (N, seed, t, h, side), got, want[h]


@pytest.mark.parametrize("n,s,seeds,Ns", [
    pytest.param(n, s, range(6), (2, 8), id=f"n{n}-s{s}")
    for n, s in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
] + [pytest.param(4, 2, (0,), (2,), marks=pytest.mark.slow, id="n4-s2-seed0-N2")])
def test_point_sets_equal_lift_and_test(n, s, seeds, Ns):
    seen = Counter()
    for config, got, want in residue_route_sweep(n, s, seeds, Ns):
        assert got == want, config
        seen["guard" if want == "guard" else bool(want)] += 1
    assert seen[True] and seen[False], seen


def test_a_residue_map_without_sigma_breaks_the_point_sets(monkeypatch):
    # over kappa = GF(9) the residue map of tau is sigma-semilinear.  Built
    # linear in the point sets, it keeps other planes, and some type-0
    # point set of a type-4 lattice differs from lift-and-test; below n = 4
    # a point set's subspaces are lines, whose jump is at most 1 anyway
    point_set, tau_jump = lc._point_set, lc._Window.tau_jump

    def linear_tau_jump(window, space):
        jump_at_most, ctx = tau_jump(window, space), space.ring.ctx

        def linear(*args):
            with monkeypatch.context() as m:
                m.setattr(ctx, "FROB", list(range(ctx.size)))
                return jump_at_most(*args)

        return linear

    def without_sigma(*args):
        with monkeypatch.context() as m:
            m.setattr(lc._Window, "tau_jump", linear_tau_jump)
            return point_set(*args)

    monkeypatch.setattr(lc, "_point_set", without_sigma)
    assert any(got != want for _, got, want in residue_route_sweep(4, 2, (0,), (2,), hs=(0,)))


def test_residue_forms_of_every_catalog_window():
    # the residue of pi h on lam#/lam is alternating, the residue of h on
    # lam/pi lam# symmetric, and both are non-degenerate
    checked = Counter()
    for n, s in ((2, 2), (3, 2), (4, 1)):
        for N in (2, 8):
            ring = TruncRing(FieldCtx(3, 1, s), N)
            ctx = ring.ctx
            for gram in lc.gram_family(ring, n):
                for seed in range(3):
                    sp = HermSpace.build(ring, gram, tau_generator_set(ring, n, seed, gram)[1])
                    for lam in lc.vertex_lattices_in_window(sp):
                        lam_s = dual_sharp(sp, lam)
                        for side, extra_pi, sign in (("Z", 1, ctx.NEG), ("Y", 0, range(ctx.size))):
                            g = side_window(lam, lam_s, side).form(sp, extra_pi)
                            d = len(g)
                            assert all(g[i][j] == sign[g[j][i]] for i in range(d) for j in range(d))
                            assert side == "Y" or not any(g[i][i] for i in range(d))
                            assert rank(ctx, g) == d
                            checked[side, d > 0] += 1
    assert checked["Z", True] and checked["Y", True], checked


def full_window_catalogs(ring, gram, taus):
    """Reference for :func:`lc.vertex_lattices_in_window`: lift every
    lattice of the standard window and keep the tau-stable vertex
    lattices.  The window and the vertex types depend on the Gram alone,
    so they are computed once for all the tau matrices."""
    spaces = [HermSpace.build(ring, gram, A) for A in taus]
    sp = spaces[0]
    vertex = [L for L in lifts(lc._standard_window(sp)) if vertex_type(sp, L) is not None]
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
    # sigma-semilinear residue map, and the window types S over kappa, so
    # the lifts are the tau-stable vertex lattices of the window, counted
    # here by lifting every lattice
    sp, catalog = _inclusion_space(n, s)
    every = list(lifts(lc._standard_window(sp)))
    stable = [L for L in every if lc.lattice_eq(sp.tau(L), L)]
    vertex = sum(vertex_type(sp, L) is not None for L in stable)
    lifted = []
    lift = lc._Window.lift

    def counted(window, rows):
        lifted.append(rows)
        return lift(window, rows)

    monkeypatch.setattr(lc._Window, "lift", counted)
    assert [L.key() for L in lc.vertex_lattices_in_window(sp)] == [L.key() for L in catalog]
    assert len(lifted) == vertex < len(stable) < len(every)


def test_catalog_refuses_a_window_top_that_tau_moves(monkeypatch):
    # with tau(L0-sharp) != L0-sharp the residue map is not defined, and
    # the catalog raises rather than skip the residue test.  With one
    # pi-block L0-sharp is pi^-1 span(e1, e2, pi e3), which misses e3
    ring = TruncRing(FieldCtx(3, 1, 2), 8)
    gram = mixed_gram(ring, 3, 1)
    sp = HermSpace.build(ring, gram, tau_generator_set(ring, 3, 0, gram)[0])
    e3 = [ring.zero, ring.zero, ring.one]
    monkeypatch.setattr(HermSpace, "tau_vec", lambda space, v: e3)
    with pytest.raises(lc.LatticeError, match="window top is not tau-stable"):
        lc.vertex_lattices_in_window(sp)


def test_tau_jump_refuses_a_window_that_tau_moves():
    # tau acts on top/bot only when it keeps both: a window whose bottom
    # or top tau moves has no residue map, and the jump raises
    ring = TruncRing(FieldCtx(3, 1, 2), 8)
    sp = HermSpace.build(ring, mixed_gram(ring, 2, 0), tau_generator_set(ring, 2, 0)[1])
    std = lc._standard_window(sp)
    T = std.top
    moved = next(M for M in lifts(std) if not lc.lattice_eq(sp.tau(M), M))
    for bot, top, where in ((moved, T, "bottom"), (T.scale(1), moved, "top")):
        with pytest.raises(lc.LatticeError, match=f"window {where} is not tau-stable"):
            lc._Window(bot, top).tau_jump(sp)


def test_point_set_budget_counts_the_whole_window(monkeypatch):
    sp, catalog = _inclusion_space(3, 2)
    lam = next(L for L in catalog if vertex_type(sp, L) == 2)
    lam_s = dual_sharp(sp, lam)
    total = sum(1 for _ in lifts(lc._Window(lam, lam_s)))
    # the budget counts every lattice of the window, not the one layer
    # that is solved for
    assert 0 < len(lc._point_set(sp, lam, lam_s, 0, total, "Z")) < total
    with pytest.raises(BudgetExceeded):
        lc._point_set(sp, lam, lam_s, 0, total - 1, "Z")
    # so does a window with no layer of the type, by parity
    with pytest.raises(BudgetExceeded):
        lc._point_set(sp, lam, lam_s, 1, total - 1, "Z")
    # and the gate runs before any residue work: a guard trip there does
    # not hide the overrun
    monkeypatch.setattr(lc._Window, "form", tripping_form)
    with pytest.raises(BudgetExceeded):
        lc._point_set(sp, lam, lam_s, 0, total - 1, "Z")
    with pytest.raises(GuardError):
        lc._point_set(sp, lam, lam_s, 0, total, "Z")


def tripping_form(window, space, extra_pi):
    raise GuardError("forced trip")


def test_a_guard_trip_in_the_residue_route_is_inconclusive(monkeypatch, capsys):
    # the levels of the point sets' residue forms trip the guard (the
    # catalog's do not): the report is the inconclusive guard check, exit 3
    point_set, level = lc._point_set, lc._level
    inside = []

    def tracked(*args):
        inside.append(True)
        try:
            return point_set(*args)
        finally:
            inside.pop()

    def tripping_level(G, l):
        if inside:
            raise GuardError("forced trip")
        return level(G, l)

    monkeypatch.setattr(lc, "_point_set", tracked)
    monkeypatch.setattr(lc, "_level", tripping_level)
    assert cli.main(["latcalc", "inclusions", "--n", "3", "--h", "2"]) == 3
    rep = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["status"]) for c in rep["stable"]["checks"]] == [
        ("guard", "inconclusive")]


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
