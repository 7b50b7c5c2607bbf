"""Lift-and-test references for the lattice windows of
:mod:`stratakit.latcalc`: every lattice of a window is lifted, and the
point conditions are tested on the lattice itself."""

from stratakit import latcalc as lc


def lifts(window):
    """Every lattice of the window, in the order of its residue subspaces."""
    return (window.lift(rows) for rows, _ in window.subspaces())


def n_point_conditions(space, M, h):
    """Lattice-model point conditions: pi M# <= M <=(h) M#, the pi-window
    around tau, and the unit index jump."""
    if lc.vertex_type(space, M) != h:
        return False
    tM = space.tau(M)
    if not (lc.contains(tM, M.scale(1)) and lc.contains(M, tM.scale(1))):
        return False
    return lc.index_in(lc.lattice_sum(M, tM), M) <= 1


def side_window(lam, lam_s, side):
    """The window of a point set: [lam, lam#] on the Z side, [pi lam#, lam]
    on the Y side."""
    return lc._Window(lam_s.scale(1), lam) if side == "Y" else lc._Window(lam, lam_s)


def lifted_point_sets(space, lam, lam_s, side, hs):
    """Reference for ``lc._point_set``: for each h in ``hs``, the keys of
    the lattices of the side's window that meet the point conditions.  The
    window is lifted, and each lattice typed, once for all the h."""
    typed = [(M, lc.vertex_type(space, M)) for M in lifts(side_window(lam, lam_s, side))]
    return {h: frozenset(M.key() for M, t in typed if t == h and n_point_conditions(space, M, h))
            for h in hs}
