"""Coordinate-scan reference: every subspace of a given dimension with
entries in the whole working field, independent of the Frobenius."""

import itertools

from stratakit import space as spc


def enumerate_subspaces(space: spc.FormedSpace, d: int, isotropic_only: bool = False):
    """Stream every d-dimensional subspace with entries in the working
    field once, isotropic ones only when asked.  Deterministic order:
    echelon pivot patterns lexicographically, free entries in field
    enumeration order.  An isotropic scan drops a partial matrix as soon
    as its last row breaks isotropy, so it stays exhaustive."""
    n, scalars = space.dim, range(space.ctx.size)
    for pivots in itertools.combinations(range(n), d):
        pivset = set(pivots)
        slots = [[c for c in range(pc + 1, n) if c not in pivset] for pc in pivots]

        def rec(i, rows):
            if i == d:
                yield spc.Subspace.from_rows(space, rows)
                return
            for values in itertools.product(scalars, repeat=len(slots[i])):
                row = [0] * n
                row[pivots[i]] = 1
                for c, v in zip(slots[i], values):
                    row[c] = v
                row = tuple(row)
                if not isotropic_only or isotropic_extension(space, rows, row):
                    yield from rec(i + 1, rows + (row,))

        yield from rec(0, ())


def isotropic_extension(space: spc.FormedSpace, rows, v) -> bool:
    """Whether v is isotropic and orthogonal to each of ``rows``, i.e.
    whether an isotropic span of ``rows`` stays isotropic with v added.
    Every vector is isotropic under an alternating form."""
    form = space.form
    if space.kind.startswith("symmetric") and form(v, v) != 0:
        return False
    return all(form(r, v) == 0 for r in rows)
