"""Coordinate-scan reference: every subspace of a given dimension with
entries in the whole working field, independent of the Frobenius."""

from stratakit import linalg, space as spc


def enumerate_subspaces(space: spc.FormedSpace, d: int, isotropic_only: bool = False):
    """Stream every d-dimensional subspace with entries in the working
    field once, isotropic ones only when asked.  Deterministic order:
    echelon pivot patterns lexicographically, free entries in field
    enumeration order."""
    row_filter = None
    if isotropic_only:

        def row_filter(rows):
            return spc.isotropic_extension(space, rows[:-1], rows[-1])

    for rows in linalg.enumerate_echelon(space.ctx, space.dim, d, None, row_filter):
        yield spc.Subspace.from_rows(space, rows)
