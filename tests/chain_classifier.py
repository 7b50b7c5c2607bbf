"""Reference classifier: run a member's chains as subspaces.

Membership is the one-sum test dim(U + Phi U) <= dim U + 1 on an
isotropic U of the member dimension.  The down chain intersects U with its
Frobenius image until the span is stable; the up chain adds the image
until the span is stable or, in a formed space, stops being isotropic.
The component sign intersects the top with the kind's reference
Lagrangian.  Every step is a separate ``intersect`` or ``sum_spaces``, so
this is independent of ``strata.classify``'s down walk and of the block
kernel ``strata.classify_block``.
"""

from stratakit import space as spc
from stratakit.strata import ChainError, StratumLabel, _label_is_signed


def _stable(U):
    return spc.apply_phi(U).rows == U.rows


def sum_spaces(U, W):
    """U + W, the reduced echelon form of their stacked rows."""
    return spc.Subspace.from_rows(U.space, U.rows + W.rows)


def member(cfg, U):
    """U has the member dimension d, is isotropic unless the case is
    formless, and dim(U + Phi(U)) <= d + 1, that is, it meets Phi(U) in
    dimension >= d - 1."""
    d = cfg.member_dim
    return (U.dim == d and (cfg.case == "ZY" or spc.is_isotropic(U))
            and sum_spaces(U, spc.apply_phi(U)).dim <= d + 1)


def chain_down(U):
    """Intersection chain down to the stable bottom, bottom first."""
    chain = [U]
    while not _stable(chain[0]):
        nxt = spc.intersect(chain[0], spc.apply_phi(chain[0]))
        if nxt.dim != chain[0].dim - 1:
            raise ChainError(f"down step dropped {chain[0].dim - nxt.dim} dimensions")
        chain.insert(0, nxt)
    return chain


def chain_up(U):
    """Sum chain until stabilization or, in a formed space, loss of
    isotropy; returns (chain, stop)."""
    formed = U.space.gram is not None
    chain = [U]
    cur = U
    while not _stable(cur):
        nxt = sum_spaces(cur, spc.apply_phi(cur))
        if formed and not spc.is_isotropic(nxt):
            return chain, "anisotropic"
        if nxt.dim != cur.dim + 1:
            raise ChainError(f"up step added {nxt.dim - cur.dim} dimensions")
        chain.append(nxt)
        cur = nxt
    return chain, "stable"


def reference_lagrangian(sp):
    """span(e_1..e_m) in the split kind.  In the non-split kind, whose last
    pair spans an anisotropic plane, e_m gives way to s e_m + f_m for the
    scalar s of smallest code that makes that vector isotropic."""
    m = sp.dim // 2
    rows = [sp.e(i + 1) for i in range(m)]
    if sp.kind == "symmetric-even-nonsplit":
        ctx, e_m, f_m = sp.ctx, rows[-1], sp.e(sp.dim)
        candidates = (tuple(ctx.add(ctx.mul(s, a), b) for a, b in zip(e_m, f_m))
                      for s in range(ctx.size))
        rows[-1] = next(v for v in candidates if sp.form(v, v) == 0)
    return spc.Subspace.from_rows(sp, rows)


def sign_by_intersection(F, lref=None):
    """``+`` exactly when dim(F cap lref) is congruent to m mod 2, lref the
    reference Lagrangian unless given."""
    m = F.space.dim // 2
    if lref is None:
        lref = reference_lagrangian(F.space)
    return "+" if (spc.intersect(F, lref).dim - m) % 2 == 0 else "-"


def classify_by_chains(cfg, U):
    """(label, chain dimensions, KR class) of a member from its chains; the
    KR class is ``w`` exactly when the first up step leaves isotropy."""
    down = chain_down(U)
    bottom = down[0]
    up, stop = chain_up(U)
    top = up[-1]
    dims = [f.dim for f in down[:-1] + up]
    stable = len(down) == len(up) == 1
    kr = "id" if stable else "w" if stop == "anisotropic" and len(up) == 1 else "wprime"
    # r and s: the frame's top less the dimensions of the bottom and the top
    ref = cfg.frame[0]
    kind = "w" if stop == "anisotropic" or cfg.case == "ZY" else "id" if stable else "wprime"
    sign = None
    if _label_is_signed(cfg, kind):
        sign = sign_by_intersection(top if kind == "wprime" else U)
    return StratumLabel(ref - bottom.dim, ref - top.dim, kind, sign), dims, kr
