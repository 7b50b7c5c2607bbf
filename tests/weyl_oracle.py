"""Length-search references for the Weyl calculus: breadth-first word
search, subgroup search and greedy ascent, each built only from `mul`,
`simple` and the inversion count `length`, never from the root-support
or one-root descent rules that `stratakit.weyl` uses."""

from stratakit.weyl import WeylCtx, WeylElem, identity, inverse, length, mul, simple


def enumerate_group(ctx: WeylCtx, gens=None):
    """BFS over words in the given simple indices (all by default);
    returns {images: word distance}.  Small ranks only."""
    gens = [simple(ctx, i) for i in (ctx.simple_indices if gens is None else gens)]
    e = identity(ctx)
    dist = {e.images: 0}
    frontier = [e]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                u = mul(w, g)
                if u.images not in dist:
                    dist[u.images] = dist[w.images] + 1
                    new.append(u)
        frontier = new
    return dist


def elements(ctx: WeylCtx, gens=None) -> list[WeylElem]:
    return [WeylElem(ctx, im) for im in enumerate_group(ctx, gens)]


def greedy_longest_parabolic_length(ctx: WeylCtx, K) -> int:
    """Greedy ascent: repeatedly multiply by any generator in K that raises
    length; the unique element of W_K with no ascent in K is its longest."""
    w = identity(ctx)
    lw = 0
    while True:
        for i in K:
            cand = mul(w, simple(ctx, i))
            lc = length(cand)
            if lc > lw:
                w, lw = cand, lc
                break
        else:
            return lw


def right_descents_by_length(w: WeylElem) -> set[int]:
    lw = length(w)
    return {i for i in w.ctx.simple_indices if length(mul(w, simple(w.ctx, i))) < lw}


def left_descents_by_length(w: WeylElem) -> set[int]:
    lw = length(w)
    return {i for i in w.ctx.simple_indices if length(mul(simple(w.ctx, i), w)) < lw}


def longest_in(ctx: WeylCtx, images) -> int:
    return max(length(WeylElem(ctx, im)) for im in images)


def conjugate_images(w: WeylElem, images) -> set:
    """{w u w^-1 : u} as image tuples."""
    winv = inverse(w)
    return {mul(mul(w, WeylElem(w.ctx, im)), winv).images for im in images}
