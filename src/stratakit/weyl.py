"""Weyl groups of types A/B/C/D as signed permutations.

An element is the tuple of images of 1..rank, entries in +-{1..rank}; a
negative image -j means the basis vector e_i is sent to f_j (and f_i to
e_j).  Simple reflections follow the standard-basis conventions of the
formed spaces in :mod:`stratakit.space`:

* type A: s_i = (i, i+1) for i < rank (rank means the number of letters);
* type B/C: additionally s_rank flips the sign of the last letter
  (e_k <-> f_k);
* type D: s_rank is (k-1, k) with both signs flipped, while s_{k-1} is the
  plain transposition; these are the two terminal nodes of the fork.

Length is the number of positive roots made negative, which agrees with
minimal word length (checked against breadth-first word search in the
tests).  Nothing else evaluates a length: w s_i is shorter than w exactly
when w makes alpha_i negative, so a descent is one root's sign (a left
descent one of w^-1), and the longest element of a standard parabolic
W_K has as many inversions as there are positive roots whose simple-root
support lies in K (Humphreys, Reflection Groups and Coxeter Groups,
1.8).  The only nontrivial diagram automorphism supported is the type-D
twist swapping the two terminal nodes, realized as conjugation by the
sign flip at the last letter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .report import check

LIE_TYPES = ("A", "B", "C", "D")


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class WeylCtx:
    lie_type: str
    rank: int
    twisted: bool = False  # order-2 diagram twist; type D only

    def __post_init__(self):
        if self.lie_type not in LIE_TYPES:
            raise WeylError(f"unknown type {self.lie_type!r}")
        if self.rank < 1:
            raise WeylError("rank must be >= 1")
        if self.twisted and self.lie_type != "D":
            raise WeylError("twist is only supported in type D")
        if self.lie_type == "D" and self.rank < 2:
            raise WeylError("type D needs rank >= 2")

    @property
    def simple_indices(self) -> tuple[int, ...]:
        if self.lie_type == "A":
            return tuple(range(1, self.rank))
        return tuple(range(1, self.rank + 1))

    def twist_index(self, i: int) -> int:
        if self.twisted and i in (self.rank - 1, self.rank):
            return 2 * self.rank - 1 - i
        return i

    def twist_set(self, I) -> frozenset[int]:
        return frozenset(self.twist_index(i) for i in I)


@dataclass(frozen=True)
class WeylElem:
    ctx: WeylCtx
    images: tuple[int, ...]


def identity(ctx: WeylCtx) -> WeylElem:
    return WeylElem(ctx, tuple(range(1, ctx.rank + 1)))


def simple(ctx: WeylCtx, i: int) -> WeylElem:
    k = ctx.rank
    if i not in ctx.simple_indices:
        raise WeylError(f"s_{i} is not a simple reflection of {ctx}")
    e = list(range(1, k + 1))
    if i < k:
        e[i - 1], e[i] = e[i], e[i - 1]
    elif ctx.lie_type in ("B", "C"):
        e[k - 1] = -k
    elif ctx.lie_type == "D":
        e[k - 2], e[k - 1] = -k, -(k - 1)
    return WeylElem(ctx, tuple(e))


def mul(u: WeylElem, v: WeylElem) -> WeylElem:
    """(u v)(x) = u(v(x))."""
    if u.ctx != v.ctx:
        raise WeylError("mixed contexts")
    ui = u.images
    out = []
    for j in v.images:
        out.append(ui[j - 1] if j > 0 else -ui[-j - 1])
    return WeylElem(u.ctx, tuple(out))


def inverse(w: WeylElem) -> WeylElem:
    k = w.ctx.rank
    out = [0] * k
    for i in range(1, k + 1):
        j = w.images[i - 1]
        if j > 0:
            out[j - 1] = i
        else:
            out[-j - 1] = -i
    return WeylElem(w.ctx, tuple(out))


def from_word(ctx: WeylCtx, word) -> WeylElem:
    """Evaluate a word; the rightmost letter acts first."""
    w = identity(ctx)
    for a in word:
        w = mul(w, simple(ctx, a))
    return w


def act(w: WeylElem, vector: tuple[str, int]) -> tuple[str, int]:
    """Image of a basis vector ('e', i) or ('f', i)."""
    kind, i = vector
    if kind not in ("e", "f") or not 1 <= i <= w.ctx.rank:
        raise WeylError(f"bad basis vector {vector}")
    j = w.images[i - 1]
    if kind == "f":
        j = -j
    return ("e", j) if j > 0 else ("f", -j)


# -- length, descents and parabolic lengths from the root data ----------

@functools.lru_cache(maxsize=None)
def _positive_roots(lie_type: str, rank: int):
    """Positive roots as (i, j, s): e_i + s e_j for i < j, s = +-1, and
    (i, 0, 0) for e_i (or 2e_i; same inversion count)."""
    roots = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            roots.append((i, j, -1))
            if lie_type in ("B", "C", "D"):
                roots.append((i, j, +1))
        if lie_type in ("B", "C"):
            roots.append((i, 0, 0))
    return tuple(roots)


@functools.lru_cache(maxsize=None)
def _root_supports(lie_type: str, rank: int) -> tuple[int, ...]:
    """Simple-root support of each positive root, bit i standing for
    alpha_i: {i..j-1} for e_i - e_j; {i..k} for e_i and for e_i + e_j,
    except {i..k-2} + {k} for e_i + e_k in type D."""
    k = rank

    def span(a, b):
        return (1 << (b + 1)) - (1 << a) if a <= b else 0

    return tuple(span(i, j - 1) if s == -1
                 else span(i, k - 2) | 1 << k if lie_type == "D" and j == k
                 else span(i, k)
                 for i, j, s in _positive_roots(lie_type, rank))


def _inverts(images: tuple[int, ...], root: tuple[int, int, int]) -> bool:
    """Whether w sends the positive root to a negative one.  Its image is
    sgn(a) e_|a| + sgn(b) e_|b| with |a| != |b|, negative exactly when the
    term of the smaller letter is."""
    i, j, s = root
    a = images[i - 1]
    if not j:
        return a < 0
    b = s * images[j - 1]
    return (a if abs(a) < abs(b) else b) < 0


def length(w: WeylElem) -> int:
    im = w.images
    return sum(1 for root in _positive_roots(w.ctx.lie_type, w.ctx.rank) if _inverts(im, root))


@functools.lru_cache(maxsize=None)
def _simple_root(ctx: WeylCtx, i: int) -> tuple[int, int, int]:
    """alpha_i: e_i - e_(i+1) for i < rank, then e_k (B/C) or e_(k-1) + e_k (D)."""
    k = ctx.rank
    if i not in ctx.simple_indices:
        raise WeylError(f"s_{i} is not a simple reflection of {ctx}")
    if i < k:
        return (i, i + 1, -1)
    return (k, 0, 0) if ctx.lie_type in ("B", "C") else (k - 1, k, +1)


def _is_right_descent(w: WeylElem, i: int) -> bool:
    """len(w s_i) < len(w) exactly when w inverts alpha_i."""
    return _inverts(w.images, _simple_root(w.ctx, i))


def right_descents(w: WeylElem) -> list[int]:
    return [i for i in w.ctx.simple_indices if _is_right_descent(w, i)]


def reduced_word(w: WeylElem) -> tuple[int, ...]:
    """One reduced word via greedy removal of the smallest right descent."""
    out = []
    cur = w
    while True:
        ds = right_descents(cur)
        if not ds:
            break
        s = min(ds)
        out.append(s)
        cur = mul(cur, simple(w.ctx, s))
    if cur.images != identity(w.ctx).images:
        raise WeylError("descent recursion did not reach the identity (bug)")
    return tuple(reversed(out))


def support(w: WeylElem) -> frozenset[int]:
    """Simple reflections occurring in a reduced word (word independent)."""
    return frozenset(reduced_word(w))


def longest_parabolic_length(ctx: WeylCtx, K) -> int:
    """Length of the longest element of the standard parabolic W_K: the
    number of positive roots whose simple-root support lies in K."""
    outside = ~sum(1 << i for i in parabolic(ctx, K).gens)
    return sum(1 for m in _root_supports(ctx.lie_type, ctx.rank) if not m & outside)


def is_min_double_coset(w: WeylElem, I, J) -> bool:
    """Distinguished double-coset representative test: no left descent in I
    (a right descent of w^-1), no right descent in J."""
    winv = inverse(w)
    return (not any(_is_right_descent(winv, i) for i in I)
            and not any(_is_right_descent(w, j) for j in J))


@dataclass(frozen=True)
class ParabolicIndex:
    ctx: WeylCtx
    gens: frozenset[int]

    def __post_init__(self):
        bad = set(self.gens) - set(self.ctx.simple_indices)
        if bad:
            raise WeylError(f"indices {sorted(bad)} out of range")


def parabolic(ctx: WeylCtx, gens) -> ParabolicIndex:
    return ParabolicIndex(ctx, frozenset(gens))


@functools.lru_cache(maxsize=None)
def _simple_lookup(ctx: WeylCtx) -> dict[tuple[int, ...], int]:
    return {simple(ctx, i).images: i for i in ctx.simple_indices}


def dl_dimension(I: ParabolicIndex, w: WeylElem) -> int:
    """Dimension of the Deligne-Lusztig variety X_{P_I}(w).

    Computes len(w) + len(W_{Phi(I)}) - len(W_{I cap w Phi(I) w^-1}); w is
    required to be the distinguished representative of W_I w W_{Phi(I)}.
    """
    ctx = w.ctx
    phi_I = ctx.twist_set(I.gens)
    if not is_min_double_coset(w, I.gens, phi_I):
        raise WeylError("w is not minimal in its double coset")
    lookup = _simple_lookup(ctx)
    winv = inverse(w)
    K = set()
    for sp in phi_I:
        c = mul(mul(w, simple(ctx, sp)), winv)
        idx = lookup.get(c.images)
        if idx is not None and idx in I.gens:
            K.add(idx)
    return (
        length(w)
        + longest_parabolic_length(ctx, phi_I)
        - longest_parabolic_length(ctx, K)
    )


def is_irreducible(I: ParabolicIndex, w: WeylElem) -> bool:
    """Irreducibility criterion: the twist closure of I plus supp(w) must
    exhaust the simple reflections."""
    ctx = w.ctx
    J = set(I.gens) | set(support(w))
    while True:
        J2 = J | set(ctx.twist_set(J))
        if J2 == J:
            break
        J = J2
    return frozenset(J) == frozenset(ctx.simple_indices)


# -- the explicit word families on formed spaces ------------------------
#
# Symplectic conventions: rank t = half the space dimension, parameter h
# with 0 <= s <= h <= r <= t.  Orthogonal even: rank k = half the space
# dimension, parameter hp with 0 <= s <= hp < r <= k.  Types B and C have
# the same simple reflections and positive roots here, so the odd
# orthogonal words are the symplectic words read in WeylCtx("B", k).
# Linear: rank m letters, parameter hh with 0 <= s <= hh <= r <= m.


def _rng(a: int, b: int) -> list[int]:
    """[a, a+1, ..., b] (empty when a > b)."""
    return list(range(a, b + 1))


def _rng_desc(a: int, b: int) -> list[int]:
    """[a, a-1, ..., b] (empty when a < b)."""
    return list(range(a, b - 1, -1))


def symplectic_g_word(i: int, t: int) -> list[int]:
    return _rng(i, t - 1) + [t] + _rng_desc(t - 1, i)


def _w_word(rank: int, h: int, r: int, s: int, g_word: list[int]) -> list[int]:
    """The w_(r,s) word around its middle part g_word = g_(rank-s)."""
    return _rng(rank - h, rank - s - 1) + g_word + _rng_desc(rank - h - 1, rank - r + 1)


def symplectic_w_word(t: int, h: int, r: int, s: int) -> list[int]:
    if not (0 <= s <= h < r <= t):
        raise WeylError(f"bad symplectic parameters r={r}, s={s} for (t={t}, h={h})")
    return _w_word(t, h, r, s, symplectic_g_word(t - s, t))


def symplectic_wprime_word(t: int, h: int, r: int, s: int) -> list[int]:
    if not (0 <= s < h < r <= t):
        raise WeylError(f"bad symplectic parameters r={r}, s={s} for (t={t}, h={h})")
    return _rng_desc(t - h, t - r + 1) + _rng(t - h + 1, t - s - 1)


def symplectic_w_lambda_word(t: int, h: int) -> list[int]:
    return symplectic_g_word(t - h, t)


def symplectic_wprime_lambda_word(t: int, h: int) -> list[int]:
    return [t - h]


def symplectic_index_set(t: int, h: int, r: int, s: int) -> frozenset[int]:
    """I_rs: all simple reflections except s_{t-r} .. s_{t-s}."""
    gap = set(range(t - r, t - s + 1))
    return frozenset(i for i in range(1, t + 1) if i not in gap)


def orthogonal_even_g_word(i: int, k: int, delta: str = "+") -> list[int]:
    if i == k:
        return [k - 1] if delta == "+" else [k]
    if i == k - 1:
        return [k, k - 1]
    return _rng(i, k - 2) + [k, k - 1] + _rng_desc(k - 2, i)


def orthogonal_even_w_word(k: int, hp: int, r: int, s: int, delta: str = "+") -> list[int]:
    if not (0 <= s <= hp < r <= k):
        raise WeylError(f"bad orthogonal parameters r={r}, s={s} for (k={k}, hp={hp})")
    return _w_word(k, hp, r, s, orthogonal_even_g_word(k - s, k, delta))


def expected_action(t: int, h: int, r: int, s: int, cross: bool) -> dict:
    """The basis action of the symplectic w_(r,s) (``cross``) or w'_(r,s)
    family element.

    Keys are ('e'|'f', index) pairs; every basis vector appears.  Indices
    up to t-r and above t-s are fixed.  On each letter t-r+1 goes to
    t-h+1, the indices climb from there to t-s, t-s goes to t-h and the
    indices fall back from t-h to t-r+1.  The step onto t-h changes the
    letter for w and keeps it for w'.  For w at s = h the climb is empty,
    so the two letters form one long cycle.
    """
    cycle = _rng(t - h + 1, t - s) + _rng_desc(t - h, t - r + 1)
    diagram: dict[tuple[str, int], tuple[str, int]] = {}
    for kind, other in (("e", "f"), ("f", "e")):
        for i in _rng(1, t - r) + _rng(t - s + 1, t):
            diagram[(kind, i)] = (kind, i)
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            diagram[(kind, i)] = (other if cross and j == t - h else kind, j)
    return diagram


# (name, s runs below h + this, word, crosses letters, DL dimension)
_SYMPLECTIC_FAMILIES = (
    ("w", 1, symplectic_w_word, True, lambda r, s: r + s),
    ("w'", 0, symplectic_wprime_word, False, lambda r, s: r - s - 1),
)


def symplectic_audit(t_max: int) -> dict:
    """Length, reducedness, minimality, action-diagram and dimension
    tables for the symplectic families up to the given rank."""
    checks = []
    counts = []
    for t in range(1, t_max + 1):
        ctx = WeylCtx("C", t)
        for h in range(0, t):
            for r in range(h + 1, t + 1):
                for name, s_end, word_of, cross, dim_of in _SYMPLECTIC_FAMILIES:
                    for s in range(0, h + s_end):
                        word = word_of(t, h, r, s)
                        w = from_word(ctx, word)
                        I = parabolic(ctx, symplectic_index_set(t, h, r, s))
                        lw, dim = length(w), dim_of(r, s)
                        held = {"length": lw == dim, "reduced": len(word) == lw,
                                "minimal": is_min_double_coset(w, I.gens, I.gens)}
                        held["dimension"] = held["minimal"] and dl_dimension(I, w) == dim
                        diagram = expected_action(t, h, r, s, cross)
                        held["action"] = all(act(w, v) == img for v, img in diagram.items())
                        checks.append(check(f"{name} t={t} h={h} r={r} s={s}",
                                            ok=all(held.values()), witness=held))
            top = from_word(ctx, symplectic_w_word(t, h, t, h))
            I_top = parabolic(ctx, symplectic_index_set(t, h, t, h))
            counts.append({
                "label": f"dl_dim top t={t} h={h}",
                "count": dl_dimension(I_top, top),
            })
            checks.append(check(f"top irreducible t={t} h={h}",
                                ok=is_irreducible(I_top, top)))
    return {"config": {"t_max": t_max, "family": "symplectic"},
            "counts": counts, "checks": checks}


def linear_w_word(m: int, hh: int, r: int, s: int) -> list[int]:
    if not (0 <= s <= hh <= r <= m):
        raise WeylError(f"bad linear parameters r={r}, s={s} for (m={m}, hh={hh})")
    return _rng(hh, r - 1) + _rng_desc(hh - 1, s + 1)


def linear_index_set(m: int, hh: int, r: int, s: int) -> frozenset[int]:
    return frozenset(i for i in range(1, m) if i < s or i > r)
