"""Exact isomorphism testing by backtracking over generator images.

The search maps a greedily-chosen generating set of the source group onto
invariant-matched candidates in the target group, rebuilding the partial
homomorphism after each choice and pruning on any conflict. A full table
check validates the final map, so the search can prune aggressively without
risking a false positive. automorphisms(g) runs the same search from g to
itself in short seeded restarts to find a few non-inner automorphisms.
"""

from __future__ import annotations

import math
import random

from .arith import require_int
from .core import FiniteGroup, compose_rows, row_type
from .errors import GroupError, GroupTooLarge

DEFAULT_ISO_CAP = 512
# automorphisms(g): restarted searches of AUTOMORPHISM_NODES extension steps
# each, from a fixed seed, until AUTOMORPHISM_SOLUTIONS distinct
# automorphisms are found or AUTOMORPHISM_ATTEMPTS searches have run
AUTOMORPHISM_SOLUTIONS = 3
AUTOMORPHISM_NODES = 20
AUTOMORPHISM_ATTEMPTS = 300
AUTOMORPHISM_SEED = 0


class Isomorphism:
    """A witness isomorphism: map[a] is the image of element a. The
    constructor checks that map is a bijection and a homomorphism."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, map: tuple[int, ...]):
        n = source.order
        for v in map:
            require_int(v, "map entry")
        if target.order != n or sorted(map) != list(range(n)):
            raise GroupError("map is not a bijection between the element sets")
        broken = first_broken_pair(source.table, target.table, row_type(n)(map))
        if broken is not None:
            raise GroupError(f"map is not a homomorphism at pair {broken}")
        self.source, self.target, self.map = source, target, map


def first_broken_pair(rows1, rows2, perm):
    """The first (a, b) with perm[a*b] != perm[a]*perm[b], products read in
    rows1 and rows2, or None: the packed map perm is a homomorphism."""
    for a, row in enumerate(rows1):
        lhs, rhs = compose_rows(perm, row), compose_rows(rows2[perm[a]], perm)
        if lhs != rhs:
            return a, next(b for b in range(len(row)) if lhs[b] != rhs[b])
    return None


def element_invariants(g: FiniteGroup) -> tuple[tuple[int, int, int, int], ...]:
    """Per-element invariant vectors preserved by any isomorphism.

    Each element gets (order, centralizer size, number of square roots,
    derived-subgroup membership). Order multisets alone fail to separate
    some order-32 pairs; the centralizer profile resolves them cheaply. The
    centralizer of x has size n / |class of x|, and the class is the orbit
    of x under conjugation by the generators.
    """
    cached = getattr(g, "_element_invariants", None)
    if cached is not None:
        return cached
    rows, inverse, n = g.table, g.inverses, g.order
    class_size = [0] * n
    for x in range(n):
        if not class_size[x]:
            orbit = [x]
            for y in orbit:
                orbit += {rows[rows[inverse[s]][y]][s] for s in g.generators}.difference(orbit)
            for y in orbit:
                class_size[y] = len(orbit)
    sq_counts = [0] * n
    for x, row in enumerate(rows):
        sq_counts[row[x]] += 1
    orders, dmask = g.element_orders, g.derived_mask
    inv = tuple(
        (orders[i], n // class_size[i], sq_counts[i], dmask >> i & 1)
        for i in range(n)
    )
    g._element_invariants = inv
    return inv


def _summary(g: FiniteGroup) -> tuple:
    """Order, abelianness, |Z|, |G'| and exponent: the isomorphism
    invariants that need no per-element invariants."""
    return (g.order, g.is_abelian, g.center_mask.bit_count(), g.derived_mask.bit_count(), g.exponent)


def minimal_generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """Greedy irredundant generating set, scanning elements by descending
    order then index."""
    candidates = sorted(range(1, g.order), key=lambda x: (-g.element_orders[x], x))
    return g._normal_closure(candidates, ())[1]


def _extend_homomorphism(rows1, rows2, gens: tuple[int, ...], images: list[int]):
    """Unique hom extension of gen->image on the generated subgroup,
    or None on conflict: (map, number of elements mapped), map[a] = -1
    outside the subgroup that gens[:len(images)] generate."""
    n = len(rows1)
    map_ = [-1] * n
    used = [False] * n
    map_[0] = 0
    used[0] = True
    known = [0]
    pairs = list(zip(gens[: len(images)], images))
    i = 0
    while i < len(known):
        a = known[i]
        i += 1
        fa = map_[a]
        for gsrc, gtgt in pairs:
            b = rows1[a][gsrc]
            t = rows2[fa][gtgt]
            fb = map_[b]
            if fb == -1:
                if used[t]:
                    return None
                map_[b] = t
                used[t] = True
                known.append(b)
            elif fb != t:
                return None
    return map_, len(known)


def _generator_candidates(g1: FiniteGroup, g2: FiniteGroup):
    """The search's setup for maps g1 -> g2: (gens, cand), with gens a
    generating set of g1 and cand[i] the elements of g2 whose invariants
    are those of gens[i]; None when a generator has no candidate. The most
    constrained generators come first, in a stable sort."""
    inv1, inv2 = element_invariants(g1), element_invariants(g2)
    by_inv: dict[tuple, list[int]] = {}
    for x, key in enumerate(inv2):
        by_inv.setdefault(key, []).append(x)
    pairs = [(s, by_inv.get(inv1[s])) for s in minimal_generating_set(g1)]
    if not all(c for _, c in pairs):
        return None
    pairs.sort(key=lambda pair: len(pair[1]))
    return tuple(s for s, _ in pairs), [c for _, c in pairs]


def _search(rows1, rows2, gens: tuple[int, ...], cand: list[list[int]], budget: float = math.inf):
    """The first map, trying the images of gens[i] in the order of cand[i],
    that extends onto all n elements, or None; None also once budget
    extension steps are spent."""
    n = len(rows1)
    images: list[int] = []
    steps = budget

    def dfs(depth: int):
        nonlocal steps
        for h in cand[depth]:
            if steps <= 0:
                return None
            steps -= 1
            images.append(h)
            found = _extend_homomorphism(rows1, rows2, gens, images)
            if found is not None:
                if depth + 1 < len(gens):
                    result = dfs(depth + 1)
                    if result is not None:
                        return result
                elif found[1] == n:
                    # the map sends a*s to map(a)*map(s) for every a and
                    # generator s, so a map onto all n elements is a
                    # homomorphism; Isomorphism checks the full table all
                    # the same
                    return tuple(found[0])
            images.pop()
        return None

    return dfs(0) if gens else (0,)


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup):
    """Exact isomorphism decision: a witness Isomorphism, or None.

    Raises GroupTooLarge when the common order exceeds DEFAULT_ISO_CAP.
    Equal tables give the identity map with no search.
    """
    n = g1.order
    if g2.order != n:
        return None
    if n > DEFAULT_ISO_CAP:
        raise GroupTooLarge(f"isomorphism test at order {n} exceeds cap {DEFAULT_ISO_CAP}")
    if g1.table == g2.table:
        return Isomorphism(g1, g2, tuple(range(n)))
    # necessary conditions, with element_invariants run only for groups
    # whose summaries agree
    if _summary(g1) != _summary(g2) or sorted(element_invariants(g1)) != sorted(element_invariants(g2)):
        return None
    setup = _generator_candidates(g1, g2)
    if setup is None:
        return None
    found = _search(g1.table, g2.table, *setup)
    if found is None:
        return None
    return Isomorphism(g1, g2, found)


def _is_inner(g: FiniteGroup, map_) -> bool:
    """True iff map_ is conjugation x -> u^-1 x u by some element u.

    u^-1 s u = map_[s] iff s u = u map_[s], so each u costs one row and
    one table lookup for the first generator; the others are tested only
    for the u that pass it."""
    rows = g.table
    if not g.generators:
        return True
    first, *rest = g.generators
    row, image = rows[first], map_[first]
    return any(
        row[u] == rows[u][image] and all(rows[s][u] == rows[u][map_[s]] for s in rest) for u in range(g.order)
    )


def automorphisms(g: FiniteGroup) -> list[tuple[int, ...]]:
    """A few automorphisms of g that are not inner, as maps map[a].

    The search of is_isomorphic with g as both source and target, in
    restarts: each attempt tries the invariant-matched images of the
    generators in a seeded random order and gives up after
    AUTOMORPHISM_NODES extension steps. The first AUTOMORPHISM_SOLUTIONS
    distinct automorphisms found stop the search, and the inner ones among
    them are dropped; so a group whose automorphisms are all inner pays
    only for a few quick solutions. Each map is a homomorphism extended
    onto all n elements, so it is an automorphism whatever the search
    order; an empty list only means none was found. An automorphism is
    fixed by its images of gens, each in that generator's invariant class,
    so there are at most prod(len(c) for c in cand) of them, and the
    restarts stop once that many are found too.
    """
    gens, cand = _generator_candidates(g, g)
    rows, rng = g.table, random.Random(AUTOMORPHISM_SEED)
    found: dict[tuple[int, ...], None] = {}
    enough = min(AUTOMORPHISM_SOLUTIONS, math.prod(map(len, cand)))
    for _ in range(AUTOMORPHISM_ATTEMPTS):
        if len(found) == enough:
            break
        map_ = _search(rows, rows, gens, [rng.sample(c, len(c)) for c in cand], AUTOMORPHISM_NODES)
        if map_ is not None:
            found[map_] = None
    return [map_ for map_ in found if not _is_inner(g, map_)]
