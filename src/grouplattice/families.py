"""Constructors for named group families and a small-order catalog.

Concrete models only: pairs, triples, bit vectors with twisted products,
and the closure of a set of permutations. Every constructor returns a fully validated FiniteGroup. Tables
of products and extensions are built a row at a time, by slicing the
identity row and composing rows (core.compose_rows, and core.compose_each
where many rows are composed with one).
"""

from __future__ import annotations

import math
from functools import cache, lru_cache, partial, reduce
from itertools import chain, count
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .arith import abelian_type_list, factorize, is_prime, require_int, require_prime, two_power_exponent
from .core import (
    FiniteGroup,
    check_cap,
    check_power_cap,
    compose_each,
    compose_rows,
    coset_rows,
    row_type,
)
from .errors import (
    ActionOrderMismatch,
    GroupError,
    NotAbelian,
    NotAutomorphism,
    NotCentralInvolution,
)
from .iso import first_broken_pair, is_isomorphic


def _cyclic_rows(n: int) -> tuple:
    ref = row_type(n)(range(n))
    return tuple(ref[a:] + ref[:a] for a in range(n))


def _product_rows(t1: Sequence, t2: Sequence) -> tuple:
    """Rows of the direct product, (a1, a2) indexed a1*|t2| + a2. The row
    of (a1, a2) is the row of (a1, 1) composed with that of (1, a2)."""
    n1, n2 = len(t1), len(t2)
    pack = row_type(n1 * n2)
    ref = pack(range(n1 * n2))
    blocks = [ref[k * n2:(k + 1) * n2] for k in range(n1)]  # b -> k*n2 + b
    left = [pack(b"".join(map(blocks.__getitem__, row))) for row in t1]
    right = list(map(pack, map(b"".join, zip(*(compose_each(block, t2) for block in blocks)))))
    return tuple(chain.from_iterable(compose_each(lrow, right) for lrow in left))


def _abelian_rows(factors: Sequence[int]) -> tuple:
    return reduce(_product_rows, map(_cyclic_rows, factors)) if factors else _cyclic_rows(1)


def cyclic(n: int) -> FiniteGroup:
    require_int(n, "cyclic order", 1)
    check_cap(n)
    return FiniteGroup(_cyclic_rows(n), name=f"C{n}")


def abelian(factors: Sequence[int], name: Optional[str] = None) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    factors = list(factors)
    if not factors:
        return cyclic(1)
    for f in factors:
        require_int(f, "cyclic factor", 2)
    check_cap(math.prod(factors))
    table = _abelian_rows(factors)
    if name is None:
        name = "x".join(f"C{f}" for f in factors)
    return FiniteGroup(table, name=name)


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    require_int(k, "rank", 0)
    if type(p) is int and p >= 2:
        # before the primality test and the k factors; C_p alone is checked
        # for k = 0 too, where a huge p would wait on the primality test
        check_power_cap(p, max(k, 1))
    require_prime(p)
    if k == 0:
        return cyclic(1)
    name = f"C{p}" if k == 1 else f"C{p}^{k}"
    return abelian([p] * k, name=name)


def _dihedral_rows(rows: Sequence, inverses: Sequence[int]) -> list:
    """Rows of Dih(A) from the rows and inverses of an abelian group A.

    Elements are pairs (eps, x) indexed eps*|A| + x; (1, x) elements all
    invert A under conjugation.
    """
    m = len(rows)
    check_cap(2 * m)
    ref = row_type(2 * m)(range(2 * m))
    low, high = ref[:m], ref[m:]  # x -> (0, x) and x -> (1, x)
    inv = row_type(m)(inverses)
    quotients = [compose_rows(row, inv) for row in rows]  # y -> x * y^-1
    table = list(map(add, compose_each(low, rows), compose_each(high, rows)))
    return table + list(map(add, compose_each(high, quotients), compose_each(low, quotients)))


def generalized_dihedral(a: FiniteGroup) -> FiniteGroup:
    """Extension of an abelian group by an involution acting by inversion."""
    if not a.is_abelian:
        raise NotAbelian(f"{a.name} is not abelian")
    return FiniteGroup(_dihedral_rows(a.table, a.inverses), name=f"D({a.name})")


def dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m."""
    require_int(m, "dihedral parameter", 1)
    check_cap(2 * m)
    return FiniteGroup(_dihedral_rows(_cyclic_rows(m), [-x % m for x in range(m)]), name=f"D{2 * m}")


def semidirect(
    a: FiniteGroup,
    action: Sequence[int],
    m: int,
    name: Optional[str] = None,
) -> FiniteGroup:
    """Split extension A : C_m where the C_m generator acts by the given
    automorphism (a permutation of A's elements)."""
    if name is None:
        name = f"{a.name}:C{m}"
    return FiniteGroup(_semidirect_rows(a.table, action, m), name=name)


def _semidirect_rows(rows: Sequence, action: Sequence[int], m: int) -> list:
    """Rows of A : C_m from the rows of A, after checking the action."""
    require_int(m, "cyclic factor order", 1)
    na = len(rows)
    action = list(action)
    bad = next((i for i, v in enumerate(action) if type(v) is not int), None)
    if bad is not None:
        raise NotAutomorphism(f"action entry {bad} = {action[bad]!r:.40} is not an integer")
    if sorted(action) != list(range(na)):
        raise NotAutomorphism(f"action is not a permutation of 0..{na - 1}")
    pack = row_type(na)
    act = pack(action)
    broken = first_broken_pair(rows, rows, act)
    if broken is not None:
        raise NotAutomorphism(f"action breaks the product at pair {broken}")
    powers = [pack(range(na))]
    for _ in range(m - 1):
        powers.append(compose_rows(act, powers[-1]))
    if compose_rows(act, powers[-1]) != powers[0]:
        raise ActionOrderMismatch(f"action to the power {m} is not the identity")
    check_cap(na * m)
    # (x, c)(y, d) = (x * act^c(y), c + d), indexed c*na + x
    pack = row_type(na * m)
    ref = pack(range(na * m))
    blocks = [ref[k * na:(k + 1) * na] for k in range(m)]
    table = []
    for c in range(m):
        for row in rows:
            twisted = compose_rows(row, powers[c])
            table.append(pack(b"".join(compose_rows(blocks[(c + d) % m], twisted) for d in range(m))))
    return table


def wall_H(r: int) -> FiniteGroup:
    """Central product of r copies of the dihedral group of order 8.

    Modeled on pairs (v, eps) with v in F_2^{2r}: generator x_i is bit 2i,
    y_i is bit 2i+1, and the product twists by the bilinear form
    B(v, w) = sum_i v[x_i] w[y_i] mod 2. Order 2^(2r+1).
    """
    require_int(r, "r", 1)
    check_power_cap(2, 2 * r + 1)
    n = 1 << (2 * r + 1)
    nv = 1 << (2 * r)
    xmask = 0
    for i in range(r):
        xmask |= 1 << (2 * i)
    table = [[0] * n for _ in range(n)]
    for v in range(nv):
        vx = v & xmask
        for eps in range(2):
            row = table[(v << 1) | eps]
            for w in range(nv):
                b = (vx & (w >> 1)).bit_count() & 1
                u = (v ^ w) << 1
                row[(w << 1)] = u | (eps ^ b)
                row[(w << 1) | 1] = u | (eps ^ b ^ 1)
    return FiniteGroup(table, name=f"H({r})")


def wall_S(r: int) -> FiniteGroup:
    """Split extension of C_2^{2r} by an involution sending each x_i to
    x_i y_i and fixing every y_i. Order 2^(2r+1)."""
    require_int(r, "r", 1)
    check_power_cap(2, 2 * r + 1)
    xmask = (1 << r) - 1
    action = [v ^ ((v & xmask) << r) for v in range(1 << (2 * r))]
    return FiniteGroup(_semidirect_rows(_abelian_rows([2] * (2 * r)), action, 2), name=f"S({r})")


def wall_T(r: int) -> FiniteGroup:
    """Split extension of C_2^{2r} by an order-3 map cycling
    x_i -> y_i -> x_i y_i -> x_i. Order 3*4^r."""
    require_int(r, "r", 1)
    check_power_cap(2, 2 * r, 3)
    xmask = (1 << r) - 1
    action = []
    for v in range(1 << (2 * r)):
        xpart = v & xmask
        ypart = v >> r
        action.append(ypart | ((xpart ^ ypart) << r))
    return FiniteGroup(_semidirect_rows(_abelian_rows([2] * (2 * r)), action, 3), name=f"T({r})")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: Optional[str] = None) -> FiniteGroup:
    check_cap(g1.order * g2.order)
    if name is None:
        name = f"{g1.name}x{g2.name}"
    return FiniteGroup(_product_rows(g1.table, g2.table), name=name)


def central_product(
    g1: FiniteGroup,
    g2: FiniteGroup,
    z1: Optional[int] = None,
    z2: Optional[int] = None,
    name: Optional[str] = None,
) -> FiniteGroup:
    """Quotient of the direct product identifying (z1, z2) with the
    identity; z1, z2 default to the unique central involutions."""
    chosen = []
    for g, z, side in ((g1, z1, "first"), (g2, z2, "second")):
        if z is None:
            found = [x for x in range(g.order) if g.center_mask >> x & 1 and g.element_orders[x] == 2]
            if len(found) != 1:
                raise NotCentralInvolution(f"{side} factor has {len(found)} central involutions; pass one explicitly")
            z = found[0]
        elif type(z) is not int or not 0 <= z < g.order or g.element_orders[z] != 2 or not g.center_mask >> z & 1:
            raise NotCentralInvolution(f"element {z!r:.40} of the {side} factor is not a central involution")
        chosen.append(z)
    z1, z2 = chosen
    check_cap(g1.order * g2.order // 2)
    if name is None:
        name = f"{g1.name}*{g2.name}"
    # the rows of G1 x G2, unvalidated, modulo the central {1, (z1, z2)}
    rows = _product_rows(g1.table, g2.table)
    return FiniteGroup(coset_rows(rows, (0, z1 * g2.order + z2)), name=name)


def dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m: a of order 2m, b^2 = a^m,
    b a b^-1 = a^-1. The m = 2 case is the quaternion group."""
    require_int(m, "dicyclic parameter", 2)
    n = 4 * m
    check_cap(n)
    k = 2 * m
    # a^j a^i = a^(j+i); a^j (a^i b) = a^(j+i) b
    # (a^j b) a^i = a^(j-i) b; (a^j b)(a^i b) = a^(j-i+m)
    table = [[0] * n for _ in range(n)]
    for j in range(k):
        for i in range(k):
            table[j][i] = (j + i) % k
            table[j][k + i] = k + (j + i) % k
            table[k + j][i] = k + (j - i) % k
            table[k + j][k + i] = (j - i + m) % k
    name = "Q8" if m == 2 else f"Dic{m}"
    return FiniteGroup(table, name=name)


def heisenberg(p: int) -> FiniteGroup:
    """Nonabelian group of order p^3 and exponent p (p odd prime): triples
    (a, b, c) with product (a+a', b+b', c+c'+a*b') mod p, indexed
    a*p^2 + b*p + c. That is (C_p x C_p) : C_p, whose generator a acts on
    (b, c), indexed b*p + c, by the shear (b, c) -> (b, c + b)."""
    if type(p) is int:
        check_cap(p ** 3)  # before the primality test, too slow for a large p
    require_prime(p)
    if p == 2:
        raise GroupError("exponent-p model needs an odd prime")
    shear = [b * p + (c + b) % p for b in range(p) for c in range(p)]
    return FiniteGroup(_semidirect_rows(_abelian_rows([p, p]), shear, p), name=f"Heis{p}")


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(i) = p(q(i))
    return tuple(p[j] for j in q)


def from_permutation_generators(degree: int, generators: Iterable[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Build the group generated by permutations of {0..degree-1}.

    Element 0 is the identity permutation; the remaining elements appear in
    breadth-first discovery order. Raises GroupTooLarge as soon as the
    closure grows past the construction cap.
    """
    require_int(degree, "degree", 1)
    gens = []
    for i, g in enumerate(generators):
        t = tuple(g)
        bad = next((j for j, v in enumerate(t) if type(v) is not int), None)
        if bad is not None:
            raise GroupError(f"generator {i} entry {bad} = {t[bad]!r:.40} is not an integer")
        if sorted(t) != list(range(degree)):
            raise GroupError(f"{t} is not a permutation of 0..{degree - 1}")
        gens.append(t)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    via = [(0, 0)]  # elems[i] = elems[j] o gens[k] for (j, k) = via[i]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for k, g in enumerate(gens):
                q = _compose(p, g)
                if q not in index:
                    check_cap(len(elems) + 1)
                    index[q] = len(elems)
                    via.append((index[p], k))
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    n = len(elems)
    # (p o g) o q = p o (g o q): the row of p o g is the row of p composed
    # with the row of g, so only the generators' rows need the index
    pack = row_type(n)
    gen_rows = [pack(index[_compose(g, q)] for q in elems) for g in gens]
    rows = [pack(range(n))]
    for j, k in via[1:]:
        rows.append(compose_rows(rows[j], gen_rows[k]))
    return FiniteGroup(rows, name=name)


def symmetric(n: int) -> FiniteGroup:
    require_int(n, "degree", 1)
    check_power_cap(2, n - 1)  # n! >= 2^(n - 1), so a large n is refused before n! is made
    check_cap(math.factorial(n))
    if n == 1:
        return cyclic(1)
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return from_permutation_generators(n, [cycle, swap], name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    require_int(n, "degree", 3)
    check_power_cap(2, n - 2)  # n!/2 >= 2^(n - 2), so a large n is refused before n! is made
    check_cap(math.factorial(n) // 2)
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2 == 1:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    return from_permutation_generators(n, [three, big], name=f"A{n}")


def trivial() -> FiniteGroup:
    return cyclic(1)


def _times_c2_power(g: FiniteGroup, k: int) -> FiniteGroup:
    """g x C2^k in one table, with C2^k built as rows and validated only
    inside the product. Product indexing is associative, so this is the
    table that taking the product with C2 k times gives."""
    if not k:
        return g
    check_cap(g.order << k)
    return FiniteGroup(_product_rows(g.table, _abelian_rows([2] * k)), name=g.name + "xC2" * k)


# the base groups of classify.recognize's comparisons, as (build, order,
# extends, tags): Theorem A subtypes II-V and VII-X (param is r for III-V,
# unread otherwise), and the dihedral group of order 2*param for the
# F7_D12 family. order(param) is the base group's order, extends says
# whether a factor C2^edim may follow it, and tags are the catalog tags
# of the entries that _recipes builds from it
_THEOREM_A_BASES = {
    "II": (lambda _: direct_product(dihedral(4), dihedral(4)), lambda _: 64, True, ()),
    "III": (wall_H, lambda r: 2 << 2 * r, True, ("wall-H", "generalized-extraspecial-seed")),
    "IV": (wall_S, lambda r: 2 << 2 * r, True, ("wall-S",)),
    "V": (wall_T, lambda r: 3 << 2 * r, False, ("wall-T",)),
    "VII": (lambda _: direct_product(symmetric(3), dihedral(4)), lambda _: 48, True, ("s3xd8xE",)),
    "VIII": (lambda _: direct_product(*[symmetric(3)] * 2), lambda _: 36, False, ("s3xs3",)),
    "IX": (lambda _: symmetric(4), lambda _: 24, False, ("s4",)),
    "X": (lambda _: alternating(5), lambda _: 60, False, ("a5",)),
    "F7_D12": (dihedral, lambda m: 2 * m, False, ()),
}


@lru_cache(maxsize=None)
def theorem_a_group(subtype: str, param: int, edim: int) -> FiniteGroup:
    """The base group of a recipe times C2^edim, built once per process;
    the catalog and the recognizers share it."""
    if edim:
        return _times_c2_power(theorem_a_group(subtype, param, 0), edim)
    return _THEOREM_A_BASES[subtype][0](param)


def theorem_a_recipes(n: int) -> Iterator[tuple[str, int, int]]:
    """Every (subtype, param, edim) whose theorem_a_group has order n, for
    the Theorem A subtypes II-V and VII-X, by subtype and then by r.
    Nothing is built here."""
    for subtype, (_, order, extends, _) in _THEOREM_A_BASES.items():
        if subtype == "F7_D12":
            continue
        for param in count(1) if subtype in ("III", "IV", "V") else (0,):
            base = order(param)
            if base > n:
                break
            edim = two_power_exponent(n // base) if n % base == 0 else None
            if edim is not None and (extends or edim == 0):
                yield subtype, param, edim


class CatalogEntry(NamedTuple):
    """A catalog group with the family labels asserted at construction."""

    name: str
    group: FiniteGroup
    known_tags: frozenset[str]


def _dihedral_of_type(typ: tuple[int, ...]) -> FiniteGroup:
    # built from A's rows: A is the index-2 subgroup of Dih(A), so
    # validating Dih(A) also validates A's table
    rows = _abelian_rows(typ)
    name = "x".join(f"C{f}" for f in typ)
    return FiniteGroup(_dihedral_rows(rows, [row.index(0) for row in rows]), name=f"D({name})")


def _cp2_swap(p: int) -> FiniteGroup:
    """C_p^2 : C2, the involution swapping the coordinates of C_p x C_p
    (indexed a*p + b)."""
    swap = [(v % p) * p + v // p for v in range(p * p)]
    return FiniteGroup(_semidirect_rows(_abelian_rows([p, p]), swap, 2), name=f"C{p}^2:C2swap")


# D8, Q8 and the seeds of the generalized extraspecial chains, built once
# per process: D8 is the small-order entry and the D8 factor of the seeds
_SEED_BUILDS = {
    "D8": partial(dihedral, 4),
    "Q8": partial(dicyclic, 2),
    "D8*C4": lambda: central_product(_seed("D8"), cyclic(4)),
    "D8*D8": lambda: central_product(_seed("D8"), _seed("D8")),
    "D8*Q8": lambda: central_product(_seed("D8"), _seed("Q8")),
}
# (order, seed): the chain of a seed is seed x C2^k for k >= 0
_CHAINS = ((8, "Q8"), (16, "D8*C4"), (32, "D8*D8"), (32, "D8*Q8"))


@cache
def _seed(name: str) -> FiniteGroup:
    return _SEED_BUILDS[name]()


def _chain_member(seed: str, k: int) -> FiniteGroup:
    return _times_c2_power(_seed(seed), k)


# the groups of order at most 15 after the cyclic one, in entry order
_SMALL_ORDER = {
    4: [partial(abelian, [2, 2])],
    6: [partial(symmetric, 3)],
    8: [partial(abelian, [2, 4]), partial(elementary_abelian, 2, 3), partial(_seed, "D8"), partial(dicyclic, 2)],
    9: [partial(abelian, [3, 3])],
    10: [partial(dihedral, 5)],
    12: [
        partial(abelian, [2, 6]),
        partial(theorem_a_group, "F7_D12", 6, 0),
        partial(dicyclic, 3),
        partial(alternating, 4),
    ],
    14: [partial(dihedral, 7)],
}


_Recipe = tuple[Callable[[], FiniteGroup], tuple[str, ...]]


def _recipes(n: int) -> list[_Recipe]:
    """The catalog's groups of order n as (build, tags), in the order they
    are entered; a group isomorphic to an earlier one gives that one its
    tags. Nothing is built here."""
    recipes: list[_Recipe] = []

    def add(build: Callable[[], FiniteGroup], *tags: str) -> None:
        recipes.append((build, tags))

    if n <= 15:
        add(partial(cyclic, n), "small-order")
        for build in _SMALL_ORDER.get(n, ()):
            add(build, "small-order")
    k = two_power_exponent(n)
    if k:
        # Dih(C2^(k-1)) is not built: C2^(k-1) has exponent at most 2, so
        # inversion fixes it, the involution centralizes it and
        # Dih(C2^(k-1)) = C2^(k-1) x C2 = C2^k
        add(partial(elementary_abelian, 2, k), "elementary-abelian-2", "generalized-dihedral")
        if k >= 2:
            add(partial(abelian, [2] * (k - 2) + [4]), "c2s-c4")
    if n % 2 == 0:
        for typ in abelian_type_list(n // 2):
            if set(typ) <= {2}:
                continue  # C2^k above
            tags = ["generalized-dihedral"]
            if len(set(typ)) == 1 and typ[0] > 2 and is_prime(typ[0]):
                tags.append("cpn-c2")
            if set(typ[:-1]) <= {2} and typ[-1] == 4:
                # D8 x E = Dih(C4 x E) for E of exponent 2: the involution
                # inverts E, that is centralizes it, so E is central, meets
                # Dih(C4) = D8 trivially and splits off. So the D8 seed
                # chain is not built, and these entries carry its tag.
                tags.append("generalized-extraspecial-seed")
            add(partial(_dihedral_of_type, typ), *tags)
    # every Theorem A recipe with edim 0 and every VII recipe, but no II
    # recipe: D8xD8xC2^e, H(r)xC2^e and S(r)xC2^e (e >= 1) are not built
    for subtype, param, edim in theorem_a_recipes(n):
        if subtype != "II" and (edim == 0 or subtype == "VII"):
            add(partial(theorem_a_group, subtype, param, edim), *_THEOREM_A_BASES[subtype][3])
    for order, seed in _CHAINS:
        k = two_power_exponent(n // order) if n % order == 0 else None
        if k is not None:
            add(partial(_chain_member, seed, k), "generalized-extraspecial-seed")
    if n in (3, 9, 27):
        add(partial(elementary_abelian, 3, {3: 1, 9: 2, 27: 3}[n]), "exponent-3")
    if n == 27:
        add(partial(heisenberg, 3), "exponent-3")
    odd = factorize(n // 2) if n % 2 == 0 else {}
    if len(odd) == 1 and 2 not in odd:
        ((p, nexp),) = odd.items()
        name = f"C{p}" if nexp == 1 else f"C{p}^{nexp}"
        add(partial(abelian, [p] * nexp + [2], f"{name}xC2"), "cpn-c2")
        if nexp == 2:
            add(partial(_cp2_swap, p), "cpn-c2")
    return recipes


def _order_entries(recipes: Iterable[_Recipe]) -> list[CatalogEntry]:
    """Build the recipes of one order, enter each group with its tags or
    add them to the earlier group it is isomorphic to, and give the kept
    groups sorted by name (stable, so in entry order on equal names)."""
    kept: list[tuple[FiniteGroup, set[str]]] = []
    # isomorphic groups have equal sorted element orders, so a group is
    # compared only with the earlier groups that share them
    by_orders: dict[tuple[int, ...], list[tuple[FiniteGroup, set[str]]]] = {}
    for build, tags in recipes:
        g = build()
        bucket = by_orders.setdefault(tuple(sorted(g.element_orders)), [])
        for h, h_tags in bucket:
            if is_isomorphic(h, g) is not None:
                h_tags.update(tags)
                break
        else:
            bucket.append((g, set(tags)))
            kept.append(bucket[-1])
    kept.sort(key=lambda pair: pair[0].name)
    return [CatalogEntry(name=g.name, group=g, known_tags=frozenset(tags)) for g, tags in kept]


def catalog(max_order: int, min_order: int = 1) -> tuple[CatalogEntry, ...]:
    """All isomorphism types through order min(max_order, 15), plus named
    family representatives up to max_order, pairwise non-isomorphic,
    sorted by (order, name); with min_order, only the entries of order at
    least min_order. Isomorphic groups have equal orders, so each order's
    groups are built and deduplicated on their own: catalog(n, n) is the
    order-n part of every catalog(m) with m >= n.

    Raises GroupTooLarge only if two groups with the same element orders
    meet above the isomorphism cap (iso.DEFAULT_ISO_CAP)."""
    require_int(max_order, "max_order", 1)
    require_int(min_order, "min_order", 1)
    return tuple(chain.from_iterable(_order_entries(_recipes(n)) for n in range(min_order, max_order + 1)))
