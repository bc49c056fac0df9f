"""Constructors for named group families and a small-order catalog.

Concrete models only: pairs, triples, bit vectors with twisted products,
and the closure of a set of permutations. Every constructor returns a fully validated FiniteGroup. Tables
of products and extensions are built a row at a time, by slicing the
identity row and composing rows (core.compose_rows, and core.compose_each
where many rows are composed with one).
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence

from .arith import abelian_type_list, is_prime, primes_upto, require_int, require_prime
from .core import (
    FiniteGroup,
    check_cap,
    compose_each,
    compose_rows,
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
    require_prime(p)
    require_int(k, "rank", 0)
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
    n = 1 << (2 * r + 1)
    check_cap(n)
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
    check_cap(1 << (2 * r + 1))
    xmask = (1 << r) - 1
    action = [v ^ ((v & xmask) << r) for v in range(1 << (2 * r))]
    return FiniteGroup(_semidirect_rows(_abelian_rows([2] * (2 * r)), action, 2), name=f"S({r})")


def wall_T(r: int) -> FiniteGroup:
    """Split extension of C_2^{2r} by an order-3 map cycling
    x_i -> y_i -> x_i y_i -> x_i. Order 3*4^r."""
    require_int(r, "r", 1)
    check_cap(3 << (2 * r))
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


def _central_involutions(g: FiniteGroup) -> list[int]:
    zmask = g.center_mask
    return [x for x in range(g.order) if zmask >> x & 1 and g.element_orders[x] == 2]


def central_product(
    g1: FiniteGroup,
    g2: FiniteGroup,
    z1: Optional[int] = None,
    z2: Optional[int] = None,
    name: Optional[str] = None,
) -> FiniteGroup:
    """Quotient of the direct product identifying (z1, z2) with the
    identity; z1, z2 default to the unique central involutions."""
    for g, z, side in ((g1, z1, "first"), (g2, z2, "second")):
        if z is None:
            found = _central_involutions(g)
            if len(found) != 1:
                raise NotCentralInvolution(
                    f"{side} factor has {len(found)} central involutions; pass one explicitly"
                )
    if z1 is None:
        z1 = _central_involutions(g1)[0]
    if z2 is None:
        z2 = _central_involutions(g2)[0]
    for g, z, side in ((g1, z1, "first"), (g2, z2, "second")):
        if type(z) is not int or not 0 <= z < g.order or g.element_orders[z] != 2 or not g.center_mask >> z & 1:
            raise NotCentralInvolution(f"element {z!r:.40} of the {side} factor is not a central involution")
    n1, n2 = g1.order, g2.order
    n = n1 * n2 // 2
    check_cap(n)
    # (a, b) ~ (a z1, b z2). Scanning pairs in index order labels the class
    # of (a, b) k*n2 + b when a is the k-th a with a < a z1, and as (a z1,
    # b z2) otherwise; z2 is central, so the class of (a, b)(c, d) is read
    # from block k of ac shifted by row b, or by row b z2 when ac is flipped.
    t1, t2 = g1.table, g2.table
    rank = {a: k for k, a in enumerate(a for a in range(n1) if a < t1[a][z1])}
    ref = row_type(n)(range(n))
    blocks = [[compose_rows(ref[k * n2:(k + 1) * n2], row) for row in t2] for k in range(n1 // 2)]
    flipped = [[block[t2[b][z2]] for b in range(n2)] for block in blocks]
    table = []
    for a in rank:
        parts = [blocks[rank[x]] if x in rank else flipped[rank[t1[x][z1]]] for x in map(t1[a].__getitem__, rank)]
        table += [row_type(n)(b"".join(part[b] for part in parts)) for b in range(n2)]
    if name is None:
        name = f"{g1.name}*{g2.name}"
    return FiniteGroup(table, name=name)


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
    (a, b, c) with product (a+a', b+b', c+c'+a*b') mod p."""
    require_prime(p)
    if p == 2:
        raise GroupError("exponent-p model needs an odd prime")
    n = p ** 3
    check_cap(n)
    triples = [(x // (p * p), x // p % p, x % p) for x in range(n)]
    table = [
        [(a1 + a2) % p * p * p + (b1 + b2) % p * p + (c1 + c2 + a1 * b2) % p for a2, b2, c2 in triples]
        for a1, b1, c1 in triples
    ]
    return FiniteGroup(table, name=f"Heis{p}")


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
    if n == 1:
        return cyclic(1)
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return from_permutation_generators(n, [cycle, swap], name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    require_int(n, "degree", 3)
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2 == 1:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    return from_permutation_generators(n, [three, big], name=f"A{n}")


def trivial() -> FiniteGroup:
    return cyclic(1)


class CatalogEntry(NamedTuple):
    """A catalog group with the family labels asserted at construction."""

    name: str
    group: FiniteGroup
    known_tags: frozenset[str]


def _swap_action(p: int) -> list[int]:
    # coordinate swap on C_p x C_p indexed a*p + b
    return [(v % p) * p + v // p for v in range(p * p)]


def catalog(max_order: int) -> tuple[CatalogEntry, ...]:
    """All isomorphism types through order min(max_order, 15), plus named
    family representatives up to max_order, pairwise non-isomorphic.

    Raises GroupTooLarge only if two groups with the same element orders
    meet above the isomorphism cap (iso.DEFAULT_ISO_CAP)."""
    require_int(max_order, "max_order", 1)
    found: list[tuple[FiniteGroup, set[str]]] = []
    # isomorphic groups have equal sorted element orders, so a group is
    # compared only with the earlier groups that share them
    by_orders: dict[tuple[int, ...], list[tuple[FiniteGroup, set[str]]]] = {}

    def add(g: FiniteGroup, *tags: str) -> None:
        if g.order > max_order:
            return
        bucket = by_orders.setdefault(tuple(sorted(g.element_orders)), [])
        for other, known in bucket:
            if is_isomorphic(other, g) is not None:
                known.update(tags)
                return
        bucket.append((g, set(tags)))
        found.append(bucket[-1])

    # factors that are only multiplied in are built as rows, not as groups
    c2 = _cyclic_rows(2)

    def times_c2(g: FiniteGroup) -> FiniteGroup:
        check_cap(2 * g.order)
        return FiniteGroup(_product_rows(g.table, c2), name=f"{g.name}xC2")

    small = min(max_order, 15)
    for n in range(1, small + 1):
        add(cyclic(n), "small-order")
    extras = {
        4: [lambda: abelian([2, 2])],
        6: [lambda: symmetric(3)],
        8: [
            lambda: abelian([2, 4]),
            lambda: elementary_abelian(2, 3),
            lambda: dihedral(4),
            lambda: dicyclic(2),
        ],
        9: [lambda: abelian([3, 3])],
        10: [lambda: dihedral(5)],
        12: [
            lambda: abelian([2, 6]),
            lambda: dihedral(6),
            lambda: dicyclic(3),
            lambda: alternating(4),
        ],
        14: [lambda: dihedral(7)],
    }
    for n, builders in extras.items():
        if n <= small:
            for build in builders:
                add(build(), "small-order")

    k = 1
    while 2 ** k <= max_order:
        add(elementary_abelian(2, k), "elementary-abelian-2")
        k += 1
    s = 1
    while 2 ** (s + 1) <= max_order:
        add(abelian([2] * (s - 1) + [4]), "c2s-c4")
        s += 1
    for a_order in range(1, max_order // 2 + 1):
        for typ in abelian_type_list(a_order):
            # built from A's rows: A is the index-2 subgroup of Dih(A), so
            # validating Dih(A) also validates A's table
            rows = _abelian_rows(typ)
            name = "x".join(f"C{f}" for f in typ) or "C1"
            g = FiniteGroup(_dihedral_rows(rows, [row.index(0) for row in rows]), name=f"D({name})")
            odd_elementary = len(set(typ)) == 1 and typ[0] > 2 and is_prime(typ[0])
            add(g, "generalized-dihedral", *("cpn-c2",) * odd_elementary)
    r = 1
    while 2 ** (2 * r + 1) <= max_order:
        add(wall_H(r), "wall-H", "generalized-extraspecial-seed")
        add(wall_S(r), "wall-S")
        r += 1
    r = 1
    while 3 * 4 ** r <= max_order:
        add(wall_T(r), "wall-T")
        r += 1
    if max_order >= 8:
        d8 = dihedral(4)
        q8 = dicyclic(2)
        seeds = [d8, q8]
        if max_order >= 16:
            seeds.append(central_product(d8, cyclic(4)))
        if max_order >= 32:
            seeds.append(central_product(d8, d8))
            seeds.append(central_product(d8, q8))
        for seed in seeds:
            g = seed
            add(g, "generalized-extraspecial-seed")
            while g.order * 2 <= max_order:
                g = times_c2(g)
                add(g, "generalized-extraspecial-seed")
    k = 1
    while 3 ** k <= max_order and k <= 3:
        add(elementary_abelian(3, k), "exponent-3")
        k += 1
    if max_order >= 27:
        add(heisenberg(3), "exponent-3")
    for p in primes_upto(max_order // 2):
        if p == 2:
            continue
        nexp = 1
        while 2 * p ** nexp <= max_order:
            rows, name = _abelian_rows([p] * nexp), f"C{p}" if nexp == 1 else f"C{p}^{nexp}"
            add(FiniteGroup(_product_rows(rows, c2), name=f"{name}xC2"), "cpn-c2")
            if nexp == 2:
                add(FiniteGroup(_semidirect_rows(rows, _swap_action(p), 2), name=f"{name}:C2swap"), "cpn-c2")
            nexp += 1
    if max_order >= 36:
        s3 = symmetric(3)
        add(direct_product(s3, s3), "s3xs3")
    if max_order >= 48:
        g = direct_product(s3, d8)
        add(g, "s3xd8xE")
        while g.order * 2 <= max_order:
            g = times_c2(g)
            add(g, "s3xd8xE")
    if max_order >= 24:
        add(symmetric(4), "s4")
    if max_order >= 60:
        add(alternating(5), "a5")

    found.sort(key=lambda pair: (pair[0].order, pair[0].name))
    return tuple(CatalogEntry(name=g.name, group=g, known_tags=frozenset(tags)) for g, tags in found)
