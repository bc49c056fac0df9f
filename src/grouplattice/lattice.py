"""Subgroup enumeration and the covering graph of the subgroup order.

Vertices are all subgroups; edges join H < K with nothing strictly
between. One walk builds both, following covers up from the trivial
subgroup (Neubueser's cyclic extension method, kept to covers). X holds
one generator of each cyclic subgroup of prime-power order > 1.

Cover rule: the upper covers of H are the minimal members, under the
mask test l & k == l, of C(H) = {<H, x> : x in X \\ H}. If K covers H,
any y in K \\ H has a prime-power part (a power of y) outside H, which
generates <x> for some x in X; so x is in K \\ H and <H, x> = K. A
minimal M in C(H) contains a cover of H, which is in C(H), so it is M.
Every subgroup tops a chain of covers, so the walk reaches it.

Two rules skip closures while C(H) is built:
(a) if [<H, x> : H] is prime, <H, x> is a cover, and every generator in
    it gives that same cover;
(b) each y in the double coset HxH has <H, y> = <H, x>: y = h1 x h2 is
    in <H, x>, and x = h1^-1 y h2^-1 is in <H, y>. So a generator whose
    cyclic subgroup has a generator in HxH is skipped.

Automorphisms: the walk visits one representative per orbit of subgroups
under the group A of automorphisms that the movers generate. The movers
are element maps: conjugation by each member of g.generators that
commutes with some generator (the others act trivially), and the
non-inner automorphisms that iso.automorphisms finds. When a cover K is
new, its whole orbit is numbered at once, by a breadth-first walk over
the movers. An automorphism a maps the subgroup order onto itself, so a
member a(R) of the orbit of a representative R has the upper covers
{a(C) : C a cover of R}. Every subgroup is still numbered: if L covers
some numbered M = a(R), then a^-1(L) covers R, so it is found when R is
visited and its orbit, which holds L, is numbered. The proof uses only
that each mover is an automorphism, and each is one: a conjugation, or a
homomorphism that the search extended onto all n elements. The search
decides only how many orbits merge, never the answer.

Degrees per orbit: members get no closure and no cover gather. up(a(R))
= up(R), the number of covers of R. Let c(R -> O) count the covers of R
that lie in the orbit O. Counting the edges from the orbit O_R into the
orbit O_K from both ends gives |O_R| c(R -> O_K) = |O_K| times the
number of members of O_R that K covers, so

    down(K) = sum over representatives R of |O_R| c(R -> O_K) / |O_K|,

and edge_count = sum over R of |O_R| up(R). The edge lists themselves
(upper, covers) are built on first access, and export_dot yields its
lines from upper. closures counts the closures made for the
representatives, orbits the orbits.

Size: the order cap DEFAULT_LATTICE_CAP is the only size rule. Inside it
the largest lattice is that of C2^8, with 417,199 subgroups.

Per-vertex answers per orbit: vertex_orbit maps each subgroup to its
orbit. An automorphism a preserves the order and the degree of a
subgroup H; H is normal iff a(H) is, since a(x H x^-1) = a(x) a(H) a(x)^-1
and a is onto; H has exponent 2 iff a(H) has, since a preserves element
orders; and x H -> a(x) a(H) is an isomorphism G/H -> G/a(H). So a
per-subgroup answer built from these (the Lemma 2.1 report of
`verify lemma21`) is the same on every member of an orbit, and a caller
may compute it once per orbit.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import cached_property
from typing import Iterator, NamedTuple

from .arith import factorize, is_prime, split_power
from .core import FiniteGroup, Subgroup, _mask_elements, compose_rows, extend_closure
from .errors import CheckFailed, GroupError, GroupTooLarge
from .iso import automorphisms

DEFAULT_LATTICE_CAP = 256


class DegreeProfile(NamedTuple):
    """Per-vertex degree split into down-degree (covered subgroups) and
    up-degree (covering subgroups); degrees[i] = down[i] + up[i]."""

    degrees: tuple[int, ...]
    down: tuple[int, ...]
    up: tuple[int, ...]


class SubgroupLattice:
    """The covering graph of all subgroups of one finite group.

    Subgroups are sorted by (order, membership bitset); index 0 is the
    trivial subgroup and the last index is the whole group. The walk
    leaves one orbit of subgroups under automorphisms of the group per
    representative with that representative's upper covers; degrees,
    edge_count, atoms and maximal subgroups come from those counts.
    vertex_orbit[i] is the number of the orbit of subgroup i; the first
    vertex of each orbit in index order need not be its representative.
    upper[i], the indices of the subgroups covering subgroup i in
    ascending order (the atoms of the interval [H_i, G]), is built on
    first access by carrying the representatives' covers along their
    orbits. closures counts the subgroup closures the walk computed,
    orbits the orbits it found.
    """

    def __init__(self, parent: FiniteGroup, orbit_of: dict[int, int], reps, movers, closures: int):
        self.parent = parent
        self.masks: tuple[int, ...] = tuple(sorted(orbit_of, key=lambda m: (m.bit_count(), m)))
        self.vertex_orbit = tuple(orbit_of[m] for m in self.masks)
        self._reps = reps  # orbit -> (representative mask, its upper covers' masks)
        self._movers = movers
        self.closures = closures
        self.orbits = len(reps)
        size = [0] * self.orbits
        for o in self.vertex_orbit:
            size[o] += 1
        # the edges whose upper end lies in the orbit O of K number |O| down(K),
        # and sum_R |O_R| c(R -> O) counted from their lower ends
        below = [0] * self.orbits
        for (_, covers), n in zip(reps, size):
            for c in covers:
                below[orbit_of[c]] += n
        up = [len(covers) for _, covers in reps]
        self.edge_count = sum(map(operator.mul, up, size))
        self._up = tuple(up[o] for o in self.vertex_orbit)
        self._down = tuple(below[o] // size[o] for o in self.vertex_orbit)

    @cached_property
    def subgroups(self) -> tuple[Subgroup, ...]:
        return tuple(Subgroup(self.parent, m, check=False) for m in self.masks)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def upper(self) -> tuple[tuple[int, ...], ...]:
        """A member phi(R) of the orbit of a representative R has the upper
        covers phi(C) for C a cover of R; the orbit walk is run again from
        each R, carrying phi^-1, in place of keeping a map per member."""
        index, upper = self._index, [()] * len(self.masks)
        identity = bytes(range(256))
        for rep, covers in self._reps:
            rep_vector = _vector(_mask_elements(rep))
            cover_vectors = [_vector(_mask_elements(c)) for c in covers]
            for mask, psi in _orbit(identity, self._movers, rep_vector):
                upper[index[mask]] = tuple(sorted(index[_vector_mask(psi.translate(c))] for c in cover_vectors))
        return tuple(upper)

    def __len__(self) -> int:
        return len(self.masks)

    def index_of(self, h: Subgroup) -> int:
        if h.parent is not self.parent or h.mask not in self._index:
            raise GroupError(f"subgroup is not a vertex of the {self.parent.name} lattice")
        return self._index[h.mask]

    @property
    def covers(self) -> list[tuple[int, int]]:
        return [(i, j) for i, above in enumerate(self.upper) for j in above]

    def degree(self, h) -> int:
        i = h if isinstance(h, int) else self.index_of(h)
        return self._up[i] + self._down[i]

    def degree_profile(self) -> DegreeProfile:
        degrees = tuple(u + d for u, d in zip(self._up, self._down))
        return DegreeProfile(degrees=degrees, down=self._down, up=self._up)

    def max_degree(self) -> tuple[Subgroup, int]:
        """The vertex of largest degree; ties broken by smallest order,
        then smallest membership bitset (index order, hence -i)."""
        best = max(range(len(self.masks)), key=lambda i: (self._up[i] + self._down[i], -i))
        return self.subgroups[best], self._up[best] + self._down[best]

    def atoms(self) -> list[Subgroup]:
        return [s for s in self.subgroups if is_prime(s.order)]

    @cached_property
    def _maximal(self) -> tuple[Subgroup, ...]:
        # the group is an orbit of its own; the orbits whose representative it covers are maximal
        top = self.masks[-1]
        maximal = {o for o, (_, covers) in enumerate(self._reps) if top in covers}
        return tuple(s for s, o in zip(self.subgroups, self.vertex_orbit) if o in maximal)

    def maximal_subgroups(self) -> list[Subgroup]:
        """The maximal subgroups, in vertex order, as a new list each call."""
        return list(self._maximal)

    def max_p(self, p: int) -> list[Subgroup]:
        """Maximal subgroups of index a power of p."""
        return [h for h in self.maximal_subgroups() if split_power(h.index, p)[1] == 1]

    def frattini(self) -> Subgroup:
        mask = self.masks[-1]
        for h in self.maximal_subgroups():
            mask &= h.mask
        return self.subgroups[self._index[mask]]

    def o_p(self, p: int) -> Subgroup:
        """O^p(G), the smallest normal subgroup whose index is a power of p,
        as the closure N of the p'-elements (order prime to p). They form
        a union of conjugacy classes, so N is normal. Each x in G is the
        product of a p-element and a p'-element that are powers of x, so
        xN has p-power order and G/N is a p-group. A normal subgroup of
        p-power index holds every p'-element, so it contains N."""
        g = self.parent
        mask = g.closure_mask(x for x, k in enumerate(g.element_orders) if k % p)
        if mask not in self._index:
            raise CheckFailed(f"closure of the {p}'-elements is not a vertex")
        result = self.subgroups[self._index[mask]]
        if split_power(result.index, p)[1] != 1:
            raise CheckFailed(f"closure of the {p}'-elements has index {result.index}, not a power of {p}")
        return result

    def export_dot(self) -> Iterator[str]:
        """The covering graph in DOT, one newline-terminated line at a time:
        a node per subgroup labelled with its order, then an edge from each
        subgroup to each of its upper covers."""
        yield f'digraph "{self.parent.name}" {{\n'
        yield "  rankdir=BT;\n"
        for i, mask in enumerate(self.masks):
            yield f'  n{i} [label="{mask.bit_count()}"];\n'
        for i, above in enumerate(self.upper):
            for j in above:
                yield f"  n{i} -> n{j};\n"
        yield "}\n"

    def report(self) -> dict:
        profile = self.degree_profile()
        vertex, deg = self.max_degree()
        return {
            "group": self.parent.name,
            "order": self.parent.order,
            "subgroup_count": len(self.subgroups),
            "degree_sequence": sorted(profile.degrees),
            "max_degree": deg,
            "max_degree_order": vertex.order,
            "delta": self.parent.delta,
            "edge_count": self.edge_count,
        }


def _cyclic_prime_power_generators(g: FiniteGroup) -> list[tuple[int, int]]:
    """(x, same) for one x per cyclic subgroup of prime-power order > 1:
    x is the smallest element generating it, same the mask of all that do."""
    claimed = 0
    out = []
    for x in range(1, g.order):
        primes = factorize(g.element_orders[x])
        if claimed >> x & 1 or len(primes) != 1:
            continue
        (p,) = primes
        same, y, k = 0, x, 1
        while y:  # y = x^k generates <x> iff p does not divide k
            if k % p:
                same |= 1 << y
            y, k = g.table[y][x], k + 1
        claimed |= same
        out.append((x, same))
    return out


def _double_coset(rows, h_elems, x: int) -> int:
    """Mask of HxH, swept one right coset H*w at a time."""
    mask = 0
    for h in h_elems:
        w = rows[x][h]
        if not mask >> w & 1:
            for k in h_elems:
                mask |= 1 << rows[k][w]
    return mask


_BITS = bytes.maketrans(b"\0\1", b"01")


def _vector(elems) -> bytes:
    """The membership vector of a set of elements: 256 bytes, 1 at each."""
    vector = bytearray(256)
    for x in elems:
        vector[x] = 1
    return bytes(vector)


def _vector_mask(vector: bytes) -> int:
    return int(vector.translate(_BITS)[::-1], 2)


def _orbit(label: bytes, movers, rep: bytes | None = None):
    """Breadth-first walk of the orbit of a subgroup under the group that
    the movers generate; yields (mask, label) once per member.

    Everything is a 256-byte string (the lattice cap keeps the order
    within 256), so one C-level translate applies a map. A mover is the
    inverse a^-1 of an automorphism a, padded with fixed points, and
    a^-1.translate(v) is the membership vector of a(S) when v is that of
    S. A label is the member's vector; or, given the vector rep of a
    subgroup R, the inverse psi of a map phi that carries R onto the
    member, whose vector is then psi.translate(rep). The mover a turns
    psi into (a phi)^-1 = a^-1.translate(psi) in the same way."""
    first = label if rep is None else label.translate(rep)
    seen = {first}
    yield _vector_mask(first), label
    frontier = [label]
    for label in frontier:
        for s in movers:
            image = s.translate(label)
            vector = image if rep is None else image.translate(rep)
            if vector not in seen:
                seen.add(vector)
                frontier.append(image)
                yield _vector_mask(vector), image


def _movers(g: FiniteGroup) -> list[bytes]:
    """The inverses, padded to 256 bytes, of automorphisms of g:
    conjugation x -> s^-1 x s by each member of g.generators that commutes
    with some generator (the others act trivially), then the non-inner
    automorphisms that the search finds."""
    rows, inv, n = g.table, g.inverses, g.order
    maps = [
        compose_rows(bytes(rows[x][s] for x in range(n)), rows[inv[s]])
        for s in g.generators
        if any(rows[s][t] != rows[t][s] for t in g.generators)
    ]
    identity = bytes(range(n))
    return [bytes.maketrans(a, identity) for a in maps + [bytes(m) for m in automorphisms(g)]]


def _cover_walk(g: FiniteGroup) -> SubgroupLattice:
    rows = g.table
    gens = _cyclic_prime_power_generators(g)
    movers = _movers(g)
    orbit_of: dict[int, int] = {}  # mask -> orbit number
    reps: list = []  # orbit number -> (representative mask, masks of its upper covers)
    queue: deque = deque()  # (orbit, mask, elements, generators) of representatives

    def register(k_mask: int, k_elems: tuple[int, ...], basis: tuple[int, ...]) -> None:
        """Number the orbit of K and queue K as its representative."""
        orbit = len(reps)
        for mask, _ in _orbit(_vector(k_elems), movers):
            orbit_of[mask] = orbit
        reps.append(None)
        queue.append((orbit, k_mask, k_elems, basis))

    register(1, (0,), ())
    closures = 0
    while queue:
        orbit, mask, elems, basis = queue.popleft()
        skip = mask  # H, then each cover of rule (a) and double coset of rule (b)
        candidates: dict[int, tuple[tuple[int, ...], int]] = {}
        for x, same in gens:
            if skip & same:
                continue
            k_mask, new = extend_closure(rows, mask, elems, basis, x)
            closures += 1
            skip |= k_mask if is_prime(len(new) // len(elems) + 1) else _double_coset(rows, elems, x)
            candidates.setdefault(k_mask, (new, x))
        covers: list[int] = []
        for k_mask in sorted(candidates, key=lambda m: len(candidates[m][0])):
            if any(c & k_mask == c for c in covers):
                continue
            covers.append(k_mask)
            if k_mask not in orbit_of:
                new, x = candidates[k_mask]
                register(k_mask, elems + new, basis + (x,))
        reps[orbit] = (mask, tuple(covers))
    return SubgroupLattice(g, orbit_of, reps, movers, closures)


def all_subgroups(g: FiniteGroup) -> SubgroupLattice:
    """Every subgroup of g with its covering graph, built anew on each call.
    Raises GroupTooLarge past DEFAULT_LATTICE_CAP in order, the only size
    rule. Inside the cap the largest lattice is that of C2^8: 417,199
    subgroups, built in about 4 s at 131 MB peak RSS."""
    if g.order > DEFAULT_LATTICE_CAP:
        raise GroupTooLarge(f"{g.name} has order {g.order}, over the lattice cap {DEFAULT_LATTICE_CAP}")
    return _cover_walk(g)
