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

Conjugation: the walk visits one representative per conjugacy class.
When a cover K is new, its whole class is numbered at once, by a
breadth-first walk over conjugation by the members of g.generators that
commute with some generator (the others act trivially). H -> H^u is an
automorphism of the subgroup order, so a member M = R^u of the class of
a representative R has the upper covers {C^u : C a cover of R}, a table
gather per cover in place of the closures. Every subgroup is still
numbered: if L covers some numbered M = R^u, then L^(u^-1) covers R, so
it is found when R is visited and its class, which holds L, is numbered.
closures counts the closures made for the representatives only; an
abelian group has one subgroup per class and gets the plain walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .arith import factorize, is_prime, split_power
from .core import FiniteGroup, Subgroup, extend_closure
from .errors import GroupError, GroupTooLarge

DEFAULT_LATTICE_CAP = 256
DEFAULT_MAX_SUBGROUPS = 100_000


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree split into down-degree (covered subgroups) and
    up-degree (covering subgroups); degrees[i] = down[i] + up[i]."""

    degrees: tuple[int, ...]
    down: tuple[int, ...]
    up: tuple[int, ...]


class SubgroupLattice:
    """The covering graph of all subgroups of one finite group.

    Subgroups are sorted by (order, membership bitset); index 0 is the
    trivial subgroup and the last index is the whole group. upper[i] and
    lower[i] list, ascending, the subgroups covering and covered by
    subgroup i. closures counts the subgroup closures the walk computed.
    """

    def __init__(self, parent: FiniteGroup, subgroups, upper, closures: int):
        self.parent = parent
        self.subgroups: tuple[Subgroup, ...] = tuple(subgroups)
        self.upper: tuple[tuple[int, ...], ...] = tuple(upper)
        lower: list[list[int]] = [[] for _ in self.upper]
        for i, above in enumerate(self.upper):
            for j in above:
                lower[j].append(i)
        self.lower = tuple(map(tuple, lower))
        self.edge_count = sum(map(len, self.upper))
        self.closures = closures
        self._index = {s.mask: i for i, s in enumerate(self.subgroups)}
        self._up, self._down = tuple(map(len, self.upper)), tuple(map(len, self.lower))

    def __len__(self) -> int:
        return len(self.subgroups)

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
        best = max(range(len(self.subgroups)), key=lambda i: (self._up[i] + self._down[i], -i))
        return self.subgroups[best], self._up[best] + self._down[best]

    def atoms(self) -> list[Subgroup]:
        return [self.subgroups[j] for j in self.upper[0]]

    def maximal_subgroups(self) -> list[Subgroup]:
        return [self.subgroups[i] for i in self.lower[-1]]

    def max_p(self, p: int) -> list[Subgroup]:
        """Maximal subgroups of index a power of p."""
        return [h for h in self.maximal_subgroups() if split_power(h.index, p)[1] == 1]

    def frattini(self) -> Subgroup:
        mask = self.subgroups[-1].mask
        for h in self.maximal_subgroups():
            mask &= h.mask
        return self.subgroups[self._index[mask]]

    def o_p(self, p: int) -> Subgroup:
        """Smallest normal subgroup whose index is a power of p, as the
        intersection of all normal subgroups of p-power index."""
        mask = self.subgroups[-1].mask
        for s in self.subgroups:
            if split_power(s.index, p)[1] == 1 and s.is_normal:
                mask &= s.mask
        if mask not in self._index:
            raise GroupError(f"normal p-power-index intersection is not a vertex for p={p}")
        result = self.subgroups[self._index[mask]]
        if split_power(result.index, p)[1] != 1:
            raise GroupError(f"intersection has index {result.index}, not a power of {p}")
        return result

    def interval_atoms(self, h: Subgroup) -> list[Subgroup]:
        """Subgroups covering h, i.e. the atoms of the interval [h, G]."""
        return [self.subgroups[j] for j in self.upper[self.index_of(h)]]

    def export_dot(self) -> str:
        nodes = [f'  n{i} [label="{s.order}"];' for i, s in enumerate(self.subgroups)]
        edges = [f"  n{i} -> n{j};" for i, j in self.covers]
        return "\n".join([f'digraph "{self.parent.name}" {{', "  rankdir=BT;", *nodes, *edges, "}"]) + "\n"

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


def _conjugate(rows, inv, elems, u: int) -> int:
    """Mask of u^-1 K u, for K given by its elements."""
    left, mask = rows[inv[u]], 0
    for k in elems:
        mask |= 1 << rows[left[k]][u]
    return mask


def _cover_walk(g: FiniteGroup) -> SubgroupLattice:
    rows, inv = g.table, g.inverses
    gens = _cyclic_prime_power_generators(g)
    # conjugation by a generator that commutes with every generator is trivial
    movers = [s for s in g.generators if any(rows[s][t] != rows[t][s] for t in g.generators)]
    found: dict[int, int] = {}  # mask -> discovery number
    upper: list = []  # discovery number -> those of its upper covers
    queue: deque = deque()  # (mask, elements, generators, conjugates) of class representatives

    def register(k_mask: int, k_elems: tuple[int, ...], basis: tuple[int, ...]) -> None:
        """Number the conjugacy class of K and queue K as its representative,
        with (number, u) for each other member K^u."""
        orbit = {k_mask: 0}
        frontier = [0]
        for t in frontier:
            for s in movers:
                u = rows[t][s]
                m = _conjugate(rows, inv, k_elems, u)
                if m not in orbit:
                    orbit[m] = u
                    frontier.append(u)
        for m in orbit:
            found[m] = len(found)
            upper.append(None)
            if len(found) > DEFAULT_MAX_SUBGROUPS:
                raise GroupTooLarge(f"{g.name} has more than {DEFAULT_MAX_SUBGROUPS} subgroups: {len(found)} reached")
        del orbit[k_mask]
        queue.append((k_mask, k_elems, basis, tuple((found[m], u) for m, u in orbit.items())))

    register(1, (0,), ())
    closures = 0
    while queue:
        mask, elems, basis, conjugates = queue.popleft()
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
            if k_mask not in found:
                new, x = candidates[k_mask]
                register(k_mask, elems + new, basis + (x,))
        upper[found[mask]] = [found[c] for c in covers]
        if conjugates:
            cover_elems = [elems + candidates[c][0] for c in covers]
            for number, u in conjugates:
                upper[number] = [found[_conjugate(rows, inv, k, u)] for k in cover_elems]
    masks = sorted(found, key=lambda m: (m.bit_count(), m))
    position = {found[m]: r for r, m in enumerate(masks)}
    upper_index = [tuple(sorted(position[e] for e in upper[found[m]])) for m in masks]
    return SubgroupLattice(g, [Subgroup(g, m, check=False) for m in masks], upper_index, closures)


def all_subgroups(g: FiniteGroup) -> SubgroupLattice:
    """Every subgroup of g with its covering graph, built anew on each call.
    Raises GroupTooLarge past DEFAULT_LATTICE_CAP in order or
    DEFAULT_MAX_SUBGROUPS subgroups."""
    if g.order > DEFAULT_LATTICE_CAP:
        raise GroupTooLarge(f"{g.name} has order {g.order}, over the lattice cap {DEFAULT_LATTICE_CAP}")
    return _cover_walk(g)
