"""Family recognizers and exhaustive theorem verifiers.

recognize() labels a group with every family it belongs to; the
verify_* functions sweep a catalog and compare a degree property
against family membership, reporting counterexamples.

The three degree verifiers (theorem-1.1, cor-1.2, cor-1.3) read two
facts of a group of order n: its top vertex degree, where it is at
least (n - 1)/2, and whether some vertex has degree exactly n/2.
verify_theorem_1_1 recognizes first and asks only for a group in no
family. _degree_summary gives both facts, and builds a lattice only for
a group of order below 12 or one that is not nilpotent.

The reduction rests on Lemma 2.1 (bounds.lemma_2_1, checked on every
vertex by `verify lemma21`): a subgroup of order d has degree at most
d + n/d - 2, with equality exactly when it is normal and it and its
quotient are elementary abelian 2-groups. For 3 <= d <= n/3 the bound
is convex in d, so it is at most its value at the ends, 3 + n/3 - 2 =
n/3 + 1, and n/3 + 1 <= n/2 - 1 when n >= 12. A divisor d of n outside
that range is 1, 2, n/2 or n. The vertex of order 1 has degree delta(G),
the number of subgroups of prime order; the vertex of order n has degree
m(G), the number of maximal subgroups. A vertex of order 2 or n/2 has
degree at most n/2, with n/2 exactly in Lemma 2.1's equality case:

- order 2: H = <t> is normal, so t is a central involution, and G/H is
  elementary abelian 2, so every square lies in <t>. Then G is a 2-group
  with G'G^2 <= <t>: elementary abelian (F3), or, with |G^2| = 2,
  abelian C2^(s-1) x C4 (F4) or nonabelian with G' = G^2 of order 2
  (F5). Each of F3, F4 and F5 has such a t.
- order n/2: an elementary abelian subgroup of index 2, which is normal
  with quotient C2.

So for n >= 12 the top degree, where it is at least (n - 1)/2, is the
largest of delta(G), m(G) and n/2 if a vertex of order 2 or n/2 has
degree n/2; every other vertex has degree at most n/2 - 1. For nilpotent
G, the direct product of its Sylow subgroups P, a maximal subgroup has
prime index p and is a maximal subgroup of P times the other Sylow
subgroups, so m(G) = sum over p of (|G : G'G^p| - 1)/(p - 1) (Burnside's
basis theorem: P/Phi(P) = G/G'G^p is elementary abelian of rank r, with
(p^r - 1)/(p - 1) hyperplanes).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import iso as _iso
from . import lattice as _lattice
from .arith import factorize, split_power
from .core import FiniteGroup, Subgroup
from .errors import GroupTooLarge, TrivialGroup
from .families import CatalogEntry, theorem_a_group, theorem_a_recipes
from .iso import is_isomorphic
from .lattice import SubgroupLattice, all_subgroups

F1_SMALL = "F1_SMALL"
F2_THEOREM_A = "F2_THEOREM_A"
F3_ELEM_AB_2 = "F3_ELEM_AB_2"
F4_C2s_C4 = "F4_C2s_C4"
F5_GEN_EXTRASPECIAL = "F5_GEN_EXTRASPECIAL"
F6_CPN_C2 = "F6_CPN_C2"
F7_D12 = "F7_D12"
WALL_I_IV = "WALL_I_IV"

WALL_SUBTYPES = frozenset({"I", "II", "III", "IV"})


class Recognition(NamedTuple):
    """The families of a group and its Theorem A types I..X (roman
    numerals). F2_THEOREM_A is among the families exactly when a type is,
    and WALL_I_IV exactly when one of I..IV is."""

    families: frozenset[str]
    subtypes: frozenset[str]


class VerificationReport(NamedTuple):
    theorem: str
    groups_checked: int
    counterexamples: tuple[tuple[str, str], ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def has_large_degree_vertex(lattice: SubgroupLattice) -> bool:
    """True iff some vertex has degree strictly above |G|/2 - 1,
    evaluated as 2(D + 1) > |G|."""
    g = lattice.parent
    if g.order == 1:
        raise TrivialGroup("the trivial group has a one-vertex graph")
    top = max(lattice.orbit_profile().degrees)
    return 2 * (top + 1) > g.order


def _is_generalized_extraspecial(g: FiniteGroup) -> bool:
    """A 2-group with |G'| = 2 and Phi(G) = G'. A normal subgroup of order
    2, as G' is, is central; in a 2-group Phi(G) is the closure of the
    squares, which holds G' (its quotient has exponent 2, so is abelian).
    So the test is |G'| = 2 and every square in G'."""
    n = g.order
    if n < 8 or n & (n - 1):
        return False
    derived = g.derived_mask
    if derived.bit_count() != 2:
        return False
    return all(derived >> row[x] & 1 for x, row in enumerate(g.table))


def _central_involution_families(g: FiniteGroup) -> set[str]:
    """Which of F3, F4 and F5 hold g: the groups with a central involution
    t and G'G^2 <= <t> (module docstring)."""
    families = set()
    if g.exponent == 2:
        families.add(F3_ELEM_AB_2)
    # C2^(s-1) x C4: half of its elements square to the identity
    if g.is_abelian and g.exponent == 4 and 2 * (g.involution_count + 1) == g.order:
        families.add(F4_C2s_C4)
    if _is_generalized_extraspecial(g):
        families.add(F5_GEN_EXTRASPECIAL)
    return families


def sylow_p_elements_form_subgroup(g: FiniteGroup, p: int) -> Optional[Subgroup]:
    """The set of all elements of p-power order, if it is a subgroup.

    When that set is product-closed it is the unique (hence normal) Sylow
    p-subgroup; otherwise returns None.
    """
    elems = [x for x, k in enumerate(g.element_orders) if split_power(k, p)[1] == 1]
    mask = sum(1 << x for x in elems)
    if g._normal_closure(elems, ())[0] != mask:
        return None
    return Subgroup(g, mask, check=False)


def _is_cpn_c2(g: FiniteGroup) -> bool:
    fac = factorize(g.order)
    if len(fac) != 2 or fac.get(2) != 1:
        return False
    p = max(fac)
    syl = sylow_p_elements_form_subgroup(g, p)
    if syl is None or not syl.is_abelian:
        return False
    return all(g.element_orders[x] in (1, p) for x in syl.elements)


def _is_generalized_dihedral(g: FiniteGroup) -> bool:
    """True iff g has an abelian index-2 subgroup A inverted by an outside
    involution t.

    For abelian g that means exponent 2. For nonabelian g it holds iff
    N = <x : x^2 != 1> is a proper subgroup. If A and t exist, each ta
    outside A squares to t a t a = a^-1 a = 1, so N <= A. Conversely, let
    N be proper and t outside it. For a in N, ta is outside N, so
    (ta)^2 = 1 and t a t = a^-1: conjugation by t inverts N, so N is
    abelian. If some u outside N had tu outside N too, the involutions t,
    u and tu would all invert N, and tu would also centralize it; then N,
    and with it g, would have exponent 2, and g would be abelian. So
    [g:N] = 2, and A = N with t is the pair sought.
    """
    if g.is_abelian:
        return g.exponent == 2
    n_mask = g.closure_mask(x for x, k in enumerate(g.element_orders) if k > 2)
    return n_mask != (1 << g.order) - 1


def recognize(g: FiniteGroup) -> Recognition:
    """All family memberships of g. The trivial group gets no tags. A
    group over the isomorphism cap raises GroupTooLarge before any test."""
    n = g.order
    cap = _iso.DEFAULT_ISO_CAP
    if n > cap:
        raise GroupTooLarge(f"recognizing {g.name} of order {n} exceeds the isomorphism cap {cap}")
    if n == 1:
        return Recognition(frozenset(), frozenset())
    families: set[str] = set()
    subtypes: set[str] = set()

    if n <= 11 and not (g.is_cyclic and n >= 5):
        families.add(F1_SMALL)
    families |= _central_involution_families(g)
    if _is_cpn_c2(g):
        families.add(F6_CPN_C2)
    if n == 12 and is_isomorphic(g, theorem_a_group(F7_D12, 6, 0)) is not None:
        families.add(F7_D12)

    if _is_generalized_dihedral(g):
        subtypes.add("I")
    if g.exponent == 3:
        subtypes.add("VI")
    # a subtype already found is not compared again at a larger r
    for subtype, param, edim in theorem_a_recipes(n):
        if subtype not in subtypes and is_isomorphic(g, theorem_a_group(subtype, param, edim)) is not None:
            subtypes.add(subtype)

    if subtypes:
        families.add(F2_THEOREM_A)
    if subtypes & WALL_SUBTYPES:
        families.add(WALL_I_IV)
    return Recognition(frozenset(families), frozenset(subtypes))


def _eligible(entries: Iterable[CatalogEntry], max_order: int) -> Iterator[CatalogEntry]:
    """Each group of order 2..max_order, solvable or not: the sweep of the
    lattice-free verifiers."""
    return (entry for entry in entries if 1 < entry.group.order <= max_order)


def solvable_entries(entries: Iterable[CatalogEntry], max_order: int) -> Iterator[CatalogEntry]:
    """Each solvable group of order 2..max_order: the sweep of the degree
    verifiers and of cli's lattice sweeps. A max_order over the lattice
    cap raises GroupTooLarge at the call, before any lattice is built."""
    cap = _lattice.DEFAULT_LATTICE_CAP
    if max_order > cap:
        raise GroupTooLarge(f"a sweep to order {max_order} exceeds the lattice cap {cap}")
    return (entry for entry in _eligible(entries, max_order) if entry.group.is_solvable)


def _is_nilpotent(g: FiniteGroup) -> bool:
    """Every Sylow subgroup is normal: the p-elements form a subgroup for
    each prime p."""
    return all(sylow_p_elements_form_subgroup(g, p) is not None for p in factorize(g.order))


def _power(rows, x: int, e: int) -> int:
    """x^e by square and multiply over the table rows."""
    y = 0
    for bit in bin(e)[2:]:
        y = rows[y][y]
        if bit == "1":
            y = rows[y][x]
    return y


def _nilpotent_maximal_count(g: FiniteGroup) -> int:
    """m(G), the number of maximal subgroups of a nilpotent group G:
    sum over the primes p of (|G : G'G^p| - 1)/(p - 1) (module docstring)."""
    n, rows = g.order, g.table
    derived = [x for x in range(n) if g.derived_mask >> x & 1]
    count = 0
    for p in factorize(n):
        index = n // g.closure_mask(derived + [_power(rows, x, p) for x in range(n)]).bit_count()
        count += (index - 1) // (p - 1)
    return count


def _has_elementary_index_two(g: FiniteGroup) -> bool:
    """Whether g has an elementary abelian subgroup of index 2. Such a
    subgroup holds n/2 - 1 involutions and makes g a 2-group. Its index-2
    subgroups are the hyperplanes of G/Phi(G), with Phi(G) the closure of
    the squares; each element is labelled by its coset as a vector over
    GF(2), and a hyperplane qualifies when every element of order above 2
    lies outside it."""
    n, rows = g.order, g.table
    if n & (n - 1) or 2 * (g.involution_count + 1) < n:
        return False
    phi = g.closure_mask(row[x] for x, row in enumerate(rows))
    label = {x: 0 for x in range(n) if phi >> x & 1}
    rank = 0
    for x in range(n):
        if x not in label:
            # <K, x> = K u Kx for K, the labelled subgroup, which holds Phi(G)
            label.update([(rows[y][x], v | 1 << rank) for y, v in label.items()])
            rank += 1
    outside = {label[x] for x, k in enumerate(g.element_orders) if k > 2}
    return any(all((f & v).bit_count() & 1 for v in outside) for f in range(1, 1 << rank))


def _degree_summary(g: FiniteGroup) -> tuple[int, bool]:
    """(top, half) for a nontrivial solvable group: its largest vertex
    degree, exact when it is at least (n - 1)/2 and otherwise a lower
    bound, and whether some vertex has degree exactly n/2, read off the
    candidate degrees: the orbit degrees of a group of order below 12 or
    one that is not nilpotent; otherwise, with no lattice, delta(G), m(G)
    and, when g is in F3, F4 or F5 or has an elementary abelian subgroup
    of index 2, n/2 (Lemma 2.1's equality case, module docstring)."""
    n = g.order
    if n < 12 or not _is_nilpotent(g):
        degrees = all_subgroups(g).orbit_profile().degrees
    else:
        degrees = (g.delta, _nilpotent_maximal_count(g))
        if _central_involution_families(g) or _has_elementary_index_two(g):
            degrees += (n // 2,)
    return max(degrees), any(2 * d == n for d in degrees)


def _verify(theorem: str, entries: Iterable[CatalogEntry], check: Callable) -> VerificationReport:
    """The report of one theorem over a sweep of entries. check(entry)
    gives a counterexample's detail or None."""
    counterexamples = []
    checked = 0
    for entry in entries:
        checked += 1
        detail = check(entry)
        if detail is not None:
            counterexamples.append((entry.name, detail))
    return VerificationReport(theorem, checked, tuple(counterexamples))


def verify_theorem_1_1(entries: Iterable[CatalogEntry], max_order: int) -> VerificationReport:
    """Necessary direction only: every solvable group with a vertex of
    degree above |G|/2 - 1 must land in at least one of the seven
    families (Theorem A types restricted to I..IX). A group in one passes
    whatever its degrees, so it is recognized first, and for solvable g
    that is any family: WALL_I_IV comes only with F2_THEOREM_A, which
    comes with a type, and type X is A5, which is not solvable."""

    def check(entry):
        g = entry.group
        if recognize(g).families:
            return None
        top, _ = _degree_summary(g)
        if 2 * (top + 1) <= g.order:
            return None
        return f"max degree {top} exceeds |G|/2-1 but no family matched"

    return _verify("theorem-1.1", solvable_entries(entries, max_order), check)


def verify_theorem_A(entries: Iterable[CatalogEntry], max_order: int) -> VerificationReport:
    """Bidirectional: delta(G) > |G|/2 - 1 iff G has a type I..X tag.
    Lattice-free; delta comes straight from element orders."""

    def check(entry):
        g = entry.group
        rec = recognize(g)
        member = bool(rec.subtypes)
        large = 2 * (g.delta + 1) > g.order
        if large == member:
            return None
        if large:
            return f"delta {g.delta} > |G|/2-1 but no type I..X tag"
        return f"types {sorted(rec.subtypes)} tagged but delta {g.delta} <= |G|/2-1"

    return _verify("theorem-a", _eligible(entries, max_order), check)


def verify_wall(entries: Iterable[CatalogEntry], max_order: int) -> VerificationReport:
    """Bidirectional: involution count above |G|/2 - 1 iff type I..IV."""

    def check(entry):
        g = entry.group
        rec = recognize(g)
        member = bool(rec.subtypes & WALL_SUBTYPES)
        many = 2 * (g.involution_count + 1) > g.order
        if many == member:
            return None
        if many:
            return f"i2 {g.involution_count} > |G|/2-1 but no type I..IV tag"
        return f"types {sorted(rec.subtypes & WALL_SUBTYPES)} tagged but i2 {g.involution_count} is small"

    return _verify("wall", _eligible(entries, max_order), check)


def verify_corollary_1_2(entries: Iterable[CatalogEntry], max_order: int) -> VerificationReport:
    """Bidirectional: a vertex of degree >= 3|G|/4 exists iff G is an
    elementary abelian 2-group, in integer form 4D >= 3n. The reverse
    direction starts at order 4: C2's single edge gives top degree
    1 < 3/2, a boundary case recorded as a note. C2^k of order n >= 4
    has delta = n - 1 >= 3n/4, so only C2, below order 12 where the
    summary's top is exact, can be elementary abelian but not big."""
    notes = []

    def check(entry):
        g = entry.group
        top, _ = _degree_summary(g)
        big = 4 * top >= 3 * g.order
        elementary = g.exponent == 2
        if big and not elementary:
            return f"degree {top} >= 3|G|/4 but the group is not elementary abelian 2"
        if elementary and not big:
            if g.order >= 4:
                return f"elementary abelian 2 but max degree {top} < 3|G|/4"
            notes.append(f"{entry.name}: order-2 boundary case, top degree {top} < 3|G|/4 = 3/2")
        return None

    report = _verify("cor-1.2", solvable_entries(entries, max_order), check)
    return report._replace(notes=tuple(notes))


def verify_corollary_1_3(entries: Iterable[CatalogEntry], max_order: int) -> VerificationReport:
    """Bidirectional: a vertex of degree exactly |G|/2 exists iff G is
    S3 x D8 x E (exp(E) <= 2), elementary abelian 2, C2^(s-1) x C4, or
    generalized extraspecial. Checked faithfully as stated, and as stated
    it is refuted on the catalog to order 32 by D12 (the whole group covers
    its six maximal subgroups) and S(2) (its elementary abelian index-2
    subgroup C2^4 has degree 16), both reported in the "exists but no
    listed family matched" direction."""

    def check(entry):
        g = entry.group
        _, exists = _degree_summary(g)
        rec = recognize(g)
        member = "VII" in rec.subtypes or bool(rec.families & {F3_ELEM_AB_2, F4_C2s_C4, F5_GEN_EXTRASPECIAL})
        if exists == member:
            return None
        if exists:
            return f"vertex of degree |G|/2 = {g.order // 2} exists but no listed family matched"
        return "listed family matched but no vertex of degree |G|/2 exists"

    return _verify("cor-1.3", solvable_entries(entries, max_order), check)
