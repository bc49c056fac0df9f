"""Family recognizers and exhaustive verifiers.

The recognizer for the index-2-inverted-abelian family has an independent
oracle here: enumerate all abelian index-2 subgroups from the lattice and
search for an outside involution inverting every element. recognize() must
agree with it on every catalog group.
"""

import os
import random

import pytest

import grouplattice as gl
from grouplattice.arith import factorize
from grouplattice.bounds import cww_b, edge_bound, herzog_manz_c, lemma_2_1, newton_d, newton_e, wall_a
from grouplattice.classify import (
    F1_SMALL,
    F2_THEOREM_A,
    F3_ELEM_AB_2,
    F4_C2s_C4,
    F5_GEN_EXTRASPECIAL,
    F6_CPN_C2,
    F7_D12,
    WALL_I_IV,
    WALL_SUBTYPES,
    Recognition,
    _central_involution_families,
    _degree_summary,
    _has_elementary_index_two,
    _is_generalized_extraspecial,
    _is_nilpotent,
    _nilpotent_maximal_count,
    has_large_degree_vertex,
    recognize,
    solvable_entries,
    verify_corollary_1_2,
    verify_corollary_1_3,
    verify_theorem_1_1,
    verify_theorem_A,
    verify_wall,
)
from grouplattice.errors import GroupTooLarge, TrivialGroup
from grouplattice.families import theorem_a_group
from grouplattice.lattice import all_subgroups

from oracle_lattice import naive_covers, naive_degrees, naive_subgroups
from test_core import relabel


# ---------------------------------------------------------------------------
# record plumbing


def test_recognition_helpers():
    rec = Recognition(frozenset({F2_THEOREM_A}), frozenset({"IX"}))
    assert rec.families == {F2_THEOREM_A} and rec.subtypes == {"IX"}
    assert F1_SMALL not in rec.families
    families, subtypes = rec
    assert (families, subtypes) == (rec.families, rec.subtypes)
    assert WALL_SUBTYPES == {"I", "II", "III", "IV"}


# ---------------------------------------------------------------------------
# the high-degree-vertex predicate


def test_large_degree_vertex_examples():
    cases = [
        (gl.cyclic(2), True),
        (gl.cyclic(5), False),
        (gl.symmetric(3), True),
        (gl.cyclic(18), False),
        (gl.elementary_abelian(2, 4), True),
        (gl.alternating(5), True),
    ]
    for g, expect in cases:
        assert has_large_degree_vertex(all_subgroups(g)) == expect, g.name


def test_large_degree_vertex_rejects_trivial():
    g = gl.trivial()
    with pytest.raises(TrivialGroup):
        has_large_degree_vertex(all_subgroups(g))


# ---------------------------------------------------------------------------
# recognizer, family by family


def test_trivial_group_gets_no_tags():
    assert recognize(gl.trivial()) == (frozenset(), frozenset())


def test_small_order_family():
    families = recognize(gl.cyclic(2)).families
    assert F1_SMALL in families
    for n in (5, 7, 11):
        families = recognize(gl.cyclic(n)).families
        assert F1_SMALL not in families  # cyclic of order 5..11 excluded
    families = recognize(gl.dicyclic(2)).families
    assert F1_SMALL in families
    families = recognize(gl.cyclic(12)).families
    assert F1_SMALL not in families


def test_elementary_abelian_2_family():
    for k in (1, 2, 3, 4):
        families = recognize(gl.elementary_abelian(2, k)).families
        assert F3_ELEM_AB_2 in families
    families = recognize(gl.cyclic(4)).families
    assert F3_ELEM_AB_2 not in families


def test_c2s_c4_family():
    assert F4_C2s_C4 in recognize(gl.cyclic(4)).families
    assert F4_C2s_C4 in recognize(gl.abelian((2, 4))).families
    assert F4_C2s_C4 in recognize(gl.abelian((2, 2, 4))).families
    assert F4_C2s_C4 not in recognize(gl.abelian((4, 4))).families
    assert F4_C2s_C4 not in recognize(gl.elementary_abelian(2, 2)).families
    assert F4_C2s_C4 not in recognize(gl.cyclic(8)).families


def test_generalized_extraspecial_family():
    for g in (
        gl.dihedral(4),
        gl.dicyclic(2),
        gl.central_product(gl.dihedral(4), gl.cyclic(4)),
        gl.central_product(gl.dihedral(4), gl.dihedral(4)),
        gl.central_product(gl.dihedral(4), gl.dicyclic(2)),
        gl.direct_product(gl.dihedral(4), gl.cyclic(2)),
    ):
        assert F5_GEN_EXTRASPECIAL in recognize(g).families, g.name
    # a 2-group condition, not just |G'| = 2: S3 and D8xC3 must stay out
    assert F5_GEN_EXTRASPECIAL not in recognize(gl.symmetric(3)).families
    assert F5_GEN_EXTRASPECIAL not in recognize(gl.direct_product(gl.dihedral(4), gl.cyclic(3))).families
    assert F5_GEN_EXTRASPECIAL not in recognize(gl.elementary_abelian(2, 3)).families


def test_odd_prime_power_by_c2_family():
    assert F6_CPN_C2 in recognize(gl.symmetric(3)).families
    assert F6_CPN_C2 in recognize(gl.cyclic(6)).families
    assert F6_CPN_C2 in recognize(gl.generalized_dihedral(gl.elementary_abelian(3, 2))).families
    assert F6_CPN_C2 in recognize(gl.direct_product(gl.elementary_abelian(3, 2), gl.cyclic(2))).families
    assert F6_CPN_C2 not in recognize(gl.dihedral(9)).families  # Sylow-3 is C9, not elementary
    assert F6_CPN_C2 not in recognize(gl.cyclic(12)).families  # 2^2 divides
    assert F6_CPN_C2 not in recognize(gl.alternating(4)).families
    assert F6_CPN_C2 not in recognize(gl.dihedral(6)).families  # order 12
    assert F6_CPN_C2 not in recognize(gl.elementary_abelian(3, 2)).families  # odd order


def test_d12_family():
    assert F7_D12 in recognize(gl.dihedral(6)).families
    assert F7_D12 in recognize(gl.direct_product(gl.symmetric(3), gl.cyclic(2))).families
    assert F7_D12 not in recognize(gl.alternating(4)).families
    assert F7_D12 not in recognize(gl.dicyclic(3)).families
    assert F7_D12 not in recognize(gl.cyclic(12)).families


def test_subtype_probes():
    probes = [
        (gl.cyclic(2), {"I"}),
        (gl.elementary_abelian(2, 2), {"I"}),
        (gl.elementary_abelian(2, 4), {"I"}),
        (gl.cyclic(4), set()),
        (gl.dihedral(4), {"I", "III", "IV"}),
        (gl.dicyclic(2), set()),
        (gl.symmetric(3), {"I"}),
        (gl.dihedral(6), {"I"}),
        (gl.alternating(4), {"V"}),
        (gl.heisenberg(3), {"VI"}),
        (gl.elementary_abelian(3, 2), {"VI"}),
        (gl.wall_H(2), {"III"}),
        (gl.wall_S(2), {"IV"}),
        (gl.wall_T(2), {"V"}),
        (gl.direct_product(gl.dihedral(4), gl.dihedral(4)), {"II"}),
        (gl.symmetric(4), {"IX"}),
        (gl.direct_product(gl.symmetric(3), gl.symmetric(3)), {"VIII"}),
        (gl.alternating(5), {"X"}),
        (gl.direct_product(gl.symmetric(3), gl.dihedral(4)), {"VII"}),
        (gl.cyclic(18), set()),
        (gl.direct_product(gl.alternating(4), gl.cyclic(2)), set()),
    ]
    for g, expect in probes:
        subtypes = recognize(g).subtypes
        assert subtypes == expect, f"{g.name}: {sorted(subtypes)} != {sorted(expect)}"


def test_direct_factor_of_involutions_extends_types():
    # II, III, IV, VII absorb an extra C2 factor; V must not
    assert "III" in recognize(gl.direct_product(gl.wall_H(2), gl.cyclic(2))).subtypes
    assert "IV" in recognize(gl.direct_product(gl.wall_S(2), gl.cyclic(2))).subtypes
    assert "II" in recognize(
        gl.direct_product(gl.direct_product(gl.dihedral(4), gl.dihedral(4)), gl.cyclic(2))
    ).subtypes
    assert "VII" in recognize(
        gl.direct_product(gl.direct_product(gl.symmetric(3), gl.dihedral(4)), gl.cyclic(2))
    ).subtypes
    assert "V" not in recognize(gl.direct_product(gl.wall_T(1), gl.cyclic(2))).subtypes


def test_wall_membership_tag_follows_subtypes(catalog36):
    # and F2_THEOREM_A comes exactly with a type I..X
    for entry in catalog36:
        g = entry.group
        if g.order == 1:
            continue
        rec = recognize(g)
        assert (WALL_I_IV in rec.families) == bool(rec.subtypes & WALL_SUBTYPES), entry.name
        assert (F2_THEOREM_A in rec.families) == bool(rec.subtypes), entry.name


def test_recognition_is_isomorphism_invariant(d8):
    base = recognize(d8)
    twin = gl.from_cayley_table(relabel(d8.table, [3, 1, 4, 0, 6, 2, 7, 5]), name="X")
    assert recognize(twin) == base


def _bound_reports(lat):
    """The bound reports of `verify bounds` on a lattice, and the sorted
    (subgroup order, lemma_2_1 report) pairs of its vertices, as `verify
    lemma21` makes them: one call per orbit, on its representative."""
    g = lat.parent
    reports = [wall_a(lat), cww_b(lat), herzog_manz_c(lat)]
    for p in sorted(factorize(g.order)):
        reports.extend(newton_d(lat, p))
    reports += [newton_e(lat), edge_bound(lat)]
    pairs = []
    for orbit, size in enumerate(lat.orbit_profile().sizes):
        h = lat.representative(orbit)
        pairs += [(h.order, lemma_2_1(lat, h))] * size
    return reports, sorted(pairs)


def test_relabelled_catalog_gives_the_same_reports_and_verdicts(catalog64, lattices64):
    # a metamorphic check of the orbit bookkeeping and the recognizers: a
    # seeded relabelling of every catalog(64) table moves the walk's
    # representatives, movers and orbit numbers, but no lattice report, no
    # bound report and no verdict
    rng = random.Random(2412)
    moved = []
    for entry in catalog64:
        g = entry.group
        twin = gl.from_cayley_table(relabel(g.table, rng.sample(range(g.order), g.order)), name=g.name)
        moved.append(entry._replace(group=twin))
    for entry, lat in zip(moved, lattices64):
        twin_lat = all_subgroups(entry.group)
        assert twin_lat.report() == lat.report(), entry.name
        if entry.group.order > 1 and entry.group.is_solvable:
            assert _bound_reports(twin_lat) == _bound_reports(lat), entry.name
    for verify in (verify_theorem_1_1, verify_corollary_1_2, verify_corollary_1_3, verify_theorem_A, verify_wall):
        assert verify(moved, 64) == verify(catalog64, 64), verify.__name__


def _spy_on_comparisons(monkeypatch):
    """The calls recognize makes to build and compare Theorem A groups."""
    calls = []
    for name in ("theorem_a_group", "is_isomorphic"):
        monkeypatch.setattr(f"grouplattice.classify.{name}", lambda *args, name=name: calls.append(name))
    return calls


@pytest.mark.parametrize(
    "build", [lambda: gl.symmetric(4), lambda: gl.wall_T(2), lambda: gl.dihedral(6)], ids=["S4", "T(2)", "D12"]
)
def test_recognize_refuses_a_group_over_the_isomorphism_cap_at_the_call(monkeypatch, build):
    # the cap is read when recognize is called; lowered to 8, S4, T(2) and
    # D12 are refused before any Theorem A group is built or compared
    g = build()
    monkeypatch.setattr("grouplattice.iso.DEFAULT_ISO_CAP", 8)
    calls = _spy_on_comparisons(monkeypatch)
    with pytest.raises(GroupTooLarge) as refused:
        recognize(g)
    assert str(refused.value) == f"recognizing {g.name} of order {g.order} exceeds the isomorphism cap 8"
    assert calls == []


def test_recognize_refuses_a_group_over_the_default_isomorphism_cap(monkeypatch):
    g = gl.elementary_abelian(2, 10)
    calls = _spy_on_comparisons(monkeypatch)
    with pytest.raises(GroupTooLarge, match=r"^recognizing C2\^10 of order 1024 exceeds the isomorphism cap 512$"):
        recognize(g)
    assert calls == []


def test_recognize_compares_each_recipe_once_at_the_group_order(monkeypatch, catalog64):
    # every Theorem A group recognize compares against has the order of
    # the group it recognizes, and no recipe is compared twice; catalog(64)
    # takes 150 comparisons in all
    built, compared = {}, []

    def build(*recipe):
        h = theorem_a_group(*recipe)
        built[id(h)] = recipe
        return h

    def compare(g, h):
        compared.append((g.order, h.order, built[id(h)]))
        return gl.is_isomorphic(g, h)

    monkeypatch.setattr("grouplattice.classify.theorem_a_group", build)
    monkeypatch.setattr("grouplattice.classify.is_isomorphic", compare)
    calls = 0
    for entry in catalog64:
        compared.clear()
        recognize(entry.group)
        assert all(order == h_order for order, h_order, _ in compared), entry.name
        recipes = [recipe for _, _, recipe in compared]
        assert len(set(recipes)) == len(recipes), entry.name
        calls += len(recipes)
    assert calls == 150


# ---------------------------------------------------------------------------
# independent oracle for the inverted-abelian recognizer


def generalized_dihedral_oracle(lattice):
    g = lattice.parent
    if g.order % 2:
        return False
    half = g.order // 2
    for a in lattice.subgroups:
        if a.order != half or not a.is_abelian:
            continue
        for t in range(g.order):
            if t in a or g.element_orders[t] != 2:
                continue
            if all(g.table[g.table[t][y]][t] == g.inverses[y] for y in a.elements):
                return True
    return False


def test_inverted_abelian_recognizer_matches_oracle(lattices64):
    for lattice in lattices64:
        g = lattice.parent
        if g.order == 1:
            continue
        expect = generalized_dihedral_oracle(lattice)
        got = "I" in recognize(g).subtypes
        assert got == expect, g.name


def test_frattini_closure_matches_the_lattice_on_two_groups(lattices64):
    # F5 (|G'| = 2, G' central, Phi(G) = G') with Phi(G) the intersection
    # of the maximal subgroups is the reference for the squares test
    two_groups = [lat for lat in lattices64 if lat.parent.order in (2, 4, 8, 16, 32, 64)]
    assert len(two_groups) == 37
    in_f5 = 0
    for lattice in two_groups:
        g = lattice.parent
        derived = g.derived_mask
        expect = derived.bit_count() == 2 and not derived & ~g.center_mask and lattice.frattini().mask == derived
        assert _is_generalized_extraspecial(g) == expect, g.name
        in_f5 += expect
    assert in_f5 > 0


def _generalized_extraspecial_by_closure(g):
    """F5 as first written: Phi(G) of a 2-group as the closure of its
    squares and G', |G'| = 2, and G' central."""
    n = g.order
    if n < 8 or n & (n - 1):
        return False
    derived = g.derived_mask
    if derived.bit_count() != 2 or derived & ~g.center_mask:
        return False
    seed = {row[x] for x, row in enumerate(g.table)} | set(g.derived_subgroup().elements)
    return g.closure_mask(sorted(seed)) == derived


def test_squares_test_matches_the_frattini_closure_on_two_groups():
    two_groups = [e.group for n in (2, 4, 8, 16, 32, 64, 128, 256) for e in gl.catalog(n, n)]
    assert len(two_groups) == 75
    in_f5 = 0
    for g in two_groups:
        expect = _generalized_extraspecial_by_closure(g)
        assert _is_generalized_extraspecial(g) == expect, g.name
        in_f5 += expect
    assert in_f5 == 26


def test_inverted_abelian_matches_constructor(catalog36):
    # every group built by the generalized-dihedral constructor in the
    # catalog carries the subtype, whatever model produced the entry
    for entry in catalog36:
        if "generalized-dihedral" in entry.known_tags:
            assert "I" in recognize(entry.group).subtypes, entry.name


# ---------------------------------------------------------------------------
# structural consequences


def test_c2s_c4_groups_have_half_order_vertex():
    for s in (1, 2, 3, 4):
        g = gl.abelian(tuple([2] * (s - 1) + [4]))
        lattice = all_subgroups(g)
        assert max(lattice.degree_profile().degrees) == g.order // 2


def test_elementary_abelian_2_has_large_degree_vertex():
    for k in (1, 2, 3, 4, 5):
        g = gl.elementary_abelian(2, k)
        assert has_large_degree_vertex(all_subgroups(g))


# ---------------------------------------------------------------------------
# verifiers


def test_verify_theorem_a_passes(catalog36):
    report = verify_theorem_A(catalog36, 24)
    assert report.passed
    assert report.theorem == "theorem-a"
    assert report.groups_checked == sum(
        1 for e in catalog36 if 1 < e.group.order <= 24
    )


def test_verify_theorem_a_includes_nonsolvable():
    entries = gl.catalog(24) + tuple(
        gl.CatalogEntry(name=g.name, group=g, known_tags=frozenset({"extra"}))
        for g in (gl.alternating(5),)
    )
    report = verify_theorem_A(entries, 60)
    assert report.passed


def test_verify_wall_passes(catalog36):
    assert verify_wall(catalog36, 36).passed


def test_verify_theorem_1_1_passes(catalog36):
    report = verify_theorem_1_1(catalog36, 24)
    assert report.passed
    assert report.groups_checked > 0


@pytest.mark.parametrize("verify", [verify_theorem_1_1, verify_theorem_A, verify_wall], ids=lambda f: f.__name__)
def test_recognizing_verifiers_raise_over_the_isomorphism_cap(monkeypatch, verify):
    entries = gl.catalog(24)
    monkeypatch.setattr("grouplattice.iso.DEFAULT_ISO_CAP", 8)
    with pytest.raises(GroupTooLarge, match=r"exceeds the isomorphism cap 8$"):
        verify(entries, 24)


def _fresh_entries():
    groups = [gl.elementary_abelian(2, 4), gl.symmetric(3), gl.dihedral(4), gl.elementary_abelian(2, 3)]
    return tuple(gl.CatalogEntry(name=g.name, group=g, known_tags=frozenset()) for g in groups)


@pytest.mark.parametrize(
    "sweep", [solvable_entries, verify_theorem_1_1, verify_corollary_1_2, verify_corollary_1_3], ids=lambda f: f.__name__
)
def test_a_sweep_over_the_lattice_cap_is_refused_at_the_call(monkeypatch, sweep):
    # the cap is read when the sweep is called; lowered to 8, a sweep to
    # order 16 is refused before the first lattice is built
    monkeypatch.setattr("grouplattice.lattice.DEFAULT_LATTICE_CAP", 8)
    built = []
    monkeypatch.setattr("grouplattice.classify.all_subgroups", built.append)
    with pytest.raises(GroupTooLarge, match=r"^a sweep to order 16 exceeds the lattice cap 8$"):
        sweep(_fresh_entries(), 16)
    assert built == []


def test_a_sweep_to_the_lattice_cap_builds_each_lattice(monkeypatch):
    monkeypatch.setattr("grouplattice.lattice.DEFAULT_LATTICE_CAP", 8)
    swept = [(entry.name, len(all_subgroups(entry.group))) for entry in solvable_entries(_fresh_entries(), 8)]
    assert swept == [("S3", 6), ("D8", 10), ("C2^3", 16)]


# ---------------------------------------------------------------------------
# the Lemma 2.1 reduction of the degree verifiers

slow = pytest.mark.skipif(os.environ.get("GROUPLATTICE_SLOW") != "1", reason="set GROUPLATTICE_SLOW=1 to run")
LISTED_1_1 = {F1_SMALL, F3_ELEM_AB_2, F4_C2s_C4, F5_GEN_EXTRASPECIAL, F6_CPN_C2, F7_D12}


def lattice_nilpotent(lat):
    # a finite group is nilpotent iff each of its maximal subgroups is normal
    return all(h.is_normal for h in lat.maximal_subgroups())


def lattice_builds(g, lat):
    """Whether verify_theorem_1_1 and whether the two corollaries build a
    lattice of the nontrivial solvable group g: the corollaries for a group
    of order below 12 or one that is not nilpotent, theorem-1.1 for such a
    group in no listed family."""
    rec = recognize(g)
    unlisted = not (rec.subtypes - {"X"} or rec.families & LISTED_1_1)
    reads = g.order < 12 or not lattice_nilpotent(lat)
    return unlisted and reads, reads


def _check_reduction_against_lattices(pairs):
    nilpotent = 0
    for entry, lat in pairs:
        g = entry.group
        n = g.order
        if n == 1 or not g.is_solvable:
            continue
        prof = lat.orbit_profile()
        top = max(prof.degrees)
        half = any(2 * d == n for d in prof.degrees)
        got_top, got_half = _degree_summary(g)
        # the three verdicts: theorem-1.1's large vertex, cor-1.2's 3n/4, cor-1.3's n/2
        assert (2 * (got_top + 1) > n, 4 * got_top >= 3 * n, got_half) == (2 * (top + 1) > n, 4 * top >= 3 * n, half), entry.name
        assert got_top <= top, entry.name
        if 2 * top + 1 >= n:
            assert got_top == top, entry.name
        assert _is_nilpotent(g) == lattice_nilpotent(lat), entry.name
        if lattice_nilpotent(lat):
            nilpotent += 1
            assert _nilpotent_maximal_count(g) == len(lat.maximal_subgroups()), entry.name
            rim = {2, n / 2}
            witness = any(2 * d == n for d, k in zip(prof.degrees, prof.orders) if k in rim)
            assert bool(_central_involution_families(g) or _has_elementary_index_two(g)) == witness, entry.name
    return nilpotent


def test_degree_summary_matches_the_lattice_to_order_64(catalog64, lattices64):
    # every solvable catalog(64) group: the summary's verdicts, its top degree
    # where that is at least (n - 1)/2, and its n/2 answer equal the full
    # lattice's; for the nilpotent ones m(G) and the Lemma 2.1 witness too
    assert _check_reduction_against_lattices(zip(catalog64, lattices64)) == 62


@slow
def test_degree_summary_matches_the_lattice_to_order_256():
    pairs = ((entry, all_subgroups(entry.group)) for entry in gl.catalog(256))
    assert _check_reduction_against_lattices(pairs) == 124


def _check_any_family_is_theorem_1_1s_membership(entries):
    # on a solvable group, "a type but X, or a family of F1 and F3..F7"
    # means "some family": X is A5, and F2 and WALL_I_IV come with a type
    solvable = 0
    for entry in entries:
        g = entry.group
        if g.order > 1 and g.is_solvable:
            solvable += 1
            rec = recognize(g)
            assert "X" not in rec.subtypes, entry.name
            assert bool(rec.subtypes - {"X"} or rec.families & LISTED_1_1) == bool(rec.families), entry.name
    return solvable


def test_any_family_is_theorem_1_1s_membership_to_order_64(catalog64):
    assert _check_any_family_is_theorem_1_1s_membership(catalog64) == 106


@slow
def test_any_family_is_theorem_1_1s_membership_to_order_256():
    assert _check_any_family_is_theorem_1_1s_membership(gl.catalog(256)) == 339


@pytest.mark.parametrize("k", range(2, 9))
def test_an_elementary_abelian_2_group_of_order_4_or_more_is_big(k):
    # delta(C2^k) = 2^k - 1 >= 3 * 2^k / 4, so cor-1.2 never needs a
    # top degree past the summary's
    top, _ = _degree_summary(gl.elementary_abelian(2, k))
    assert 4 * top >= 3 * 2**k


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 5), (2, 7), (3, 1), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_maximal_count_of_an_elementary_abelian_group_is_its_hyperplane_count(p, k):
    assert _nilpotent_maximal_count(gl.elementary_abelian(p, k)) == (p**k - 1) // (p - 1)


def test_maximal_count_of_c2_8_is_255():
    assert _nilpotent_maximal_count(gl.elementary_abelian(2, 8)) == 255


@pytest.mark.parametrize("n", [12, 30, 64, 200, 210, 256])
def test_maximal_count_of_a_cyclic_group_is_its_prime_count(n):
    assert _nilpotent_maximal_count(gl.cyclic(n)) == len(factorize(n))


def test_degree_verifiers_build_a_lattice_only_where_the_rule_says(monkeypatch, catalog64, lattices64):
    built = []
    walk = all_subgroups
    monkeypatch.setattr("grouplattice.classify.all_subgroups", lambda g: built.append(g.name) or walk(g))
    expected = {verify_theorem_1_1: [], verify_corollary_1_2: [], verify_corollary_1_3: []}
    for entry, lat in zip(catalog64, lattices64):
        if entry.group.order > 1 and entry.group.is_solvable:
            theorem, corollary = lattice_builds(entry.group, lat)
            expected[verify_theorem_1_1] += [entry.name] * theorem
            expected[verify_corollary_1_2] += [entry.name] * corollary
            expected[verify_corollary_1_3] += [entry.name] * corollary
    assert expected[verify_theorem_1_1] == ["C5", "C7", "C8", "C9", "C11", "Dic3"]
    assert [len(names) for names in expected.values()] == [6, 60, 60]
    for verify, names in expected.items():
        built.clear()
        verify(catalog64, 64)
        assert built == names, verify.__name__


def test_verify_corollary_1_2_passes_with_boundary_note(catalog36):
    report = verify_corollary_1_2(catalog36, 24)
    assert report.passed
    assert any("C2" in note and "boundary" in note for note in report.notes)


def test_verify_corollary_1_3_clean_through_order_8():
    assert verify_corollary_1_3(gl.catalog(8), 8).passed


def test_verify_corollary_1_3_finds_degree_half_outliers(catalog36):
    # D12 and S(2) have vertices of degree exactly |G|/2 yet sit in none of
    # the listed families; the faithful check must surface both
    report = verify_corollary_1_3(catalog36, 32)
    assert not report.passed
    names = {name for name, _ in report.counterexamples}
    assert names == {"D12", "S(2)"}
    for _, detail in report.counterexamples:
        assert "no listed family matched" in detail


def _index_two_elementary_table(k: int, z: int) -> list[list[int]]:
    """E = C2^k (bit vectors under XOR) and c outside E, where c swaps
    basis vectors 0 and 1 of E by conjugation and c^2 = z, a vector the
    swap fixes; element eps * 2^k + e stands for e c^eps."""
    m = 1 << k
    swap = [e & ~3 | (e & 1) << 1 | e >> 1 & 1 for e in range(m)]
    table = []
    for a in range(2 * m):
        ca, ea = divmod(a, m)
        row = []
        for b in range(2 * m):
            cb, eb = divmod(b, m)
            e = ea ^ (swap[eb] if ca else eb) ^ (z if ca and cb else 0)
            row.append((ca ^ cb) * m + e)
        table.append(row)
    return table


@pytest.mark.parametrize("k", [3, 4], ids=["order-16", "order-32"])
def test_an_elementary_abelian_index_two_group_refutes_theorem_1_1_and_corollary_1_3(k):
    # (k, j, z) = (k, 1, 4): a group with an elementary abelian subgroup of
    # index 2 has a vertex of degree n/2 (Lemma 2.1's equality case), and
    # this one lies in no listed family and in no catalog group
    table = _index_two_elementary_table(k, 4)
    g = gl.from_cayley_table(table, name=f"E{k}")
    n = g.order
    subgroups = naive_subgroups(table)
    assert max(naive_degrees(subgroups, naive_covers(subgroups))) == n // 2
    rows = g.table
    assert (g.exponent, g.is_abelian, g.involution_count) == (4, False, n // 2 - 1)
    assert 2 * (g.delta + 1) <= n  # no Theorem A type
    assert g.derived_subgroup().order == 2
    assert any(not g.derived_mask >> rows[a][a] & 1 for a in range(n))
    assert recognize(g).families == frozenset()
    entries = [gl.CatalogEntry(name=g.name, group=g, known_tags=frozenset())]
    assert verify_theorem_1_1(entries, n).counterexamples == (
        (g.name, f"max degree {n // 2} exceeds |G|/2-1 but no family matched"),
    )
    assert verify_corollary_1_3(entries, n).counterexamples == (
        (g.name, f"vertex of degree |G|/2 = {n // 2} exists but no listed family matched"),
    )
    assert all(gl.is_isomorphic(entry.group, g) is None for entry in gl.catalog(n, n))


@pytest.mark.parametrize("key, param, edim", [("II", 0, 2), ("III", 1, 3), ("V", 1, 1), ("VII", 0, 2), (F7_D12, 6, 0)])
def test_candidate_is_the_repeated_direct_product(key, param, edim):
    # one product with C2^edim gives the table of edim products with C2
    base = {"II": gl.direct_product(gl.dihedral(4), gl.dihedral(4)), "III": gl.wall_H(1), "V": gl.wall_T(1),
            "VII": gl.direct_product(gl.symmetric(3), gl.dihedral(4)), F7_D12: gl.dihedral(6)}[key]
    for _ in range(edim):
        base = gl.direct_product(base, gl.cyclic(2))
    candidate = theorem_a_group(key, param, edim)
    assert candidate.table == base.table and candidate.name == base.name
