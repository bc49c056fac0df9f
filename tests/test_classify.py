"""Family recognizers and exhaustive verifiers.

The recognizer for the index-2-inverted-abelian family has an independent
oracle here: enumerate all abelian index-2 subgroups from the lattice and
search for an outside involution inverting every element. recognize() must
agree with it on every catalog group.
"""

import pytest

import grouplattice as gl
from grouplattice.classify import (
    F1_SMALL,
    F2_THEOREM_A,
    F3_ELEM_AB_2,
    F4_C2s_C4,
    F5_GEN_EXTRASPECIAL,
    F6_CPN_C2,
    F7_D12,
    SUBTYPES,
    WALL_I_IV,
    WALL_SUBTYPES,
    FamilyTag,
    Recognition,
    _frattini_mask,
    has_large_degree_vertex,
    lattice_sweep,
    recognize,
    verify_corollary_1_2,
    verify_corollary_1_3,
    verify_theorem_1_1,
    verify_theorem_A,
    verify_wall,
)
from grouplattice.errors import GroupTooLarge, TrivialGroup
from grouplattice.families import theorem_a_group
from grouplattice.lattice import all_subgroups

from test_core import relabel


def tags_of(g):
    rec = recognize(g)
    assert rec.undecided == frozenset()
    return rec.families(), rec.subtypes()


# ---------------------------------------------------------------------------
# record plumbing


def test_family_tag_subtype_validation():
    FamilyTag(F2_THEOREM_A, "I")
    FamilyTag(F3_ELEM_AB_2)
    with pytest.raises(ValueError):
        FamilyTag(F2_THEOREM_A)
    with pytest.raises(ValueError):
        FamilyTag(F3_ELEM_AB_2, "I")
    with pytest.raises(ValueError):
        FamilyTag(F2_THEOREM_A, "XI")


def test_family_tag_equality_and_hash():
    tag = FamilyTag(F2_THEOREM_A, "I")
    assert tag == FamilyTag(family=F2_THEOREM_A, subtype="I") and tag != FamilyTag(F2_THEOREM_A, "II")
    assert FamilyTag(F3_ELEM_AB_2) == FamilyTag(F3_ELEM_AB_2, None)
    # the hash of the field tuple, as a frozen dataclass hashes
    assert hash(tag) == hash((F2_THEOREM_A, "I"))
    assert len({tag, FamilyTag(F2_THEOREM_A, "I"), FamilyTag(F3_ELEM_AB_2)}) == 2
    assert repr(tag) == "FamilyTag(family='F2_THEOREM_A', subtype='I')"
    with pytest.raises(AttributeError):
        tag.subtype = "II"
    with pytest.raises(ValueError):
        tag._replace(subtype="XI")
    with pytest.raises(ValueError):
        tag._replace(family=F3_ELEM_AB_2)


def test_recognition_helpers():
    rec = Recognition(frozenset({FamilyTag(F2_THEOREM_A, "IX")}))
    assert rec.families() == {F2_THEOREM_A}
    assert rec.subtypes() == {"IX"}
    assert rec.has(F2_THEOREM_A) and not rec.has(F1_SMALL)
    assert len(SUBTYPES) == 10
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
    rec = recognize(gl.trivial())
    assert rec.tags == frozenset() and rec.undecided == frozenset()


def test_small_order_family():
    families, _ = tags_of(gl.cyclic(2))
    assert F1_SMALL in families
    for n in (5, 7, 11):
        families, _ = tags_of(gl.cyclic(n))
        assert F1_SMALL not in families  # cyclic of order 5..11 excluded
    families, _ = tags_of(gl.dicyclic(2))
    assert F1_SMALL in families
    families, _ = tags_of(gl.cyclic(12))
    assert F1_SMALL not in families


def test_elementary_abelian_2_family():
    for k in (1, 2, 3, 4):
        families, _ = tags_of(gl.elementary_abelian(2, k))
        assert F3_ELEM_AB_2 in families
    families, _ = tags_of(gl.cyclic(4))
    assert F3_ELEM_AB_2 not in families


def test_c2s_c4_family():
    assert F4_C2s_C4 in tags_of(gl.cyclic(4))[0]
    assert F4_C2s_C4 in tags_of(gl.abelian((2, 4)))[0]
    assert F4_C2s_C4 in tags_of(gl.abelian((2, 2, 4)))[0]
    assert F4_C2s_C4 not in tags_of(gl.abelian((4, 4)))[0]
    assert F4_C2s_C4 not in tags_of(gl.elementary_abelian(2, 2))[0]
    assert F4_C2s_C4 not in tags_of(gl.cyclic(8))[0]


def test_generalized_extraspecial_family():
    for g in (
        gl.dihedral(4),
        gl.dicyclic(2),
        gl.central_product(gl.dihedral(4), gl.cyclic(4)),
        gl.central_product(gl.dihedral(4), gl.dihedral(4)),
        gl.central_product(gl.dihedral(4), gl.dicyclic(2)),
        gl.direct_product(gl.dihedral(4), gl.cyclic(2)),
    ):
        assert F5_GEN_EXTRASPECIAL in tags_of(g)[0], g.name
    # a 2-group condition, not just |G'| = 2: S3 and D8xC3 must stay out
    assert F5_GEN_EXTRASPECIAL not in tags_of(gl.symmetric(3))[0]
    assert F5_GEN_EXTRASPECIAL not in tags_of(
        gl.direct_product(gl.dihedral(4), gl.cyclic(3))
    )[0]
    assert F5_GEN_EXTRASPECIAL not in tags_of(gl.elementary_abelian(2, 3))[0]


def test_odd_prime_power_by_c2_family():
    assert F6_CPN_C2 in tags_of(gl.symmetric(3))[0]
    assert F6_CPN_C2 in tags_of(gl.cyclic(6))[0]
    assert F6_CPN_C2 in tags_of(gl.generalized_dihedral(gl.elementary_abelian(3, 2)))[0]
    assert F6_CPN_C2 in tags_of(gl.direct_product(gl.elementary_abelian(3, 2), gl.cyclic(2)))[0]
    assert F6_CPN_C2 not in tags_of(gl.dihedral(9))[0]  # Sylow-3 is C9, not elementary
    assert F6_CPN_C2 not in tags_of(gl.cyclic(12))[0]  # 2^2 divides
    assert F6_CPN_C2 not in tags_of(gl.alternating(4))[0]
    assert F6_CPN_C2 not in tags_of(gl.dihedral(6))[0]  # order 12
    assert F6_CPN_C2 not in tags_of(gl.elementary_abelian(3, 2))[0]  # odd order


def test_d12_family():
    assert F7_D12 in tags_of(gl.dihedral(6))[0]
    assert F7_D12 in tags_of(gl.direct_product(gl.symmetric(3), gl.cyclic(2)))[0]
    assert F7_D12 not in tags_of(gl.alternating(4))[0]
    assert F7_D12 not in tags_of(gl.dicyclic(3))[0]
    assert F7_D12 not in tags_of(gl.cyclic(12))[0]


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
        _, subtypes = tags_of(g)
        assert subtypes == expect, f"{g.name}: {sorted(subtypes)} != {sorted(expect)}"


def test_direct_factor_of_involutions_extends_types():
    # II, III, IV, VII absorb an extra C2 factor; V must not
    assert "III" in tags_of(gl.direct_product(gl.wall_H(2), gl.cyclic(2)))[1]
    assert "IV" in tags_of(gl.direct_product(gl.wall_S(2), gl.cyclic(2)))[1]
    assert "II" in tags_of(
        gl.direct_product(gl.direct_product(gl.dihedral(4), gl.dihedral(4)), gl.cyclic(2))
    )[1]
    assert "VII" in tags_of(
        gl.direct_product(gl.direct_product(gl.symmetric(3), gl.dihedral(4)), gl.cyclic(2))
    )[1]
    assert "V" not in tags_of(gl.direct_product(gl.wall_T(1), gl.cyclic(2)))[1]


def test_wall_membership_tag_follows_subtypes(catalog36):
    for entry in catalog36:
        g = entry.group
        if g.order == 1:
            continue
        rec = recognize(g)
        if rec.undecided:
            continue
        assert rec.has(WALL_I_IV) == bool(rec.subtypes() & WALL_SUBTYPES), entry.name


def test_recognition_is_isomorphism_invariant(d8):
    base = recognize(d8)
    twin = gl.from_cayley_table(relabel(d8.table, [3, 1, 4, 0, 6, 2, 7, 5]), name="X")
    assert recognize(twin).tags == base.tags


def test_capped_isomorphism_checks_surface_as_undecided(monkeypatch):
    s4, t2, d12 = gl.symmetric(4), gl.wall_T(2), gl.dihedral(6)
    monkeypatch.setattr("grouplattice.iso.DEFAULT_ISO_CAP", 8)
    rec = recognize(s4)
    assert "IX" in rec.undecided
    assert "IX" not in rec.subtypes()
    rec = recognize(t2)
    assert "V" in rec.undecided
    rec = recognize(d12)
    assert F7_D12 in rec.undecided


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
            if all(g.mul(g.mul(t, y), t) == g.inv_of(y) for y in a.elements):
                return True
    return False


def test_inverted_abelian_recognizer_matches_oracle(lattices64):
    for lattice in lattices64:
        g = lattice.parent
        if g.order == 1:
            continue
        expect = generalized_dihedral_oracle(lattice)
        got = "I" in recognize(g).subtypes()
        assert got == expect, g.name


def test_frattini_closure_matches_the_lattice_on_two_groups(lattices64):
    # recognize() finds Phi(G) of a 2-group as the closure of its squares
    # and commutators; the intersection of the maximal subgroups is the reference
    two_groups = [lat for lat in lattices64 if lat.parent.order in (2, 4, 8, 16, 32, 64)]
    assert len(two_groups) == 37
    for lattice in two_groups:
        assert _frattini_mask(lattice.parent) == lattice.frattini().mask, lattice.parent.name


def test_inverted_abelian_matches_constructor(catalog36):
    # every group built by the generalized-dihedral constructor in the
    # catalog carries the subtype, whatever model produced the entry
    for entry in catalog36:
        if "generalized-dihedral" in entry.known_tags:
            assert "I" in recognize(entry.group).subtypes(), entry.name


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


def test_verify_theorem_1_1_reports_undecided_loudly(monkeypatch):
    entries = gl.catalog(24)
    monkeypatch.setattr("grouplattice.iso.DEFAULT_ISO_CAP", 8)
    report = verify_theorem_1_1(entries, 24)
    assert not report.passed
    assert any("undecided" in detail for _, detail in report.counterexamples)


def _fresh_entries():
    groups = [gl.elementary_abelian(2, 4), gl.symmetric(3), gl.dihedral(4), gl.elementary_abelian(2, 3)]
    return tuple(gl.CatalogEntry(name=g.name, group=g, known_tags=frozenset()) for g in groups)


@pytest.mark.parametrize(
    "sweep", [lattice_sweep, verify_theorem_1_1, verify_corollary_1_2, verify_corollary_1_3], ids=lambda f: f.__name__
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
    swept = [(entry.name, len(lattice)) for entry, lattice in lattice_sweep(_fresh_entries(), 8)]
    assert swept == [("S3", 6), ("D8", 10), ("C2^3", 16)]


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


@pytest.mark.parametrize("key, param, edim", [("II", 0, 2), ("III", 1, 3), ("V", 1, 1), ("VII", 0, 2), (F7_D12, 6, 0)])
def test_candidate_is_the_repeated_direct_product(key, param, edim):
    # one product with C2^edim gives the table of edim products with C2
    base = {"II": gl.direct_product(gl.dihedral(4), gl.dihedral(4)), "III": gl.wall_H(1), "V": gl.wall_T(1),
            "VII": gl.direct_product(gl.symmetric(3), gl.dihedral(4)), F7_D12: gl.dihedral(6)}[key]
    for _ in range(edim):
        base = gl.direct_product(base, gl.cyclic(2))
    candidate = theorem_a_group(key, param, edim)
    assert candidate.table == base.table and candidate.name == base.name
