"""Isomorphism testing and its invariants."""

import hashlib

import pytest
from hypothesis import given, strategies as st

import grouplattice as gl
from grouplattice import iso
from grouplattice.errors import GroupError, GroupTooLarge
from grouplattice.iso import (
    Isomorphism,
    automorphisms,
    _summary,
    element_invariants,
    is_isomorphic,
    minimal_generating_set,
)

from record_golden import big_texts
from test_core import relabel


def test_reflexive(d8):
    iso = is_isomorphic(d8, d8)
    assert iso is not None
    assert iso.source is d8 and iso.target is d8


def test_symmetric_direction():
    g1 = gl.cyclic(6)
    g2 = gl.direct_product(gl.cyclic(2), gl.cyclic(3))
    assert is_isomorphic(g1, g2) is not None
    assert is_isomorphic(g2, g1) is not None


def test_different_orders_never_isomorphic():
    assert is_isomorphic(gl.cyclic(4), gl.cyclic(5)) is None


def test_same_order_different_structure():
    assert is_isomorphic(gl.cyclic(4), gl.elementary_abelian(2, 2)) is None
    assert is_isomorphic(gl.dihedral(4), gl.dicyclic(2)) is None
    assert is_isomorphic(gl.symmetric(3), gl.cyclic(6)) is None


def test_order_12_groups_pairwise_distinct():
    groups = [
        gl.cyclic(12),
        gl.direct_product(gl.cyclic(6), gl.cyclic(2)),
        gl.dihedral(6),
        gl.alternating(4),
        gl.dicyclic(3),
    ]
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            assert is_isomorphic(a, b) is None


def test_witness_map_is_validated(d8):
    iso = is_isomorphic(gl.dihedral(4), d8)
    assert iso is not None
    assert sorted(iso.map) == list(range(8))


def test_isomorphism_rejects_non_bijection(d8):
    with pytest.raises(GroupError, match="bijection"):
        Isomorphism(d8, d8, (0,) * 8)


def test_isomorphism_rejects_non_homomorphism():
    c4 = gl.cyclic(4)
    with pytest.raises(GroupError, match=r"not a homomorphism at pair \(1, 1\)"):
        Isomorphism(c4, c4, (0, 2, 1, 3))


def test_cap_enforced(monkeypatch):
    g = gl.elementary_abelian(2, 4)
    monkeypatch.setattr("grouplattice.iso.DEFAULT_ISO_CAP", 8)
    with pytest.raises(GroupTooLarge):
        is_isomorphic(g, g)


def test_equal_tables_give_the_identity_without_a_search(monkeypatch):
    calls = []
    search = iso._search
    monkeypatch.setattr(iso, "_search", lambda *args: calls.append(args) or search(*args))
    d12 = gl.dihedral(6)
    found = is_isomorphic(d12, gl.dihedral(6))
    assert found.map == tuple(range(12)) and calls == []
    # a relabelled copy has another table, so the search runs
    perm = [0, *range(11, 0, -1)]
    other = gl.from_cayley_table(relabel([list(row) for row in d12.table], perm))
    assert is_isomorphic(d12, other) is not None and len(calls) == 1


def test_equal_tables_above_the_cap_are_refused():
    g = gl.cyclic(iso.DEFAULT_ISO_CAP + 2)
    with pytest.raises(GroupTooLarge):
        is_isomorphic(g, g)


def test_fingerprint_invariance():
    # the invariants is_isomorphic compares before it searches
    def fingerprint(g):
        return _summary(g), sorted(element_invariants(g))

    assert fingerprint(gl.cyclic(6)) == fingerprint(gl.direct_product(gl.cyclic(2), gl.cyclic(3)))
    assert fingerprint(gl.cyclic(4)) != fingerprint(gl.elementary_abelian(2, 2))
    assert fingerprint(gl.dihedral(4)) != fingerprint(gl.dicyclic(2))


def test_summary_mismatch_skips_element_invariants(monkeypatch):
    # D16 has a centre of order 2, D8xC2 one of order 4
    calls = []
    monkeypatch.setattr(gl.iso, "element_invariants", lambda g: calls.append(g) or ())
    d16, d8c2 = gl.dihedral(8), gl.direct_product(gl.dihedral(4), gl.cyclic(2))
    assert is_isomorphic(d16, d8c2) is None
    assert calls == []


def test_element_invariants_shape(s3):
    inv = element_invariants(s3)
    assert len(inv) == 6
    assert all(len(row) == 4 for row in inv)


def test_minimal_generating_set_sizes():
    assert len(minimal_generating_set(gl.cyclic(12))) == 1
    assert len(minimal_generating_set(gl.elementary_abelian(2, 3))) == 3
    assert len(minimal_generating_set(gl.symmetric(3))) == 2
    assert minimal_generating_set(gl.trivial()) == ()


def test_minimal_generating_set_generates(s4):
    gens = minimal_generating_set(s4)
    assert s4.closure(gens).order == 24


def test_small_group_family_identifications():
    assert is_isomorphic(gl.wall_H(1), gl.dihedral(4)) is not None
    assert is_isomorphic(gl.wall_S(1), gl.dihedral(4)) is not None
    assert is_isomorphic(gl.wall_T(1), gl.alternating(4)) is not None
    assert is_isomorphic(gl.generalized_dihedral(gl.cyclic(3)), gl.symmetric(3)) is not None


def test_central_product_of_two_d8_copies():
    g = gl.central_product(gl.dihedral(4), gl.dihedral(4))
    assert g.order == 32
    assert is_isomorphic(g, gl.wall_H(2)) is not None


def test_index_two_twist_differs_from_generalized_dihedral():
    # both have order 32 and an abelian index-2 subgroup, but the twisted
    # action fixes a complement pointwise instead of inverting everything
    twisted = gl.wall_S(2)
    gdih = gl.generalized_dihedral(gl.abelian((4, 4)))
    assert twisted.order == 32 and gdih.order == 32
    assert is_isomorphic(twisted, gdih) is None


@given(st.permutations(range(8)))
def test_relabeled_dihedral_group_recognized(perm):
    base = gl.dihedral(4)
    g = gl.from_cayley_table(relabel(base.table, list(perm)))
    assert is_isomorphic(base, g) is not None


def is_inner(g, map_) -> bool:
    """map_ is conjugation x -> u^-1 x u by some u, checked on every element."""
    rows = [list(row) for row in g.table]
    inv = [row.index(0) for row in rows]
    return any(all(rows[rows[inv[u]][x]][u] == map_[x] for x in range(g.order)) for u in range(g.order))


def test_automorphisms_are_outer_automorphisms(catalog64):
    groups = [entry.group for entry in catalog64] + [gl.loads_group(text) for text in big_texts().values()]
    for g in groups:
        maps = automorphisms(g)
        assert len(set(maps)) == len(maps) <= 3, g.name
        for map_ in maps:
            Isomorphism(g, g, map_)
            assert not is_inner(g, map_), g.name


def test_automorphisms_stop_at_the_count_bound_with_the_same_maps(catalog64, monkeypatch):
    # the restarts run in the same order and stop only once no new map can
    # exist, so the maps are those that all AUTOMORPHISM_ATTEMPTS restarts
    # find; the digest was recorded from those
    digest = hashlib.sha256()
    for entry in catalog64:
        digest.update(repr((entry.name, automorphisms(entry.group))).encode())
    assert digest.hexdigest() == "c533ce382b6d21697d3a388e04a2adb0a73309fd6ae7fbb0fea4281374c763ab"
    # C6 has two automorphisms, both found in a few restarts
    calls = []
    search = gl.iso._search
    monkeypatch.setattr(gl.iso, "_search", lambda *a: calls.append(1) or search(*a))
    assert automorphisms(gl.cyclic(6)) == [(0, 5, 4, 3, 2, 1)]
    assert 2 <= len(calls) < gl.iso.AUTOMORPHISM_ATTEMPTS


OUTER = {
    "C2^6": lambda: gl.elementary_abelian(2, 6),
    "H(3)": lambda: gl.wall_H(3),
    "T(3)": lambda: gl.wall_T(3),
    "D8*D8xC2xC2": lambda: gl.direct_product(gl.direct_product(gl.wall_H(2), gl.cyclic(2)), gl.cyclic(2)),
}


@pytest.mark.parametrize("name", OUTER)
def test_automorphism_search_finds_an_outer_automorphism(name):
    assert automorphisms(OUTER[name]())


def test_automorphisms_of_a_complete_group_are_none_and_repeatable():
    # every automorphism of S4 and S5 is inner; the search is seeded
    assert automorphisms(gl.symmetric(4)) == automorphisms(gl.symmetric(5)) == []
    g = gl.elementary_abelian(2, 4)
    assert automorphisms(g) == automorphisms(gl.elementary_abelian(2, 4))


def test_is_inner_matches_the_conjugation_definition(monkeypatch):
    # every map automorphisms finds for the solvable groups of catalog(64),
    # inner ones included: _is_inner sees each before the inner are dropped
    def by_definition(g, map_):
        rows, inv = g.table, g.inverses
        return any(all(rows[rows[inv[u]][s]][u] == map_[s] for s in g.generators) for u in range(g.order))

    seen = []
    is_inner = iso._is_inner

    def recording(g, map_):
        seen.append((g, map_))
        return is_inner(g, map_)

    monkeypatch.setattr(iso, "_is_inner", recording)
    for entry in gl.catalog(64):
        if entry.group.is_solvable:
            iso.automorphisms(entry.group)
    answers = [is_inner(g, map_) for g, map_ in seen]
    assert answers == [by_definition(g, map_) for g, map_ in seen]
    assert len(seen) > 300 and 0 < sum(answers) < len(seen)
