"""Group constructors and the group catalog."""

import gc
import re
import weakref

import pytest

import grouplattice as gl
from grouplattice import cli
from grouplattice.errors import (
    ActionOrderMismatch,
    GroupError,
    GroupTooLarge,
    NotAbelian,
    NotAutomorphism,
    NotCentralInvolution,
)
from grouplattice.iso import is_isomorphic


# ---------------------------------------------------------------------------
# abelian constructors


def test_cyclic_basics():
    g = gl.cyclic(6)
    assert g.order == 6 and g.is_cyclic and g.name == "C6"
    assert gl.cyclic(1).order == 1
    with pytest.raises(GroupError):
        gl.cyclic(0)


def test_abelian_mixed_factors():
    g = gl.abelian((2, 4))
    assert g.order == 8
    assert g.is_abelian and not g.is_cyclic
    assert g.exponent == 4
    assert g.name == "C2xC4"
    with pytest.raises(GroupError):
        gl.abelian((1, 4))


def test_abelian_coprime_factors_give_cyclic():
    assert is_isomorphic(gl.abelian((2, 3)), gl.cyclic(6)) is not None


def test_elementary_abelian():
    g = gl.elementary_abelian(2, 3)
    assert g.order == 8 and g.exponent == 2 and g.name == "C2^3"
    assert gl.elementary_abelian(3, 2).exponent == 3
    assert gl.elementary_abelian(2, 0).order == 1
    with pytest.raises(GroupError):
        gl.elementary_abelian(2, -1)
    with pytest.raises(GroupError):
        gl.elementary_abelian(4, 2)


# ---------------------------------------------------------------------------
# dihedral-style constructions


def test_dihedral_basics():
    d8 = gl.dihedral(4)
    assert d8.order == 8 and d8.name == "D8"
    assert not d8.is_abelian
    assert gl.dihedral(1).order == 2
    assert gl.dihedral(2).is_abelian  # Klein group
    with pytest.raises(GroupError):
        gl.dihedral(0)


def test_generalized_dihedral_law():
    # every element outside the abelian half is an involution that inverts it
    for a in (gl.cyclic(6), gl.abelian((2, 4))):
        m = a.order
        g = gl.generalized_dihedral(a)
        assert g.order == 2 * m
        for t in range(m, 2 * m):
            assert g.element_order(t) == 2
            for y in range(m):
                assert g.mul(g.mul(t, y), g.inv_of(t)) == g.inv_of(y)


def test_generalized_dihedral_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        gl.generalized_dihedral(gl.symmetric(3))


def test_generalized_dihedral_of_klein_group():
    g = gl.generalized_dihedral(gl.elementary_abelian(2, 2))
    assert g.exponent == 2  # D(A) of an exponent-2 group stays exponent 2


# ---------------------------------------------------------------------------
# semidirect products


def test_semidirect_inversion_gives_dihedral():
    c5 = gl.cyclic(5)
    inversion = [c5.inv_of(x) for x in range(5)]
    g = gl.semidirect(c5, inversion, 2)
    assert is_isomorphic(g, gl.dihedral(5)) is not None


def test_semidirect_trivial_action_gives_direct_product():
    c3 = gl.cyclic(3)
    g = gl.semidirect(c3, range(3), 2)
    assert is_isomorphic(g, gl.cyclic(6)) is not None


def test_semidirect_order_3_action():
    # cyclic rotation of coordinates on the Klein group
    v4 = gl.elementary_abelian(2, 2)
    rot = [0, 2, 3, 1]
    g = gl.semidirect(v4, rot, 3)
    assert is_isomorphic(g, gl.alternating(4)) is not None


def test_semidirect_rejects_non_permutation():
    with pytest.raises(NotAutomorphism, match="not a permutation"):
        gl.semidirect(gl.cyclic(3), [0, 0, 1], 2)


def test_semidirect_rejects_non_automorphism():
    # swapping two elements of C4 that differ in order cannot be one
    with pytest.raises(NotAutomorphism, match=r"breaks the product at pair \(1, 1\)"):
        gl.semidirect(gl.cyclic(4), [0, 2, 1, 3], 2)


@pytest.mark.parametrize(
    "action,witness",
    [
        ([0, 2.9, 1, 3], r"action entry 1 = 2\.9 is not an integer"),
        ([0, True, 2, 3], r"action entry 1 = True is not an integer"),
        ([0, 1, "2", 3], r"action entry 2 = '2' is not an integer"),
    ],
)
def test_semidirect_refuses_non_int_action_entries(action, witness):
    # a cast to int would read 2.9 as 2 and build a non-abelian group of order 8
    with pytest.raises(NotAutomorphism, match=witness):
        gl.semidirect(gl.elementary_abelian(2, 2), action, 2)


def test_semidirect_rejects_wrong_action_order():
    c5 = gl.cyclic(5)
    inversion = [c5.inv_of(x) for x in range(5)]
    with pytest.raises(ActionOrderMismatch):
        gl.semidirect(c5, inversion, 3)


def test_products_and_extensions_above_256_build_uint16_rows():
    # orders above 256 take the array('H') branch of core.compose_rows
    c4x80 = gl.abelian([4, 80])
    assert c4x80.order == 320 and c4x80.table[0].format == "H"
    assert is_isomorphic(c4x80, gl.abelian([16, 20])) is not None
    assert is_isomorphic(c4x80, gl.abelian([2, 160])) is None
    c129 = gl.cyclic(129)
    d258 = gl.semidirect(c129, [c129.inv_of(x) for x in range(129)], 2)
    assert is_isomorphic(d258, gl.dihedral(129)) is not None
    assert gl.dihedral(129).involution_count == 129
    a5xs3 = gl.direct_product(gl.alternating(5), gl.symmetric(3))
    assert a5xs3.order == 360 and a5xs3.center().order == 1
    assert a5xs3.derived_subgroup().order == 180


# ---------------------------------------------------------------------------
# two-generator 2-group towers and the twisted families


@pytest.mark.parametrize("r", [1, 2, 3])
def test_wall_h_orders(r):
    g = gl.wall_H(r)
    assert g.order == 2 ** (2 * r + 1)
    assert g.name == f"H({r})"
    assert g.derived_subgroup().order == 2
    assert g.center().order == 2
    assert g.exponent == 4


@pytest.mark.parametrize("r", [1, 2, 3])
def test_wall_s_orders(r):
    g = gl.wall_S(r)
    assert g.order == 2 ** (2 * r + 1)
    assert g.name == f"S({r})"
    # index-2 elementary abelian part acted on with fixed points
    assert g.exponent == 4


@pytest.mark.parametrize("r", [1, 2])
def test_wall_t_orders(r):
    g = gl.wall_T(r)
    assert g.order == 3 * 4**r
    assert g.name == f"T({r})"
    assert g.exponent == 6 if r > 1 else 6


def test_wall_t1_is_alternating_4():
    assert gl.wall_T(1).exponent == 6
    assert is_isomorphic(gl.wall_T(1), gl.alternating(4)) is not None


def test_wall_families_reject_bad_rank():
    for fam in (gl.wall_H, gl.wall_S, gl.wall_T):
        with pytest.raises(GroupError):
            fam(0)


def test_wall_h_vs_s_not_isomorphic():
    assert is_isomorphic(gl.wall_H(2), gl.wall_S(2)) is None


# ---------------------------------------------------------------------------
# products


def test_direct_product_orders_multiply():
    g = gl.direct_product(gl.symmetric(3), gl.cyclic(2))
    assert g.order == 12
    assert g.name == "S3xC2"
    assert is_isomorphic(g, gl.dihedral(6)) is not None


def test_direct_product_nested():
    g = gl.direct_product(gl.direct_product(gl.cyclic(2), gl.cyclic(2)), gl.cyclic(2))
    assert g.name == "C2xC2xC2"
    assert is_isomorphic(g, gl.elementary_abelian(2, 3)) is not None


def test_central_product_d8_c4():
    g = gl.central_product(gl.dihedral(4), gl.cyclic(4))
    assert g.order == 16
    assert g.name == "D8*C4"
    assert g.center().order == 4


def test_central_product_rejects_factor_without_central_involution():
    with pytest.raises(NotCentralInvolution):
        gl.central_product(gl.dihedral(4), gl.cyclic(3))


def test_central_product_rejects_ambiguous_factor():
    # the Klein group has three central involutions, so the default choice
    # is refused
    with pytest.raises(NotCentralInvolution):
        gl.central_product(gl.elementary_abelian(2, 2), gl.dihedral(4))


@pytest.mark.parametrize("z1", [2.0, True, "4", -1, 8])
def test_central_product_refuses_a_non_element_witness(z1):
    d8 = gl.dihedral(4)
    with pytest.raises(NotCentralInvolution, match=f"element {re.escape(repr(z1))} of the first factor"):
        gl.central_product(d8, d8, z1=z1)


def test_central_product_explicit_witnesses():
    v4 = gl.elementary_abelian(2, 2)
    g = gl.central_product(v4, v4, z1=1, z2=1)
    assert g.order == 8
    assert is_isomorphic(g, gl.elementary_abelian(2, 3)) is not None


@pytest.mark.parametrize(
    "g1, g2, z1, z2",
    [
        (gl.dihedral(4), gl.dicyclic(2), None, None),
        (gl.abelian([2, 4]), gl.elementary_abelian(2, 2), 4, 3),
        (gl.dihedral(16), gl.dihedral(8), None, None),  # product 512, result 256
        (gl.dihedral(32), gl.dihedral(8), None, None),  # result 512
    ],
    ids=["D8*Q8", "C2xC4*C2^2", "D32*D16", "D64*D16"],
)
def test_central_product_is_the_quotient_of_the_direct_product(g1, g2, z1, z2):
    # the reference: pairs (a1, a2) of G1 x G2 modulo {1, (z1, z2)}, the
    # cosets numbered by their least index a1*|G2| + a2, computed here
    g = gl.central_product(g1, g2, z1=z1, z2=z2)
    if z1 is None:  # the factors' unique central involutions
        z1, z2 = (next(x for x in range(1, h.order) if h.center_mask >> x & 1 and h.element_orders[x] == 2) for h in (g1, g2))
    n2 = g2.order

    def mul(x, y):
        return g1.mul(x // n2, y // n2) * n2 + g2.mul(x % n2, y % n2)

    cosets = sorted({min(x, mul(x, z1 * n2 + z2)) for x in range(g1.order * n2)})
    label = {x: i for i, x in enumerate(cosets)}
    label.update((mul(x, z1 * n2 + z2), i) for i, x in enumerate(cosets))
    assert [list(row) for row in g.table] == [[label[mul(a, b)] for b in cosets] for a in cosets]


def test_central_product_rejects_non_involution_witness():
    with pytest.raises(NotCentralInvolution):
        gl.central_product(gl.cyclic(4), gl.cyclic(4), z1=1, z2=2)


# ---------------------------------------------------------------------------
# other families


def test_dicyclic_groups():
    q8 = gl.dicyclic(2)
    assert q8.order == 8 and q8.name == "Q8"
    assert q8.involution_count == 1
    dic3 = gl.dicyclic(3)
    assert dic3.order == 12 and dic3.name == "Dic3"
    assert dic3.involution_count == 1
    assert sorted(dic3.element_orders) == [1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6]
    with pytest.raises(GroupError):
        gl.dicyclic(1)


def test_heisenberg_groups():
    h3 = gl.heisenberg(3)
    assert h3.order == 27 and h3.exponent == 3 and not h3.is_abelian
    h5 = gl.heisenberg(5)
    assert h5.order == 125 and h5.exponent == 5
    with pytest.raises(GroupError):
        gl.heisenberg(2)
    with pytest.raises(GroupError):
        gl.heisenberg(4)


def test_symmetric_and_alternating():
    assert gl.symmetric(1).order == 1
    assert gl.symmetric(2).order == 2
    assert gl.symmetric(4).order == 24
    assert gl.alternating(3).order == 3
    assert gl.alternating(4).order == 12
    assert gl.alternating(5).order == 60
    assert not gl.alternating(5).is_solvable
    with pytest.raises(GroupError):
        gl.alternating(2)


def test_trivial_group():
    g = gl.trivial()
    assert g.order == 1
    assert g.delta == 0


# ---------------------------------------------------------------------------
# catalog


def test_catalog_complete_through_11(catalog36):
    counts = {}
    for e in gl.catalog(11):
        counts[e.group.order] = counts.get(e.group.order, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1}


def test_catalog_order_8_names():
    names = [e.name for e in gl.catalog(8) if e.group.order == 8]
    assert names == ["C2^3", "C2xC4", "C8", "D8", "Q8"]


def test_catalog_sizes():
    assert len(gl.catalog(11)) == 19
    assert len(gl.catalog(15)) == 28


def test_catalog_entries_well_formed(catalog36):
    for e in catalog36:
        assert e.name == e.group.name
        assert e.group.order <= 36
        assert isinstance(e.known_tags, frozenset) and e.known_tags


def test_catalog_sorted_and_deterministic(catalog36):
    keys = [(e.group.order, e.name) for e in catalog36]
    assert keys == sorted(keys)
    assert [e.name for e in gl.catalog(36)] == [e.name for e in catalog36]


def test_catalog_tag_merging_on_d8():
    d8 = next(e for e in gl.catalog(11) if e.name == "D8")
    assert {"generalized-dihedral", "wall-H", "wall-S", "small-order"} <= d8.known_tags


def test_catalog_order_12_entries():
    entries = {e.name: e.known_tags for e in gl.catalog(12) if e.group.order == 12}
    assert set(entries) == {"A4", "C12", "C2xC6", "D12", "Dic3"}
    assert "wall-T" in entries["A4"]
    assert "generalized-dihedral" in entries["D12"]


def test_catalog_pairwise_distinct_within_order(catalog64):
    # every pair, not only those with equal element orders: an isomorphic
    # pair that the catalog's element-order screen kept apart fails here
    by_order = {}
    for e in catalog64:
        by_order.setdefault(e.group.order, []).append(e.group)
    for groups in by_order.values():
        for i, a in enumerate(groups):
            for b in groups[i + 1 :]:
                assert is_isomorphic(a, b) is None


def test_catalog_above_the_isomorphism_cap(monkeypatch):
    monkeypatch.setattr("grouplattice.iso.DEFAULT_ISO_CAP", 16)
    # above the cap, groups with different element orders need no
    # isomorphism test and are listed
    above = [e.group for e in gl.catalog(26) if e.group.order > 16]
    assert len(above) == 12
    profiles = {(g.order, tuple(sorted(g.element_orders))) for g in above}
    assert len(profiles) == len(above)
    # C3^3 and Heis3 both have 26 elements of order 3: that pair needs a
    # test above the cap, which is refused
    with pytest.raises(GroupTooLarge, match="order 27 exceeds cap 16"):
        gl.catalog(27)


def test_catalog_validates_no_scaffold_factors(monkeypatch):
    # 341 entries and 24 tables not returned: 20 groups isomorphic to an
    # earlier entry, all of order <= 32, and four factors used through group
    # methods: the S3 of S3xS3, the S3 and D8 of S3xD8, and the C4 of D8*C4.
    # Dih(C2^k) and D8xC2^k are not built, since they are proved equal to
    # kept entries. Every C2 factor, every elementary abelian factor of the
    # cpn-c2, wall-S and wall-T groups and every cyclic half of a dihedral
    # group is built as rows and validated only inside the group it is in.
    # The shared Theorem A groups and the chain seeds are memoised, so the
    # memos are cleared first.
    from grouplattice.core import FiniteGroup
    from grouplattice.families import _seed, theorem_a_group

    theorem_a_group.cache_clear()
    _seed.cache_clear()
    calls = []
    validate = FiniteGroup._validate_and_normalize
    monkeypatch.setattr(FiniteGroup, "_validate_and_normalize", lambda g: calls.append(g.name) or validate(g))
    entries = gl.catalog(256)
    assert len(entries) == 341
    assert len(calls) == 365


def _kept(entries, g):
    """The catalog entry isomorphic to g."""
    return next(e for e in entries if e.group.order == g.order and is_isomorphic(e.group, g) is not None)


def test_catalog_tags_the_kept_entry_of_each_skipped_group():
    # the catalog no longer builds Dih(A) for A of exponent at most 2, nor
    # the D8 seed chain; built here as before, each is isomorphic to an
    # entry that carries its tags
    catalog256 = gl.catalog(256)
    names = {e.name for e in catalog256}
    for k in range(8):
        g = gl.generalized_dihedral(gl.elementary_abelian(2, k))
        kept = _kept(catalog256, g)
        assert {"elementary-abelian-2", "generalized-dihedral"} <= kept.known_tags, kept.name
        assert g.name not in names
    g = gl.dihedral(4)
    for k in range(6):
        if k:
            g = gl.direct_product(g, gl.cyclic(2))
        kept = _kept(catalog256, g)
        assert {"generalized-dihedral", "generalized-extraspecial-seed"} <= kept.known_tags, kept.name
        assert kept.name == ("D8" if k == 0 else f"D({'C2x' * k}C4)")
    assert g.order == 256


def test_catalog_shares_the_theorem_a_groups():
    # the catalog's wall, S3xS3, S3xD8xC2^e, S4, A5 and D12 entries are the
    # objects the recognizers compare against
    from grouplattice.families import theorem_a_group

    by_name = {e.name: e.group for e in gl.catalog(256)}
    recipes = [(subtype, r, 0) for subtype in ("III", "IV", "V") for r in (2, 3)]
    recipes += [("VII", 0, e) for e in range(3)] + [("VIII", 0, 0), ("IX", 0, 0), ("X", 0, 0), ("F7_D12", 6, 0)]
    for recipe in recipes:
        g = theorem_a_group(*recipe)
        assert by_name[g.name] is g, recipe


def test_catalog_rejects_bad_bound():
    with pytest.raises(GroupError):
        gl.catalog(0)


def _per_order_catalog(max_order):
    # the CLI's catalog: one catalog(n, n) call an order
    cli._load_layers("families")
    return cli._catalog(max_order)


def test_iter_catalog_is_the_catalog():
    def key(entries):
        return [(e.name, e.known_tags, e.group.table) for e in entries]

    whole = gl.catalog(64)
    assert key(_per_order_catalog(64)) == key(whole)
    assert key(gl.catalog(64, min_order=33)) == key(e for e in whole if e.group.order >= 33)


# the catalog(128) groups that outlive their order: the memoised Theorem A
# groups (D12, S4, S3xS3, S3xD8xC2^e, A5 and the wall groups) and the
# memoised seeds of the D8*X chains, D8 being also their factor
SHARED_128 = {"D12", "S4", "S3xS3", "S3xD8", "S3xD8xC2", "A5", "H(2)", "S(2)", "H(3)", "S(3)", "T(2)"}
SHARED_128 |= {"D8", "D8*C4", "D8*Q8"}


def test_iter_catalog_holds_one_order_at_a_time():
    # when the first entry of an order arrives, the groups of earlier orders
    # that the caller did not keep are gone, apart from the shared ones:
    # freed by reference counting, with no collection run in between
    earlier, current, order = [], [], None
    for entry in _per_order_catalog(128):
        if entry.group.order != order:
            earlier += current
            current = []
            alive = {ref().name for ref in earlier if ref() is not None}
            assert alive <= SHARED_128, (entry.group.order, alive - SHARED_128)
            assert len(alive) <= 12, entry.group.order
            order = entry.group.order
        current.append(weakref.ref(entry.group))
    del entry
    gc.collect()
    alive = {ref().name for ref in earlier + current if ref() is not None}
    assert alive == SHARED_128


def test_catalog_monotone():
    # every bound 1..36, each catalog built once
    names = [{(e.group.order, e.name) for e in gl.catalog(n)} for n in range(1, 37)]
    for n, (smaller, larger) in enumerate(zip(names, names[1:]), start=1):
        assert smaller <= larger, n
