"""Degree and maximal-subgroup bounds with their equality characterizations."""

import json
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import grouplattice as gl
from grouplattice.arith import divisors
from grouplattice.bounds import (
    BoundReport,
    CandidateOrders,
    candidate_orders,
    cww_b,
    edge_bound,
    herzog_manz_c,
    lemma_2_1,
    lemma_2_3_check,
    lemma_2_3_scan,
    newton_d,
    newton_e,
    quotient_is_elementary_abelian_2,
    wall_a,
)
from grouplattice.errors import (
    GroupError,
    GroupTooLarge,
    NotPrime,
    NotSolvable,
    PrimesNotDistinct,
    TrivialGroup,
)
from grouplattice.lattice import all_subgroups


def lat(g):
    return all_subgroups(g)


# ---------------------------------------------------------------------------
# per-subgroup degree bound


def test_lemma_2_1_is_constant_on_automorphism_orbits(lattices64):
    # `verify lemma21` evaluates the bound on the first vertex of each orbit
    # and reuses that report for the orbit's other members
    checked = 0
    for lattice in lattices64:
        if not lattice.parent.is_solvable:
            continue
        first: dict = {}
        for h, orbit in zip(lattice.subgroups, lattice.vertex_orbit):
            answer = (h.order, lemma_2_1(lattice, h))
            assert answer == first.setdefault(orbit, answer), (lattice.parent.name, h.order)
            checked += 1
        assert len(first) == lattice.orbits
    assert checked == 11_576


def test_degree_bound_elementary_abelian_equality():
    g = gl.elementary_abelian(2, 3)
    lattice = lat(g)
    h = next(s for s in lattice.subgroups if s.order == 2)
    rep = lemma_2_1(lattice, h)
    assert rep.computed == 4
    assert rep.limit == Fraction(4)  # 2 + 8/2 - 2
    assert rep.holds and rep.equality and rep.equality_condition


def test_degree_bound_cyclic_4_equality():
    g = gl.cyclic(4)
    lattice = lat(g)
    h = next(s for s in lattice.subgroups if s.order == 2)
    rep = lemma_2_1(lattice, h)
    assert (rep.computed, rep.limit) == (2, Fraction(2))
    assert rep.equality and rep.equality_condition


def test_degree_bound_cyclic_9_strict():
    g = gl.cyclic(9)
    lattice = lat(g)
    h = next(s for s in lattice.subgroups if s.order == 3)
    rep = lemma_2_1(lattice, h)
    assert (rep.computed, rep.limit) == (2, Fraction(4))
    assert rep.holds and not rep.equality and not rep.equality_condition


def test_degree_bound_rejects_nonsolvable():
    g = gl.alternating(5)
    with pytest.raises(NotSolvable):
        lemma_2_1(lat(g), g.subgroup([0]))


def test_degree_bound_rejects_a_subgroup_of_another_group(s3, d8):
    # the lattice carries its group, so a subgroup of another group is no vertex
    with pytest.raises(GroupError, match="is not a vertex of the S3 lattice"):
        lemma_2_1(lat(s3), d8.subgroup(range(8)))


def test_quotient_test_matches_squares_and_derived_subgroup():
    # the squares test alone equals "H is normal, and every square and all
    # of G' lie in H" on every subgroup of every nontrivial solvable
    # catalog(48) group: holding the squares makes H normal
    subgroups = normal = 0
    for entry in gl.catalog(48):
        g = entry.group
        if g.order == 1 or not g.is_solvable:
            continue
        rows = g.table
        for h in lat(g).subgroups:
            reference = h.is_normal and all(rows[a][a] in h for a in range(g.order)) and g.derived_mask & ~h.mask == 0
            assert quotient_is_elementary_abelian_2(h) == reference, (g.name, h.mask)
            subgroups += 1
            normal += h.is_normal
    assert (subgroups, normal) == (3131, 1599)


def test_degree_bound_equality_characterization_all_pairs(catalog36):
    # every subgroup of every solvable catalog group up to order 24
    for entry in catalog36:
        g = entry.group
        if g.order > 24 or not g.is_solvable:
            continue
        lattice = lat(g)
        for h in lattice.subgroups:
            rep = lemma_2_1(lattice, h)  # raises CheckFailed unless the iff holds
            assert rep.holds


# ---------------------------------------------------------------------------
# maximal-subgroup counts


def test_maximal_count_bound_s3(s3):
    rep = wall_a(lat(s3))
    assert (rep.computed, rep.limit, rep.holds) == (4, Fraction(5), True)


def test_maximal_count_bound_s4(s4):
    rep = wall_a(lat(s4))
    assert (rep.computed, rep.limit, rep.holds) == (8, Fraction(23), True)


def test_smallest_prime_refinement_s3(s3):
    rep = cww_b(lat(s3))
    assert (rep.computed, rep.limit) == (4, Fraction(5))
    assert rep.holds and not rep.equality and not rep.equality_condition


def test_smallest_prime_refinement_elementary_abelian_equality():
    g = gl.elementary_abelian(3, 2)
    rep = cww_b(lat(g))
    assert (rep.computed, rep.limit) == (4, Fraction(4))
    assert rep.equality and rep.equality_condition


def test_smallest_prime_refinement_condition_over_catalog(catalog36):
    for entry in catalog36:
        g = entry.group
        if g.order == 1 or g.order > 24 or not g.is_solvable:
            continue
        rep = cww_b(lat(g))
        assert rep.holds
        assert rep.equality == rep.equality_condition


def test_frattini_index_bound_d8(d8):
    rep = herzog_manz_c(lat(d8))
    assert (rep.computed, rep.limit) == (3, Fraction(3))
    assert rep.equality


def test_frattini_index_bound_catalog(catalog36):
    for entry in catalog36:
        g = entry.group
        if g.order == 1 or g.order > 24 or not g.is_solvable:
            continue
        assert herzog_manz_c(lat(g)).holds


def test_p_power_index_maximal_counts_s3(s3):
    lattice = lat(s3)
    by_two = newton_d(lattice, 2)
    assert [r.bound_name for r in by_two] == ["newton_d_main", "newton_d_sharp"]
    assert [(r.computed, r.limit, r.equality) for r in by_two] == [
        (1, Fraction(1), True),
        (1, Fraction(1), True),
    ]
    by_three = newton_d(lattice, 3)
    # no proper normal subgroup of 3-power index, so only the main report
    assert [r.bound_name for r in by_three] == ["newton_d_main"]
    assert (by_three[0].computed, by_three[0].limit) == (3, Fraction(3))
    assert by_three[0].equality


def test_p_power_index_maximal_counts_boolean_cube():
    g = gl.elementary_abelian(2, 5)
    lattice = lat(g)
    reports = newton_d(lattice, 2)
    assert [(r.bound_name, r.computed, r.limit) for r in reports] == [
        ("newton_d_main", 31, Fraction(31)),
        ("newton_d_sharp", 31, Fraction(31)),
    ]


def test_p_power_index_rejects_non_divisor(s3):
    with pytest.raises(GroupError):
        newton_d(lat(s3), 5)
    with pytest.raises(NotPrime):
        newton_d(lat(s3), 4)


def test_prime_power_part_bound_examples(s3, s4):
    rep = newton_e(lat(s3))
    assert (rep.computed, rep.limit, rep.equality) == (4, Fraction(4), True)

    c12 = gl.cyclic(12)
    rep = newton_e(lat(c12))
    assert (rep.computed, rep.limit, rep.equality) == (2, Fraction(7), False)

    c5 = gl.cyclic(5)
    rep = newton_e(lat(c5))
    assert (rep.computed, rep.limit, rep.equality) == (1, Fraction(1), True)

    rep = newton_e(lat(s4))
    assert (rep.computed, rep.limit) == (8, Fraction(15))


def test_maximal_bounds_reject_trivial_and_nonsolvable():
    t = gl.trivial()
    with pytest.raises(TrivialGroup):
        wall_a(lat(t))
    a5 = gl.alternating(5)
    for fn in (wall_a, cww_b, herzog_manz_c, newton_e):
        with pytest.raises(NotSolvable):
            fn(lat(a5))


def test_bounds_hold_across_solvable_catalog(catalog36):
    for entry in catalog36:
        g = entry.group
        if g.order == 1 or g.order > 24 or not g.is_solvable:
            continue
        lattice = lat(g)
        assert wall_a(lattice).holds
        assert newton_e(lattice).holds
        for p in sorted(gl.factorize(g.order)):
            for rep in newton_d(lattice, p):
                assert rep.holds


# ---------------------------------------------------------------------------
# three-prime inequality


def test_three_prime_inequality_smallest_case():
    rep = lemma_2_3_check(2, 3, 5, 1, 1, 1)
    assert (rep.computed, rep.limit, rep.holds) == (10, Fraction(15), True)


def test_non_integral_limit_is_the_same_fraction():
    # 3 + 5 + 7 against 105/2: decided in integers, reported as a Fraction
    rep = lemma_2_3_check(3, 5, 7, 1, 1, 1)
    assert (rep.computed, rep.limit, rep.holds, rep.equality) == (15, Fraction(105, 2), True, False)
    assert type(rep.limit) is Fraction and str(rep.limit) == "105/2"
    assert str(lemma_2_3_check(2, 3, 5, 1, 1, 1).limit) == "15"


def test_bound_line_matches_the_json_encoder():
    from grouplattice.cli import _bound_line

    def encoded(name, order, rep, **extra):
        payload = {"group": name, "order": order, **extra, "bound": rep.bound_name, "computed": rep.computed}
        payload.update(limit=str(rep.limit), holds=rep.holds, equality=rep.equality)
        payload["equality_condition"] = rep.equality_condition
        return json.dumps(payload, separators=(",", ":"))

    s3 = lat(gl.symmetric(3))
    reports = [lemma_2_3_check(3, 5, 7, 1, 1, 1), lemma_2_3_check(2, 3, 5, 1, 1, 1), cww_b(lat(gl.cyclic(2)))]
    reports += [lemma_2_1(s3, h) for h in s3.subgroups]
    assert {r.equality_condition for r in reports} == {None, True, False}
    for rep in reports:
        assert _bound_line('S"3\u00e9', 6, rep) == encoded('S"3\u00e9', 6, rep)
        assert _bound_line("S3", 6, rep, subgroup_order=2) == encoded("S3", 6, rep, subgroup_order=2)


def test_records_build_by_keyword():
    rep = BoundReport(bound_name="b", computed=1, limit=Fraction(3, 2), holds=True, equality=False)
    assert rep == BoundReport("b", 1, Fraction(3, 2), True, False, None)
    assert hash(rep) == hash(BoundReport("b", 1, Fraction(3, 2), True, False))
    assert CandidateOrders(n=12, small_case=False, divisors=frozenset({1, 12})).divisors == {1, 12}
    entry = gl.CatalogEntry(name="C2", group=gl.cyclic(2), known_tags=frozenset({"x"}))
    assert (entry.name, entry.group.order, entry.known_tags) == ("C2", 2, {"x"})
    assert entry == gl.CatalogEntry("C2", entry.group, frozenset({"x"}))


def test_three_prime_inequality_rejects_bad_input():
    with pytest.raises(PrimesNotDistinct):
        lemma_2_3_check(2, 3, 3, 1, 1, 1)
    with pytest.raises(NotPrime):
        lemma_2_3_check(2, 3, 9, 1, 1, 1)
    with pytest.raises(GroupError):
        lemma_2_3_check(2, 3, 5, 1, 0, 1)


def test_three_prime_scan_is_clean():
    reports = lemma_2_3_scan(31, 4)
    assert reports
    assert all(r.holds for r in reports)


def test_three_prime_scan_is_the_checks_in_order():
    primes = [2, 3, 5, 7, 11, 13, 17]
    expected = [
        lemma_2_3_check(*triple, *exps)
        for triple in combinations(primes, 3)
        for exps in product(range(1, 4), repeat=3)
    ]
    assert lemma_2_3_scan(18, 3) == expected


def test_three_prime_scan_budget(monkeypatch):
    # the default scan, 11 primes and 4 exponents: C(11, 3) * 4^3 checks
    monkeypatch.setattr("grouplattice.bounds.LEMMA_2_3_MAX_CHECKS", 165 * 64)
    assert len(lemma_2_3_scan(31, 4)) == 165 * 64
    monkeypatch.setattr("grouplattice.bounds.LEMMA_2_3_MAX_CHECKS", 165 * 64 - 1)
    with pytest.raises(GroupTooLarge, match="needs at least 10560 checks .* budget of 10559"):
        lemma_2_3_scan(31, 4)


def test_three_prime_scan_refuses_before_listing_every_prime(monkeypatch):
    listed = []
    is_prime = gl.is_prime
    monkeypatch.setattr("grouplattice.bounds.is_prime", lambda n: listed.append(n) or is_prime(n))
    with pytest.raises(GroupTooLarge, match="needs at least 1004731 checks .* budget of 1000000"):
        lemma_2_3_scan(1_000_000, 1)
    # C(183, 3) > 10^6 >= C(182, 3): the scan stops at the 183rd prime, 1093
    assert listed[-1] == 1093
    assert lemma_2_3_scan(4, 10**9) == []


def test_three_prime_scan_counts():
    # primes up to 13: C(6, 3) triples, 2^3 exponent patterns up to 2
    reports = lemma_2_3_scan(13, 2)
    assert len(reports) == 20 * 8


@given(
    st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 4)),
    st.tuples(st.sampled_from([17, 19, 23]), st.integers(1, 4)),
    st.tuples(st.sampled_from([29, 31, 37]), st.integers(1, 4)),
)
def test_three_prime_inequality_property(a, b, c):
    rep = lemma_2_3_check(a[0], b[0], c[0], a[1], b[1], c[1])
    assert rep.holds


# ---------------------------------------------------------------------------
# which orders can carry a high-degree vertex


def test_candidate_orders_small_cases():
    for n in range(1, 12):
        res = candidate_orders(n)
        assert res == CandidateOrders(n=n, small_case=True, divisors=None)


def test_candidate_orders_examples():
    assert candidate_orders(12).divisors == frozenset({1, 2, 6, 12})
    assert candidate_orders(16).divisors == frozenset({1, 2, 8, 16})
    assert candidate_orders(15).divisors == frozenset({1, 15})


def test_candidate_orders_rejects_nonpositive():
    with pytest.raises(GroupError):
        candidate_orders(0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=12, max_value=10000))
def test_candidate_orders_land_in_four_targets(n):
    res = candidate_orders(n)
    assert not res.small_case
    targets = {1, 2, n, n // 2 if n % 2 == 0 else n}
    assert res.divisors <= targets
    assert {1, n} <= res.divisors  # endpoints always satisfy the quadratic


# ---------------------------------------------------------------------------
# global edge count


def test_edge_count_bound_examples(d8):
    rep = edge_bound(lat(gl.cyclic(2)))
    assert (rep.computed, rep.limit, rep.equality) == (1, Fraction(1), True)
    rep = edge_bound(lat(d8))
    assert (rep.computed, rep.limit) == (15, Fraction(35))
    rep = edge_bound(lat(gl.elementary_abelian(2, 3)))
    assert (rep.computed, rep.limit) == (35, Fraction(56))


def test_edge_count_bound_catalog(catalog36):
    for entry in catalog36:
        g = entry.group
        if g.order > 24 or not g.is_solvable:
            continue
        assert edge_bound(lat(g)).holds
