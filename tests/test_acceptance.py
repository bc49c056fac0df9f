"""End-to-end acceptance criteria.

Each test prints one CRITERION line to the real stdout (bypassing
capture) and then asserts the criterion as stated. Criterion 7 pins a
finding: the exact-|G|/2 characterization as stated is refuted by D12
and S(2), each of which has a vertex of degree exactly |G|/2 without
belonging to any listed family. The test checks that the verifier
reports exactly those two groups and confirms both facts with the
independent oracle and the raw Cayley table. See README.md for the
analysis.
"""

import sys
import time
from fractions import Fraction

import grouplattice as gl
from grouplattice.bounds import (
    candidate_orders,
    cww_b,
    edge_bound,
    herzog_manz_c,
    lemma_2_1,
    lemma_2_3_check,
    lemma_2_3_scan,
    newton_d,
    newton_e,
    wall_a,
)
from grouplattice.classify import (
    verify_corollary_1_2,
    verify_corollary_1_3,
    verify_theorem_1_1,
    verify_theorem_A,
    verify_wall,
)
from grouplattice.lattice import all_subgroups

from oracle_lattice import naive_closure, naive_covers, naive_subgroups

CRITERION_LINES: list[str] = []


def announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {number}: {status} - {detail}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def extra_entries():
    groups = [
        gl.symmetric(4),
        gl.direct_product(gl.symmetric(3), gl.symmetric(3)),
        gl.wall_T(1),
        gl.wall_T(2),
        gl.wall_H(1),
        gl.wall_H(2),
        gl.wall_S(1),
        gl.wall_S(2),
        gl.alternating(5),
        gl.heisenberg(3),
        gl.direct_product(gl.symmetric(3), gl.dihedral(4)),
    ]
    return tuple(
        gl.CatalogEntry(name=g.name, group=g, known_tags=frozenset({"acceptance-extra"}))
        for g in groups
    )


def test_criterion_1_delta_census_matches_type_recognition():
    start = time.perf_counter()
    entries = gl.catalog(36) + extra_entries()
    report = verify_theorem_A(entries, 60)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    announce(
        1,
        ok,
        f"delta > |G|/2-1 iff a type I..X tag, {report.groups_checked} groups "
        f"in {elapsed:.1f}s (budget 60s); counterexamples: {list(report.counterexamples)}",
    )
    assert report.passed, report.counterexamples
    assert elapsed < 60.0


def test_criterion_2_high_degree_solvable_groups_recognized():
    start = time.perf_counter()
    report = verify_theorem_1_1(gl.catalog(64), 64)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 300.0
    announce(
        2,
        ok,
        f"every solvable group up to order 64 with a vertex of degree > |G|/2-1 "
        f"lands in a listed family, {report.groups_checked} groups in {elapsed:.1f}s "
        f"(budget 300s); counterexamples: {list(report.counterexamples)}",
    )
    assert report.passed, report.counterexamples
    assert elapsed < 300.0


def test_criterion_3_subgroup_degree_bound_all_pairs():
    pairs = 0
    groups = 0
    for entry in gl.catalog(48):
        g = entry.group
        if g.order == 1 or g.order > 48 or not g.is_solvable:
            continue
        groups += 1
        lattice = all_subgroups(g)
        for h in lattice.subgroups:
            rep = lemma_2_1(lattice, h)  # asserts equality iff H, G/H shape
            assert rep.holds, (entry.name, h.order)
            pairs += 1
    announce(
        3,
        True,
        f"deg(H) <= |H| + |G|/|H| - 2 with the equality characterization on "
        f"{pairs} subgroup pairs across {groups} solvable groups up to order 48",
    )


def test_criterion_4_maximal_subgroup_count_bounds(lattices64):
    checked = 0
    for lattice in lattices64:
        g = lattice.parent
        if g.order == 1 or g.order > 64 or not g.is_solvable:
            continue
        reports = [wall_a(lattice), cww_b(lattice), herzog_manz_c(lattice)]
        for p in sorted(gl.factorize(g.order)):
            reports.extend(newton_d(lattice, p))
        reports.append(newton_e(lattice))
        for rep in reports:
            assert rep.holds, (g.name, rep)
            checked += 1

    s3 = gl.symmetric(3)
    spot_s3 = newton_e(all_subgroups(s3))
    assert (spot_s3.computed, spot_s3.limit, spot_s3.equality) == (4, Fraction(4), True)
    s4 = gl.symmetric(4)
    spot_s4 = wall_a(all_subgroups(s4))
    assert (spot_s4.computed, spot_s4.limit, spot_s4.holds) == (8, Fraction(23), True)
    announce(
        4,
        True,
        f"all maximal-subgroup count bounds hold ({checked} reports, solvable "
        f"groups to order 64); spot checks |Max(S3)| = 4 meets its prime-power "
        f"limit exactly, |Max(S4)| = 8 <= 23",
    )


def test_criterion_5_three_prime_inequality():
    reports = lemma_2_3_scan(31, 4)
    violations = [r for r in reports if not r.holds]
    spot = lemma_2_3_check(2, 3, 5, 1, 1, 1)
    ok = not violations and (spot.computed, spot.limit) == (10, Fraction(15))
    announce(
        5,
        ok,
        f"three-prime sum bound holds for all {len(reports)} prime triples "
        f"(primes to 31, exponents to 4); smallest case gives 10 <= 15",
    )
    assert not violations
    assert (spot.computed, spot.limit, spot.holds) == (10, Fraction(15), True)


def test_criterion_6_candidate_orders_analysis():
    for n in range(1, 12):
        assert candidate_orders(n).small_case, n
    for n in range(12, 10001):
        result = candidate_orders(n)  # raises CheckFailed if the subset escapes
        targets = {1, 2, n}
        if n % 2 == 0:
            targets.add(n // 2)
        assert result.divisors <= targets, n
    announce(
        6,
        True,
        "maximal-subgroup orders compatible with a degree > |G|/2-1 vertex are "
        "within {1, 2, n/2, n} for every 12 <= n <= 10000; n <= 11 short-circuits",
    )


# Catalog groups to order 32 that refute the exact-|G|/2 characterization,
# with the orders of their degree-|G|/2 vertices: D12 itself (one edge down
# to each of its six maximal subgroups) and the elementary abelian index-2
# subgroup C2^4 of S(2) (15 hyperplanes below, only G above).
COR_1_3_COUNTEREXAMPLES = {"D12": (12,), "S(2)": (16,)}


def raw_structure(table):
    """Order, commutativity and |G'| straight from a Cayley table."""
    n = len(table)
    inv = [row.index(0) for row in table]
    abelian = all(table[a][b] == table[b][a] for a in range(n) for b in range(n))
    commutators = {
        table[table[table[inv[a]][inv[b]]][a]][b] for a in range(n) for b in range(n)
    }
    return n, abelian, len(naive_closure(table, commutators))


def fits_listed_family(order, abelian, derived_order):
    """Necessary condition for the four families of the exact-|G|/2
    characterization: S3 x D8 x E has order 48 * 2^k, the elementary
    abelian and C2^(s-1) x C4 groups are abelian 2-groups, and a
    generalized extraspecial group is a 2-group with |G'| = 2."""
    quotient, rest = divmod(order, 48)
    s3_d8_e = rest == 0 and quotient & (quotient - 1) == 0
    two_group = order & (order - 1) == 0
    return s3_d8_e or (two_group and (abelian or derived_order == 2))


def test_criterion_7_degree_threshold_characterizations():
    entries = gl.catalog(32)
    three_quarters = verify_corollary_1_2(entries, 32)
    half = verify_corollary_1_3(entries, 32)
    assert three_quarters.passed, three_quarters.counterexamples

    assert not half.passed
    assert half.groups_checked == 60
    names = sorted(name for name, _ in half.counterexamples)
    assert names == sorted(COR_1_3_COUNTEREXAMPLES), half.counterexamples
    groups = {entry.name: entry.group for entry in entries}
    for name, detail in half.counterexamples:
        table = [list(row) for row in groups[name].table]
        order, abelian, derived_order = raw_structure(table)
        assert detail == (
            f"vertex of degree |G|/2 = {order // 2} exists but no listed family matched"
        ), (name, detail)
        subgroups = naive_subgroups(table)
        degree = [0] * len(subgroups)
        for i, j in naive_covers(subgroups):
            degree[i] += 1
            degree[j] += 1
        half_vertices = tuple(
            len(sub) for sub, d in zip(subgroups, degree) if 2 * d == order
        )
        assert half_vertices == COR_1_3_COUNTEREXAMPLES[name], (name, half_vertices)
        assert not fits_listed_family(order, abelian, derived_order), name

    announce(
        7,
        True,
        f"degree >= 3|G|/4 characterization holds on {three_quarters.groups_checked} "
        f"solvable groups; the exact-|G|/2 characterization as stated is refuted by "
        f"D12 and S(2), oracle-confirmed (a degree-|G|/2 vertex, no listed family "
        f"fits order, commutativity or |G'|), and the verifier reports exactly those "
        f"two among {half.groups_checked} groups",
    )


def test_criterion_8_independent_lattice_oracle():
    expected = {
        "D8": (gl.dihedral(4), 10),
        "C2^3": (gl.elementary_abelian(2, 3), 16),
        "C2^4": (gl.elementary_abelian(2, 4), 67),
        "S4": (gl.symmetric(4), 30),
    }
    for name, (g, count) in expected.items():
        lattice = all_subgroups(g)
        oracle_subs = naive_subgroups([list(row) for row in g.table])
        assert len(oracle_subs) == count, name
        assert len(lattice) == count, name
        assert sorted(s.elements for s in lattice.subgroups) == sorted(oracle_subs)

    atoms_checked = 0
    edge_checked = 0
    for entry in gl.catalog(36):
        g = entry.group
        lattice = all_subgroups(g)
        assert len(lattice.atoms()) == g.delta, entry.name
        atoms_checked += 1
        if g.order > 1 and g.is_solvable:
            assert edge_bound(lattice).holds, entry.name
            edge_checked += 1
    announce(
        8,
        True,
        f"subgroup counts D8=10, C2^3=16, C2^4=67, S4=30 match the independent "
        f"brute-force oracle vertex for vertex; atoms = delta on {atoms_checked} "
        f"groups; edge bound holds on {edge_checked} solvable groups",
    )


def test_criterion_9_isomorphism_sanity():
    pairs = [
        ("H(1) = D8", gl.wall_H(1), gl.dihedral(4)),
        ("S(1) = D8", gl.wall_S(1), gl.dihedral(4)),
        ("T(1) = A4", gl.wall_T(1), gl.alternating(4)),
        ("D(C3) = S3", gl.generalized_dihedral(gl.cyclic(3)), gl.symmetric(3)),
        (
            "D8 * D8 = H(2)",
            gl.central_product(gl.dihedral(4), gl.dihedral(4)),
            gl.wall_H(2),
        ),
    ]
    for label, a, b in pairs:
        assert gl.is_isomorphic(a, b) is not None, label
    announce(9, True, "; ".join(label for label, _, _ in pairs))
