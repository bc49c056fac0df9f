"""Subgroup enumeration and covering-graph structure.

The heart of this file is the comparison against tests/oracle_lattice.py,
a from-scratch brute-force enumerator that shares no code with the
package. Counts, vertex sets, edge sets, and degree sequences must agree
exactly. Frozen constants below were produced by that oracle.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grouplattice as gl
from grouplattice.arith import divisors, is_prime
from grouplattice.errors import CheckFailed, GroupError, GroupTooLarge
from grouplattice.iso import automorphisms
from grouplattice.bounds import cww_b, edge_bound, herzog_manz_c, newton_d, newton_e, wall_a
from grouplattice.classify import (
    has_large_degree_vertex,
    verify_corollary_1_2,
    verify_corollary_1_3,
    verify_theorem_1_1,
)
from grouplattice.lattice import DEFAULT_LATTICE_CAP, _bits, _movers, _orbit, all_subgroups

from oracle_lattice import naive_covers, naive_degrees, naive_subgroups
from oracle_pgroup import check_lattice, frobenius_counts, prime_factors
from test_classify import lattice_builds
from test_core import relabel
from test_iso import OUTER as OUTER_AUT


def sl_2_3():
    """SL(2,3) acting on the eight nonzero vectors of F_3^2."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def perm(m):
        return [vecs.index(((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3)) for a, b in vecs]

    return gl.from_permutation_generators(8, [perm([[1, 1], [0, 1]]), perm([[1, 0], [1, 1]])], name="SL(2,3)")


def c3_c8():
    """C3 : C8 with the C8 generator inverting C3."""
    c3 = gl.cyclic(3)
    return gl.semidirect(c3, c3.inverses, 8)


# name -> (constructor, subgroup count, edge count) frozen from the oracle
ORACLE_FROZEN = {
    "C2": (lambda: gl.cyclic(2), 2, 1),
    "C6": (lambda: gl.cyclic(6), 4, 4),
    "C12": (lambda: gl.cyclic(12), 6, 7),
    "S3": (lambda: gl.symmetric(3), 6, 8),
    "D8": (lambda: gl.dihedral(4), 10, 15),
    "Q8": (lambda: gl.dicyclic(2), 6, 7),
    "C2^3": (lambda: gl.elementary_abelian(2, 3), 16, 35),
    "A4": (lambda: gl.alternating(4), 10, 15),
    "D12": (lambda: gl.dihedral(6), 16, 33),
    "C2^4": (lambda: gl.elementary_abelian(2, 4), 67, 240),
    "S4": (lambda: gl.symmetric(4), 30, 66),
    "Heis3": (lambda: gl.heisenberg(3), 19, 33),
    "D8xC2": (lambda: gl.direct_product(gl.dihedral(4), gl.cyclic(2)), 35, 88),
    "A4xC2": (lambda: gl.direct_product(gl.alternating(4), gl.cyclic(2)), 26, 58),
    "SL(2,3)": (sl_2_3, 15, 24),
    "C3:C8": (c3_c8, 10, 14),
    "S3xS3": (lambda: gl.direct_product(gl.symmetric(3), gl.symmetric(3)), 60, 186),
    "D(C3xC3)": (lambda: gl.generalized_dihedral(gl.elementary_abelian(3, 2)), 28, 78),
    "D8xS3": (lambda: gl.direct_product(gl.dihedral(4), gl.symmetric(3)), 120, 407),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FROZEN))
def test_lattice_matches_bruteforce_oracle(name):
    make, count, edges = ORACLE_FROZEN[name]
    g = make()
    lat = all_subgroups(g)
    subs = naive_subgroups([list(row) for row in g.table])
    covers = naive_covers(subs)

    assert len(lat) == len(subs) == count
    assert lat.edge_count == len(covers) == edges

    got_vertices = sorted(s.elements for s in lat.subgroups)
    assert got_vertices == sorted(subs)

    got_edges = sorted(
        (lat.subgroups[i].elements, lat.subgroups[j].elements) for i, j in lat.covers
    )
    want_edges = sorted((subs[i], subs[j]) for i, j in covers)
    assert got_edges == want_edges

    assert sorted(lat.degree_profile().degrees) == naive_degrees(subs, covers)


def test_frozen_degree_sequences():
    assert sorted(all_subgroups(gl.dihedral(4)).degree_profile().degrees) == [
        2, 2, 2, 2, 2, 3, 4, 4, 4, 5,
    ]
    assert sorted(all_subgroups(gl.symmetric(3)).degree_profile().degrees) == [
        2, 2, 2, 2, 4, 4,
    ]
    assert sorted(all_subgroups(gl.cyclic(12)).degree_profile().degrees) == [
        2, 2, 2, 2, 3, 3,
    ]


def test_vertices_sorted_by_order_then_mask(lattices64):
    # the vertex order is built per subgroup order from the orbits' member
    # lists, so check it with the per-orbit facts the lattice reads from them
    c2_6 = gl.elementary_abelian(2, 6)
    moved = gl.from_cayley_table(relabel(c2_6.table, random.Random(6).sample(range(64), 64)), name="C2^6'")
    for lat in lattices64 + (all_subgroups(moved),):
        name = lat.parent.name
        keys = [(s.order, s.mask) for s in lat.subgroups]
        assert keys == sorted(keys), name
        assert lat.subgroups[0].order == 1 and lat.subgroups[-1].order == lat.parent.order, name
        orders: dict[int, set[int]] = {}
        for s, o in zip(lat.subgroups, lat.vertex_orbit):
            orders.setdefault(o, set()).add(s.order)
        assert all(len(k) == 1 for k in orders.values()), name
        sizes = Counter(lat.vertex_orbit)
        assert sorted(sizes) == list(range(lat.orbits)) and sum(sizes.values()) == len(lat), name
        profile = lat.degree_profile()
        assert lat.edge_count == sum(profile.up), name
        deg = max(profile.degrees)
        assert lat.report() == {
            "group": name,
            "order": lat.parent.order,
            "subgroup_count": len(lat.subgroups),
            "degree_sequence": sorted(profile.degrees),
            "max_degree": deg,
            "max_degree_order": lat.subgroups[profile.degrees.index(deg)].order,
            "delta": lat.parent.delta,
            "edge_count": sum(profile.down),
        }, name
        assert lat.max_degree() == (lat.subgroups[profile.degrees.index(deg)], deg), name
    assert len(lat) == 2825


def test_partial_order_axioms(s4):
    # <= is containment of membership masks, a & b == a; the cover graph
    # must generate exactly that order
    lat = all_subgroups(s4)
    masks = [s.mask for s in lat.subgroups]
    k = len(masks)
    leq = [[a & b == a for b in masks] for a in masks]
    for i in range(k):
        assert leq[i][i]
        for j in range(k):
            if i != j and leq[i][j]:
                assert not leq[j][i]
            if leq[i][j]:
                for m in range(k):
                    if leq[j][m]:
                        assert leq[i][m]
    for i in range(k):
        reach, stack = {i}, [i]
        while stack:
            for j in lat.upper[stack.pop()]:
                if j not in reach:
                    reach.add(j)
                    stack.append(j)
        assert reach == {j for j in range(k) if leq[i][j]}


def test_lagrange_and_containment(catalog36):
    for entry in catalog36:
        if entry.group.order > 24:
            continue
        lat = all_subgroups(entry.group)
        for s in lat.subgroups:
            assert entry.group.order % s.order == 0
        for i, j in lat.covers:
            a, b = lat.subgroups[i], lat.subgroups[j]
            assert a.order < b.order
            assert b.order % a.order == 0
            assert set(a.elements) < set(b.elements)


def test_atoms_are_prime_order_and_count_delta(catalog36):
    for entry in catalog36:
        if entry.group.order > 24:
            continue
        lat = all_subgroups(entry.group)
        atoms = lat.atoms()
        assert len(atoms) == entry.group.delta
        assert all(is_prime(a.order) for a in atoms)


def test_degree_equals_down_plus_up(d12):
    lat = all_subgroups(d12)
    profile = lat.degree_profile()
    for i in range(len(lat)):
        assert profile.degrees[i] == profile.down[i] + profile.up[i]
        assert lat.degree(i) == profile.degrees[i]
        assert lat.degree(lat.subgroups[i]) == profile.degrees[i]
    assert sum(profile.degrees) == 2 * lat.edge_count


def test_trivial_vertex_degree_is_delta(s4):
    lat = all_subgroups(s4)
    assert lat.degree(0) == s4.delta == 13


def test_maximal_subgroup_counts():
    assert len(all_subgroups(gl.symmetric(3)).maximal_subgroups()) == 4
    assert len(all_subgroups(gl.symmetric(4)).maximal_subgroups()) == 8
    assert len(all_subgroups(gl.dihedral(4)).maximal_subgroups()) == 3
    assert len(all_subgroups(gl.cyclic(12)).maximal_subgroups()) == 2
    assert len(all_subgroups(gl.dicyclic(2)).maximal_subgroups()) == 3


def test_max_p_filters_by_index(s4):
    lat = all_subgroups(s4)
    two = lat.max_p(2)
    three = lat.max_p(3)
    assert sorted(h.order for h in two) == [6, 6, 6, 6, 12]
    assert sorted(h.order for h in three) == [8, 8, 8]
    assert len(lat.max_p(5)) == 0


def test_frattini_examples():
    assert all_subgroups(gl.dihedral(4)).frattini().order == 2
    assert all_subgroups(gl.dicyclic(2)).frattini().order == 2
    assert all_subgroups(gl.cyclic(12)).frattini().order == 2
    assert all_subgroups(gl.symmetric(4)).frattini().order == 1
    assert all_subgroups(gl.elementary_abelian(2, 3)).frattini().order == 1
    assert all_subgroups(gl.trivial()).frattini().order == 1


def test_residual_o_p_examples(s3):
    lat = all_subgroups(s3)
    assert lat.o_p(2).order == 3  # smallest normal with 2-power index
    assert lat.o_p(3).order == 6  # no proper normal subgroup of 3-power index
    assert lat.o_p(5).order == 6

    a4 = all_subgroups(gl.alternating(4))
    assert a4.o_p(2).order == 12
    assert a4.o_p(3).order == 4

    c12 = all_subgroups(gl.cyclic(12))
    assert c12.o_p(2).order == 3
    assert c12.o_p(3).order == 4

    assert all_subgroups(gl.dihedral(4)).o_p(2).order == 1


def test_o_p_checks_its_closure(monkeypatch):
    # a closure of the p'-elements that is no vertex, or a vertex whose
    # index is no power of p, is a fault of the closure or lattice code
    s3 = gl.symmetric(3)
    lat = all_subgroups(s3)
    monkeypatch.setattr(s3, "closure_mask", lambda seed: 0b110)
    with pytest.raises(CheckFailed, match="not a vertex"):
        lat.o_p(2)
    monkeypatch.setattr(s3, "closure_mask", lambda seed: 1)
    with pytest.raises(CheckFailed, match="has index 6, not a power of 2"):
        lat.o_p(2)


def test_o_p_is_the_intersection_of_normal_p_power_index_vertices(lattices64):
    # O^p(G) by its definition, sharing nothing with the closure of the
    # p'-elements that o_p computes: the intersection of all normal
    # vertices of p-power index
    pairs = 0
    for lat in lattices64:
        g = lat.parent
        for p in prime_factors(g.order):
            mask = lat.masks[-1]
            for s in lat.subgroups:
                index = s.index
                while index % p == 0:
                    index //= p
                if index == 1 and s.is_normal:
                    mask &= s.mask
            assert lat.o_p(p).mask == mask, (g.name, p)
            pairs += 1
    assert pairs == 172


def test_maximal_subgroups_match_the_orbit_definition(lattices64):
    # the maximal vertices as SubgroupLattice.maximal_subgroups defined them
    # before it kept them: every member of an orbit whose representative
    # the whole group covers
    for lat in lattices64:
        top = lat.masks[-1]
        maximal = {o for o, (_, covers) in enumerate(lat._reps) if top in covers}
        expected = [s for s, o in zip(lat.subgroups, lat.vertex_orbit) if o in maximal]
        first = lat.maximal_subgroups()
        assert first == expected, lat.parent.name
        first.clear()
        assert lat.maximal_subgroups() == expected, lat.parent.name


def test_o_p_result_is_normal(catalog36):
    for entry in catalog36:
        g = entry.group
        if g.order > 24:
            continue
        lat = all_subgroups(g)
        for p in (2, 3):
            assert lat.o_p(p).is_normal


def test_interval_atoms(d8):
    # upper[i] lists the atoms of the interval [H_i, G]
    lat = all_subgroups(d8)
    assert [lat.subgroups[j] for j in lat.upper[0]] == lat.atoms()
    above_center = lat.upper[lat.index_of(d8.center())]
    assert sorted(lat.subgroups[j].order for j in above_center) == [4, 4, 4]
    assert lat.upper[-1] == ()


def test_index_of_rejects_foreign_subgroup(s3, d8):
    lat = all_subgroups(s3)
    with pytest.raises(GroupError):
        lat.index_of(d8.subgroup([0]))


def test_export_dot_exact_text_for_c2():
    assert "".join(all_subgroups(gl.cyclic(2)).export_dot()) == (
        'digraph "C2" {\n'
        "  rankdir=BT;\n"
        '  n0 [label="1"];\n'
        '  n1 [label="2"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_export_dot_deterministic():
    a = "".join(all_subgroups(gl.dihedral(4)).export_dot())
    b = "".join(all_subgroups(gl.dihedral(4)).export_dot())
    assert a == b
    assert a.startswith('digraph "D8" {\n  rankdir=BT;')
    assert a.count("->") == 15


def test_max_degree_vertex():
    vertex, deg = all_subgroups(gl.dihedral(6)).max_degree()
    assert (vertex.order, deg) == (1, 8)
    vertex, deg = all_subgroups(gl.symmetric(4)).max_degree()
    assert (vertex.order, deg) == (1, 13)
    vertex, deg = all_subgroups(gl.cyclic(2)).max_degree()
    assert (vertex.order, deg) == (1, 1)  # tie broken toward the smaller vertex


def test_report_contents(d12):
    rep = all_subgroups(d12).report()
    assert rep == {
        "group": "D12",
        "order": 12,
        "subgroup_count": 16,
        "degree_sequence": [3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 8],
        "max_degree": 8,
        "max_degree_order": 1,
        "delta": 8,
        "edge_count": 33,
    }


def gaussian_binomial(n: int, k: int, p: int = 2) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_counts(p: int, n: int) -> tuple[int, int]:
    """Subgroups and cover edges of C_p^n: the F_p subspaces, counted by
    Gaussian binomials, with edges between subspaces of adjacent dimension."""
    vertices = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
    edges = sum(gaussian_binomial(n, k, p) * gaussian_binomial(n - k, 1, p) for k in range(n))
    return vertices, edges


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_boolean_lattice_subspace_counts(n):
    lat = all_subgroups(gl.elementary_abelian(2, n))
    assert (len(lat), lat.edge_count) == subspace_counts(2, n)


@pytest.mark.parametrize("p,n,counts", [(3, 4, (212, 1120)), (5, 3, (64, 248))])
def test_odd_elementary_abelian_subspace_counts(p, n, counts):
    lat = all_subgroups(gl.elementary_abelian(p, n))
    assert (len(lat), lat.edge_count) == subspace_counts(p, n) == counts


def test_c2_7_closed_form():
    lat = all_subgroups(gl.elementary_abelian(2, 7))
    assert (len(lat), lat.edge_count) == subspace_counts(2, 7) == (29212, 358775)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_elementary_abelian_closures_equal_representative_covers(p, n):
    # every <H, x> has prime index over H, so rule (a) leaves exactly one
    # closure per cover of a representative; the other members of its
    # orbit get no closure
    lat = all_subgroups(gl.elementary_abelian(p, n))
    assert lat.closures == sum(len(covers) for _, covers in lat._reps)


def test_orbit_walk_closes_fewer_subgroups_than_edges():
    # the walk closes only orbit representatives: C2^5 has 374 subgroups
    # and 2077 edges, but its subgroups of one rank form one orbit under
    # GL(5, 2) once the automorphism search has found enough of it
    lat = all_subgroups(gl.elementary_abelian(2, 5))
    assert lat.closures < lat.edge_count == 2077
    assert lat.orbits < len(lat) == 374


def test_class_walk_closes_fewer_subgroups_than_edges():
    # S5 has 156 subgroups in 19 conjugacy classes, which are its orbits
    # under automorphisms (all inner): only the representatives are closed
    lat = all_subgroups(gl.symmetric(5))
    assert lat.edge_count == 501
    assert lat.closures < lat.edge_count


def test_conjugation_by_a_generator_is_a_lattice_automorphism(lattices64):
    # for every vertex H and every automorphism a (conjugation by a
    # generator, or a non-inner map that the search found), a(H) is a
    # vertex with the same degrees and a(covers(H)) = covers(a(H)), with
    # the covers that lattice.upper builds on demand; catalog(64) holds A5
    extra = [gl.symmetric(5), gl.wall_H(3), gl.wall_T(3), OUTER_AUT["D8*D8xC2xC2"]()]
    outer_checked = 0
    for lat in lattices64 + tuple(all_subgroups(g) for g in extra):
        g = lat.parent
        rows, n = g.table, g.order
        inv = [row.index(0) for row in rows]
        index = {h.mask: i for i, h in enumerate(lat.subgroups)}
        profile = lat.degree_profile()
        outer = automorphisms(g)
        outer_checked += len(outer)
        for a in [[rows[rows[inv[s]][x]][s] for x in range(n)] for s in g.generators] + outer:
            image = []
            for h in lat.subgroups:
                mask = 0
                for x in h.elements:
                    mask |= 1 << a[x]
                assert mask in index, (g.name, h.elements, a)
                image.append(index[mask])
            for i, j in enumerate(image):
                assert (profile.up[i], profile.down[i]) == (profile.up[j], profile.down[j]), (g.name, i, a)
                assert sorted(image[k] for k in lat.upper[i]) == list(lat.upper[j]), (g.name, i, a)
    assert outer_checked > 200


def test_lattice_cap_enforced(monkeypatch):
    assert DEFAULT_LATTICE_CAP == 256
    monkeypatch.setattr("grouplattice.lattice.DEFAULT_LATTICE_CAP", 16)
    with pytest.raises(GroupTooLarge):
        all_subgroups(gl.elementary_abelian(2, 5))


def test_export_dot_lines_match_the_covers():
    lat = all_subgroups(gl.symmetric(4))
    lines = list(lat.export_dot())
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    nodes = [f'  n{i} [label="{s.order}"];\n' for i, s in enumerate(lat.subgroups)]
    edges = [f"  n{i} -> n{j};\n" for i, j in lat.covers]
    assert lines == ['digraph "S4" {\n', "  rankdir=BT;\n", *nodes, *edges, "}\n"]


C2_8_LATTICE = """
import resource, sys
limit = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from grouplattice.cli import main
sys.exit(main(["lattice", sys.argv[1]]))
"""


def test_c2_8_lattice_is_decided_under_512_mib(tmp_path):
    # C2^8, the largest lattice inside the order cap (417,199 subgroups),
    # is built in a child whose address space is limited to 512 MiB; its
    # report equals the closed form of perfbench/groups.py
    path = tmp_path / "c2_8.grp"
    gl.write_group(gl.elementary_abelian(2, 8), path)
    src = Path(gl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", C2_8_LATTICE, str(path)], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    spec = importlib.util.spec_from_file_location("perfbench_groups", src.parent / "perfbench" / "groups.py")
    groups = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(groups)
    report = json.loads(proc.stdout)
    report["degree_sequence"] = groups.degree_counts(report["degree_sequence"])
    assert report == {"group": "C2^8", **groups.elementary_abelian_report(2, 8)}


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=36))
def test_cyclic_lattice_matches_divisor_poset(n):
    lat = all_subgroups(gl.cyclic(n))
    ds = divisors(n)
    assert sorted(s.order for s in lat.subgroups) == ds
    expect_edges = sum(
        1 for d in ds for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if d * p in ds
    )
    assert lat.edge_count == expect_edges


def test_pgroup_degree_certificate(lattices64):
    # every p-group of catalog(64), and H(3) and S(3) of order 128:
    # per-vertex (up, down) from closed forms computed by
    # tests/oracle_pgroup.py on the raw table, and every listed edge a
    # cover; that certifies the vertex set and the edges
    certified = 0
    for lat in (*lattices64, all_subgroups(gl.wall_H(3)), all_subgroups(gl.wall_S(3))):
        g = lat.parent
        if g.order == 1 or len(prime_factors(g.order)) != 1:
            continue
        profile = lat.degree_profile()
        vertices = [s.elements for s in lat.subgroups]
        table = [list(row) for row in g.table]
        assert check_lattice(table, vertices, profile.up, profile.down, lat.upper) == [], g.name
        certified += 1
    assert certified == 48


def test_frobenius_subgroup_counts(lattices64):
    # the number of subgroups of order p^k is 1 mod p, on every catalog(64) group
    for lat in lattices64:
        assert frobenius_counts(lat.parent.order, [s.order for s in lat.subgroups]) == [], lat.parent.name


def test_pgroup_certificate_catches_a_wrong_lattice():
    lat = all_subgroups(gl.dihedral(4))
    profile = lat.degree_profile()
    table = [list(row) for row in lat.parent.table]
    vertices = [s.elements for s in lat.subgroups]
    up, down, upper = list(profile.up), list(profile.down), list(lat.upper)
    assert check_lattice(table, vertices, up, down, upper) == []
    assert check_lattice(table, vertices, up[:1] + [4] + up[2:], down, upper) == [
        "vertex 1 of order 2: (up, down) (4, 1), certificate (3, 1)",
        "vertex 1 lists 3 distinct covers, up-degree 4",
    ]
    # drop the vertex <(0, 2)> of order 2 and its edges, keeping every degree
    keep = [i for i in range(len(vertices)) if i != 1]
    renumber = {i: r for r, i in enumerate(keep)}
    problems = check_lattice(
        table,
        [vertices[i] for i in keep],
        [up[i] for i in keep],
        [down[i] for i in keep],
        [tuple(renumber[j] for j in upper[i] if j != 1) for i in keep],
    )
    assert problems == ["vertex 0 lists 4 distinct covers, up-degree 5"]


# ---------------------------------------------------------------------------
# answers per orbit and the vertex view built on demand

# groups beyond catalog(64) with large orbits, normal ones among them
PER_ORBIT_EXTRA = {
    "S5": lambda: gl.symmetric(5),
    "H(3)": lambda: gl.wall_H(3),
    "T(3)": lambda: gl.wall_T(3),
    "C2^7": lambda: gl.elementary_abelian(2, 7),
}


@pytest.fixture(scope="module")
def per_orbit_lattices(lattices64):
    return lattices64 + tuple(all_subgroups(make()) for make in PER_ORBIT_EXTRA.values())


def test_per_orbit_answers_equal_the_per_vertex_ones(per_orbit_lattices):
    # per vertex, each degree is counted from the edge list upper, which
    # shares nothing with the per-orbit down-degree formula
    for lat in per_orbit_lattices:
        g, name = lat.parent, lat.parent.name
        up = [len(above) for above in lat.upper]
        down = [0] * len(lat)
        for above in lat.upper:
            for j in above:
                down[j] += 1
        degrees = [u + d for u, d in zip(up, down)]
        top = max(degrees)
        first = degrees.index(top)
        report = lat.report()
        assert report["max_degree"] == max(lat.orbit_profile().degrees) == top, name
        assert report["degree_sequence"] == sorted(degrees), name
        assert report["max_degree_order"] == lat.masks[first].bit_count(), name
        assert report["edge_count"] == lat.edge_count == sum(up) == len(lat.covers), name
        assert report["subgroup_count"] == len(lat) == len(lat.masks), name
        assert lat.max_degree() == (lat.subgroups[first], top), name
        half = any(2 * d == g.order for d in lat.orbit_profile().degrees)
        assert half == any(2 * d == g.order for d in degrees), name
        if g.order > 1:
            assert has_large_degree_vertex(lat) == (2 * (top + 1) > g.order), name
        profile = lat.orbit_profile()
        assert Counter(lat.vertex_orbit) == dict(enumerate(profile.sizes)), name
        for i, orbit in enumerate(lat.vertex_orbit):
            assert (degrees[i], lat.masks[i].bit_count()) == (profile.degrees[orbit], profile.orders[orbit]), name
        assert lat.degree_profile() == (tuple(degrees), tuple(down), tuple(up)), name


def test_normal_orbits_walked_by_the_outer_movers_alone_are_whole(per_orbit_lattices):
    # for every representative, the walk that skips the inner movers when
    # they all fix it lists the members that a walk over every mover lists
    shortcuts = 0
    for lat in per_orbit_lattices:
        g = lat.parent
        inner, outer = _movers(g)
        for (rep, _), members in zip(lat._reps, lat._members):
            vector = _bits(rep, g.order)
            walked = _orbit(vector, inner, outer)
            assert set(walked) == set(_orbit(vector, [], inner + outer)), (g.name, rep)
            assert sorted(int(v[::-1], 2) for v in walked) == sorted(members), (g.name, rep)
            table = _bits(rep, 256)
            if inner and len(members) > 1 and all(s.translate(table) == vector for s in inner):
                shortcuts += 1
    assert shortcuts > 100


VERTEX_VIEW = {"_vertices", "subgroups", "_index", "_degree_profile", "upper"}


def test_report_degree_sweeps_and_bounds_leave_the_vertex_view_unbuilt(monkeypatch):
    import grouplattice.classify as classify

    built = []
    walk = classify.all_subgroups
    monkeypatch.setattr(classify, "all_subgroups", lambda g: built.append(walk(g)) or built[-1])
    entries = gl.catalog(24)
    for verify in (verify_theorem_1_1, verify_corollary_1_2, verify_corollary_1_3):
        verify(entries, 24)
    # each verifier builds the lattices its verdicts read (lattice_builds)
    rule = [lattice_builds(e.group, all_subgroups(e.group)) for e in entries if e.group.order > 1 and e.group.is_solvable]
    assert len(built) == sum(theorem + 2 * corollary for theorem, corollary in rule) == 66
    for entry in entries:
        g = entry.group
        lat = all_subgroups(g)
        lat.report()
        lat.max_degree()
        if g.order > 1 and g.is_solvable:
            for bound in (wall_a, cww_b, herzog_manz_c, newton_e, edge_bound):
                bound(lat)
            for p in sorted(gl.factorize(g.order)):
                newton_d(lat, p)
        built.append(lat)
    for lat in built:
        assert not VERTEX_VIEW & lat.__dict__.keys(), lat.parent.name
    lat.degree_profile()
    assert VERTEX_VIEW - {"subgroups", "_index", "upper"} <= lat.__dict__.keys()
