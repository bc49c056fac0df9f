"""Group invariants computed from the generating set, against references.

FiniteGroup derives element orders, the derived subgroup, normality and
solvability from the generators its validation finds. Each reference here
works on the plain multiplication table instead: a power loop per element,
the closure of all n^2 commutators, conjugation by every element, and the
derived series from all commutators of each term. The groups are the
catalog to order 64 plus relabelled copies of a few groups, with the
identity moved away from label 0.
"""

import math
import random

import pytest

import grouplattice as gl
from grouplattice.lattice import all_subgroups

from oracle_lattice import naive_closure
from test_core import relabel
from test_lattice import c3_c8, sl_2_3


def _relabelled(g, seed):
    # a seeded permutation that never fixes the identity's label
    perm = list(range(g.order))
    rng = random.Random(seed)
    while perm[0] == 0:
        rng.shuffle(perm)
    return gl.from_cayley_table(relabel([list(row) for row in g.table], perm), name=f"{g.name}~{seed}")


def _extra_groups():
    bases = [
        gl.direct_product(gl.dihedral(4), gl.cyclic(2)),
        gl.dicyclic(2),
        gl.alternating(4),
        gl.symmetric(4),
        gl.alternating(5),
        gl.symmetric(5),
        gl.wall_H(2),
        gl.wall_T(1),
        gl.heisenberg(3),
        sl_2_3(),
        c3_c8(),
    ]
    return [_relabelled(g, seed) for seed, g in enumerate(bases, 1)]


GROUPS = [e.group for e in gl.catalog(64)] + _extra_groups()
IDS = [g.name for g in GROUPS]


def _inverses(rows):
    return [row.index(0) for row in rows]


def _commutator_closure(rows, elements):
    inv = _inverses(rows)
    seed = {rows[rows[inv[a]][inv[b]]][rows[a][b]] for a in elements for b in elements}
    return naive_closure(rows, seed)


def _mask(elements):
    return sum(1 << x for x in elements)


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_element_orders_match_power_loop(g):
    rows = [list(row) for row in g.table]
    expect = []
    for x in range(g.order):
        k, y = 1, x
        while y != 0:
            y, k = rows[y][x], k + 1
        expect.append(k)
    assert list(g.element_orders) == expect


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_derived_subgroup_is_closure_of_all_commutators(g):
    rows = [list(row) for row in g.table]
    assert g.derived_mask == _mask(_commutator_closure(rows, range(g.order)))


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_solvability_matches_derived_series(g):
    rows = [list(row) for row in g.table]
    term = set(range(g.order))
    while True:
        nxt = _commutator_closure(rows, term)
        if nxt == term:
            break
        term = nxt
    assert g.is_solvable == (term == {0})


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_normality_matches_conjugation_by_every_element(g):
    rows = [list(row) for row in g.table]
    inv = _inverses(rows)
    for h in all_subgroups(g).subgroups:
        conj = {rows[rows[x][y]][inv[x]] for x in range(g.order) for y in h.elements}  # x h x^-1
        assert h.is_normal == (conj == set(h.elements)), (g.name, h.elements)


@pytest.mark.parametrize("g", GROUPS, ids=IDS)
def test_generators_generate_the_group(g):
    assert 0 not in g.generators
    assert naive_closure([list(row) for row in g.table], g.generators) == set(range(g.order))
    # each generator lies outside the subgroup the earlier ones generate
    for i, x in enumerate(g.generators):
        assert x not in naive_closure([list(row) for row in g.table], g.generators[:i])


def _per_element_invariants(g):
    """Centre mask, delta, involution count and exponent by per-element
    loops: x is central iff x*s = s*x for each generator s, and delta
    counts the elements of each prime order p in groups of p - 1."""
    rows, orders = g.table, g.element_orders
    center = sum(1 << x for x, row in enumerate(rows) if all(row[s] == rows[s][x] for s in g.generators))
    delta = sum(orders.count(p) // (p - 1) for p in set(orders) if gl.is_prime(p))
    return center, delta, sum(1 for k in orders if k == 2), math.lcm(*orders)


def test_whole_row_invariants_match_per_element_loops():
    # every catalog(256) group, and tables above 256 with uint16 rows: a
    # centre of order 2, one of order 10 and a trivial one
    above = [gl.dihedral(130), gl.direct_product(gl.dicyclic(16), gl.cyclic(5)), gl.symmetric(6)]
    assert [g.center_mask.bit_count() for g in above] == [2, 10, 1]
    for g in [e.group for e in gl.catalog(256)] + above:
        assert (g.center_mask, g.delta, g.involution_count, g.exponent) == _per_element_invariants(g), g.name


def test_is_solvable_starts_from_the_derived_subgroup(monkeypatch):
    # S4 > A4 > V4 > 1: with G' known, two more steps decide solvability
    g = gl.symmetric(4)
    assert g.derived_mask.bit_count() == 12
    calls = []
    derived_of = g._derived_of
    monkeypatch.setattr(g, "_derived_of", lambda gens: calls.append(gens) or derived_of(gens))
    assert g.is_solvable and len(calls) == 2
