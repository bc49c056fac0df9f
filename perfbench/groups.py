"""Cayley tables for the `lattice-big` workload, built without the program.

Every table here is made from its textbook model (vectors, permutations,
a twisted product), so the program under test sees only generated tables.
`relabel` applies a seeded permutation of element labels, which gives an
isomorphic copy whose lattice report must equal the original's.
`elementary_abelian_report` is the closed form of the report for C_p^n.
"""

from __future__ import annotations

import random
from collections import Counter

Table = list[list[int]]


def elementary_abelian(p: int, n: int) -> Table:
    """C_p^n as base-p digit vectors, added digit by digit."""
    order = p**n
    digits = [[(x // p**i) % p for i in range(n)] for x in range(order)]

    def add(a: int, b: int) -> int:
        return sum(((da + db) % p) * p**i for i, (da, db) in enumerate(zip(digits[a], digits[b])))

    return [[add(a, b) for b in range(order)] for a in range(order)]


def permutation_group(degree: int, gens: list[tuple[int, ...]]) -> Table:
    """The group generated by permutations of 0..degree-1, by breadth-first
    closure; the identity gets label 0."""
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    for p in elems:
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    return [[index[tuple(b[i] for i in a)] for b in elems] for a in elems]


def direct_product(t1: Table, t2: Table) -> Table:
    n2 = len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(len(t1)) for b2 in range(n2)]
        for a1 in range(len(t1))
        for a2 in range(n2)
    ]


def extraspecial_plus(r: int) -> Table:
    """Central product of r dihedral groups of order 8, order 2^(2r+1):
    pairs (v, e) with v in F_2^(2r) and (v, e)(w, f) = (v+w, e+f+B(v, w)),
    where B pairs the x-coordinates of v with the y-coordinates of w."""
    nv = 1 << (2 * r)
    xs = [1 << (2 * i) for i in range(r)]

    def twist(v: int, w: int) -> int:
        return sum(1 for x in xs if v & x and w & (x << 1)) & 1

    return [
        [((v ^ w) << 1) | (e ^ f ^ twist(v, w)) for w in range(nv) for f in (0, 1)]
        for v in range(nv)
        for e in (0, 1)
    ]


def wall_t(r: int) -> Table:
    """C_2^(2r) split-extended by the order-3 map x_i -> y_i -> x_i y_i,
    order 3 * 4^r: pairs (v, k) with (v, k)(w, l) = (v + phi^k(w), k + l)."""
    nv = 1 << (2 * r)
    low = (1 << r) - 1

    def phi(v: int) -> int:
        x, y = v & low, v >> r
        return y | ((x ^ y) << r)

    powers = [list(range(nv))]
    for _ in range(2):
        powers.append([phi(v) for v in powers[-1]])
    return [
        [(v ^ powers[k][w]) * 3 + (k + l) % 3 for w in range(nv) for l in range(3)]
        for v in range(nv)
        for k in range(3)
    ]


def _cycle(degree: int, points: tuple[int, ...]) -> tuple[int, ...]:
    perm = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return tuple(perm)


def symmetric(n: int) -> Table:
    return permutation_group(n, [_cycle(n, tuple(range(n))), _cycle(n, (0, 1))])


def alternating5() -> Table:
    return permutation_group(5, [_cycle(5, (0, 1, 2)), _cycle(5, (0, 1, 2, 3, 4))])


def dihedral8() -> Table:
    return permutation_group(4, [_cycle(4, (0, 1, 2, 3)), _cycle(4, (1, 3))])


C2 = [[0, 1], [1, 0]]

# name as the program prints it -> table builder
LATTICE_BIG = {
    "C2^6": lambda: elementary_abelian(2, 6),
    "C3^4": lambda: elementary_abelian(3, 4),
    "H(2)xC2": lambda: direct_product(extraspecial_plus(2), C2),
    "H(3)": lambda: extraspecial_plus(3),
    "D8xD8xC2": lambda: direct_product(direct_product(dihedral8(), dihedral8()), C2),
    "S3xD8xC2": lambda: direct_product(direct_product(symmetric(3), dihedral8()), C2),
    "A5": alternating5,
    "S5": lambda: symmetric(5),
    "S4xS3": lambda: direct_product(symmetric(4), symmetric(3)),
    "T(3)": lambda: wall_t(3),
}


def relabel(table: Table, rng: random.Random) -> Table:
    """An isomorphic copy under a random relabelling pi of the elements:
    new[pi(a)][pi(b)] = pi(table[a][b]). The identity moves too."""
    n = len(table)
    pi = list(range(n))
    rng.shuffle(pi)
    inv = [0] * n
    for a, pa in enumerate(pi):
        inv[pa] = a
    return [[pi[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def elementary_abelian_report(p: int, n: int) -> dict:
    """The lattice report of C_p^n in closed form. A subgroup of rank k
    covers [k 1]_p subgroups and is covered by [n-k 1]_p; there are
    [n k]_p of them. Ties for the largest degree go to the smallest order."""
    degrees: Counter = Counter()
    edges = 0
    best = (-1, 0)
    for k in range(n + 1):
        count = gaussian_binomial(n, k, p)
        up = gaussian_binomial(n - k, 1, p)
        degree = gaussian_binomial(k, 1, p) + up
        degrees[degree] += count
        edges += count * up
        if degree > best[0]:
            best = (degree, p**k)
    return {
        "order": p**n,
        "subgroup_count": sum(degrees.values()),
        "edge_count": edges,
        "degree_sequence": degree_counts(degrees.elements()),
        "max_degree": best[0],
        "max_degree_order": best[1],
        "delta": gaussian_binomial(n, 1, p),
    }


def degree_counts(sequence) -> dict[str, int]:
    """A degree sequence as {degree: multiplicity}, keys in ascending order."""
    counts = Counter(sequence)
    return {str(d): counts[d] for d in sorted(counts)}
