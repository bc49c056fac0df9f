"""Per-vertex degree certificate for p-groups, independent of the package.

Everything here works on a plain list-of-lists Cayley table and Python
sets; nothing is imported from grouplattice. For a finite p-group G and a
subgroup H the covering degrees have closed forms:

- down(H) = (p^d - 1)/(p - 1), where p^d = [H : Phi(H)]. Every maximal
  subgroup of a p-group is normal of index p and contains the Frattini
  subgroup Phi(H) = H^p H', so the maximal subgroups of H are the
  hyperplanes of the F_p-space H/Phi(H) (Burnside's basis theorem).
- up(H) = #{x in N_G(H) \\ H : x^p in H} / (|H|(p - 1)). A cover K of H
  has H maximal in K, so H is normal of index p in K and K/H is a
  subgroup of order p of N_G(H)/H; each such subgroup holds p - 1
  cosets of order p, of |H| elements each.

check_lattice compares these with the degrees the package reports, and
also checks that each vertex is a subgroup, that no vertex repeats, that
each vertex lists up(H) distinct covers and that each of them contains it
with index p. Then every true cover of a vertex is a listed one, so by induction up from the trivial subgroup every
subgroup is a vertex: the vertex set and the edges are certified.

frobenius_counts checks, for any finite group, that the number of
subgroups of order p^k is 1 mod p whenever p^k divides |G| (Frobenius).

    PYTHONPATH=src python tests/oracle_pgroup.py

runs the certificate over every p-group of the catalog to order 256 but
C2^8, and prints the time it took. C2^8 has 417,199 subgroups, too many
for these set computations; tests/test_lattice.py checks its lattice
report against the closed form instead.
"""

from __future__ import annotations


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def closure(table, gens) -> set[int]:
    """The subgroup generated by gens: every product of generators, by a
    breadth-first walk (in a finite group inverses are positive powers)."""
    elems = {0}
    frontier = [0]
    for a in frontier:
        for s in gens:
            b = table[a][s]
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return elems


def generating_set(table, elems) -> list[int]:
    """A greedy generating set of the subgroup elems."""
    gens: list[int] = []
    have = {0}
    for x in sorted(elems):
        if x not in have:
            gens.append(x)
            have = closure(table, gens)
    return gens


def power(table, x: int, k: int) -> int:
    y = 0
    for _ in range(k):
        y = table[y][x]
    return y


def inverses(table) -> list[int]:
    return [row.index(0) for row in table]


def frattini_index(table, inv, elems, gens, p: int) -> int:
    """[H : Phi(H)], with Phi(H) the normal closure in H of the p-th powers
    of H and the commutators of its generators: H modulo that closure is
    abelian (its generators commute) of exponent p, and both kinds of
    element lie in Phi(H)."""
    seeds = {power(table, h, p) for h in elems}
    seeds |= {table[table[inv[a]][inv[b]]][table[a][b]] for a in gens for b in gens}
    phi = closure(table, seeds)
    while True:
        conj = {table[table[inv[s]][y]][s] for y in phi for s in gens}
        if conj <= phi:
            return len(elems) // len(phi)
        phi = closure(table, phi | conj)


def degrees(table, inv, vertex, p: int, abelian: bool) -> tuple[int, int]:
    """(up, down) of the subgroup `vertex` (a set of elements) of a p-group
    with inverse map inv."""
    n = len(table)
    gens = generating_set(table, vertex)
    index = frattini_index(table, inv, vertex, gens, p)
    d = 0
    while p**d < index:
        d += 1
    down = (p**d - 1) // (p - 1)
    if abelian:
        normalizer = range(n)
    else:
        normalizer = [x for x in range(n) if all(table[table[inv[x]][s]][x] in vertex for s in gens)]
    outside = sum(1 for x in normalizer if x not in vertex and power(table, x, p) in vertex)
    return outside // (len(vertex) * (p - 1)), down


def check_lattice(table, vertices, up, down, upper) -> list[str]:
    """Mismatches between the package's lattice of a p-group and the
    certificate; an empty list certifies it. vertices are element sets,
    up[i]/down[i] the package's degrees, upper[i] the vertex indices it
    lists as covering vertex i."""
    n = len(table)
    (p,) = prime_factors(n)
    abelian = all(table[a][b] == table[b][a] for a in range(n) for b in range(a))
    inv = inverses(table)
    problems = []
    if len({frozenset(v) for v in vertices}) != len(vertices):
        problems.append("a vertex repeats")
    for i, vertex in enumerate(vertices):
        if closure(table, vertex) != set(vertex):
            problems.append(f"vertex {i} is not a subgroup")
            continue
        want = degrees(table, inv, set(vertex), p, abelian)
        if (up[i], down[i]) != want:
            problems.append(f"vertex {i} of order {len(vertex)}: (up, down) {(up[i], down[i])}, certificate {want}")
        if len(set(upper[i])) != up[i]:
            problems.append(f"vertex {i} lists {len(set(upper[i]))} distinct covers, up-degree {up[i]}")
        for j in upper[i]:
            if not set(vertex) < set(vertices[j]) or len(vertices[j]) != p * len(vertex):
                problems.append(f"edge {i} -> {j} is not a cover")
    return problems


def frobenius_counts(n: int, orders) -> list[str]:
    """Mismatches with Frobenius' theorem: the number of subgroups of order
    p^k is 1 mod p for every prime power p^k dividing n."""
    problems = []
    for p in prime_factors(n):
        q = p
        while n % q == 0:
            count = sum(1 for m in orders if m == q)
            if count % p != 1:
                problems.append(f"{count} subgroups of order {q}, not 1 mod {p}")
            q *= p
    return problems


def main() -> int:
    import time

    import grouplattice as gl

    start = time.perf_counter()
    checked = bad = subgroups = 0
    for entry in gl.catalog(256):
        g = entry.group
        if g.order == 1 or len(prime_factors(g.order)) != 1 or entry.name == "C2^8":
            continue
        lat = gl.all_subgroups(g)
        table = [list(row) for row in g.table]
        profile = lat.degree_profile()
        problems = check_lattice(table, [s.elements for s in lat.subgroups], profile.up, profile.down, lat.upper)
        problems += frobenius_counts(g.order, [s.order for s in lat.subgroups])
        checked += 1
        subgroups += len(lat)
        bad += bool(problems)
        for line in problems[:5]:
            print(f"{g.name}: {line}")
    seconds = time.perf_counter() - start
    print(f"{checked} p-groups certified to order 256 but C2^8 ({subgroups} subgroups), "
          f"{bad} with mismatches, {seconds:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
