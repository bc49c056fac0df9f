"""Reference validator for Cayley tables, independent of the package.

It works on a plain list-of-lists table and imports nothing from
grouplattice. It runs the checks in the order the package reports them:
the entries of list rows, Latin-square rows, Latin-square columns, a
two-sided identity, two-sided inverses, then associativity over every
triple, in O(n^3). expected_failure returns the exception class name and,
where the package's message is fixed by the table alone, that message.
"""

from __future__ import annotations


def expected_failure(table: list[list[int]], packed: bool = False):
    """(class name, message) of the first failed check, or None for a group.

    The message is None for NoInverse and NotAssociative: their witnesses
    depend on how the package searches. packed=True means the rows reach
    the package packed (bytes), so no entry screen runs before the scans.
    """
    n = len(table)
    ref = list(range(n))
    if not packed:
        for r, row in enumerate(table):
            for c, v in enumerate(row):
                if not 0 <= v < n:
                    return ("NotLatinSquare", f"table entry [{r}][{c}] = {v} is not an integer in 0..{n - 1} (outside the element range)")
    for r, row in enumerate(table):
        if sorted(row) != ref:
            return ("NotLatinSquare", f"row {r} is not a permutation of 0..{n - 1}")
    for c in range(n):
        if sorted(row[c] for row in table) != ref:
            return ("NotLatinSquare", f"column {c} is not a permutation of 0..{n - 1}")
    e = identity(table)
    if e is None:
        return ("NoIdentity", "no element acts as a two-sided identity")
    for a in range(n):
        if not any(table[a][b] == e and table[b][a] == e for b in range(n)):
            return ("NoInverse", None)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return ("NotAssociative", None)
    return None


def identity(table: list[list[int]]):
    """The two-sided identity of the table, or None."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def fails_associativity(table: list[list[int]], a: int, b: int, c: int) -> bool:
    """True iff (a*b)*c != a*(b*c), with a, b and c named as the package
    names them: the labels of the identity e and of 0 swapped."""
    e = identity(table)
    a, b, c = (e if x == 0 else 0 if x == e else x for x in (a, b, c))
    return table[table[a][b]][c] != table[a][table[b][c]]
