"""A fixed reference load that measures how fast the machine is right now.

It does the kinds of work a grouplattice op does, without grouplattice:
interpreter start-up, importing numpy, subgroup closures over a Cayley
table as Python sets and bitmasks, and float32 matrix products. run.py
times it as a child between ops and scales its time metrics by it, so
that a machine whose speed drifts over minutes gives steadier figures.
This file must not change, or the scaled metrics of two versions of the
benchmark are not comparable.
"""

import itertools

import numpy as np


def symmetric_table(n: int) -> list[list[int]]:
    elems = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(b[i] for i in a)] for b in elems] for a in elems]


def two_generated_subgroups(table: list[list[int]]) -> set[int]:
    """Every subgroup generated by two elements, as a bitmask."""
    found = set()
    for a in range(len(table)):
        for b in range(len(table)):
            members, frontier, mask = {0, a, b}, [a, b], 1 | 1 << a | 1 << b
            while frontier:
                x = frontier.pop()
                for y in list(members):
                    for z in (table[x][y], table[y][x]):
                        if z not in members:
                            members.add(z)
                            frontier.append(z)
                            mask |= 1 << z
            found.add(mask)
    return found


def main() -> None:
    table = symmetric_table(4)
    for _ in range(3):
        assert len(two_generated_subgroups(table)) == 30  # all subgroups of S4
    m = np.ones((200, 200), dtype=np.float32)
    for _ in range(20):
        m = (m @ m > 0).astype(np.float32)
    assert m.all()


if __name__ == "__main__":
    main()
