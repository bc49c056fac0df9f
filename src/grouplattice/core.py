"""Finite groups as validated Cayley tables.

The element set of a group of order n is always 0..n-1 with 0 the identity,
and the table is the full multiplication table: table[a][b] = a*b. Every
construction path normalizes to this form and validates the group axioms
eagerly, so all downstream code (subgroup masks, lattices, bounds) can rely
on it without re-checking.
"""

from __future__ import annotations

import json
import math
from array import array
from functools import cached_property, partial
from itertools import repeat
from operator import eq, getitem, itemgetter
from typing import Iterable, Optional, Sequence

from .arith import is_prime
from .errors import (
    CheckFailed,
    GroupError,
    GroupTooLarge,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    NotSubgroup,
)

DEFAULT_CONSTRUCTION_CAP = 4096


def check_cap(elements: int) -> None:
    """Raise GroupTooLarge if a group with this many elements, or a closure
    that has reached this many, is over the construction cap. Every
    construction path checks the cap here."""
    if elements > DEFAULT_CONSTRUCTION_CAP:
        raise GroupTooLarge(f"{elements} elements exceed the construction cap {DEFAULT_CONSTRUCTION_CAP}")


def row_type(n: int):
    """The type rows of order n are built in: bytes up to order 256,
    array('H') above. It packs ints, or the raw bytes of joined rows."""
    return bytes if n <= 256 else partial(array, "H")


def compose_rows(p, q):
    """The row x -> p[q[x]]: a C-level translate for bytes, an array('H')
    from one itemgetter call above order 256."""
    if type(p) is bytes:
        return q.translate(p.ljust(256, b"\0"))
    # itemgetter of one index returns that item, not a 1-tuple
    return array("H", itemgetter(*q)(p) if len(q) > 1 else map(p.__getitem__, q))


def compose_each(p, rows):
    """compose_rows(p, q) for each q in rows, lazily: a bytes p is padded to
    its translate table once, and each translate is called from C."""
    if type(p) is bytes:
        return map(bytes.translate, rows, repeat(p.ljust(256, b"\0")))
    return map(partial(compose_rows, p), rows)


def _is_permutation(line, n: int) -> bool:
    """True iff the n entries of line, none negative, are 0..n-1."""
    return max(line) < n == len(set(line))


def _check_latin(rows) -> None:
    """Raise NotLatinSquare naming the first row, then column, that is no permutation."""
    n = len(rows)
    flat = row_type(n)(b"".join(rows))
    for kind, lines in (("row", rows), ("column", (flat[c::n] for c in range(n)))):
        for r, line in enumerate(lines):
            if not _is_permutation(line, n):
                raise NotLatinSquare(f"{kind} {r} is not a permutation of 0..{n - 1}")


def _frozen(rows) -> tuple:
    """The rows as a table keeps them: bytes as they are, uint16 rows as
    read-only views of private copies, so no caller can change a table."""
    return tuple(row if type(row) is bytes else memoryview(bytes(row)).cast("H") for row in rows)


def extend_closure(
    rows: Sequence[Sequence[int]],
    h_mask: int,
    h_elems: Sequence[int],
    h_gens: tuple[int, ...],
    x: int,
) -> tuple[int, tuple[int, ...]]:
    """Close the subgroup H (given as bitmask + element list) under x.

    rows is a multiplication table. Returns (mask, new_elems): the bitmask
    of <H union {x}> and the elements outside H in discovery order. The
    closure is swept out one right coset H*w at a time, so a candidate coset
    rep already inside the mask is skipped in O(1) and the total work stays
    near-linear in the result size.
    """
    gens = h_gens + (x,)
    mask = h_mask
    new_elems: list[int] = []
    stack = [x]
    while stack:
        r = stack.pop()
        if mask >> r & 1:
            continue
        for h in h_elems:
            t = rows[h][r]
            if not mask >> t & 1:
                mask |= 1 << t
                new_elems.append(t)
        for g in gens:
            stack.append(rows[r][g])
    return mask, tuple(new_elems)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is a tuple of immutable rows, table[a][b] = a*b: bytes up to
    order 256 (every group the lattice cap admits), read-only uint16
    memoryviews above. The constructor screens entry types and range, then
    checks a two-sided identity (relocated to 0 if found elsewhere),
    two-sided inverses, and (g*b)*c = g*(b*c) for all b, c and every g in
    generators, in O(n^2 log n). That proves a group: generators closes
    range(1, n), each element it adds a product of earlier ones, so they
    generate the table in any magma; the left elements l, with
    (l*b)*c = l*(b*c) for all b, c, include the identity and are closed
    under products, since for left elements x and y
    ((x*y)*b)*c = (x*(y*b))*c = x*((y*b)*c) = x*(y*(b*c)) = (x*y)*(b*c);
    so the table is associative, with identity and inverses a group, whose
    rows and columns are permutations. The Latin-square scan runs only once
    a check fails, to report a bad row or column first. Commutativity, the
    center, the derived series and normality use generators.
    """

    def __init__(self, table, name: str = "G"):
        self.table = _screen_table(table)
        self.order = len(self.table)
        self.name = name
        self._validate_and_normalize()

    def _validate_and_normalize(self) -> None:
        """Check self.table, move its identity to 0, set inverses and generators."""
        table = self.table
        try:
            self._check_axioms(table)
        except (NoIdentity, NoInverse, NotAssociative):
            _check_latin(table)
            raise

    def _check_axioms(self, table) -> None:
        rows, n = table, self.order
        pack = row_type(n)
        ref = pack(range(n))
        flat = pack(b"".join(rows))
        e = rows.index(ref) if ref in rows else -1
        if e < 0 or flat[e::n] != ref:
            raise NoIdentity("no element acts as a two-sided identity")
        if e != 0:
            # relabel by swapping 0 and e: new[a][b] = m[old[m[a]][m[b]]]
            m = pack(e if x == 0 else 0 if x == e else x for x in range(n))
            rows = _frozen(compose_rows(m, compose_rows(rows[m[a]], m)) for a in range(n))
            flat = pack(b"".join(rows))

        # two-sided inverses: the right inverse of each row must also work
        # on the left
        try:
            if pack is bytes:
                inv = tuple(map(bytes.index, rows, repeat(0)))
            else:
                inv = tuple(flat.index(0, a * n, a * n + n) - a * n for a in range(n))
        except ValueError:
            raise NoInverse("some row has no identity entry") from None
        if any(map(getitem, map(rows.__getitem__, inv), range(n))):
            a, b = next((a, b) for a, b in enumerate(inv) if rows[b][a])
            raise NoInverse(f"element {a}: right inverse {b} is not a left inverse")
        self.table, self.inverses = rows, inv

        self.generators: tuple[int, ...] = self._normal_closure(range(1, n), ())[1]
        # associativity via the generators (left-element test): the row of
        # g*b must be the row of b read through the row of g; bytes rows
        # compare the whole table with one translate, uint16 rows a row at a
        # time
        for g in self.generators:
            q = rows[g]
            if pack is bytes:
                holds = b"".join(map(rows.__getitem__, q)) == flat.translate(q.ljust(256, b"\0"))
            else:
                holds = all(map(eq, map(rows.__getitem__, q), compose_each(q, rows)))
            if not holds:
                b = next(b for b, row in enumerate(rows) if rows[q[b]] != compose_rows(q, row))
                c = next(c for c in range(n) if rows[q[b]][c] != q[rows[b][c]])
                raise NotAssociative(f"({g}*{b})*{c} != {g}*({b}*{c})")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv_of(self, a: int) -> int:
        return self.inverses[a]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """One power walk per cyclic subgroup: if x has order m, x^k has
        order m / gcd(k, m), so the walk over <x> orders all its members."""
        rows = self.table
        out = [0] * self.order
        out[0] = 1
        for x in range(1, self.order):
            if out[x]:
                continue
            powers = [x]
            while powers[-1]:
                powers.append(rows[powers[-1]][x])
            m = len(powers)
            for k, y in enumerate(powers, 1):
                out[y] = m // math.gcd(k, m)
        return tuple(out)

    def element_order(self, x: int) -> int:
        return self.element_orders[x]

    @cached_property
    def delta(self) -> int:
        """Number of prime-order subgroups."""
        counts: dict[int, int] = {}
        for k in self.element_orders:
            if is_prime(k):
                counts[k] = counts.get(k, 0) + 1
        total = 0
        for p, cnt in counts.items():
            # each subgroup of order p contributes exactly p-1 elements
            if cnt % (p - 1):
                raise CheckFailed(f"{cnt} elements of order {p} is not a multiple of {p - 1}")
            total += cnt // (p - 1)
        return total

    @cached_property
    def involution_count(self) -> int:
        return sum(1 for k in self.element_orders if k == 2)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

    @cached_property
    def is_abelian(self) -> bool:
        rows = self.table
        return all(rows[s][t] == rows[t][s] for s in self.generators for t in self.generators)

    @cached_property
    def is_cyclic(self) -> bool:
        return max(self.element_orders) == self.order

    @cached_property
    def center_mask(self) -> int:
        rows, gens = self.table, self.generators
        return sum(1 << x for x, row in enumerate(rows) if all(row[s] == rows[s][x] for s in gens))

    def center(self) -> "Subgroup":
        return Subgroup(self, self.center_mask, check=False)

    @cached_property
    def derived_mask(self) -> int:
        return self._derived_of(self.generators)[0]

    def derived_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.derived_mask, check=False)

    def closure_mask(self, seed: Iterable[int]) -> int:
        """Bitmask of the smallest subgroup containing the seed elements."""
        seed = list(seed)
        for x in seed:
            if not 0 <= x < self.order:
                raise GroupError(f"element {x} outside 0..{self.order - 1}")
        return self._normal_closure(seed, ())[0]

    def _normal_closure(self, seed: Iterable[int], by: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Mask and generators of the smallest subgroup N that contains the
        seed and is normalized by each element of by. Each generator y of N
        is conjugated by each s in by; once every y^s lies in N, N^s = N."""
        rows, inv = self.table, self.inverses
        mask = 1
        elems: tuple[int, ...] = (0,)
        gens: tuple[int, ...] = ()
        todo = list(seed)[::-1]
        while todo:
            x = todo.pop()
            if mask >> x & 1:
                continue
            mask, new = extend_closure(rows, mask, elems, gens, x)
            elems = elems + new
            gens = gens + (x,)
            todo.extend(rows[rows[inv[s]][x]][s] for s in by)
        return mask, gens

    def _derived_of(self, gens: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Mask and generators of the derived subgroup of H = <gens>: the
        normal closure in H of the commutators of gens, since H modulo that
        closure is generated by commuting images, hence abelian."""
        rows, inv = self.table, self.inverses
        comms = [rows[rows[inv[s]][inv[t]]][rows[s][t]] for i, s in enumerate(gens) for t in gens[:i]]
        return self._normal_closure(comms, gens)

    def closure(self, seed: Iterable[int]) -> "Subgroup":
        return Subgroup(self, self.closure_mask(seed), check=False)

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        mask = 0
        for x in members:
            mask |= 1 << x
        return Subgroup(self, mask)

    @cached_property
    def is_solvable(self) -> bool:
        mask, gens = (1 << self.order) - 1, self.generators
        while mask != 1:
            nxt, gens = self._derived_of(gens)
            if nxt == mask:
                return False
            mask = nxt
        return True


def _screen_table(table) -> tuple:
    """The table as a tuple of n rows (_frozen). An ndarray (told by its
    dtype) needs an integer dtype. A row is a list or tuple of n ints in
    0..n-1 (no bools, floats or strings; the first bad entry is named), or
    a packed row of length n (bytes up to 256, uint16 above), as the
    families build them, whose entries are range-checked at the end. A
    table whose rows are all bytes of length n is screened by two C-level
    passes over its rows rather than row by row."""
    if hasattr(table, "dtype"):
        if table.dtype.kind not in "iu":
            raise NotLatinSquare(f"table dtype {table.dtype} is not an integer type")
        shape = tuple(table.shape)
        table = table.tolist()
    else:
        table = list(table)
        shape = (len(table), len(table))
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise NotLatinSquare(f"table must be square and nonempty, got shape {shape}")
    n = shape[0]
    check_cap(n)
    if n <= 256 and set(map(type, table)) == {bytes} and set(map(len, table)) == {n}:
        rows = tuple(table)
    else:
        pack = row_type(n)
        packed = (bytes,) if n <= 256 else (array, memoryview)
        rows = []
        for r, row in enumerate(table):
            if type(row) in packed and getattr(row, "typecode", getattr(row, "format", "H")) == "H" and len(row) == n:
                rows.append(row)
                continue
            if type(row) not in (list, tuple) or len(row) != n:
                raise NotLatinSquare(f"table row {r} is not a list of {n} entries: {row!r:.40}")
            # C-speed screen first; the witness search runs only on a bad row
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
                c, v = next((c, v) for c, v in enumerate(row) if type(v) is not int or not 0 <= v < n)
                why = "outside the element range" if type(v) is int else f"a {type(v).__name__}"
                raise NotLatinSquare(f"table entry [{r}][{c}] = {v!r:.40} is not an integer in 0..{n - 1} ({why})")
            rows.append(pack(row))
        rows = _frozen(rows)
    # list rows are screened above; a packed row out of range is no permutation
    if b"".join(rows).translate(None, bytes(range(n))) if n <= 256 else max(map(max, rows)) >= n:
        _check_latin(rows)
    return rows


def _mask_elements(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class Subgroup:
    """A subgroup of a parent group, stored as a membership bitmask.

    Bit i of the mask is set iff element i belongs to the subgroup. The
    constructor checks the identity bit, product closure, inverse closure,
    and Lagrange divisibility unless check=False (internal call sites that
    already guarantee a subgroup).
    """

    __slots__ = ("parent", "mask", "__dict__")

    def __init__(self, parent: FiniteGroup, mask: int, check: bool = True):
        self.parent = parent
        self.mask = mask
        if check:
            self._check()

    def _check(self) -> None:
        mask = self.mask
        n = self.parent.order
        if not mask & 1:
            raise NotSubgroup("identity (element 0) missing from member set")
        if mask >> n:
            raise NotSubgroup(f"member bit beyond element range 0..{n - 1}")
        elems = _mask_elements(mask)
        rows = self.parent.table
        for a in elems:
            row = rows[a]
            for b in elems:
                if not mask >> row[b] & 1:
                    raise NotSubgroup(f"not closed: {a}*{b} = {row[b]} is outside the set")
        inv = self.parent.inverses
        for a in elems:
            if not mask >> inv[a] & 1:
                raise NotSubgroup(f"inverse of {a} is outside the set")
        if n % len(elems) != 0:
            raise NotSubgroup(f"size {len(elems)} does not divide group order {n}")

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(_mask_elements(self.mask))

    @cached_property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"

    @cached_property
    def is_normal(self) -> bool:
        g = self.parent
        if g.is_abelian or self.order == 1 or self.index <= 2:
            return True
        # H^s = H for each generator s of G is enough
        rows, inv, mask = g.table, g.inverses, self.mask
        return all(mask >> rows[rows[inv[s]][h]][s] & 1 for s in g.generators for h in self.elements)

    @cached_property
    def is_abelian(self) -> bool:
        rows = self.parent.table
        gens = self.parent._normal_closure(self.elements, ())[1]
        return all(rows[s][t] == rows[t][s] for s in gens for t in gens)

    @cached_property
    def is_elementary_abelian_2(self) -> bool:
        """True iff every member squares to the identity.

        Exponent <= 2 forces commutativity, so no separate abelian check is
        needed; the trivial subgroup counts as elementary abelian 2.
        """
        rows = self.parent.table
        return all(rows[a][a] == 0 for a in self.elements)


# ---------------------------------------------------------------------------
# module-level operations


def from_cayley_table(table, name: str = "G") -> FiniteGroup:
    """Build and validate a group from a full multiplication table."""
    return FiniteGroup(table, name=name)


def quotient_group(g: FiniteGroup, h: Subgroup, name: Optional[str] = None) -> FiniteGroup:
    """Coset multiplication table of G/H, the cosets Ha numbered in the
    order of their least members; requires H normal."""
    if not h.is_normal:
        raise NotNormal(f"subgroup of order {h.order} is not normal in {g.name}")
    if name is None:
        name = f"{g.name}/{h.order}"
    return FiniteGroup(coset_rows(g.table, h.elements), name=name)


def coset_rows(rows, h_elems) -> list:
    """The table of quotient_group from the rows of G and the elements of a
    normal subgroup H, which are not checked."""
    labels = [-1] * len(rows)
    reps = []
    for a in range(len(rows)):
        if labels[a] == -1:
            for x in h_elems:
                labels[rows[x][a]] = len(reps)
            reps.append(a)
    return [[labels[rows[a][b]] for b in reps] for a in reps]


# ---------------------------------------------------------------------------
# group file format

_FILE_KEYS = ("name", "order", "table")


def dumps_group(g: FiniteGroup) -> str:
    """Canonical text form: fixed key order, compact separators, one
    trailing newline."""
    payload = {"name": g.name, "order": g.order, "table": [list(row) for row in g.table]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def loads_group(text: str) -> FiniteGroup:
    """Parse the canonical text form. Types are strict: the name is a
    string, the order a positive int, the table a list of order rows, each
    a list of order ints in 0..order-1 (no bools, floats or strings)."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GroupError(f"malformed group file: {exc}") from exc
    if not isinstance(obj, dict):
        raise GroupError("group file must hold a single object")
    for key in _FILE_KEYS:
        if key not in obj:
            raise GroupError(f"group file missing field {key!r}")
    name, order, table = obj["name"], obj["order"], obj["table"]
    if type(name) is not str:
        raise GroupError(f"name field must be a string, got {name!r:.40}")
    if type(order) is not int or order < 1:
        raise GroupError(f"order field must be a positive integer, got {order!r:.40}")
    if type(table) is not list or len(table) != order:
        raise GroupError(f"order field {order} does not match table size {len(table) if type(table) is list else '?'}")
    return from_cayley_table(table, name=name)  # screens each row and entry


def write_group(g: FiniteGroup, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_group(g))


def read_group(path) -> FiniteGroup:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GroupError(f"group file is not ASCII text: {exc}") from exc
    return loads_group(text)
