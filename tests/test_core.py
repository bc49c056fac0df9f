"""Group construction, validation, invariants, quotients, and file I/O."""

import functools
import json
import random
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

import grouplattice as gl
import oracle_validate
from grouplattice import core
from grouplattice.core import _mask_elements, extend_closure
from grouplattice.errors import (
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


def relabel(rows, perm):
    # perm[i] = new label of old element i
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return out


# ---------------------------------------------------------------------------
# construction and validation


def test_valid_table_constructs():
    g = gl.from_cayley_table([[0, 1], [1, 0]], name="C2")
    assert g.order == 2
    assert g.name == "C2"


def test_table_is_read_only():
    # bytes rows up to order 256, read-only uint16 views above
    for g in (gl.cyclic(3), gl.symmetric(6)):
        with pytest.raises(TypeError):
            g.table[1][0] = 0
        with pytest.raises(TypeError):
            g.table[0] = g.table[1]
        assert g.table[1][0] == 1


def test_table_does_not_share_the_callers_rows():
    # above order 256 the caller's array('H') rows are copied, not kept
    rows = [array("H", row) for row in gl.cyclic(300).table]
    g = gl.from_cayley_table(rows)
    rows[1][0] = 0
    assert g.table[1][0] == 1 and gl.from_cayley_table(g.table).order == 300


def test_rejects_non_square():
    with pytest.raises(NotLatinSquare):
        gl.from_cayley_table([[0, 1, 2], [1, 2, 0]])


def test_rejects_empty():
    with pytest.raises(NotLatinSquare):
        gl.from_cayley_table([])


def test_rejects_entry_out_of_range():
    with pytest.raises(NotLatinSquare, match="outside"):
        gl.from_cayley_table([[0, 1], [1, 2]])
    with pytest.raises(NotLatinSquare, match="outside"):
        gl.from_cayley_table([[0, -1], [1, 0]])


@pytest.mark.parametrize(
    "table,witness",
    [
        ([[0, 1], [1, 0.5]], r"table entry \[1\]\[1\] = 0.5 is not an integer in 0..1 \(a float\)"),
        ([[0, True], [True, False]], r"table entry \[0\]\[1\] = True is not an integer in 0..1 \(a bool\)"),
        ([[0, 1], [1, "0"]], r"table entry \[1\]\[1\] = '0' is not an integer in 0..1 \(a str\)"),
        ([[0, 1], [1, 2]], r"table entry \[1\]\[1\] = 2 is not an integer in 0..1 \(outside"),
        ([[0, 1], (1,)], r"table row 1 is not a list of 2 entries"),
        ([[0, 1], "10"], r"table row 1 is not a list of 2 entries"),
    ],
)
def test_constructor_screens_entry_types(table, witness):
    # the library constructor and the file loader share one screen
    with pytest.raises(NotLatinSquare, match=witness):
        gl.from_cayley_table(table)
    text = json.dumps({"name": "X", "order": 2, "table": table})
    with pytest.raises(GroupError, match=witness):
        gl.loads_group(text)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
def test_constructor_refuses_non_integer_arrays(dtype):
    with pytest.raises(NotLatinSquare, match="is not an integer type"):
        gl.from_cayley_table(np.array([[0, 1], [1, 0]], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16])
def test_constructor_accepts_integer_arrays(dtype):
    g = gl.from_cayley_table(np.array([[0, 1], [1, 0]], dtype=dtype))
    assert g.order == 2 and g.table == (bytes([0, 1]), bytes([1, 0]))


def test_constructor_takes_the_rows_of_a_built_table():
    s4 = gl.symmetric(4)
    assert gl.from_cayley_table(s4.table).table == s4.table
    # such rows skip the entry screen; validation still checks their range
    with pytest.raises(NotLatinSquare, match=r"^row 1 is not a permutation of 0\.\.1$"):
        gl.from_cayley_table((bytes([0, 1]), bytes([1, 5])))
    with pytest.raises(NotLatinSquare, match="table row 1 is not a list of 2 entries"):
        gl.from_cayley_table(([0, 1], array("d", [1.0, 0.0])))


def test_array_entry_out_of_range_names_the_entry():
    with pytest.raises(NotLatinSquare, match=r"table entry \[1\]\[0\] = -3 is not an integer in 0..1"):
        gl.from_cayley_table(np.array([[0, 1], [-3, 0]]))


def test_rejects_repeated_entry_in_row():
    with pytest.raises(NotLatinSquare, match="row 0"):
        gl.from_cayley_table([[0, 0], [1, 1]])


def test_rejects_repeated_entry_in_column():
    with pytest.raises(NotLatinSquare, match="column 0"):
        gl.from_cayley_table([[0, 1], [0, 1]])


def test_rejects_latin_square_without_identity():
    # rows and columns are permutations; element 1 is a left identity only
    with pytest.raises(NoIdentity, match="two-sided identity"):
        gl.from_cayley_table([[1, 2, 0], [0, 1, 2], [2, 0, 1]])


def test_rejects_loop_without_two_sided_inverse():
    # a Latin square with identity 0 where element 2 has different left and
    # right inverses
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NoInverse, match="element 2: right inverse 3 is not a left inverse"):
        gl.from_cayley_table(table)


def test_rejects_nonassociative_loop():
    # identity and two-sided inverses present, but (1*1)*2 != 1*(1*2)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative, match=r"\(1\*1\)\*2 != 1\*\(1\*2\)"):
        gl.from_cayley_table(table)


def test_rejects_order_above_cap(monkeypatch):
    rows = [list(row) for row in gl.cyclic(6).table]
    monkeypatch.setattr("grouplattice.core.DEFAULT_CONSTRUCTION_CAP", 4)
    with pytest.raises(GroupTooLarge):
        gl.from_cayley_table(rows)


def test_identity_relocated_to_zero():
    base = gl.cyclic(4)
    moved = relabel(base.table, [2, 1, 0, 3])
    g = gl.from_cayley_table(moved, name="moved")
    assert list(g.table[0]) == [0, 1, 2, 3]
    assert [row[0] for row in g.table] == [0, 1, 2, 3]
    assert sorted(g.element_orders) == [1, 2, 4, 4]
    assert gl.is_isomorphic(base, g) is not None


@given(st.data())
def test_any_relabeling_of_cyclic_group_reconstructs(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    perm = list(data.draw(st.permutations(range(n))))
    base = gl.cyclic(n)
    g = gl.from_cayley_table(relabel(base.table, perm))
    assert g.order == n
    assert list(g.table[0]) == list(range(n))
    assert gl.is_isomorphic(base, g) is not None


# ---------------------------------------------------------------------------
# permutation generators


def test_permutation_generators_symmetric_3():
    g = gl.from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)], name="S3")
    assert g.order == 6
    assert not g.is_abelian


def test_permutation_generators_identity_only():
    g = gl.from_permutation_generators(4, [])
    assert g.order == 1


def test_permutation_generators_rejects_non_permutation():
    with pytest.raises(GroupError):
        gl.from_permutation_generators(3, [(0, 0, 1)])


def test_permutation_generators_rejects_bad_degree():
    with pytest.raises(GroupError):
        gl.from_permutation_generators(0, [])


def test_permutation_generators_respects_cap(monkeypatch):
    monkeypatch.setattr("grouplattice.core.DEFAULT_CONSTRUCTION_CAP", 100)
    cycle = tuple(list(range(1, 7)) + [0])
    with pytest.raises(GroupTooLarge):
        gl.from_permutation_generators(7, [cycle, (1, 0) + tuple(range(2, 7))])


@pytest.mark.parametrize(
    "build,witness",
    [
        (lambda: gl.from_permutation_generators(2.5, [(1, 0)]), "degree must be an integer, got 2.5"),
        (lambda: gl.from_permutation_generators(True, [(0,)]), "degree must be an integer, got True"),
        (lambda: gl.Isomorphism(gl.cyclic(2), gl.cyclic(2), (0.0, 1)), "map entry must be an integer, got 0.0"),
        (lambda: gl.cyclic(2.5), "cyclic order must be an integer, got 2.5"),
        (lambda: gl.dihedral(3.0), "dihedral parameter must be an integer, got 3.0"),
        (lambda: gl.elementary_abelian(2, 2.0), "rank must be an integer, got 2.0"),
        (lambda: gl.abelian([2.5]), "cyclic factor must be an integer, got 2.5"),
        (lambda: gl.catalog(8.5), "max_order must be an integer, got 8.5"),
        (lambda: gl.catalog(True), "max_order must be an integer, got True"),
        (lambda: gl.candidate_orders(12.5), "n must be an integer, got 12.5"),
        (lambda: gl.candidate_orders(True), "n must be an integer, got True"),
        (lambda: gl.divisors(12.0), "n must be an integer, got 12.0"),
        (lambda: gl.factorize(12.0), "n must be an integer, got 12.0"),
        (lambda: gl.is_prime(2.5), "n must be an integer, got 2.5"),
        (lambda: gl.primes_upto(13.5), "n must be an integer, got 13.5"),
        (lambda: gl.lemma_2_3_check(5, 7, 11, 1.5, 1, 1), "n1 must be an integer, got 1.5"),
        (lambda: gl.lemma_2_3_scan(13.5, 2), "prime_bound must be an integer, got 13.5"),
        (lambda: gl.lemma_2_3_scan(13, 2.0), "exp_bound must be an integer, got 2.0"),
    ],
)
def test_integer_parameters_reject_other_types(build, witness):
    # a float or a bool where an int is due is a GroupError naming the
    # parameter, never a bare TypeError nor a silently coerced group
    with pytest.raises(GroupError, match=re.escape(witness)):
        build()


@pytest.mark.parametrize(
    "generators,witness",
    [
        ([(1.9, 0, 2)], r"generator 0 entry 0 = 1\.9 is not an integer"),
        ([(1, 0, 2), (True, False, 2)], r"generator 1 entry 0 = True is not an integer"),
        ([("1", "0", "2")], r"generator 0 entry 0 = '1' is not an integer"),
        ([(1, 0, 2.0)], r"generator 0 entry 2 = 2\.0 is not an integer"),
    ],
)
def test_permutation_generators_refuse_non_int_entries(generators, witness):
    # a cast with int() would read 1.9, True and "1" as 1 and build C2
    with pytest.raises(GroupError, match=witness):
        gl.from_permutation_generators(3, generators)


# ---------------------------------------------------------------------------
# tables above order 256: read-only uint16 rows


@pytest.fixture(scope="module")
def s6():
    return gl.symmetric(6)


def test_s6_builds_and_round_trips(s6):
    assert s6.order == 720 and not s6.is_solvable
    assert all(type(row) is memoryview and row.format == "H" and row.readonly for row in s6.table)
    assert sorted(set(s6.element_orders)) == [1, 2, 3, 4, 5, 6]
    back = gl.loads_group(gl.dumps_group(s6))
    assert back.name == "S6" and back.table == s6.table and back.generators == s6.generators


def test_a6_is_isomorphic_to_a_relabelled_copy():
    a6 = gl.alternating(6)
    perm = list(range(a6.order))
    random.Random(6).shuffle(perm)
    copy = gl.from_cayley_table(relabel(a6.table, perm), name="A6~")
    assert copy.order == 360 and type(copy.table[0]) is memoryview
    iso = gl.is_isomorphic(a6, copy)
    assert iso is not None
    rows, other = a6.table, copy.table
    assert all(iso.map[rows[a][b]] == other[iso.map[a]][iso.map[b]] for a in range(0, 360, 7) for b in range(360))
    assert gl.is_isomorphic(a6, gl.direct_product(gl.alternating(5), gl.symmetric(3))) is None


def test_corrupted_tables_above_256_give_the_same_witnesses(s6):
    rows = [list(row) for row in s6.table]
    bad_row = [list(row) for row in rows]
    bad_row[5][3] = bad_row[5][4]
    with pytest.raises(NotLatinSquare, match=r"^row 5 is not a permutation of 0\.\.719$"):
        gl.from_cayley_table(bad_row)
    # packed rows skip the entry screen: 720 distinct entries, one of them 720
    out_of_range = [array("H", row) for row in rows]
    out_of_range[5][out_of_range[5].index(719)] = 720
    with pytest.raises(NotLatinSquare, match=r"^row 5 is not a permutation of 0\.\.719$"):
        gl.from_cayley_table(out_of_range)
    # swapping two entries keeps every row a permutation and breaks two columns
    bad_col = [list(row) for row in rows]
    bad_col[9][40], bad_col[9][17] = bad_col[9][17], bad_col[9][40]
    with pytest.raises(NotLatinSquare, match=r"^column 17 is not a permutation of 0\.\.719$"):
        gl.from_cayley_table(bad_col)


def test_nonassociative_loop_above_256_is_refused():
    # the order-5 loop of test_rejects_nonassociative_loop times C60: a Latin
    # square of order 300 with identity and two-sided inverses
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    table = [
        [loop[a // 60][b // 60] * 60 + (a + b) % 60 for b in range(300)]
        for a in range(300)
    ]
    with pytest.raises(NotAssociative) as info:
        gl.from_cayley_table(table)
    a, g, c = map(int, re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) != (\d+)\*\((\d+)\*(\d+)\)", str(info.value)).group(1, 2, 3))
    assert table[table[a][g]][c] != table[a][table[g][c]]


@pytest.mark.parametrize("m", [2, 51, 60])
def test_associativity_fails_at_a_later_generator(m):
    # the order-5 loop times C_m, element l*m + a: generator 1 = (e, 1) is a
    # left element, so only the next generator, m = (1, 0), can fail;
    # orders 10 and 255 take the bytes path, 300 the uint16 path
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    n = 5 * m
    table = [[loop[a // m][b // m] * m + (a + b) % m for b in range(n)] for a in range(n)]
    with pytest.raises(NotAssociative) as info:
        gl.from_cayley_table(table)
    g, b, c, g2, b2, c2 = map(int, re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) != (\d+)\*\((\d+)\*(\d+)\)", str(info.value)).groups())
    assert (g, b, c) == (g2, b2, c2) and g == m
    assert table[table[g][b]][c] != table[g][table[b][c]]


def test_packed_rows_with_one_odd_row_get_the_per_row_screen():
    rows = list(gl.dihedral(4).table)
    mixed = rows[:3] + [list(rows[3])] + rows[4:]
    assert gl.from_cayley_table(mixed).table == gl.dihedral(4).table
    mixed[3][5] = 9
    with pytest.raises(NotLatinSquare, match=r"^table entry \[3\]\[5\] = 9 is not an integer in 0\.\.7 \(outside the element range\)$"):
        gl.from_cayley_table(mixed)
    short = rows[:6] + [rows[6][:7]] + rows[7:]
    with pytest.raises(NotLatinSquare, match=r"^table row 6 is not a list of 8 entries: "):
        gl.from_cayley_table(short)


def test_validation_scans_rows_and_columns_only_on_failure(monkeypatch):
    calls = []
    scan = core._is_permutation
    monkeypatch.setattr(core, "_is_permutation", lambda line, n: calls.append(1) or scan(line, n))
    gl.catalog(64)
    assert calls == []
    with pytest.raises(NotLatinSquare, match="^column 0 "):
        gl.from_cayley_table([[0, 1], [0, 1]])
    assert calls


def test_table_without_identity_entries_is_no_latin_square():
    # row 1 has no 0, so it has no right inverse: the row scan names it
    with pytest.raises(NotLatinSquare, match=r"^row 1 is not a permutation of 0\.\.2$"):
        gl.from_cayley_table([[0, 1, 2], [1, 1, 2], [2, 2, 1]])


@functools.lru_cache(maxsize=None)
def _catalog32_tables():
    return [[list(row) for row in e.group.table] for e in gl.catalog(32)]


def swap_intercalate(table, a, c):
    """Swap the two values of the 2x2 Latin subsquare at rows a, a*u and
    columns c, u*c, for the first involution u: the table stays a Latin
    square, and keeps its identity unless a or c is the identity or u."""
    e = oracle_validate.identity(table)
    u = next((u for u, row in enumerate(table) if u != e and row[u] == e), None)
    if e is None or u is None or {a, c} & {e, u}:
        return table
    b, d = table[a][u], table[u][c]
    table[a][c], table[a][d], table[b][c], table[b][d] = table[a][d], table[a][c], table[b][d], table[b][c]
    return table


@st.composite
def relabelled_or_corrupted(draw):
    """A catalog(32) table, relabelled, then (maybe) corrupted; and whether
    it is passed as packed bytes rows or as lists."""
    base = draw(st.sampled_from(_catalog32_tables()))
    n = len(base)
    table = relabel(base, draw(st.permutations(range(n))))
    packed = draw(st.booleans())
    kind = draw(st.sampled_from(["none", "entry", "swap-in-row", "swap-rows", "swap-columns", "map-entries", "intercalate"]))
    index = st.integers(0, n - 1)
    if kind == "entry":
        top = 255 if packed else n + 2
        table[draw(index)][draw(index)] = draw(st.integers(0 if packed else -2, top))
    elif kind == "swap-in-row":
        r, c1, c2 = draw(index), draw(index), draw(index)
        table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
    elif kind == "swap-rows":
        r1, r2 = draw(index), draw(index)
        table[r1], table[r2] = table[r2], table[r1]
    elif kind == "swap-columns":
        c1, c2 = draw(index), draw(index)
        for row in table:
            row[c1], row[c2] = row[c2], row[c1]
    elif kind == "map-entries":
        sigma = draw(st.permutations(range(n)))
        table = [[sigma[v] for v in row] for row in table]
    elif kind == "intercalate":
        table = swap_intercalate(table, draw(index), draw(index))
    return table, packed


def check_against_reference(table, packed):
    """The package accepts what the reference validator accepts; otherwise
    it raises the same class, with the same message where the reference
    fixes one, and a NotAssociative witness that really fails."""
    expected = oracle_validate.expected_failure(table, packed)
    rows = [bytes(row) for row in table] if packed else table
    if expected is None:
        assert gl.from_cayley_table(rows).order == len(table)
        return None
    with pytest.raises(GroupError) as info:
        gl.from_cayley_table(rows)
    name, message = expected
    assert type(info.value).__name__ == name
    if message is not None:
        assert str(info.value) == message
    if name == "NotAssociative":
        a, b, c = map(int, re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) != \d+\*\(\d+\*\d+\)", str(info.value)).groups())
        assert oracle_validate.fails_associativity(table, a, b, c)
    return name


@given(relabelled_or_corrupted())
def test_validation_matches_the_reference_validator(case):
    check_against_reference(*case)


def test_reference_comparison_meets_every_outcome():
    # a fixed sweep, so that every exception class (and acceptance) is met
    rng = random.Random(12)
    tables = _catalog32_tables()
    seen = set()
    for _ in range(400):
        base = rng.choice(tables)
        n = len(base)
        perm = list(range(n))
        rng.shuffle(perm)
        table = relabel(base, perm)
        kind = rng.randrange(5)
        if kind == 1:
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        elif kind == 2:
            r1, r2 = rng.randrange(n), rng.randrange(n)
            table[r1], table[r2] = table[r2], table[r1]
        elif kind == 3:
            sigma = list(range(n))
            rng.shuffle(sigma)
            table = [[sigma[v] for v in row] for row in table]
        elif kind == 4:
            table = swap_intercalate(table, rng.randrange(n), rng.randrange(n))
        seen.add(check_against_reference(table, packed=rng.random() < 0.5))
    assert seen == {None, "NotLatinSquare", "NoIdentity", "NoInverse", "NotAssociative"}


# ---------------------------------------------------------------------------
# low-level helpers


def test_extend_closure_sweeps_cosets():
    rows = gl.cyclic(6).table
    mask, new = extend_closure(rows, 1, (0,), (), 2)
    assert mask == 0b010101
    assert set(new) == {2, 4}


def test_extend_closure_finds_distinct_elements_on_a_loop():
    # validation closes generators before associativity is known; on the
    # non-associative loop of test_rejects_nonassociative_loop, closing
    # {0, 1, 2, 3} under 4 meets 2 again
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    mask, new = extend_closure(loop, 0b1111, (0, 1, 2, 3), (1, 2), 4)
    assert mask == 0b11111 and new == (4,)


def test_mask_elements_and_popcount():
    assert _mask_elements(0b1011) == [0, 1, 3]
    assert _mask_elements(0) == []


# ---------------------------------------------------------------------------
# invariants


def test_element_orders_cyclic_6():
    g = gl.cyclic(6)
    assert g.element_orders == (1, 6, 3, 2, 3, 6)
    assert g.element_order(1) == 6
    assert g.element_order(3) == 2


def test_mul_and_inverses():
    g = gl.cyclic(5)
    for a in range(5):
        assert g.mul(a, g.inv_of(a)) == 0
        assert g.mul(g.inv_of(a), a) == 0
    assert g.inverses == (0, 4, 3, 2, 1)


def test_delta_examples():
    assert gl.cyclic(6).delta == 2
    assert gl.dihedral(4).delta == 5
    assert gl.dicyclic(2).delta == 1
    assert gl.symmetric(4).delta == 13
    assert gl.alternating(4).delta == 7
    assert gl.heisenberg(3).delta == 13
    assert gl.trivial().delta == 0


def test_delta_check_names_the_least_failing_prime():
    # counts no group has: one element of order 3 and two of order 5
    g = gl.cyclic(4)
    g.__dict__["element_orders"] = (1, 5, 3, 5)
    with pytest.raises(CheckFailed, match="^1 elements of order 3 is not a multiple of 2$"):
        g.delta


def test_involution_count_examples():
    assert gl.symmetric(3).involution_count == 3
    assert gl.symmetric(4).involution_count == 9
    assert gl.dicyclic(2).involution_count == 1
    assert gl.cyclic(6).involution_count == 1
    assert gl.elementary_abelian(2, 3).involution_count == 7


def test_delta_at_least_involution_count_across_catalog(catalog36):
    for entry in catalog36:
        g = entry.group
        assert g.delta >= g.involution_count


def test_exponent_examples():
    assert gl.symmetric(3).exponent == 6
    assert gl.cyclic(12).exponent == 12
    assert gl.dihedral(4).exponent == 4
    assert gl.elementary_abelian(2, 3).exponent == 2
    assert gl.alternating(4).exponent == 6


def test_abelian_cyclic_flags():
    assert gl.cyclic(6).is_cyclic
    assert gl.cyclic(6).is_abelian
    assert gl.elementary_abelian(2, 2).is_abelian
    assert not gl.elementary_abelian(2, 2).is_cyclic
    assert not gl.symmetric(3).is_abelian
    assert not gl.dihedral(4).is_abelian


def test_solvability():
    assert gl.symmetric(4).is_solvable
    assert gl.alternating(4).is_solvable
    assert gl.dihedral(6).is_solvable
    assert not gl.alternating(5).is_solvable
    assert not gl.symmetric(5).is_solvable


def test_center_examples():
    assert gl.dihedral(4).center().order == 2
    assert gl.symmetric(3).center().order == 1
    assert gl.dicyclic(2).center().order == 2
    assert gl.cyclic(12).center().order == 12
    assert gl.heisenberg(3).center().order == 3


def test_derived_subgroup_examples():
    assert gl.symmetric(3).derived_subgroup().order == 3
    assert gl.dihedral(4).derived_subgroup().order == 2
    assert gl.cyclic(12).derived_subgroup().order == 1
    s4 = gl.symmetric(4)
    d = s4.derived_subgroup()
    assert d.order == 12
    assert d.is_normal
    assert gl.alternating(4).derived_subgroup().order == 4


# ---------------------------------------------------------------------------
# subgroups


def test_closure_examples(s3):
    invol = next(x for x in range(6) if s3.element_order(x) == 2)
    h = s3.closure([invol])
    assert h.order == 2
    assert s3.closure([]).order == 1
    assert s3.closure(range(6)).order == 6


def test_subgroup_interface(s3):
    rot = next(x for x in range(6) if s3.element_order(x) == 3)
    h = s3.closure([rot])
    assert h.order == 3
    assert h.index == 2
    assert len(h) == 3
    assert 0 in h
    assert rot in h
    assert h.elements == tuple(sorted(h.elements))
    assert list(iter(h)) == list(h.elements)
    assert h == s3.closure([s3.mul(rot, rot)])
    assert hash(h) == hash(s3.closure([s3.mul(rot, rot)]))
    assert "3" in repr(h)


def test_subgroup_membership_validation(s3):
    with pytest.raises(NotSubgroup):
        s3.subgroup([0, 1, 2, 3])  # not product-closed for these labels
    with pytest.raises(NotSubgroup):
        gl.Subgroup(s3, 0b10)  # misses the identity


def test_subgroup_check_accepts_exactly_the_lattice_masks():
    # the identity, range and product-closure tests alone decide: over all
    # 2^n masks of every catalog(12) group, Subgroup(g, mask) succeeds iff
    # the mask is a vertex of the lattice
    masks = 0
    for entry in gl.catalog(12):
        g = entry.group
        vertices = set(gl.all_subgroups(g).masks)
        for mask in range(1 << g.order):
            try:
                gl.Subgroup(g, mask)
            except NotSubgroup:
                assert mask not in vertices, (g.name, mask)
            else:
                assert mask in vertices, (g.name, mask)
        masks += 1 << g.order
    assert masks == 27214


def test_subgroup_normality(s3):
    rot = next(x for x in range(6) if s3.element_order(x) == 3)
    invol = next(x for x in range(6) if s3.element_order(x) == 2)
    assert s3.closure([rot]).is_normal
    assert not s3.closure([invol]).is_normal


def test_subgroup_flags(d8):
    z = d8.center()
    assert z.is_abelian
    assert z.is_elementary_abelian_2
    four = [h for h in gl.all_subgroups(d8).subgroups if h.order == 4]
    flat = [h for h in four if h.is_elementary_abelian_2]
    assert len(four) == 3
    assert len(flat) == 2  # two Klein subgroups, one cyclic C4
    assert all(h.is_abelian for h in four)


def test_subgroups_of_different_parents_not_equal():
    a, b = gl.cyclic(2), gl.cyclic(2)
    assert a.subgroup(range(2)) != b.subgroup(range(2))


# ---------------------------------------------------------------------------
# cosets and quotients


def test_coset_indices_structure(s3, d8):
    # quotient_group numbers the right cosets Ha by their least members
    rot = next(x for x in range(6) if s3.element_order(x) == 3)
    for g, h in ((s3, s3.closure([rot])), (d8, d8.center())):
        cosets = sorted({frozenset(g.mul(x, a) for x in h) for a in range(g.order)}, key=min)
        assert {len(c) for c in cosets} == {h.order} and 0 in cosets[0]
        label = {x: i for i, c in enumerate(cosets) for x in c}
        reps = [min(c) for c in cosets]
        q = gl.quotient_group(g, h)
        assert [list(row) for row in q.table] == [[label[g.mul(a, b)] for b in reps] for a in reps]


def test_quotient_group_examples(s3, d8):
    rot = next(x for x in range(6) if s3.element_order(x) == 3)
    q = gl.quotient_group(s3, s3.closure([rot]))
    assert q.order == 2
    q2 = gl.quotient_group(d8, d8.center())
    assert q2.order == 4
    assert q2.exponent == 2  # D8 over its center is the Klein group


def test_quotient_rejects_non_normal(s3):
    invol = next(x for x in range(6) if s3.element_order(x) == 2)
    with pytest.raises(NotNormal):
        gl.quotient_group(s3, s3.closure([invol]))


def test_quotient_elementary_abelian_2_flag(s3, d8):
    rot = next(x for x in range(6) if s3.element_order(x) == 3)
    assert gl.quotient_is_elementary_abelian_2(s3, s3.closure([rot]))
    assert gl.quotient_is_elementary_abelian_2(d8, d8.center())
    c12 = gl.cyclic(12)
    c3 = c12.closure([4])
    assert c3.order == 3
    assert not gl.quotient_is_elementary_abelian_2(c12, c3)


def test_sylow_elements_subgroup_or_none(s3, s4):
    h = gl.sylow_p_elements_form_subgroup(s3, 3)
    assert h is not None and h.order == 3
    assert gl.sylow_p_elements_form_subgroup(s3, 2) is None
    assert gl.sylow_p_elements_form_subgroup(s4, 2) is None
    v = gl.sylow_p_elements_form_subgroup(gl.alternating(4), 2)
    assert v is not None and v.order == 4
    c12 = gl.cyclic(12)
    h2 = gl.sylow_p_elements_form_subgroup(c12, 2)
    assert h2 is not None and h2.order == 4


# ---------------------------------------------------------------------------
# group file format


def test_dumps_group_canonical_bytes():
    text = gl.dumps_group(gl.cyclic(2))
    assert text == '{"name":"C2","order":2,"table":[[0,1],[1,0]]}\n'


def test_dumps_loads_roundtrip(d8):
    g = gl.loads_group(gl.dumps_group(d8))
    assert g.name == d8.name
    assert g.order == d8.order
    assert g.table == d8.table


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "s3.grp"
    gl.write_group(gl.symmetric(3), path)
    g = gl.read_group(path)
    assert g.order == 6
    assert g.name == "S3"


def test_loads_rejects_bad_json():
    with pytest.raises(GroupError, match="malformed"):
        gl.loads_group("{not json")


def test_loads_rejects_non_object():
    with pytest.raises(GroupError, match="single object"):
        gl.loads_group("[1,2,3]")


def test_loads_rejects_missing_field():
    with pytest.raises(GroupError, match="missing field 'name'"):
        gl.loads_group('{"order":1,"table":[[0]]}')


def test_loads_rejects_order_mismatch():
    with pytest.raises(GroupError, match="does not match"):
        gl.loads_group('{"name":"X","order":3,"table":[[0,1],[1,0]]}')


@given(st.integers(min_value=1, max_value=12))
def test_file_roundtrip_cyclic(n):
    g = gl.cyclic(n)
    back = gl.loads_group(gl.dumps_group(g))
    assert back.table == g.table
