"""Golden stdout for every `verify` target (`bounds` and `lemma21` also at
order 128), for `lattice`/`degrees` on six non-abelian groups and on the
ten lattice-big tables, for `catalog --list`, `verify theorem-a` and
`verify wall` at order 256, for `verify orders --max-order 10000`, for
`construct symmetric 6` and `construct cyclic 300`, a digest of the
per-vertex degrees of every catalog(64) lattice, a digest of every
catalog(256) entry's name, tags and table and a digest of the
automorphisms found for every catalog(128) group: a guard for refactors.
With GROUPLATTICE_SLOW=1 it also checks the five lattice targets at
order 256 and `lattice --format dot` on C2^8, which take about 2 minutes.

tests/golden_stdout.json holds the sha256 of the stdout and the exit code
of each run, recorded by tests/record_golden.py from a commit whose output
was known good. A change that alters any byte of these reports fails here;
re-record only when the output is meant to change.
"""

import json
import os

import pytest

from record_golden import (
    AUTOMORPHISM_DIGEST_KEY,
    AUTOMORPHISM_ORDER,
    BENCH_COMMANDS,
    BIG_COMMANDS,
    CATALOG_COMMANDS,
    CATALOG_DIGEST_KEY,
    CATALOG_ORDER,
    CONSTRUCT_COMMANDS,
    GOLDEN,
    GROUP_COMMANDS,
    GROUPS,
    SLOW_GROUP_COMMAND,
    SLOW_ORDER,
    SLOW_TARGETS,
    TARGETS,
    VERTEX_DIGEST_KEY,
    WIDE_ORDER,
    WIDE_TARGETS,
    argv_for,
    automorphism_digest,
    big_key,
    big_texts,
    catalog_digest,
    group_key,
    group_text,
    run,
    run_on_text,
    vertex_digest,
)

EXPECTED = json.loads(GOLDEN.read_text())
slow = pytest.mark.skipif(os.environ.get("GROUPLATTICE_SLOW") != "1", reason="set GROUPLATTICE_SLOW=1 to run")


def test_golden_file_covers_every_verify_target():
    from grouplattice.cli import VERIFY_TARGETS

    assert sorted(TARGETS) == sorted(VERIFY_TARGETS)
    keys = [" ".join(argv_for(t)) for t in TARGETS]
    keys += [" ".join(argv_for(t, WIDE_ORDER)) for t in WIDE_TARGETS]
    keys += [group_key(name, command) for name in GROUPS for command in GROUP_COMMANDS]
    keys += [big_key(name, command) for name in big_texts() for command in BIG_COMMANDS]
    keys += [" ".join(command) for command in CATALOG_COMMANDS + BENCH_COMMANDS + CONSTRUCT_COMMANDS]
    keys += [" ".join(argv_for(t, SLOW_ORDER)) for t in SLOW_TARGETS] + [group_key(*SLOW_GROUP_COMMAND)]
    assert sorted(EXPECTED) == sorted(keys + [VERTEX_DIGEST_KEY, CATALOG_DIGEST_KEY, AUTOMORPHISM_DIGEST_KEY])


@pytest.mark.parametrize("target", TARGETS)
def test_verify_stdout_matches_golden(target):
    key = " ".join(argv_for(target))
    assert run(argv_for(target)) == EXPECTED[key], key


@pytest.mark.parametrize("target", WIDE_TARGETS)
def test_wide_verify_stdout_matches_golden(target):
    argv = argv_for(target, WIDE_ORDER)
    key = " ".join(argv)
    assert run(argv) == EXPECTED[key], key


@pytest.mark.parametrize("command", GROUP_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", GROUPS)
def test_group_command_stdout_matches_golden(name, command):
    key = group_key(name, command)
    assert run_on_text(group_text(name), command) == EXPECTED[key], key


@pytest.mark.parametrize("command", BIG_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", list(big_texts()))
def test_lattice_big_stdout_matches_golden(name, command):
    key = big_key(name, command)
    assert run_on_text(big_texts()[name], command) == EXPECTED[key], key


def test_vertex_degrees_match_golden(lattices64):
    assert vertex_digest(lattices64) == EXPECTED[VERTEX_DIGEST_KEY]


@pytest.mark.parametrize("command", CATALOG_COMMANDS, ids=" ".join)
def test_catalog_command_stdout_matches_golden(command):
    key = " ".join(command)
    assert run(list(command)) == EXPECTED[key], key


@pytest.mark.parametrize("command", BENCH_COMMANDS, ids=" ".join)
def test_benchmark_command_stdout_matches_golden(command):
    key = " ".join(command)
    assert run(list(command)) == EXPECTED[key], key


def test_catalog_entries_match_golden():
    import grouplattice as gl

    assert catalog_digest(gl.catalog(CATALOG_ORDER)) == EXPECTED[CATALOG_DIGEST_KEY]


@pytest.mark.parametrize("command", CONSTRUCT_COMMANDS, ids=" ".join)
def test_construct_stdout_matches_golden(command):
    key = " ".join(command)
    assert run(list(command)) == EXPECTED[key], key


def test_automorphisms_match_golden():
    import grouplattice as gl

    assert automorphism_digest(gl.catalog(AUTOMORPHISM_ORDER)) == EXPECTED[AUTOMORPHISM_DIGEST_KEY]


@slow
@pytest.mark.parametrize("target", SLOW_TARGETS)
def test_lattice_targets_at_order_256_match_golden(target):
    argv = argv_for(target, SLOW_ORDER)
    key = " ".join(argv)
    assert run(argv) == EXPECTED[key], key


@slow
def test_c2_8_dot_matches_golden():
    name, command = SLOW_GROUP_COMMAND
    key = group_key(name, command)
    assert run_on_text(group_text(name), command) == EXPECTED[key], key
