"""Golden stdout for every `verify` target and for `lattice`/`degrees` on
six non-abelian groups, a guard for refactors.

tests/golden_stdout.json holds the sha256 of the stdout and the exit code
of each run, recorded by tests/record_golden.py from a commit whose output
was known good. A change that alters any byte of these reports fails here;
re-record only when the output is meant to change.
"""

import json

import pytest

from record_golden import GOLDEN, GROUP_COMMANDS, GROUPS, TARGETS, argv_for, group_key, run, run_on_group

EXPECTED = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_verify_target():
    from grouplattice.cli import VERIFY_TARGETS

    assert sorted(TARGETS) == sorted(VERIFY_TARGETS)
    keys = [" ".join(argv_for(t)) for t in TARGETS]
    keys += [group_key(name, command) for name in GROUPS for command in GROUP_COMMANDS]
    assert sorted(EXPECTED) == sorted(keys)


@pytest.mark.parametrize("target", TARGETS)
def test_verify_stdout_matches_golden(target):
    key = " ".join(argv_for(target))
    assert run(argv_for(target)) == EXPECTED[key], key


@pytest.mark.parametrize("command", GROUP_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", GROUPS)
def test_group_command_stdout_matches_golden(name, command):
    key = group_key(name, command)
    assert run_on_group(name, command) == EXPECTED[key], key
