"""Golden stdout for every `verify` target, a guard for refactors.

tests/golden_stdout.json holds the sha256 of the stdout and the exit code
of each run, recorded by tests/record_golden.py from a commit whose output
was known good. A change that alters any byte of these reports fails here;
re-record only when the output is meant to change.
"""

import json

import pytest

from record_golden import GOLDEN, TARGETS, argv_for, run

EXPECTED = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_verify_target():
    from grouplattice.cli import VERIFY_TARGETS

    assert sorted(TARGETS) == sorted(VERIFY_TARGETS)
    assert sorted(EXPECTED) == sorted(" ".join(argv_for(t)) for t in TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_verify_stdout_matches_golden(target):
    key = " ".join(argv_for(target))
    assert run(argv_for(target)) == EXPECTED[key], key
