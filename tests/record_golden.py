"""Record the stdout digests that tests/test_golden.py compares against.

Runs every `verify` target in process through `grouplattice.cli.main` at
`--max-order 64` (lemma23 at its default bounds) and writes the sha256 of
each stdout with its exit code to tests/golden_stdout.json. Record from a
commit whose output is known good, before a refactor:

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).with_name("golden_stdout.json")
TARGETS = ("theorem-1.1", "theorem-a", "wall", "cor-1.2", "cor-1.3", "bounds", "lemma21", "lemma23", "orders")


def argv_for(target: str) -> list[str]:
    return ["verify", target] if target == "lemma23" else ["verify", target, "--max-order", "64"]


def run(argv: list[str]) -> dict:
    from grouplattice.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


def record() -> dict:
    return {" ".join(argv_for(t)): run(argv_for(t)) for t in TARGETS}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
