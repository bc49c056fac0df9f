"""Record the stdout digests that tests/test_golden.py compares against.

Runs every `verify` target in process through `grouplattice.cli.main` at
`--max-order 64` (lemma23 at its default bounds), and `lattice` (JSON and
dot) and `degrees` on six non-abelian groups written to a temporary group
file, and writes the sha256 of each stdout with its exit code to
tests/golden_stdout.json. Record from a commit whose output is known good,
before a refactor:

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).with_name("golden_stdout.json")
TARGETS = ("theorem-1.1", "theorem-a", "wall", "cor-1.2", "cor-1.3", "bounds", "lemma21", "lemma23", "orders")
GROUPS = ("S5", "A5", "S4xS3", "T(2)", "D8xD8", "S3xD8")
GROUP_COMMANDS = (("lattice",), ("lattice", "--format", "dot"), ("degrees",))


def argv_for(target: str) -> list[str]:
    return ["verify", target] if target == "lemma23" else ["verify", target, "--max-order", "64"]


def group_key(name: str, command: tuple[str, ...]) -> str:
    return " ".join((command[0], name, *command[1:]))


@functools.lru_cache(maxsize=None)
def group_text(name: str) -> str:
    import grouplattice as gl

    build = {
        "S5": lambda: gl.symmetric(5),
        "A5": lambda: gl.alternating(5),
        "S4xS3": lambda: gl.direct_product(gl.symmetric(4), gl.symmetric(3)),
        "T(2)": lambda: gl.wall_T(2),
        "D8xD8": lambda: gl.direct_product(gl.dihedral(4), gl.dihedral(4)),
        "S3xD8": lambda: gl.direct_product(gl.symmetric(3), gl.dihedral(4)),
    }[name]
    return gl.dumps_group(build())


def run(argv: list[str]) -> dict:
    from grouplattice.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


def run_on_group(name: str, command: tuple[str, ...]) -> dict:
    """Run `command` on the named group, written to a temporary group file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "group.json"
        path.write_text(group_text(name))
        return run([command[0], str(path), *command[1:]])


def record() -> dict:
    golden = {" ".join(argv_for(t)): run(argv_for(t)) for t in TARGETS}
    for name in GROUPS:
        for command in GROUP_COMMANDS:
            golden[group_key(name, command)] = run_on_group(name, command)
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
