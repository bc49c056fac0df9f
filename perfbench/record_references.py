"""Record the reference outputs that every benchmark run is checked against.

The references describe the program at the version that introduced the
benchmark and must not be re-recorded to make a later version pass. Run
from the repository root:

    python3 perfbench/record_references.py > perfbench/references.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import groups
import harness

VERIFY_REPORT_TARGETS = {"theorem-1.1", "theorem-a", "wall", "cor-1.2", "cor-1.3"}


def record(args: list[str], env: dict, work_dir: Path) -> tuple[dict, bytes]:
    outcome = harness.run_child(harness.cli_argv(harness.Op("", args, {})), env, work_dir)
    if outcome.exit_code not in (0, 1) or "Traceback" in outcome.stderr:
        sys.exit(f"{' '.join(args)}: exit {outcome.exit_code}\n{outcome.stderr}")
    entry = {"exit_code": outcome.exit_code, "stdout_sha256": hashlib.sha256(outcome.stdout).hexdigest()}
    return entry, outcome.stdout


def main() -> None:
    root = Path.cwd()
    env = harness.child_env(root)
    refs: dict = {"ops": {}, "groups": {}}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        work_dir = Path(tmp)
        for args in harness.SWEEP64 + harness.LATTICE_FREE:
            entry, stdout = record(args, env, work_dir)
            if args[0] == "verify" and args[1] in VERIFY_REPORT_TARGETS:
                entry["verdict"] = harness.verdict(json.loads(stdout))
            refs["ops"][" ".join(args)] = entry
        for name, build in groups.LATTICE_BIG.items():
            path = work_dir / "group.json"
            harness.write_group(path, name, build())
            entry, stdout = record(["lattice", str(path)], env, work_dir)
            entry["report"] = harness.lattice_fields(json.loads(stdout))
            refs["groups"][name] = entry
    json.dump(refs, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
