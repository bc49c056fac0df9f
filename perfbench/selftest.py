"""Self-test of the benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

It shows that a corrupted reference digest counts as a failed op, that a
child over a tiny memory limit or past its time budget counts as a failed
op instead of crashing the benchmark, that a relabelled group's lattice
report equals the unrelabelled one, and that the closed-form reports
agree with the recorded references. Exits 1 if any check does not hold.

It also runs C2^7, which is left out of lattice-big because the program
fails on it: its k x k cover matrix asks for 3.2 GiB. That failure is
expected, and is run under a 2 GiB limit so that it fails before filling
gigabytes. Once C2^7 builds, its report is checked against the closed
form, and it belongs back in lattice-big.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import groups
import harness

failures = []


def expect(name: str, holds: bool, detail: str = "") -> None:
    print(("ok  " if holds else "FAIL") + f" {name}" + (f": {detail}" if detail and not holds else ""))
    if not holds:
        failures.append(name)


def main() -> int:
    root = Path.cwd()
    env = harness.child_env(root)
    refs = harness.load_references()
    work_dir = root / ".perfbench_work" / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        orders = next(op for op in harness.build_ops("lattice-free", 0, work_dir, refs) if "orders" in op.args)
        outcome = harness.run_child(harness.cli_argv(orders), env, work_dir)
        expect("reference op passes its check", harness.check(orders, outcome) is None)
        corrupted = replace(orders, expected={**orders.expected, "stdout_sha256": "0" * 64})
        failure = harness.check(corrupted, outcome)
        expect("corrupted digest is a failed op", failure is not None and failure.wrong_output, str(failure))

        outcome = harness.run_child(harness.cli_argv(orders), env, work_dir, memory_bytes=64 << 20)
        failure = harness.check(orders, outcome)
        expect("64 MiB memory limit is a failed op", failure is not None and not failure.wrong_output, str(failure))
        outcome = harness.run_child(harness.cli_argv(orders), env, work_dir, budget_s=0.01)
        failure = harness.check(orders, outcome)
        expect("time budget is a failed op", failure is not None and failure.reason == "time budget", str(failure))

        reports = []
        table = groups.LATTICE_BIG["S5"]()
        for i, t in enumerate((table, groups.relabel(table, random.Random(5)))):
            path = work_dir / f"s5-{i}.json"
            harness.write_group(path, "S5", t)
            outcome = harness.run_child(harness.cli_argv(harness.Op("", ["lattice", str(path)], {})), env, work_dir)
            reports.append(json.loads(outcome.stdout) if outcome.exit_code == 0 else outcome.stderr)
        expect("relabelled S5 report equals the unrelabelled one", reports[0] == reports[1], str(reports))

        for name in ("C2^6", "C3^4"):
            closed = harness.expected_lattice_report(name, refs)
            expect(f"closed form of {name} equals the recorded report", closed == refs["groups"][name]["report"])
        c2_7 = harness.Op("lattice C2^7", ["lattice", str(work_dir / "c2_7.json")],
                          {"exit_code": 0, "report": harness.expected_lattice_report("C2^7", refs)})
        report = c2_7.expected["report"]
        expect("closed form of C2^7 has 29,212 subgroups and 358,775 edges",
               (report["subgroup_count"], report["edge_count"]) == (29212, 358775))
        harness.write_group(work_dir / "c2_7.json", "C2^7", groups.elementary_abelian(2, 7))
        outcome = harness.run_child(harness.cli_argv(c2_7), env, work_dir, memory_bytes=2 << 30)
        failure = harness.check(c2_7, outcome)
        if failure is None:
            print("XPASS C2^7 now builds and matches its closed form: add it back to lattice-big")
        else:
            expect("C2^7 still fails only on a limit (known failure)", not failure.wrong_output, failure.reason)
            print(f"     C2^7: {failure.reason} after {outcome.wall_s:.1f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
