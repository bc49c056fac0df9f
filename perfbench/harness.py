"""Workload definitions, the child-process runner and the output checks.

Every op runs in its own child process under an address-space limit and
a wall-clock budget, so an op that exhausts memory or hangs is counted as
a failed op and the benchmark keeps going.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import groups

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

# Address-space limit of every child; no op of the workloads comes near it.
CHILD_MEMORY_BYTES = 4 << 30
OP_BUDGET_S = 60.0

SWEEP64 = [
    ["verify", target, "--max-order", "64"]
    for target in ("theorem-1.1", "cor-1.2", "cor-1.3", "bounds", "lemma21")
]
LATTICE_FREE = [
    ["verify", "theorem-a", "--max-order", "256"],
    ["verify", "wall", "--max-order", "256"],
    ["catalog", "--list", "--max-order", "256"],
    ["verify", "orders", "--max-order", "10000"],
    ["verify", "lemma23", "--prime-bound", "31", "--exp-bound", "4"],
]
WORKLOADS = ("sweep64", "lattice-big", "lattice-free")

# the groups whose lattice report has a closed form: name -> (p, n)
ELEMENTARY_ABELIAN = {"C2^6": (2, 6), "C2^7": (2, 7), "C3^4": (3, 4)}


@dataclass
class Op:
    id: str
    args: list[str]  # arguments of `python -m grouplattice.cli`
    expected: dict


@dataclass
class Outcome:
    wall_s: float
    exit_code: Optional[int]  # None when the budget killed the child
    stdout: bytes
    stderr: str
    max_rss_mb: float


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def write_group(path: Path, name: str, table: groups.Table) -> None:
    payload = {"name": name, "order": len(table), "table": table}
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="ascii")


def expected_lattice_report(name: str, refs: dict) -> dict:
    if name in ELEMENTARY_ABELIAN:
        return {"group": name, **groups.elementary_abelian_report(*ELEMENTARY_ABELIAN[name])}
    return refs["groups"][name]["report"]


def build_ops(workload: str, seed: int, work_dir: Path, refs: dict) -> list[Op]:
    """The ops of one workload. For lattice-big this writes one
    seed-relabelled copy of every group table into work_dir."""
    if workload == "lattice-big":
        rng = random.Random(seed)
        ops = []
        for i, (name, build) in enumerate(groups.LATTICE_BIG.items()):
            path = work_dir / f"group{i:02d}.json"
            write_group(path, name, groups.relabel(build(), rng))
            expected = {"exit_code": 0, "report": expected_lattice_report(name, refs)}
            digest = refs["groups"].get(name, {}).get("stdout_sha256")
            if digest:
                expected["stdout_sha256"] = digest
            ops.append(Op(f"lattice {name}", ["lattice", str(path)], expected))
        return ops
    argvs = {"sweep64": SWEEP64, "lattice-free": LATTICE_FREE}[workload]
    return [Op(" ".join(a), a, refs["ops"][" ".join(a)]) for a in argvs]


def child_env(root: Path) -> dict:
    """The environment of every child: the sources under root first on the
    path, and one BLAS thread, so that an op keeps to one core and no
    idle BLAS thread spins on the other."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(
    argv: list[str],
    env: dict,
    work_dir: Path,
    budget_s: float = OP_BUDGET_S,
    memory_bytes: int = CHILD_MEMORY_BYTES,
) -> Outcome:
    """Run argv to completion or to its budget, with RLIMIT_AS set in the
    child only; peak RSS comes from the child's own rusage."""

    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    out_path, err_path = work_dir / "stdout", work_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, preexec_fn=limit_memory
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished, _, _ = select.select([pidfd], [], [], budget_s)
            if not finished:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        exit_code=proc.returncode if finished else None,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        max_rss_mb=usage.ru_maxrss / 1024,
    )


def cli_argv(op: Op) -> list[str]:
    return [sys.executable, "-m", "grouplattice.cli", *op.args]


@dataclass
class Failure:
    reason: str
    wrong_output: bool  # False when the op hit a limit or crashed


def check(op: Op, outcome: Outcome) -> Optional[Failure]:
    """Why the op failed, or None if it exited as the references say and
    its output matches them."""
    if outcome.exit_code is None:
        return Failure("time budget", False)
    if "MemoryError" in outcome.stderr:
        return Failure("memory limit", False)
    if "Traceback" in outcome.stderr:
        return Failure("traceback: " + outcome.stderr.strip().splitlines()[-1], False)
    wrong = wrong_output(op.expected, outcome)
    return Failure(wrong, True) if wrong else None


def wrong_output(ref: dict, outcome: Outcome) -> Optional[str]:
    if outcome.exit_code != ref["exit_code"]:
        return f"exit code {outcome.exit_code}, expected {ref['exit_code']}"
    if "verdict" in ref or "report" in ref:
        try:
            payload = json.loads(outcome.stdout)
        except ValueError:
            return "stdout is not JSON"
        if "verdict" in ref and verdict(payload) != ref["verdict"]:
            return f"verdict {verdict(payload)}, expected {ref['verdict']}"
        got = lattice_fields(payload)
        for key, want in ref.get("report", {}).items():
            if got.get(key) != want:
                return f"report field {key}: {got.get(key)!r}, expected {want!r}"
    digest = ref.get("stdout_sha256")
    if digest and hashlib.sha256(outcome.stdout).hexdigest() != digest:
        return "stdout digest differs from the reference"
    return None


def verdict(payload: dict) -> dict:
    """The fields of a verification report that decide it."""
    return {
        "groups_checked": payload.get("groups_checked"),
        "counterexamples": [c[0] for c in payload.get("counterexamples", [])],
        "passed": payload.get("passed"),
    }


def lattice_fields(report: dict) -> dict:
    """A lattice report with its degree sequence as multiplicities."""
    fields = dict(report)
    if isinstance(fields.get("degree_sequence"), list):
        fields["degree_sequence"] = groups.degree_counts(fields["degree_sequence"])
    return fields
