"""The grouplattice benchmark: run one workload with a seed, check every
output against the references and print the metrics.

    python3 perfbench/run.py --workload sweep64 --seed 1 --seconds 20 --trace 0

Run it from the repository root. The load is a closed loop with one
client: each op is one child process, run one after another. A pass runs
every op of the workload once, in an order shuffled by the seed; passes
repeat until --seconds have elapsed, and a run with --trace 0 holds at
least MIN_PASSES of them. With --trace 0 the ops run through
the CLI entry point and the end-to-end metrics are printed. With --trace 1
every pass is an untraced pass followed by a traced one, in which each op
runs through traced_op.py, and the per-layer metrics are printed. The
last line of stdout is the JSON result.

An untraced pass times reference_kernel.py, a fixed load that does not
use grouplattice, before its first op and after every op. Each op's time
is scaled by REFERENCE_S over the mean of the kernel times just before
and just after it: it reads as seconds on a machine on which the kernel
takes REFERENCE_S, so a change of machine speed between ops or runs
cancels. setup_s is scaled in the same way by the kernel runs just
before and just after its imports. The unscaled times are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
from harness import Op, Outcome

SETUP_RUNS = 7
MIN_PASSES = 2  # untraced passes, so that each op's time is a median
REFERENCE_S = 0.25  # the kernel's typical time on the machine the bounds were set on
RUN_BUDGET_S = 165.0
WORK_DIR = ".perfbench_work"  # inputs, outputs and spans of the running ops

PER_LAYER = {
    "lattice.all_subgroups.s": "s",
    "lattice.all_subgroups.calls": "count",
    "lattice.all_subgroups.failed": "count",
    "lattice.all_subgroups.max_s": "s",
    "lattice.subgroups": "count",
    "lattice.edges": "count",
    "lattice.queries.s": "s",
    "core.read_group.s": "s",
    "core.read_group.calls": "count",
    "core.invariants.s": "s",
    "families.catalog.s": "s",
    "families.catalog.entries": "count",
    "classify.verify.s": "s",
    "classify.undecided": "count",
    "bounds.s": "s",
    "bounds.reports": "count",
    "bounds.candidate_orders.s": "s",
    "bounds.lemma_2_3_scan.s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}
# span name -> metric holding its self time
SPAN_METRICS = {
    "lattice.all_subgroups": "lattice.all_subgroups.s",
    "lattice.queries": "lattice.queries.s",
    "core.read_group": "core.read_group.s",
    "core.invariants": "core.invariants.s",
    "families.catalog": "families.catalog.s",
    "classify.verify": "classify.verify.s",
    "bounds": "bounds.s",
    "bounds.candidate_orders": "bounds.candidate_orders.s",
    "bounds.lemma_2_3_scan": "bounds.lemma_2_3_scan.s",
}


class Run:
    """One benchmark run: the ops, their outcomes and failures."""

    def __init__(self, ops: list[Op], seed: int, root: Path, work_dir: Path):
        self.ops = ops
        self.rng = random.Random(seed)
        self.env = harness.child_env(root)
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.wrong_outputs = 0
        self.reference_s: list[float] = []

    def budget(self) -> float:
        return min(harness.OP_BUDGET_S, self.deadline - time.monotonic())

    def run_op(self, op: Op, traced: bool) -> tuple[Outcome, dict]:
        spans_file = self.work_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(harness.BENCH_DIR / "traced_op.py"), str(spans_file), op.id, *op.args]
        else:
            argv = harness.cli_argv(op)
        spans_file.unlink(missing_ok=True)
        budget = self.budget()
        if budget <= 0:
            outcome = Outcome(0.0, None, b"", "run budget spent before the op started", 0.0)
        else:
            outcome = harness.run_child(argv, self.env, self.work_dir, budget)
        trace = json.loads(spans_file.read_text()) if traced and spans_file.exists() else {"spans": [], "counters": {}}
        return outcome, trace

    def time_reference(self) -> float:
        argv = [sys.executable, str(harness.BENCH_DIR / "reference_kernel.py")]
        outcome = harness.run_child(argv, self.env, self.work_dir)
        if outcome.exit_code != 0:
            raise SystemExit(f"the reference kernel failed:\n{outcome.stderr}")
        self.reference_s.append(outcome.wall_s)
        return outcome.wall_s

    def run_pass(self, traced: bool) -> tuple[float, list[tuple[Op, Outcome, dict, float]]]:
        """Run every op once. Each result carries the op's time scaled by
        the kernel runs around it (its wall time in a traced pass, which
        runs no kernel); the pass wall time leaves out the kernel."""
        order = self.ops[:]
        self.rng.shuffle(order)
        results, wall = [], 0.0
        before = None if traced else self.time_reference()
        for op in order:
            start = time.perf_counter()
            outcome, trace = self.run_op(op, traced)
            wall += time.perf_counter() - start
            scaled = outcome.wall_s
            if not traced:
                after = self.time_reference()
                scaled *= 2 * REFERENCE_S / (before + after)
                before = after
            results.append((op, outcome, trace, scaled))
        for op, outcome, _, _ in results:
            self.attempted += 1
            failure = harness.check(op, outcome)
            if failure is not None:
                self.failed += 1
                self.wrong_outputs += failure.wrong_output
                mode = "traced" if traced else "cli"
                print(f"failed op [{mode}] {op.id}: {failure.reason} ({outcome.wall_s:.2f} s)")
        return wall, results


# Printed by a child with the children's environment, so the BLAS thread
# count is the one the ops run with.
PROBE = """
import ctypes, json, pathlib, platform, numpy
threads = "unknown: no bundled OpenBLAS found"
for lib in sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
    handle = ctypes.CDLL(str(lib))
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas_threads": threads}))
"""


def machine_facts(run: Run) -> dict:
    outcome = harness.run_child([sys.executable, "-c", PROBE], run.env, run.work_dir)
    facts = json.loads(outcome.stdout) if outcome.exit_code == 0 else {"probe_failed": outcome.stderr}
    facts.update(
        nproc=os.cpu_count(),
        mem_total_mb=os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        child_memory_limit_mb=harness.CHILD_MEMORY_BYTES // 2**20,
    )
    return facts


def measure_setup(run: Run) -> tuple[list[float], float]:
    """Wall times of children that only import grouplattice, after one
    untimed import that fills the bytecode cache, and their scale:
    REFERENCE_S over the mean of the kernel times just before and just
    after them."""
    argv = [sys.executable, "-c", "import grouplattice"]
    times, kernel = [], []
    for i in range(SETUP_RUNS + 1):
        if i == 1:
            kernel.append(run.time_reference())
        outcome = harness.run_child(argv, run.env, run.work_dir, run.budget())
        if outcome.exit_code != 0:
            raise SystemExit(f"importing grouplattice failed:\n{outcome.stderr}")
        if i:
            times.append(outcome.wall_s)
    kernel.append(run.time_reference())
    return times, 2 * REFERENCE_S / sum(kernel)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive of the sample's ends."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[float], passes: list[tuple[float, list]], setup_scale: float, scaled: bool) -> tuple[dict, dict]:
    """The end-to-end metrics: op times scaled by their kernel runs or
    not, and the set-up time multiplied by setup_scale. The op
    percentiles are taken over each op's median time across the passes."""
    per_op = defaultdict(list)
    pass_times = []
    for _, results in passes:
        times = [(op.id, t if scaled else outcome.wall_s) for op, outcome, _, t in results]
        for op_id, t in times:
            per_op[op_id].append(t)
        pass_times.append(sum(t for _, t in times))
    ops = [statistics.median(times) for times in per_op.values()]
    peaks = [max(outcome.max_rss_mb for _, outcome, _, _ in results) for _, results in passes]
    metrics = {
        "setup_s": (setup_scale * statistics.median(setup), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "op_s.p50": (quantile(ops, 50), "s"),
        "op_s.p90": (quantile(ops, 90), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    n_ops = sum(map(len, per_op.values()))
    samples = {"setup_s": len(setup), "pass_s": len(passes), "op_s.p50": n_ops, "op_s.p90": n_ops, "peak_rss_mb": len(peaks)}
    return metrics, samples


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_layer(traced: list[tuple[float, list]], untraced: list[float]) -> tuple[dict, dict]:
    """Per-layer totals of each traced pass, as medians over the passes."""
    per_pass = []
    for _, results in traced:
        m: dict[str, float] = defaultdict(float)
        for _, outcome, trace, _ in results:
            spans = trace["spans"]
            for span, own in zip(spans, self_times(spans)):
                m[SPAN_METRICS[span["name"]]] += own
                if span["name"] == "lattice.all_subgroups":
                    m["lattice.all_subgroups.calls"] += 1
                    m["lattice.all_subgroups.failed"] += not span["ok"]
                    m["lattice.all_subgroups.max_s"] = max(m["lattice.all_subgroups.max_s"], span["end"] - span["start"])
            for name, n in trace["counters"].items():
                m[name] += n
            roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
            m["cli.stdout_bytes"] += len(outcome.stdout)
            m["cli.other_s"] += outcome.wall_s - roots
        per_pass.append(m)
    metrics = {}
    for name, unit in PER_LAYER.items():
        value = statistics.median(m[name] for m in per_pass)
        metrics[name] = (value if unit == "s" else round(value), unit)
    overhead = statistics.median(wall for wall, _ in traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {name: len(per_pass) for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its running child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "grouplattice" / "__init__.py").is_file():
        print(f"no grouplattice sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    work_dir = root / WORK_DIR / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        return measure(args, root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()


def measure(args, root: Path, work_dir: Path) -> int:
    setup_start = time.perf_counter()
    ops = harness.build_ops(args.workload, args.seed, work_dir, harness.load_references())
    run = Run(ops, args.seed, root, work_dir)
    print("machine", json.dumps(machine_facts(run)))
    setup, setup_scale = measure_setup(run)
    print(f"workload {args.workload} seed {args.seed} ops {len(ops)} set-up {time.perf_counter() - setup_start:.2f} s")

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run.run_pass(traced=False))
        if args.trace:
            traced.append(run.run_pass(traced=True))
        enough = args.trace or len(untraced) >= MIN_PASSES
        if (enough and time.perf_counter() - start >= args.seconds) or run.budget() <= 0:
            break

    reference = statistics.median(run.reference_s)
    print(f"reference kernel median {reference:.4f} s (samples {len(run.reference_s)}), set-up time scale {setup_scale:.4f}")
    if args.trace:
        metrics, samples = per_layer(traced, [wall for wall, _ in untraced])
    else:
        for name, (value, unit) in end_to_end(setup, untraced, 1.0, scaled=False)[0].items():
            print(f"unscaled {name} {value:.6g} {unit}")
        metrics, samples = end_to_end(setup, untraced, setup_scale, scaled=True)
    for label, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            print(f"{label} passes (s): " + " ".join(f"{wall:.3f}" for wall, _ in passes))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} (samples {samples[name]})")
    print(f"fail_ratio {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    result = {
        "correct": run.wrong_outputs == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
