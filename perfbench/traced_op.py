"""Traced CLI op: `traced_op.py SPANS_FILE OP_ID <cli args>`.

It wraps, with spans, the public names that `grouplattice.cli` and
`grouplattice.classify` call into the layers, the `SubgroupLattice`
queries and the first evaluation of the element invariants, and then runs
`grouplattice.cli.main(<cli args>)`. So it makes exactly the calls the
CLI op makes, prints the same bytes and exits with the same code. A span
holds name, start, end, parent, op id and whether the call returned.
Spans and counters stay in memory and are written to SPANS_FILE when the
op ends, also when it ends in an exception.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

import grouplattice.classify
import grouplattice.cli
from grouplattice.core import FiniteGroup
from grouplattice.lattice import SubgroupLattice


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None, "op": self.op_id, "ok": True}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        except BaseException:
            record["ok"] = False
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def traced(self, span: str, fn, counters=None):
        """fn wrapped in a span; counters(result) gives the counts to add."""

        @wraps(fn)
        def call(*args, **kwargs):
            with self.span(span):
                result = fn(*args, **kwargs)
            for name, n in (counters(result) if counters else {}).items():
                self.count(name, n)
            return result

        return call

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def report_count(result) -> dict:
    return {"bounds.reports": len(result) if isinstance(result, list) else 1}


def undecided_count(report) -> dict:
    return {"classify.undecided": sum(1 for _, why in report.counterexamples if why.startswith("undecided"))}


def install(tracer: Tracer) -> None:
    """Replace the traced names in the modules that call them."""
    cli, classify = grouplattice.cli, grouplattice.classify
    all_subgroups = tracer.traced(
        "lattice.all_subgroups",
        cli.all_subgroups,
        lambda lattice: {"lattice.subgroups": len(lattice), "lattice.edges": lattice.edge_count},
    )
    cli.all_subgroups = classify.all_subgroups = all_subgroups
    cli.catalog = tracer.traced("families.catalog", cli.catalog, lambda es: {"families.catalog.entries": len(es)})
    cli.read_group = tracer.traced("core.read_group", cli.read_group, lambda _: {"core.read_group.calls": 1})
    for name in ("verify_theorem_1_1", "verify_theorem_A", "verify_wall", "verify_corollary_1_2", "verify_corollary_1_3"):
        setattr(cli, name, tracer.traced("classify.verify", getattr(cli, name), undecided_count))
    for name in ("wall_a", "cww_b", "herzog_manz_c", "newton_d", "newton_e", "edge_bound", "lemma_2_1"):
        setattr(cli, name, tracer.traced("bounds", getattr(cli, name), report_count))
    cli.candidate_orders = tracer.traced("bounds.candidate_orders", cli.candidate_orders)
    cli.lemma_2_3_scan = tracer.traced("bounds.lemma_2_3_scan", cli.lemma_2_3_scan, report_count)

    for name in ("report", "degree_profile", "maximal_subgroups", "frattini"):
        setattr(SubgroupLattice, name, tracer.traced("lattice.queries", getattr(SubgroupLattice, name)))
    # a cached_property calls its func only on the first evaluation
    for name in ("element_orders", "delta", "exponent", "is_solvable"):
        prop = FiniteGroup.__dict__[name]
        prop.func = tracer.traced("core.invariants", prop.func)


def main(argv: list[str]) -> int:
    spans_path, op_id, args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op_id)
    install(tracer)
    try:
        return grouplattice.cli.main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
