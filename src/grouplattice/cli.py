"""Command-line front end.

Subcommands: construct, catalog, lattice, degrees, verify. Exit codes:
0 success or verification pass, 1 verification counterexample, 2 usage
or input error. Output is deterministic; identical invocations produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from typing import Optional, Sequence

from . import _EXPORTS, _HOME
from .arith import factorize
from .core import dumps_group, read_group
from .errors import CheckFailed, GroupError, GroupTooLarge, InputError, UsageError
from .lattice import DEFAULT_LATTICE_CAP, all_subgroups

# The layers that lattice and degrees do not run (bounds, classify,
# families) are imported on first use. A handler binds the names a layer
# gives the package (grouplattice._EXPORTS) with _load_layers, and reading
# one as a module attribute binds its layer's; either way a name already
# bound is kept, so a caller may replace one before first use
# (perfbench/traced_op.py and the tests do).


def _load_layers(*layers: str) -> None:
    scope = globals()
    for layer in layers:
        module = import_module(f".{layer}", __package__)
        for name in _EXPORTS[layer]:
            scope.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_layers(layer)
    return globals()[name]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplattice",
        description="Construct finite groups, build subgroup graphs, verify degree bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a group and write its table")
    p_construct.add_argument("family")
    p_construct.add_argument("params", nargs="*", type=int)
    p_construct.add_argument("-o", "--output")

    p_catalog = sub.add_parser("catalog", help="list the built-in catalog")
    p_catalog.add_argument("--list", action="store_true", dest="list_entries")
    p_catalog.add_argument("--max-order", type=int, default=24)
    p_catalog.add_argument("-o", "--output")

    p_lattice = sub.add_parser("lattice", help="subgroup graph of a group file")
    p_lattice.add_argument("file")
    p_lattice.add_argument("--format", choices=("json", "dot"), default="json")
    p_lattice.add_argument("-o", "--output")

    p_degrees = sub.add_parser("degrees", help="per-vertex degrees of a group file")
    p_degrees.add_argument("file")
    p_degrees.add_argument("-o", "--output")

    p_verify = sub.add_parser("verify", help="run a theorem or bound verifier")
    p_verify.add_argument("target", choices=VERIFY_TARGETS)
    p_verify.add_argument("--max-order", type=int, default=None)
    p_verify.add_argument("--prime-bound", type=int, default=31)
    p_verify.add_argument("--exp-bound", type=int, default=4)
    p_verify.add_argument("-o", "--output")
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


_CONSTRUCTORS = {
    "cyclic": (1, 1, lambda p: cyclic(p[0])),
    "abelian": (1, None, lambda p: abelian(p)),
    "elementary-abelian": (2, 2, lambda p: elementary_abelian(p[0], p[1])),
    "dihedral": (1, 1, lambda p: dihedral(p[0])),
    "dicyclic": (1, 1, lambda p: dicyclic(p[0])),
    "generalized-dihedral": (1, None, lambda p: generalized_dihedral(abelian(p))),
    "wall-h": (1, 1, lambda p: wall_H(p[0])),
    "wall-s": (1, 1, lambda p: wall_S(p[0])),
    "wall-t": (1, 1, lambda p: wall_T(p[0])),
    "heisenberg": (1, 1, lambda p: heisenberg(p[0])),
    "symmetric": (1, 1, lambda p: symmetric(p[0])),
    "alternating": (1, 1, lambda p: alternating(p[0])),
}


def _run_construct(args) -> int:
    entry = _CONSTRUCTORS.get(args.family)
    if entry is None:
        known = ", ".join(sorted(_CONSTRUCTORS))
        raise UsageError(f"unknown family {args.family!r}; known: {known}")
    lo, hi, build = entry
    count = len(args.params)
    if count < lo or (hi is not None and count > hi):
        expected = f"{lo}" if hi == lo else (f">={lo}" if hi is None else f"{lo}..{hi}")
        raise UsageError(f"family {args.family!r} takes {expected} parameters, got {count}")
    _load_layers("families")
    try:
        g = build(args.params)
    except GroupError as exc:
        raise UsageError(str(exc)) from exc
    _emit(dumps_group(g), args.output)
    return 0


def _checked_max_order(max_order: int) -> int:
    if max_order < 1:
        raise UsageError(f"max_order must be >= 1, got {max_order}")
    return max_order


def _run_catalog(args) -> int:
    if not args.list_entries:
        raise UsageError("catalog requires --list")
    max_order = _checked_max_order(args.max_order)
    _load_layers("families")
    lines = []
    for entry in catalog(max_order):
        tags = ",".join(sorted(entry.known_tags)) or "-"
        lines.append(f"{entry.name} order={entry.group.order} tags={tags}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _load_group(path: str):
    try:
        return read_group(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except GroupError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _run_lattice(args) -> int:
    lattice = all_subgroups(_load_group(args.file))
    if args.format == "dot":
        _emit(lattice.export_dot(), args.output)
    else:
        _emit(json.dumps(lattice.report(), indent=2) + "\n", args.output)
    return 0


def _run_degrees(args) -> int:
    g = _load_group(args.file)
    lattice = all_subgroups(g)
    profile = lattice.degree_profile()
    vertices = [
        {"order": s.order, "degree": d, "down": lo, "up": hi}
        for s, d, lo, hi in zip(lattice.subgroups, profile.degrees, profile.down, profile.up)
    ]
    payload = {
        "group": g.name,
        "order": g.order,
        "vertices": vertices,
        "max_degree": max(profile.degrees),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _report(verify, max_order: int) -> tuple[str, bool]:
    report = verify(catalog(max_order), max_order)
    payload = {
        "theorem": report.theorem,
        "groups_checked": report.groups_checked,
        "counterexamples": [list(c) for c in report.counterexamples],
        "notes": list(report.notes),
        "passed": report.passed,
    }
    return json.dumps(payload, indent=2) + "\n", report.passed


def _bound_line(group_name: str, order: int, report, **extra) -> str:
    payload = {"group": group_name, "order": order}
    payload.update(extra)
    payload.update(
        {
            "bound": report.bound_name,
            "computed": report.computed,
            "limit": str(report.limit),
            "holds": report.holds,
            "equality": report.equality,
            "equality_condition": report.equality_condition,
        }
    )
    return json.dumps(payload, separators=(",", ":"))


def _jsonl(records) -> tuple[str, bool]:
    """One JSON record a line from (line, holds) pairs, and whether every
    record holds; no records print nothing. One join, with no copy of each
    line."""
    lines = []
    ok = True
    for line, holds in records:
        lines.append(line)
        ok = ok and holds
    lines.append("")
    return "\n".join(lines), ok


def _bounds_records(entry, lattice):
    order = entry.group.order
    reports = [wall_a(lattice), cww_b(lattice), herzog_manz_c(lattice)]
    for p in sorted(factorize(order)):
        reports.extend(newton_d(lattice, p))
    reports.append(newton_e(lattice))
    reports.append(edge_bound(lattice))
    for rep in reports:
        yield _bound_line(entry.name, order, rep), rep.holds


def _lemma21_records(entry, lattice):
    # the report is invariant under automorphisms (lattice module
    # docstring): one call and one line per orbit
    record_of: dict[int, tuple[str, bool]] = {}
    for h, orbit in zip(lattice.subgroups, lattice.vertex_orbit):
        record = record_of.get(orbit)
        if record is None:
            rep = lemma_2_1(lattice, h)
            line = _bound_line(entry.name, entry.group.order, rep, subgroup_order=h.order)
            record = record_of[orbit] = line, rep.holds and rep.equality == rep.equality_condition
        yield record


def _sweep(records_of, max_order: int):
    """The records of a per-group bound target: records_of(entry, lattice)
    gives a group's, and a group whose lattice was refused gets one
    undecided line."""
    from .classify import lattice_sweep

    for entry, lattice in lattice_sweep(catalog(max_order), max_order):
        if isinstance(lattice, GroupTooLarge):
            payload = {"group": entry.name, "order": entry.group.order, "undecided": str(lattice)}
            yield json.dumps(payload, separators=(",", ":")), False
        else:
            yield from records_of(entry, lattice)


def _run_lemma23(args, max_order: int) -> tuple[str, bool]:
    if args.prime_bound < 5 or args.exp_bound < 1:
        raise UsageError("lemma23 needs --prime-bound >= 5 and --exp-bound >= 1")
    return _jsonl((_bound_line("-", 0, rep), rep.holds) for rep in lemma_2_3_scan(args.prime_bound, args.exp_bound))


def _run_orders(args, max_order: int) -> tuple[str, bool]:
    # divisor analysis scan, no groups involved
    violations = []
    for n in range(1, 12):
        if not candidate_orders(n).small_case:
            violations.append([n, "expected small-case branch"])
    for n in range(12, max_order + 1):
        try:
            result = candidate_orders(n)
        except CheckFailed as exc:
            violations.append([n, str(exc)])
            continue
        if result.small_case:
            violations.append([n, "unexpected small-case branch"])
    payload = {
        "target": args.target,
        "small_case_range": [1, 11],
        "scanned_range": [12, max_order],
        "violations": violations,
        "passed": not violations,
    }
    return json.dumps(payload, indent=2) + "\n", not violations


# target -> (layers it runs, whether it builds lattices, default --max-order,
# run), where run(args, max_order) gives (text, passed). The lambdas read the
# verifier and bound names when the target runs, so a wrapper bound before
# then (perfbench/traced_op.py) is the one called.
_REPORT_LAYERS = ("classify", "families")
_SWEEP_LAYERS = ("bounds", "classify", "families")
_TARGETS = {
    "theorem-1.1": (_REPORT_LAYERS, True, 24, lambda args, n: _report(verify_theorem_1_1, n)),
    "theorem-a": (_REPORT_LAYERS, False, 24, lambda args, n: _report(verify_theorem_A, n)),
    "wall": (_REPORT_LAYERS, False, 24, lambda args, n: _report(verify_wall, n)),
    "cor-1.2": (_REPORT_LAYERS, True, 24, lambda args, n: _report(verify_corollary_1_2, n)),
    "cor-1.3": (_REPORT_LAYERS, True, 24, lambda args, n: _report(verify_corollary_1_3, n)),
    "bounds": (_SWEEP_LAYERS, True, 24, lambda args, n: _jsonl(_sweep(_bounds_records, n))),
    "lemma21": (_SWEEP_LAYERS, True, 24, lambda args, n: _jsonl(_sweep(_lemma21_records, n))),
    "lemma23": (("bounds",), False, 24, _run_lemma23),
    "orders": (("bounds",), False, 10000, _run_orders),
}
VERIFY_TARGETS = tuple(_TARGETS)


def _run_verify(args) -> int:
    layers, builds_lattices, default_max_order, run = _TARGETS[args.target]
    max_order = _checked_max_order(default_max_order if args.max_order is None else args.max_order)
    if builds_lattices and max_order > DEFAULT_LATTICE_CAP:
        raise UsageError(f"--max-order {max_order} exceeds the lattice cap {DEFAULT_LATTICE_CAP}")
    _load_layers(*layers)
    text, passed = run(args, max_order)
    _emit(text, args.output)
    return 0 if passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "construct":
            return _run_construct(args)
        if args.command == "catalog":
            return _run_catalog(args)
        if args.command == "lattice":
            return _run_lattice(args)
        if args.command == "degrees":
            return _run_degrees(args)
        return _run_verify(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InputError, GroupError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
