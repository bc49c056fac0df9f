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
from typing import Optional, Sequence

from .arith import factorize
from .bounds import (
    BoundReport,
    candidate_orders,
    cww_b,
    edge_bound,
    herzog_manz_c,
    lemma_2_1,
    lemma_2_3_scan,
    newton_d,
    newton_e,
    wall_a,
)
from .classify import (
    lattice_sweep,
    verify_corollary_1_2,
    verify_corollary_1_3,
    verify_theorem_1_1,
    verify_theorem_A,
    verify_wall,
)
from .core import dumps_group, read_group
from .errors import CheckFailed, GroupError, GroupTooLarge, InputError, UsageError
from .families import (
    abelian,
    alternating,
    catalog,
    cyclic,
    dicyclic,
    dihedral,
    elementary_abelian,
    generalized_dihedral,
    heisenberg,
    symmetric,
    wall_H,
    wall_S,
    wall_T,
)
from .lattice import DEFAULT_LATTICE_CAP, all_subgroups

VERIFY_TARGETS = (
    "theorem-1.1",
    "theorem-a",
    "wall",
    "cor-1.2",
    "cor-1.3",
    "bounds",
    "lemma21",
    "lemma23",
    "orders",
)


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
    "abelian": (1, None, abelian),
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
    try:
        g = build(args.params)
    except GroupError as exc:
        raise UsageError(str(exc)) from exc
    _emit(dumps_group(g), args.output)
    return 0


def _run_catalog(args) -> int:
    if not args.list_entries:
        raise UsageError("catalog requires --list")
    lines = []
    for entry in catalog(args.max_order):
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


def _report_json(report) -> str:
    payload = {
        "theorem": report.theorem,
        "groups_checked": report.groups_checked,
        "counterexamples": [list(c) for c in report.counterexamples],
        "notes": list(report.notes),
        "passed": report.passed,
    }
    return json.dumps(payload, indent=2) + "\n"


def _bound_line(group_name: str, order: int, report: BoundReport, **extra) -> str:
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


def _emit_lines(lines: list[str], output: Optional[str]) -> None:
    """One JSON record a line; no records print nothing. One join, with no
    copy of each line or of the joined text."""
    _emit("\n".join([*lines, ""]), output)


def _run_verify(args) -> int:
    target = args.target
    max_order = args.max_order
    if max_order is None:
        max_order = 10000 if target == "orders" else 24
    if max_order < 1:
        raise UsageError(f"max_order must be >= 1, got {max_order}")
    needs_lattice = target in ("theorem-1.1", "cor-1.2", "cor-1.3", "bounds", "lemma21")
    if needs_lattice and max_order > DEFAULT_LATTICE_CAP:
        raise UsageError(f"--max-order {max_order} exceeds the lattice cap {DEFAULT_LATTICE_CAP}")

    # built per call from the module attributes, which the benchmark's
    # traced mode (perfbench/traced_op.py) replaces with wrappers
    verify = {
        "theorem-1.1": verify_theorem_1_1,
        "theorem-a": verify_theorem_A,
        "wall": verify_wall,
        "cor-1.2": verify_corollary_1_2,
        "cor-1.3": verify_corollary_1_3,
    }.get(target)
    if verify is not None:
        report = verify(catalog(max_order), max_order)
        _emit(_report_json(report), args.output)
        return 0 if report.passed else 1

    if target in ("bounds", "lemma21"):
        lines = []
        ok = True
        for entry, lattice in lattice_sweep(catalog(max_order), max_order):
            g = entry.group
            if isinstance(lattice, GroupTooLarge):
                ok = False
                payload = {"group": entry.name, "order": g.order, "undecided": str(lattice)}
                lines.append(json.dumps(payload, separators=(",", ":")))
            elif target == "bounds":
                reports = [wall_a(lattice), cww_b(lattice), herzog_manz_c(lattice)]
                for p in sorted(factorize(g.order)):
                    reports.extend(newton_d(lattice, p))
                reports.append(newton_e(lattice))
                reports.append(edge_bound(lattice))
                for rep in reports:
                    ok = ok and rep.holds
                    lines.append(_bound_line(entry.name, g.order, rep))
            else:
                # the report is invariant under automorphisms (lattice module
                # docstring): one call and one line per orbit
                line_of: dict[int, str] = {}
                for h, orbit in zip(lattice.subgroups, lattice.vertex_orbit):
                    line = line_of.get(orbit)
                    if line is None:
                        rep = lemma_2_1(lattice, h)
                        ok = ok and rep.holds and rep.equality == rep.equality_condition
                        line = line_of[orbit] = _bound_line(entry.name, g.order, rep, subgroup_order=h.order)
                    lines.append(line)
        _emit_lines(lines, args.output)
        return 0 if ok else 1

    if target == "lemma23":
        if args.prime_bound < 5 or args.exp_bound < 1:
            raise UsageError("lemma23 needs --prime-bound >= 5 and --exp-bound >= 1")
        lines = []
        ok = True
        for rep in lemma_2_3_scan(args.prime_bound, args.exp_bound):
            ok = ok and rep.holds
            lines.append(_bound_line("-", 0, rep))
        _emit_lines(lines, args.output)
        return 0 if ok else 1

    # orders: divisor analysis scan, no groups involved
    violations = []
    small_checked = 0
    for n in range(1, 12):
        if not candidate_orders(n).small_case:
            violations.append([n, "expected small-case branch"])
        small_checked += 1
    for n in range(12, max_order + 1):
        try:
            result = candidate_orders(n)
        except CheckFailed as exc:
            violations.append([n, str(exc)])
            continue
        if result.small_case:
            violations.append([n, "unexpected small-case branch"])
    payload = {
        "target": "orders",
        "small_case_range": [1, 11],
        "scanned_range": [12, max_order],
        "violations": violations,
        "passed": not violations,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0 if not violations else 1


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
