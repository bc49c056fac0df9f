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
from contextlib import contextmanager
from importlib import import_module
from itertools import chain, islice, takewhile
from typing import Optional, Sequence

from . import _EXPORTS, _HOME
from .arith import divisor_lists, factorize
from .errors import CheckFailed, GroupError, GroupTooLarge, InputError, UsageError

# verify orders refuses a scan past this --max-order: its divisor sieve
# holds every divisor list, and 10^6 takes about 10 s at 233 MB
ORDERS_MAX_ORDER = 1_000_000

# Each layer past arith and errors is imported on first use, so that a
# command loads only the layers it runs. A handler binds the names a layer
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError, so that they end
    like every other usage error: one `usage error:` line and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grouplattice",
        description="Construct finite groups, build subgroup graphs, verify degree bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a group and write its table")
    p_construct.add_argument("family")
    p_construct.add_argument("params", nargs="*", type=int)

    p_catalog = sub.add_parser("catalog", help="list the built-in catalog")
    p_catalog.add_argument("--list", action="store_true", dest="list_entries")
    p_catalog.add_argument("--max-order", type=int, default=24)

    p_lattice = sub.add_parser("lattice", help="subgroup graph of a group file")
    p_lattice.add_argument("file")
    p_lattice.add_argument("--format", choices=("json", "dot"), default="json")

    p_degrees = sub.add_parser("degrees", help="per-vertex degrees of a group file")
    p_degrees.add_argument("file")

    p_verify = sub.add_parser("verify", help="run a theorem or bound verifier")
    p_verify.add_argument("target", choices=VERIFY_TARGETS)
    # a target's defaults are in _TARGETS, so a flag left as None was not given
    p_verify.add_argument("--max-order", type=int)
    p_verify.add_argument("--prime-bound", type=int)
    p_verify.add_argument("--exp-bound", type=int)

    for p in sub.choices.values():
        p.add_argument("-o", "--output")
    return parser


@contextmanager
def _output(path: Optional[str]):
    """Stdout, or the file at path opened for writing. Each command opens
    its output once, after its arguments and input are checked, and writes
    as it goes, so a run that fails midway keeps the lines it wrote. An
    OSError while opening or writing the file is an input error.

    Writes to stdout are buffered while the command runs, also when stdout
    is unbuffered (PYTHONUNBUFFERED, python -u), where each record would
    be a system call of its own; the buffer is flushed when the command
    ends, also when it fails."""
    if path is None:
        out = sys.stdout
        write_through = getattr(out, "write_through", False)
        if write_through:
            out.reconfigure(write_through=False)
        try:
            yield out
        finally:
            if write_through:
                out.reconfigure(write_through=True)  # flushes first
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# family -> (number of parameters, None for one or more; build)
_CONSTRUCTORS = {
    "cyclic": (1, lambda p: cyclic(p[0])),
    "abelian": (None, lambda p: abelian(p)),
    "elementary-abelian": (2, lambda p: elementary_abelian(p[0], p[1])),
    "dihedral": (1, lambda p: dihedral(p[0])),
    "dicyclic": (1, lambda p: dicyclic(p[0])),
    "generalized-dihedral": (None, lambda p: generalized_dihedral(abelian(p))),
    "wall-h": (1, lambda p: wall_H(p[0])),
    "wall-s": (1, lambda p: wall_S(p[0])),
    "wall-t": (1, lambda p: wall_T(p[0])),
    "heisenberg": (1, lambda p: heisenberg(p[0])),
    "symmetric": (1, lambda p: symmetric(p[0])),
    "alternating": (1, lambda p: alternating(p[0])),
}


def _run_construct(args) -> int:
    entry = _CONSTRUCTORS.get(args.family)
    if entry is None:
        known = ", ".join(sorted(_CONSTRUCTORS))
        raise UsageError(f"unknown family {args.family!r}; known: {known}")
    arity, build = entry
    count = len(args.params)
    if count == 0 or arity is not None and count != arity:
        raise UsageError(f"family {args.family!r} takes {arity or '>=1'} parameters, got {count}")
    _load_layers("core", "families")
    try:
        g = build(args.params)
    except GroupError as exc:
        raise UsageError(str(exc)) from exc
    with _output(args.output) as out:
        out.write(dumps_group(g))
    return 0


def _checked_max_order(max_order: int) -> int:
    if max_order < 1:
        raise UsageError(f"max_order must be >= 1, got {max_order}")
    return max_order


def _catalog(max_order: int):
    """The entries of catalog(max_order), one catalog call an order, so
    that a process holds one order's groups and each order's build is a
    call of catalog (perfbench/traced_op.py times that name). Refused
    above the isomorphism cap, where the catalog cannot always decide
    whether two of its groups are isomorphic; the cap is read per call."""
    from . import iso

    cap = iso.DEFAULT_ISO_CAP
    if max_order > cap:
        raise GroupTooLarge(f"a catalog to order {max_order} is over the isomorphism cap {cap}")
    return chain.from_iterable(catalog(n, n) for n in range(1, max_order + 1))


def _run_catalog(args) -> int:
    if not args.list_entries:
        raise UsageError("catalog requires --list")
    max_order = _checked_max_order(args.max_order)
    _load_layers("families")
    entries = _catalog(max_order)
    with _output(args.output) as out:
        for entry in entries:
            tags = ",".join(sorted(entry.known_tags)) or "-"
            out.write(f"{entry.name} order={entry.group.order} tags={tags}\n")
    return 0


def _load_group(path: str):
    try:
        return read_group(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except GroupError as exc:
        raise InputError(f"{path}: {exc}") from exc


# json.dumps encodes each string with this C function; the writers below
# give json.dumps's bytes for their fixed-shape reports without its
# per-value dispatch, which for indent=2 is the pure-Python encoder
_string = json.encoder.encode_basestring_ascii
_CONSTANT = {True: "true", False: "false", None: "null"}


def _run_lattice(args) -> int:
    _load_layers("core", "lattice")
    lattice = all_subgroups(_load_group(args.file))
    with _output(args.output) as out:
        if args.format == "dot":
            # thousands of lines a write: C2^8 has 7,449,060 edges, and a
            # write call per line costs more than joining them
            lines = lattice.export_dot()
            while chunk := "".join(islice(lines, 4096)):
                out.write(chunk)
            return 0
        r = lattice.report()
        sequence = ",\n    ".join(map(str, r["degree_sequence"]))
        out.write(
            f'{{\n  "group": {_string(r["group"])},\n  "order": {r["order"]},\n'
            f'  "subgroup_count": {r["subgroup_count"]},\n  "degree_sequence": [\n    {sequence}\n  ],\n'
            f'  "max_degree": {r["max_degree"]},\n  "max_degree_order": {r["max_degree_order"]},\n'
            f'  "delta": {r["delta"]},\n  "edge_count": {r["edge_count"]}\n}}\n'
        )
    return 0


def _degree_lines(lattice):
    """The degrees report, as json.dumps with indent=2 writes it, one
    vertex record a string; each order is its mask's bit count."""
    g, profile = lattice.parent, lattice.degree_profile()
    yield f'{{\n  "group": {_string(g.name)},\n  "order": {g.order},\n  "vertices": [\n'
    separator = ""
    for mask, d, lo, hi in zip(lattice.masks, profile.degrees, profile.down, profile.up):
        yield (
            f'{separator}    {{\n      "order": {mask.bit_count()},\n      "degree": {d},\n'
            f'      "down": {lo},\n      "up": {hi}\n    }}'
        )
        separator = ",\n"
    yield f'\n  ],\n  "max_degree": {max(profile.degrees)}\n}}\n'


def _run_degrees(args) -> int:
    _load_layers("core", "lattice")
    lattice = all_subgroups(_load_group(args.file))
    with _output(args.output) as out:
        out.writelines(_degree_lines(lattice))
    return 0


def _report(verify, args) -> bool:
    report = verify(_catalog(args.max_order), args.max_order)
    payload = {
        "theorem": report.theorem,
        "groups_checked": report.groups_checked,
        "counterexamples": [list(c) for c in report.counterexamples],
        "notes": list(report.notes),
        "passed": report.passed,
    }
    with _output(args.output) as out:
        out.write(json.dumps(payload, indent=2) + "\n")
    return report.passed


def _bound_line(group_name: str, order: int, report, subgroup_order: Optional[int] = None) -> str:
    """The compact JSON record of one bound report, as json.dumps with
    separators (",", ":") writes it."""
    extra = "" if subgroup_order is None else f'"subgroup_order":{subgroup_order},'
    return (
        f'{{"group":{_string(group_name)},"order":{order},{extra}"bound":{_string(report.bound_name)},'
        f'"computed":{report.computed},"limit":"{report.limit!s}","holds":{_CONSTANT[report.holds]},'
        f'"equality":{_CONSTANT[report.equality]},"equality_condition":{_CONSTANT[report.equality_condition]}}}'
    )


def _bounds_records(out, entry, lattice) -> bool:
    order = entry.group.order
    reports = [wall_a(lattice), cww_b(lattice), herzog_manz_c(lattice)]
    for p in sorted(factorize(order)):
        reports.extend(newton_d(lattice, p))
    reports.append(newton_e(lattice))
    reports.append(edge_bound(lattice))
    out.write("".join(_bound_line(entry.name, order, rep) + "\n" for rep in reports))
    return all(rep.holds for rep in reports)


def _lemma21_records(out, entry, lattice) -> bool:
    """One lemma_2_1 call per orbit, on its representative, in the order
    of the orbits' first vertices: the report is invariant under
    automorphisms (lattice module docstring). The line of each vertex is
    its orbit's, and the group's lines go out in one writelines call,
    which joins none of them (C2^8 has 417,199): all of them, or, when a
    call raises, those of the vertices before that orbit's first vertex."""
    vertex_orbit = lattice.vertex_orbit
    lines: dict[int, str] = {}
    holds = True
    try:
        for orbit in dict.fromkeys(vertex_orbit):
            h = lattice.representative(orbit)
            # lemma_2_1 raises CheckFailed when equality and its condition differ
            rep = lemma_2_1(lattice, h)
            lines[orbit] = _bound_line(entry.name, entry.group.order, rep, subgroup_order=h.order) + "\n"
            holds = holds and rep.holds
    finally:
        out.writelines(map(lines.__getitem__, takewhile(lines.__contains__, vertex_orbit)))
    return holds


def _sweep(records_of, args) -> bool:
    """Write the records of a per-group bound target, one JSON record a
    line, a group at a time, and give whether every record holds.
    records_of(out, entry, lattice) writes a group's lines and gives
    whether they all hold. lattice_sweep is called before the output is
    opened, so that a sweep past the lattice cap writes nothing and
    creates no -o file."""
    from .classify import lattice_sweep

    sweep = lattice_sweep(_catalog(args.max_order), args.max_order)
    passed = True
    with _output(args.output) as out:
        for entry, lattice in sweep:
            passed = records_of(out, entry, lattice) and passed
    return passed


def _run_lemma23(args) -> bool:
    if args.prime_bound < 5 or args.exp_bound < 1:
        raise UsageError("lemma23 needs --prime-bound >= 5 and --exp-bound >= 1")
    reports = lemma_2_3_scan(args.prime_bound, args.exp_bound)
    with _output(args.output) as out:
        for rep in reports:
            out.write(_bound_line("-", 0, rep) + "\n")
    return all(rep.holds for rep in reports)


def _run_orders(args) -> bool:
    # divisor analysis scan, no groups involved; the divisors of every n
    # come from one sieve
    if args.max_order > ORDERS_MAX_ORDER:
        raise GroupTooLarge(f"verify orders to {args.max_order} is over the budget of {ORDERS_MAX_ORDER}")
    violations = []
    for n in range(1, 12):
        if not candidate_orders(n).small_case:
            violations.append([n, "expected small-case branch"])
    divisors_of = divisor_lists(args.max_order)
    for n in range(12, args.max_order + 1):
        try:
            result = candidate_orders(n, divisors_of[n])
        except CheckFailed as exc:
            violations.append([n, str(exc)])
            continue
        if result.small_case:
            violations.append([n, "unexpected small-case branch"])
    payload = {
        "target": args.target,
        "small_case_range": [1, 11],
        "scanned_range": [12, args.max_order],
        "violations": violations,
        "passed": not violations,
    }
    with _output(args.output) as out:
        out.write(json.dumps(payload, indent=2) + "\n")
    return not violations


# target -> (layers it runs, the flags it reads with their defaults, run),
# where run(args) writes the target's output and gives whether it passed.
# The lambdas read the verifier and bound names when the target runs, so a
# wrapper bound before then (perfbench/traced_op.py) is the one called.
_REPORT_LAYERS = ("classify", "families")
_SWEEP_LAYERS = ("bounds", "classify", "families")
_TARGETS = {
    "theorem-1.1": (_REPORT_LAYERS, {"max_order": 24}, lambda args: _report(verify_theorem_1_1, args)),
    "theorem-a": (_REPORT_LAYERS, {"max_order": 24}, lambda args: _report(verify_theorem_A, args)),
    "wall": (_REPORT_LAYERS, {"max_order": 24}, lambda args: _report(verify_wall, args)),
    "cor-1.2": (_REPORT_LAYERS, {"max_order": 24}, lambda args: _report(verify_corollary_1_2, args)),
    "cor-1.3": (_REPORT_LAYERS, {"max_order": 24}, lambda args: _report(verify_corollary_1_3, args)),
    "bounds": (_SWEEP_LAYERS, {"max_order": 24}, lambda args: _sweep(_bounds_records, args)),
    "lemma21": (_SWEEP_LAYERS, {"max_order": 24}, lambda args: _sweep(_lemma21_records, args)),
    "lemma23": (("bounds",), {"prime_bound": 31, "exp_bound": 4}, _run_lemma23),
    "orders": (("bounds",), {"max_order": 10000}, _run_orders),
}
VERIFY_TARGETS = tuple(_TARGETS)


def _run_verify(args) -> int:
    layers, defaults, run = _TARGETS[args.target]
    if args.max_order is not None:
        _checked_max_order(args.max_order)
    for flag in ("max_order", "prime_bound", "exp_bound"):
        if getattr(args, flag) is None:
            setattr(args, flag, defaults.get(flag))
        elif flag not in defaults:
            raise UsageError(f"verify {args.target} does not read --{flag.replace('_', '-')}")
    _load_layers(*layers)
    return 0 if run(args) else 1


_COMMANDS = {
    "construct": _run_construct,
    "catalog": _run_catalog,
    "lattice": _run_lattice,
    "degrees": _run_degrees,
    "verify": _run_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help prints its text and exits 0
            return int(exc.code or 0)
        return _COMMANDS[args.command](args)
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
