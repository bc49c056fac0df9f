"""Record the stdout digests that tests/test_golden.py compares against.

Runs every `verify` target in process through `grouplattice.cli.main` at
`--max-order 64` (lemma23 at its default bounds), `bounds` and `lemma21`
also at `--max-order 128`, and `lattice` (JSON and dot) and `degrees` on
six non-abelian groups written to a temporary group file, and `lattice`
(JSON) and `degrees` on the ten tables of the benchmark's lattice-big
workload (perfbench/groups.py, relabelled as with seed 3), and writes
the sha256 of each stdout with its exit code to
tests/golden_stdout.json. It also records the lattice-free commands
`catalog --list`, `verify theorem-a` and `verify wall` at `--max-order
256` and `verify orders --max-order 10000` (as the benchmark runs it),
one sha256 of the per-vertex (mask, up-degree, down-degree) of every
catalog(64) lattice, one sha256 of the per-vertex (mask, upper covers) of
every catalog(64) lattice, one sha256 of the (name, sorted tags,
order, table bytes) of every catalog(256) entry, one sha256 of those
digests of catalog(m) for every m in 1..64, 128 and 256, one sha256 of
the families and Theorem A types `recognize` gives every catalog(256)
group, one sha256 of
the maps `iso.automorphisms` returns for every catalog(128) group, and
the stdout of `construct symmetric 6` and `construct cyclic 300` (order
above 256, so uint16 rows). The slow keys, which tests/test_golden.py checks only
with GROUPLATTICE_SLOW=1, are the five lattice targets at `--max-order
256`, `lattice --format dot` on C2^8, the largest lattice inside the
order cap, the (mask, upper covers) digest of every catalog(256)
lattice, C2^8's among them, and `catalog --list --max-order 512`, the
largest catalog the CLI builds (the isomorphism cap). Record from a commit whose output
is known good, before a refactor:

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import pathlib
import random
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).with_name("golden_stdout.json")
TARGETS = ("theorem-1.1", "theorem-a", "wall", "cor-1.2", "cor-1.3", "bounds", "lemma21", "lemma23", "orders")
WIDE_TARGETS = ("bounds", "lemma21")  # also recorded at WIDE_ORDER
WIDE_ORDER = 128
GROUPS = ("S5", "A5", "S4xS3", "T(2)", "D8xD8", "S3xD8")
GROUP_COMMANDS = (("lattice",), ("lattice", "--format", "dot"), ("degrees",))
BIG_SEED = 3
BIG_COMMANDS = (("lattice",), ("degrees",))
VERTEX_DIGEST_KEY = "vertex (mask, up, down) of every catalog(64) lattice"
UPPER_DIGEST_KEY = "vertex (mask, upper covers) of every catalog(64) lattice"
CATALOG_ORDER = 256
CATALOG_COMMANDS = (
    ("catalog", "--list", "--max-order", str(CATALOG_ORDER)),
    ("verify", "theorem-a", "--max-order", str(CATALOG_ORDER)),
    ("verify", "wall", "--max-order", str(CATALOG_ORDER)),
)
CATALOG_DIGEST_KEY = f"(name, tags, order, table) of every catalog({CATALOG_ORDER}) entry"
CATALOG_BOUNDS = (*range(1, 65), 128, 256)
CATALOG_BOUNDS_DIGEST_KEY = "(name, tags, order, table) of catalog(m) for m in 1..64, 128, 256"
RECOGNITION_DIGEST_KEY = f"recognize(g) (families, subtypes) of every catalog({CATALOG_ORDER}) group"
BENCH_COMMANDS = (("verify", "orders", "--max-order", "10000"),)  # as the benchmark's lattice-free workload runs it
AUTOMORPHISM_ORDER = 128
AUTOMORPHISM_DIGEST_KEY = f"automorphisms(g) of every catalog({AUTOMORPHISM_ORDER}) group"
CONSTRUCT_COMMANDS = (("construct", "symmetric", "6"), ("construct", "cyclic", "300"))
SLOW_TARGETS = ("theorem-1.1", "cor-1.2", "cor-1.3", "bounds", "lemma21")  # the targets that build lattices
SLOW_ORDER = 256
SLOW_GROUP_COMMAND = ("C2^8", ("lattice", "--format", "dot"))
SLOW_UPPER_DIGEST_KEY = f"vertex (mask, upper covers) of every catalog({SLOW_ORDER}) lattice"
SLOW_CATALOG_COMMAND = ("catalog", "--list", "--max-order", "512")


def argv_for(target: str, max_order: int = 64) -> list[str]:
    return ["verify", target] if target == "lemma23" else ["verify", target, "--max-order", str(max_order)]


def group_key(name: str, command: tuple[str, ...]) -> str:
    return " ".join((command[0], name, *command[1:]))


def big_key(name: str, command: tuple[str, ...]) -> str:
    return f"{group_key(name, command)} (lattice-big, seed {BIG_SEED})"


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
        "C2^8": lambda: gl.elementary_abelian(2, 8),
    }[name]
    return gl.dumps_group(build())


@functools.lru_cache(maxsize=None)
def big_texts() -> dict[str, str]:
    """The lattice-big tables in group-file form, relabelled in turn by one
    random.Random(BIG_SEED) as the benchmark does, read from
    perfbench/groups.py without importing the benchmark's runner."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "groups.py"
    spec = importlib.util.spec_from_file_location("perfbench_groups", path)
    groups = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(groups)
    rng = random.Random(BIG_SEED)
    texts = {}
    for name, build in groups.LATTICE_BIG.items():
        table = groups.relabel(build(), rng)
        texts[name] = json.dumps({"name": name, "order": len(table), "table": table}, separators=(",", ":")) + "\n"
    return texts


def vertex_digest(lattices) -> dict:
    """sha256 of one line per vertex: group name, mask, up and down degree."""
    digest, vertices = hashlib.sha256(), 0
    for lattice in lattices:
        profile = lattice.degree_profile()
        for s, up, down in zip(lattice.subgroups, profile.up, profile.down):
            digest.update(f"{lattice.parent.name} {s.mask:x} {up} {down}\n".encode())
            vertices += 1
    return {"sha256": digest.hexdigest(), "vertices": vertices}


def upper_digest(lattices) -> dict:
    """sha256 of one line per vertex: group name, mask and the indices of
    its upper covers."""
    digest, edges = hashlib.sha256(), 0
    for lattice in lattices:
        for mask, above in zip(lattice.masks, lattice.upper):
            digest.update(f"{lattice.parent.name} {mask:x} {' '.join(map(str, above))}\n".encode())
            edges += len(above)
    return {"sha256": digest.hexdigest(), "edges": edges}


def catalog_digest(entries) -> dict:
    """sha256 of each entry's name, sorted tags and order, one line each,
    followed by the bytes of its table rows."""
    digest = hashlib.sha256()
    for entry in entries:
        g = entry.group
        digest.update(f"{entry.name} {','.join(sorted(entry.known_tags))} {g.order}\n".encode())
        digest.update(b"".join(g.table))
    return {"sha256": digest.hexdigest(), "entries": len(entries)}


def catalog_bounds_digest() -> dict:
    """sha256 of one line per bound m in CATALOG_BOUNDS: m and the
    catalog_digest of catalog(m)."""
    import grouplattice as gl

    digest = hashlib.sha256()
    for m in CATALOG_BOUNDS:
        digest.update(f"{m} {catalog_digest(gl.catalog(m))['sha256']}\n".encode())
    return {"sha256": digest.hexdigest(), "catalogs": len(CATALOG_BOUNDS)}


def recognition_digest(entries) -> dict:
    """sha256 of each group's name, sorted families and sorted Theorem A
    types under recognize, one line each."""
    from grouplattice.classify import recognize

    digest = hashlib.sha256()
    for entry in entries:
        families, subtypes = recognize(entry.group)
        digest.update(f"{entry.name} {','.join(sorted(families))} {','.join(sorted(subtypes))}\n".encode())
    return {"sha256": digest.hexdigest(), "groups": len(entries)}


def automorphism_digest(entries) -> dict:
    """sha256 of each group's name followed by the maps automorphisms(g)
    returns, in order, one line each."""
    from grouplattice.iso import automorphisms

    digest, maps = hashlib.sha256(), 0
    for entry in entries:
        digest.update(f"{entry.name}\n".encode())
        for map_ in automorphisms(entry.group):
            digest.update(f"{' '.join(map(str, map_))}\n".encode())
            maps += 1
    return {"sha256": digest.hexdigest(), "maps": maps}


class _Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        return len(text)


def run(argv: list[str]) -> dict:
    from grouplattice.cli import main

    out = _Digest()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"sha256": out.sha256.hexdigest(), "exit": code}


def run_on_text(text: str, command: tuple[str, ...]) -> dict:
    """Run `command` on a group file holding text, in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "group.json"
        path.write_text(text)
        return run([command[0], str(path), *command[1:]])


def record() -> dict:
    golden = {" ".join(argv_for(t)): run(argv_for(t)) for t in TARGETS}
    for t in WIDE_TARGETS:
        golden[" ".join(argv_for(t, WIDE_ORDER))] = run(argv_for(t, WIDE_ORDER))
    for name in GROUPS:
        for command in GROUP_COMMANDS:
            golden[group_key(name, command)] = run_on_text(group_text(name), command)
    for name, text in big_texts().items():
        for command in BIG_COMMANDS:
            golden[big_key(name, command)] = run_on_text(text, command)
    for command in CATALOG_COMMANDS + BENCH_COMMANDS + CONSTRUCT_COMMANDS:
        golden[" ".join(command)] = run(list(command))
    for t in SLOW_TARGETS:
        golden[" ".join(argv_for(t, SLOW_ORDER))] = run(argv_for(t, SLOW_ORDER))
    name, command = SLOW_GROUP_COMMAND
    golden[group_key(name, command)] = run_on_text(group_text(name), command)
    golden[" ".join(SLOW_CATALOG_COMMAND)] = run(list(SLOW_CATALOG_COMMAND))
    import grouplattice as gl

    golden[CATALOG_DIGEST_KEY] = catalog_digest(gl.catalog(CATALOG_ORDER))
    golden[CATALOG_BOUNDS_DIGEST_KEY] = catalog_bounds_digest()
    golden[RECOGNITION_DIGEST_KEY] = recognition_digest(gl.catalog(CATALOG_ORDER))
    golden[VERTEX_DIGEST_KEY] = vertex_digest(gl.all_subgroups(e.group) for e in gl.catalog(64))
    golden[UPPER_DIGEST_KEY] = upper_digest(gl.all_subgroups(e.group) for e in gl.catalog(64))
    golden[SLOW_UPPER_DIGEST_KEY] = upper_digest(gl.all_subgroups(e.group) for e in gl.catalog(SLOW_ORDER))
    golden[AUTOMORPHISM_DIGEST_KEY] = automorphism_digest(gl.catalog(AUTOMORPHISM_ORDER))
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
