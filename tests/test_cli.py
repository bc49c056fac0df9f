"""Command-line interface: output bytes, exit codes, error paths."""

import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grouplattice as gl
from grouplattice.cli import VERIFY_TARGETS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct


def test_construct_cyclic_to_stdout(capsys):
    code, out, err = run(capsys, "construct", "cyclic", "6")
    assert code == 0 and err == ""
    assert out == gl.dumps_group(gl.cyclic(6))


def test_construct_to_file(capsys, tmp_path):
    target = tmp_path / "d12.grp"
    code, out, _ = run(capsys, "construct", "dihedral", "6", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == gl.dumps_group(gl.dihedral(6))


def test_construct_abelian_multi_param(capsys):
    code, out, _ = run(capsys, "construct", "abelian", "2", "4")
    assert code == 0
    assert json.loads(out)["name"] == "C2xC4"


def test_construct_generalized_dihedral(capsys):
    code, out, _ = run(capsys, "construct", "generalized-dihedral", "2", "4")
    assert code == 0
    assert json.loads(out)["order"] == 16


def test_construct_unknown_family(capsys):
    code, _, err = run(capsys, "construct", "quaternion-ish", "2")
    assert code == 2
    assert "usage error" in err and "known:" in err


def test_construct_wrong_param_count(capsys):
    code, _, err = run(capsys, "construct", "cyclic")
    assert code == 2 and "parameters" in err
    code, _, err = run(capsys, "construct", "cyclic", "2", "3")
    assert code == 2 and "parameters" in err


def test_construct_invalid_parameter_value(capsys):
    code, _, err = run(capsys, "construct", "dihedral", "0")
    assert code == 2 and "usage error" in err


def test_construct_heisenberg_rejects_even_prime(capsys):
    code, _, err = run(capsys, "construct", "heisenberg", "2")
    assert code == 2 and "odd prime" in err


HUGE = str(10**18)
HUGE_PRIME_CANDIDATE = str(10**18 + 3)
FIFTEEN_THOUSAND_TWOS = ["2"] * 15000


@pytest.mark.parametrize(
    "params",
    [
        ["wall-h", HUGE],
        ["wall-s", HUGE],
        ["wall-t", HUGE],
        ["wall-h", "100000000"],
        ["abelian", *FIFTEEN_THOUSAND_TWOS],
        ["generalized-dihedral", *FIFTEEN_THOUSAND_TWOS],
        ["elementary-abelian", "2", HUGE],
        ["symmetric", HUGE],
        ["heisenberg", HUGE_PRIME_CANDIDATE],
        ["elementary-abelian", HUGE_PRIME_CANDIDATE, "1"],
        ["elementary-abelian", HUGE_PRIME_CANDIDATE, "0"],
        ["alternating", "100000"],
    ],
    ids=lambda params: " ".join(params[:3]) + (" ..." if len(params) > 3 else ""),
)
def test_construct_refuses_a_huge_parameter_at_once(capsys, params):
    # the construction cap is checked before any primality test, power,
    # shift, parameter-long list or degree-n permutation
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", *params)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.endswith(" exceed the construction cap 4096\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("family,degree,order", [("symmetric", 7, 5040), ("alternating", 8, 20160)])
def test_construct_refuses_symmetric_and_alternating_from_the_degree(capsys, family, degree, order):
    # the smallest degrees over the cap; the permutation closure would
    # stop only at 4097 elements
    code, out, err = run(capsys, "construct", family, str(degree))
    assert (code, out) == (2, "")
    assert err == f"usage error: {order} elements exceed the construction cap 4096\n"


# ---------------------------------------------------------------------------
# catalog


def test_catalog_requires_list_flag(capsys):
    code, _, err = run(capsys, "catalog")
    assert code == 2 and "requires --list" in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--list", "--max-order", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "C1 order=1 tags=small-order"
    assert any(line.startswith("D8 order=8") for line in lines)
    d8_line = next(line for line in lines if line.startswith("D8"))
    assert "generalized-dihedral" in d8_line and "wall-H" in d8_line


def test_catalog_listing_deterministic(capsys):
    code1, out1, _ = run(capsys, "catalog", "--list", "--max-order", "16")
    code2, out2, _ = run(capsys, "catalog", "--list", "--max-order", "16")
    assert code1 == code2 == 0
    assert out1 == out2


def _readme_cli_lines():
    """The argv of each `grouplattice ...` line in the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("grouplattice ")]


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # in order, in one directory, so the lines that read d12.grp find it;
    # verify cor-1.3 reports its counterexamples and exits 1
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) == 17
    for argv in lines:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (1 if argv[:2] == ["verify", "cor-1.3"] else 0, ""), argv


# ---------------------------------------------------------------------------
# lattice and degrees


@pytest.fixture
def d12_file(tmp_path):
    path = tmp_path / "d12.grp"
    gl.write_group(gl.dihedral(6), path)
    return str(path)


def test_lattice_json_report(capsys, d12_file):
    code, out, _ = run(capsys, "lattice", d12_file)
    assert code == 0
    report = json.loads(out)
    assert report["group"] == "D12"
    assert report["subgroup_count"] == 16
    assert report["edge_count"] == 33
    assert report["max_degree"] == 8
    assert report["max_degree_order"] == 1
    assert report["delta"] == 8


def test_lattice_dot_output(capsys, d12_file):
    code, out, _ = run(capsys, "lattice", d12_file, "--format", "dot")
    assert code == 0
    assert out.startswith('digraph "D12" {\n  rankdir=BT;\n')
    assert out.count("->") == 33
    assert out.endswith("}\n")


def test_lattice_cap_exceeded(capsys, monkeypatch, d12_file):
    monkeypatch.setattr("grouplattice.lattice.DEFAULT_LATTICE_CAP", 8)
    code, _, err = run(capsys, "lattice", d12_file)
    assert code == 2 and "input error" in err


def test_lattice_subgroup_budget_exceeded(capsys, monkeypatch, d12_file):
    # the order cap is the lattice's only size rule: no subgroup count is refused
    monkeypatch.setattr("grouplattice.lattice.DEFAULT_LATTICE_CAP", 8)
    code, out, err = run(capsys, "lattice", d12_file)
    assert (code, out, err) == (2, "", "input error: D12 has order 12, over the lattice cap 8\n")


def test_lattice_missing_file(capsys):
    code, _, err = run(capsys, "lattice", "/nonexistent/path.grp")
    assert code == 2 and "cannot read" in err


def test_lattice_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text('{"order":2,"table":[[0,1],[1,0]]}\n')
    code, _, err = run(capsys, "lattice", str(bad))
    assert code == 2
    assert "input error" in err and "missing field 'name'" in err


@pytest.mark.parametrize(
    "table,witness",
    [
        ("[[0,1],[1]]", "row 1 is not a list of 2 entries"),
        ("[[0,1],[1,0.5]]", "entry [1][1] = 0.5 is not an integer"),
        ('[[0,1],[1,"0"]]', "entry [1][1] = '0' is not an integer"),
        ("[[0,1],[1,false]]", "entry [1][1] = False is not an integer"),
        ("[[0,1],[1,12345678901234567890]]", "entry [1][1] = 12345678901234567890 is not an integer"),
    ],
)
def test_lattice_rejects_mistyped_table(capsys, tmp_path, table, witness):
    bad = tmp_path / "bad.grp"
    bad.write_text('{"name":"X","order":2,"table":%s}\n' % table)
    code, out, err = run(capsys, "lattice", str(bad))
    assert (code, out) == (2, "")
    assert "input error" in err and witness in err


def test_lattice_rejects_non_ascii_file(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "lattice", str(bad))
    assert code == 2 and "not ASCII" in err


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
group_like = st.fixed_dictionaries(
    {
        "name": st.text(max_size=3) | json_values,
        "order": st.integers(-1, 4) | json_values,
        "table": st.lists(st.lists(st.integers(-1, 4) | json_values, max_size=4), max_size=4),
    }
).map(json.dumps)


@settings(deadline=None, max_examples=300)
@given(st.text() | group_like | st.just("[" * 100_000))
def test_any_group_file_gives_a_group_or_exit_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "g.grp"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lattice", str(path)])
    if code == 0:
        assert json.loads(out.getvalue())["subgroup_count"] >= 1
    else:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("input error: ")


def test_degrees_payload(capsys, tmp_path):
    path = tmp_path / "c4.grp"
    gl.write_group(gl.cyclic(4), path)
    code, out, _ = run(capsys, "degrees", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "C4" and payload["order"] == 4
    assert payload["max_degree"] == 2
    assert payload["vertices"] == [
        {"order": 1, "degree": 1, "down": 0, "up": 1},
        {"order": 2, "degree": 2, "down": 1, "up": 1},
        {"order": 4, "degree": 1, "down": 1, "up": 0},
    ]


# ---------------------------------------------------------------------------
# verify


def test_verify_theorem_a(capsys):
    code, out, _ = run(capsys, "verify", "theorem-a", "--max-order", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "theorem-a"
    assert payload["passed"] is True
    assert payload["counterexamples"] == []


def test_verify_theorem_1_1(capsys):
    code, out, _ = run(capsys, "verify", "theorem-1.1", "--max-order", "16")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_wall(capsys):
    code, out, _ = run(capsys, "verify", "wall", "--max-order", "16")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_cor_1_2_with_boundary_note(capsys):
    code, out, _ = run(capsys, "verify", "cor-1.2", "--max-order", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert any("boundary" in note for note in payload["notes"])


def test_verify_cor_1_2_keeps_the_c2_note_at_order_2(capsys):
    code, out, _ = run(capsys, "verify", "cor-1.2", "--max-order", "2")
    assert code == 0
    assert json.loads(out) == {
        "theorem": "cor-1.2",
        "groups_checked": 1,
        "counterexamples": [],
        "notes": ["C2: order-2 boundary case, top degree 1 < 3|G|/4 = 3/2"],
        "passed": True,
    }


def test_verify_cor_1_3_reports_outliers(capsys):
    code, out, _ = run(capsys, "verify", "cor-1.3", "--max-order", "32")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert {name for name, _ in payload["counterexamples"]} == {"D12", "S(2)"}


def test_verify_bounds_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "bounds", "--max-order", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) > 50
    names = set()
    for line in lines:
        rec = json.loads(line)
        assert rec["holds"] is True
        names.add(rec["bound"])
    assert names == {
        "wall_a",
        "cww_b",
        "herzog_manz_c",
        "newton_d_main",
        "newton_d_sharp",
        "newton_e",
        "edge_bound",
    }


def test_verify_lemma21_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "lemma21", "--max-order", "12")
    assert code == 0
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        assert rec["bound"] == "lemma_2_1"
        assert rec["holds"] is True
        assert rec["equality"] == rec["equality_condition"]
        assert "subgroup_order" in rec


@pytest.mark.parametrize("target", ["bounds", "lemma21"])
def test_verify_jsonl_with_no_groups_prints_nothing(capsys, target):
    # order 1 is the trivial group alone, which no sweep checks
    assert run(capsys, "verify", target, "--max-order", "1") == (0, "", "")


@pytest.mark.parametrize("target", ["theorem-1.1", "cor-1.2", "cor-1.3", "bounds", "lemma21"])
def test_verify_lattice_targets_read_the_lattice_cap_when_they_run(capsys, monkeypatch, tmp_path, target):
    # the sweep reads the walk's cap when it is called, lowered here to 8,
    # and refuses before the output is opened
    monkeypatch.setattr("grouplattice.lattice.DEFAULT_LATTICE_CAP", 8)
    refusal = (2, "", "input error: a sweep to order 16 exceeds the lattice cap 8\n")
    assert run(capsys, "verify", target, "--max-order", "16") == refusal
    output = tmp_path / "out"
    assert run(capsys, "verify", target, "--max-order", "16", "-o", str(output)) == refusal
    assert not output.exists()


def test_verify_sweep_walks_every_lattice_however_the_suite_is_ordered(capsys, monkeypatch, lattices64):
    # lattices64 has already built the lattice of every catalog(64) group in
    # this process; the sweep still checks its 106 solvable groups and walks
    # anew each lattice its verdict reads: those of the groups in no listed
    # family that are of order below 12 or not nilpotent
    assert len(lattices64) == 108
    walks = []
    walk = gl.lattice._cover_walk

    def counting_walk(g):
        walks.append(g.name)
        return walk(g)

    monkeypatch.setattr("grouplattice.lattice._cover_walk", counting_walk)
    code, out, _ = run(capsys, "verify", "theorem-1.1", "--max-order", "64")
    assert (code, json.loads(out)["groups_checked"]) == (0, 106)
    assert walks == ["C5", "C7", "C8", "C9", "C11", "Dic3"]


def test_verify_lemma23(capsys):
    code, out, _ = run(capsys, "verify", "lemma23", "--prime-bound", "13", "--exp-bound", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 160  # C(6,3) prime triples times 2^3 exponent picks
    assert all(json.loads(line)["holds"] for line in lines)


def test_verify_lemma23_refuses_a_scan_over_budget():
    # C(78498, 3) checks: refused while the primes are listed, not after
    proc = run_python("-m", "grouplattice.cli", "verify", "lemma23", "--prime-bound", "1000000", "--exp-bound", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "input error: lemma 2.3 scan to prime 1000000, exponent 1 needs at least 1004731 checks "
        "(primes up to 1093), over the budget of 1000000\n"
    )


def test_verify_lemma23_rejects_tiny_bound(capsys):
    code, _, err = run(capsys, "verify", "lemma23", "--prime-bound", "3")
    assert code == 2 and "usage error" in err


def test_verify_orders(capsys):
    code, out, _ = run(capsys, "verify", "orders", "--max-order", "5000")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["violations"] == []
    assert payload["scanned_range"] == [12, 5000]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_orders_catches_broken_divisor_formula(flags):
    # with every integer up to n counted as a divisor, n - 1 passes the
    # quadratic test and escapes {1, 2, n/2, n}; the check must not be an
    # assert, which python -O strips. verify orders reads the divisors from
    # the sieve cli.divisor_lists, so that is the source broken here
    code = (
        "import sys, grouplattice.cli as cli; "
        "cli.divisor_lists = lambda limit: [list(range(1, n + 1)) for n in range(limit + 1)]; "
        "sys.exit(cli.main(['verify', 'orders', '--max-order', '40']))"
    )
    src = str(Path(gl.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is False
    assert [n for n, _ in payload["violations"]] == list(range(12, 41))
    assert "escape" in payload["violations"][0][1]


SRC = Path(gl.__file__).resolve().parents[1]


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from SRC and writes
    no bytecode, as each benchmark op runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_package_runs_without_numpy():
    # numpy is a test and benchmark dependency only; an import of it
    # anywhere in the package raises ImportError here
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "import grouplattice, grouplattice.cli as cli; "
        "sys.exit(cli.main(['verify', 'theorem-1.1', '--max-order', '16']))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


LOADED_MODULES = """
import json, sys
import grouplattice
bare = sorted(m for m in sys.modules if m.startswith("grouplattice."))
import grouplattice.cli as cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, bare, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("command", ["lattice", "degrees"])
def test_lattice_commands_load_only_the_layers_they_run(tmp_path, command):
    # with no bytecode cache each op compiles every module it imports, so
    # lattice and degrees leave the catalog, classifier and bounds unloaded
    path = tmp_path / "s4.grp"
    gl.write_group(gl.symmetric(4), str(path))
    proc = run_python("-c", LOADED_MODULES, command, str(path), "-o", str(tmp_path / "out"))
    assert proc.stderr == ""
    code, bare, loaded = json.loads(proc.stdout)
    assert (code, bare) == (0, [])
    unloaded = ["grouplattice.families", "grouplattice.classify", "grouplattice.bounds", "dataclasses", "fractions"]
    assert [m for m in unloaded if m in loaded] == []
    assert (tmp_path / "out").read_text().startswith("{")


# the layers that lattice runs past arith and errors, and the two more
# that the report targets run
LATTICE_LAYERS = ["grouplattice.core", "grouplattice.iso", "grouplattice.lattice"]
REPORT_LAYERS = ["grouplattice.classify", "grouplattice.families"]
# verify arguments -> modules the target leaves unloaded, besides dataclasses
VERIFY_LOADING = [
    (["theorem-a", "--max-order", "8"], ["grouplattice.bounds", "fractions"]),
    (["lemma23", "--prime-bound", "7", "--exp-bound", "1"], [*LATTICE_LAYERS, *REPORT_LAYERS]),
    (["orders", "--max-order", "20"], [*LATTICE_LAYERS, *REPORT_LAYERS]),
    (["theorem-1.1", "--max-order", "8"], ["grouplattice.bounds", "fractions"]),
    (["wall", "--max-order", "8"], ["grouplattice.bounds", "fractions"]),
    (["cor-1.2", "--max-order", "8"], ["grouplattice.bounds", "fractions"]),
    (["cor-1.3", "--max-order", "8"], ["grouplattice.bounds", "fractions"]),
    (["bounds", "--max-order", "8"], []),
    (["lemma21", "--max-order", "8"], []),
]


@pytest.mark.parametrize("args,unloaded", VERIFY_LOADING)
def test_verify_targets_load_only_the_layers_they_run(tmp_path, args, unloaded):
    # no command loads dataclasses, which imports inspect, ast, dis and tokenize
    proc = run_python("-c", LOADED_MODULES, "verify", *args, "-o", str(tmp_path / "out"))
    assert proc.stderr == ""
    code, bare, loaded = json.loads(proc.stdout)
    assert (code, bare) == (0, [])
    assert [m for m in [*unloaded, "dataclasses"] if m in loaded] == []
    assert (tmp_path / "out").read_text()


def test_verify_loading_covers_every_target():
    assert {args[0] for args, _ in VERIFY_LOADING} == set(VERIFY_TARGETS)


@pytest.mark.parametrize("argv", [["construct", "dihedral", "4"], ["catalog", "--list", "--max-order", "16"]])
def test_construct_and_catalog_load_no_dataclasses(tmp_path, argv):
    proc = run_python("-c", LOADED_MODULES, *argv, "-o", str(tmp_path / "out"))
    assert proc.stderr == ""
    code, bare, loaded = json.loads(proc.stdout)
    assert (code, bare, "dataclasses" in loaded) == (0, [], False)
    assert (tmp_path / "out").read_text()


# every public name of the package before its names were loaded lazily
PUBLIC_NAMES = """
ActionOrderMismatch BoundReport CandidateOrders CatalogEntry CheckFailed DEFAULT_CONSTRUCTION_CAP
DEFAULT_ISO_CAP DEFAULT_LATTICE_CAP DegreeProfile FiniteGroup GroupError
GroupTooLarge InputError Isomorphism NoIdentity NoInverse NotAbelian NotAssociative NotAutomorphism
NotCentralInvolution NotLatinSquare NotNormal NotPrime NotSolvable NotSubgroup OrbitProfile PrimesNotDistinct Recognition
Subgroup SubgroupLattice TrivialGroup UsageError VerificationReport abelian abelian_type_list all_subgroups
alternating candidate_orders catalog central_product cww_b cyclic dicyclic dihedral
direct_product divisors dumps_group edge_bound elementary_abelian factorize from_cayley_table
from_permutation_generators generalized_dihedral has_large_degree_vertex heisenberg herzog_manz_c
is_isomorphic is_prime lemma_2_1 lemma_2_3_check lemma_2_3_scan loads_group newton_d newton_e partitions
primes_upto quotient_group quotient_is_elementary_abelian_2 read_group recognize semidirect
sylow_p_elements_form_subgroup symmetric trivial verify_corollary_1_2 verify_corollary_1_3
verify_theorem_1_1 verify_theorem_A verify_wall wall_H wall_S wall_T wall_a write_group
""".split()
SUBMODULES = ["arith", "bounds", "classify", "core", "errors", "families", "iso", "lattice"]

PUBLIC_NAME_SETS = """
import json, sys, types
import grouplattice as gl
listed = sorted(n for n in dir(gl) if not n.startswith("_"))
names = sys.argv[1:]
missing = [n for n in names if getattr(gl, n, None) is None]
modules = sorted(n for n in names if isinstance(getattr(gl, n), types.ModuleType))
star = {}
exec("from grouplattice import *", star)
print(json.dumps([listed, sorted(gl.__all__), sorted(n for n in star if not n.startswith("_")), missing, modules]))
"""


def test_every_public_name_resolves_in_a_fresh_process():
    proc = run_python("-c", PUBLIC_NAME_SETS, *PUBLIC_NAMES, *SUBMODULES)
    assert proc.stderr == ""
    listed, all_, star, missing, modules = json.loads(proc.stdout)
    expected = sorted(PUBLIC_NAMES + SUBMODULES)
    assert (listed, all_, star) == (expected, expected, expected)
    assert (missing, modules) == ([], SUBMODULES)


def test_traced_op_keeps_the_names_it_replaces(tmp_path, capsys):
    # perfbench/traced_op.py wraps cli layer names before the first command
    # runs; the lazy loading of those layers must keep its wrappers. The
    # catalog is built by one catalog call an order, whose spans count
    # every entry
    args = ["verify", "bounds", "--max-order", "16"]
    spans_file = tmp_path / "spans.json"
    traced = run_python(str(SRC.parent / "perfbench" / "traced_op.py"), str(spans_file), "x", *args)
    code, out, err = run(capsys, *args)
    assert (traced.returncode, traced.stdout, traced.stderr) == (code, out, err)
    trace = json.loads(spans_file.read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"families.catalog", "bounds", "lattice.all_subgroups"} <= names
    assert trace["counters"]["families.catalog.entries"] == len(gl.catalog(16))


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no check in the package may be one
    package = Path(gl.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_unused_imports():
    # each name a module imports at top level is read somewhere in it
    package = Path(gl.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        # the base of an attribute read such as json.dumps is a Name too
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unused == []


def test_package_imports_no_private_names_from_its_modules():
    # a module reads another module's names through its public ones, at
    # any depth of the module; cli reads the package's export tables
    package = Path(gl.__file__).resolve().parent
    allowed = {("cli.py", "_EXPORTS"), ("cli.py", "_HOME")}
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("grouplattice")):
                private += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and (path.name, alias.name) not in allowed
                ]
    assert private == []


def test_package_has_no_unread_functions_or_classes():
    # each top-level function or class of a module is read somewhere in the
    # package (by name, or as an attribute such as _iso.DEFAULT_ISO_CAP) or
    # is a public name of the package; module hooks such as __getattr__
    # are called by the import system
    package = Path(gl.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = {name for names in gl._EXPORTS.values() for name in names}
    unread = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read | public
    ]
    assert unread == []


def test_verify_unknown_target(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_verify_max_order_over_lattice_cap(capsys):
    code, _, err = run(capsys, "verify", "theorem-1.1", "--max-order", "300")
    assert code == 2 and "exceeds" in err


@pytest.mark.parametrize("target", VERIFY_TARGETS)
def test_verify_rejects_max_order_zero(capsys, target):
    code, out, err = run(capsys, "verify", target, "--max-order", "0")
    assert (code, out, err) == (2, "", "usage error: max_order must be >= 1, got 0\n")


def test_catalog_rejects_max_order_zero(capsys):
    code, out, err = run(capsys, "catalog", "--list", "--max-order", "0")
    assert (code, out, err) == (2, "", "usage error: max_order must be >= 1, got 0\n")


@pytest.mark.parametrize("target", ["theorem-1.1", "cor-1.2", "cor-1.3", "bounds", "lemma21"])
def test_verify_lattice_targets_stop_above_the_lattice_cap(capsys, target):
    code, out, err = run(capsys, "verify", target, "--max-order", "257")
    assert (code, out, err) == (2, "", "input error: a sweep to order 257 exceeds the lattice cap 256\n")


def test_verify_orders_refuses_a_scan_over_budget(capsys):
    # the divisor sieve would hold 10^6 + 1 lists; refused before it starts
    code, out, err = run(capsys, "verify", "orders", "--max-order", "1000001")
    assert (code, out) == (2, "")
    assert err == "input error: verify orders to 1000001 is over the budget of 1000000\n"


@pytest.mark.parametrize(
    "argv", [("catalog", "--list"), ("verify", "theorem-a"), ("verify", "wall")], ids=" ".join
)
def test_catalog_commands_refuse_an_order_over_the_isomorphism_cap(capsys, monkeypatch, argv):
    def no_catalog(max_order):
        raise AssertionError("the catalog was built")

    monkeypatch.setattr("grouplattice.cli.catalog", no_catalog, raising=False)
    code, out, err = run(capsys, *argv, "--max-order", "513")
    assert (code, out) == (2, "")
    assert err == "input error: a catalog to order 513 is over the isomorphism cap 512\n"


def test_catalog_reads_the_isomorphism_cap_when_it_runs(capsys, monkeypatch):
    monkeypatch.setattr("grouplattice.iso.DEFAULT_ISO_CAP", 8)
    code, out, err = run(capsys, "catalog", "--list", "--max-order", "16")
    assert (code, out) == (2, "")
    assert err == "input error: a catalog to order 16 is over the isomorphism cap 8\n"


def test_verify_orders_scans_to_10000_by_default(capsys):
    code, out, _ = run(capsys, "verify", "orders")
    assert code == 0
    assert json.loads(out)["scanned_range"] == [12, 10000]


@pytest.mark.parametrize("max_order, small, scanned", [(1, [1, 1], None), (11, [1, 11], None), (12, [1, 11], [12, 12])])
def test_verify_orders_reports_only_the_ranges_it_checked(capsys, max_order, small, scanned):
    code, out, _ = run(capsys, "verify", "orders", "--max-order", str(max_order))
    payload = json.loads(out)
    assert (code, payload["passed"], payload["violations"]) == (0, True, [])
    assert (payload["small_case_range"], payload["scanned_range"]) == (small, scanned)


def test_verify_orders_flags_a_branch_on_the_wrong_side_of_11(capsys, monkeypatch):
    # the scan reads small_case from each n's analysis; here it is flipped
    def flipped(n, divisors_of_n):
        return gl.candidate_orders(n, divisors_of_n)._replace(small_case=n > 11)

    monkeypatch.setattr("grouplattice.cli.candidate_orders", flipped, raising=False)
    code, out, _ = run(capsys, "verify", "orders", "--max-order", "13")
    assert code == 1
    assert json.loads(out)["violations"] == [
        *([n, "expected small-case branch"] for n in range(1, 12)),
        [12, "unexpected small-case branch"],
        [13, "unexpected small-case branch"],
    ]


def test_verify_theorem_a_defaults_to_max_order_24(capsys):
    assert run(capsys, "verify", "theorem-a") == run(capsys, "verify", "theorem-a", "--max-order", "24")


def test_verify_reports_a_broken_o_p_closure_as_a_failed_check(capsys, monkeypatch):
    # o_p's checks guard the closure and lattice code, not the input: a
    # closure that is no vertex is a failed check (exit 1), not an input error
    g = gl.symmetric(3)
    monkeypatch.setattr(g, "closure_mask", lambda seed: 0b110)
    entry = gl.CatalogEntry(name=g.name, group=g, known_tags=frozenset())
    monkeypatch.setattr("grouplattice.cli._catalog", lambda max_order: (entry,))
    code, out, err = run(capsys, "verify", "bounds", "--max-order", "6")
    assert (code, out, err) == (1, "", "check failed: closure of the 2'-elements is not a vertex\n")


def test_a_failed_check_midway_keeps_the_lines_written_before_it(capsys, monkeypatch, tmp_path):
    # output is written as it is made: D8's records stay when S3's broken
    # closure then stops the sweep with exit 1
    d8 = gl.dihedral(4)
    good = gl.CatalogEntry(name=d8.name, group=d8, known_tags=frozenset())
    monkeypatch.setattr("grouplattice.cli._catalog", lambda max_order: (good,))
    code, d8_lines, _ = run(capsys, "verify", "bounds", "--max-order", "8")
    assert code == 0 and d8_lines.count("\n") > 5
    g = gl.symmetric(3)
    monkeypatch.setattr(g, "closure_mask", lambda seed: 0b110)
    broken = gl.CatalogEntry(name=g.name, group=g, known_tags=frozenset())
    monkeypatch.setattr("grouplattice.cli._catalog", lambda max_order: (good, broken))
    failure = "check failed: closure of the 2'-elements is not a vertex\n"
    assert run(capsys, "verify", "bounds", "--max-order", "8") == (1, d8_lines, failure)
    target = tmp_path / "out.jsonl"
    assert run(capsys, "verify", "bounds", "--max-order", "8", "-o", str(target)) == (1, "", failure)
    assert target.read_text() == d8_lines


def test_a_sweep_failing_at_an_orbit_keeps_every_record_made_before_it(capsys, monkeypatch, tmp_path):
    # lemma21 makes one lemma_2_1 call per orbit and one record per vertex;
    # when the call for the k-th orbit raises, the records of every vertex
    # before that orbit's first one are written, the buffered ones too,
    # and nothing after them
    from grouplattice.bounds import lemma_2_1
    from grouplattice.errors import CheckFailed

    argv = ["verify", "lemma21", "--max-order", "16"]
    code, full, _ = run(capsys, *argv)
    assert code == 0
    lines = full.splitlines(keepends=True)
    firsts, record = [], 0  # the record of each orbit's first vertex
    for entry in gl.catalog(16):
        if entry.group.order > 1 and entry.group.is_solvable:
            seen = set()
            for orbit in gl.all_subgroups(entry.group).vertex_orbit:
                if orbit not in seen:
                    seen.add(orbit)
                    firsts.append(record)
                record += 1
    assert record == len(lines)
    k = len(firsts) // 2
    expected = "".join(lines[: firsts[k]])
    assert len(expected) > 2 * 8192  # more than one block of stdout's buffer

    def failing(lattice, h):
        calls.append(h)
        if len(calls) > k:
            raise CheckFailed("made to fail")
        return lemma_2_1(lattice, h)

    monkeypatch.setattr("grouplattice.cli.lemma_2_1", failing)
    for output in ([], ["-o", str(tmp_path / "out.jsonl")]):
        calls = []
        code, out, err = run(capsys, *argv, *output)
        assert (code, err) == (1, "check failed: made to fail\n")
        assert len(calls) == k + 1
        assert (out or (tmp_path / "out.jsonl").read_text()) == expected


class _CountingRaw(io.RawIOBase):
    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


def test_unbuffered_stdout_is_written_in_blocks(capsys, monkeypatch):
    # with PYTHONUNBUFFERED=1 stdout writes through each write; a command
    # buffers its records, gives the same bytes, and leaves stdout as it was
    argv = ["verify", "lemma21", "--max-order", "16"]
    code, full, _ = run(capsys, *argv)
    raw = _CountingRaw()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == code == 0
    assert b"".join(raw.writes).decode() == full
    assert len(raw.writes) < full.count("\n") // 20
    assert stdout.write_through
# (target, a flag it does not read): lemma23 reads --prime-bound and
# --exp-bound, every other target --max-order
UNREAD_FLAGS = [
    (target, flag)
    for target in VERIFY_TARGETS
    for flag in ("--max-order", "--prime-bound", "--exp-bound")
    if (flag == "--max-order") == (target == "lemma23")
]


@pytest.mark.parametrize("target,flag", UNREAD_FLAGS)
def test_verify_refuses_a_flag_its_target_does_not_read(capsys, tmp_path, target, flag):
    output = tmp_path / "out"
    code, out, err = run(capsys, "verify", target, flag, "5", "-o", str(output))
    assert (code, out, err) == (2, "", f"usage error: verify {target} does not read {flag}\n")
    assert not output.exists()


def test_verify_lemma23_defaults_to_prime_bound_31_and_exp_bound_4(capsys):
    assert run(capsys, "verify", "lemma23") == run(capsys, "verify", "lemma23", "--prime-bound", "31", "--exp-bound", "4")


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "nonsense", "4"],
        ["catalog", "--list", "--max-order", "0"],
        ["lattice", "MISSING_FILE"],
        ["lattice", "D12_FILE"],
        ["verify", "theorem-1.1", "--max-order", "300"],
        ["verify", "bounds", "--max-order", "300"],
        ["verify", "lemma21", "--max-order", "300"],
        ["verify", "theorem-a", "--exp-bound", "2"],
        ["verify", "lemma23", "--prime-bound", "3"],
        ["verify", "lemma23", "--prime-bound", "1000000", "--exp-bound", "1"],
    ],
    ids=" ".join,
)
def test_a_usage_or_input_error_creates_no_output_file(capsys, monkeypatch, tmp_path, d12_file, args):
    monkeypatch.setattr("grouplattice.lattice.DEFAULT_LATTICE_CAP", 8)  # the walk refuses D12
    files = {"MISSING_FILE": str(tmp_path / "missing.grp"), "D12_FILE": d12_file}
    output = tmp_path / "out"
    code, out, err = run(capsys, *(files.get(a, a) for a in args), "-o", str(output))
    assert (code, out) == (2, "") and err.startswith(("usage error: ", "input error: "))
    assert not output.exists()


@pytest.mark.parametrize("command", ["catalog", "lattice", "degrees", "verify"])
def test_no_cap_flags(capsys, command):
    # the caps are module constants, not options
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and "usage:" in out
    assert "cap" not in out


@pytest.mark.parametrize("where", ["directory", "missing directory"])
@pytest.mark.parametrize(
    "args",
    [["construct", "cyclic", "4"], ["lattice", "D12_FILE"], ["verify", "orders", "--max-order", "20"]],
    ids=["construct", "lattice", "verify-orders"],
)
def test_unwritable_output_is_an_input_error(capsys, tmp_path, d12_file, args, where):
    # exit 1 means a counterexample, so a failed write must not raise
    output = tmp_path if where == "directory" else tmp_path / "missing" / "out"
    argv = [d12_file if a == "D12_FILE" else a for a in args]
    code, out, err = run(capsys, *argv, "-o", str(output))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {output}: ") and "Traceback" not in err


def test_verify_output_to_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "theorem-a", "--max-order", "8", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["passed"] is True


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["verify", "theorem-9"], "argument target: invalid choice: 'theorem-9'"),
        (["lattice"], "the following arguments are required: file"),
        (["lattice", "g.json", "--format", "svg"], "argument --format: invalid choice: 'svg'"),
        (["verify", "bounds", "--max-order", "abc"], "argument --max-order: invalid int value: 'abc'"),
        (["construct", "cyclic", "x"], "argument params: invalid int value: 'x'"),
        (["verify", "bounds", "--bogus"], "unrecognized arguments: --bogus"),
        (["catalog", "--list", "extra"], "unrecognized arguments: extra"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_argparse_errors_are_one_usage_error_line(capsys, argv, message):
    # what argparse rejects ends as every usage error does: exit 2, no
    # stdout, and one `usage error:` line with argparse's message
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1 and err.endswith("\n"), err


def test_verify_targets_constant():
    assert VERIFY_TARGETS == (
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


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "grouplattice.cli", "construct", "cyclic", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == gl.dumps_group(gl.cyclic(4))


@pytest.mark.parametrize(
    "args,verify_span",
    [
        (["verify", "theorem-1.1", "--max-order", "16"], "classify.verify"),
        (["verify", "bounds", "--max-order", "12"], "bounds"),
    ],
)
def test_traced_op_matches_the_plain_cli(tmp_path, args, verify_span):
    # the benchmark's traced mode wraps module attributes of the CLI; it
    # must print the same bytes and see the verifier and lattice calls
    root = Path(gl.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    plain = subprocess.run([sys.executable, "-m", "grouplattice.cli", *args], capture_output=True, env=env)
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_op.py"), str(spans_file), "op", *args],
        capture_output=True,
        env=env,
    )
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), traced.stderr
    assert plain.returncode == 0 and plain.stdout
    names = [span["name"] for span in json.loads(spans_file.read_text())["spans"]]
    assert verify_span in names and "lattice.all_subgroups" in names
