"""Static checks on the package source and on what it imports, with the
standard library only, and one count of gate-function calls that keeps
the map kernels to one call per application."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "laqcc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import math\nimport os\nfrom typing import List\nos.sep\n"
    assert unused_imports(source) == [(1, "math"), (3, "List")]


def unreferenced_private_names(source: str):
    """Top-level functions, classes and constants named with one leading
    underscore that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
    private = {name: line for name, line in defined.items()
               if name.startswith("_") and not name.startswith("__")}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in private.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    assert unreferenced_private_names(path.read_text()) == []


def test_scan_flags_an_unreferenced_private_name():
    source = (
        "_USED = 1\n_ORPHAN: int = 2\n__dunder__ = 3\n"
        "def _helper():\n    return _USED\n"
        "def _left():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    assert unreferenced_private_names(source) == [
        (2, "_ORPHAN"), (6, "_left"), (8, "_Gone")]


def identifiers(source: str):
    """Every name that ``source`` defines, reads, imports or reaches as
    an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def engine_measure_uses(source: str):
    """Where ``source`` reaches ``sparse_state.measure``: as ``ss.measure``
    or through an import of the name."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "measure"
        and isinstance(node.value, ast.Name) and node.value.id == "ss"
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").endswith("sparse_state")
        and "measure" in {alias.name for alias in node.names})


def test_one_collapse():
    """Every branch comes from the one collapse, ``branch_enumerate``:
    the walks in ``program.py`` never call ``ss.measure``, and no name
    ``_collapse`` is left in the package."""
    assert engine_measure_uses((PACKAGE / "program.py").read_text()) == []
    assert [p.name for p in MODULES
            if "_collapse" in identifiers(p.read_text())] == []
    assert engine_measure_uses(
        "from . import sparse_state as ss\nss.measure(s, q)\n"
        "from .sparse_state import measure\nb.measure(q, 'm')\n") == [2, 3]
    assert "_collapse" in identifiers("x = ss._collapse(s, m, p)\n")


def test_one_registry():
    """Gates are the format's one registry: a classical layer checks and
    writes itself, so no classical registry is left."""
    gone = {"CLASSICAL_REGISTRY", "register_classical", "_stamping"}
    assert [p.name for p in MODULES
            if gone & set(identifiers(p.read_text()))] == []


def test_per_application_records_are_named_tuples():
    """``GateApp``, ``MeasurementEvent`` and ``Branch`` are built once
    per application, outcome or branch, so they are named tuples, built
    without a Python-level ``__init__``, with their fields in order."""
    from laqcc import program as pr

    fields = {
        pr.GateApp: ("gate", "qubits", "condition"),
        pr.MeasurementEvent: ("label", "qubits", "outcome", "probability"),
        pr.Branch: ("record", "probability", "state", "peak_support"),
    }
    for record, names in fields.items():
        assert issubclass(record, tuple) and record._fields == names
    assert pr.GateApp._field_defaults == {"condition": None}
    assert pr.MeasurementEvent._field_defaults == {}
    assert pr.Branch._field_defaults == {}


def test_the_cli_writes_and_reads_programs_through_dumps_and_loads():
    """``program.dumps`` and ``program.loads`` are the one program writer
    and reader: a CLI that names ``program_to_json`` (or
    ``program_from_json``) has grown a second one."""
    source = (PACKAGE / "cli.py").read_text()
    assert "program_to_json" not in source
    assert "program_from_json" not in source
    assert "pr.dumps(" in source and "pr.loads(" in source


def test_cli_import_pulls_in_numpy_only():
    """numpy is the one third-party runtime dependency, so a fresh
    interpreter that imports the CLI has not loaded scipy."""
    script = (
        "import sys\n"
        "import laqcc.cli\n"
        "print('scipy' in sys.modules, 'numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_prep_leaves_numpy_ma_unloaded():
    """``np.unique`` without ``return_inverse`` imports ``numpy.ma``
    (about 1 MB resident) on first use; no kernel a prep runs needs it."""
    script = (
        "import contextlib, io, sys\n"
        "from laqcc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    for argv in (['prep', 'w', '--n', '5'], ['prep', 'dicke', '--n',"
        " '4', '--k', '2', '--method', 'factoradic']):\n"
        "        assert cli.main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


README = PACKAGE.parents[1] / "README.md"


def readme_names(heading: str):
    """The backticked names of the README paragraph that opens with
    ``heading``, in the order written."""
    text = README.read_text()
    start = text.index(heading)
    paragraph = text[start:text.index("\n\n", start)]
    return re.findall(r"`([^`]+)`", paragraph)


def test_readme_lists_every_registered_name():
    """After every module is imported, the README's list of registered
    gate names is exactly the gate registry's keys, the format's one
    registry."""
    modules = "\n".join(f"import laqcc.{p.stem}" for p in MODULES)
    script = (
        f"{modules}\n"
        "import json\n"
        "from laqcc import program\n"
        "print(json.dumps(sorted(program.GATE_REGISTRY)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    gates = json.loads(done.stdout)
    assert sorted(readme_names("Registered gate names:")) == gates
    assert "Registered classical names" not in README.read_text()


KERNELS = ("apply_basis_map", "apply_phase_map", "apply_predicated")


def kernel_loops(source: str,
                 names=KERNELS + ("apply_unitary", "apply_plus_phase")):
    """The loops and comprehensions in the top-level functions ``names``
    of ``source``, by default the map kernels, the dense kernel and the
    reflection kernel: a per-pattern Python call, or a per-branch
    product, would need one."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return sorted(
        (node.name, type(inner).__name__)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in names
        for inner in ast.walk(node) if isinstance(inner, loops)
    )


def test_map_kernels_have_no_loop():
    source = (PACKAGE / "sparse_state.py").read_text()
    assert kernel_loops(source) == []
    assert kernel_loops(
        "def apply_phase_map(s, f, t):\n    return [f(p) for p in t]\n"
    ) == [("apply_phase_map", "ListComp")]


# the dense-run kernel; ``_to_back``, which permutes its list of axes,
# loops over the run's qubits only
DENSE_RUN = ("apply_unitaries", "_stretch", "_run_tensor", "_alone",
             "_group", "_placements")


def walked(source: str, names) -> list:
    """``(function, loop, what it walks)`` for every loop and
    comprehension in the top-level functions ``names`` of ``source``:
    a loop's iterable, a ``while``'s condition."""
    out = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in names):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.For):
                overs = [inner.iter]
            elif isinstance(inner, ast.While):
                overs = [inner.test]
            elif isinstance(inner, (ast.ListComp, ast.SetComp,
                                    ast.DictComp, ast.GeneratorExp)):
                overs = [gen.iter for gen in inner.generators]
            else:
                continue
            out += [(node.name, type(inner).__name__, over) for over in overs]
    return out


def test_dense_run_kernel_loops_over_the_run_only():
    """Every loop of the dense-run kernel walks the run's gates (it
    names ``run``), none a pattern or a branch, and the tensor kernel
    has one loop: each gate is one product over the whole tensor."""
    source = (PACKAGE / "sparse_state.py").read_text()
    loops = walked(source, DENSE_RUN)
    assert {name for name, _, _ in loops} == {
        "apply_unitaries", "_stretch", "_run_tensor"}
    for name, kind, over in loops:
        names = {n.id for n in ast.walk(over) if isinstance(n, ast.Name)}
        assert "run" in names, (name, kind, ast.unparse(over))
    assert [(kind, ast.unparse(over)) for name, kind, over in loops
            if name == "_run_tensor"] == [("For", "enumerate(run, done + 1)")]
    bad = walked("def _alone(out, live):\n    for b in live: pass\n",
                 DENSE_RUN)
    assert [(name, kind) for name, kind, _ in bad] == [("_alone", "For")]


def test_permutation_runs_have_one_loop():
    """A run of signed permutations, with masks or without, goes through
    the one ``for`` of ``apply_permutations``: no second copy of the
    loop, and no second memo of the placements."""
    source = (PACKAGE / "sparse_state.py").read_text()
    loops = walked(source, ("apply_permutations",))
    assert [(kind, ast.unparse(over)) for _, kind, over in loops
            if kind == "For"] == [("For", "run")]
    for path in MODULES:
        assert not re.search(r"\b(_apply_to_some|_placed)\b",
                             path.read_text()), path.name


def called(source: str, name: str) -> set:
    """The names that the top-level function ``name`` of ``source``
    calls."""
    (node,) = [node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return {inner.func.id for inner in ast.walk(node)
            if isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)}


def test_classical_layers_and_the_deferral_predicate_have_no_loop():
    """A classical layer is evaluated on every branch, and a deferred
    condition on every amplitude, without a Python loop: the predicated
    kernel counts the bits of ``controls & mask`` with one popcount,
    with no pass over the distinct patterns and no function of them."""
    program = (PACKAGE / "program.py").read_text()
    state = (PACKAGE / "sparse_state.py").read_text()
    assert kernel_loops(program, ("_classical",)) == []
    assert kernel_loops(state, ("apply_predicated",)) == []
    calls = called(state, "apply_predicated")
    assert {"popcount", "_gather"} <= calls
    assert "_distinct" not in calls and "apply" in calls
    assert not re.search(r"_odd_parity|\bpredicate\b",
                         program + state)


def test_map_gate_functions_run_once_per_application(monkeypatch):
    """Across every acceptance program, each basis-map and phase-map
    application calls its gate's function exactly once, on the array of
    distinct patterns; a predicated one holds its gate's mask, an
    ``int``, and no function."""
    import numpy as np

    from laqcc import sparse_state as ss
    from laqcc import verify

    calls = {name: [] for name in KERNELS}

    def counting(name, kernel):
        def counted(state, fn, *rest):
            seen = []

            def fn_once(patterns):
                seen.append(patterns)
                return fn(patterns)

            out = kernel(state, fn_once, *rest)
            assert len(seen) == 1 and isinstance(seen[0], np.ndarray)
            calls[name].append(len(seen))
            return out
        return counted

    predicated = ss.apply_predicated

    def masked(state, mask, *rest):
        assert type(mask) is int
        calls["apply_predicated"].append(mask)
        return predicated(state, mask, *rest)

    for name in ("apply_basis_map", "apply_phase_map"):
        monkeypatch.setattr(ss, name, counting(name, getattr(ss, name)))
    monkeypatch.setattr(ss, "apply_predicated", masked)
    results = verify.run_all()
    assert [r["name"] for r in results if not r["passed"]] == []
    assert len(calls["apply_basis_map"]) > 100
    assert len(calls["apply_phase_map"]) > 100
    assert calls["apply_predicated"]


def test_bit_movement_tables_stay_within_their_byte_bound():
    """After every acceptance program, the memo of bit-movement tables
    holds at most ``TABLE_BYTES``, as its own count says."""
    from laqcc import sparse_state as ss
    from laqcc import verify

    assert [r["name"] for r in verify.run_all() if not r["passed"]] == []
    held = sum(table.nbytes for tables in ss._TABLES.values()
               for table in tables)
    assert 0 < held == ss._TABLES.held <= ss.TABLE_BYTES


@pytest.mark.parametrize("n", range(4, 9))
def test_ghz_applies_each_run_of_permutations_in_one_call(n, monkeypatch):
    """Enumerating ``ghz(n)`` calls the permutation kernel once per CNOT
    layer, on all its n - 1 gates and every branch, and once for the
    correction layer, on every X gate with the branches it applies to:
    the same three calls for every n, never one per branch or gate."""
    from laqcc import clifford as cl
    from laqcc import program as pr
    from laqcc import sparse_state as ss

    runs = []  # per call, (images, labels it applies to or None) per gate
    kernel = ss.apply_permutations

    def counted(state, run):
        runs.append([(images.tolist(), which[0].tolist() if which else None)
                     for images, _, _, *which in run])
        return kernel(state, run)

    monkeypatch.setattr(ss, "apply_permutations", counted)
    branches = pr.enumerate_branches(cl.ghz(n))
    cnot, x = [0, 1, 3, 2], [1, 0]
    assert len(branches) == 1 << (n - 1)
    assert len(runs) == 3
    assert runs[:2] == [[(cnot, None)] * (n - 1)] * 2
    # carrier j flips on the parity of the first j outcome bits, and
    # label i is branch i
    assert runs[2] == [
        (x, [bool(bin(b.record[0].outcome >> (n - 1 - j)).count("1") & 1)
             for b in branches])
        for j in range(1, n)
    ]
    assert [sum(which) for _, which in runs[2]] == [1 << (n - 2)] * (n - 1)
