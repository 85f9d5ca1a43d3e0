import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from laqcc import cli
from laqcc import clifford as cl
from laqcc import program as pr
from laqcc import protocols as pt
from laqcc import sparse_state as ss
from laqcc.clifford import CliffordCircuit, CliffordGate

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_prep_w_exhaustive(capsys):
    code, doc, err = report(
        capsys, ["prep", "w", "--n", "4", "--branches", "exhaustive"]
    )
    assert code == 0
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["protocol"] == "w"
    assert doc["rounds"] == 0
    assert doc["registers_clean"] is True
    assert "fidelity" in err


def test_prep_ghz_report_fields(capsys):
    code, doc, _ = report(capsys, ["prep", "ghz", "--n", "3"])
    assert code == 0
    assert doc["width"] == 5
    assert doc["rounds"] == 1
    assert doc["branches_checked"] == 4
    for field in (
        "protocol",
        "parameters",
        "fidelity",
        "width",
        "charged_width",
        "quantum_depth",
        "rounds",
        "support_max",
        "branches_checked",
        "seed",
        "wall_time_ms",
    ):
        assert field in doc


def test_prep_dicke_factoradic(capsys):
    code, doc, _ = report(
        capsys,
        ["prep", "dicke", "--n", "4", "--k", "2", "--method", "factoradic"],
    )
    assert code == 0
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,k", [(128, 2), (24, 3), (16, 4)])
def test_prep_dicke_small_k_past_the_unfolded_cap(capsys, n, k):
    """Sizes whose Hadamard walls, unfolded, pass the support cap."""
    start = time.monotonic()
    code, doc, _ = report(
        capsys, ["prep", "dicke", "--n", str(n), "--k", str(k)])
    assert time.monotonic() - start < 10
    assert code == 0
    assert doc["fidelity"] >= 1 - 1e-9
    assert doc["registers_clean"] is True
    assert doc["branches_checked"] == math.factorial(k)


def test_prep_dicke_policy_violation_exit_3(capsys):
    code, out, err = run(
        capsys,
        ["prep", "dicke", "--n", "4", "--k", "3", "--method", "small-k"],
    )
    assert code == 3
    assert out == ""
    assert "factoradic" in err


@pytest.mark.parametrize("method", ["small-k", "factoradic"])
def test_prep_dicke_negative_k_exit_3(capsys, method):
    """No protocol prepares k < 0, so both methods give the range of k
    rather than pointing at the other one."""
    code, out, err = run(
        capsys, ["prep", "dicke", "--n", "4", "--k", "-1", "--method", method])
    assert_one_line_exit_3(code, out, err)
    assert err == "error: need 0 <= k <= n\n"


@pytest.mark.parametrize("method", ["small-k", "factoradic"])
@pytest.mark.parametrize("n, k", [(4, 5), (2, 3)])
def test_prep_dicke_k_above_n_exit_3(capsys, n, k, method):
    """No protocol prepares k > n either: both methods give the range of
    k rather than pointing at the other one."""
    code, out, err = run(capsys, [
        "prep", "dicke", "--n", str(n), "--k", str(k), "--method", method])
    assert_one_line_exit_3(code, out, err)
    assert err == "error: need 0 <= k <= n\n"


def test_prep_uniform_sampled(capsys):
    code, doc, _ = report(
        capsys,
        ["prep", "uniform", "--q", "5", "--branches", "sample:10"],
    )
    assert code == 0
    assert doc["branches_checked"] == 10
    assert doc["branch_mode"] == "sample"


def test_prep_missing_parameter_exit_3(capsys):
    code, _, err = run(capsys, ["prep", "uniform"])
    assert code == 3
    assert "requires --q" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["prep", "nonsense"])
    assert excinfo.value.code == 2


def test_seed_determinism_modulo_wall_time(capsys):
    def stripped(argv):
        _, doc, _ = report(capsys, argv)
        doc.pop("wall_time_ms")
        return json.dumps(doc, sort_keys=True)

    argv = ["prep", "ghz", "--n", "3", "--seed", "11"]
    assert stripped(argv) == stripped(argv)


# sha256 of each ``prep`` report as printed (sorted keys, indent 2) with
# ``wall_time_ms`` dropped, taken before signed permutations had their
# own gate kernel; the small-k entry was retaken when ``prep`` began to
# check the Hadamard-folded program (``support_max`` 2304 -> 50, and the
# last digits of ``fidelity``)
PREP_SHA256 = {
    "ghz --n 8 --branches sample:4 --seed 5":
        "a1578cb67a40f5f940f626418fb2c3789093360b255c776845efd39741c5b1b8",
    "w --n 8":
        "8c4b5d0c4b5f1203d3e84bef205cd9f536fa52bd16f4b3feb1ac8e3d83235701",
    "uniform --q 300":
        "f6ea1a870310856fb9834c94e2967d00bce91da3baaf67b3d629c3f42b9eb7e1",
    "dicke --n 6 --k 2":
        "7f256c1263d8067ed48e0a8ad9e94af0adc550141d0f30da7e2a8a7fec968fa6",
    "dicke --n 6 --k 3 --method factoradic":
        "68e267117bf7b83d603a39eec2d4a87219123f251aad5d821b31e3ed12545a4d",
}


@pytest.mark.parametrize("argv", PREP_SHA256)
def test_prep_report_bytes_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.delenv("LAQCC_SEED", raising=False)
    code, doc, _ = report(capsys, ["prep", *argv.split()])
    assert code == 0
    doc.pop("wall_time_ms")
    text = json.dumps(doc, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == PREP_SHA256[argv]


SUBCOMMANDS = [
    ["prep", "w", "--n", "3", "--seed", "2"],
    ["numbers", "fac2comb", "--digits", "2,1,0", "--k", "1"],
    ["prep", "dicke", "--n", "4", "--k", "2", "--method", "factoradic",
     "--seed", "5"],
    ["numbers", "check-bijection", "--n", "4"],
    ["prep", "uniform", "--q", "5", "--branches", "sample:3", "--seed", "1"],
    ["verify"],
]


def outputs(capsys, argv):
    code, out, err = run(capsys, argv)
    if out.startswith("{"):
        doc = json.loads(out)
        doc.pop("wall_time_ms", None)
        out = json.dumps(doc, sort_keys=True)
    return code, out, err


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    """Consecutive ``main`` calls with different subcommands print what
    calls with a fresh parser print, and build the parser once."""
    monkeypatch.delenv("LAQCC_SEED", raising=False)
    fresh = []
    for argv in SUBCOMMANDS:
        cli.build_parser.cache_clear()
        fresh.append(outputs(capsys, argv))
    cli.build_parser.cache_clear()
    assert [outputs(capsys, argv) for argv in SUBCOMMANDS] == fresh
    assert cli.build_parser.cache_info().misses == 1
    with pytest.raises(SystemExit):
        cli.main(["prep", "w", "--n", "x"])
    assert "invalid int value" in capsys.readouterr().err
    assert outputs(capsys, SUBCOMMANDS[0]) == fresh[0]


def test_import_does_not_build_the_parser():
    script = ("import laqcc.cli\n"
              "print(laqcc.cli.build_parser.cache_info().currsize)\n")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("LAQCC_SEED", "42")
    _, doc, _ = report(capsys, ["prep", "w", "--n", "2"])
    assert doc["seed"] == 42


def test_flatten_round_trip(capsys, tmp_path):
    circuit = CliffordCircuit(
        "ladder",
        3,
        1,
        (CliffordGate("H", (0,)), CliffordGate("CNOT", (1, 0))),
    )
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit.to_json()))
    code, out, err = run(capsys, ["flatten", "ladder", "--input", str(path)])
    assert code == 0
    program = pr.program_from_json(json.loads(out))
    assert "outputs" in program.registers
    assert "width 5" in err


def test_flatten_shape_mismatch_exit_3(capsys, tmp_path):
    circuit = CliffordCircuit("ladder", 2, 1, ())
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit.to_json()))
    code, _, err = run(capsys, ["flatten", "grid", "--input", str(path)])
    assert code == 3


def test_transform_defer_and_postselect(capsys, tmp_path):
    from laqcc import clifford as cl

    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(pr.program_to_json(cl.ghz(3))))
    code, out, _ = run(capsys, ["transform", "defer", "--input", str(path)])
    assert code == 0
    deferred = pr.program_from_json(json.loads(out))
    kinds = [type(layer).__name__ for layer in deferred.layers]
    assert kinds.count("MeasureLayer") == 1

    code, out, _ = run(
        capsys,
        ["transform", "postselect", "--input", str(path), "--seed", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert "postselect_flag" in doc
    assert doc["transcript"][0]["label"] == "parity"


def test_numbers_fac2comb(capsys):
    code, doc, _ = report(
        capsys, ["numbers", "fac2comb", "--digits", "2,1,0", "--k", "1"]
    )
    assert code == 0
    assert doc["bits"] == [0, 0, 1]


def test_numbers_comb2fac(capsys):
    code, doc, _ = report(
        capsys,
        [
            "numbers",
            "comb2fac",
            "--bits",
            "0,0,1",
            "--z",
            "1,0",
            "--o",
            "0",
        ],
    )
    assert code == 0
    assert doc["digits"] == [2, 1, 0]


def test_numbers_check_bijection(capsys):
    code, doc, _ = report(capsys, ["numbers", "check-bijection", "--n", "4"])
    assert code == 0
    assert doc["ok"] is True
    assert doc["classes"] == 16  # sum of C(4,k) over k


def test_numbers_bad_input_exit_3(capsys):
    code, _, err = run(
        capsys, ["numbers", "fac2comb", "--digits", "9,1,0", "--k", "1"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["comb2fac", "--bits", "2,0", "--o", "1,0"], "bit 2 is not 0 or 1"),
        (["check-bijection", "--n", "-1"], "--n must be >= 0"),
    ],
)
def test_numbers_out_of_range_input_exit_3(capsys, argv, message):
    code, out, err = run(capsys, ["numbers", *argv])
    assert code == 3
    assert out == ""
    assert message in err


def test_verify_requires_all(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 3
    assert "--all" in err


def test_verify_small_sweep(capsys):
    code, doc, err = report(capsys, ["verify", "--all", "--max-n", "2"])
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["results"]) == 10


def assert_one_line_exit_3(code, out, err):
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("count", ["x", "0", "-3", ""])
def test_prep_bad_sample_count_exit_3(capsys, count):
    code, out, err = run(
        capsys, ["prep", "ghz", "--n", "3", "--branches", f"sample:{count}"]
    )
    assert_one_line_exit_3(code, out, err)
    assert "sample count" in err


def test_prep_negative_seed_exit_3(capsys):
    code, out, err = run(capsys, [
        "prep", "ghz", "--n", "3", "--seed", "-5", "--branches", "sample:2",
    ])
    assert_one_line_exit_3(code, out, err)
    assert "seed must be an integer >= 0" in err


def test_prep_non_integer_seed_env_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("LAQCC_SEED", "x")
    code, out, err = run(capsys, ["prep", "ghz", "--n", "3"])
    assert_one_line_exit_3(code, out, err)
    assert "seed must be an integer >= 0" in err


@pytest.mark.parametrize("max_n", ["-1", "0"])
def test_verify_max_n_below_one_exit_3(capsys, max_n):
    code, out, err = run(capsys, ["verify", "--all", "--max-n", max_n])
    assert_one_line_exit_3(code, out, err)
    assert "--max-n must be >= 1" in err


def test_prep_exhaustive_downgrades_past_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BRANCH_CAP", 4)
    _, doc, _ = report(capsys, ["prep", "ghz", "--n", "3"])
    assert (doc["branch_mode"], doc["branches_checked"]) == ("exhaustive", 4)
    monkeypatch.setattr(cli, "BRANCH_CAP", 3)
    _, doc, err = report(capsys, ["prep", "ghz", "--n", "3"])
    assert (doc["branch_mode"], doc["branches_checked"]) == ("sample", 100)
    assert "downgrading" in err


@pytest.mark.parametrize("branches", ["exhaustive", "sample:2"])
def test_prep_past_the_support_cap_exit_3(capsys, monkeypatch, branches):
    monkeypatch.setattr(ss, "MAX_SUPPORT", 1 << 10)
    code, out, err = run(
        capsys, ["prep", "ghz", "--n", "16", "--branches", branches])
    assert_one_line_exit_3(code, out, err)
    assert "more than the cap of 1024" in err


@pytest.mark.parametrize("argv", [
    ["prep", "uniform", "--q", "1099511627776"],
    ["prep", "dicke", "--n", "60", "--k", "8"],
    ["prep", "dicke", "--n", "32", "--k", "8", "--method", "factoradic"],
    ["prep", "w", "--n", str(ss.MAX_SUPPORT + 1)],
    ["numbers", "check-bijection", "--n", "11"],
])
def test_past_the_support_cap_is_refused_before_building_exit_3(
    capsys, argv
):
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert time.monotonic() - start < 1.0
    assert_one_line_exit_3(code, out, err)
    assert str(ss.MAX_SUPPORT) in err


def test_a_target_at_the_support_cap_is_built(capsys, monkeypatch):
    monkeypatch.setattr(ss, "MAX_SUPPORT", 1 << 10)
    code, doc, _ = report(capsys, ["prep", "uniform", "--q", "1024"])
    assert (code, doc["parameters"]) == (0, {"q": 1024})

    def never(*args):
        raise AssertionError("target built past the cap")

    monkeypatch.setattr(pt, "uniform_target", never)
    code, out, err = run(capsys, ["prep", "uniform", "--q", "1025"])
    assert_one_line_exit_3(code, out, err)


def test_check_bijection_stops_at_the_support_cap(capsys, monkeypatch):
    monkeypatch.setattr(ss, "MAX_SUPPORT", 5040)  # 7!
    code, doc, _ = report(capsys, ["numbers", "check-bijection", "--n", "7"])
    assert (code, doc["ok"]) == (0, True)
    code, out, err = run(capsys, ["numbers", "check-bijection", "--n", "8"])
    assert_one_line_exit_3(code, out, err)
    assert "8! factoradics" in err


def test_transform_postselect_past_the_support_cap_exit_3(
    capsys, monkeypatch, tmp_path
):
    monkeypatch.setattr(ss, "MAX_SUPPORT", 1 << 10)
    path = tmp_path / "ghz16.json"
    path.write_text(pr.dumps(cl.ghz(16)))
    code, out, err = run(
        capsys, ["transform", "postselect", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert "more than the cap of 1024" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "quantum", "gates": [{"gate": {"name": "nope"},
                                        "qubits": [0]}]},
         "unknown gate 'nope'"),
        ({"kind": "classical", "function_name": "nope"},
         "unknown classical function 'nope'"),
        ({"kind": "quantum", "gates": [{"gate": {"name": "inverse", "params": {
            "gate": {"name": "parity", "params": {
                "label": "parity", "control_bits": 1, "mask": 1,
                "gate": cl.X_GATE.spec}}}},
            "qubits": [0]}]},
         "parity has no inverse form"),
    ],
)
def test_transform_unknown_name_exit_3(capsys, tmp_path, entry, message):
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"qubits": 1, "layers": [entry]}))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "argv", [["transform", "defer"], ["flatten", "ladder"]]
)
def test_malformed_json_exit_3(capsys, tmp_path, argv):
    path = tmp_path / "broken.json"
    path.write_text('{"qubits": 1,')
    code, out, err = run(capsys, argv + ["--input", str(path)])
    assert_one_line_exit_3(code, out, err)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"qubits": 1}, "missing key 'layers'"),
        ({"layers": []}, "missing key 'qubits'"),
        ({"qubits": 1, "layers": [{"kind": "measure", "qubits": [0]}]},
         "missing key 'label'"),
        ([{"qubits": 1, "layers": []}], "expected a JSON object"),
    ],
)
def test_transform_missing_key_exit_3(capsys, tmp_path, doc, message):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


def test_flatten_missing_key_exit_3(capsys, tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n": 3}))
    code, out, err = run(capsys, ["flatten", "ladder", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert "missing key 'shape'" in err


def ghz3_conditioned_on(condition):
    """``ghz(3)`` JSON with its last X conditioned on ``condition``."""
    doc = pr.program_to_json(cl.ghz(3))
    doc["layers"][-1]["gates"][-1]["condition"] = condition
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"qubits": "x", "layers": []}, "'qubits' must be an integer >= 0"),
        ({"qubits": -2, "layers": []}, "'qubits' must be an integer >= 0"),
        ({"qubits": True, "layers": []}, "'qubits' must be an integer >= 0"),
        ({"qubits": 1, "layers": [{"kind": "measure", "qubits": ["0"],
                                   "label": "m"}]},
         "'qubits' must be a list of integers >= 0"),
        ({"qubits": 1, "layers": [{"kind": "quantum", "gates": [
            {"gate": {"name": "matrix", "params": {"foo": 1}},
             "qubits": [0]}]}]},
         "bad params for gate 'matrix'"),
        ({"qubits": 1, "layers": 5}, "'layers' must be a list"),
        ({"qubits": 1, "layers": [{"kind": "quantum", "gates": [
            {"gate": {"name": "and_flags", "params": {"bits": 0}},
             "qubits": [0], "condition": 5}]}]},
         "'condition' must be a list"),
        ({"qubits": 1, "layers": [{"kind": "quantum", "gates": [
            {"gate": {"name": "and_flags", "params": {"bits": 0}},
             "qubits": [0], "condition": ["fix"]}]}]},
         "'condition' must be [layer name, flag name]"),
        ({"qubits": 3, "layers": [{"kind": "classical",
                                   "function_name": "linear",
                                   "params": {"m": 2}}]},
         "bad params for classical function 'linear'"),
        (ghz3_conditioned_on(["parity_fix", "flip9"]),
         "condition references key 'flip9' that layer 'parity_fix' does not"
         " publish"),
        ({"qubits": 1, "layers": [{"kind": "measure", "qubits": [0],
                                   "label": ["m"]}]},
         "'label' must be a string, got ['m']"),
        ({"qubits": 1, "registers": {"out": {"qubits": [0], "role": {}}},
          "layers": []},
         "'role' must be a string, got {}"),
        ({"qubits": 1, "layers": [{"kind": "quantum", "gates": [
            {"gate": {"name": ["H"]}, "qubits": [0]}]}]},
         "'name' must be a string, got ['H']"),
        ({"qubits": 1, "layers": [{"kind": "quantum", "gates": [
            {"gate": {"name": "diagonal", "params": {
                "label": ["M"], "phases": [[1, 0], [1, 0]]}},
             "qubits": [0]}]}]},
         "gate label must be a string, got ['M']"),
    ],
)
def test_transform_wrong_type_exit_3(capsys, tmp_path, doc, message):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


def test_transform_a_spec_that_differs_only_by_true_exit_3(capsys, tmp_path):
    """``"wires": true`` after ``"wires": 1`` in the same spec is not
    served the first entry's gate: it fails as it does on its own."""
    def entry(wires):
        return {"gate": {"name": "clifford", "params": {
            "label": "H", "wires": wires, "word": "H(0)"}}, "qubits": [0]}

    path = tmp_path / "program.json"
    path.write_text(json.dumps({"qubits": 1, "layers": [
        {"kind": "quantum", "gates": [entry(1)]},
        {"kind": "quantum", "gates": [entry(True)]}]}))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert err == "error: a clifford gate spans 1 or 2 wires, got True\n"


def _linear_doc(**params):
    return {"qubits": 2, "layers": [
        {"kind": "measure", "qubits": [0, 1], "label": "m"},
        {"kind": "classical", "function_name": "linear",
         "params": {"name": "c", "reads": "m", "outputs": {"b": 1},
                    **params}}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_linear_doc(outputs={"b": True}),
         "linear output 'b' needs a mask that is an integer >= 0, got True"),
        (_linear_doc(outputs={"b": 3, "c": -1}),
         "linear output 'c' needs a mask that is an integer >= 0, got -1"),
        (_linear_doc(outputs={"b": 1.0}), "an integer >= 0, got 1.0"),
        (_linear_doc(outputs=[1, 2]),
         "linear outputs must be an object, got [1, 2]"),
        (_linear_doc(reads=["m"]), "linear name and reads must be strings"),
        (_linear_doc(depth="NC1"),
         "bad params for classical function 'linear'"),
        (_linear_doc(outputs={"b": 0b100}),
         "classical layer 'c' output 'b' selects a bit outside the 2-bit"
         " word 'm'"),
    ],
)
def test_transform_rejects_malformed_linear_layer_exit_3(
    capsys, tmp_path, doc, message
):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


def _parity_doc(**params):
    return {"qubits": 2, "layers": [{"kind": "quantum", "gates": [
        {"gate": {"name": "parity", "params": {
            "label": "p", "control_bits": 1, "mask": 1,
            "gate": cl.X_GATE.spec, **params}},
         "qubits": [0, 1]}]}]}


PARITY = ("parity needs an integer mask >= 0 within an integer"
          " control_bits >= 0")


@pytest.mark.parametrize(
    "doc, message",
    [
        (_parity_doc(mask=0b10), PARITY + ", got 2 and 1"),
        (_parity_doc(mask=-1), PARITY + ", got -1 and 1"),
        (_parity_doc(mask=True), PARITY + ", got True and 1"),
        (_parity_doc(mask=1.0), PARITY + ", got 1.0 and 1"),
        (_parity_doc(control_bits=-1), PARITY + ", got 1 and -1"),
        (_parity_doc(control_bits=1.0), PARITY + ", got 1 and 1.0"),
        (_parity_doc(control_bits=True), PARITY + ", got 1 and True"),
        (_parity_doc(gate={"name": "toffoli"}), "unknown gate 'toffoli'"),
        (_parity_doc(control_bits=2), "gate p arity mismatch"),
    ],
)
def test_transform_rejects_malformed_parity_gate_exit_3(
    capsys, tmp_path, doc, message
):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


def test_transform_defer_writes_a_wide_word_as_parity_masks(
    capsys, tmp_path
):
    # 63 line outcomes condition the GHZ fix-up: past any 2^k table
    path = tmp_path / "program.json"
    path.write_text(pr.dumps(cl.ghz(64)))
    code, out, _ = run(capsys, ["transform", "defer", "--input", str(path)])
    assert code == 0
    names = [app.gate.spec["name"] for layer in pr.loads(out).layers
             if isinstance(layer, pr.QuantumLayer) for app in layer.apps]
    assert names.count("parity") == 63
    assert '"table"' not in out


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "classical", "function_name": name,
          "params": {"n": 2}}, f"unknown classical function {name!r}")
        for name in ("bell_correct", "ghz_parity_fix", "ordering")
    ] + [
        ({"kind": "quantum", "gates": [
            {"gate": {"name": name}, "qubits": [0]}]},
         f"unknown gate {name!r}")
        for name in ("set_flag", "sort_indexes")
    ] + [
        # the hand-written table form of a predicated gate
        ({"kind": "quantum", "gates": [{"gate": {
            "name": "predicated", "params": {
                "label": "p", "control_bits": 1, "table": [0, 1],
                "gate": cl.X_GATE.spec}}, "qubits": [0, 1]}]},
         "unknown gate 'predicated'"),
    ],
)
def test_transform_rejects_retired_names_exit_3(
    capsys, tmp_path, entry, message
):
    doc = {"qubits": 2, "layers": [
        {"kind": "measure", "qubits": [1], "label": "parity"}, entry]}
    path = tmp_path / "program.json"
    path.write_text(json.dumps(doc))
    for kind in ("defer", "postselect"):
        code, out, err = run(
            capsys, ["transform", kind, "--input", str(path)])
        assert_one_line_exit_3(code, out, err)
        assert message in err


def _matrix_doc(qubits, rows):
    entries = [[[float(v), 0.0] for v in row] for row in rows]
    return {"qubits": qubits, "layers": [{"kind": "quantum", "gates": [
        {"gate": {"name": "matrix", "params": {"label": "M",
                                               "matrix": entries}},
         "qubits": list(range(qubits))}]}]}


def _predicated_doc(table, control_bits=1):
    return {"qubits": 2, "layers": [{"kind": "quantum", "gates": [
        {"gate": {"name": "predicated", "params": {
            "label": "p", "control_bits": control_bits, "table": table,
            "gate": cl.X_GATE.spec}},
         "qubits": [0, 1]}]}]}


# Table files the retired 'predicated' entry once refused for their table;
# they keep their case names and are now refused as an unknown gate.
PREDICATED_TABLES = [
    pytest.param(
        _predicated_doc(table, *bits), "unknown gate 'predicated'",
        id=f"doc{i}-predicated needs 2^control_bits table entries")
    for i, (table, *bits) in enumerate(
        [([1],), ([0, 1, 1],), ([0, 2],), ([0, 1.0],), ([0, 1], 10 ** 9),
         ([0, 1], "1")], start=4)
]


@pytest.mark.parametrize("kind", ["defer", "postselect"])
@pytest.mark.parametrize(
    "doc, message",
    [
        (_matrix_doc(1, [[2, 0], [0, 1]]), "not unitary within 1e-12"),
        (_matrix_doc(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
         "is not 2^k x 2^k"),
        ({"qubits": 1, "layers": [{"kind": "measure", "qubits": [5],
                                   "label": "m"}]},
         "qubit 5 out of range"),
        ({"qubits": 2, "layers": [{"kind": "measure", "qubits": [0, 0],
                                   "label": "m"}]},
         "repeats a qubit"),
    ] + PREDICATED_TABLES,
)
def test_transform_rejects_invalid_program_exit_3(
    capsys, tmp_path, kind, doc, message
):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["transform", kind, "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


def _clifford_doc(wires, word):
    return {"qubits": 3, "layers": [{"kind": "quantum", "gates": [
        {"gate": {"name": "clifford", "params": {
            "label": "U", "wires": wires, "word": word}},
         "qubits": list(range(wires))}]}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_clifford_doc(2, "T(0)"), "non-generator gate 'T'"),
        (_clifford_doc(2, "CNOT(0)"), "CNOT arity mismatch"),
        (_clifford_doc(2, "H(2)"), "H(2) is outside a 2-wire gate"),
        (_clifford_doc(2, "CNOT(1,1)"), "CNOT repeats a wire"),
        (_clifford_doc(2, "H 0"), "malformed Clifford word token 'H'"),
        (_clifford_doc(3, "H(0)"), "spans 1 or 2 wires, got 3"),
        (_clifford_doc(True, "H(0)"), "spans 1 or 2 wires, got True"),
        (_clifford_doc(2, 5), "word must be a string, got 5"),
        (_clifford_doc(2, ["H(0)"]), "word must be a string"),
    ],
)
def test_transform_rejects_malformed_clifford_word_exit_3(
    capsys, tmp_path, doc, message
):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


H_ENTRY = {"gate": cl.H_GATE.spec, "qubits": [0]}


@pytest.mark.parametrize(
    "layers, message",
    [
        ([{"kind": "quantum", "gates": [H_ENTRY]},
          {"kind": "measure", "qubits": [0], "label": "a"},
          {"kind": "quantum", "gates": [H_ENTRY]}],
         "'H' on qubit 0 acts after a measurement of qubit 0"),
        ([{"kind": "measure", "qubits": [0], "label": "a"},
          {"kind": "measure", "qubits": [0], "label": "b"}],
         "qubit 0 is measured twice"),
    ],
)
def test_transform_defer_keeps_measured_qubits_exit_3(
    capsys, tmp_path, layers, message
):
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"qubits": 1, "layers": layers}))
    code, out, err = run(capsys, ["transform", "defer", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"shape": "ladder", "n": "3", "gates": []},
         "'n' must be an integer >= 0"),
        ({"shape": "grid", "n": 3, "depth": 1.5, "gates": []},
         "'depth' must be an integer >= 0"),
        ({"shape": "ladder", "n": 3,
          "gates": [{"name": "H", "qubits": [False]}]},
         "'qubits' must be a list of integers >= 0"),
        ({"shape": ["ladder"], "n": 3, "gates": []},
         "'shape' must be a string, got ['ladder']"),
        ({"shape": "ladder", "n": 3, "gates": [{"name": {}, "qubits": [0]}]},
         "'name' must be a string, got {}"),
    ],
)
def test_flatten_wrong_type_exit_3(capsys, tmp_path, doc, message):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    shape = doc["shape"] if isinstance(doc["shape"], str) else "ladder"
    code, out, err = run(capsys, ["flatten", shape, "--input", str(path)])
    assert_one_line_exit_3(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "gate",
    [
        {"name": "T", "qubits": [0]},
        {"name": "CNOT", "qubits": [0]},
        {"name": "H", "qubits": [0, 1]},
        {"name": "CNOT", "qubits": [0, 0]},
        {"name": "CNOT", "qubits": [0, 2]},
    ],
)
def test_flatten_rejects_gate_outside_the_rules_exit_3(capsys, tmp_path, gate):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"shape": "ladder", "n": 3, "gates": [gate]}))
    code, out, err = run(capsys, ["flatten", "ladder", "--input", str(path)])
    assert_one_line_exit_3(code, out, err)


WIDE = 1100  # a CNOT ladder on WIDE wires has masks of 2,196 bits


@pytest.mark.parametrize("argv, doc", [
    (["flatten", "ladder"],
     {"shape": "ladder", "n": WIDE, "gates": [
         {"name": "CNOT", "qubits": [i, i + 1]} for i in range(WIDE - 1)]}),
    (["transform", "defer"],
     {"qubits": 2 * WIDE, "layers": [
         {"kind": "measure", "qubits": list(range(2 * WIDE)), "label": "m"},
         {"kind": "classical", "function_name": "linear", "params": {
             "name": "c", "reads": "m", "outputs": {"b": 1 << 2 * WIDE - 1}}},
     ]}),
])
def test_a_mask_past_the_int_digit_limit_exit_3(tmp_path, argv, doc):
    """A ``linear`` mask longer than Python converts between int and str
    exits 3 with one error line and no program.  The run lowers the
    limit to its floor, 640 digits, which a 2,196-bit mask (661 digits)
    passes, so no ladder past 4,300 digits is built; it runs in its own
    process, as the flattening would crowd the shared gates out of the
    ``clifford`` memo of this one."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    done = subprocess.run(
        [sys.executable, "-m", "laqcc.cli", *argv, "--input", str(path)],
        capture_output=True, text=True, env={
            **os.environ, "PYTHONPATH": str(SRC),
            "PYTHONINTMAXSTRDIGITS": "640"})
    assert_one_line_exit_3(done.returncode, done.stdout, done.stderr)
    assert "(640 digits)" in done.stderr


def count_walks(monkeypatch):
    calls = []
    walk = pr._walk

    def counting(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(pr, "_walk", counting)
    return calls


@pytest.mark.parametrize(
    "branches, shots", [("sample:10", 10), ("exhaustive", 0)]
)
def test_prep_runs_each_checked_branch_once(capsys, monkeypatch,
                                            branches, shots):
    """Every branch a prep checks comes from one walk of the program:
    ``shots`` seeded shots walk as one batch, and enumerating this
    program, which measures nothing, checks its one branch."""
    calls = count_walks(monkeypatch)
    code, doc, _ = report(
        capsys, ["prep", "uniform", "--q", "5", "--branches", branches]
    )
    assert code == 0
    assert len(calls) == 1
    assert doc["branches_checked"] == (shots or 1)


@pytest.mark.parametrize(
    "argv, build",
    [
        (["ghz", "--n", "4"], lambda: cl.ghz(4)),
        (["w", "--n", "8"], lambda: pt.w_state(8)[0]),
        (["uniform", "--q", "5"], lambda: pt.uniform_superposition(5)[0]),
        (["uniform", "--q", "300"],
         lambda: pt.uniform_superposition(300)[0]),
        (["dicke", "--n", "4", "--k", "2"],
         lambda: pr.fold_hadamard(pt.dicke_small_k(4, 2)[0])),
        (["dicke", "--n", "6", "--k", "3", "--method", "factoradic"],
         lambda: pt.dicke_factoradic(6, 3)[0]),
    ],
)
def test_prep_support_max_is_the_one_shot_peak(capsys, argv, build):
    """``support_max`` is the peak of the program ``prep`` checks: the
    Hadamard-folded one for small-k Dicke."""
    _, doc, _ = report(capsys, ["prep", *argv, "--seed", "3"])
    assert doc["support_max"] == pt.max_support(build(), pr.SeededPolicy(3))


PROTOCOL_PROGRAMS = {
    "ghz3": lambda: cl.ghz(3),
    "w4": lambda: pt.w_state(4)[0],
    "w5": lambda: pt.w_state(5)[0],
    "uniform5": lambda: pt.uniform_superposition(5)[0],
    "small_k4,1": lambda: pt.dicke_small_k(4, 1)[0],
    "small_k4,2": lambda: pt.dicke_small_k(4, 2)[0],
    "factoradic4,2": lambda: pt.dicke_factoradic(4, 2)[0],
}


@pytest.mark.parametrize("kind", ["defer", "postselect"])
@pytest.mark.parametrize("name", sorted(PROTOCOL_PROGRAMS))
def test_transform_takes_every_protocol_json(capsys, tmp_path, kind, name):
    path = tmp_path / "program.json"
    path.write_text(pr.dumps(PROTOCOL_PROGRAMS[name]()))
    code, out, err = run(
        capsys, ["transform", kind, "--input", str(path), "--seed", "3"]
    )
    if kind == "defer" and name == "small_k4,2":
        # the sort reads the measured rank qubits, so no coherent form
        # exists
        assert_one_line_exit_3(code, out, err)
        assert err == (
            "error: gate 'sort_by_ranks' on qubit 11 acts after a measurement"
            " of qubit 11; it cannot be deferred coherently\n"
        )
        return
    assert code == 0
    doc = json.loads(out)
    again = pr.program_to_json(pr.program_from_json(doc))
    assert {key: doc[key] for key in again} == again  # it loads back
