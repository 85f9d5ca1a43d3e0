import json

import pytest

from laqcc import cli
from laqcc import program as pr
from laqcc.clifford import CliffordCircuit, CliffordGate


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


def test_prep_dicke_policy_violation_exit_3(capsys):
    code, out, err = run(
        capsys,
        ["prep", "dicke", "--n", "4", "--k", "3", "--method", "small-k"],
    )
    assert code == 3
    assert out == ""
    assert "factoradic" in err


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


def test_prep_exhaustive_downgrades_past_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BRANCH_CAP", 4)
    _, doc, _ = report(capsys, ["prep", "ghz", "--n", "3"])
    assert (doc["branch_mode"], doc["branches_checked"]) == ("exhaustive", 4)
    monkeypatch.setattr(cli, "BRANCH_CAP", 3)
    _, doc, err = report(capsys, ["prep", "ghz", "--n", "3"])
    assert (doc["branch_mode"], doc["branches_checked"]) == ("sample", 100)
    assert "downgrading" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "quantum", "gates": [{"gate": {"name": "nope"},
                                        "qubits": [0]}]},
         "unknown gate 'nope'"),
        ({"kind": "classical", "function_name": "nope"},
         "unknown classical function 'nope'"),
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
