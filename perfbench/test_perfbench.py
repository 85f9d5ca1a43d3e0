"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from laqcc import clifford, program, sparse_state  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (".calls", ".amps_in", "program.branches", "program.peak_support",
          "program.json_bytes", "program.roundtrip_unsupported")


def tiny(workload, seed, index):
    return wl.make_pass(workload, seed, index, "tiny")


def run_tiny(workload, trace, spans_path):
    if trace:
        return bench.trace(workload, 3, spans_path, tiny)
    return bench.measure(workload, 3, 0, tiny)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(
        workload, trace, tmp_path, capsys):
    result = run_tiny(workload, trace, tmp_path / "spans.npz")
    args = bench.parse_args(["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)])
    assert bench.report(args, result) == 0
    *_, context, last = capsys.readouterr().out.strip().splitlines()
    last = json.loads(last)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in last["metrics"].items()}
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float))
    context = json.loads(context)
    assert context["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert context["items"] == last["attempted"]
    assert {"python", "numpy", "scipy", "nproc", "cpu", "git_commit"} <= set(
        context["environment"])
    if trace:
        spans = np.load(tmp_path / "spans.npz")
        calls = sum(m["value"] for name, m in last["metrics"].items()
                    if name.endswith(".calls"))
        assert len(spans["name"]) == calls > 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    def counts():
        result = run_tiny(workload, 1, tmp_path / "spans.npz")
        return {name: value for name, (value, _) in result["metrics"].items()
                if name.endswith(COUNTS)}

    first = counts()
    assert first == counts()
    assert any(first.values())


@pytest.mark.parametrize("workload", ["branch_exhaustive",
                                      "classical_compile"])
def test_traced_run_sees_the_flatten_calls(workload, tmp_path):
    metrics = run_tiny(workload, 1, tmp_path / "spans.npz")["metrics"]
    for name in ("clifford.flatten_ladder", "clifford.flatten_grid"):
        assert metrics[f"{name}.calls"][0] > 0
        assert metrics[f"{name}.self_s"][0] > 0


def test_branch_check_needs_the_helper_bits_it_claims():
    ghz = clifford.ghz(3)
    branches = program.enumerate_branches(ghz)
    keep = tuple(reversed(ghz.registers["ghz"].qubits))
    target = wl.ghz_target(3)
    wl._check_branches("ghz3", branches, keep, target, "record", 4)
    with pytest.raises(wl.CheckFailed, match="helper bits"):
        wl._check_branches("ghz3", branches, keep, target, "zero")
    with pytest.raises(wl.CheckFailed, match="fidelity"):
        wl._check_branches("ghz3", branches, keep, wl.dicke_target(3, 1),
                           "record")


def test_latency_is_divided_by_the_host_slowdown_around_it(monkeypatch):
    slowdowns = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(bench.hs, "slowdown", lambda: next(slowdowns))
    nap = wl.Item("nap", lambda: time.sleep(0.05))
    (scaled, again), failures, around = bench.run_items([nap, nap])
    assert failures == [] and around == [3.0, 2.5]
    assert 0.05 / 3 <= scaled < 0.05
    assert 0.05 / 2.5 <= again < 0.05


def test_host_slowdown_is_positive_and_ignores_laqcc():
    with tr.Tracer() as tracer:
        assert bench.hs.slowdown() > 0
    assert not any(value for name, (value, _) in tracer.metrics().items()
                   if name.endswith(".calls"))


def test_tracer_restores_the_modules():
    before = (program.execute, sparse_state.measure)
    with tr.Tracer():
        assert program.execute is not before[0]
    assert (program.execute, sparse_state.measure) == before


def test_same_seed_same_inputs_other_seed_other_inputs():
    labels = [[item.label for item in tiny("prep_ladder", seed, 0)]
              for seed in (1, 1, 2)]
    assert labels[0] == labels[1] != labels[2]


def wrong_items(workload, seed, index):
    """Items whose reference is deliberately wrong."""
    return [
        wl.dicke_branches_item(4, 2, wl.dicke_target(4, 1)),
        wl.numbersys_item(4, 2, expected=5),
        wl.ghz_branches_item(3),
    ]


def test_wrong_target_is_reported_as_a_failure(capsys):
    result = bench.measure("branch_exhaustive", 1, 0, wrong_items)
    assert result["attempted"] == 3
    assert len(result["failures"]) == 2
    args = bench.parse_args(["--workload", "branch_exhaustive", "--seed",
                             "1", "--seconds", "0"])
    assert bench.report(args, result) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 2


def test_without_laqcc_source_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prep_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
