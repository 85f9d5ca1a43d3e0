import json
import math

import numpy as np
import pytest

from laqcc import clifford as cl
from laqcc import program as pr
from laqcc import protocols as pt
from laqcc import sparse_state as ss

H = pr.MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))
X = pr.MatrixGate("X", np.array([[0, 1], [1, 0]]))


def feedforward_program() -> pr.LaqccProgram:
    ident = pr.ClassicalLayer(
        "c", lambda o: {"bit": o["m"] & 1}, reads=("m",)
    )
    return pr.LaqccProgram(
        2,
        layers=[
            pr.QuantumLayer((pr.GateApp(H, (0,)),)),
            pr.MeasureLayer((0,), "m"),
            ident,
            pr.QuantumLayer((pr.GateApp(X, (1,), ("c", "bit")),)),
        ],
    )


def test_empty_program():
    program = pr.LaqccProgram(1)
    state, record = pr.execute(program, pr.SeededPolicy(0))
    assert record == ()
    assert set(state.amplitudes) == {0}


def test_feedforward_forced_one():
    state, record = pr.execute(
        feedforward_program(), pr.ForcedPolicy((1,))
    )
    assert set(state.amplitudes) == {0b11}
    assert record[0].outcome == 1
    assert record[0].probability == pytest.approx(0.5)


def test_feedforward_forced_zero():
    state, _ = pr.execute(feedforward_program(), pr.ForcedPolicy((0,)))
    assert set(state.amplitudes) == {0b00}


def test_enumerate_branches_covers_all():
    branches = pr.enumerate_branches(feedforward_program())
    assert len(branches) == 2
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    finals = {next(iter(b.state.amplitudes)) for b in branches}
    assert finals == {0b00, 0b11}


def test_enumeration_cap_is_exact():
    with pytest.raises(RuntimeError):
        pr.enumerate_branches(cl.ghz(3), max_branches=3)
    assert len(pr.enumerate_branches(cl.ghz(3), max_branches=4)) == 4


def test_observer_fires_once_per_layer_in_order():
    program = feedforward_program()
    seen = []
    state, _ = pr.execute(program, pr.ForcedPolicy((1,)), observer=seen.append)
    assert len(seen) == len(program.layers)
    assert [set(s.amplitudes) for s in seen] == [
        {0b00, 0b01}, {0b01}, {0b01}, {0b11}
    ]
    assert seen[-1] is state


@pytest.mark.parametrize(
    "build",
    [
        lambda: cl.ghz(4),
        lambda: pt.w_state(4)[0],
        lambda: pt.dicke_small_k(4, 2)[0],
        lambda: pt.uniform_superposition(5)[0],
        lambda: pt.dicke_factoradic(4, 2)[0],
    ],
)
def test_forced_replay_reproduces_every_branch(build):
    program = build()
    for branch in pr.enumerate_branches(program):
        outcomes = tuple(ev.outcome for ev in branch.record)
        state, record = pr.execute(program, pr.ForcedPolicy(outcomes))
        assert record == branch.record
        assert list(state.amplitudes.items()) == list(
            branch.state.amplitudes.items()
        )


def test_quantum_layer_rejects_overlap():
    with pytest.raises(ValueError):
        pr.QuantumLayer((pr.GateApp(H, (0,)), pr.GateApp(X, (0,))))


def test_validate_rejects_forward_reference():
    with pytest.raises(ValueError, match="reads unmeasured label 'm'"):
        pr.LaqccProgram(
            1,
            layers=[
                pr.ClassicalLayer("c", lambda o: {}, reads=("m",)),
                pr.MeasureLayer((0,), "m"),
            ],
        )


@pytest.mark.parametrize(
    "qubits, message",
    [((5,), "qubit 5 out of range"), ((0, 0), "repeats a qubit")],
)
def test_measure_layer_checked_when_built(qubits, message):
    with pytest.raises(ValueError, match=message):
        pr.LaqccProgram(2, layers=[pr.MeasureLayer(qubits, "m")])


def test_built_program_is_immutable():
    program = feedforward_program()
    assert isinstance(program.layers, tuple)
    with pytest.raises(AttributeError):
        program.layers = ()
    with pytest.raises(AttributeError):
        program.num_qubits = 3
    with pytest.raises(TypeError):
        program.registers["extra"] = pr.Register((0,), "ancilla")
    registers = {"a": pr.Register((0,), "system")}
    program = pr.LaqccProgram(2, registers)
    registers["b"] = pr.Register((0,), "ancilla")  # would clash with "a"
    assert list(program.registers) == ["a"]


def test_running_a_built_program_checks_no_matrix(monkeypatch):
    program = cl.ghz(4)
    calls = []
    check = pr._check_unitary
    monkeypatch.setattr(
        pr, "_check_unitary", lambda m: calls.append(m) or check(m)
    )
    pr.enumerate_branches(program)
    assert calls == []
    pr.MatrixGate("H", cl.HM)  # the counter sees the check it wraps
    assert len(calls) == 1


def test_resources_counts_rounds_and_depth():
    profile = pr.resources(feedforward_program())
    assert profile.width == 2
    assert profile.quantum_depth == 2
    assert profile.rounds == 1
    assert profile.charged_width == 2


def test_terminal_measure_is_free():
    program = pr.LaqccProgram(
        1,
        layers=[
            pr.QuantumLayer((pr.GateApp(H, (0,)),)),
            pr.MeasureLayer((0,), "final"),
        ],
    )
    assert pr.resources(program).rounds == 0


def test_layout_validation():
    cnot = pr.MatrixGate(
        "CNOT",
        np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        ),
    )
    program = pr.LaqccProgram(
        3, layers=[pr.QuantumLayer((pr.GateApp(cnot, (0, 2)),))]
    )
    layout = pr.GridLayout.line(3)
    violations = pr.validate_layout(program, layout)
    assert len(violations) == 1
    ok = pr.LaqccProgram(
        3, layers=[pr.QuantumLayer((pr.GateApp(cnot, (0, 1)),))]
    )
    assert pr.validate_layout(ok, layout) == []
    with pytest.raises(ValueError):
        pr.validate_layout(
            pr.LaqccProgram(4, layers=[]), layout
        )


def test_defer_no_measurements_unchanged():
    program = pr.LaqccProgram(
        1, layers=[pr.QuantumLayer((pr.GateApp(H, (0,)),))]
    )
    deferred = pr.defer_measurements(program)
    assert len(deferred.layers) == 1
    assert not any(
        isinstance(l, pr.MeasureLayer) for l in deferred.layers
    )


def test_defer_feedforward_matches_ensemble():
    program = feedforward_program()
    deferred = pr.defer_measurements(program)
    measure_layers = [
        l for l in deferred.layers if isinstance(l, pr.MeasureLayer)
    ]
    assert len(measure_layers) == 1 and measure_layers[0] is deferred.layers[-1]
    # deferred final state before terminal measurement: (|00>+|11>)/sqrt(2)
    unitary_only = pr.LaqccProgram(
        deferred.num_qubits, layers=deferred.layers[:-1]
    )
    state, _ = pr.execute(unitary_only, pr.SeededPolicy(0))
    bell = ss.from_amplitudes(
        2, [(0b00, 1 / math.sqrt(2)), (0b11, 1 / math.sqrt(2))]
    )
    assert ss.fidelity(state, bell) == pytest.approx(1.0)


def test_defer_rejects_a_gate_after_a_measurement():
    # H; measure; H gives 0 or 1 with probability 1/2; moving the
    # measurement past the second H would always give 0
    program = pr.LaqccProgram(1, layers=[
        pr.QuantumLayer((pr.GateApp(cl.H_GATE, (0,)),)),
        pr.MeasureLayer((0,), "a"),
        pr.QuantumLayer((pr.GateApp(cl.H_GATE, (0,)),)),
    ])
    with pytest.raises(ValueError, match="'H' on qubit 0 acts after a "
                       "measurement of qubit 0"):
        pr.defer_measurements(program)


def test_defer_rejects_a_conditioned_gate_on_another_measured_qubit():
    program = pr.LaqccProgram(2, layers=[
        pr.MeasureLayer((0,), "a"),
        pr.MeasureLayer((1,), "b"),
        pr.ClassicalLayer("c", lambda o: {"bit": o["b"]}, reads=("b",)),
        pr.QuantumLayer((pr.GateApp(X, (0,), ("c", "bit")),)),
    ])
    with pytest.raises(ValueError, match="'X' on qubit 0 acts after"):
        pr.defer_measurements(program)


def test_defer_rejects_a_qubit_measured_twice():
    program = pr.LaqccProgram(2, layers=[
        pr.MeasureLayer((0, 1), "a"), pr.MeasureLayer((1,), "b"),
    ])
    with pytest.raises(ValueError, match="qubit 1 is measured twice"):
        pr.defer_measurements(program)


def test_postselect_feedforward():
    program = feedforward_program()
    branches = pr.enumerate_branches(program)
    for branch in branches:
        unitary, flag = pr.to_postselected(program, branch.record)
        state, _ = pr.execute(unitary, pr.SeededPolicy(0))
        flagged = {
            i: a for i, a in state.amplitudes.items() if (i >> flag) & 1
        }
        prob = sum(abs(a) ** 2 for a in flagged.values())
        assert prob == pytest.approx(branch.probability, abs=1e-9)
        norm = math.sqrt(prob)
        conditional = ss.SparseState(
            state.num_qubits, {i: a / norm for i, a in flagged.items()}
        )
        # system qubits 0..1 must match the branch output
        want = next(iter(branch.state.amplitudes))
        got = {i & 0b11 for i in conditional.amplitudes}
        assert got == {want}


def test_postselect_trivial_program_flag_always_one():
    program = pr.LaqccProgram(
        1, layers=[pr.QuantumLayer((pr.GateApp(H, (0,)),))]
    )
    unitary, flag = pr.to_postselected(program, ())
    (app,) = unitary.layers[-1].apps
    assert app.gate.spec == {"name": "and_flags", "params": {"bits": 0}}
    assert app.qubits == (flag,)
    state, _ = pr.execute(unitary, pr.SeededPolicy(0))
    assert all((i >> flag) & 1 for i in state.amplitudes)


def test_sample_branches_deterministic_per_seed():
    program = feedforward_program()
    a = pr.sample_branches(program, 5, seed=11)
    b = pr.sample_branches(program, 5, seed=11)
    assert [x.record for x in a] == [y.record for y in b]


def test_json_round_trip():
    @pr.register_gate("test_h")
    def _h():
        return pr.MatrixGate(
            "H", np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        )

    @pr.register_classical("test_id")
    def _id():
        return pr.ClassicalLayer(
            "c", lambda o: {"bit": o["m"] & 1}, reads=("m",)
        )

    gate = _h()
    assert gate.spec == {"name": "test_h", "params": {}}
    assert _id().spec == {"function_name": "test_id", "params": {}}
    program = pr.LaqccProgram(
        2,
        registers={"sys": pr.Register((0, 1), "system")},
        layers=[
            pr.QuantumLayer((pr.GateApp(gate, (0,)),)),
            pr.MeasureLayer((0,), "m"),
            _id(),
            pr.QuantumLayer(
                (pr.GateApp(gate, (1,), ("c", "bit")),)
            ),
        ],
    )
    text = pr.dumps(program)
    back = pr.loads(text)
    assert back.num_qubits == 2
    assert back.registers["sys"].qubits == (0, 1)
    s1, _ = pr.execute(program, pr.ForcedPolicy((1,)))
    s2, _ = pr.execute(back, pr.ForcedPolicy((1,)))
    assert ss.fidelity(s1, s2) == pytest.approx(1.0)


def test_loaded_json_keeps_its_emitted_bytes():
    def program(x, table):
        matrix = {"name": "matrix", "params": {"label": "X", "matrix": x}}
        predicated = {"name": "predicated", "params": {
            "label": "p", "control_bits": 1, "table": table, "gate": matrix}}
        return {"qubits": 2, "registers": {}, "layers": [
            {"kind": "quantum", "gates": [{"gate": matrix, "qubits": [0]}]},
            {"kind": "quantum",
             "gates": [{"gate": predicated, "qubits": [0, 1]}]},
        ]}

    hand = program([[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [False, True])
    # matrix entries and the predicate table are read off the gate, so
    # they re-dump as floats and as 0/1
    emitted = program(
        [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], [0, 1]
    )
    text = pr.dumps(pr.program_from_json(hand))
    assert text == json.dumps(emitted, indent=2)
    assert pr.dumps(pr.loads(text)) == text


def as_matrix_entries(text):
    """Program JSON with every ``clifford`` entry written as the
    ``matrix`` entry of its gate, as files were before the word form."""
    doc = json.loads(text)
    for layer in doc["layers"]:
        for entry in layer.get("gates", ()):
            params = entry["gate"]["params"]
            if entry["gate"]["name"] == "clifford":
                matrix = cl.clifford(**params).matrix
                entry["gate"] = {"name": "matrix", "params": {
                    "label": params["label"],
                    "matrix": [[[c.real, c.imag] for c in row]
                               for row in matrix],
                }}
    return json.dumps(doc)


def flattened_ladder6():
    gates = []
    for i in range(5):
        gates += [cl.CliffordGate("H", (i,)), cl.CliffordGate("S", (i + 1,)),
                  cl.CliffordGate("CNOT", (i + 1, i))]
    return cl.flatten_ladder(cl.CliffordCircuit("ladder", 6, 1, tuple(gates)))


@pytest.mark.parametrize("build", [lambda: cl.ghz(4), flattened_ladder6])
def test_matrix_spec_json_still_loads_to_the_same_branches(build):
    program = build()
    old = as_matrix_entries(pr.dumps(program))
    assert '"clifford"' not in old
    got = pr.enumerate_branches(pr.loads(old))
    want = pr.enumerate_branches(program)
    assert [b.record for b in got] == [b.record for b in want]
    for b, w in zip(got, want):
        assert b.probability == w.probability
        assert np.array_equal(b.state.idx, w.state.idx)
        assert np.array_equal(b.state.amp, w.state.amp)
