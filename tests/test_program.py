import hashlib
import json
import math
import re

import numpy as np
import pytest

from laqcc import clifford as cl
from laqcc import macros as mc
from laqcc import program as pr
from laqcc import protocols as pt
from laqcc import sparse_state as ss

H = pr.MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))
X = pr.MatrixGate("X", np.array([[0, 1], [1, 0]]))


def feedforward_program() -> pr.LaqccProgram:
    ident = pr.linear("c", "m", {"bit": 1})
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


def test_an_outcome_at_or_below_the_prune_threshold_is_never_reached():
    """Outcome 1 weighs 1e-14, below ``PRUNE_THRESHOLD`` though its
    amplitude of 1e-7 is kept: no shot draws it, enumeration skips it,
    and forcing it raises as forcing a never-seen outcome does."""
    s = 1e-7
    tilt = pr.MatrixGate("tilt", np.array([[math.sqrt(1 - s * s), -s],
                                           [s, math.sqrt(1 - s * s)]]))
    program = pr.LaqccProgram(1, layers=[
        pr.QuantumLayer((pr.GateApp(tilt, (0,)),)),
        pr.MeasureLayer((0,), "m"),
    ])
    amp = ss.apply_unitary(ss.SparseState.basis(1), tilt.matrix, [0]).amp
    assert 0 < abs(amp[1]) ** 2 <= ss.PRUNE_THRESHOLD
    shots = pr.sample_branches(program, 64, seed=3)
    assert {shot.record[0].outcome for shot in shots} == {0}
    assert [b.record[0].outcome for b in pr.enumerate_branches(program)] == [0]
    with pytest.raises(ss.InfeasibleBranchError, match=(
            r"^outcome 1 on qubits \[0\] has zero probability$")):
        pr.execute(program, pr.ForcedPolicy((1,)))
    with pytest.raises(ValueError, match="^forcing sequence too short$"):
        pr.execute(program, pr.ForcedPolicy(()))


def test_feedforward_forced_zero():
    state, _ = pr.execute(feedforward_program(), pr.ForcedPolicy((0,)))
    assert set(state.amplitudes) == {0b00}


def test_enumerate_branches_covers_all():
    branches = pr.enumerate_branches(feedforward_program())
    assert len(branches) == 2
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    finals = {next(iter(b.state.amplitudes)) for b in branches}
    assert finals == {0b00, 0b11}


def counting_classical(monkeypatch):
    """The list to which each ``_classical`` call, from now on, appends
    the name of the layer it evaluates and the number of words."""
    calls = []
    classical = pr._classical

    def counted(layer, words):
        calls.append((layer.name, len(words)))
        return classical(layer, words)

    monkeypatch.setattr(pr, "_classical", counted)
    return calls


def test_enumeration_cap_is_exact(monkeypatch):
    """``ghz(n)`` has 2^(n-1) branches: a cap of that many returns them
    all, and one less raises once the measurement leaves them, before
    any later layer runs."""
    calls = counting_classical(monkeypatch)
    for n in (3, 5, 6, 7, 8):
        program = cl.ghz(n)
        with pytest.raises(RuntimeError, match="exceeds enumeration cap"):
            pr.enumerate_branches(program, max_branches=(1 << (n - 1)) - 1)
        assert calls == []
        branches = pr.enumerate_branches(program, max_branches=1 << (n - 1))
        assert len(branches) == 1 << (n - 1)
        assert calls == [("parity_fix", 1 << (n - 1))]
        calls.clear()
    assert len(pr.enumerate_branches(pr.LaqccProgram(1), max_branches=1)) == 1
    with pytest.raises(RuntimeError, match="exceeds enumeration cap"):
        pr.enumerate_branches(pr.LaqccProgram(1), max_branches=0)


def test_one_classical_call_per_layer_per_walk(monkeypatch):
    """A walk evaluates each classical layer once, on every branch at
    once: one call for the 512 branches of ``ghz(10)``, one for a shot."""
    calls = counting_classical(monkeypatch)
    assert len(pr.enumerate_branches(cl.ghz(10))) == 512
    assert calls == [("parity_fix", 512)]
    calls.clear()
    pr.execute(cl.ghz(10), pr.SeededPolicy(3))
    assert calls == [("parity_fix", 1)]


def test_a_mask_must_stay_inside_its_word():
    with pytest.raises(ValueError, match="classical layer 'c' output 'a'"
                       " selects a bit outside the 1-bit word 'm'"):
        pr.LaqccProgram(2, layers=[
            pr.QuantumLayer((pr.GateApp(H, (0,)),)),
            pr.MeasureLayer((0,), "m"),
            pr.linear("c", "m", {"a": 0b100}),
            pr.QuantumLayer((pr.GateApp(X, (1,), ("c", "a")),)),
        ])


@pytest.mark.parametrize("run", ["enumerate", "execute"])
def test_a_mask_on_bit_63_of_a_64_bit_word(run):
    """Qubit 0 is the word's bit 63: its mask fits no ``int64``, so the
    walk and a shot read the word as a Python int, whatever its value."""
    program = pr.LaqccProgram(65, layers=[
        pr.QuantumLayer((pr.GateApp(H, (0,)), pr.GateApp(X, (63,)))),
        pr.MeasureLayer(tuple(range(64)), "m"),
        pr.linear("c", "m", {"b0": 1, "b63": 1 << 63}),
        pr.QuantumLayer((pr.GateApp(X, (64,), ("c", "b63")),)),
    ])
    outcomes = [1, 1 << 63 | 1]
    if run == "enumerate":
        shots = [(branch.state, branch.record)
                 for branch in pr.enumerate_branches(program)]
    else:
        shots = [pr.execute(program, pr.ForcedPolicy((o,)))
                 for o in outcomes]
    assert [[ev.outcome for ev in record] for _, record in shots] == [
        [o] for o in outcomes]
    assert [set(state.amplitudes) for state, _ in shots] == [
        {1 << 63}, {1 << 63 | 1 | 1 << 64}]


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
                pr.linear("c", "m", {}),
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
        pr.linear("c", "b", {"bit": 1}),
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


def wide_word_program(width):
    """A program with one deterministic branch, and its outputs'
    parities: every third bit of a ``width``-bit word set and measured,
    then a ``linear`` layer whose masks select bits above 20 and above
    62, each output flipping its own qubit."""
    b = pr.Builder()
    word = b.alloc("word", width, "ancilla")
    flips = b.alloc("flips", 4, "system")
    b.layer(*(pr.GateApp(cl.X_GATE, (q,)) for q in word[::3]))
    b.measure(word, "m")
    top = ((1 << width) - 1) ^ ((1 << 63) - 1)  # bits 63 and up
    masks = {"b21": 1 << 21, "b21_63": 1 << 21 | 1 << 63, "top": top,
             "all": (1 << width) - 1}
    value = sum(1 << width - 1 - i for i in range(0, width, 3))
    parities = [bin(value & m).count("1") & 1 for m in masks.values()]
    assert set(parities) == {0, 1}
    b.classical(pr.linear("c", "m", masks))
    b.layer(*(pr.GateApp(cl.X_GATE, (q,), ("c", key))
              for q, key in zip(flips, masks)))
    return b.build(), parities


@pytest.mark.parametrize("width", [64, 70])
def test_deferred_wide_words_reach_the_undeferred_state(width):
    program, parities = wide_word_program(width)
    (want,) = pr.enumerate_branches(program)
    (index,) = want.state.idx.tolist()
    assert [index >> width + i & 1 for i in range(4)] == parities
    deferred = pr.defer_measurements(program)
    loaded = pr.loads(pr.dumps(deferred))
    assert pr.dumps(loaded) == pr.dumps(deferred)
    for form in (deferred, loaded):
        (got,) = pr.enumerate_branches(form)
        assert got.probability == want.probability == 1.0
        assert got.state.idx.tolist() == want.state.idx.tolist()
        assert np.array_equal(got.state.amp, want.state.amp)


def test_a_gate_with_no_spec_fails_at_dumps_or_at_deferral():
    bare = pr.PredicatedGate("p", 1, lambda v: v == 1, cl.X_GATE)
    program = pr.LaqccProgram(
        2, layers=[pr.QuantumLayer((pr.GateApp(bare, (0, 1)),))])
    with pytest.raises(ValueError, match="gate p has no serializable spec"):
        pr.dumps(program)
    flip = pr.BasisMapGate("flip", 1, lambda v: v ^ 1, lambda v: v ^ 1)
    program = pr.LaqccProgram(2, layers=[
        pr.MeasureLayer((0,), "m"),
        pr.linear("c", "m", {"bit": 1}),
        pr.QuantumLayer((pr.GateApp(flip, (1,), ("c", "bit")),)),
    ])
    pr.enumerate_branches(program)  # it runs, but has no coherent form
    with pytest.raises(ValueError,
                       match="gate flip has no serializable spec"):
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

    gate = _h()
    assert gate.spec == {"name": "test_h", "params": {}}
    program = pr.LaqccProgram(
        2,
        registers={"sys": pr.Register((0, 1), "system")},
        layers=[
            pr.QuantumLayer((pr.GateApp(gate, (0,)),)),
            pr.MeasureLayer((0,), "m"),
            # built directly, through no factory, and still written
            pr.ClassicalLayer("c", "m", {"bit": 1}),
            pr.QuantumLayer(
                (pr.GateApp(gate, (1,), ("c", "bit")),)
            ),
        ],
    )
    text = pr.dumps(program)
    back = pr.loads(text)
    assert pr.dumps(back) == text
    assert json.loads(text)["layers"][2] == {
        "kind": "classical", "function_name": "linear",
        "params": {"name": "c", "reads": "m", "outputs": {"bit": 1}}}
    assert back.num_qubits == 2
    assert back.registers["sys"].qubits == (0, 1)
    s1, _ = pr.execute(program, pr.ForcedPolicy((1,)))
    s2, _ = pr.execute(back, pr.ForcedPolicy((1,)))
    assert ss.fidelity(s1, s2) == pytest.approx(1.0)


@pytest.mark.parametrize("fields, message", [
    (("c", "m", {"b": True}), "needs a mask that is an integer >= 0"),
    (("c", "m", {"b": 1.5}), "needs a mask that is an integer >= 0"),
    (("c", "m", {"b": -1}), "needs a mask that is an integer >= 0"),
    (("c", "m", {2: 1}), "linear output 2 needs a mask"),
    (("c", "m", [("b", 1)]), "linear outputs must be an object"),
    (("c", 7, {"b": 1}), "linear name and reads must be strings"),
    ((None, "m", {"b": 1}), "linear name and reads must be strings"),
])
def test_a_classical_layer_checks_its_fields_when_built(fields, message):
    with pytest.raises(ValueError, match=message):
        pr.ClassicalLayer(*fields)
    assert pr.linear is pr.ClassicalLayer
    assert not hasattr(pr.linear("c", "m", {"b": 1}), "spec")


def test_loaded_json_keeps_its_emitted_bytes():
    def program(x):
        matrix = {"name": "matrix", "params": {"label": "X", "matrix": x}}
        return {"qubits": 2, "registers": {}, "layers": [
            {"kind": "quantum", "gates": [{"gate": matrix, "qubits": [0]}]},
            {"kind": "quantum", "gates": [{"gate": matrix, "qubits": [1]}]},
        ]}

    hand = program([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    # matrix entries are read off the gate, so they re-dump as floats
    emitted = program([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    text = pr.dumps(pr.program_from_json(hand))
    assert text == json.dumps(emitted, indent=2)
    assert pr.dumps(pr.loads(text)) == text


# the qubits and params, but the label, of each loaded gate with a label
LABELLED = {
    "matrix": ([0], {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}),
    "diagonal": ([0], {"phases": [[1, 0], [-1, 0]]}),
    "parity": ([0, 1], {"control_bits": 1, "mask": 1,
                        "gate": cl.X_GATE.spec}),
}


@pytest.mark.parametrize("name", LABELLED)
def test_a_loaded_gate_label_must_be_a_string(name):
    qubits, params = LABELLED[name]

    def load(label):
        gate = {"name": name, "params": {**params, "label": label}}
        return pr.loads(json.dumps({"qubits": 2, "layers": [
            {"kind": "quantum", "gates": [{"gate": gate, "qubits": qubits}]}
        ]}))

    assert load("g").layers[0].apps[0].gate.name == "g"
    for label in (["M"], 7):
        with pytest.raises(ValueError, match=re.escape(
                f"gate label must be a string, got {label!r}")):
            load(label)


@pytest.mark.parametrize("odd", [True, 1.0, np.int64(1)],
                         ids=["bool", "float", "int64"])
@pytest.mark.parametrize("where", ["num_qubits", "register", "gate",
                                   "measure"])
def test_a_program_refuses_a_qubit_that_is_not_an_int(odd, where):
    """``True``, ``1.0`` and ``np.int64(1)`` equal the qubit 1, but json
    writes them as ``true`` and ``1.0``, which ``loads`` refuses, or
    raises ``TypeError``: a program refuses them when it is built."""
    if where == "num_qubits":
        with pytest.raises(ValueError, match="num_qubits must be an int"):
            pr.LaqccProgram(odd)
        return
    qubits = {"register": (0, 1), "gate": (0, 1), "measure": (1,)}
    qubits[where] = qubits[where][:-1] + (odd,)
    with pytest.raises(ValueError, match="must be an int, got"):
        pr.LaqccProgram(
            2, {"r": pr.Register(qubits["register"], "system")},
            [pr.QuantumLayer((pr.GateApp(cl.CNOT_GATE, qubits["gate"]),)),
             pr.MeasureLayer(qubits["measure"], "m")])


@pytest.mark.parametrize("registers, layers, message", [
    ({5: pr.Register((0,), "system")}, [], "register name must be a string"),
    ({}, [pr.MeasureLayer((0,), 5)], "measure label must be a string"),
])
def test_a_program_refuses_names_that_do_not_load_back(
        registers, layers, message):
    """json writes a register named 5 as ``"5"`` and a measure label 5
    as ``5``, which ``loads`` reads as another name or refuses."""
    with pytest.raises(ValueError, match=message):
        pr.LaqccProgram(1, registers, layers)


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


def seeded_flattening(seed, shape, n, depth, per_pair):
    """Flattened random H/S/CNOT circuit with ``per_pair`` gates on each
    step of the ladder or brickwork order, drawn as the benchmark draws
    its ``classical_compile`` circuits."""
    rng = np.random.default_rng(seed)
    if shape == "ladder":
        pairs = [(i, i + 1) for i in range(n - 1)]
    else:
        pairs = [(i, i + 1) for t in range(depth)
                 for i in range(t % 2, n - 1, 2)]
    gates = []
    for lo, hi in pairs:
        for _ in range(per_pair):
            kind = int(rng.integers(4))
            if kind < 2:
                q = hi if rng.integers(2) else lo
                gates.append(cl.CliffordGate("HS"[kind], (q,)))
            else:
                pair = (hi, lo) if kind == 2 else (lo, hi)
                gates.append(cl.CliffordGate("CNOT", pair))
    circuit = cl.CliffordCircuit(shape, n, depth, tuple(gates))
    if shape == "ladder":
        return cl.flatten_ladder(circuit)
    return cl.flatten_grid(circuit)


PROTOCOL_BUILDERS = {
    **{f"ghz{n}": (lambda n=n: cl.ghz(n)) for n in (2, 3, 8, 64)},
    **{f"w{n}": (lambda n=n: pt.w_state(n)[0]) for n in (2, 4, 5, 16)},
    **{f"uniform{q}": (lambda q=q: pt.uniform_superposition(q)[0])
       for q in (1, 5, 300, 1023)},
    **{f"small_k{n},{k}": (lambda n=n, k=k: pt.dicke_small_k(n, k)[0])
       for n, k in ((4, 1), (4, 2), (6, 2), (8, 2))},
    **{f"factoradic{n},{k}": (lambda n=n, k=k: pt.dicke_factoradic(n, k)[0])
       for n, k in ((4, 2), (6, 3), (7, 3))},
}


def writer_programs():
    """Every program the equality tests compare: the protocol programs,
    their deferred and post-selected forms, the fanout gadgets, and the
    flattened ladders and grids at the benchmark's sizes."""
    programs = {}
    for name, build in PROTOCOL_BUILDERS.items():
        program = build()
        programs[name] = program
        try:
            programs[name + "-defer"] = pr.defer_measurements(program)
        except ValueError:  # a gate on a measured qubit
            pass
        # the transcript with every outcome 0, which needs no simulation
        record = tuple(
            pr.MeasurementEvent(layer.label, layer.qubits, 0, 1.0)
            for layer in program.layers if isinstance(layer, pr.MeasureLayer)
        )
        programs[name + "-postselect"] = pr.to_postselected(program, record)[0]
    for m in range(1, 5):
        programs[f"fanout{m}"] = mc.fanout_gadget(m)
    for n in range(16, 65, 8):
        programs[f"ladder{n}"] = seeded_flattening(n, "ladder", n, 1, 2)
    for n in (16, 32, 48):
        programs[f"grid{n}"] = seeded_flattening(n, "grid", n, 2, 1)
    return programs


def test_dumps_writes_the_indent_2_bytes_of_every_program():
    programs = writer_programs()
    deferred = {name for name in programs if name.endswith("-defer")}
    # the programs with no gate on a measured qubit have a deferred form
    assert {"ghz8-defer", "ghz64-defer", "w16-defer", "uniform300-defer",
            "small_k4,1-defer", "factoradic7,3-defer"} <= deferred
    for name, program in programs.items():
        want = json.dumps(pr.program_to_json(program), indent=2)
        assert pr.dumps(program) == want, name


def odd_qubit(rng, q):
    """``q``: a program refuses a qubit that is not exactly an ``int``
    (``test_a_program_refuses_a_qubit_that_is_not_an_int``).  The draw
    that once picked ``True`` or ``np.int64`` stays, so the programs
    after it are the ones drawn before."""
    rng.integers(40)
    return q


def random_program(rng):
    """A seeded program of up to eight layers on up to six qubits: quantum
    layers (empty ones too) of a few shared gates, conditioned now and
    then on a bit of an earlier ``linear`` layer, measure layers, and up
    to two registers; rarely a gate with no spec."""
    n = int(rng.integers(1, 7))
    flip = pr.BasisMapGate("flip", 1, lambda v: v ^ 1, lambda v: v ^ 1)
    gates = [cl.X_GATE, cl.H_GATE, cl.CNOT_GATE, H, X,
             cl.clifford("U", 2, "SWAP(0,1) S(1)"),
             pr.diagonal("d", [[1, 0], [0, 1]])]
    order = [int(q) for q in rng.permutation(n)]
    registers = {}
    for name in ("a", "b")[:int(rng.integers(3))]:
        take = order[:int(rng.integers(len(order) + 1))]
        order = order[len(take):]
        registers[name] = pr.Register(
            tuple(odd_qubit(rng, q) for q in take), "system")
    layers, measured, published = [], [], []
    for _ in range(int(rng.integers(9))):
        kind = int(rng.integers(4))
        if kind == 0 and measured:
            label, width = measured[int(rng.integers(len(measured)))]
            name = f"c{len(layers)}"
            outputs = {f"b{j}": int(rng.integers(1 << width))
                       for j in range(int(rng.integers(1, 3)))}
            layers.append(pr.linear(name, label, outputs))
            published.extend((name, key) for key in outputs)
        elif kind == 1:
            qubits = [int(q) for q in rng.permutation(n)]
            qubits = qubits[:int(rng.integers(1, n + 1))]
            label = f"m{len(layers)}"
            layers.append(pr.MeasureLayer(
                tuple(odd_qubit(rng, q) for q in qubits), label))
            measured.append((label, len(qubits)))
        else:
            free, apps = [int(q) for q in rng.permutation(n)], []
            for _ in range(int(rng.integers(4))):
                gate = (flip if rng.integers(60) == 0
                        else gates[int(rng.integers(len(gates)))])
                if gate.num_bits > len(free):
                    break
                qubits = tuple(odd_qubit(rng, q)
                               for q in free[:gate.num_bits])
                free = free[gate.num_bits:]
                condition = None
                if published and rng.integers(3) == 0:
                    condition = published[int(rng.integers(len(published)))]
                apps.append(pr.GateApp(gate, qubits, condition))
            layers.append(pr.QuantumLayer(tuple(apps)))
    return pr.LaqccProgram(n, registers, layers)


def test_dumps_writes_random_programs_as_json_does():
    """``dumps`` gives the bytes of ``json.dumps(program_to_json(p),
    indent=2)``, or raises the same error, on seeded random programs."""
    rng = np.random.default_rng(27)
    seen = dict.fromkeys(["ValueError", "no registers",
                          "empty layer", "conditioned", "shared"], 0)
    for _ in range(600):
        program = random_program(rng)
        try:
            want = json.dumps(pr.program_to_json(program), indent=2)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                pr.dumps(program)
            assert str(got.value) == str(exc)
            seen[type(exc).__name__] += 1
            continue
        assert pr.dumps(program) == want
        quantum = [layer.apps for layer in program.layers
                   if isinstance(layer, pr.QuantumLayer)]
        apps = [app for layer in quantum for app in layer]
        seen["no registers"] += not program.registers
        seen["empty layer"] += () in quantum
        seen["conditioned"] += any(app.condition for app in apps)
        seen["shared"] += len({id(app.gate) for app in apps}) < len(apps)
    assert min(seen.values()) >= 10, seen


def write(doc):
    """``doc`` as the writer behind ``dumps`` writes a document."""
    parts = []
    pr._write_json(doc, "\n", parts.append)
    return "".join(parts)


class Count(int):
    pass


SHARED = {"name": "clifford", "params": {"label": "X", "wires": [1]}}


HAND_DOCUMENTS = [
    {"matrix": [[[-0.0, 1e-300], [0.5, -1.5e300]],
                [[float("nan"), float("inf")], [float("-inf"), 0.1 + 0.2]]]},
    {"flags": [True, False, None], "nested": {"t": (1, (2, ()), [])}},
    [], {}, [[]], [{}], {"a": {}, "b": [], "c": ((),)},
    {"big": [2**64, -(2**64) - 1, 2**200, -1, 0, Count(7)]},
    {"labels": ['q"uote', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
                "é, ü, 漢字", "\U0001F600 \U00010348", "\ud800 lone"]},
    {'k"ey\\': 1, "ключ": 2, "\U0001F600": 3, "": ""},
    {"a": [SHARED, SHARED, {"deeper": SHARED}], "b": SHARED, "c": [[SHARED]]},
    {1: "int key", 2.5: "float key", True: "bool key", None: "none key",
     Count(3): "int subclass key", float("nan"): "nan key"},
    np.float64(-0.0), 3, "top", None, 1.25, Count(-4),
    {"ints": [3, -(2**70), 0], "masks": {"b0": 1, "b1": 2**70, "": -2},
     "near": {"a": 1, "b": True}, "nearer": {"a": 1, 2: 2}},
]


@pytest.mark.parametrize("doc", HAND_DOCUMENTS)
def test_dumps_writes_hand_built_documents_as_json_does(doc):
    assert write(doc) == json.dumps(doc, indent=2)


def random_leaf(rng):
    kind = int(rng.integers(6))
    if kind == 0:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 9))**40
    if kind == 1:
        return float(rng.choice([0.0, -0.0, 1e-300, 1e300, float("nan"),
                                 float("inf"), float("-inf"), rng.normal()]))
    if kind == 2:
        return [True, False, None][int(rng.integers(3))]
    if kind == 3:
        return int(rng.integers(0, 1 << 20))
    points = rng.choice([0, 0x1f, 0x22, 0x5c, 0x41, 0x7f, 0xe9, 0x6f22,
                         0xd800, 0x1F600], size=int(rng.integers(6)))
    return "".join(chr(int(p)) for p in points)


def random_document(rng, depth, made):
    """A leaf, or a list, tuple or dict (keys of every kind json takes)
    of up to four random documents of ``depth - 1``; now and then a
    container already in ``made``, so one object appears at several
    places and depths, as a shared gate spec does."""
    if made and rng.integers(8) == 0:
        return made[int(rng.integers(len(made)))]
    if depth == 0 or rng.integers(4) == 0:
        return random_leaf(rng)
    items = [random_document(rng, depth - 1, made)
             for _ in range(int(rng.integers(5)))]
    shape = int(rng.integers(3))
    if shape == 0:
        doc = items
    elif shape == 1:
        doc = tuple(items)
    else:
        doc = {random_leaf(rng): item for item in items}
    made.append(doc)
    return doc


def test_dumps_writes_random_documents_as_json_does():
    rng = np.random.default_rng(2026)
    for _ in range(500):
        doc = random_document(rng, 4, [])
        assert write(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [np.int64(3), {"qubits": [0, np.int64(1)]}, [object()],
     {(0, 1): "tuple key"}, {"a": {np.int64(2): "numpy key"}}],
)
def test_dumps_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        write(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("build", [
    lambda: cl.ghz(64), lambda: seeded_flattening(64, "ladder", 64, 1, 2)])
def test_dumps_hands_the_generic_writer_no_gate_application(
        build, monkeypatch):
    """``dumps`` calls the generic writer for the qubit count, the
    registers, each distinct gate spec and each layer that is not a
    quantum layer, never for one application or qubit: a count that
    fails on any host if writing goes back to recursing per value."""
    program = build()
    writer, depth, calls = pr._write_json, [0], [0]

    def counted(value, newline, out):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            writer(value, newline, out)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(pr, "_write_json", counted)
    text = pr.dumps(program)
    assert text == json.dumps(pr.program_to_json(program), indent=2)
    apps = [app for layer in program.layers
            if isinstance(layer, pr.QuantumLayer) for app in layer.apps]
    specs = len({id(app.gate.spec) for app in apps})
    others = sum(not isinstance(layer, pr.QuantumLayer)
                 for layer in program.layers)
    assert len(apps) > 100 > specs + others
    assert calls[0] <= specs + others + 2


@pytest.mark.parametrize("build", [
    lambda: cl.ghz(64), lambda: seeded_flattening(64, "ladder", 64, 1, 2)])
def test_loads_resolves_each_distinct_spec_once(build, monkeypatch):
    """``loads`` calls a registered factory once per distinct gate spec
    of its document, not once per application: a count, not a time."""
    text = pr.dumps(build())
    calls = []
    for name, factory in list(pr.GATE_REGISTRY.items()):
        def counted(*args, name=name, factory=factory, **params):
            calls.append(json.dumps({"name": name, "params": params}))
            return factory(*args, **params)

        monkeypatch.setitem(pr.GATE_REGISTRY, name, counted)
    again = pr.loads(text)
    entries = [entry for layer in json.loads(text)["layers"]
               if layer["kind"] == "quantum" for entry in layer["gates"]]
    specs = {json.dumps(entry["gate"]) for entry in entries}
    assert len(entries) > 100 > len(specs)
    assert sorted(calls) == sorted(specs)
    assert pr.dumps(again) == text


# specs that differ only by a value's type, a zero's sign or key order
ALIKE_SPECS = [
    {"name": "phase_flag", "params": {"phi": 1}},
    {"name": "phase_flag", "params": {"phi": 1.0}},
    {"name": "phase_flag", "params": {"phi": True}},
    {"name": "phase_flag", "params": {"phi": 0}},
    {"name": "phase_flag", "params": {"phi": 0.0}},
    {"name": "phase_flag", "params": {"phi": -0.0}},
    {"name": "phase_flag", "params": {"phi": 0}},
    {"name": "phase_all_zero", "params": {"num_bits": 1, "theta": 2}},
    {"name": "phase_all_zero", "params": {"theta": 2, "num_bits": 1}},
    {"name": "phase_all_zero", "params": {"num_bits": 1, "theta": 2}},
    {"name": "clifford",
     "params": {"word": "S(0) X(0)", "wires": 1, "label": "alike"}},
    {"name": "clifford",
     "params": {"label": "alike", "wires": 1, "word": "S(0) X(0)"}},
]


def test_specs_alike_but_for_type_sign_or_order_load_apart():
    """Specs equal as Python values but for a value's type (``1``,
    ``1.0``, ``true``), a zero's sign or their params' order load and
    re-dump as resolving each entry on its own does; only an exactly
    repeated spec of strings and ints shares one gate."""
    doc = {"qubits": 1, "layers": [
        {"kind": "quantum", "gates": [{"gate": spec, "qubits": [0]}]}
        for spec in ALIKE_SPECS]}
    loaded = pr.program_from_json(doc)
    alone = pr.LaqccProgram(1, {}, [
        pr.QuantumLayer((pr.GateApp(pr._gate_from_spec(spec), (0,)),))
        for spec in ALIKE_SPECS])
    text = pr.dumps(loaded)
    assert text == pr.dumps(alone)
    written = [layer["gates"][0]["gate"] for layer in json.loads(text)[
        "layers"]]
    # a factory that is not shared stamps the spec it was called with
    assert json.dumps(written[:10]) == json.dumps(ALIKE_SPECS[:10])
    gates = [layer.apps[0].gate for layer in loaded.layers]
    assert gates[3] is gates[6] and gates[7] is gates[9]
    assert len({id(gate) for gate in gates[:7]}) == 6
    assert gates[7] is not gates[8]


def loaded_or_error(text):
    try:
        return pr.dumps(pr.loads(text))
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


# sha256 of the re-dumps of the random programs' JSON, taken with every
# spec resolved entry by entry (``_spec_key`` returning ``None``)
RANDOM_RELOAD_SHA256 = (
    "2aab2559834acb2297527828a45d3a0e10baf61a897391d769f990c0505f2ba8")


def test_random_programs_load_as_entry_by_entry_resolution_does(
        monkeypatch):
    """The JSON of the random programs of
    ``test_dumps_writes_random_programs_as_json_does`` loads and re-dumps
    to its own bytes, as it did when every entry resolved its spec on
    its own, and as it does with the memo turned off."""
    rng = np.random.default_rng(27)
    texts = []
    for _ in range(600):
        try:
            texts.append(json.dumps(
                pr.program_to_json(random_program(rng)), indent=2))
        except (TypeError, ValueError):
            continue
    got = [loaded_or_error(text) for text in texts]
    # every program that builds holds only ``int`` qubits, so it loads
    # back to its own bytes
    assert len(texts) >= 500 and got == texts
    assert hashlib.sha256("\0".join(got).encode()).hexdigest() == (
        RANDOM_RELOAD_SHA256)
    monkeypatch.setattr(pr, "_spec_key", lambda spec: None)
    assert [loaded_or_error(text) for text in texts] == got


# sha256 of ``dumps``, taken before ``dumps`` had its own writer
GOLDEN_SHA256 = {
    "ghz8": "2bd601be9db8115f9872064582dbfd5f76db5e71f8dae16b4fce0dc6358e92b6",
    "uniform300":
        "cfe7e78cab5dec8be658c07833d88374544da265b97120962f05beee6039337e",
    "ladder64":
        "e52d748702c4f763368e1f3a778d006626cb8552977743777aa0c19bdb7411fb",
    "grid48":
        "2f9fe169eb8dd92a86a244e9e8045784b56bcc47d821368b906c956e1bd0d3e6",
}


@pytest.mark.parametrize(
    "name, build",
    [
        ("ghz8", lambda: cl.ghz(8)),
        ("uniform300", lambda: pt.uniform_superposition(300)[0]),
        ("ladder64", lambda: seeded_flattening(64, "ladder", 64, 1, 2)),
        ("grid48", lambda: seeded_flattening(48, "grid", 48, 2, 1)),
    ],
)
def test_dumps_bytes_are_pinned(name, build):
    text = pr.dumps(build())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]


def test_a_condition_needs_a_key_its_layer_publishes():
    fix = pr.linear("fix", "m", {"flip": 1})
    assert dict(fix.outputs) == {"flip": 1}

    def program(layer, key):
        return pr.LaqccProgram(2, layers=[
            pr.MeasureLayer((0,), "m"),
            layer,
            pr.QuantumLayer((pr.GateApp(X, (1,), ("fix", key)),)),
        ])

    program(fix, "flip")
    with pytest.raises(ValueError, match="condition references key 'flip9'"
                       " that layer 'fix' does not publish"):
        program(fix, "flip9")
