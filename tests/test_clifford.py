import json
import math
from itertools import product

import numpy as np
import pytest

from laqcc import clifford as cl
from laqcc import program as pr
from laqcc import sparse_state as ss
from laqcc import verify

Y = np.array([[0, -1j], [1j, 0]])
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def random_word(rng, n, length, pairs=None):
    """Random Clifford generator word over the given wire pairs."""
    gates = []
    if pairs is None:
        pairs = [(i, i + 1) for i in range(n - 1)]
    for lo, hi in pairs:
        for _ in range(length):
            kind = rng.integers(4)
            if kind == 0:
                gates.append(cl.CliffordGate("H", (int(rng.integers(2)) and hi or lo,)))
            elif kind == 1:
                gates.append(cl.CliffordGate("S", (int(rng.integers(2)) and hi or lo,)))
            elif kind == 2:
                gates.append(cl.CliffordGate("CNOT", (hi, lo)))
            else:
                gates.append(cl.CliffordGate("CNOT", (lo, hi)))
    return gates


def random_full_word(rng, n, length, pairs=None):
    """Random word over all six generators: H, S, X and Z on either wire
    of a pair, CNOT in both orientations, and SWAP."""
    if pairs is None:
        pairs = [(i, i + 1) for i in range(n - 1)]
    gates = []
    for lo, hi in pairs:
        for _ in range(length):
            kind = int(rng.integers(7))
            if kind < 4:
                q = hi if rng.integers(2) else lo
                gates.append(cl.CliffordGate("HSXZ"[kind], (q,)))
            elif kind < 6:
                pair = (hi, lo) if kind == 4 else (lo, hi)
                gates.append(cl.CliffordGate("CNOT", pair))
            else:
                gates.append(cl.CliffordGate("SWAP", (lo, hi)))
    return gates


def ladder(n, gates):
    return cl.CliffordCircuit("ladder", n, 1, tuple(gates))


def pauli_matrix(n, z, x):
    """Dense prod_w Z_w^{z_w} X_w^{x_w} on n wires, wire 0 least
    significant; ``z`` and ``x`` are bit masks."""
    wires = range(n - 1, -1, -1)
    return local_pauli([(z >> w) & 1 for w in wires],
                       [(x >> w) & 1 for w in wires])


def conjugate_word(gates, n, z, x):
    """Image (z, x) masks of the Pauli (z, x) under a gate word, by
    ``conjugate_gate`` on one bit per wire."""
    zb = [(z >> w) & 1 for w in range(n)]
    xb = [(x >> w) & 1 for w in range(n)]
    for g in gates:
        cl.conjugate_gate(g, zb, xb)
    return (sum(b << w for w, b in enumerate(zb)),
            sum(b << w for w, b in enumerate(xb)))


def assert_conjugates(u, p, q):
    """U P = phase * Q U for one of the four phases."""
    lhs, rhs = u @ p, q @ u
    assert any(np.allclose(lhs, ph * rhs, atol=1e-9) for ph in PHASES)


def test_conjugate_h_z_to_x():
    z, x = conjugate_word([cl.CliffordGate("H", (0,))], 2, 0b01, 0)
    assert (z, x) == (0, 0b01)
    u = ladder(2, [cl.CliffordGate("H", (0,))]).unitary()
    assert np.allclose(u @ pauli_matrix(2, 0b01, 0),
                       pauli_matrix(2, z, x) @ u)  # phase +1


def test_conjugate_s_x_to_y():
    z, x = conjugate_word([cl.CliffordGate("S", (0,))], 2, 0, 0b01)
    assert (z, x) == (0b01, 0b01)
    sub = pauli_matrix(2, z, x)[:2, :2]
    assert any(np.allclose(sub, ph * Y) for ph in PHASES)


def test_conjugate_cnot_control_x():
    gate = cl.CliffordGate("CNOT", (1, 0))
    z, x = conjugate_word([gate], 2, 0, 0b10)
    assert (z, x) == (0, 0b11)
    u = ladder(2, [gate]).unitary()
    assert np.allclose(u @ pauli_matrix(2, 0, 0b10),
                       pauli_matrix(2, z, x) @ u)  # phase +1


def test_conjugation_matches_matrix_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 3
        c = ladder(n, random_word(rng, n, 4))
        u = c.unitary()
        z = int(rng.integers(1 << n))
        x = int(rng.integers(1 << n))
        q = conjugate_word(c.gates, n, z, x)
        # U P = P' U up to phase
        assert_conjugates(u, pauli_matrix(n, z, x), pauli_matrix(n, *q))
    for _ in range(20):
        n = 4
        c = ladder(n, random_full_word(rng, n, 3))
        u = c.unitary()
        z, x = int(rng.integers(1 << n)), int(rng.integers(1 << n))
        q = conjugate_word(c.gates, n, z, x)
        assert_conjugates(u, pauli_matrix(n, z, x), pauli_matrix(n, *q))


def test_conjugation_group_action():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g1 = random_word(rng, 3, 3)
        g2 = random_word(rng, 3, 3)
        c1, c2 = ladder(3, g1), ladder(3, g2)
        z, x = int(rng.integers(8)), int(rng.integers(8))
        via_two = conjugate_word(g2, 3, *conjugate_word(g1, 3, z, x))
        u = c2.unitary() @ c1.unitary()
        assert_conjugates(u, pauli_matrix(3, z, x), pauli_matrix(3, *via_two))


def test_rules_cover_exactly_the_generators():
    assert set(cl._RULES) == set(cl.GENERATORS)


def correction_columns(circuit):
    """The flattening's correction rows transposed: one (z, x) pair of
    wire masks (bit w = wire w) per Bell outcome bit, in the order the
    Bell measurement lists them."""
    _, _, measure_pairs, _, rows = cl._flatten_plan(circuit)
    nbits = 2 * len(measure_pairs)
    return tuple(
        tuple(
            sum(((row[w] >> (nbits - 1 - c)) & 1) << w
                for w in range(circuit.n))
            for row in rows
        )
        for c in range(nbits)
    )


def correction_layer(program):
    (layer,) = (
        l for l in program.layers if isinstance(l, pr.ClassicalLayer)
    )
    return layer


def test_correction_map_identity_ladder():
    c = ladder(3, [])
    # one junction (wire 1), unit errors pass through unchanged
    assert correction_columns(c) == ((1 << 1, 0), (0, 1 << 1))
    # its phase bit is listed first, so it is the word's top bit
    assert cl._flatten_plan(c)[-1] == ([0, 0b10, 0], [0, 0b01, 0])


def test_correction_map_linearity():
    rng = np.random.default_rng(9)
    c = ladder(4, random_word(rng, 4, 4))
    layer = correction_layer(cl.flatten_ladder(c))
    bits = len(correction_columns(c))
    for _ in range(20):
        o1, o2 = rng.integers(1 << bits, size=2)
        outputs = pr._classical(layer, np.array([o1, o2, o1 ^ o2]))
        for c1, c2, both in outputs.values():
            assert both == c1 ^ c2


def prepend_product_input(program, n, rng):
    """Random 1-qubit unitaries on the wire-input carriers."""
    apps = []
    mats = []
    for q in range(n):
        m = random_su2(rng)
        mats.append(m)
        apps.append(pr.GateApp(pr.MatrixGate(f"in{q}", m), (q,)))
    program = pr.LaqccProgram(
        program.num_qubits,
        dict(program.registers),
        [pr.QuantumLayer(tuple(apps))] + list(program.layers),
    )
    return program, mats


def random_su2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))


def dense_input(mats):
    vec = np.array([1.0 + 0j])
    for m in reversed(mats):  # qubit 0 least significant
        vec = np.kron(vec, m[:, 0])
    return vec


def check_flatten_equals_direct(circuit, rng, exhaustive=True, samples=20):
    program = (
        cl.flatten_ladder(circuit)
        if circuit.shape == "ladder"
        else cl.flatten_grid(circuit)
    )
    program, mats = prepend_product_input(program, circuit.n, rng)
    target_vec = circuit.unitary() @ dense_input(mats)
    target = ss.from_amplitudes(
        circuit.n, list(enumerate(target_vec))
    )
    outputs = program.registers["outputs"].qubits
    keep = tuple(reversed(outputs))  # wire n-1 most significant
    if exhaustive:
        branches = pr.enumerate_branches(program)
        assert branches
    else:
        branches = pr.sample_branches(program, samples, seed=int(rng.integers(1 << 30)))
    for branch in branches:
        sub, _ = ss.split_register(branch.state, keep)
        assert ss.fidelity(sub, target) == pytest.approx(1.0, abs=1e-9)
    return len(branches)


def test_flatten_ladder_cnot_n2():
    # single-gate ladder: no junctions, direct application
    c = ladder(2, [cl.CliffordGate("CNOT", (1, 0))])
    rng = np.random.default_rng(0)
    assert check_flatten_equals_direct(c, rng) == 1


def test_flatten_identity_ladder_n3():
    c = ladder(3, [])
    rng = np.random.default_rng(1)
    branches = check_flatten_equals_direct(c, rng)
    assert branches == 4  # one Bell measurement, 4 outcomes


def test_flatten_ladder_width_and_rounds():
    c = ladder(3, [cl.CliffordGate("CNOT", (1, 0)), cl.CliffordGate("CNOT", (2, 1))])
    program = cl.flatten_ladder(c)
    profile = pr.resources(program)
    assert profile.width == 5  # 3n - 4
    assert profile.rounds == 1


def test_flatten_random_ladders():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        c = ladder(n, random_word(rng, n, 3))
        check_flatten_equals_direct(c, rng)
    for _ in range(6):  # SWAP, X and Z too
        n = int(rng.integers(3, 6))
        c = ladder(n, random_full_word(rng, n, 3))
        check_flatten_equals_direct(c, rng)


def test_flatten_grid_identity():
    c = cl.CliffordCircuit("grid", 2, 2, ())
    rng = np.random.default_rng(2)
    check_flatten_equals_direct(c, rng)


def test_flatten_grid_random():
    rng = np.random.default_rng(3)
    for _ in range(3):
        n, d = 3, 2
        pairs = []
        for t in range(d):
            start = 0 if t % 2 == 0 else 1
            pairs.extend((i, i + 1) for i in range(start, n - 1, 2))
        gates = random_word(rng, n, 3, pairs=pairs)
        c = cl.CliffordCircuit("grid", n, d, tuple(gates))
        check_flatten_equals_direct(c, rng)


def test_grid_width_growth():
    widths = {}
    for n in (2, 3, 4):
        d = n
        pairs = []
        for t in range(d):
            start = 0 if t % 2 == 0 else 1
            pairs.extend((i, i + 1) for i in range(start, n - 1, 2))
        gates = []
        for lo, hi in pairs:
            gates.append(cl.CliffordGate("CNOT", (hi, lo)))
        c = cl.CliffordCircuit("grid", n, d, tuple(gates))
        widths[n] = cl.flatten_grid(c).num_qubits
    assert widths[2] < widths[3] < widths[4]


def test_swap_chain_long_range_cnot():
    # SWAP wire 0 down next to wire 2, apply CNOT, SWAP back; flattened
    # ladder equals a logical long-range CNOT
    n = 3
    gates = [
        cl.CliffordGate("SWAP", (0, 1)),
        cl.CliffordGate("CNOT", (1, 2)),  # control wire 1 (holds wire 0)
    ]
    c = ladder(n, gates)
    rng = np.random.default_rng(4)
    check_flatten_equals_direct(c, rng)


def test_ghz_small():
    for n in (2, 3):
        program = cl.ghz(n)
        branches = pr.enumerate_branches(program)
        assert len(branches) == 2 ** (n - 1)
        amp = 1 / math.sqrt(2)
        target = ss.from_amplitudes(
            n, [(0, amp), ((1 << n) - 1, amp)]
        )
        keep = tuple(reversed(program.registers["ghz"].qubits))
        for branch in branches:
            sub, _ = ss.split_register(branch.state, keep)
            assert ss.fidelity(sub, target) == pytest.approx(1.0, abs=1e-9)


def test_ghz_resources_and_layout():
    program = cl.ghz(3)
    profile = pr.resources(program)
    assert profile.width == 5
    assert profile.rounds == 1
    layout = pr.GridLayout.line(5)
    assert pr.validate_layout(program, layout) == []


def test_ghz_rejects_small_n():
    with pytest.raises(ValueError):
        cl.ghz(1)


def test_circuit_json_round_trip():
    c = ladder(3, [cl.CliffordGate("H", (0,)), cl.CliffordGate("CNOT", (1, 0))])
    back = cl.CliffordCircuit.from_json(c.to_json())
    assert np.allclose(back.unitary(), c.unitary())


def test_steps_are_grouped_once(monkeypatch):
    calls = []
    group = cl.CliffordCircuit._group_steps

    def counted(self):
        calls.append(self)
        return group(self)

    monkeypatch.setattr(cl.CliffordCircuit, "_group_steps", counted)
    rng = np.random.default_rng(16)
    doc = ladder(16, random_word(rng, 16, 2)).to_json()
    calls.clear()
    circuit = cl.CliffordCircuit.from_json(doc)
    cl.flatten_ladder(circuit)
    assert len(calls) == 1
    assert isinstance(circuit.steps(), tuple)


# ------------------------------------------------------------- reference
# Dense conjugation: conjugate by the step's 4x4 matrix, then find the
# phased Pauli string among all 16 candidates.  The exact GF(2) rules of
# ``conjugate_gate`` and the one-sweep ``_propagate_unit_errors`` must
# give equal results.  A step's reference matrix is the product of its
# gates' embeddings in the step's (low, high) pair, from the identity;
# the ``clifford`` factory must equal it exactly.


def ref_embed(g, pair):
    """4x4 matrix of a 1- or 2-qubit gate inside the (low, high) pair,
    with the higher wire as the most significant bit."""
    m = cl.GENERATORS[g.name]
    lo, hi = pair
    if len(g.qubits) == 2:
        if g.qubits == (hi, lo):
            return m
        assert g.qubits == (lo, hi)
        swap = cl.GENERATORS["SWAP"]
        return swap @ m @ swap
    if g.qubits == (hi,):
        return np.kron(m, cl.I2)
    assert g.qubits == (lo,)
    return np.kron(cl.I2, m)


def ref_step_matrix(step):
    pair, word = step
    m = np.eye(4, dtype=complex)
    for g in word:
        m = ref_embed(g, pair) @ m
    return m


def local_pauli(z_bits, x_bits):
    """Z^z X^x per qubit, the first qubit most significant."""
    out = np.array([[1.0 + 0j]])
    for zb, xb in zip(z_bits, x_bits):
        m = np.eye(2, dtype=complex)
        if zb:
            m = cl.ZM
        if xb:
            m = m @ cl.XM
        out = np.kron(out, m)
    return out


def ref_match_pauli(m, k):
    for z_bits in product((0, 1), repeat=k):
        for x_bits in product((0, 1), repeat=k):
            t = local_pauli(z_bits, x_bits)
            r, c = np.unravel_index(np.argmax(np.abs(t)), t.shape)
            if abs(m[r, c]) < 1e-9:
                continue
            phase = m[r, c] / t[r, c]
            if min(abs(phase - p) for p in PHASES) > 1e-9:
                continue
            if np.allclose(m, phase * t, atol=1e-9):
                snapped = min(PHASES, key=lambda p: abs(phase - p))
                return z_bits, x_bits, snapped
    raise ValueError("matrix is not a Pauli string; gate is not Clifford")


def ref_conjugate(matrix, wires, z, x):
    """(z, x) masks of U P U† up to phase, for a gate U on ``wires``
    (wires[0] the matrix's most significant qubit)."""
    sub = local_pauli([(z >> w) & 1 for w in wires],
                      [(x >> w) & 1 for w in wires])
    new_z, new_x, _ = ref_match_pauli(matrix @ sub @ matrix.conj().T,
                                      len(wires))
    for w, zb, xb in zip(wires, new_z, new_x):
        z = (z & ~(1 << w)) | (zb << w)
        x = (x & ~(1 << w)) | (xb << w)
    return z, x


def ref_propagate_unit_errors(steps, junctions, n):
    """The correction rows, one unit error at a time: each error is pushed
    through the rest of the circuit by dense conjugation, and its image
    fills one bit of the rows (junction j's Z error the word's bit 2j,
    its X error bit 2j+1, the first-listed bit the most significant)."""
    nbits = 2 * len(junctions)
    zrow, xrow = [0] * n, [0] * n
    for c, j in enumerate(junctions):
        for bit, (z0, x0) in enumerate(((1, 0), (0, 1))):
            z, x = z0 << j.wire, x0 << j.wire
            for step in steps[j.gate_index:]:
                lo, hi = step[0]
                z, x = ref_conjugate(ref_step_matrix(step), (hi, lo), z, x)
            place = nbits - 1 - (2 * c + bit)
            for w in range(n):
                zrow[w] |= ((z >> w) & 1) << place
                xrow[w] |= ((x >> w) & 1) << place
    return zrow, xrow


def with_reference_map(monkeypatch, fn, *args):
    """``fn(*args)`` with the per-column propagation in place."""
    with monkeypatch.context() as m:
        m.setattr(cl, "_propagate_unit_errors", ref_propagate_unit_errors)
        return fn(*args)


@pytest.mark.parametrize("k", [1, 2])
def test_match_pauli_every_phased_string(k):
    for z_bits in product((0, 1), repeat=k):
        for x_bits in product((0, 1), repeat=k):
            for phase in PHASES:
                m = phase * local_pauli(z_bits, x_bits)
                assert ref_match_pauli(m, k) == (z_bits, x_bits, phase)


def pauli_2q(z, x):
    return local_pauli(((z >> 1) & 1, z & 1), ((x >> 1) & 1, x & 1))


def bumped(m, r, c):
    out = np.array(m, dtype=complex)
    out[r, c] += 1e-7
    return out


T = np.diag([1, np.exp(1j * math.pi / 4)])


@pytest.mark.parametrize(
    "m, k",
    [
        (T @ cl.XM @ T.conj().T, 1),
        (bumped(pauli_2q(0b10, 0b01), 0, 0), 2),  # an off-support entry
        (bumped(pauli_2q(0b11, 0b10), 3, 0), 2),
        (bumped(pauli_2q(0b11, 0b10), 0, 2), 2),  # the phase entry
        (bumped(cl.XM, 0, 1), 1),
        (np.exp(1j * math.pi / 4) * pauli_2q(0b01, 0b11), 2),
        (np.exp(1j * math.pi / 4) * cl.ZM, 1),
        (np.zeros((2, 2), dtype=complex), 1),
        (np.zeros((4, 4), dtype=complex), 2),
        (np.full((2, 2), np.nan, dtype=complex), 1),
    ],
)
def test_match_pauli_rejects_non_paulis(m, k):
    with pytest.raises(ValueError, match="not Clifford"):
        ref_match_pauli(m, k)


TWO_WIRE_GATES = [
    cl.CliffordGate(name, (q,)) for name in "HSXZ" for q in (0, 1)
] + [
    cl.CliffordGate("CNOT", (1, 0)),
    cl.CliffordGate("CNOT", (0, 1)),
    cl.CliffordGate("SWAP", (0, 1)),
]


@pytest.mark.parametrize(
    "gate", TWO_WIRE_GATES,
    ids=lambda g: g.name + "".join(map(str, g.qubits)),
)
def test_rule_matches_dense_conjugation(gate):
    step, = ladder(2, [gate]).steps()
    (lo, hi), word = step
    assert word == (gate,)
    matrix = ref_step_matrix(step)
    for z, x in product(range(4), repeat=2):
        expected = ref_conjugate(matrix, (hi, lo), z, x)
        assert conjugate_word([gate], 2, z, x) == expected, (z, x)


def grid_pairs(n, depth):
    pairs = []
    for t in range(depth):
        start = 0 if t % 2 == 0 else 1
        pairs.extend((i, i + 1) for i in range(start, n - 1, 2))
    return pairs


def correction_map_circuits():
    rng = np.random.default_rng(44)
    for n in range(2, 25):
        yield ladder(n, random_word(rng, n, 3))
    for n in range(3, 13):
        for depth in range(1, 5):
            gates = random_word(rng, n, 2, pairs=grid_pairs(n, depth))
            yield cl.CliffordCircuit("grid", n, depth, tuple(gates))
    for n in (1, 2, 3, 7):
        yield ladder(n, [])
    # every gate on the first pair: the later steps are identities
    yield ladder(6, random_word(rng, 6, 8, pairs=[(0, 1)]))
    # a brickwork grid with only some steps filled
    pairs = grid_pairs(6, 4)
    gates = random_word(rng, 6, 3, pairs=pairs[::3])
    yield cl.CliffordCircuit("grid", 6, 4, tuple(gates))
    yield cl.CliffordCircuit("grid", 5, 3, ())
    # all six generators, SWAP, X and Z included
    for n in range(2, 13):
        yield ladder(n, random_full_word(rng, n, 4))
    for n, depth in ((4, 2), (7, 3), (10, 4)):
        gates = random_full_word(rng, n, 3, pairs=grid_pairs(n, depth))
        yield cl.CliffordCircuit("grid", n, depth, tuple(gates))
    # the CNOT+SWAP ladder of ``macros.fanout_gadget``
    for m in range(1, 7):
        yield ladder(m + 1, [
            cl.CliffordGate(name, (i, i + 1))
            for i in range(m) for name in ("CNOT", "SWAP")
        ])


def test_correction_map_matches_per_column_reference(monkeypatch):
    for c in correction_map_circuits():
        expected = with_reference_map(monkeypatch, correction_columns, c)
        assert correction_columns(c) == expected


def test_flattened_program_json_unchanged(monkeypatch):
    rng = np.random.default_rng(45)
    circuits = [ladder(n, random_word(rng, n, 2)) for n in (3, 6, 11)]
    circuits += [
        cl.CliffordCircuit(
            "grid", n, d, tuple(random_word(rng, n, 2, grid_pairs(n, d)))
        )
        for n, d in ((4, 2), (7, 3))
    ]
    for c in circuits:
        flatten = cl.flatten_ladder if c.shape == "ladder" else cl.flatten_grid
        expected = with_reference_map(
            monkeypatch, lambda: pr.dumps(flatten(c))
        )
        assert pr.dumps(flatten(c)) == expected
        assert '"matrix"' not in expected
        assert '"function_name": "linear"' in expected


# ------------------------------------------------------------- gate words


@pytest.mark.parametrize(
    "word", [[g] for g in TWO_WIRE_GATES] + [[]],
    ids=lambda w: "".join(g.name + "".join(map(str, g.qubits)) for g in w)
    or "empty",
)
def test_word_matrix_is_the_embed_product(word):
    step, = ladder(2, word).steps()
    assert np.array_equal(cl._step_gate(0, step).matrix,
                          ref_step_matrix(step))


def test_random_word_matrices_are_the_embed_product():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        lo = int(rng.integers(n - 1))
        length = int(rng.integers(1, 7))
        c = ladder(n, random_full_word(rng, n, length, [(lo, lo + 1)]))
        for idx, step in enumerate(c.steps()):
            assert np.array_equal(cl._step_gate(idx, step).matrix,
                                  ref_step_matrix(step))


def test_fixed_gates_are_their_generators():
    for gate in (cl.H_GATE, cl.CNOT_GATE, cl.X_GATE, cl.Z_GATE):
        assert gate.spec["name"] == "clifford"
        assert np.array_equal(gate.matrix, cl.GENERATORS[gate.name])


def test_equal_specs_share_one_gate_checked_once(monkeypatch):
    checks = []
    check = pr._check_unitary
    monkeypatch.setattr(pr, "_check_unitary",
                        lambda m: checks.append(m) or check(m))
    gate = cl.clifford("Ushared", 2, "CNOT(1,0) S(0) H(1)")
    assert cl.clifford(label="Ushared", wires=2,
                       word="CNOT(1,0) S(0) H(1)") is gate
    assert pr._gate_from_spec(json.loads(json.dumps(gate.spec))) is gate
    assert len(checks) == 1


def test_inverse_of_a_clifford_gate_is_a_clifford_gate():
    assert cl.H_GATE.inverse() is cl.H_GATE
    assert pr.inverse(cl.H_GATE.spec) is cl.H_GATE
    s = cl.clifford("S1", 1, "S(0)")
    assert s.inverse().spec["params"] == {
        "label": "S1_inv", "wires": 1, "word": "S(0) S(0) S(0)"
    }
    rng = np.random.default_rng(62)
    for idx in range(50):
        c = ladder(2, random_full_word(rng, 2, 4))
        gate = cl._step_gate(idx, c.steps()[0])
        inv = pr.inverse(gate.spec)
        assert inv.spec["name"] == "clifford"
        assert np.allclose(inv.matrix @ gate.matrix, np.eye(4), atol=1e-12)


def test_fixed_gates_outlive_the_clifford_memo():
    """More than ``CLIFFORD_MEMO_SIZE`` other specs evict every other
    gate from the memo, but loading the spec of a fixed gate, or of its
    inverse, still gives the module's shared gate, and the memo keeps
    its bound."""
    fixed = (cl.H_GATE, cl.CNOT_GATE, cl.X_GATE, cl.Z_GATE)
    for idx in range(cl.CLIFFORD_MEMO_SIZE + 76):
        cl.clifford(f"evict{idx}", 1, "S(0) H(0)")
    assert cl._word_gate.cache_info().currsize == cl.CLIFFORD_MEMO_SIZE
    for gate in fixed:
        assert pr._gate_from_spec(gate.spec) is gate
        assert pr.inverse(gate.spec) is gate
        assert pr.loads(pr.dumps(pr.LaqccProgram(
            gate.num_bits, {}, [pr.QuantumLayer((pr.GateApp(
                gate, tuple(range(gate.num_bits))),))]))).layers[0].apps[
                    0].gate is gate


# Branches must not move: each program below is run as built and with its
# Clifford gates swapped for plain matrix gates holding the matrices they
# had before they were words (the generator itself for H, CNOT, X and Z,
# the reference step product for ``U{i}``).


def with_parent_matrices(program, steps=()):
    def plain(app):
        gate = app.gate
        if not isinstance(gate, cl.WordGate):
            return app
        if gate.name.startswith("U"):
            m = ref_step_matrix(steps[int(gate.name[1:])])
        else:
            m = cl.GENERATORS[gate.name]
        return pr.GateApp(pr.MatrixGate(gate.name, m), app.qubits,
                          app.condition)

    return pr.LaqccProgram(program.num_qubits, program.registers, [
        pr.QuantumLayer(tuple(map(plain, layer.apps)))
        if isinstance(layer, pr.QuantumLayer) else layer
        for layer in program.layers
    ])


def assert_same_branches(program, reference):
    got = pr.enumerate_branches(program)
    want = pr.enumerate_branches(reference)
    assert [b.record for b in got] == [b.record for b in want]
    assert [b.probability for b in got] == [b.probability for b in want]
    for b, r in zip(got, want):
        assert np.array_equal(b.state.idx, r.state.idx)
        assert np.array_equal(b.state.amp, r.state.amp)


def criterion_2_circuits(monkeypatch):
    """The circuits ``verify.check_flattening`` draws; their random
    inputs are drawn, so the sequence is the same, but not run."""
    circuits = []

    def record(circuit, rng):
        circuits.append(circuit)
        for _ in range(circuit.n):
            verify._random_su2(rng)
        return 0

    with monkeypatch.context() as m:
        m.setattr(verify, "_flatten_agrees", record)
        verify.check_flattening()
    return circuits


def test_criterion_2_maps_and_branches_unchanged(monkeypatch):
    circuits = criterion_2_circuits(monkeypatch)
    assert len(circuits) == 120
    rng = np.random.default_rng(63)
    for c in circuits:
        expected = with_reference_map(monkeypatch, correction_columns, c)
        assert correction_columns(c) == expected
        flatten = cl.flatten_ladder if c.shape == "ladder" else cl.flatten_grid
        program, _ = prepend_product_input(flatten(c), c.n, rng)
        assert_same_branches(program, with_parent_matrices(program, c.steps()))


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_branches_unchanged(n):
    program = cl.ghz(n)
    assert_same_branches(program, with_parent_matrices(program))
