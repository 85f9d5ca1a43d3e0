import math
from itertools import product

import numpy as np
import pytest

from laqcc import macros as mc
from laqcc import program as pr
from laqcc import sparse_state as ss


def run_basis(gate, value):
    """Apply a basis-map gate to one basis value and return the image."""
    return int(gate.fn(np.array([value], ss._dtype(gate.num_bits)))[0])


# ---------------------------------------------------------------- fanout


def test_fanout_table_examples():
    g = mc.fanout(2)
    assert run_basis(g, 0b100) == 0b111  # |1>|00> -> |1>|11>
    assert run_basis(g, 0b011) == 0b011  # x = 0 passthrough
    assert run_basis(g.inverse(), 0b111) == 0b100


def test_fanout_gadget_matches_semantic_all_branches():
    m = 2
    gadget = mc.fanout_gadget(m)
    outs = gadget.registers["fanout_out"].qubits
    H = pr.MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    prep = pr.QuantumLayer((pr.GateApp(H, (0,)),))  # wire 0 = control
    program = pr.LaqccProgram(
        gadget.num_qubits, dict(gadget.registers),
        [prep] + list(gadget.layers),
    )
    # semantic reference on (|0>+|1>)/sqrt2 tensor |00>
    sem = ss.SparseState.basis(m + 1)
    sem = ss.apply_unitary(sem, np.array([[1, 1], [1, -1]]) / math.sqrt(2), [m])
    sem = mc.fanout(m).apply(sem, tuple(range(m, -1, -1)))
    branches = pr.enumerate_branches(program)
    assert len(branches) > 1
    for branch in branches:
        sub, _ = ss.split_register(branch.state, outs)
        assert ss.fidelity(sub, sem) == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------- logic


def test_or_and_equal():
    assert run_basis(mc.or_n(3), 0b101_0) == 0b101_1
    assert run_basis(mc.or_n(3), 0b000_0) == 0b000_0
    assert run_basis(mc.and_n(3), 0b111_0) == 0b111_1
    assert run_basis(mc.and_n(3), 0b110_0) == 0b110_0
    assert run_basis(mc.equal_i(3, 5), 0b101_0) == 0b101_1
    assert run_basis(mc.equal_i(3, 5), 0b100_0) == 0b100_0


# ------------------------------------------------------------- arithmetic


def test_add_modular():
    g = mc.add_n(3)
    # x = 3, y = 5 -> y = 0 mod 8
    assert run_basis(g, (3 << 3) | 5) == (3 << 3) | 0
    assert run_basis(g.inverse(), (3 << 3) | 0) == (3 << 3) | 5


def test_equality_and_greaterthan():
    eq = mc.equality(3)
    assert run_basis(eq, (6 << 4) | (6 << 1) | 0) == (6 << 4) | (6 << 1) | 1
    assert run_basis(eq, (6 << 4) | (2 << 1) | 0) == (6 << 4) | (2 << 1) | 0
    gt = mc.greaterthan(3)
    assert run_basis(gt, (5 << 4) | (3 << 1)) & 1 == 1
    assert run_basis(gt, (3 << 4) | (3 << 1)) & 1 == 0
    assert run_basis(gt, (2 << 4) | (7 << 1)) & 1 == 0


# --------------------------------------------------------------- counting


def test_hammingweight():
    g = mc.hammingweight(4)
    w = mc.count_register_width(4)
    assert run_basis(g, 0b1011 << w) == (0b1011 << w) | 3


def test_exact_and_threshold():
    assert run_basis(mc.exact_t(4, 2), 0b1011 << 1) & 1 == 0
    assert run_basis(mc.exact_t(4, 2), 0b0011 << 1) & 1 == 1
    assert run_basis(mc.threshold_t(4, 2), 0b1011 << 1) & 1 == 1
    assert run_basis(mc.threshold_t(4, 2), 0b0001 << 1) & 1 == 0
    wt = mc.weighted_threshold([3, 1, 1, 1], 4)
    assert run_basis(wt, 0b1001 << 1) & 1 == 1  # 3 + 1 >= 4
    assert run_basis(wt, 0b0111 << 1) & 1 == 0  # 1+1+1 < 4


def test_exact_beyond_n_is_constant_zero():
    g = mc.exact_t(3, 5)
    for v in range(8):
        assert run_basis(g, v << 1) & 1 == 0


def test_weighted_threshold_rejects_non_integers():
    with pytest.raises(ValueError):
        mc.weighted_threshold([1.5, 1], 2)


# ------------------------------------------------------------------- QFT


def test_qft1_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(mc.qft(1).matrix, h)


def test_qft_zero_gives_uniform():
    g = mc.qft(3)
    s = g.apply(ss.SparseState.basis(3), (2, 1, 0))
    assert all(
        a == pytest.approx(1 / math.sqrt(8)) for a in s.amplitudes.values()
    )


def test_qft_round_trip():
    rng = np.random.default_rng(1)
    g = mc.qft(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = ss.from_amplitudes(3, list(enumerate(amps)))
    back = g.inverse().apply(g.apply(s, (2, 1, 0)), (2, 1, 0))
    assert ss.fidelity(back, s) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ permutation


def test_permutation_gate():
    g = mc.permutation((2, 0, 1))  # out bit i = in bit perm[i]
    # input bits (b0,b1,b2) msb-first = (1,0,0) -> output (b2,b0,b1)=(0,1,0)
    assert run_basis(g, 0b100) == 0b010
    assert run_basis(g.inverse(), 0b010) == 0b100


# ------------------------------------------------- bijectivity & hygiene


@pytest.mark.parametrize(
    "gate",
    [
        mc.fanout(3),
        mc.or_n(3),
        mc.and_n(3),
        mc.equal_i(3, 2),
        mc.add_n(2),
        mc.equality(2),
        mc.greaterthan(2),
        mc.hammingweight(3),
        mc.exact_t(3, 1),
        mc.threshold_t(3, 2),
        mc.weighted_threshold([2, 1, 1], 2),
        mc.permutation((1, 2, 0, 3)),
    ],
    ids=lambda g: g.name,
)
def test_macro_is_bijection(gate):
    patterns = np.arange(1 << gate.num_bits)
    images = gate.fn(patterns)
    assert len(set(images.tolist())) == 1 << gate.num_bits
    assert np.array_equal(gate.inverse().fn(images), patterns)


def test_charged_width_doubling_factors():
    """Doubling n = 4 scales each charge by its formula's closed form:
    n by 2, n log n by 2 * 3 / 2, n^2 by 4, n^3 log n by 8 * 3 / 2."""
    from laqcc import charges

    for name, factor in [("fanout", 2), ("or", 3), ("add", 4), ("qft", 12)]:
        assert charges.charge(name, 8) / charges.charge(name, 4) == (
            pytest.approx(factor))


# ---------------------------------------------- commuting parallelization


CZ = np.diag([1, 1, 1, -1]).astype(complex)


def apply_layers(layers, total, init=None):
    program = pr.LaqccProgram(total, layers=list(layers))
    state = init if init is not None else ss.SparseState.basis(total)
    for layer in layers:
        for app in layer.apps:
            state = app.gate.apply(state, app.qubits)
    return state


def dense_on_shared(state, k, total):
    sub, rest = ss.split_register(state, tuple(range(k - 1, -1, -1)))
    assert rest == 0  # ancillas restored
    return sub


def test_parallelize_two_cz():
    k = 3
    # CZ on qubits (2,1) and CZ on (1,0) of a 3-qubit shared register
    def lift(mat, hi, lo, k):
        out = np.ones(1 << k, dtype=complex)
        for v in range(1 << k):
            if (v >> hi) & 1 and (v >> lo) & 1:
                out[v] = -1
        return out

    g1, g2 = lift(CZ, 2, 1, k), lift(CZ, 1, 0, k)
    layers, total = mc.parallelize_commuting([g1, g2])
    rng = np.random.default_rng(2)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    init = ss.from_amplitudes(
        total, [(i, a) for i, a in enumerate(amps)]
    )
    out = apply_layers(layers, total, init)
    sub = dense_on_shared(out, k, total)
    expected_vec = g2 * g1 * amps
    expected = ss.from_amplitudes(k, list(enumerate(expected_vec)))
    assert ss.fidelity(sub, expected) == pytest.approx(1.0, abs=1e-9)


def test_parallelize_single_gate_passthrough():
    d = np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4]))
    layers, total = mc.parallelize_commuting([d])
    assert total == 2
    out = apply_layers(layers, total)
    assert out.amplitudes[0] == pytest.approx(d[0])


def test_parallelize_three_random_phases():
    rng = np.random.default_rng(3)
    k = 2
    gates = [np.exp(1j * rng.normal(size=1 << k)) for _ in range(3)]
    layers, total = mc.parallelize_commuting(gates)
    amps = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    amps /= np.linalg.norm(amps)
    init = ss.from_amplitudes(total, list(enumerate(amps)))
    out = apply_layers(layers, total, init)
    sub = dense_on_shared(out, k, total)
    expected_vec = gates[2] * gates[1] * gates[0] * amps
    expected = ss.from_amplitudes(k, list(enumerate(expected_vec)))
    assert ss.fidelity(sub, expected) == pytest.approx(1.0, abs=1e-9)


def test_parallelize_with_diagonalizer():
    # X-basis phase gates: T^dag diag T with T = H; the caller puts T
    # before the diagonal layers and T^dag after them
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    gx1 = h @ np.diag([1, 1j]) @ h
    gx2 = h @ np.diag([1, -1]) @ h
    layers, total = mc.parallelize_commuting([[1, 1j], [1, -1]])
    layers = [
        pr.QuantumLayer((pr.GateApp(pr.MatrixGate("T", h), (0,)),)),
        *layers,
        pr.QuantumLayer((pr.GateApp(pr.MatrixGate("Tinv", h.T), (0,)),)),
    ]
    rng = np.random.default_rng(4)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    init = ss.from_amplitudes(total, list(enumerate(amps)))
    out = apply_layers(layers, total, init)
    sub = dense_on_shared(out, 1, total)
    expected_vec = gx2 @ gx1 @ amps
    expected = ss.from_amplitudes(1, list(enumerate(expected_vec)))
    assert ss.fidelity(sub, expected) == pytest.approx(1.0, abs=1e-9)


def test_parallelize_rejects_non_commuting():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    with pytest.raises(ValueError):
        mc.parallelize_commuting([x, z])


@pytest.mark.parametrize("tables", [
    [np.diag([1, -1])],
    [[1, -1], [1, 1, 1, -1]],
])
def test_parallelize_rejects_a_matrix_or_unequal_tables(tables):
    with pytest.raises(ValueError, match="1-D phase tables of one length"):
        mc.parallelize_commuting(tables)


def test_parallelize_rejects_no_gates():
    with pytest.raises(ValueError, match="at least one gate"):
        mc.parallelize_commuting([])


def test_parallelize_gadget_vs_semantic_product():
    rng = np.random.default_rng(5)
    k = 2
    gates = [np.exp(1j * rng.normal(size=1 << k)) for _ in range(3)]
    layers, total = mc.parallelize_commuting(gates)
    sem = mc.product_diagonal(gates, k)
    amps = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    amps /= np.linalg.norm(amps)
    init = ss.from_amplitudes(total, list(enumerate(amps)))
    out = apply_layers(layers, total, init)
    sub = dense_on_shared(out, k, total)
    ref = sem.apply(
        ss.from_amplitudes(k, list(enumerate(amps))), (1, 0)
    )
    assert ss.fidelity(sub, ref) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ JSON specs


@pytest.mark.parametrize(
    "make, spec",
    [
        (lambda: mc.fanout(3),
         {"name": "fanout", "params": {"num_targets": 3}}),
        (lambda: mc.or_n(3), {"name": "or", "params": {"n": 3}}),
        (lambda: mc.and_n(3), {"name": "and", "params": {"n": 3}}),
        (lambda: mc.equal_i(3, 2),
         {"name": "equal", "params": {"n": 3, "j": 2}}),
        (lambda: mc.add_n(2), {"name": "add", "params": {"n": 2}}),
        (lambda: mc.equality(2), {"name": "equality", "params": {"n": 2}}),
        (lambda: mc.less_than(3, 5),
         {"name": "lessthan", "params": {"n": 3, "q": 5}}),
        (lambda: mc.greaterthan(2),
         {"name": "greaterthan", "params": {"n": 2}}),
        (lambda: mc.hammingweight(3),
         {"name": "hammingweight", "params": {"n": 3}}),
        (lambda: mc.exact_t(3, 2),
         {"name": "exact", "params": {"n": 3, "t": 2}}),
        (lambda: mc.threshold_t(3, 2),
         {"name": "threshold", "params": {"n": 3, "t": 2}}),
        (lambda: mc.weighted_threshold((3, 1, 1, 1), 4),
         {"name": "threshold",
          "params": {"n": 4, "t": 4, "weights": [3, 1, 1, 1]}}),
        (lambda: mc.qft(2), {"name": "qft", "params": {"n": 2}}),
        (lambda: mc.permutation([2, 0, 1]),
         {"name": "permutation", "params": {"perm": [2, 0, 1]}}),
    ],
)
def test_macro_spec_is_its_call_and_loads_back(make, spec):
    gate = make()
    assert gate.spec == spec
    back = pr.loads(pr.dumps(pr.LaqccProgram(
        gate.num_bits, layers=[pr.QuantumLayer(
            (pr.GateApp(gate, tuple(range(gate.num_bits))),))])))
    again = back.layers[0].apps[0].gate
    assert (again.name, again.charge, again.spec) == (
        gate.name, gate.charge, spec)
    if isinstance(gate, pr.BasisMapGate):
        patterns = np.arange(1 << gate.num_bits)
        assert np.array_equal(again.fn(patterns), gate.fn(patterns))


def test_threshold_weights_must_match_n():
    with pytest.raises(ValueError, match="weights must be 3 integers"):
        mc.threshold_t(3, 1, [1, 1])
