import math

import numpy as np
import pytest

from laqcc import clifford as cl
from laqcc import program as pr
from laqcc import sparse_state as ss
from test_labels import per_outcome

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]])
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
)  # control = high bit (targets[0])


def bell() -> ss.SparseState:
    s = ss.SparseState.basis(2)
    s = ss.apply_unitary(s, H, [0])
    return ss.apply_unitary(s, CNOT, [0, 1])


def test_hadamard_on_zero():
    s = ss.apply_unitary(ss.SparseState.basis(1), H, [0])
    assert s.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert s.amplitudes[1] == pytest.approx(1 / math.sqrt(2))


def test_cnot_truth_table():
    # |10> with control first (qubit 1 high) -> |11>
    s = ss.SparseState.basis(2, 0b10)
    s = ss.apply_unitary(s, CNOT, [1, 0])
    assert set(s.amplitudes) == {0b11}


def test_x_involution():
    s = ss.SparseState.basis(1)
    s = ss.apply_unitary(ss.apply_unitary(s, X, [0]), X, [0])
    assert s.amplitudes[0] == pytest.approx(1.0)


# a MatrixGate checks its matrix once, when it is built; apply_unitary
# trusts the matrices it is given


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="not unitary within 1e-12"):
        pr.MatrixGate("M", np.array([[1, 0], [0, 2]]))


@pytest.mark.parametrize("diagonal", [(1, 1 + 1e-7), (1, 1 + 1e-10)])
def test_nearly_unitary_rejected_at_1e12(diagonal):
    with pytest.raises(ValueError, match="not unitary within 1e-12"):
        pr.MatrixGate("M", np.diag(diagonal))


@pytest.mark.parametrize("matrix", [np.eye(3), np.ones((2, 4))])
def test_matrix_not_2k_square_rejected(matrix):
    with pytest.raises(ValueError, match="is not 2\\^k x 2\\^k"):
        pr.MatrixGate("M", matrix)


def test_unitaries_accepted():
    z = np.random.default_rng(5).normal(size=(8, 8, 2)) @ [1, 1j]
    u, _ = np.linalg.qr(z)
    s = ss.SparseState.basis(3)
    for matrix, targets in ((H, [0]), (CNOT, [0, 1]), (u, [2, 0, 1])):
        gate = pr.MatrixGate("U", matrix)
        assert gate.num_bits == len(targets)
        s = gate.apply(s, targets)
    assert abs(s.norm_squared() - 1.0) < 1e-12


def test_matrix_is_a_read_only_copy():
    source = np.array(H)
    gate = pr.MatrixGate("H", source)
    source[0, 0] = 5
    assert gate.matrix[0, 0] == pytest.approx(1 / math.sqrt(2))
    assert gate.matrix.dtype == complex
    with pytest.raises(ValueError):
        gate.matrix[0, 0] = 5
    with pytest.raises(AttributeError):
        gate.matrix = np.diag([1, 2])


@pytest.mark.parametrize("index", [4, 7, -1])
def test_from_amplitudes_rejects_out_of_range_index(index):
    """So does the constructor from a dict, which checks no norm."""
    for make in (lambda: ss.from_amplitudes(2, [(index, 1.0)]),
                 lambda: ss.SparseState(2, {index: 1.0})):
        with pytest.raises(IndexError, match="out of range"):
            make()


def test_from_amplitudes_rejects_index_beyond_int64():
    for n in (2, 64):
        for make in (lambda: ss.from_amplitudes(n, [(1 << 70, 1.0)]),
                     lambda: ss.SparseState(n, {1 << 70: 1.0})):
            with pytest.raises(IndexError, match="out of range"):
                make()


@pytest.mark.parametrize("entries, error, match", [
    ([(4, 1.0)], IndexError, "basis index 4 out of range"),
    ([(-1, 1.0)], IndexError, "basis index -1 out of range"),
    ([(0, 0.6), (1, 0.6)], ValueError, "not normalized"),
    ([], ValueError, "not normalized"),
])
def test_from_arrays_checks_as_from_amplitudes_does(entries, error, match):
    idx = np.array([i for i, _ in entries], np.int64)
    amp = np.array([a for _, a in entries], complex)
    for make in (lambda: ss.from_amplitudes(2, entries),
                 lambda: ss.from_arrays(2, idx, amp)):
        with pytest.raises(error, match=match):
            make()


@pytest.mark.parametrize("bad", [
    math.nan, complex(0, math.nan), complex(math.inf, 0)])
def test_from_arrays_rejects_a_non_finite_amplitude(bad):
    """A NaN is not below the prune threshold either: it must be
    rejected, not dropped as a small amplitude before the norm check."""
    for make in (lambda: ss.from_amplitudes(1, [(0, 1.0), (1, bad)]),
                 lambda: ss.from_arrays(1, np.array([0, 1]),
                                        np.array([1.0, bad]))):
        with pytest.raises(ValueError, match="finite"):
            make()


def test_norm_checks_fail_on_nan():
    """A NaN norm is not within the tolerance: the unlabelled and the
    per-branch checks reject it, and so does a predicated gate that
    leaves a NaN in the part it does not touch."""
    nan = ss.SparseState._of(2, np.array([0b00, 0b01, 0b10]),
                             np.array([0.6, 0.8, math.nan]))
    labelled = ss.SparseState._of(2, nan.idx, nan.amp, 1)
    for call in (nan.check_norm, labelled.check_norm,
                 lambda: ss.apply_predicated(nan, 1, [0], lambda part: part)):
        with pytest.raises(ValueError, match="drifted"):
            call()


def test_branch_enumerate_rejects_a_non_finite_outcome_weight():
    """An outcome of NaN weight is not below the prune threshold either:
    it fails instead of being dropped before the others are normalised.
    The constructor from a dict still takes a NaN."""
    nan = ss.SparseState(2, {0b00: 0.6, 0b01: 0.8, 0b10: math.nan})
    with pytest.raises(ValueError, match="finite"):
        ss.branch_enumerate(nan, [0])


@pytest.mark.parametrize("which", [(), (np.array([True]),)],
                         ids=["unmasked", "masked"])
def test_apply_permutations_rejects_a_nan_amplitude(which):
    """A NaN is not below the prune threshold: the permutation kernel
    keeps it, on both of its paths, and its norm check rejects it."""
    nan = ss.SparseState(2, {0b00: 0.6, 0b01: 0.8, 0b10: math.nan})
    swap = (np.array([1, 0]), np.array([1, 1], complex), [1], *which)
    with pytest.raises(ValueError, match="drifted"):
        ss.apply_permutations(nan, [swap])


def test_from_arrays_prunes_as_from_amplitudes_does():
    entries = [(3, 0.6), (1, 1e-13), (0, 0.8j)]
    want = ss.from_amplitudes(2, entries)
    got = ss.from_arrays(2, np.array([3, 1, 0]), np.array([0.6, 1e-13, 0.8j]))
    assert got.idx.dtype == want.idx.dtype == np.int64
    assert got.idx.tolist() == want.idx.tolist() == [3, 0]
    assert np.array_equal(got.amp.view(float), want.amp.view(float))


@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 64, 300, 1023])
def test_uniform_target_equals_its_entry_list(q):
    from laqcc import protocols as pt

    want = ss.from_amplitudes(
        pt.index_width(q), [(i, 1 / math.sqrt(q)) for i in range(q)])
    got = pt.uniform_target(q)
    assert got.num_qubits == want.num_qubits
    assert got.idx.dtype == want.idx.dtype
    assert np.array_equal(got.idx, want.idx)
    assert np.array_equal(got.amp.view(float), want.amp.view(float))


def test_dense_gate_past_the_support_cap_raises(monkeypatch):
    monkeypatch.setattr(ss, "MAX_SUPPORT", 4)
    state = ss.SparseState.basis(3)
    for q in (0, 1):
        state = cl.H_GATE.apply(state, (q,))
    with pytest.raises(ss.SupportLimitError, match="8 basis states"):
        cl.H_GATE.apply(state, (2,))


def test_out_of_range_target():
    with pytest.raises(IndexError):
        ss.apply_unitary(ss.SparseState.basis(1), X, [1])


def test_measure_forced():
    s = ss.apply_unitary(ss.SparseState.basis(1), H, [0])
    outcome, p, post = ss.measure(s, [0], forced=1)
    assert (outcome, p) == (1, pytest.approx(0.5))
    assert set(post.amplitudes) == {1}


def test_measure_bell_forced_00():
    outcome, p, post = ss.measure(bell(), [0, 1], forced=0)
    assert p == pytest.approx(0.5)
    assert set(post.amplitudes) == {0}


def test_measure_zero_probability_forced():
    s = ss.SparseState.basis(2, 0b10)
    with pytest.raises(ss.InfeasibleBranchError):
        ss.measure(s, [1], forced=0)


def test_measure_seeded_is_deterministic():
    s = bell()
    a = ss.measure(s, [0], rng=np.random.default_rng(7))
    b = ss.measure(s, [0], rng=np.random.default_rng(7))
    assert a[0] == b[0]


def test_branch_enumerate_bell():
    branches = per_outcome(bell(), [0])
    assert [(o, pytest.approx(0.5)) == (o, p) for o, p, _ in branches]
    assert [o for o, _, _ in branches] == [0, 1]
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0)


def test_branch_enumerate_product_state():
    # |0> on qubit 2, a Bell pair on qubits 1 and 0
    s = ss.from_amplitudes(3, bell().amplitudes.items())
    branches = per_outcome(s, [2])
    assert len(branches) == 1
    assert branches[0][1] == pytest.approx(1.0)


def test_branch_enumerate_ghz3():
    s = ss.from_amplitudes(
        3, [(0, 1 / math.sqrt(2)), (7, 1 / math.sqrt(2))]
    )
    branches = per_outcome(s, [0, 1])
    assert [o for o, _, _ in branches] == [0b00, 0b11]
    assert all(p == pytest.approx(0.5) for _, p, _ in branches)


def test_fidelity_values():
    zero = ss.SparseState.basis(1, 0)
    one = ss.SparseState.basis(1, 1)
    plus = ss.apply_unitary(zero, H, [0])
    assert ss.fidelity(zero, zero) == pytest.approx(1.0)
    assert ss.fidelity(zero, one) == pytest.approx(0.0)
    assert ss.fidelity(plus, zero) == pytest.approx(1 / math.sqrt(2))
    # symmetric and phase-blind
    assert ss.fidelity(zero, plus) == pytest.approx(ss.fidelity(plus, zero))


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        ss.fidelity(ss.SparseState.basis(1), ss.SparseState.basis(2))


def test_basis_map_preserves_support():
    s = ss.apply_unitary(ss.SparseState.basis(2), H, [0])
    mapped = ss.apply_basis_map(s, lambda v: v ^ 0b10, [1, 0])
    assert mapped.support() == s.support()
    assert set(mapped.amplitudes) == {0b10, 0b11}


def test_basis_map_injectivity_enforced():
    s = ss.apply_unitary(ss.SparseState.basis(1), H, [0])
    with pytest.raises(ValueError):
        ss.apply_basis_map(s, lambda v: np.zeros_like(v), [0])


def test_phase_map():
    s = ss.apply_unitary(ss.SparseState.basis(1), H, [0])
    s = ss.apply_phase_map(s, lambda v: np.where(v != 0, -1, 1), [0])
    minus = ss.from_amplitudes(
        1, [(0, 1 / math.sqrt(2)), (1, -1 / math.sqrt(2))]
    )
    assert ss.fidelity(s, minus) == pytest.approx(1.0)


def test_norm_drift_over_many_gates():
    rng = np.random.default_rng(3)
    s = ss.SparseState.basis(4)
    for _ in range(10_000 // 10):
        q = int(rng.integers(4))
        s = ss.apply_unitary(s, H, [q])
    assert abs(s.norm_squared() - 1.0) < 1e-9


def test_branch_recombination_matches_marginal():
    s = bell()
    branches = per_outcome(s, [1])
    recombined = {}
    for _, p, post in branches:
        for i, a in post.amplitudes.items():
            recombined[i] = recombined.get(i, 0.0) + p * abs(a) ** 2
    for i, a in s.amplitudes.items():
        assert recombined[i] == pytest.approx(abs(a) ** 2)


def reference_branches(state, qubits):
    """Per-outcome projection with one scan of the state per outcome:
    the reference that the single-scan measurement must reproduce."""

    def outcome_of(index):
        o = 0
        for q in qubits:
            o = (o << 1) | ((index >> q) & 1)
        return o

    branches = []
    for outcome in sorted({outcome_of(i) for i in state.amplitudes}):
        p = 0.0
        for i, a in state.amplitudes.items():
            if outcome_of(i) == outcome:
                p += abs(a) ** 2
        if p <= ss.PRUNE_THRESHOLD:
            continue
        scale = 1.0 / math.sqrt(p)
        post = [
            (i, a * scale)
            for i, a in state.amplitudes.items()
            if outcome_of(i) == outcome
            and abs(a * scale) >= ss.PRUNE_THRESHOLD
        ]
        branches.append((outcome, p, post))
    return branches


def random_sparse_state(rng, n):
    size = int(rng.integers(1, 1 << n))
    support = rng.choice(1 << n, size=size, replace=False)
    amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    amps[0] = 1e-7  # an outcome may carry weight below the prune threshold
    amps /= np.linalg.norm(amps)
    return ss.from_amplitudes(n, zip(support.tolist(), amps.tolist()))


@pytest.mark.parametrize("seed", range(20))
def test_single_scan_measurement_matches_per_outcome_projection(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    state = random_sparse_state(rng, n)
    qubits = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
    expected = reference_branches(state, qubits)
    got = [
        (o, p, list(post.amplitudes.items()))
        for o, p, post in per_outcome(state, qubits)
    ]
    assert got == expected
    for outcome, p, post in expected:
        o, q, forced = ss.measure(state, qubits, forced=outcome)
        assert (o, q, list(forced.amplitudes.items())) == (outcome, p, post)
    o, q, seeded = ss.measure(state, qubits, rng=rng)
    assert (o, q, list(seeded.amplitudes.items())) in expected
    feasible = {o for o, _, _ in expected}
    for outcome in range(1 << len(qubits)):
        if outcome not in feasible:
            with pytest.raises(ss.InfeasibleBranchError):
                ss.measure(state, qubits, forced=outcome)


# a matrix with one entry from 1, -1, 1j, -1j per column is a signed
# permutation, applied by moving indices; any other matrix stays dense


@pytest.mark.parametrize("wires, word", [
    (1, "X(0)"), (1, "Z(0)"), (1, "S(0)"),
    (2, "CNOT(0,1)"), (2, "CNOT(1,0)"), (2, "SWAP(0,1)"),
])
def test_pauli_frame_gates_are_signed_permutations(wires, word):
    gate = cl.clifford("g", wires, word)
    for g in (gate, gate.inverse()):
        images, phases = g.permutation
        rebuilt = np.zeros_like(g.matrix)
        rebuilt[images, np.arange(1 << wires)] = phases
        assert np.array_equal(rebuilt, g.matrix)
        assert sorted(images.tolist()) == list(range(1 << wires))
        assert set(phases.tolist()) <= {1, -1, 1j, -1j}
        with pytest.raises(ValueError):
            images[0] = 0


def random_su2(rng):
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    a, b = np.array([a, b]) / math.hypot(abs(a), abs(b))
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


@pytest.mark.parametrize("gate", [
    cl.H_GATE,
    cl.clifford("HS", 1, "H(0) S(0)"),
    pr.MatrixGate("T", np.diag([1, np.exp(1j * np.pi / 4)])),
    pr.MatrixGate("U", random_su2(np.random.default_rng(3))),
    pr.MatrixGate("Xr", X + np.array([[1e-13, 0], [0, 0]])),
], ids=lambda g: g.name)
def test_other_unitaries_stay_dense(gate):
    assert gate.permutation is None


def test_matrix_gates_compare_by_name_charge_and_matrix():
    a, b = pr.MatrixGate("X", X), pr.MatrixGate("X", X)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert pr.GateApp(a, (0,)) == pr.GateApp(b, (0,))
    assert hash(pr.GateApp(a, (0,))) == hash(pr.GateApp(b, (0,)))
    z = pr.MatrixGate("Z", np.diag([1, -1]))
    signed_zero = pr.MatrixGate("Z", [[1, complex(-0.0, -0.0)], [-0.0, -1]])
    assert np.signbit(signed_zero.matrix.real[0, 1])
    assert z == signed_zero and hash(z) == hash(signed_zero)
    for other in (pr.MatrixGate("Y", X), pr.MatrixGate("X", X, 1.0),
                  pr.MatrixGate("X", -X), pr.MatrixGate("X", CNOT)):
        assert a != other
