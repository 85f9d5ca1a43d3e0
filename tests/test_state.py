import math

import numpy as np
import pytest

from laqcc import sparse_state as ss

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


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        ss.apply_unitary(ss.SparseState.basis(1), np.array([[1, 0], [0, 2]]), [0])


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
    branches = ss.branch_enumerate(bell(), [0])
    assert [(o, pytest.approx(0.5)) == (o, p) for o, p, _ in branches]
    assert [o for o, _, _ in branches] == [0, 1]
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0)


def test_branch_enumerate_product_state():
    s = ss.tensor(ss.SparseState.basis(1, 0), bell())
    branches = ss.branch_enumerate(s, [2])
    assert len(branches) == 1
    assert branches[0][1] == pytest.approx(1.0)


def test_branch_enumerate_ghz3():
    s = ss.from_amplitudes(
        3, [(0, 1 / math.sqrt(2)), (7, 1 / math.sqrt(2))]
    )
    branches = ss.branch_enumerate(s, [0, 1])
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
        ss.apply_basis_map(s, lambda v: 0, [0])


def test_phase_map():
    s = ss.apply_unitary(ss.SparseState.basis(1), H, [0])
    s = ss.apply_phase_map(s, lambda v: -1 if v else 1, [0])
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
    branches = ss.branch_enumerate(s, [1])
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
        for o, p, post in ss.branch_enumerate(state, qubits)
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
