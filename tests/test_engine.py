"""Parity of the numpy state operations with per-amplitude reference
loops.

The reference kernels below walk the amplitude dict one basis state at
a time, bit by bit.  The array forms in ``laqcc.sparse_state`` (and
``PredicatedGate.apply`` on top of them) must give the same support and
the same amplitudes within 1e-12 on seeded random sparse states, and
fail on the same inputs.  The dense gate kernel and the basis and phase
maps may reorder the support; ``split_register`` and
``PredicatedGate.apply`` keep the reference's order.

``apply_permutation``, the kernel of signed-permutation gates, must
moreover equal ``apply_unitary`` exactly: the same indices in the same
order and amplitudes that compare equal, on random inputs and on every
such gate application of the acceptance programs.
"""
import math

import numpy as np
import pytest

from laqcc import program as pr
from laqcc import sparse_state as ss
from laqcc import verify

ATOL = 1e-12


# ------------------------------------------------------------- reference


def _pattern(index, targets):
    col = 0
    for t in targets:
        col = (col << 1) | ((index >> t) & 1)
    return col


def ref_apply_unitary(state, matrix, targets):
    matrix = np.asarray(matrix, dtype=complex)
    k = len(targets)
    out = {}
    for index, amp in state.amplitudes.items():
        col = _pattern(index, targets)
        base = index
        for t in targets:
            base &= ~(1 << t)
        for row in range(1 << k):
            m = matrix[row, col]
            if m == 0:
                continue
            new_index = base
            for pos, t in enumerate(targets):
                if (row >> (k - 1 - pos)) & 1:
                    new_index |= 1 << t
            out[new_index] = out.get(new_index, 0.0) + m * amp
    result = ss.SparseState(
        state.num_qubits,
        {i: a for i, a in out.items() if abs(a) >= ss.PRUNE_THRESHOLD},
    )
    result.check_norm()
    return result


def one(fn, pattern, k):
    """The array-native map function ``fn`` at one ``k``-bit pattern."""
    return fn(np.array([pattern], ss._dtype(k)))[0]


def ref_apply_basis_map(state, mapping, targets):
    k = len(targets)
    out = {}
    for index, amp in state.amplitudes.items():
        image = int(one(mapping, _pattern(index, targets), k))
        if not 0 <= image < (1 << k):
            raise ValueError("basis map image out of range")
        new_index = index
        for pos, t in enumerate(targets):
            bit = (image >> (k - 1 - pos)) & 1
            new_index = (new_index & ~(1 << t)) | (bit << t)
        if new_index in out:
            raise ValueError("basis map is not injective on the support")
        out[new_index] = amp
    return ss.SparseState(state.num_qubits, out)


def ref_apply_phase_map(state, phase, targets):
    out = {}
    for index, amp in state.amplitudes.items():
        p = complex(one(phase, _pattern(index, targets), len(targets)))
        if abs(abs(p) - 1.0) > 1e-9:
            raise ValueError("phase factor must have unit modulus")
        out[index] = amp * p
    return ss.SparseState(state.num_qubits, out)


def ref_split_register(state, keep):
    keep_set = set(keep)
    rest = [q for q in range(state.num_qubits) if q not in keep_set]
    sub = {}
    rest_pattern = None
    for index, amp in state.amplitudes.items():
        r = 0
        for pos, q in enumerate(rest):
            r |= ((index >> q) & 1) << pos
        if rest_pattern is None:
            rest_pattern = r
        elif r != rest_pattern:
            raise ValueError("remaining qubits are not in one basis state")
        sub[_pattern(index, keep)] = amp
    return ss.SparseState(len(keep), sub), rest_pattern or 0


def ref_fidelity(state, target):
    small, large = state.amplitudes, target.amplitudes
    if len(large) < len(small):
        small, large = large, small
    overlap = sum(a * large.get(i, 0.0).conjugate() for i, a in small.items())
    return min(1.0, abs(overlap))


def ref_predicated(state, gate, qubits):
    """``gate``'s inner gate applied to the amplitudes whose control bits
    satisfy its predicate."""
    controls = qubits[: gate.control_bits]
    targets = qubits[gate.control_bits:]
    hit, miss = {}, {}
    for index, amp in state.amplitudes.items():
        pattern = _pattern(index, controls)
        (hit if one(gate.predicate, pattern, len(controls)) else miss)[
            index] = amp
    out = dict(miss)
    if hit:
        norm = math.sqrt(sum(abs(a) ** 2 for a in hit.values()))
        scaled = ss.SparseState(
            state.num_qubits, {i: a / norm for i, a in hit.items()})
        moved = gate.gate.apply(scaled, targets)
        for i, a in moved.amplitudes.items():
            out[i] = out.get(i, 0.0) + a * norm
    return ss.SparseState(state.num_qubits, out)


# ---------------------------------------------------------------- inputs


def random_state(rng, n, size=None, support=()):
    """Normalised state on ``size`` distinct basis indices, ``support``
    among them and the rest random."""
    if size is None:
        size = int(rng.integers(1, min(1 << n, 200) + 1))
    support = set(support)
    while len(support) < size:
        # Python ints, so n may exceed 63
        support.add(int.from_bytes(rng.bytes((n + 7) // 8), "little")
                    % (1 << n))
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    return ss.SparseState(n, dict(zip(sorted(support), amps.tolist())))


def random_unitary(rng, k):
    z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(
        size=(1 << k, 1 << k))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))


def random_signed_permutation(rng, k):
    """A matrix with one entry from ``1, -1, 1j, -1j`` per column, in a
    seeded random row."""
    d = 1 << k
    matrix = np.zeros((d, d), complex)
    matrix[rng.permutation(d), np.arange(d)] = rng.choice(
        np.array([1, -1, 1j, -1j]), d)
    return matrix


def random_targets(rng, n, k):
    """``k`` distinct qubits in shuffled, generally non-adjacent order."""
    return [int(q) for q in rng.permutation(n)[:k]]


def assert_same(got, expected):
    assert got.num_qubits == expected.num_qubits
    assert set(got.amplitudes) == set(expected.amplitudes)
    for i, a in expected.amplitudes.items():
        assert abs(got.amplitudes[i] - a) <= ATOL


def assert_same_in_order(got, expected):
    assert list(got.amplitudes) == list(expected.amplitudes)
    assert_same(got, expected)


CASES = [(seed, k) for seed in range(12) for k in (1, 2, 3)]


def case(seed, k, n=None):
    rng = np.random.default_rng([seed, k])
    if n is None:
        n = int(rng.integers(k, 13))
    return rng, random_state(rng, n), random_targets(rng, n, k)


# ---------------------------------------------------------------- parity


@pytest.mark.parametrize("seed, k", CASES)
def test_unitary_matches_reference(seed, k):
    rng, state, targets = case(seed, k)
    matrix = random_unitary(rng, k)
    assert_same(
        ss.apply_unitary(state, matrix, targets),
        ref_apply_unitary(state, matrix, targets),
    )


@pytest.mark.parametrize("seed, k", CASES)
def test_basis_map_matches_reference(seed, k):
    rng, state, targets = case(seed, k)
    perm = rng.permutation(1 << k)
    calls = []

    def mapping(v):
        calls.append(v.tolist())
        return perm[v]

    got = ss.apply_basis_map(state, mapping, targets)
    # one call, on the distinct patterns of the support
    assert calls == [sorted({_pattern(i, targets) for i in state.amplitudes})]
    assert_same(got, ref_apply_basis_map(state, perm.__getitem__, targets))


@pytest.mark.parametrize("seed, k", CASES)
def test_phase_map_matches_reference(seed, k):
    rng, state, targets = case(seed, k)
    phases = np.exp(2j * np.pi * rng.random(1 << k))
    assert_same(
        ss.apply_phase_map(state, phases.__getitem__, targets),
        ref_apply_phase_map(state, phases.__getitem__, targets),
    )


@pytest.mark.parametrize("k", (1, 2, 3))
def test_seventy_qubit_state_matches_reference(k):
    rng, state, targets = case(100, k, n=70)
    targets[-1] = 69  # a bit beyond int64
    matrix = random_unitary(rng, k)
    perm = rng.permutation(1 << k)
    phases = np.exp(2j * np.pi * rng.random(1 << k))
    assert_same(
        ss.apply_unitary(state, matrix, targets),
        ref_apply_unitary(state, matrix, targets),
    )
    assert_same(
        ss.apply_basis_map(state, perm.__getitem__, targets),
        ref_apply_basis_map(state, perm.__getitem__, targets),
    )
    assert_same(
        ss.apply_phase_map(state, phases.__getitem__, targets),
        ref_apply_phase_map(state, phases.__getitem__, targets),
    )


def assert_identical(got, expected):
    """Same indices in the same order, amplitudes that compare equal."""
    assert got.num_qubits == expected.num_qubits
    assert got.idx.dtype == expected.idx.dtype
    assert np.array_equal(got.idx, expected.idx)
    assert np.array_equal(got.amp, expected.amp)


# at 62 qubits the indices are int64 but the sort key needs Python ints
@pytest.mark.parametrize("n", (20, 62, 70))
@pytest.mark.parametrize("seed, k", CASES)
def test_permutation_equals_dense_kernel(seed, k, n):
    rng, state, targets = case(seed, k, n=n)
    if n == 70:
        targets[-1] = max(set(range(64, 70)) - set(targets))
    matrix = random_signed_permutation(rng, k)
    gate = pr.MatrixGate("p", matrix)
    got = ss.apply_permutation(state, *gate.permutation, targets)
    assert_identical(got, ss.apply_unitary(state, matrix, targets))
    assert_same(got, ref_apply_unitary(state, matrix, targets))
    assert_identical(gate.apply(state, tuple(targets)), got)


def test_wide_basis_map_matches_reference():
    rng, state, targets = case(7, 14, n=20)
    assert_same(
        ss.apply_basis_map(state, lambda v: v ^ 0b1011, targets),
        ref_apply_basis_map(state, lambda v: v ^ 0b1011, targets),
    )


def test_map_injective_on_support_but_not_on_patterns():
    # patterns 0b00 and 0b01 both map to 0b00, but never share a rest
    state = ss.from_amplitudes(
        3, [(0b000, 1 / math.sqrt(2)), (0b101, 1 / math.sqrt(2))]
    )
    targets = [1, 0]
    assert_same(
        ss.apply_basis_map(state, lambda v: np.zeros_like(v), targets),
        ref_apply_basis_map(state, lambda v: np.zeros_like(v), targets),
    )


def product_state(rng, n, keep):
    """A random state on ``keep`` (keep[0] most significant) next to one
    random basis pattern on every other qubit."""
    k = len(keep)
    sub = random_state(rng, k)
    rest = [q for q in range(n) if q not in set(keep)]
    pattern = sum(int(rng.integers(2)) << q for q in rest)
    return ss.SparseState(n, {
        pattern | sum(((i >> (k - 1 - pos)) & 1) << q
                      for pos, q in enumerate(keep)): a
        for i, a in sub.amplitudes.items()
    })


@pytest.mark.parametrize("seed, k", CASES)
def test_split_register_matches_reference(seed, k):
    rng = np.random.default_rng([seed, k, 1])
    n = int(rng.integers(k, 13))
    keep = random_targets(rng, n, k)
    state = product_state(rng, n, keep)
    (got, got_rest), (want, want_rest) = (
        ss.split_register(state, keep), ref_split_register(state, keep))
    assert got_rest == want_rest
    assert_same_in_order(got, want)


@pytest.mark.parametrize("seed, k", CASES)
def test_fidelity_matches_reference(seed, k):
    rng, state, _ = case(seed, k)
    n = state.num_qubits
    shared = list(state.amplitudes)[: int(rng.integers(0, state.support() + 1))]
    size = min(1 << n, len(shared) + int(rng.integers(1, 5)))
    target = random_state(rng, n, size, shared)
    for a, b in ((state, target), (target, state), (state, state)):
        assert abs(ss.fidelity(a, b) - ref_fidelity(a, b)) <= ATOL


@pytest.mark.parametrize("seed, k", CASES)
def test_predicated_gate_matches_reference(seed, k):
    rng, state, targets = case(seed, k)
    n = state.num_qubits
    free = [q for q in rng.permutation(n).tolist() if q not in targets]
    controls = free[: int(rng.integers(0, len(free) + 1))]
    table = rng.integers(2, size=1 << len(controls))
    gate = pr.PredicatedGate("p", len(controls), table.__getitem__,
                             pr.MatrixGate("u", random_unitary(rng, k)))
    qubits = tuple(controls + targets)
    assert_same_in_order(gate.apply(state, qubits),
                         ref_predicated(state, gate, qubits))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_seventy_qubit_split_fidelity_predicated_match_reference(k):
    rng = np.random.default_rng([200, k])
    keep = random_targets(rng, 70, k)
    keep[0] = 69  # a bit beyond int64
    state = product_state(rng, 70, keep)
    (got, got_rest), (want, want_rest) = (
        ss.split_register(state, keep), ref_split_register(state, keep))
    assert got_rest == want_rest
    assert_same_in_order(got, want)

    _, state, targets = case(100, k, n=70)
    target = random_state(rng, 70, 60, list(state.amplitudes)[:40])
    assert abs(ss.fidelity(state, target)
               - ref_fidelity(state, target)) <= ATOL
    controls = [q for q in (69, 68, 67, 0, 1) if q not in targets][:2]
    gate = pr.PredicatedGate("p", 2, lambda v: v != 1,
                             pr.MatrixGate("u", random_unitary(rng, k)))
    qubits = tuple(controls + targets)
    assert_same_in_order(gate.apply(state, qubits),
                         ref_predicated(state, gate, qubits))


# ----------------------------------------------------------- error paths


def both_raise(error, match, call):
    for kernel in call:
        with pytest.raises(error, match=match):
            kernel()


def test_non_injective_map_rejected_by_both():
    _, state, targets = case(3, 2, n=6)
    state = ss.apply_unitary(state, random_unitary(
        np.random.default_rng(0), 2), targets)
    both_raise(ValueError, "not injective", [
        lambda: ss.apply_basis_map(state, lambda v: np.zeros_like(v), targets),
        lambda: ref_apply_basis_map(state, lambda v: np.zeros_like(v), targets),
    ])


def test_image_out_of_range_rejected_by_both():
    _, state, targets = case(4, 2)
    both_raise(ValueError, "out of range", [
        lambda: ss.apply_basis_map(state, lambda v: np.full_like(v, 4), targets),
        lambda: ref_apply_basis_map(state, lambda v: np.full_like(v, 4), targets),
        lambda: ss.apply_basis_map(state, lambda v: np.full_like(v, -1), targets),
        lambda: ref_apply_basis_map(state, lambda v: np.full_like(v, -1), targets),
    ])


def test_non_unit_phase_rejected_by_both():
    _, state, targets = case(5, 3)
    both_raise(ValueError, "unit modulus", [
        lambda: ss.apply_phase_map(state, lambda v: np.full(len(v), 1 + 1e-6), targets),
        lambda: ref_apply_phase_map(state, lambda v: np.full(len(v), 1 + 1e-6), targets),
    ])


def test_norm_drift_rejected_by_both():
    state = ss.SparseState(3, {0b001: 0.6, 0b100: 0.6})
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    both_raise(ValueError, "norm drifted", [
        lambda: ss.apply_unitary(state, h, [2]),
        lambda: ref_apply_unitary(state, h, [2]),
    ])


def test_norm_drift_rejected_by_both_gate_kernels():
    state = ss.SparseState(3, {0b001: 0.6, 0b100: 0.6})
    x = pr.MatrixGate("X", [[0, 1], [1, 0]])
    both_raise(ValueError, "norm drifted", [
        lambda: ss.apply_permutation(state, *x.permutation, [2]),
        lambda: ss.apply_unitary(state, x.matrix, [2]),
        lambda: ref_apply_unitary(state, x.matrix, [2]),
    ])


def test_bad_targets_rejected_by_both_gate_kernels():
    state = ss.SparseState.basis(3)
    x = pr.MatrixGate("X", [[0, 1], [1, 0]])
    for targets, error, match in (
        ([1, 1], IndexError, "duplicate"),
        ([3], IndexError, "out of range"),
        ([0, 1], ValueError, "does not match target count"),
    ):
        both_raise(error, match, [
            lambda: ss.apply_permutation(state, *x.permutation, targets),
            lambda: ss.apply_unitary(state, x.matrix, targets),
        ])


def test_entangled_rest_rejected_by_both():
    _, state, targets = case(6, 2, n=6)
    both_raise(ValueError, "not in one basis state", [
        lambda: ss.split_register(state, targets),
        lambda: ref_split_register(state, targets),
    ])


# ------------------------------------------------------ acceptance parity


def test_acceptance_programs_equal_on_both_gate_kernels(monkeypatch):
    """Every signed-permutation gate application of every acceptance
    driver gives the dense kernel's state exactly."""
    apply = pr.MatrixGate.apply
    checked, differ = [], []

    def both(gate, state, qubits):
        got = apply(gate, state, qubits)
        if gate.permutation is not None:
            want = ss.apply_unitary(state, gate.matrix, qubits)
            checked.append(gate.name)
            if not (np.array_equal(got.idx, want.idx)
                    and np.array_equal(got.amp, want.amp)):
                differ.append((gate.name, qubits))
        return got

    monkeypatch.setattr(pr.MatrixGate, "apply", both)
    results = verify.run_all()
    assert [r["name"] for r in results if not r["passed"]] == []
    assert differ == []
    assert {"X", "Z", "CNOT"} <= set(checked) and len(checked) > 1000


# The map kernels as they were: one call of the gate's function per
# distinct pattern, here at a one-element array.


def old_apply_basis_map(state, mapping, targets):
    ss._check_targets(state, targets)
    k = len(targets)
    idx = state.idx
    patterns, where = np.unique(ss._gather(idx, targets), return_inverse=True)
    images = [int(one(mapping, p, k)) for p in patterns.tolist()]
    if not all(0 <= v < (1 << k) for v in images):
        raise ValueError("basis map image out of range")
    moved = ss._scatter(np.array(images, ss._dtype(k)), targets, idx.dtype)
    new_idx = ss._rest(idx, targets) | moved[where]
    if len(set(images)) < len(images) and len(np.unique(new_idx)) < len(
        new_idx
    ):
        raise ValueError("basis map is not injective on the support")
    return ss.SparseState._of(state.num_qubits, new_idx, state.amp)


def old_apply_phase_map(state, phase, targets):
    ss._check_targets(state, targets)
    k = len(targets)
    idx = state.idx
    patterns, where = np.unique(ss._gather(idx, targets), return_inverse=True)
    phases = np.array(
        [complex(one(phase, p, k)) for p in patterns.tolist()], complex)
    if not np.all(np.abs(np.abs(phases) - 1.0) <= 1e-9):
        raise ValueError("phase factor must have unit modulus")
    return ss.SparseState._of(
        state.num_qubits, idx, state.amp * phases[where])


def old_apply_predicated(state, predicate, controls, apply):
    idx, amp = state.idx, state.amp
    k = len(controls)
    patterns, where = np.unique(ss._gather(idx, controls), return_inverse=True)
    hit = np.array(
        [bool(one(predicate, p, k)) for p in patterns.tolist()])[where]
    if hit.any():
        norm = math.sqrt(ss._running_sum(ss._weights(amp[hit])))
        part = (amp[hit].view(float) / norm).view(complex)
        moved = apply(ss.SparseState._of(state.num_qubits, idx[hit], part))
        idx = np.concatenate([idx[~hit], moved.idx])
        amp = np.concatenate([amp[~hit], moved.amp * norm])
    return ss.SparseState._of(state.num_qubits, idx, amp).check_norm()


def test_acceptance_programs_equal_on_old_map_kernels(monkeypatch):
    """Every basis-map, phase-map and predicated application of every
    acceptance driver gives the per-pattern kernel's state exactly."""
    checked, differ = [], []

    def both(name, new, old):
        def kernel(state, fn, *rest):
            got = new(state, fn, *rest)
            want = old(state, fn, *rest)
            checked.append(name)
            if not (got.idx.dtype == want.idx.dtype
                    and np.array_equal(got.idx, want.idx)
                    and np.array_equal(got.amp, want.amp)):
                differ.append((name, rest[0]))
            return got
        return kernel

    for name, old in (("apply_basis_map", old_apply_basis_map),
                      ("apply_phase_map", old_apply_phase_map),
                      ("apply_predicated", old_apply_predicated)):
        monkeypatch.setattr(ss, name, both(name, getattr(ss, name), old))
    results = verify.run_all()
    assert [r["name"] for r in results if not r["passed"]] == []
    assert differ == []
    assert {"apply_basis_map", "apply_phase_map"} <= set(checked)
    assert len(checked) > 1000


def test_deferred_programs_equal_on_old_predicated_kernel(monkeypatch):
    """``transform defer`` output runs the same on both predicated
    kernels, every branch."""
    from laqcc import clifford as cl

    checked, differ = [], []
    new = ss.apply_predicated

    def kernel(state, predicate, controls, apply):
        got = new(state, predicate, controls, apply)
        want = old_apply_predicated(state, predicate, controls, apply)
        checked.append(tuple(controls))
        if not (np.array_equal(got.idx, want.idx)
                and np.array_equal(got.amp, want.amp)):
            differ.append(tuple(controls))
        return got

    monkeypatch.setattr(ss, "apply_predicated", kernel)
    for program in (cl.ghz(4), cl.flatten_ladder(cl.CliffordCircuit(
            "ladder", 3, 1, (cl.CliffordGate("H", (0,)),
                             cl.CliffordGate("CNOT", (0, 1)),
                             cl.CliffordGate("S", (2,)))))):
        deferred = pr.defer_measurements(program)
        assert pr.enumerate_branches(deferred)
    assert checked and differ == []
