"""Parity of the numpy gate kernels with per-amplitude reference loops.

The reference kernels below walk the amplitude dict one basis state at
a time, bit by bit.  The numpy kernels in ``laqcc.sparse_state`` must
give the same support and the same amplitudes within 1e-12 on seeded
random sparse states, and fail on the same inputs.
"""
import math

import numpy as np
import pytest

from laqcc import sparse_state as ss

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


def ref_apply_basis_map(state, mapping, targets):
    k = len(targets)
    out = {}
    for index, amp in state.amplitudes.items():
        image = mapping(_pattern(index, targets))
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
        p = complex(phase(_pattern(index, targets)))
        if abs(abs(p) - 1.0) > 1e-9:
            raise ValueError("phase factor must have unit modulus")
        out[index] = amp * p
    return ss.SparseState(state.num_qubits, out)


# ---------------------------------------------------------------- inputs


def random_state(rng, n, size=None):
    """Normalised state on ``size`` distinct random basis indices."""
    if size is None:
        size = int(rng.integers(1, min(1 << n, 200) + 1))
    support = set()
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


def random_targets(rng, n, k):
    """``k`` distinct qubits in shuffled, generally non-adjacent order."""
    return [int(q) for q in rng.permutation(n)[:k]]


def assert_same(got, expected):
    assert got.num_qubits == expected.num_qubits
    assert set(got.amplitudes) == set(expected.amplitudes)
    for i, a in expected.amplitudes.items():
        assert abs(got.amplitudes[i] - a) <= ATOL


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
    perm = rng.permutation(1 << k).tolist()
    calls = []

    def mapping(v):
        calls.append(v)
        return perm[v]

    got = ss.apply_basis_map(state, mapping, targets)
    assert len(calls) == len(set(calls))  # once per distinct pattern
    assert_same(got, ref_apply_basis_map(state, perm.__getitem__, targets))


@pytest.mark.parametrize("seed, k", CASES)
def test_phase_map_matches_reference(seed, k):
    rng, state, targets = case(seed, k)
    phases = np.exp(2j * np.pi * rng.random(1 << k)).tolist()
    assert_same(
        ss.apply_phase_map(state, phases.__getitem__, targets),
        ref_apply_phase_map(state, phases.__getitem__, targets),
    )


@pytest.mark.parametrize("k", (1, 2, 3))
def test_seventy_qubit_state_matches_reference(k):
    rng, state, targets = case(100, k, n=70)
    targets[-1] = 69  # a bit beyond int64
    matrix = random_unitary(rng, k)
    perm = rng.permutation(1 << k).tolist()
    phases = np.exp(2j * np.pi * rng.random(1 << k)).tolist()
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
        ss.apply_basis_map(state, lambda v: 0, targets),
        ref_apply_basis_map(state, lambda v: 0, targets),
    )


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
        lambda: ss.apply_basis_map(state, lambda v: 0, targets),
        lambda: ref_apply_basis_map(state, lambda v: 0, targets),
    ])


def test_image_out_of_range_rejected_by_both():
    _, state, targets = case(4, 2)
    both_raise(ValueError, "out of range", [
        lambda: ss.apply_basis_map(state, lambda v: 4, targets),
        lambda: ref_apply_basis_map(state, lambda v: 4, targets),
        lambda: ss.apply_basis_map(state, lambda v: -1, targets),
        lambda: ref_apply_basis_map(state, lambda v: -1, targets),
    ])


def test_non_unit_phase_rejected_by_both():
    _, state, targets = case(5, 3)
    both_raise(ValueError, "unit modulus", [
        lambda: ss.apply_phase_map(state, lambda v: 1 + 1e-6, targets),
        lambda: ref_apply_phase_map(state, lambda v: 1 + 1e-6, targets),
    ])


def test_norm_drift_rejected_by_both():
    state = ss.SparseState(3, {0b001: 0.6, 0b100: 0.6})
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    both_raise(ValueError, "norm drifted", [
        lambda: ss.apply_unitary(state, h, [2]),
        lambda: ref_apply_unitary(state, h, [2]),
    ])
