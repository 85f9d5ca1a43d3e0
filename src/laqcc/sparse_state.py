"""Sparse complex state vector over computational basis states.

Amplitudes live in a dict keyed by basis index; qubit ``q`` owns bit
``(index >> q) & 1`` (qubit 0 is the least significant bit).  All
operations return fresh states; nothing mutates in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

PRUNE_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SparseState:
    num_qubits: int
    amplitudes: Dict[int, complex] = field(default_factory=dict)

    @staticmethod
    def basis(num_qubits: int, index: int = 0) -> "SparseState":
        if not 0 <= index < (1 << num_qubits):
            raise IndexError(f"basis index {index} out of range")
        return SparseState(num_qubits, {index: 1.0 + 0.0j})

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def check_norm(self) -> None:
        if abs(self.norm_squared() - 1.0) > NORM_TOLERANCE:
            raise ValueError("state norm drifted beyond tolerance")

    def support(self) -> int:
        return len(self.amplitudes)


def _pruned(amps: Dict[int, complex]) -> Dict[int, complex]:
    return {i: a for i, a in amps.items() if abs(a) >= PRUNE_THRESHOLD}


def _check_unitary(matrix: np.ndarray) -> None:
    d = matrix.shape[0]
    if matrix.shape != (d, d) or not np.allclose(
        matrix.conj().T @ matrix, np.eye(d), atol=1e-12
    ):
        raise ValueError("gate matrix is not unitary within 1e-12")


def _check_targets(state: SparseState, targets: Sequence[int]) -> None:
    if len(set(targets)) != len(targets):
        raise IndexError("duplicate target qubits")
    for t in targets:
        if not 0 <= t < state.num_qubits:
            raise IndexError(f"target {t} out of range")


def apply_unitary(
    state: SparseState, matrix: np.ndarray, targets: Sequence[int]
) -> SparseState:
    """Apply a dense unitary on ``targets``; targets[0] is the matrix's
    most significant bit."""
    matrix = np.asarray(matrix, dtype=complex)
    _check_targets(state, targets)
    k = len(targets)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError("matrix size does not match target count")
    _check_unitary(matrix)
    out: Dict[int, complex] = {}
    for index, amp in state.amplitudes.items():
        col = 0
        for t in targets:
            col = (col << 1) | ((index >> t) & 1)
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
    result = SparseState(state.num_qubits, _pruned(out))
    result.check_norm()
    return result


def apply_basis_map(
    state: SparseState,
    mapping: Callable[[int], int],
    targets: Sequence[int],
) -> SparseState:
    """Relabel basis states by a bijection on the target bits.

    ``mapping`` acts on the integer formed by reading targets[0] as the
    most significant bit.  Support size never grows.
    """
    _check_targets(state, targets)
    k = len(targets)
    out: Dict[int, complex] = {}
    for index, amp in state.amplitudes.items():
        col = 0
        for t in targets:
            col = (col << 1) | ((index >> t) & 1)
        image = mapping(col)
        if not 0 <= image < (1 << k):
            raise ValueError("basis map image out of range")
        new_index = index
        for pos, t in enumerate(targets):
            bit = (image >> (k - 1 - pos)) & 1
            new_index = (new_index & ~(1 << t)) | (bit << t)
        if new_index in out:
            raise ValueError("basis map is not injective on the support")
        out[new_index] = amp
    return SparseState(state.num_qubits, out)


def apply_phase_map(
    state: SparseState,
    phase: Callable[[int], complex],
    targets: Sequence[int],
) -> SparseState:
    """Multiply each basis amplitude by a unit-modulus phase of its
    target-bit pattern."""
    _check_targets(state, targets)
    out: Dict[int, complex] = {}
    for index, amp in state.amplitudes.items():
        col = 0
        for t in targets:
            col = (col << 1) | ((index >> t) & 1)
        p = complex(phase(col))
        if abs(abs(p) - 1.0) > 1e-9:
            raise ValueError("phase factor must have unit modulus")
        out[index] = amp * p
    return SparseState(state.num_qubits, out)


def _buckets(
    state: SparseState, qubits: Sequence[int]
) -> Dict[int, list]:
    """One scan of ``state``: each outcome of measuring ``qubits`` maps
    to ``[weight, amplitudes]``, both accumulated in iteration order."""
    buckets: Dict[int, list] = {}
    for index, amp in state.amplitudes.items():
        o = 0
        for q in qubits:
            o = (o << 1) | ((index >> q) & 1)
        bucket = buckets.get(o)
        if bucket is None:
            bucket = buckets[o] = [0.0, {}]
        bucket[0] += abs(amp) ** 2
        bucket[1][index] = amp
    return buckets


def _collapse(
    num_qubits: int, probability: float, amps: Dict[int, complex]
) -> SparseState:
    scale = 1.0 / math.sqrt(probability)
    result = SparseState(
        num_qubits, _pruned({i: a * scale for i, a in amps.items()})
    )
    result.check_norm()
    return result


def measure(
    state: SparseState,
    qubits: Sequence[int],
    *,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> Tuple[int, float, SparseState]:
    """Measure ``qubits`` in the computational basis.

    The outcome integer reads qubits[0] as its most significant bit.
    Exactly one of ``rng`` and ``forced`` must be given.
    """
    _check_targets(state, qubits)
    if (rng is None) == (forced is None):
        raise ValueError("provide exactly one of rng and forced")
    buckets = _buckets(state, qubits)
    if forced is not None:
        outcome = forced
        probability, amps = buckets.get(outcome, (0.0, {}))
        if probability <= PRUNE_THRESHOLD:
            raise InfeasibleBranchError(
                f"outcome {outcome:b} on qubits {list(qubits)} has zero probability"
            )
    else:
        outcomes = sorted(buckets)
        probs = np.array([buckets[o][0] for o in outcomes])
        outcome = outcomes[rng.choice(len(outcomes), p=probs / probs.sum())]
        probability, amps = buckets[outcome]
    return outcome, probability, _collapse(state.num_qubits, probability, amps)


class InfeasibleBranchError(ValueError):
    """Raised when a forced measurement outcome has zero probability."""


def branch_enumerate(
    state: SparseState, qubits: Sequence[int]
) -> List[Tuple[int, float, SparseState]]:
    """All nonzero-probability outcomes of measuring ``qubits``."""
    _check_targets(state, qubits)
    buckets = _buckets(state, qubits)
    return [
        (o, p, _collapse(state.num_qubits, p, amps))
        for o, (p, amps) in sorted(buckets.items())
        if p > PRUNE_THRESHOLD
    ]


def fidelity(state: SparseState, target: SparseState) -> float:
    """|<target|state>| — global phase quotiented out."""
    if state.num_qubits != target.num_qubits:
        raise ValueError("qubit counts differ")
    small, large = state.amplitudes, target.amplitudes
    if len(large) < len(small):
        small, large = large, small
    overlap = sum(a * large.get(i, 0.0).conjugate() for i, a in small.items())
    return min(1.0, abs(overlap))


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """b's qubits become the low-index qubits of the product state."""
    amps: Dict[int, complex] = {}
    for ia, aa in a.amplitudes.items():
        for ib, ab in b.amplitudes.items():
            amps[(ia << b.num_qubits) | ib] = aa * ab
    return SparseState(a.num_qubits + b.num_qubits, amps)


def from_amplitudes(
    num_qubits: int, entries: Iterable[Tuple[int, complex]]
) -> SparseState:
    amps = {i: complex(a) for i, a in entries if abs(a) >= PRUNE_THRESHOLD}
    n2 = sum(abs(a) ** 2 for a in amps.values())
    if abs(n2 - 1.0) > NORM_TOLERANCE:
        raise ValueError("amplitudes are not normalized")
    return SparseState(num_qubits, amps)


def split_register(
    state: SparseState, keep: Sequence[int]
) -> Tuple[SparseState, int]:
    """Factor out ``keep`` (keep[0] most significant) from a state whose
    remaining qubits sit in one common basis state.

    Returns the sub-state on the kept qubits and the basis pattern of the
    discarded qubits (ascending qubit order, qubit 0 least significant).
    Raises if the rest is entangled with, or in superposition outside,
    the kept register.
    """
    _check_targets(state, keep)
    keep_set = set(keep)
    rest = [q for q in range(state.num_qubits) if q not in keep_set]
    sub: Dict[int, complex] = {}
    rest_pattern: int | None = None
    for index, amp in state.amplitudes.items():
        r = 0
        for pos, q in enumerate(rest):
            r |= ((index >> q) & 1) << pos
        if rest_pattern is None:
            rest_pattern = r
        elif r != rest_pattern:
            raise ValueError("remaining qubits are not in one basis state")
        k = 0
        for q in keep:
            k = (k << 1) | ((index >> q) & 1)
        sub[k] = amp
    return SparseState(len(keep), sub), rest_pattern or 0
