"""Zero-failure amplitude amplification.

Given an ambient superposition of N basis states containing m good
ones, a phase-matched Grover iterate reaches the good subspace with
probability exactly 1.  The matched phase is taken from the closed form
``phi = theta = 2 arcsin(sin(pi/(4J+2)) / sin(beta))`` and validated
numerically on the two-dimensional invariant subspace before a plan is
accepted.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import charges
from . import sparse_state as ss
from .program import Builder, DiagonalGate, Gate, register_gate


@dataclass(frozen=True)
class AmplificationPlan:
    N: int
    m: int
    J: int
    phi: float
    theta: float


def _success_amplitude(N: int, m: int, J: int, phi: float, theta: float) -> float:
    """|good amplitude| after J iterates, on the (good, bad) plane."""
    beta = math.asin(math.sqrt(m / N))
    psi0 = np.array([math.sin(beta), math.cos(beta)], dtype=complex)
    s_chi = np.diag([cmath.exp(1j * phi), 1.0])
    s_0 = np.eye(2, dtype=complex) + (
        cmath.exp(1j * theta) - 1.0
    ) * np.outer(psi0, psi0.conj())
    g = s_0 @ s_chi
    state = psi0.copy()
    for _ in range(J):
        state = g @ state
    return abs(state[0])


def plan(N: int, m: int) -> AmplificationPlan:
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    if m == N:
        return AmplificationPlan(N, m, 0, 0.0, 0.0)
    beta = math.asin(math.sqrt(m / N))
    J = max(1, math.ceil((math.pi / 2 - beta) / (2 * beta)))
    phi = 2 * math.asin(math.sin(math.pi / (4 * J + 2)) / math.sin(beta))
    if 1.0 - _success_amplitude(N, m, J, phi, phi) > 1e-9:
        raise ValueError(f"no matched phase found for N={N}, m={m}")
    return AmplificationPlan(N, m, J, phi, phi)


@register_gate("phase_flag")
def phase_flag(phi: float) -> DiagonalGate:
    """e^{i phi} on |1> of the flag qubit."""
    kick = cmath.exp(1j * phi)
    return DiagonalGate("phase_flag", 1, lambda v: np.where(v != 0, kick, 1.0))


@dataclass
class PlusPhaseGate(Gate):
    """I + (kick - 1)|+...+><+...+| on its qubits: ``kick`` on their
    all-plus state, by :func:`sparse_state.apply_plus_phase`."""

    name: str
    num_bits: int
    kick: complex
    charge: float = 0.0

    def apply(self, state, qubits):
        return ss.apply_plus_phase(state, self.kick, qubits)

    def inverse(self):
        return PlusPhaseGate(self.name + "_inv", self.num_bits,
                             self.kick.conjugate(), charge=self.charge)


@register_gate("plus_phase")
def plus_phase(num_bits: int, theta: float) -> PlusPhaseGate:
    """e^{i theta} on the all-plus state of ``num_bits`` qubits: the
    Hadamard dual of :func:`phase_all_zero` on all of them."""
    return PlusPhaseGate("plus_phase", num_bits, cmath.exp(1j * theta),
                         charge=charges.charge("equal", num_bits))


@register_gate("phase_all_zero")
def phase_all_zero(num_bits: int, theta: float) -> DiagonalGate:
    """e^{i theta} on the all-zero pattern of ``num_bits`` qubits.  With
    H on all of them around it, it is the reflection
    I + (e^{i theta} - 1)|+><+|, so :func:`plus_phase` is its Hadamard
    dual: the amplifier's "un-prep; reflect; prep" folds where its
    preparation is a wall of Hadamards."""
    kick = cmath.exp(1j * theta)
    return DiagonalGate(
        "phase_all_zero",
        num_bits,
        lambda v: np.where(v == 0, kick, 1.0),
        charge=charges.charge("equal", num_bits),
        hadamard_dual=(tuple(range(num_bits)), plus_phase(num_bits, theta)),
    )


def amplify(
    builder: Builder,
    reflect_qubits: Sequence[int],
    flag: int,
    prep: Callable[[Builder], None],
    unprep: Callable[[Builder], None],
    oracle: Gate,
    oracle_qubits: Sequence[int],
    amp_plan: AmplificationPlan,
) -> None:
    """Append amplification iterations to ``builder``.

    ``prep``/``unprep`` append the (measurement-free) ambient
    preparation and its inverse; ``reflect_qubits`` are all qubits the
    preparation touches (the reflection phases their joint all-zero
    state); ``oracle`` flips ``flag`` exactly on the good set, reading
    ``oracle_qubits``.  After the appended layers the good subspace
    holds all amplitude and the flag is back to |0>.
    """
    reflect_qubits = tuple(reflect_qubits)
    oracle_qubits = tuple(oracle_qubits)
    mark = phase_flag(amp_plan.phi)
    zero_phase = phase_all_zero(len(reflect_qubits), amp_plan.theta)
    for _ in range(amp_plan.J):
        builder.gate(oracle, oracle_qubits + (flag,))
        builder.gate(mark, (flag,))
        builder.gate(oracle, oracle_qubits + (flag,))
        unprep(builder)
        builder.gate(zero_phase, reflect_qubits)
        prep(builder)
