"""Clifford circuits of H, S, X, Z, CNOT and SWAP, gate-teleportation
flattening of ladder/grid Clifford circuits, and the line-shaped GHZ
preparation.

Flattening replaces wire hand-offs between consecutive gates by Bell
pairs plus Bell measurements, and precomputes the linear
outcome-to-correction map by pushing unit errors through the remaining
gates.  A Pauli ``prod_w Z_w^{z_w} X_w^{x_w}`` is its Z and X exponent
bits; up to phase, conjugating it by a generator is an exact GF(2) rule
on the bits of the gate's wires (:data:`_RULES`).  The rules act on
bit-sliced rows as well as on single bits, so one forward sweep carries
every unit error at once: each wire holds a Z row and an X row over the
Bell outcome bits (the row updates of Aaronson & Gottesman's tableau,
arXiv:quant-ph/0406196), and those rows are the masks of the
:func:`program.linear` layer that computes the corrections.

A Clifford gate in a program is its generator word: :func:`clifford`
makes (and remembers) the dense matrix of a word the first time a gate
needs it, and the gate serialises as that word, not as the matrix.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Dict, List, MutableSequence, Sequence, Tuple

import numpy as np

from . import program as pr
from . import sparse_state as ss

I2 = np.eye(2)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
ZM = np.array([[1, 0], [0, -1]], dtype=complex)
HM = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
SM = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOTM = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)  # control is the first (most significant) qubit

GENERATORS: Dict[str, np.ndarray] = {
    "H": HM,
    "S": SM,
    "X": XM,
    "Z": ZM,
    "CNOT": CNOTM,
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        dtype=complex,
    ),
}

# The image U P U† of a Pauli under each generator, as an update of the
# exponents on the gate's wires; phases are dropped.
def _hadamard(z, x, q):
    z[q], x[q] = x[q], z[q]


def _phase(z, x, q):
    z[q] ^= x[q]


def _pauli(z, x, q):
    pass


def _cnot(z, x, c, t):
    x[t] ^= x[c]
    z[c] ^= z[t]


def _swap(z, x, a, b):
    z[a], z[b] = z[b], z[a]
    x[a], x[b] = x[b], x[a]


_RULES = {
    "H": _hadamard,
    "S": _phase,
    "X": _pauli,
    "Z": _pauli,
    "CNOT": _cnot,
    "SWAP": _swap,
}


def conjugate_gate(
    gate: CliffordGate, z: MutableSequence[int], x: MutableSequence[int]
) -> None:
    """Replace the Pauli held in ``z`` and ``x`` by its image under
    ``gate``, in place and up to phase.

    ``z[w]`` and ``x[w]`` are the exponents on wire w: single bits, or
    bit-sliced rows whose bit c belongs to Pauli c.  The gate's name and
    arity are checked when the gate is made.
    """
    _RULES[gate.name](z, x, *gate.qubits)


# --------------------------------------------------------------------------
# Clifford circuits and gate words
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordGate:
    """One generator applied to ``qubits`` (the control first for CNOT).
    The name, the arity and distinct qubits are checked here."""

    name: str
    qubits: Tuple[int, ...]

    def __post_init__(self):
        if self.name not in GENERATORS:
            raise ValueError(f"non-generator gate {self.name!r}")
        if GENERATORS[self.name].shape[0] != 1 << len(self.qubits):
            raise ValueError(f"{self.name} arity mismatch")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} repeats a wire")


# ((low, high) wires, gate word) of one ladder or grid step
Step = Tuple[Tuple[int, int], Tuple[CliffordGate, ...]]

# distinct ``clifford`` specs whose gate is kept for reuse
CLIFFORD_MEMO_SIZE = 1024

_WORD_TOKEN = re.compile(r"([A-Z]+)\((\d+)(?:,(\d+))?\)")


def _parse_word(wires: int, word: str) -> Tuple[CliffordGate, ...]:
    """The generator applications of a word on local wires
    ``0 .. wires-1``: whitespace-separated ``NAME(w)`` or
    ``NAME(w,w)`` tokens, applied left to right."""
    gates = []
    for token in word.split():
        match = _WORD_TOKEN.fullmatch(token)
        if match is None:
            raise ValueError(f"malformed Clifford word token {token!r}")
        name, *local = (v for v in match.groups() if v is not None)
        qubits = tuple(int(w) for w in local)
        if max(qubits) >= wires:
            raise ValueError(f"{token} is outside a {wires}-wire gate")
        gates.append(CliffordGate(name, qubits))
    return tuple(gates)


def _render(word: Sequence[CliffordGate]) -> str:
    """Inverse of :func:`_parse_word`."""
    return " ".join(
        f"{g.name}({','.join(map(str, g.qubits))})" for g in word
    )


@functools.cache  # a few dozen placements exist; each is built once
def _embed(g: CliffordGate, wires: int) -> np.ndarray:
    """Matrix of a generator on the local wires of a ``wires``-wire gate,
    local wire 0 the most significant."""
    m = GENERATORS[g.name]
    if wires == 1 or g.qubits == (0, 1):
        return m
    if g.qubits == (1, 0):
        swap = GENERATORS["SWAP"]
        return swap @ m @ swap
    if g.qubits == (0,):
        return np.kron(m, I2)
    return np.kron(I2, m)


class WordGate(pr.MatrixGate):
    """A ``MatrixGate`` made by :func:`clifford`; its inverse is the
    ``clifford`` gate of the inverse word, made once per gate: the
    gates are shared, so each word is parsed and inverted once."""

    @functools.cached_property
    def _inverse(self) -> "WordGate":
        params = self.spec["params"]
        word = _parse_word(params["wires"], params["word"])
        inv = tuple(  # S^-1 = S S S; the other generators are involutions
            g for g in reversed(word)
            for _ in range(3 if g.name == "S" else 1)
        )
        label = params["label"] if inv == word else params["label"] + "_inv"
        return clifford(label, params["wires"], _render(inv))

    def inverse(self):
        return self._inverse


@functools.lru_cache(maxsize=CLIFFORD_MEMO_SIZE)
def _word_gate(label: str, wires: int, word: str) -> WordGate:
    # the identity first, then each generator from the left: this order
    # fixes every bit of the result, the sign of zero entries included
    m = np.eye(1 << wires, dtype=complex)
    for g in _parse_word(wires, word):
        m = _embed(g, wires) @ m
    return WordGate(label, m)


@pr.register_gate("clifford")
def clifford(label: str, wires: int, word: str) -> WordGate:
    """The Clifford gate ``label`` on ``wires`` (1 or 2) qubits, given by
    its generator word, e.g. ``"CNOT(0,1) S(1) H(0)"``: H, S, X, Z on
    one local wire, CNOT (control first) and SWAP on two, applied left
    to right; local wire 0 is the gate's most significant qubit.

    Equal arguments give the same shared gate, so its matrix is built
    and checked once per distinct word (up to ``CLIFFORD_MEMO_SIZE``
    words at a time, besides the module's fixed gates, which are never
    evicted)."""
    if not isinstance(label, str):
        raise ValueError(f"clifford label must be a string, got {label!r}")
    if type(wires) is not int or wires not in (1, 2):
        raise ValueError(f"a clifford gate spans 1 or 2 wires, got {wires!r}")
    if not isinstance(word, str):
        raise ValueError(f"clifford word must be a string, got {word!r}")
    gate = _FIXED.get((label, wires, word))
    return _word_gate(label, wires, word) if gate is None else gate


# (label, wires, word) -> a fixed gate, kept past the memo's bound
_FIXED: Dict[Tuple[str, int, str], WordGate] = {}


def _fixed(label: str, wires: int, word: str) -> WordGate:
    gate = _FIXED[label, wires, word] = clifford(label, wires, word)
    return gate


# the fixed Clifford gates, shared by every program
H_GATE = _fixed("H", 1, "H(0)")
CNOT_GATE = _fixed("CNOT", 2, "CNOT(0,1)")
X_GATE = _fixed("X", 1, "X(0)")
Z_GATE = _fixed("Z", 1, "Z(0)")


def _step_gate(idx: int, step: Step) -> WordGate:
    """The emitted gate ``U{idx}`` of a step, with the step's high wire
    as its local wire 0."""
    (lo, hi), word = step
    local = {hi: 0, lo: 1}
    return clifford(f"U{idx}", 2, _render(
        [CliffordGate(g.name, tuple(local[q] for q in g.qubits))
         for g in word]
    ))


@dataclass(frozen=True)
class CliffordCircuit:
    shape: str  # "ladder" | "grid"
    n: int  # wire count
    depth: int  # grid layer count (1 for ladder)
    gates: Tuple[CliffordGate, ...]

    def __post_init__(self):
        if self.shape not in {"ladder", "grid"}:
            raise ValueError(f"unknown shape {self.shape!r}")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError("gate qubit out of range")
        object.__setattr__(self, "_steps", self._group_steps())

    def _slot_order(self) -> List[Tuple[int, int]]:
        """Wire pairs of the circuit's steps in temporal order."""
        if self.shape == "ladder":
            return [(i, i + 1) for i in range(self.n - 1)]
        order = []
        for t in range(self.depth):
            start = 0 if t % 2 == 0 else 1
            for i in range(start, self.n - 1, 2):
                order.append((i, i + 1))
        return order

    def _group_steps(self) -> Tuple[Step, ...]:
        """Assign the slot-major gate word to its steps greedily.

        Gates are listed in temporal order; each gate goes to the
        earliest not-yet-passed slot whose wire pair contains it.
        """
        order = self._slot_order()
        words: List[List[CliffordGate]] = [[] for _ in order]
        pos = 0
        for g in self.gates:
            qs = set(g.qubits)
            while pos < len(order) and not qs <= set(order[pos]):
                pos += 1
            if pos == len(order):
                raise ValueError(
                    f"gate {g.name} on {g.qubits} does not fit the "
                    f"{self.shape} step order"
                )
            words[pos].append(g)
        return tuple(zip(order, map(tuple, words)))

    def steps(self) -> Tuple[Step, ...]:
        """((low, high) wires, gate word) per step, grouped once."""
        return self._steps

    def unitary(self) -> np.ndarray:
        """Dense matrix on all n wires (desk scale only)."""
        dim = 1 << self.n
        u = np.eye(dim, dtype=complex)
        for idx, step in enumerate(self.steps()):
            u = _expand(_step_gate(idx, step).matrix, step[0], self.n) @ u
        return u

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "n": self.n,
            "depth": self.depth,
            "gates": [
                {"name": g.name, "qubits": list(g.qubits)}
                for g in self.gates
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "CliffordCircuit":
        return CliffordCircuit(
            pr.json_string(doc, "shape"),
            pr.json_count(doc, "n"),
            pr.json_count(doc, "depth") if "depth" in doc else 1,
            tuple(
                CliffordGate(
                    pr.json_string(g, "name"), pr.json_qubits(g, "qubits")
                )
                for g in pr.json_list(doc, "gates")
            ),
        )


def _expand(m: np.ndarray, wires: Tuple[int, int], n: int) -> np.ndarray:
    """Embed a pair gate (high wire = msb of m) into the n-wire space
    where wire 0 is the least significant bit."""
    lo, hi = wires
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        b_hi, b_lo = (col >> hi) & 1, (col >> lo) & 1
        sub_col = (b_hi << 1) | b_lo
        base = col & ~((1 << hi) | (1 << lo))
        for sub_row in range(4):
            a = m[sub_row, sub_col]
            if a == 0:
                continue
            row = base | ((sub_row >> 1) << hi) | ((sub_row & 1) << lo)
            out[row, col] += a
    return out


# --------------------------------------------------------------------------
# Correction map and flattening
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Junction:
    wire: int
    gate_index: int  # error sits just before this temporal gate index


def _propagate_unit_errors(
    steps: Sequence[Step],
    junctions: Sequence[Junction],
    n: int,
) -> Tuple[List[int], List[int]]:
    """Push the Z and X unit error of every junction through the rest of
    the circuit in one forward sweep.

    The Bell outcome word lists junction j's phase bit (a Z error) and
    its X bit as bits 2j and 2j+1, the first-listed bit the most
    significant.  ``zrow[w]`` (``xrow[w]``) holds a word bit when that
    unit error ends with a Z (X) exponent on wire w, so each row is the
    mask of one correction bit.  Junction j sets its two bits in its
    wire's rows just before step ``j.gate_index``.  Each gate of the
    step's word then applies its rule to the rows (``conjugate_gate``):
    phases drop out of the map, and without them conjugation is linear
    over GF(2).
    """
    zrow = [0] * n
    xrow = [0] * n
    top = 2 * len(junctions) - 1  # place of the word's first-listed bit
    starts: Dict[int, List[Tuple[int, int]]] = {}
    for c, j in enumerate(junctions):
        starts.setdefault(j.gate_index, []).append((c, j.wire))
    for gi, (_, word) in enumerate(steps):
        for c, w in starts.get(gi, ()):
            zrow[w] |= 1 << (top - 2 * c)
            xrow[w] |= 1 << (top - 2 * c - 1)
        for g in word:
            conjugate_gate(g, zrow, xrow)
    return zrow, xrow


def _flatten_plan(circuit: CliffordCircuit):
    """Assign physical carriers, junctions, and the correction rows."""
    steps = circuit.steps()
    n = circuit.n
    carrier = list(range(n))
    consumed = [False] * n
    next_qubit = n
    junctions: List[Junction] = []
    bell_pairs: List[Tuple[int, int]] = []
    measure_pairs: List[Tuple[int, int]] = []  # (old carrier, bell half a)
    placements: List[Tuple[int, int]] = []  # (low, high) carriers per step
    for gi, (wires, _) in enumerate(steps):
        for w in wires:
            if consumed[w]:
                a, b = next_qubit, next_qubit + 1
                next_qubit += 2
                bell_pairs.append((a, b))
                measure_pairs.append((carrier[w], a))
                junctions.append(Junction(w, gi))
                carrier[w] = b
        lo, hi = wires
        placements.append((carrier[lo], carrier[hi]))
        consumed[lo] = consumed[hi] = True
    outputs = tuple(carrier)
    rows = _propagate_unit_errors(steps, junctions, n)
    return placements, bell_pairs, measure_pairs, outputs, rows


def _flatten(circuit: CliffordCircuit) -> pr.LaqccProgram:
    placements, bell_pairs, measure_pairs, outputs, rows = _flatten_plan(
        circuit
    )
    n = circuit.n
    num_qubits = n + 2 * len(bell_pairs)

    layers: List[object] = []
    if bell_pairs:
        layers.append(
            pr.QuantumLayer(
                tuple(pr.GateApp(H_GATE, (a,)) for a, _ in bell_pairs)
            )
        )
        layers.append(
            pr.QuantumLayer(
                tuple(pr.GateApp(CNOT_GATE, (a, b)) for a, b in bell_pairs)
            )
        )
    layers.append(
        pr.QuantumLayer(
            tuple(
                pr.GateApp(_step_gate(idx, step), (hi, lo))
                for idx, (step, (lo, hi)) in enumerate(
                    zip(circuit.steps(), placements)
                )
            )
        )
    )
    if measure_pairs:
        layers.append(
            pr.QuantumLayer(
                tuple(
                    pr.GateApp(CNOT_GATE, (q, a)) for q, a in measure_pairs
                )
            )
        )
        layers.append(
            pr.QuantumLayer(
                tuple(pr.GateApp(H_GATE, (q,)) for q, _ in measure_pairs)
            )
        )
        measured = tuple(q for pair in measure_pairs for q in pair)
        layers.append(pr.MeasureLayer(measured, "bell"))
        zrow, xrow = rows
        layers.append(pr.linear("correct", "bell", {
            f"{pauli}{q}": row[w]
            for w, q in enumerate(outputs)
            for pauli, row in (("z", zrow), ("x", xrow))
        }))
        layers.append(
            pr.QuantumLayer(
                tuple(
                    pr.GateApp(X_GATE, (q,), ("correct", f"x{q}"))
                    for q in outputs
                )
            )
        )
        layers.append(
            pr.QuantumLayer(
                tuple(
                    pr.GateApp(Z_GATE, (q,), ("correct", f"z{q}"))
                    for q in outputs
                )
            )
        )
    return pr.LaqccProgram(
        num_qubits,
        registers={
            "outputs": pr.Register(outputs, "system"),
            "workspace": pr.Register(
                tuple(
                    q for q in range(num_qubits) if q not in set(outputs)
                ),
                "ancilla",
            ),
        },
        layers=layers,
    )


def flatten_ladder(circuit: CliffordCircuit) -> pr.LaqccProgram:
    if circuit.shape != "ladder":
        raise ValueError("expected a ladder circuit")
    return _flatten(circuit)


def flatten_grid(circuit: CliffordCircuit) -> pr.LaqccProgram:
    if circuit.shape != "grid":
        raise ValueError("expected a grid circuit")
    return _flatten(circuit)


# --------------------------------------------------------------------------
# GHZ on a line
# --------------------------------------------------------------------------


def ghz_target(n: int) -> ss.SparseState:
    """(|0...0> + |1...1>) / sqrt 2 on n qubits."""
    amp = 1 / math.sqrt(2)
    return ss.from_amplitudes(n, [(0, amp), ((1 << n) - 1, amp)])


def ghz(n: int) -> pr.LaqccProgram:
    """GHZ state on the even qubits of a 2n-1 line, one round."""
    if n < 2:
        raise ValueError("need n >= 2")
    num = 2 * n - 1
    evens = tuple(range(0, num, 2))
    odds = tuple(range(1, num, 2))
    layers: List[object] = [
        pr.QuantumLayer(tuple(pr.GateApp(H_GATE, (q,)) for q in evens)),
        pr.QuantumLayer(
            tuple(
                pr.GateApp(CNOT_GATE, (2 * i, 2 * i + 1))
                for i in range(n - 1)
            )
        ),
        pr.QuantumLayer(
            tuple(
                pr.GateApp(CNOT_GATE, (2 * i + 2, 2 * i + 1))
                for i in range(n - 1)
            )
        ),
        pr.MeasureLayer(odds, "parity"),
        # carrier j flips on the parity of the first j of the n - 1
        # line outcomes: a prefix of the word, its first bit the top one
        pr.linear("parity_fix", "parity", {
            f"flip{j}": ((1 << j) - 1) << (n - 1 - j) for j in range(1, n)
        }),
    ]
    layers.append(
        pr.QuantumLayer(
            tuple(
                pr.GateApp(X_GATE, (2 * j,), ("parity_fix", f"flip{j}"))
                for j in range(1, n)
            )
        )
    )
    return pr.LaqccProgram(
        num,
        registers={
            "ghz": pr.Register(evens, "system"),
            "line_ancilla": pr.Register(odds, "ancilla"),
        },
        layers=layers,
    )
