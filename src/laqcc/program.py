"""Program representation: alternating quantum, measurement, and classical
layers, plus execution, branch enumeration, resource accounting, layout
validation, and the measurement-deferral / post-selection transforms.

A program is checked once, when it is built or loaded, and is immutable
from then on, so nothing that reads or runs it checks it again; a
``MatrixGate`` likewise checks its matrix once, when it is made.

Conventions
-----------
* A gate application lists its qubits most-significant-first: the gate's
  bit 0 (as an integer pattern) is the last listed qubit.
* A classical layer is a GF(2)-linear map held as its masks: it reads
  one measured word, and each named bit it publishes is the parity of
  the bits one mask selects.  Later gate applications may be
  conditioned on one such bit.  Every walk evaluates a layer on all
  branches at once.  Deferral makes a conditioned gate a ``parity``
  gate that holds its bit's mask, with no table over the word.
* Terminal measurements that nothing reads are free in the round count.
* In JSON, gates are the one registry (``register_gate``); a classical
  layer checks itself and is written from its fields as ``linear``.
"""
from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from types import MappingProxyType
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

import numpy as np

from . import sparse_state as ss
from .numbersys import popcount
from .sparse_state import SparseState

# --------------------------------------------------------------------------
# Gates
# --------------------------------------------------------------------------


class Gate:
    """Base class; subclasses implement apply() on a sparse state."""

    name: str
    num_bits: int
    charge: float = 0.0  # extra analytic width charged beyond simulated qubits
    spec: Optional[dict] = None  # set by the registered factory that made it
    # ``(images, phases)`` of a gate that only moves and rephases indices
    permutation: Optional[Tuple[np.ndarray, np.ndarray]] = None
    # ``(positions, dual)`` of a gate D for which ``dual``, a gate on the
    # same qubits, is H^S D H^S, H on the gate's qubits at ``positions``
    # (see :class:`DiagonalGate` and :func:`fold_hadamard`)
    hadamard_dual: Optional[Tuple[Tuple[int, ...], "Gate"]] = None

    def apply(self, state: SparseState, qubits: Sequence[int]) -> SparseState:
        raise NotImplementedError

    def inverse(self) -> "Gate":
        raise NotImplementedError(f"{self.name} has no inverse form")

    @functools.cached_property
    def _entry_head(self) -> str:
        """The text of this gate's entries in :func:`dumps` from the
        ``"gate"`` member up to the first qubit, written once: a gate's
        spec is fixed when the gate is made."""
        spec = json.dumps(_gate_spec(self), sort_keys=True, indent=2)
        return (_KEY + '"gate": ' + spec.replace("\n", _KEY) + ","
                + _KEY + '"qubits": [' + _ITEM)


def _check_unitary(matrix: np.ndarray) -> None:
    d = len(matrix)
    if not np.abs(matrix.conj().T @ matrix - np.eye(d)).max() <= 1e-12:
        raise ValueError("gate matrix is not unitary within 1e-12")


_UNITS = (1, -1, 1j, -1j)


def _signed_permutation(matrix: np.ndarray):
    """``(images, phases)`` of a unitary whose every column holds exactly
    one nonzero, exactly one of ``1, -1, 1j, -1j``: column ``p``'s entry
    sits in row ``images[p]`` and is ``phases[p]``.  ``None`` for any
    other unitary."""
    # a unitary has a nonzero in every column, so d nonzeros in all means
    # one per column; those of the transpose come in column order
    cols, images = np.nonzero(matrix.T)
    if len(images) != len(matrix):
        return None
    phases = matrix[images, cols]
    if not all(p in _UNITS for p in phases.tolist()):
        return None
    images.flags.writeable = phases.flags.writeable = False
    return images, phases


@dataclass(frozen=True, eq=False)
class MatrixGate(Gate):
    """Unitary on ``num_bits`` qubits.  The matrix is checked once, here,
    and stored as a read-only ``complex`` copy.  ``permutation`` is its
    :func:`_signed_permutation`: when it is not ``None`` the gate moves
    indices, otherwise it runs the dense kernel; both give the same
    state.  Gates are equal when name, charge and matrix are."""

    name: str
    matrix: np.ndarray
    charge: float = 0.0

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex)
        d = matrix.shape[0] if matrix.ndim else 0
        if matrix.shape != (d, d) or d < 1 or d & (d - 1):
            raise ValueError(f"matrix shape {matrix.shape} is not 2^k x 2^k")
        _check_unitary(matrix)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "num_bits", d.bit_length() - 1)
        object.__setattr__(self, "permutation", _signed_permutation(matrix))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.charge) == (other.name, other.charge) and (
            np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.name, self.charge, self.num_bits))

    def apply(self, state, qubits):
        if self.permutation is None:
            return ss.apply_unitary(state, self.matrix, qubits)
        return ss.apply_permutations(state, [(*self.permutation, qubits)])

    def inverse(self):
        return MatrixGate(self.name + "_inv", self.matrix.conj().T)


@dataclass
class BasisMapGate(Gate):
    """Bijective relabelling of the computational basis on its qubits.
    ``fn`` and ``inverse_fn`` map an array of bit patterns (``int64``, or
    Python ints in an ``object`` array past 62 bits) to the array of
    their images, in one call."""

    name: str
    num_bits: int
    fn: Callable[[np.ndarray], np.ndarray]
    inverse_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    charge: float = 0.0

    def apply(self, state, qubits):
        return ss.apply_basis_map(state, self.fn, qubits)

    def inverse(self):
        if self.inverse_fn is None:
            raise NotImplementedError(f"{self.name} has no inverse form")
        return BasisMapGate(
            self.name + "_inv", self.num_bits, self.inverse_fn, self.fn,
            charge=self.charge,
        )


@dataclass
class DiagonalGate(Gate):
    """Diagonal unitary given by a phase function of the bit pattern;
    ``phase_fn`` maps an array of patterns, as :class:`BasisMapGate`'s
    ``fn`` does, to the array of their phases.

    ``hadamard_dual``, when given, is ``(positions, dual)``: distinct
    positions S among the gate's qubits (0 the first listed) and a gate
    on all of them equal to H^S D H^S as an operator, where D is this
    gate: a basis map, or any other gate with a kernel of its own.  The
    inverse carries the inverse dual, since H^S D^-1 H^S =
    (H^S D H^S)^-1."""

    name: str
    num_bits: int
    phase_fn: Callable[[np.ndarray], np.ndarray]
    charge: float = 0.0
    hadamard_dual: Optional[Tuple[Tuple[int, ...], Gate]] = None

    def __post_init__(self):
        if self.hadamard_dual is None:
            return
        positions, dual = self.hadamard_dual
        positions = tuple(positions)
        if not (isinstance(dual, Gate)
                and dual.num_bits == self.num_bits
                and len(set(positions)) == len(positions)
                and set(positions) <= set(range(self.num_bits))):
            raise ValueError(
                f"{self.name}: a Hadamard dual is a gate on the gate's"
                f" {self.num_bits} qubits and distinct positions among them")
        self.hadamard_dual = (positions, dual)

    def apply(self, state, qubits):
        return ss.apply_phase_map(state, self.phase_fn, qubits)

    def inverse(self):
        fn = self.phase_fn
        dual = self.hadamard_dual
        if dual is not None:
            dual = (dual[0], inverse_gate(dual[1]))
        return DiagonalGate(
            self.name + "_inv", self.num_bits,
            lambda v: np.conj(np.asarray(fn(v), complex)),
            charge=self.charge, hadamard_dual=dual,
        )


@dataclass
class PredicatedGate(Gate):
    """Apply ``gate`` to the trailing qubits iff the leading control bits
    (the first the most significant) hold an odd number of the bits
    ``mask`` selects; the measurement-deferral transform's gate."""

    name: str
    control_bits: int
    mask: int
    gate: Gate
    charge: float = 0.0

    def __post_init__(self):
        self.num_bits = self.control_bits + self.gate.num_bits

    def apply(self, state, qubits):
        targets = qubits[self.control_bits:]
        return ss.apply_predicated(
            state, self.mask, qubits[: self.control_bits],
            lambda part: self.gate.apply(part, targets),
        )


# --------------------------------------------------------------------------
# Layers
# --------------------------------------------------------------------------

Condition = Tuple[str, str]  # (classical layer name, output key)


class GateApp(NamedTuple):
    """One gate application: a named tuple, so built without a
    Python-level ``__init__``, and equal to the plain tuple of its
    fields."""

    gate: Gate
    qubits: Tuple[int, ...]
    condition: Optional[Condition] = None


_qubits_of = attrgetter("qubits")


@dataclass(frozen=True)
class QuantumLayer:
    apps: Tuple[GateApp, ...]

    def __post_init__(self):
        # one set over the whole layer; the loop only names the first
        # repeated qubit
        qubits = [*chain.from_iterable(map(_qubits_of, self.apps))]
        if len(set(qubits)) == len(qubits):
            return
        seen = set()
        for q in qubits:
            if q in seen:
                raise ValueError(f"qubit {q} used twice in one quantum layer")
            seen.add(q)


@dataclass(frozen=True)
class MeasureLayer:
    qubits: Tuple[int, ...]
    label: str


@dataclass(frozen=True)
class ClassicalLayer:
    """One row of a GF(2)-linear map per output: output ``key`` is the
    parity of the bits that ``outputs[key]`` selects in the word measured
    under the label ``reads`` (its first-listed qubit the most significant
    bit).  It checks its fields when made, whether built directly or
    loaded as ``linear``, and stores ``outputs`` as a read-only mapping,
    in the order it was given."""

    name: str
    reads: str
    outputs: Mapping[str, int]

    def __post_init__(self):
        if not isinstance(self.name, str) or not isinstance(self.reads, str):
            raise ValueError(f"linear name and reads must be strings, got"
                             f" {self.name!r}, {self.reads!r}")
        if not isinstance(self.outputs, Mapping):
            raise ValueError(
                f"linear outputs must be an object, got {self.outputs!r}")
        for key, mask in self.outputs.items():
            if not isinstance(key, str) or not _is_count(mask):
                raise ValueError(f"linear output {key!r} needs a mask that"
                                 f" is an integer >= 0, got {mask!r}")
        object.__setattr__(
            self, "outputs", MappingProxyType(dict(self.outputs)))


linear = ClassicalLayer  # the name every classical layer is written under


Layer = object  # union of the three layer kinds


@dataclass(frozen=True)
class Register:
    qubits: Tuple[int, ...]
    role: str  # index | system | ancilla | flag

    def __post_init__(self):
        # a tuple, so a role that does not hash is refused as unknown too
        if self.role not in ("index", "system", "ancilla", "flag"):
            raise ValueError(f"unknown register role {self.role!r}")


@dataclass(frozen=True)
class LaqccProgram:
    """A well-formed program: the constructor checks every register,
    gate arity, qubit (exactly an ``int``, as loading requires, so the
    program dumps and loads back), measured label, classical mask (within
    the word it reads) and condition (an earlier classical layer and one
    of the keys it publishes), and stores ``layers`` as a tuple and
    ``registers`` as a read-only mapping, so the program stays valid for
    as long as it exists."""

    num_qubits: int
    registers: Mapping[str, Register] = field(default_factory=dict)
    layers: Tuple[Layer, ...] = ()

    def __post_init__(self):
        registers = MappingProxyType(dict(self.registers))
        object.__setattr__(self, "registers", registers)
        object.__setattr__(self, "layers", tuple(self.layers))
        n = self.num_qubits
        if type(n) is not int or n < 0:
            raise ValueError(f"num_qubits must be an int >= 0, got {n!r}")
        claimed = set()
        for name, reg in registers.items():
            if not isinstance(name, str):
                raise ValueError(f"register name must be a string, got"
                                 f" {name!r}")
            for q in reg.qubits:
                if q in claimed:
                    raise ValueError(f"qubit {q} in two registers")
                if type(q) is not int or not 0 <= q < n:
                    raise _bad_qubit(f"register {name} qubit", q)
                claimed.add(q)
        measured: Dict[str, int] = {}  # label -> width of its word
        published: Dict[str, Mapping[str, int]] = {}  # layer -> its outputs
        for layer in self.layers:
            if isinstance(layer, QuantumLayer):
                # unpacked: a named tuple's fields read slower by name
                for gate, qubits, condition in layer.apps:
                    if len(qubits) != gate.num_bits:
                        raise ValueError(f"gate {gate.name} arity mismatch")
                    for q in qubits:
                        if type(q) is not int or not 0 <= q < n:
                            raise _bad_qubit(f"gate {gate.name} qubit", q)
                    if condition:
                        source, key = condition
                        if source not in published:
                            raise ValueError(
                                f"condition references unknown layer "
                                f"{source!r}"
                            )
                        if key not in published[source]:
                            raise ValueError(
                                f"condition references key {key!r} that"
                                f" layer {source!r} does not publish"
                            )
            elif isinstance(layer, MeasureLayer):
                qubits, label = layer.qubits, layer.label
                if not isinstance(label, str):
                    raise ValueError(
                        f"measure label must be a string, got {label!r}")
                if len(set(qubits)) != len(qubits):
                    raise ValueError(f"measure {label!r} repeats a qubit")
                for q in qubits:
                    if type(q) is not int or not 0 <= q < n:
                        raise _bad_qubit("measured qubit", q)
                if label in measured:
                    raise ValueError(f"duplicate label {label!r}")
                measured[label] = len(qubits)
            elif isinstance(layer, ClassicalLayer):
                if layer.reads not in measured:
                    raise ValueError(
                        f"classical layer {layer.name!r} reads "
                        f"unmeasured label {layer.reads!r}"
                    )
                width = measured[layer.reads]
                for key, mask in layer.outputs.items():
                    if mask >> width:
                        raise ValueError(
                            f"classical layer {layer.name!r} output {key!r}"
                            f" selects a bit outside the {width}-bit word"
                            f" {layer.reads!r}"
                        )
                published[layer.name] = layer.outputs
            else:
                raise ValueError(f"unknown layer kind {type(layer)}")


def _bad_qubit(what: str, q) -> ValueError:
    """The error for qubit ``q`` that is not an ``int`` within the
    program: an ``int`` subclass such as ``True``, a float or a numpy
    integer would not load back from the program's JSON."""
    if type(q) is not int:
        return ValueError(f"{what} must be an int, got {q!r}")
    return ValueError(f"{what} {q} out of range")


class MeasurementEvent(NamedTuple):
    label: str
    qubits: Tuple[int, ...]
    outcome: int  # qubits[0] is the most significant bit
    probability: float


MeasurementRecord = Tuple[MeasurementEvent, ...]


@dataclass(frozen=True)
class ResourceProfile:
    width: int
    quantum_depth: int
    rounds: int
    charged_width: float


@dataclass(frozen=True)
class GridLayout:
    coords: Dict[int, Tuple[int, int]]

    def __post_init__(self):
        if len(set(self.coords.values())) != len(self.coords):
            raise ValueError("duplicate grid coordinates")

    @staticmethod
    def line(n: int) -> "GridLayout":
        return GridLayout({q: (0, q) for q in range(n)})

    def adjacent(self, a: int, b: int) -> bool:
        (r1, c1), (r2, c2) = self.coords[a], self.coords[b]
        return abs(r1 - r2) + abs(c1 - c2) == 1


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeededPolicy:
    seed: int


@dataclass(frozen=True)
class ForcedPolicy:
    outcomes: Tuple[int, ...]


def _applies_to(app: GateApp, bits: Mapping[str, Mapping[str, np.ndarray]]):
    """The branches ``app`` applies to: ``None`` for all of them,
    ``False`` for none, else a boolean array indexed by label.  ``bits``
    maps each classical layer run so far to its outputs, each an array of
    values indexed by label; a conditioned gate applies where its bit
    is 1."""
    if app.condition is None:
        return None
    source, key = app.condition
    fires = bits[source][key] == 1
    return None if fires.all() else fires if fires.any() else False


class Branch(NamedTuple):
    record: MeasurementRecord
    probability: float
    state: SparseState
    peak_support: int  # largest support left by any layer on the way


class _DenseRun:
    """Dense gates that apply to every branch, not yet applied: one
    :func:`sparse_state.apply_unitaries` call runs them across layer
    boundaries once anything else needs the state, and reports each
    branch's largest support at the layer ends among them."""

    def __init__(self):
        self.gates: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
        self.ends: List[int] = []  # gate counts at which a layer ended

    def end_layer(self) -> None:
        if self.gates:
            self.ends.append(len(self.gates))

    def apply(self, state: SparseState, peaks: np.ndarray):
        """``state`` after the run, and ``peaks`` raised to the supports
        the run reports; the run is empty afterwards."""
        if self.gates:
            state, seen = ss.apply_unitaries(state, self.gates, self.ends)
            peaks = np.maximum(peaks, seen)
            self.gates, self.ends = [], []
        return state, peaks


def _apply_layer(
    layer: QuantumLayer, state: SparseState,
    bits: Mapping[str, Mapping[str, np.ndarray]],
    dense: _DenseRun, peaks: np.ndarray,
) -> Tuple[SparseState, np.ndarray]:
    """``state`` after ``layer``, each of its branches under its own
    classical outputs (see :func:`_applies_to`), but for the gates it
    leaves in ``dense``; ``peaks`` as :meth:`_DenseRun.apply` leaves it.

    A dense gate that applies to every branch joins ``dense``, the open
    run, which carries over from earlier layers; any other gate applies
    that run first.  Consecutive gates that have a ``permutation`` run as
    one :func:`sparse_state.apply_permutations` call, each with the
    branches it applies to; any other gate, and the end of the layer,
    ends the run.  A run gives each branch the state its gates give one
    at a time.  Any other gate runs once, on the branches it applies
    to."""
    run = []
    for app in layer.apps:
        which, gate = _applies_to(app, bits), app.gate
        if which is False:
            continue
        if (gate.permutation is None and which is None
                and isinstance(gate, MatrixGate)):
            if run:
                state, run = ss.apply_permutations(state, run), []
            dense.gates.append((gate.matrix, app.qubits))
            continue
        state, peaks = dense.apply(state, peaks)
        if gate.permutation is not None:
            run.append((*gate.permutation, app.qubits)
                       + (() if which is None else (which,)))
            continue
        if run:
            state, run = ss.apply_permutations(state, run), []
        if which is None:
            state = gate.apply(state, app.qubits)
        else:
            state = ss.apply_to_labels(
                state, which, lambda part: gate.apply(part, app.qubits))
    if run:
        state = ss.apply_permutations(state, run)
    return state, peaks


def _classical(
    layer: ClassicalLayer, words: np.ndarray
) -> Dict[str, np.ndarray]:
    """The outputs of ``layer`` on every branch, each an array indexed by
    label, given the word it reads on each branch: one parity table over
    all outputs and branches.  ``words`` holds ``int64`` values, or Python
    ints in an ``object`` array, wide enough for the word (so for every
    mask the program admits)."""
    masks = np.array(tuple(layer.outputs.values()), words.dtype)
    table = popcount(words[:, None] & masks) & 1
    return dict(zip(layer.outputs, table.T))


def _walk(
    program: LaqccProgram,
    choose: Callable[..., np.ndarray],
    observer: Optional[Callable[[SparseState], None]] = None,
) -> List[Branch]:
    """Walk the layers once, carrying every branch followed in one state,
    and return the branches in depth-first order.

    The i-th measurement is one :func:`sparse_state.branch_enumerate`
    call on the label qubits (most significant first) and the measured
    ones together, so its outcomes come sorted by label, then outcome,
    and their high bits name each one's parent.  ``choose(i, qubits,
    words, probabilities, parents)`` returns the ascending places of the
    outcomes to follow, relabelled in that order.  What the walk knows
    per branch is kept in arrays indexed by label and reindexed by
    parent: measured outcomes and probabilities, classical outputs
    (:func:`_classical`) and the largest support so far.  Gates run on
    the branches they apply to (:func:`_applies_to`); consecutive dense
    gates that apply to every branch run as one call across layers
    (:class:`_DenseRun`), which reports the support at the layer ends
    inside it.  Records, states and ``Branch`` objects are built after
    the last layer; ``observer`` sees each layer's state, so a run ends
    at every layer end when there is one."""
    n = program.num_qubits
    state = SparseState.basis(n)
    count = 1
    # measured label -> (qubits, outcomes, probabilities)
    measured: Dict[str, Tuple[Tuple[int, ...], np.ndarray, np.ndarray]] = {}
    bits: Dict[str, Dict[str, np.ndarray]] = {}
    peaks = np.ones(1, np.int64)
    dense = _DenseRun()
    for layer in program.layers:
        if isinstance(layer, QuantumLayer):
            state, peaks = _apply_layer(layer, state, bits, dense, peaks)
            if observer is not None:
                state, peaks = dense.apply(state, peaks)
            dense.end_layer()
        elif isinstance(layer, MeasureLayer):
            state, peaks = dense.apply(state, peaks)
            qubits, width = layer.qubits, len(layer.qubits)
            labels = tuple(range(state.num_qubits - 1, n - 1, -1))
            outcomes, probabilities, state = ss.branch_enumerate(
                state, labels + qubits)
            parents = np.zeros(len(outcomes), np.intp)
            if labels:
                parents = (outcomes >> width).astype(np.intp)
                outcomes = outcomes & ((1 << width) - 1)
            rows = choose(len(measured), qubits, outcomes, probabilities,
                          parents)
            if len(rows) < len(parents):
                state = ss.select_labels(state, rows)
            outcomes, probabilities = outcomes[rows], probabilities[rows]
            parents, count = parents[rows], len(rows)
            measured = {label: (q, o[parents], p[parents])
                        for label, (q, o, p) in measured.items()}
            measured[layer.label] = (qubits, outcomes, probabilities)
            bits = {name: {key: values[parents]
                           for key, values in out.items()}
                    for name, out in bits.items()}
            # the pre-measurement state is already in ``peaks``, and a
            # measurement never grows the support
            peaks = peaks[parents]
            if observer is not None:
                observer(state)
            continue
        else:
            bits[layer.name] = _classical(layer, measured[layer.reads][1])
        if observer is not None:
            observer(state)
        if dense.gates:  # the run reports the support at its layer ends
            continue
        if state.label_bits:
            peaks = np.maximum(peaks, ss.supports(state, count))
        elif state.support() > peaks[0]:
            peaks[0] = state.support()
    state, peaks = dense.apply(state, peaks)
    # a branch's probability: its events' probabilities multiplied in
    # record order, starting from 1.0
    products = np.ones(count)
    events = []
    for label, (qubits, outcomes, probabilities) in measured.items():
        products = products * probabilities
        events.append(list(map(
            MeasurementEvent, repeat(label, count), repeat(qubits, count),
            outcomes.tolist(), probabilities.tolist())))
    records = list(zip(*events)) or [()] * count
    return list(map(Branch, records, products.tolist(),
                    ss.split_labels(state, count), peaks.tolist()))


def enumerate_branches(
    program: LaqccProgram, max_branches: int = 1 << 14
) -> List[Branch]:
    """Every feasible measurement outcome, in depth-first order: by the
    first measurement's outcome, then the second's, and so on.

    The branches are walked as one batch that follows every outcome
    (see :func:`_walk`).  A program with at most ``max_branches``
    branches returns them all.  ``RuntimeError`` is raised as soon as a
    measurement leaves more than ``max_branches`` branches, before any
    later layer runs.
    """

    def choose(i, qubits, words, probabilities, parents):
        if len(words) > max_branches:
            raise RuntimeError("branch count exceeds enumeration cap")
        return np.arange(len(words))

    branches = _walk(program, choose)
    if len(branches) > max_branches:  # a program with no measurement
        raise RuntimeError("branch count exceeds enumeration cap")
    return branches


def sample_branches(
    program: LaqccProgram, num_samples: int, seed: int = 0
) -> List[Branch]:
    """One seeded shot per sample, seeds ``seed``, ``seed + 1``, ...,
    all in one walk (see :func:`_shots`)."""
    if num_samples < 0:
        raise ValueError(f"num_samples must be >= 0, got {num_samples!r}")
    policies = [SeededPolicy(seed + s) for s in range(num_samples)]
    return _shots(program, policies) if policies else []


def execute(
    program: LaqccProgram,
    policy: SeededPolicy | ForcedPolicy,
    observer: Optional[Callable[[SparseState], None]] = None,
) -> Tuple[SparseState, MeasurementRecord]:
    """Run one shot (see :func:`_shots`).  ``observer``, if given, sees
    the state each layer leaves (post-measurement for a measurement
    layer), once per layer in program order."""
    (branch,) = _shots(program, [policy], observer)
    return branch.state, branch.record


def _shots(program: LaqccProgram, policies: Sequence, observer=None):
    """The branch each policy's shot reaches, in one :func:`_walk` where
    each shot picks its outcomes by :func:`sparse_state.pick`; shots that
    picked alike share a label and, at the end, one ``Branch``."""
    rngs = [np.random.default_rng(p.seed) if isinstance(p, SeededPolicy)
            else None for p in policies]
    shot_labels = np.zeros(len(policies), np.intp)

    def choose(i, qubits, words, probabilities, parents):
        bounds = np.searchsorted(parents, [shot_labels, shot_labels + 1])
        rows = []
        for policy, rng, start, end in zip(policies, rngs, *bounds.tolist()):
            if rng is None and i >= len(policy.outcomes):
                raise ValueError("forcing sequence too short")
            rows.append(start + ss.pick(
                words[start:end], probabilities[start:end], qubits, rng,
                policy.outcomes[i] if rng is None else None))
        rows, shot_labels[:] = np.unique(rows, return_inverse=True)
        return rows

    branches = _walk(program, choose, observer)
    return [branches[label] for label in shot_labels.tolist()]


# --------------------------------------------------------------------------
# Resources and layout
# --------------------------------------------------------------------------


def resources(program: LaqccProgram) -> ResourceProfile:
    read_labels = set()
    for layer in program.layers:
        if isinstance(layer, ClassicalLayer):
            read_labels.add(layer.reads)
    quantum_depth = sum(
        1 for l in program.layers if isinstance(l, QuantumLayer)
    )
    rounds = sum(
        1
        for l in program.layers
        if isinstance(l, MeasureLayer) and l.label in read_labels
    )
    charge = sum(
        app.gate.charge
        for l in program.layers
        if isinstance(l, QuantumLayer)
        for app in l.apps
    )
    return ResourceProfile(
        width=program.num_qubits,
        quantum_depth=quantum_depth,
        rounds=rounds,
        charged_width=program.num_qubits + charge,
    )


def validate_layout(
    program: LaqccProgram, layout: GridLayout
) -> List[str]:
    """Grid-adjacency violations for every two-qubit gate application.

    Applications on three or more qubits are macro references whose
    internal layout is charged, not embedded, and are skipped.
    """
    for q in range(program.num_qubits):
        if q not in layout.coords:
            raise ValueError(f"layout missing qubit {q}")
    violations = []
    for li, layer in enumerate(program.layers):
        if not isinstance(layer, QuantumLayer):
            continue
        for app in layer.apps:
            if len(app.qubits) == 2 and not layout.adjacent(*app.qubits):
                violations.append(
                    f"layer {li}: {app.gate.name} on non-adjacent "
                    f"qubits {app.qubits}"
                )
    return violations


# --------------------------------------------------------------------------
# Transforms
# --------------------------------------------------------------------------

def defer_measurements(program: LaqccProgram) -> LaqccProgram:
    """Push all measurements to one terminal layer.

    A conditioned gate becomes a :func:`parity` gate whose controls are
    the qubits of the word its classical layer reads, in order, so a
    control pattern is that word; it fires where the pattern has odd
    parity under the output's mask.  Its spec holds that mask, so the
    deferred program dumps in space linear in the word, at any width.
    A measured qubit must stay as it was measured, so a qubit measured
    twice, or a gate on a qubit after its measurement, raises
    ``ValueError``, as does a conditioned gate with no spec.
    """
    label_qubits: Dict[str, Tuple[int, ...]] = {}
    classical: Dict[str, ClassicalLayer] = {}
    new_layers: List[Layer] = []
    deferred_qubits: List[int] = []
    for layer in program.layers:
        if isinstance(layer, MeasureLayer):
            for q in layer.qubits:
                if q in deferred_qubits:
                    raise ValueError(
                        f"qubit {q} is measured twice; it cannot be"
                        f" deferred coherently"
                    )
            label_qubits[layer.label] = layer.qubits
            deferred_qubits.extend(layer.qubits)
            continue
        if isinstance(layer, ClassicalLayer):
            classical[layer.name] = layer
            continue
        apps = []
        for app in layer.apps:
            control_qubits: Tuple[int, ...] = ()
            if app.condition is not None:
                source, key = app.condition
                clayer = classical[source]
                control_qubits = label_qubits[clayer.reads]
            for q in app.qubits:
                if q in control_qubits:
                    raise ValueError(
                        f"gate {app.gate.name!r} on qubit {q} is conditioned"
                        f" on a measurement of qubit {q}; it cannot be"
                        f" deferred coherently"
                    )
                if q in deferred_qubits:
                    raise ValueError(
                        f"gate {app.gate.name!r} on qubit {q} acts after a"
                        f" measurement of qubit {q}; it cannot be deferred"
                        f" coherently"
                    )
            if app.condition is not None:
                gate = parity(
                    f"if[{source}.{key}]{app.gate.name}", len(control_qubits),
                    clayer.outputs[key], _gate_spec(app.gate))
                app = GateApp(gate, control_qubits + app.qubits)
            apps.append(app)
        # predicated gates may share control qubits, so split into
        # sequential single-app layers when supports collide
        pending, used = [], set()
        for app in apps:
            if used & set(app.qubits):
                new_layers.append(QuantumLayer(tuple(pending)))
                pending, used = [], set()
            pending.append(app)
            used.update(app.qubits)
        if pending:
            new_layers.append(QuantumLayer(tuple(pending)))
    if deferred_qubits:
        new_layers.append(
            MeasureLayer(tuple(deferred_qubits), "deferred")
        )
    return LaqccProgram(program.num_qubits, program.registers, new_layers)


def to_postselected(
    program: LaqccProgram, transcript: MeasurementRecord
) -> Tuple[LaqccProgram, int]:
    """Unitary-only form whose flag qubit marks the transcript branch.

    Each measurement becomes an equality comparison against the
    transcript outcome written into a fresh ancilla; classical outputs
    are hardwired from the transcript; a terminal AND of all comparison
    bits lands in the returned flag qubit.
    """
    by_label = {ev.label: ev for ev in transcript}
    bits: Dict[str, Dict[str, np.ndarray]] = {}
    flag_bits: List[int] = []
    next_qubit = program.num_qubits
    new_layers: List[Layer] = []
    for layer in program.layers:
        if isinstance(layer, MeasureLayer):
            if layer.label not in by_label:
                raise ValueError(
                    f"transcript has no outcome for label {layer.label!r}")
            ev = by_label[layer.label]
            if tuple(ev.qubits) != tuple(layer.qubits):
                raise ValueError(
                    f"transcript event {layer.label!r} is on qubits"
                    f" {list(ev.qubits)}, but its measurement is on"
                    f" {list(layer.qubits)}")
            ancilla = next_qubit
            next_qubit += 1
            flag_bits.append(ancilla)
            gate = _transcript_equal_factory(len(layer.qubits), ev.outcome)
            new_layers.append(
                QuantumLayer(
                    (GateApp(gate, tuple(layer.qubits) + (ancilla,)),)
                )
            )
        elif isinstance(layer, ClassicalLayer):
            ev = by_label[layer.reads]
            bits[layer.name] = _classical(
                layer, np.array([ev.outcome], ss._dtype(len(ev.qubits))))
        else:
            apps = [GateApp(app.gate, app.qubits) for app in layer.apps
                    if _applies_to(app, bits) is None]
            if apps:
                new_layers.append(QuantumLayer(tuple(apps)))
    flag = next_qubit
    next_qubit += 1
    gate = _and_flags_factory(len(flag_bits))  # with no bits, a plain flip
    new_layers.append(
        QuantumLayer((GateApp(gate, tuple(flag_bits) + (flag,)),))
    )
    registers = dict(program.registers)
    registers["postselect_flags"] = Register(tuple(flag_bits), "ancilla")
    registers["postselect_flag"] = Register((flag,), "flag")
    return (
        LaqccProgram(next_qubit, registers, new_layers),
        flag,
    )


_HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def fold_hadamard(program: LaqccProgram) -> LaqccProgram:
    """``program`` with each Hadamard wall around gates that name a
    Hadamard dual folded away: the same map, on fewer basis states.

    On one qubit q, a stretch is an H, then one or more gates whose dual
    positions hold q, then an H, with nothing else on q in between (all
    unconditioned; an H is a one-qubit ``MatrixGate`` whose matrix is
    exactly the package's).  A gate folds when each of its dual qubits
    has a stretch around it and every gate in those stretches folds:
    then each such gate becomes its dual and the two Hadamards of each
    such stretch go.  Taking the gates in program order, the H before
    a gate on each of its dual qubits gives H^S D = (H^S D H^S) H^S,
    which leaves that H before the next gate of the stretch, and at the
    end next to the closing H, which it cancels.  Any other gate and
    any H on other qubits stays where it is, and a layer left empty is
    dropped.  Returns ``program`` itself when nothing folds, after one
    scan of the gates when none names a dual."""
    layers = program.layers
    if not any(app.gate.hadamard_dual for layer in layers
               if isinstance(layer, QuantumLayer) for app in layer.apps):
        return program
    hadamard: Dict[int, bool] = {}  # id(gate) -> whether it is an H
    opened: Dict[int, list] = {}  # qubit -> [its opening H, gates since]
    stretches = []  # (opening H, closing H, gates), each as (layer, app)
    for li, layer in enumerate(layers):
        if isinstance(layer, MeasureLayer):
            for q in layer.qubits:
                opened.pop(q, None)
        if not isinstance(layer, QuantumLayer):
            continue
        for ai, (gate, qubits, condition) in enumerate(layer.apps):
            key = (li, ai)
            is_h = hadamard.get(id(gate))
            if is_h is None:
                is_h = hadamard[id(gate)] = (
                    isinstance(gate, MatrixGate) and gate.num_bits == 1
                    and np.array_equal(gate.matrix, _HADAMARD))
            if is_h and condition is None:
                stretch = opened.pop(qubits[0], None)
                if stretch is not None and len(stretch) > 1:
                    stretches.append((stretch[0], key, stretch[1:]))
                else:
                    opened[qubits[0]] = [key]
                continue
            dual = gate.hadamard_dual if condition is None else None
            inside = () if dual is None else {qubits[p] for p in dual[0]}
            for q in qubits:
                stretch = opened.get(q)
                if stretch is None:
                    continue
                if q in inside:
                    stretch.append(key)
                else:
                    del opened[q]
    # a gate with fewer stretches than dual qubits cannot fold, nor can
    # any stretch around it, nor any gate in such a stretch, and so on
    around: Dict[tuple, List[int]] = {}  # gate -> its stretches
    for s, (_, _, gates) in enumerate(stretches):
        for key in gates:
            around.setdefault(key, []).append(s)
    todo = [key for key, held in around.items()
            if len(held) < len(layers[key[0]].apps[key[1]].gate
                               .hadamard_dual[0])]
    unfolded, failed = set(todo), set()
    while todo:
        for s in around[todo.pop()]:
            if s not in failed:
                failed.add(s)
                new = [key for key in stretches[s][2] if key not in unfolded]
                unfolded.update(new)
                todo.extend(new)
    removed = {key for s, (opening, closing, _) in enumerate(stretches)
               if s not in failed for key in (opening, closing)}
    if not removed:
        return program
    folded = set(around) - unfolded
    touched = {li for li, _ in removed | folded}
    new_layers: List[Layer] = []
    for li, layer in enumerate(layers):
        if li not in touched:
            new_layers.append(layer)
            continue
        apps = []
        for ai, app in enumerate(layer.apps):
            if (li, ai) in removed:
                continue
            if (li, ai) in folded:
                app = GateApp(app.gate.hadamard_dual[1], app.qubits)
            apps.append(app)
        if apps:
            new_layers.append(QuantumLayer(tuple(apps)))
    return LaqccProgram(program.num_qubits, program.registers, new_layers)


# --------------------------------------------------------------------------
# Builder
# --------------------------------------------------------------------------


class Builder:
    """Incremental program assembly with register allocation."""

    def __init__(self):
        self.num_qubits = 0
        self.registers: Dict[str, Register] = {}
        self.layers: List[Layer] = []

    def alloc(self, name: str, count: int, role: str) -> Tuple[int, ...]:
        qubits = tuple(range(self.num_qubits, self.num_qubits + count))
        self.num_qubits += count
        self.registers[name] = Register(qubits, role)
        return qubits

    def layer(self, *apps: GateApp) -> None:
        self.layers.append(QuantumLayer(tuple(apps)))

    def gate(
        self,
        gate: Gate,
        qubits: Sequence[int],
        condition: Optional[Condition] = None,
    ) -> None:
        self.layer(GateApp(gate, tuple(qubits), condition))

    def measure(self, qubits: Sequence[int], label: str) -> None:
        self.layers.append(MeasureLayer(tuple(qubits), label))

    def classical(self, layer: ClassicalLayer) -> None:
        self.layers.append(layer)

    def build(self) -> LaqccProgram:
        return LaqccProgram(self.num_qubits, self.registers, self.layers)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

GATE_REGISTRY: Dict[str, Callable[..., Gate]] = {}


def register_gate(name: str):
    """Decorator registering a gate factory under ``name``, which
    ``loads`` calls with a spec's params; whatever gate it returns carries
    the spec ``{"name": name, "params": <the arguments it was called
    with>}``, unless it already carries one: a registered gate handed
    back, such as a shared ``clifford`` gate or the inverse of one."""

    def deco(factory):
        # bound once here: Signature.bind on every call slows ``loads``
        names = tuple(inspect.signature(factory).parameters)

        @functools.wraps(factory)
        def made(*args, **kwargs):
            gate = factory(*args, **kwargs)
            if gate.spec is None:
                params = dict(zip(names, args))
                params.update(kwargs)
                # a frozen gate: the spec is not one of its fields
                object.__setattr__(
                    gate, "spec", {"name": name, "params": params})
            return gate

        GATE_REGISTRY[name] = made
        return made

    return deco


def _gate_from_spec(spec: dict) -> Gate:
    name = json_string(spec, "name")
    if name not in GATE_REGISTRY:
        raise ValueError(f"unknown gate {name!r}")
    return _from_params("gate", name, GATE_REGISTRY[name], spec)


def _gate_spec(gate: Gate) -> dict:
    """Serializable spec: the one its factory set, or, for a dense matrix
    that no factory made, one read off the gate."""
    if gate.spec is not None:
        return gate.spec
    if isinstance(gate, MatrixGate):
        return {
            "name": "matrix",
            "params": {
                "label": gate.name,
                "matrix": [
                    [[float(c.real), float(c.imag)] for c in row]
                    for row in gate.matrix
                ],
            },
        }
    raise ValueError(f"gate {gate.name} has no serializable spec")


@register_gate("transcript_equal")
def _transcript_equal_factory(bits: int, expected: int) -> "BasisMapGate":
    if not (_is_count(bits) and _is_count(expected)) or expected >> bits:
        raise ValueError(
            f"transcript_equal needs an integer expected in [0, 2^bits),"
            f" got {expected!r} for bits {bits!r}")

    def eq(v, expected=expected):
        return v ^ ((v >> 1) == expected).astype(v.dtype)

    return BasisMapGate(f"equal[{expected:0{bits}b}]", bits + 1, eq, eq)


@register_gate("and_flags")
def _and_flags_factory(bits: int) -> "BasisMapGate":
    def all_ones(v, bits=bits):
        return v ^ ((v >> 1) == (1 << bits) - 1).astype(v.dtype)

    return BasisMapGate("and_flags", bits + 1, all_ones, all_ones)


@register_gate("inverse")
def inverse(gate: dict) -> Gate:
    """The inverse of the gate with spec ``gate``."""
    try:
        return _gate_from_spec(gate).inverse()
    except NotImplementedError as exc:  # e.g. a parity gate
        raise ValueError(str(exc)) from exc


def inverse_gate(gate: Gate) -> Gate:
    """The inverse of ``gate``: made by :func:`inverse` from the gate's
    spec when it has one, so a registered gate's inverse dumps too."""
    return gate.inverse() if gate.spec is None else inverse(gate.spec)


def _check_label(label) -> None:
    """Raise ``ValueError`` unless ``label`` is a string: it becomes the
    loaded gate's name, which gates hash and compare."""
    if not isinstance(label, str):
        raise ValueError(f"gate label must be a string, got {label!r}")


def _matrix_gate_factory(label: str, matrix) -> "MatrixGate":
    _check_label(label)
    m = np.array(
        [[complex(re, im) for re, im in row] for row in matrix]
    )
    return MatrixGate(label, m)


@register_gate("diagonal")
def diagonal(label: str, phases, charge: float = 0.0) -> "DiagonalGate":
    """The diagonal gate with phase ``complex(*phases[p])`` on pattern
    ``p``: its phases written as ``[re, im]`` pairs, as ``matrix`` writes
    its entries."""
    _check_label(label)
    table = np.array([complex(re, im) for re, im in phases], complex)
    d = len(table)
    if d < 1 or d & (d - 1):
        raise ValueError(f"{d} diagonal phases is not a power of two")
    if not np.all(np.abs(np.abs(table) - 1.0) <= 1e-9):
        raise ValueError("phase factor must have unit modulus")
    table.flags.writeable = False
    return DiagonalGate(
        label, d.bit_length() - 1, table.__getitem__, charge=charge
    )


@register_gate("parity")
def parity(label: str, control_bits: int, mask: int, gate: dict) -> Gate:
    """The gate with spec ``gate`` on the trailing qubits, applied where
    the ``control_bits`` leading ones (the first the most significant)
    hold an odd number of the bits ``mask`` selects: a conditioned gate
    after :func:`defer_measurements`."""
    _check_label(label)
    if not (_is_count(control_bits) and _is_count(mask)) or (
            mask >> control_bits):
        raise ValueError(
            f"parity needs an integer mask >= 0 within an integer"
            f" control_bits >= 0, got {mask!r} and {control_bits!r}")
    return PredicatedGate(label, control_bits, mask, _gate_from_spec(gate))


# ``_gate_spec`` reads the ``matrix`` spec off the gate, so it gets no stamp
GATE_REGISTRY["matrix"] = _matrix_gate_factory


def program_to_json(program: LaqccProgram) -> dict:
    layers = []
    for layer in program.layers:
        if isinstance(layer, QuantumLayer):
            gates = []
            for app in layer.apps:
                entry = {"gate": _gate_spec(app.gate),
                         "qubits": list(app.qubits)}
                if app.condition:
                    entry["condition"] = list(app.condition)
                gates.append(entry)
            layers.append({"kind": "quantum", "gates": gates})
        elif isinstance(layer, MeasureLayer):
            layers.append({"kind": "measure", "qubits": list(layer.qubits),
                           "label": layer.label})
        else:
            layers.append({
                "kind": "classical", "function_name": "linear",
                "params": {"name": layer.name, "reads": layer.reads,
                           "outputs": dict(layer.outputs)},
            })
    return {
        "qubits": program.num_qubits,
        "registers": {
            name: {"qubits": list(reg.qubits), "role": reg.role}
            for name, reg in program.registers.items()
        },
        "layers": layers,
    }


def json_field(doc: dict, key: str):
    """``doc[key]``, raising ``ValueError`` when ``doc`` is not a JSON
    object or has no ``key``."""
    if not isinstance(doc, dict):
        raise ValueError(
            f"expected a JSON object, got {type(doc).__name__}"
        )
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def _is_count(value) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


def json_count(doc: dict, key: str) -> int:
    """``json_field(doc, key)``, raising ``ValueError`` unless it is an
    integer >= 0 (``true`` and ``false`` are not integers here)."""
    value = json_field(doc, key)
    if not _is_count(value):
        raise ValueError(f"{key!r} must be an integer >= 0, got {value!r}")
    return value


def json_string(doc: dict, key: str) -> str:
    """``json_field(doc, key)``, raising ``ValueError`` unless it is a
    string."""
    value = json_field(doc, key)
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string, got {value!r}")
    return value


def json_list(doc: dict, key: str) -> list:
    """``json_field(doc, key)``, raising ``ValueError`` unless it is a
    JSON array."""
    value = json_field(doc, key)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    return value


def json_qubits(doc: dict, key: str) -> Tuple[int, ...]:
    """``json_field(doc, key)`` as a tuple, raising ``ValueError`` unless
    it is a list of integers >= 0."""
    return _qubit_tuple(key, json_field(doc, key))


def _qubit_tuple(key: str, value) -> Tuple[int, ...]:
    """``value``, the entry ``key`` of a JSON object, as a tuple of
    qubits: one list test, then one pass over the entries (an ``int``
    subclass such as ``True`` is not an integer here)."""
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    for q in value:
        if type(q) is not int or q < 0:
            raise ValueError(
                f"{key!r} must be a list of integers >= 0, got {value!r}"
            )
    return tuple(value)


def _json_condition(value) -> Condition:
    if not isinstance(value, list):
        raise ValueError(f"'condition' must be a list, got {value!r}")
    if len(value) != 2 or not (
            isinstance(value[0], str) and isinstance(value[1], str)):
        raise ValueError(
            f"'condition' must be [layer name, flag name], got {value!r}"
        )
    return tuple(value)


def _from_params(kind: str, name: str, factory: Callable, entry: dict):
    """``factory(**entry["params"])``; params the factory does not take
    raise ``ValueError`` instead of ``TypeError``."""
    try:
        return factory(**entry.get("params", {}))
    except TypeError as exc:
        raise ValueError(f"bad params for {kind} {name!r}: {exc}") from exc


_SIMPLE = frozenset([str, int])


def _spec_key(spec) -> Optional[tuple]:
    """The key under which :func:`program_from_json` keeps the gate of
    ``spec`` for the rest of its document: the name, then the params'
    items in document order.  ``None``, so the spec is resolved on its
    own, unless the name is a ``str`` and every param value is exactly
    a ``str`` or an ``int``: then the key hashes, and equal keys call the
    factory with equal arguments (``true``, ``1.0`` and ``-0.0``, equal
    to ``1``, ``1`` and ``0``, have no key)."""
    if type(spec) is dict:
        name, params = spec.get("name"), spec.get("params", {})
        if (type(name) is str and type(params) is dict
                and _SIMPLE.issuperset(map(type, params.values()))):
            return (name, *params.items())
    return None


def program_from_json(doc: dict) -> LaqccProgram:
    """The program ``doc`` describes, checked as every program is.  Each
    distinct spec with a key (:func:`_spec_key`) is resolved once per
    document; a later entry reuses its gate, and a spec that failed is
    resolved again, so it fails again with the same error."""
    memo: Dict[tuple, Gate] = {}
    layer_docs = json_list(doc, "layers")
    num_qubits = json_count(doc, "qubits")
    register_docs = doc.get("registers", {})
    if not isinstance(register_docs, dict):
        raise ValueError("'registers' must be a JSON object")
    registers = {
        name: Register(
            json_qubits(entry, "qubits"), json_string(entry, "role"))
        for name, entry in register_docs.items()
    }
    layers: List[Layer] = []
    for entry in layer_docs:
        kind = json_field(entry, "kind")
        if kind == "quantum":
            apps = []
            for g in json_list(entry, "gates"):
                spec = json_field(g, "gate")
                key = _spec_key(spec)
                if key is None:
                    gate = _gate_from_spec(spec)
                else:
                    gate = memo.get(key)
                    if gate is None:
                        gate = memo[key] = _gate_from_spec(spec)
                # json_field found ``g`` an object, so its other keys are
                # read directly
                if "qubits" not in g:
                    raise ValueError("missing key 'qubits'")
                condition = None
                if "condition" in g:
                    condition = _json_condition(g["condition"])
                apps.append(
                    GateApp(gate, _qubit_tuple("qubits", g["qubits"]),
                            condition)
                )
            layers.append(QuantumLayer(tuple(apps)))
        elif kind == "measure":
            layers.append(
                MeasureLayer(
                    json_qubits(entry, "qubits"), json_string(entry, "label")
                )
            )
        elif kind == "classical":
            name = json_field(entry, "function_name")
            if name != "linear":
                raise ValueError(f"unknown classical function {name!r}")
            layers.append(
                _from_params("classical function", name, linear, entry))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return LaqccProgram(num_qubits, registers, layers)


_quote = json.encoder.encode_basestring_ascii


# the newlines, with their indent, of a gate entry in a layer's "gates",
# of the entry's keys and of the items of its arrays
_ENTRY = "\n" + " " * 8
_KEY = _ENTRY + "  "
_ITEM = _KEY + "  "
_NEXT_ITEM = "," + _ITEM
_OPEN = _ENTRY + "{"
_CONDITION = _OPEN + _KEY + '"condition": [' + _ITEM
_AFTER_CONDITION = _KEY + "],"
_END = _KEY + "]" + _ENTRY + "}"  # closes an entry's last array, then it


def _joined(items: List[str], newline: str, brackets: str = "[]") -> str:
    """The written ``items`` as an indent-2 JSON array, or object when
    ``brackets`` is ``"{}"``; ``newline`` is a newline followed by the
    indent of the line it opens on."""
    if not items:
        return brackets
    inner = newline + "  "
    return (brackets[0] + inner + ("," + inner).join(items) + newline
            + brackets[1])


def dumps(program: LaqccProgram) -> str:
    """``json.dumps(program_to_json(program), sort_keys=True, indent=2)``,
    byte for byte, raising the same error where that raises one.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder.
    A program's document has a fixed shape, so this writer fills
    templates from the program's fields, each object's members in
    sorted order; the constructors guarantee the fields' types (``int``
    qubits, counts and masks, ``str`` names, labels and roles, and
    conditions of two strings).  Only a gate's spec is free-form: a gate
    writes it with ``json.dumps`` once and keeps the entry's text up to
    its first qubit (``Gate._entry_head``), and each application then
    costs one join of its qubits, after its condition if it has one.
    The text is joined once, at the end."""
    parts: List[str] = ['{\n  "layers": ']
    out = parts.append
    sep = "[\n    "
    try:
        for layer in program.layers:
            out(sep)
            sep = ",\n    "
            if isinstance(layer, QuantumLayer):
                entries: List[str] = []
                add = entries.append
                for gate, qubits, condition in layer.apps:
                    head = gate._entry_head
                    if qubits:
                        entry = head + _NEXT_ITEM.join(map(str, qubits)) + _END
                    else:  # ``"qubits": []`` has no item to start a line
                        entry = head.rstrip() + "]" + _ENTRY + "}"
                    add(_CONDITION + _quote(condition[0]) + _NEXT_ITEM
                        + _quote(condition[1]) + _AFTER_CONDITION + entry
                        if condition else _OPEN + entry)
                if entries:
                    out('{\n      "gates": [')
                    out(",".join(entries))
                    out('\n      ],\n      "kind": "quantum"\n    }')
                else:
                    out('{\n      "gates": [],'
                        '\n      "kind": "quantum"\n    }')
            elif isinstance(layer, MeasureLayer):
                out('{\n      "kind": "measure",\n      "label": '
                    + _quote(layer.label) + ',\n      "qubits": '
                    + _joined([*map(str, layer.qubits)], "\n      ")
                    + "\n    }")
            else:
                outputs = layer.outputs
                out('{\n      "function_name": "linear",\n      "kind":'
                    ' "classical",\n      "params": {\n        "name": '
                    + _quote(layer.name) + ',\n        "outputs": '
                    + _joined([_quote(key) + ": " + int.__repr__(outputs[key])
                               for key in sorted(outputs)],
                              "\n        ", "{}")
                    + ',\n        "reads": ' + _quote(layer.reads)
                    + "\n      }\n    }")
    except (TypeError, ValueError):
        # ``program_to_json`` raises a missing spec's ValueError before
        # ``json`` sees any value, so that error comes first here too
        program_to_json(program)
        raise
    registers = program.registers
    out(('\n  ],\n  "qubits": ' if program.layers else '[],\n  "qubits": ')
        + str(program.num_qubits) + ',\n  "registers": ' + _joined(
            [_quote(name) + ': {\n      "qubits": '
             + _joined([*map(str, registers[name].qubits)], "\n      ")
             + ',\n      "role": ' + _quote(registers[name].role)
             + "\n    }" for name in sorted(registers)],
            "\n  ", "{}")
        + "\n}")
    return "".join(parts)


def loads(text: str) -> LaqccProgram:
    return program_from_json(json.loads(text))
