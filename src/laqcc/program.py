"""Program representation: alternating quantum, measurement, and classical
layers, plus execution, branch enumeration, resource accounting, layout
validation, and the measurement-deferral / post-selection transforms.

Conventions
-----------
* A gate application lists its qubits most-significant-first: the gate's
  bit 0 (as an integer pattern) is the last listed qubit.
* Classical layers read labelled measurement outcomes and publish named
  bits; later gate applications may be conditioned on one such bit.
* Terminal measurements that nothing reads are free in the round count.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import sparse_state as ss
from .sparse_state import InfeasibleBranchError, SparseState

# --------------------------------------------------------------------------
# Gates
# --------------------------------------------------------------------------


class Gate:
    """Base class; subclasses implement apply() on a sparse state."""

    name: str
    num_bits: int
    charge: float = 0.0  # extra analytic width charged beyond simulated qubits
    spec: Optional[dict] = None  # serializable description, if registered

    def apply(self, state: SparseState, qubits: Sequence[int]) -> SparseState:
        raise NotImplementedError

    def inverse(self) -> "Gate":
        raise NotImplementedError(f"{self.name} has no inverse form")


@dataclass
class MatrixGate(Gate):
    name: str
    matrix: np.ndarray
    charge: float = 0.0
    spec: Optional[dict] = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.num_bits = int(round(math.log2(self.matrix.shape[0])))

    def apply(self, state, qubits):
        return ss.apply_unitary(state, self.matrix, qubits)

    def inverse(self):
        return MatrixGate(self.name + "_inv", self.matrix.conj().T)


@dataclass
class BasisMapGate(Gate):
    """Bijective relabelling of the computational basis on its qubits."""

    name: str
    num_bits: int
    fn: Callable[[int], int]
    inverse_fn: Optional[Callable[[int], int]] = None
    charge: float = 0.0
    spec: Optional[dict] = None

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
    """Diagonal unitary given by a phase function of the bit pattern."""

    name: str
    num_bits: int
    phase_fn: Callable[[int], complex]
    charge: float = 0.0
    spec: Optional[dict] = None

    def apply(self, state, qubits):
        return ss.apply_phase_map(state, self.phase_fn, qubits)

    def inverse(self):
        fn = self.phase_fn
        return DiagonalGate(
            self.name + "_inv", self.num_bits,
            lambda v: complex(fn(v)).conjugate(), charge=self.charge,
        )


@dataclass
class DynamicGate(Gate):
    """Gate whose concrete form depends on earlier classical outputs."""

    name: str
    num_bits: int
    builder: Callable[[Dict[str, Dict[str, int]]], Gate]
    reads: Tuple[str, ...] = ()
    charge: float = 0.0
    spec: Optional[dict] = None

    def apply(self, state, qubits):  # pragma: no cover - resolved earlier
        raise RuntimeError("dynamic gate must be resolved before application")


@dataclass
class PredicatedGate(Gate):
    """Apply ``gate`` to the trailing qubits iff a predicate of the leading
    control bits is 1; used by the measurement-deferral transform."""

    name: str
    control_bits: int
    predicate: Callable[[int], int]
    gate: Gate
    charge: float = 0.0
    spec: Optional[dict] = None

    def __post_init__(self):
        self.num_bits = self.control_bits + self.gate.num_bits

    def apply(self, state, qubits):
        controls = list(qubits[: self.control_bits])
        targets = list(qubits[self.control_bits:])
        hit: Dict[int, complex] = {}
        miss: Dict[int, complex] = {}
        for index, amp in state.amplitudes.items():
            pattern = 0
            for c in controls:
                pattern = (pattern << 1) | ((index >> c) & 1)
            (hit if self.predicate(pattern) else miss)[index] = amp
        out = dict(miss)
        if hit:
            # unnormalized sub-vector: apply the inner gate linearly
            sub = SparseState(state.num_qubits, hit)
            norm = math.sqrt(sub.norm_squared())
            scaled = SparseState(
                state.num_qubits, {i: a / norm for i, a in hit.items()}
            )
            moved = self.gate.apply(scaled, targets)
            for i, a in moved.amplitudes.items():
                out[i] = out.get(i, 0.0) + a * norm
        result = SparseState(state.num_qubits, out)
        result.check_norm()
        return result


# --------------------------------------------------------------------------
# Layers
# --------------------------------------------------------------------------

Condition = Tuple[str, str]  # (classical layer name, output key)


@dataclass(frozen=True)
class GateApp:
    gate: Gate
    qubits: Tuple[int, ...]
    condition: Optional[Condition] = None


@dataclass(frozen=True)
class QuantumLayer:
    apps: Tuple[GateApp, ...]

    def __post_init__(self):
        seen = set()
        for app in self.apps:
            for q in app.qubits:
                if q in seen:
                    raise ValueError(
                        f"qubit {q} used twice in one quantum layer"
                    )
                seen.add(q)


@dataclass(frozen=True)
class MeasureLayer:
    qubits: Tuple[int, ...]
    label: str


@dataclass(frozen=True)
class ClassicalLayer:
    name: str
    fn: Callable[[Dict[str, int]], Dict[str, int]]
    depth_class: str = "NC1"  # or "ALL"
    reads: Tuple[str, ...] = ()
    spec: Optional[dict] = None


Layer = object  # union of the three layer kinds


@dataclass(frozen=True)
class Register:
    qubits: Tuple[int, ...]
    role: str  # index | system | ancilla | flag

    def __post_init__(self):
        if self.role not in {"index", "system", "ancilla", "flag"}:
            raise ValueError(f"unknown register role {self.role!r}")


@dataclass
class LaqccProgram:
    num_qubits: int
    registers: Dict[str, Register] = field(default_factory=dict)
    layers: List[Layer] = field(default_factory=list)

    def validate(self) -> None:
        claimed = set()
        for name, reg in self.registers.items():
            for q in reg.qubits:
                if q in claimed:
                    raise ValueError(f"qubit {q} in two registers")
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"register {name} out of range")
                claimed.add(q)
        measured: set = set()
        classical: set = set()
        for layer in self.layers:
            if isinstance(layer, QuantumLayer):
                for app in layer.apps:
                    if len(app.qubits) != app.gate.num_bits:
                        raise ValueError(
                            f"gate {app.gate.name} arity mismatch"
                        )
                    for q in app.qubits:
                        if not 0 <= q < self.num_qubits:
                            raise ValueError("gate qubit out of range")
                    if app.condition and app.condition[0] not in classical:
                        raise ValueError(
                            f"condition references unknown layer "
                            f"{app.condition[0]!r}"
                        )
            elif isinstance(layer, MeasureLayer):
                if layer.label in measured:
                    raise ValueError(f"duplicate label {layer.label!r}")
                measured.add(layer.label)
            elif isinstance(layer, ClassicalLayer):
                for label in layer.reads:
                    if label not in measured:
                        raise ValueError(
                            f"classical layer {layer.name!r} reads "
                            f"unmeasured label {label!r}"
                        )
                classical.add(layer.name)
            else:
                raise ValueError(f"unknown layer kind {type(layer)}")

    def register(self, name: str) -> Tuple[int, ...]:
        return self.registers[name].qubits


@dataclass(frozen=True)
class MeasurementEvent:
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
    classical_depth_class: str
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


def _resolve(app: GateApp, env: Dict[str, Dict[str, int]]) -> Optional[Gate]:
    """Concrete gate to apply for this application, or None to skip."""
    if app.condition is not None:
        source, key = app.condition
        if env.get(source, {}).get(key, 0) != 1:
            return None
    gate = app.gate
    if isinstance(gate, DynamicGate):
        gate = gate.builder(env)
    return gate


@dataclass(frozen=True)
class Branch:
    record: MeasurementRecord
    probability: float
    state: SparseState


def _walk(
    program: LaqccProgram,
    choose: Callable[..., List[Tuple[int, float, SparseState]]],
    observer: Optional[Callable[[SparseState], None]] = None,
) -> Iterator[Tuple[SparseState, MeasurementRecord]]:
    """Depth-first walk of the layers, yielding ``(state, record)`` for
    each branch followed.  At the i-th measurement of a branch,
    ``choose(i, state, qubits)`` lists the ``(outcome, probability,
    post-state)`` triples to follow."""
    program.validate()
    layers = program.layers

    def walk(start, state, env, record):
        for idx in range(start, len(layers)):
            layer = layers[idx]
            if isinstance(layer, QuantumLayer):
                for app in layer.apps:
                    gate = _resolve(app, env)
                    if gate is not None:
                        state = gate.apply(state, app.qubits)
            elif isinstance(layer, MeasureLayer):
                qubits = layer.qubits
                for outcome, p, post in choose(len(record), state, qubits):
                    if observer is not None:
                        observer(post)
                    event = MeasurementEvent(layer.label, qubits, outcome, p)
                    yield from walk(idx + 1, post, env, record + (event,))
                return
            else:
                outcomes = {ev.label: ev.outcome for ev in record}
                reads = {label: outcomes[label] for label in layer.reads}
                env = {**env, layer.name: layer.fn(reads)}
            if observer is not None:
                observer(state)
        yield state, record

    return walk(0, SparseState.basis(program.num_qubits), {}, ())


def _branch(state: SparseState, record: MeasurementRecord) -> Branch:
    prob = math.prod((ev.probability for ev in record), start=1.0)
    return Branch(record, prob, state)


def execute(
    program: LaqccProgram,
    policy: SeededPolicy | ForcedPolicy,
    observer: Optional[Callable[[SparseState], None]] = None,
) -> Tuple[SparseState, MeasurementRecord]:
    """Run one shot.  ``observer`` (if given) is called exactly once per
    layer, in program order, right after that layer, with the state it
    left (post-measurement for a measurement layer), e.g. to track the
    largest basis-state support reached."""
    seeded = isinstance(policy, SeededPolicy)
    rng = np.random.default_rng(policy.seed) if seeded else None

    def choose(i, state, qubits):
        if seeded:
            return [ss.measure(state, qubits, rng=rng)]
        if i >= len(policy.outcomes):
            raise ValueError("forcing sequence too short")
        return [ss.measure(state, qubits, forced=policy.outcomes[i])]

    (shot,) = _walk(program, choose, observer)
    return shot


def enumerate_branches(
    program: LaqccProgram, max_branches: int = 1 << 14
) -> List[Branch]:
    """Depth-first enumeration of every feasible measurement outcome.

    A program with at most ``max_branches`` branches returns them all;
    ``RuntimeError`` is raised as soon as branch ``max_branches + 1`` is
    reached.
    """
    branches: List[Branch] = []
    for shot in _walk(program, lambda i, s, q: ss.branch_enumerate(s, q)):
        if len(branches) == max_branches:
            raise RuntimeError("branch count exceeds enumeration cap")
        branches.append(_branch(*shot))
    return branches


def sample_branches(
    program: LaqccProgram, num_samples: int, seed: int = 0
) -> List[Branch]:
    return [
        _branch(*execute(program, SeededPolicy(seed + i)))
        for i in range(num_samples)
    ]


# --------------------------------------------------------------------------
# Resources and layout
# --------------------------------------------------------------------------


def resources(program: LaqccProgram) -> ResourceProfile:
    program.validate()
    read_labels = set()
    depth_class = "NC1"
    for layer in program.layers:
        if isinstance(layer, ClassicalLayer):
            read_labels.update(layer.reads)
            if layer.depth_class == "ALL":
                depth_class = "ALL"
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
        classical_depth_class=depth_class,
        charged_width=program.num_qubits + charge,
    )


def validate_layout(
    program: LaqccProgram, layout: GridLayout
) -> List[str]:
    """Grid-adjacency violations for every two-qubit gate application.

    Applications on three or more qubits are macro references whose
    internal layout is charged, not embedded, and are skipped.
    """
    program.validate()
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

MAX_DEFER_INPUT_BITS = 20


def defer_measurements(program: LaqccProgram) -> LaqccProgram:
    """Push all measurements to one terminal layer.

    Conditional gates become coherent predicated gates reading the bits
    of the qubits that would have been measured; classical functions are
    evaluated inside the predicate, so they must take at most
    ``MAX_DEFER_INPUT_BITS`` input bits.
    """
    program.validate()
    label_qubits: Dict[str, Tuple[int, ...]] = {}
    classical: Dict[str, ClassicalLayer] = {}
    new_layers: List[Layer] = []
    deferred_qubits: List[int] = []
    for layer in program.layers:
        if isinstance(layer, MeasureLayer):
            label_qubits[layer.label] = layer.qubits
            deferred_qubits.extend(layer.qubits)
            continue
        if isinstance(layer, ClassicalLayer):
            total_bits = sum(
                len(label_qubits[label]) for label in layer.reads
            )
            if total_bits > MAX_DEFER_INPUT_BITS:
                raise ValueError(
                    f"classical layer {layer.name!r} reads {total_bits} "
                    f"bits; deferral supports at most "
                    f"{MAX_DEFER_INPUT_BITS}"
                )
            classical[layer.name] = layer
            continue
        apps = []
        for app in layer.apps:
            if isinstance(app.gate, DynamicGate):
                raise ValueError(
                    "dynamic gates cannot be deferred coherently"
                )
            if app.condition is None:
                apps.append(app)
                continue
            source, key = app.condition
            clayer = classical[source]
            control_qubits: List[int] = []
            widths: List[Tuple[str, int]] = []
            for label in clayer.reads:
                qs = label_qubits[label]
                control_qubits.extend(qs)
                widths.append((label, len(qs)))

            def predicate(pattern, clayer=clayer, widths=widths, key=key):
                values = {}
                shift = sum(w for _, w in widths)
                for label, w in widths:
                    shift -= w
                    values[label] = (pattern >> shift) & ((1 << w) - 1)
                return clayer.fn(values).get(key, 0)

            gate = PredicatedGate(
                name=f"if[{source}.{key}]{app.gate.name}",
                control_bits=len(control_qubits),
                predicate=predicate,
                gate=app.gate,
            )
            apps.append(
                GateApp(gate, tuple(control_qubits) + app.qubits)
            )
        # predicated gates may share control qubits, so split into
        # sequential single-app layers when supports collide
        pending: List[GateApp] = []
        used: set = set()
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
    return LaqccProgram(
        program.num_qubits, dict(program.registers), new_layers
    )


def to_postselected(
    program: LaqccProgram, transcript: MeasurementRecord
) -> Tuple[LaqccProgram, int]:
    """Unitary-only form whose flag qubit marks the transcript branch.

    Each measurement becomes an equality comparison against the
    transcript outcome written into a fresh ancilla; classical outputs
    are hardwired from the transcript; a terminal AND of all comparison
    bits lands in the returned flag qubit.
    """
    program.validate()
    by_label = {ev.label: ev for ev in transcript}
    env: Dict[str, Dict[str, int]] = {}
    flag_bits: List[int] = []
    next_qubit = program.num_qubits
    new_layers: List[Layer] = []
    for layer in program.layers:
        if isinstance(layer, MeasureLayer):
            ev = by_label[layer.label]
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
            env[layer.name] = layer.fn(
                {label: by_label[label].outcome for label in layer.reads}
            )
        else:
            apps = []
            for app in layer.apps:
                gate = _resolve(app, env)
                if gate is None:
                    continue
                apps.append(GateApp(gate, app.qubits))
            if apps:
                new_layers.append(QuantumLayer(tuple(apps)))
    flag = next_qubit
    next_qubit += 1

    if flag_bits:
        gate = _and_flags_factory(len(flag_bits))
        new_layers.append(
            QuantumLayer((GateApp(gate, tuple(flag_bits) + (flag,)),))
        )
    else:
        new_layers.append(
            QuantumLayer((GateApp(_set_flag_factory(), (flag,)),))
        )
    registers = dict(program.registers)
    registers["postselect_flags"] = Register(tuple(flag_bits), "ancilla")
    registers["postselect_flag"] = Register((flag,), "flag")
    return (
        LaqccProgram(next_qubit, registers, new_layers),
        flag,
    )


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
        program = LaqccProgram(
            self.num_qubits, dict(self.registers), list(self.layers)
        )
        program.validate()
        return program


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

GATE_REGISTRY: Dict[str, Callable[..., Gate]] = {}
CLASSICAL_REGISTRY: Dict[str, Callable[..., ClassicalLayer]] = {}


def register_gate(name: str):
    def deco(factory):
        GATE_REGISTRY[name] = factory
        return factory

    return deco


def register_classical(name: str):
    def deco(factory):
        CLASSICAL_REGISTRY[name] = factory
        return factory

    return deco


def _gate_from_spec(spec: dict) -> Gate:
    name = spec["name"]
    if name not in GATE_REGISTRY:
        raise ValueError(f"unknown gate {name!r}")
    return GATE_REGISTRY[name](**spec.get("params", {}))


def _gate_spec(gate: Gate) -> dict:
    """Serializable spec; dense matrices and small predicate tables are
    synthesized for gates without a registered macro spec."""
    if gate.spec is not None:
        return gate.spec
    if isinstance(gate, MatrixGate):
        return {
            "name": "matrix",
            "params": {
                "label": gate.name,
                "matrix": [
                    [[float(c.real), float(c.imag)] for c in row]
                    for row in np.asarray(gate.matrix)
                ],
            },
        }
    if (
        isinstance(gate, PredicatedGate)
        and gate.control_bits <= MAX_DEFER_INPUT_BITS
    ):
        return {
            "name": "predicated",
            "params": {
                "label": gate.name,
                "control_bits": gate.control_bits,
                "table": [
                    1 if gate.predicate(p) else 0
                    for p in range(1 << gate.control_bits)
                ],
                "gate": _gate_spec(gate.gate),
            },
        }
    raise ValueError(f"gate {gate.name} has no serializable spec")


@register_gate("transcript_equal")
def _transcript_equal_factory(bits: int, expected: int) -> "BasisMapGate":
    def eq(v, expected=expected):
        return (v ^ 1) if v >> 1 == expected else v

    return BasisMapGate(
        name=f"equal[{expected:0{bits}b}]",
        num_bits=bits + 1,
        fn=eq,
        inverse_fn=eq,
        spec={
            "name": "transcript_equal",
            "params": {"bits": bits, "expected": expected},
        },
    )


@register_gate("and_flags")
def _and_flags_factory(bits: int) -> "BasisMapGate":
    def all_ones(v, bits=bits):
        return (v ^ 1) if v >> 1 == (1 << bits) - 1 else v

    return BasisMapGate(
        name="and_flags",
        num_bits=bits + 1,
        fn=all_ones,
        inverse_fn=all_ones,
        spec={"name": "and_flags", "params": {"bits": bits}},
    )


@register_gate("set_flag")
def _set_flag_factory() -> "BasisMapGate":
    def flip(v):
        return v ^ 1

    return BasisMapGate(
        name="set_flag",
        num_bits=1,
        fn=flip,
        inverse_fn=flip,
        spec={"name": "set_flag", "params": {}},
    )


@register_gate("matrix")
def _matrix_gate_factory(label: str, matrix) -> "MatrixGate":
    m = np.array(
        [[complex(re, im) for re, im in row] for row in matrix]
    )
    return MatrixGate(label, m)


@register_gate("predicated")
def _predicated_gate_factory(
    label: str, control_bits: int, table, gate
) -> "PredicatedGate":
    inner = _gate_from_spec(gate)
    lookup = tuple(table)
    return PredicatedGate(
        label, control_bits, lambda p: lookup[p], inner
    )


def program_to_json(program: LaqccProgram) -> dict:
    program.validate()
    layers = []
    for layer in program.layers:
        if isinstance(layer, QuantumLayer):
            gates = []
            for app in layer.apps:
                entry = {
                    "gate": _gate_spec(app.gate),
                    "qubits": list(app.qubits),
                }
                if app.condition:
                    entry["condition"] = list(app.condition)
                gates.append(entry)
            layers.append({"kind": "quantum", "gates": gates})
        elif isinstance(layer, MeasureLayer):
            layers.append(
                {
                    "kind": "measure",
                    "qubits": list(layer.qubits),
                    "label": layer.label,
                }
            )
        else:
            if layer.spec is None:
                raise ValueError(
                    f"classical layer {layer.name} has no spec"
                )
            layers.append({"kind": "classical", **layer.spec})
    return {
        "qubits": program.num_qubits,
        "registers": {
            name: {"qubits": list(reg.qubits), "role": reg.role}
            for name, reg in program.registers.items()
        },
        "layers": layers,
    }


def program_from_json(doc: dict) -> LaqccProgram:
    registers = {
        name: Register(tuple(entry["qubits"]), entry["role"])
        for name, entry in doc.get("registers", {}).items()
    }
    layers: List[Layer] = []
    for entry in doc["layers"]:
        kind = entry["kind"]
        if kind == "quantum":
            apps = []
            for g in entry["gates"]:
                gate = _gate_from_spec(g["gate"])
                condition = tuple(g["condition"]) if "condition" in g else None
                apps.append(GateApp(gate, tuple(g["qubits"]), condition))
            layers.append(QuantumLayer(tuple(apps)))
        elif kind == "measure":
            layers.append(
                MeasureLayer(tuple(entry["qubits"]), entry["label"])
            )
        elif kind == "classical":
            name = entry["function_name"]
            if name not in CLASSICAL_REGISTRY:
                raise ValueError(f"unknown classical function {name!r}")
            layers.append(CLASSICAL_REGISTRY[name](**entry.get("params", {})))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    program = LaqccProgram(doc["qubits"], registers, layers)
    program.validate()
    return program


def dumps(program: LaqccProgram) -> str:
    return json.dumps(program_to_json(program), indent=2)


def loads(text: str) -> LaqccProgram:
    return program_from_json(json.loads(text))
