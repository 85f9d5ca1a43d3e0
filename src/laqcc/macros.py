"""Gate macro library: fanout, logic, arithmetic, counting, QFT,
permutations, and commuting-gate parallelization.

Classical-reversible macros run as basis-permutation gates whose extra
ancilla cost is charged analytically (see :mod:`laqcc.charges`); fanout
and commuting-gate parallelization additionally ship a measurement-based
gadget backend built from flattened Clifford ladders, so the two routes
can be compared branch by branch.

Bit conventions: a gate's qubit list is most-significant-first, and
registers passed as qubit tuples follow the same order.  Every gate
function takes the array of distinct bit patterns (``int64``, or Python
ints in an ``object`` array past 62 bits) and returns its images, phases
or flags as one array.
"""
from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import charges, clifford as cl, program as pr
from .numbersys import popcount
from .program import BasisMapGate, DiagonalGate, GateApp, MatrixGate


# --------------------------------------------------------------------------
# Fanout
# --------------------------------------------------------------------------


@pr.register_gate("fanout")
def fanout(num_targets: int) -> BasisMapGate:
    """|x>|y_1..y_m> -> |x>|y_1^x .. y_m^x>; control is the first qubit."""
    if num_targets < 1:
        raise ValueError("need at least one target")
    m = num_targets

    def fn(v: np.ndarray) -> np.ndarray:
        return v ^ ((v >> m) & 1) * ((1 << m) - 1)

    return BasisMapGate(
        name=f"fanout{m}",
        num_bits=m + 1,
        fn=fn,
        inverse_fn=fn,
        charge=charges.charge("fanout", m + 1),
    )


def fanout_gadget(num_targets: int) -> pr.LaqccProgram:
    """Measurement-based fanout: a flattened ladder of CNOT+SWAP steps.

    Wire 0 carries the control; wires 1..m the targets.  After the
    cyclic hand-off the program's ``fanout_out`` register lists the
    output carriers as (control, target_1, ..., target_m).
    """
    m = num_targets
    gates: List[cl.CliffordGate] = []
    for i in range(m):
        gates.append(cl.CliffordGate("CNOT", (i, i + 1)))  # control low wire
        gates.append(cl.CliffordGate("SWAP", (i, i + 1)))
    circuit = cl.CliffordCircuit("ladder", m + 1, 1, tuple(gates))
    program = cl.flatten_ladder(circuit)
    outs = program.registers["outputs"].qubits
    # wire w < m ends holding target w+1; wire m ends holding the control
    reordered = (outs[m],) + tuple(outs[:m])
    return pr.LaqccProgram(
        program.num_qubits,
        {
            "workspace": program.registers["workspace"],
            "fanout_out": pr.Register(reordered, "system"),
        },
        program.layers,
    )


# --------------------------------------------------------------------------
# Boolean logic
# --------------------------------------------------------------------------


def _flip_where(v: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Each pattern with its last bit flipped where ``hit`` is true."""
    return v ^ hit.astype(v.dtype)


def _flag_gate(
    name: str,
    num_inputs: int,
    predicate: Callable[[np.ndarray], np.ndarray],
    charge_name: str,
    *charge_args: int,
) -> BasisMapGate:
    """Flip the trailing flag qubit iff predicate(inputs), a boolean array;
    the charge is ``charge(charge_name, *charge_args)``, by default of
    ``num_inputs``."""

    def fn(v: np.ndarray) -> np.ndarray:
        return _flip_where(v, predicate(v >> 1))

    return BasisMapGate(
        name=name,
        num_bits=num_inputs + 1,
        fn=fn,
        inverse_fn=fn,
        charge=charges.charge(charge_name, *(charge_args or (num_inputs,))),
    )


@pr.register_gate("or")
def or_n(n: int) -> BasisMapGate:
    return _flag_gate(f"or{n}", n, lambda x: x != 0, "or")


@pr.register_gate("and")
def and_n(n: int) -> BasisMapGate:
    return _flag_gate(f"and{n}", n, lambda x: x == (1 << n) - 1, "and")


@pr.register_gate("equal")
def equal_i(n: int, j: int) -> BasisMapGate:
    return _flag_gate(f"equal{n}[{j}]", n, lambda x: x == j, "equal")


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------


@pr.register_gate("add")
def add_n(n: int) -> BasisMapGate:
    """|x>|y> -> |x>|y + x mod 2^n>; x is the leading register."""
    mask = (1 << n) - 1

    def fn(v: np.ndarray) -> np.ndarray:
        x, y = v >> n, v & mask
        return (x << n) | ((y + x) & mask)

    def inv(v: np.ndarray) -> np.ndarray:
        x, y = v >> n, v & mask
        return (x << n) | ((y - x) & mask)

    return BasisMapGate(
        name=f"add{n}",
        num_bits=2 * n,
        fn=fn,
        inverse_fn=inv,
        charge=charges.charge("add", n),
    )


@pr.register_gate("equality")
def equality(n: int) -> BasisMapGate:
    """|x>|y>|f> -> flip f iff x = y."""
    mask = (1 << n) - 1

    def fn(v: np.ndarray) -> np.ndarray:
        x, y = (v >> (n + 1)) & mask, (v >> 1) & mask
        return _flip_where(v, x == y)

    return BasisMapGate(
        name=f"equality{n}",
        num_bits=2 * n + 1,
        fn=fn,
        inverse_fn=fn,
        charge=charges.charge("equality", n),
    )


@pr.register_gate("lessthan")
def less_than(n: int, q: int) -> BasisMapGate:
    """|v>|f> -> flip f iff v < q; the comparator behind bounded-range
    uniform loads."""
    return _flag_gate(
        f"lessthan{n}[{q}]", n, lambda x: x < q, "greaterthan", n + 1
    )


@pr.register_gate("greaterthan")
def greaterthan(n: int) -> BasisMapGate:
    """|x>|y>|f> -> flip f iff x > y (one extra sign bit charged)."""
    mask = (1 << n) - 1

    def fn(v: np.ndarray) -> np.ndarray:
        x, y = (v >> (n + 1)) & mask, (v >> 1) & mask
        return _flip_where(v, x > y)

    return BasisMapGate(
        name=f"greaterthan{n}",
        num_bits=2 * n + 1,
        fn=fn,
        inverse_fn=fn,
        charge=charges.charge("greaterthan", n + 1),
    )


# --------------------------------------------------------------------------
# Counting
# --------------------------------------------------------------------------


def count_register_width(n: int) -> int:
    return max(1, math.ceil(math.log2(n + 1)))


@pr.register_gate("hammingweight")
def hammingweight(n: int) -> BasisMapGate:
    """|x>|c> -> |x>|c xor wt(x)> with a ceil(log2(n+1))-bit counter."""
    w = count_register_width(n)

    def fn(v: np.ndarray) -> np.ndarray:
        return v ^ popcount(v >> w)

    return BasisMapGate(
        name=f"hammingweight{n}",
        num_bits=n + w,
        fn=fn,
        inverse_fn=fn,
        charge=charges.charge("hammingweight", n),
    )


@pr.register_gate("exact")
def exact_t(n: int, t: int) -> BasisMapGate:
    return _flag_gate(
        f"exact{n}[{t}]", n, lambda x: popcount(x) == t, "exact"
    )


@pr.register_gate("threshold")
def threshold_t(
    n: int, t: int, weights: Sequence[int] | None = None
) -> BasisMapGate:
    """Flip the flag iff at least t inputs are set or, with ``weights``,
    iff sum of w_i x_i >= t; integer weights only."""
    if weights is None:
        return _flag_gate(
            f"threshold{n}[{t}]", n, lambda x: popcount(x) >= t,
            "threshold", n, t,
        )
    if any(not isinstance(w, int) for w in weights) or len(weights) != n:
        raise ValueError(f"weights must be {n} integers")

    def total(x: np.ndarray) -> np.ndarray:
        return sum(
            (((x >> (n - 1 - i)) & 1) * w for i, w in enumerate(weights)),
            np.zeros_like(x),
        )

    return _flag_gate(
        f"wthreshold{n}[{t}]", n, lambda x: total(x) >= t, "threshold", n, t
    )


def weighted_threshold(weights: Sequence[int], t: int) -> BasisMapGate:
    return threshold_t(len(weights), t, list(weights))


# --------------------------------------------------------------------------
# QFT
# --------------------------------------------------------------------------


@pr.register_gate("qft")
def qft(n: int) -> MatrixGate:
    dim = 1 << n
    omega = np.exp(2j * np.pi / dim)
    matrix = np.array(
        [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
    ) / math.sqrt(dim)
    return MatrixGate(f"qft{n}", matrix, charges.charge("qft", n))


# --------------------------------------------------------------------------
# Permutation
# --------------------------------------------------------------------------


@pr.register_gate("permutation")
def permutation(perm: Sequence[int]) -> BasisMapGate:
    """Relabel wires: output bit i (msb-first) takes input bit perm[i]."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i

    def apply(p: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
        def fn(v: np.ndarray) -> np.ndarray:
            out = np.zeros_like(v)
            for i in range(n):
                out = (out << 1) | ((v >> (n - 1 - p[i])) & 1)
            return out

        return fn

    return BasisMapGate(
        name=f"perm{tuple(perm)}",
        num_bits=n,
        fn=apply(perm),
        inverse_fn=apply(inv),
        charge=charges.charge("permutation", n),
    )


# --------------------------------------------------------------------------
# Commuting-gate parallelization
# --------------------------------------------------------------------------


def _diagonal_gate(label: str, phases: np.ndarray, **charge) -> DiagonalGate:
    """The registered ``diagonal`` gate with these complex phases."""
    return pr.diagonal(
        label, [[float(z.real), float(z.imag)] for z in phases], **charge
    )


def product_diagonal(
    diagonals: Sequence[np.ndarray], k: int
) -> DiagonalGate:
    """Single diagonal gate equal to the product of commuting diagonals."""
    total = np.ones(1 << k, dtype=complex)
    for d in diagonals:
        total = total * d
    return _diagonal_gate(
        "diag_product", total,
        charge=charges.charge("parallelize", k * max(1, len(diagonals))),
    )


def parallelize_commuting(
    diagonals: Sequence[np.ndarray],
) -> Tuple[List[object], int]:
    """Fragment layers equal to the product of commuting diagonal gates
    on a shared k-qubit register, built from fanout copies.

    Each gate is its 1-D table of 2^k phases, as for
    :func:`product_diagonal`; gates diagonal in another basis T commute
    too, and the caller puts T before the layers and T^dagger after them.
    Returns (layers, total_qubits).  Qubits 0..k-1 (listed most
    significant first as (k-1..0)) form the shared register; qubits
    k..k + (m-1)k - 1 are the copy ancillas, restored to zero.
    """
    tables = [np.asarray(d, dtype=complex) for d in diagonals]
    if not tables:
        raise ValueError("need at least one gate")
    if any(t.ndim != 1 or t.shape != tables[0].shape for t in tables):
        raise ValueError("gates must be 1-D phase tables of one length")
    k = int(round(math.log2(len(tables[0]))))
    m = len(tables)
    shared = tuple(range(k - 1, -1, -1))  # msb-first
    total = k + (m - 1) * k
    copies = [shared] + [
        tuple(range(k + (c - 1) * k + k - 1, k + (c - 1) * k - 1, -1))
        for c in range(1, m)
    ]
    fan_layers = []
    if m > 1:
        fan = fanout(m - 1)
        # copy shared bit b into the b-th bit of every ancilla block, and
        # the same layer again to restore the ancillas
        fan_layers.append(pr.QuantumLayer(tuple(
            GateApp(fan, (shared[b],) + tuple(c[b] for c in copies[1:]))
            for b in range(k)
        )))
    diag_layer = pr.QuantumLayer(tuple(
        GateApp(_diagonal_gate(f"diag{c}", table), copies[c])
        for c, table in enumerate(tables)
    ))
    return fan_layers + [diag_layer] + fan_layers, total
