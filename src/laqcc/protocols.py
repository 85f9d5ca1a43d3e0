"""State-preparation protocols: bounded-range uniform superpositions,
W states, Dicke states (small-k pipeline and the all-k factoradic
pipeline), and the embedding of diagonal-gate sandwich circuits.

Every protocol returns ``(program, target)`` where the target is the
analytic state on the program's ``out`` register (register qubits read
most-significant-first).  All protocols leave every non-output register
in |0> on every feasible branch.
"""
from __future__ import annotations

import math
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from . import amplifier, charges
from . import macros as mc
from . import numbersys as ns
from . import program as pr
from . import sparse_state as ss
from .clifford import H_GATE, X_GATE
from .program import BasisMapGate, DiagonalGate, GateApp


class Fragment:
    """Recorded gate sequence usable as a builder target, replayable
    forwards or inverted (for reflections about the prepared state)."""

    def __init__(self):
        self.apps: List[GateApp] = []

    def gate(self, gate, qubits, condition=None) -> None:
        if condition is not None:
            raise ValueError("fragments are unconditional")
        self.apps.append(GateApp(gate, tuple(qubits)))

    def emit(self, builder) -> None:
        for app in self.apps:
            builder.gate(app.gate, app.qubits)

    def emit_inverse(self, builder) -> None:
        for app in reversed(self.apps):
            builder.gate(pr.inverse_gate(app.gate), app.qubits)


def index_width(q: int) -> int:
    return max(1, math.ceil(math.log2(q)))


def uniform_fragment(register: Sequence[int], q: int, flag: int) -> Fragment:
    """Fragment loading (1/sqrt q) sum_{i<q} |i> onto ``register``."""
    register = tuple(register)
    n = len(register)
    if not 1 <= q <= 1 << n:
        raise ValueError("range does not fit the register")
    fragment = Fragment()
    if q == 1:
        return fragment
    base = Fragment()
    for qubit in register:
        base.gate(H_GATE, (qubit,))
    base.emit(fragment)
    plan = amplifier.plan(1 << n, q)
    if plan.J:
        oracle = mc.less_than(n, q)
        amplifier.amplify(
            fragment,
            register,
            flag,
            base.emit,
            base.emit_inverse,
            oracle,
            register,
            plan,
        )
    return fragment


def uniform_target(q: int) -> ss.SparseState:
    return ss.from_arrays(
        index_width(q), np.arange(q), np.full(q, 1 / math.sqrt(q), complex)
    )


def uniform_superposition(
    q: int,
) -> Tuple[pr.LaqccProgram, ss.SparseState]:
    if q < 1:
        raise ValueError("need q >= 1")
    builder = pr.Builder()
    register = builder.alloc("out", index_width(q), "index")
    (flag,) = builder.alloc("flag", 1, "flag")
    fragment = uniform_fragment(register, q, flag)
    fragment.emit(builder)
    return builder.build(), uniform_target(q)


# --------------------------------------------------------------------------
# W state
# --------------------------------------------------------------------------


@pr.register_gate("uncompress")
def uncompress_gate(n: int, b: int) -> BasisMapGate:
    """|i>|s> -> |i>|s xor e_i> on the index + system registers."""

    def fn(v: np.ndarray) -> np.ndarray:
        i = v >> n
        hit = (i < n).astype(v.dtype)
        return v ^ (hit << np.where(i < n, n - 1 - i, 0))

    return BasisMapGate(
        name=f"uncompress{n}",
        num_bits=b + n,
        fn=fn,
        inverse_fn=fn,
        charge=charges.charge("fanout", n * b)
        + n * charges.charge("equal", b),
    )


@pr.register_gate("compress_phase")
def compress_phase_gate(n: int, b: int) -> DiagonalGate:
    """(-1)^{<j, i(s)>} on |j>|s> for one-hot s = e_{i(s)}."""

    def phase(v: np.ndarray) -> np.ndarray:
        j, s = v >> n, v & ((1 << n) - 1)
        one_hot = ns.popcount(s) == 1
        # s = e_i is bit n-1-i, so s - 1 sets the n-1-i bits below it
        i = (n - 1) - ns.popcount(np.where(one_hot, s - 1, 0))
        odd = ns.popcount(i & j) & 1 == 1
        return np.where(one_hot & odd, -1.0, 1.0)

    return DiagonalGate(
        name=f"compress_phase{n}",
        num_bits=b + n,
        phase_fn=phase,
        charge=charges.charge("parallelize", n * b),
    )


def w_target(n: int) -> ss.SparseState:
    amp = 1 / math.sqrt(n)
    return ss.from_amplitudes(
        n, [(1 << (n - 1 - i), amp) for i in range(n)]
    )


def w_state(n: int) -> Tuple[pr.LaqccProgram, ss.SparseState]:
    if n < 2:
        raise ValueError("need n >= 2")
    b = index_width(n)
    builder = pr.Builder()
    system = builder.alloc("out", n, "system")
    index = builder.alloc("index", b, "index")
    (flag,) = builder.alloc("flag", 1, "flag")
    fragment = uniform_fragment(index, n, flag)
    fragment.emit(builder)
    builder.gate(uncompress_gate(n, b), index + system)
    builder.layer(*(GateApp(H_GATE, (q,)) for q in index))
    builder.gate(compress_phase_gate(n, b), index + system)
    builder.layer(*(GateApp(H_GATE, (q,)) for q in index))
    return builder.build(), w_target(n)


def w_layout(n: int) -> pr.GridLayout:
    """Row per system qubit; index/flag qubits in the spare columns."""
    b = index_width(n)
    coords = {}
    for i in range(n):
        coords[i] = (i, 0)
    for pos, q in enumerate(range(n, n + b)):
        coords[q] = (pos, 1)
    coords[n + b] = (b, 1)
    return pr.GridLayout(coords)


# --------------------------------------------------------------------------
# Dicke states
# --------------------------------------------------------------------------


def dicke_target(n: int, k: int) -> ss.SparseState:
    amp = 1 / math.sqrt(math.comb(n, k))
    entries = []
    for pos in combinations(range(n), k):
        entries.append((sum(1 << p for p in pos), amp))
    return ss.from_amplitudes(n, entries)


def small_k_policy_bound(n: int) -> int:
    return math.ceil(math.sqrt(n))


def filling_fragment(
    indexes: Sequence[Sequence[int]],
    system: Sequence[int],
    flag: int,
    n: int,
) -> Fragment:
    """Load k index registers uniformly over 0..n-1 and XOR their
    one-hot patterns into the system register."""
    fragment = Fragment()
    for reg in indexes:
        sub = uniform_fragment(reg, n, flag)
        sub.emit(fragment)
    for q in system:
        fragment.gate(H_GATE, (q,))
    kick = filling_kick_gate(n, len(indexes[0]))
    for reg in indexes:
        fragment.gate(kick, tuple(reg) + tuple(system))
    for q in system:
        fragment.gate(H_GATE, (q,))
    return fragment


@pr.register_gate("filling_kick")
def filling_kick_gate(n: int, b: int) -> DiagonalGate:
    """(-1)^{s_i} on |i>|s> for i < n, with system bit i at s's bit
    n-1-i.  H on the system qubits turns Z on system qubit i into X,
    so its Hadamard dual there is :func:`uncompress_gate`."""

    def kick_phase(v: np.ndarray) -> np.ndarray:
        i = v >> n
        kicked = (v >> np.where(i < n, n - 1 - i, 0)) & 1 == 1
        return np.where((i < n) & kicked, -1.0, 1.0)

    return DiagonalGate(
        "filling_kick", b + n, kick_phase,
        charge=charges.charge("parallelize", n),
        hadamard_dual=(tuple(range(b, b + n)), uncompress_gate(n, b)),
    )


def _ranked_positions(v: np.ndarray, n: int, k: int):
    """For patterns of k b-bit registers over an n-bit system word s:
    where s has exactly k ones, and for each position i (ascending) with
    bit n-1-i of s set, which rows take it as their l-th smallest (as
    ``(i, takes, l)``, l in the dtype of ``v``)."""
    s = v & ((1 << n) - 1)
    full = ns.popcount(s) == k
    seen = np.zeros_like(v)  # set positions so far
    ranked = []
    for i in range(n):
        takes = full & ((s >> (n - 1 - i)) & 1 == 1)
        ranked.append((i, takes, np.where(takes, seen, 0)))
        seen = seen + takes.astype(v.dtype)
    return ranked


def _cleaning_charge(n: int, k: int, b: int) -> float:
    return k * charges.charge("hammingweight", n) + charges.charge(
        "parallelize", n * b
    )


@pr.register_gate("cleaning")
def cleaning_gate(n: int, k: int, b: int) -> BasisMapGate:
    """Uncompute sorted index registers from the system pattern:
    register l ^= (l-th smallest set position of s)."""

    def fn(v: np.ndarray) -> np.ndarray:
        # register l ^= its position i, at bit (k-1-l)*b of the registers
        out = v
        for i, takes, l in _ranked_positions(v, n, k):
            shift = np.where(takes, (k - 1 - l) * b + n, 0)
            out = out ^ (takes.astype(v.dtype) * i << shift)
        return out

    return BasisMapGate(
        name=f"cleaning{n},{k}",
        num_bits=k * b + n,
        fn=fn,
        inverse_fn=fn,
        charge=_cleaning_charge(n, k, b),
    )


@pr.register_gate("cleaning_phase")
def cleaning_phase_gate(n: int, k: int, b: int) -> DiagonalGate:
    """(-1)^{sum_l <j_l, pos_l(s)>} on |j_0..j_{k-1}>|s>, where pos_l(s)
    is the l-th smallest set position of s (1 unless s has k ones).  H
    on the index qubits turns (-1)^{<j_l, i>} into j_l ^= i, so its
    Hadamard dual there is :func:`cleaning_gate`."""

    def phase(v: np.ndarray) -> np.ndarray:
        parity = np.zeros_like(v)
        for i, takes, l in _ranked_positions(v, n, k):
            j = (v >> ((k - 1 - l) * b + n)) & ((1 << b) - 1)
            parity = parity ^ (ns.popcount(j & i) & takes.astype(v.dtype))
        return np.where(parity & 1 == 1, -1.0, 1.0)

    return DiagonalGate(
        "cleaning_phase", k * b + n, phase, charge=_cleaning_charge(n, k, b),
        hadamard_dual=(tuple(range(k * b)), cleaning_gate(n, k, b)),
    )


def cleaning_gadget_layers(
    indexes: Sequence[Sequence[int]], system: Sequence[int], n: int
) -> List[pr.QuantumLayer]:
    """Phase-trick variant of cleaning: Hadamards around
    :func:`cleaning_phase_gate`, equal as an operator to
    :func:`cleaning_gate`, its Hadamard dual."""
    index_qubits = tuple(q for reg in indexes for q in reg)
    hadamards = pr.QuantumLayer(
        tuple(GateApp(H_GATE, (q,)) for q in index_qubits)
    )
    phase = cleaning_phase_gate(n, len(indexes), len(indexes[0]))
    return [
        hadamards,
        pr.QuantumLayer((GateApp(phase, index_qubits + tuple(system)),)),
        hadamards,
    ]


@pr.register_gate("sort_by_ranks")
def sort_by_ranks(k: int, b: int) -> BasisMapGate:
    """On k rank registers then k b-bit index registers: where the ranks
    ``r`` are a permutation of 0..k-1, move index register l to place
    ``r_l``; leave the indexes where they are on any other rank word."""
    rw = mc.count_register_width(k - 1)

    def move(v: np.ndarray, forward: bool) -> np.ndarray:
        ranks = [(v >> ((k - 1 - l) * rw + k * b)) & ((1 << rw) - 1)
                 for l in range(k)]
        seen = 0
        for r in ranks:
            seen = seen | (1 << r)
        # k ranks set all k low bits only when they are 0..k-1 once each
        valid = seen == (1 << k) - 1
        out = v >> (k * b) << (k * b)
        for l, r in enumerate(ranks):
            place = np.where(valid, r, l)
            src, dst = (l, place) if forward else (place, l)
            out = out | (((v >> (k - 1 - src) * b) & ((1 << b) - 1))
                         << (k - 1 - dst) * b)
        return out

    return BasisMapGate(
        "sort_by_ranks", k * rw + k * b, lambda v: move(v, True),
        lambda v: move(v, False),
        charge=charges.charge("permutation", k * b),
    )


def dicke_small_k(
    n: int, k: int
) -> Tuple[pr.LaqccProgram, ss.SparseState]:
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= k <= n:  # no protocol prepares it, so none is suggested
        raise ValueError("need 0 <= k <= n")
    if not 1 <= k <= small_k_policy_bound(n):
        raise ValueError(
            f"k={k} outside the small-k policy bound "
            f"ceil(sqrt({n})) = {small_k_policy_bound(n)}; "
            f"use the factoradic protocol"
        )
    b = index_width(n)
    builder = pr.Builder()
    system = builder.alloc("out", n, "system")
    indexes = [
        builder.alloc(f"index{l}", b, "index") for l in range(k)
    ]
    (flag,) = builder.alloc("flag", 1, "flag")

    # Filling + zero-failure Filtering
    fill = filling_fragment(indexes, system, flag, n)
    fill.emit(builder)
    plan = amplifier.plan(n**k, math.perm(n, k))
    oracle = mc.exact_t(n, k)
    reflect = tuple(q for reg in indexes for q in reg) + system
    amplifier.amplify(
        builder,
        reflect,
        flag,
        fill.emit,
        fill.emit_inverse,
        oracle,
        system,
        plan,
    )

    # Ordering: sort the (distinct) index registers by one feed-forward
    # round on their rank registers
    if k > 1:
        rw = mc.count_register_width(k - 1)
        compare = [
            builder.alloc(f"cmp{l}", k - 1, "ancilla") for l in range(k)
        ]
        ranks = [
            builder.alloc(f"rank{l}", rw, "ancilla") for l in range(k)
        ]
        gt = mc.greaterthan(b)
        for l in range(k):
            others = [m for m in range(k) if m != l]
            for slot, m in enumerate(others):
                builder.gate(
                    gt, indexes[l] + indexes[m] + (compare[l][slot],)
                )
        hw = mc.hammingweight(k - 1)
        for l in range(k):
            builder.gate(hw, compare[l] + ranks[l])
        rank_qubits = tuple(q for reg in ranks for q in reg)
        builder.measure(rank_qubits, "ranks")
        # one bit per measured rank qubit, to reset it
        builder.classical(pr.linear("ordering", "ranks", {
            f"reset{l}_{pos}": 1 << (len(rank_qubits) - 1 - l * rw - pos)
            for l in range(k)
            for pos in range(rw)
        }))
        # uncompute the comparison bits (index registers untouched)
        for l in range(k):
            others = [m for m in range(k) if m != l]
            for slot, m in enumerate(others):
                builder.gate(
                    gt, indexes[l] + indexes[m] + (compare[l][slot],)
                )
        # each branch holds its measured ranks, so a basis map controlled
        # by them sorts every branch by its own ranks
        index_qubits = tuple(q for reg in indexes for q in reg)
        builder.gate(sort_by_ranks(k, b), rank_qubits + index_qubits)
        builder.layer(
            *(
                GateApp(
                    X_GATE,
                    (ranks[l][pos],),
                    ("ordering", f"reset{l}_{pos}"),
                )
                for l in range(k)
                for pos in range(rw)
            )
        )

    # Cleaning: gadget form at small n, its Hadamard dual (the same
    # operator) above
    if n <= 4:
        for layer in cleaning_gadget_layers(indexes, system, n):
            builder.layers.append(layer)
    else:
        builder.gate(
            cleaning_gate(n, k, b),
            tuple(q for reg in indexes for q in reg) + system,
        )
    return builder.build(), dicke_target(n, k)


# --------------------------------------------------------------------------
# Dicke via factoradics
# --------------------------------------------------------------------------


def _digit_widths(length: int) -> List[int]:
    """Register widths for digits j = length-1 .. 1 (digit 0 is fixed)."""
    return [index_width(j + 1) for j in range(length - 1, 0, -1)]


def _decode_digits(v: np.ndarray, length: int) -> np.ndarray:
    """The (N, length) digits of the length-factoradics packed in ``v``
    with :func:`_digit_widths`, the fixed digit 0 last."""
    digits = np.zeros((len(v), length), np.int64)
    shift = sum(_digit_widths(length))
    for pos, w in enumerate(_digit_widths(length)):
        shift -= w
        digits[:, pos] = (v >> shift) & ((1 << w) - 1)
    return digits


def _encode_digits(digits: np.ndarray, widths: Sequence[int], dtype):
    """Pack each row of ``digits`` with ``widths``, dropping digit 0."""
    v = np.zeros(len(digits), dtype)
    for pos, w in enumerate(widths):
        v = (v << w) | digits[:, pos].astype(dtype)
    return v


def _valid_fac(digits: np.ndarray) -> np.ndarray:
    """Which rows of an (N, n) digit array are factoradics."""
    return (digits <= np.arange(digits.shape[1] - 1, -1, -1)).all(axis=1)


def _or_zero(valid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` with every invalid row set to zeros."""
    return np.where(valid[:, None], rows, 0)


@pr.register_gate("fac_to_comb")
def fac_to_comb_gate(n: int, k: int) -> BasisMapGate:
    """s ^= A(y) on |y>|s>: the weight-k string of the n-factoradic y."""
    yw = _digit_widths(n)

    def fn(v: np.ndarray) -> np.ndarray:
        y = _decode_digits(v >> n, n)
        valid = _valid_fac(y)
        bits = ns.fac_to_comb_array(_or_zero(valid, y), k)
        image = _encode_digits(bits, [1] * n, v.dtype)
        return v ^ np.where(valid, image, 0)

    return BasisMapGate(
        "fac_to_comb", sum(yw) + n, fn, fn,
        charge=charges.charge("threshold", n, k),
    )


@pr.register_gate("split_zo")
def split_zo_gate(n: int, k: int) -> BasisMapGate:
    """(z, o) ^= (Z(y), O(y)) on |y>|z>|o>: functions of y alone."""
    yw, zw, ow = _digit_widths(n), _digit_widths(n - k), _digit_widths(k)
    zb, ob = sum(zw), sum(ow)

    def fn(v: np.ndarray) -> np.ndarray:
        y = _decode_digits(v >> (zb + ob), n)
        valid = _valid_fac(y)
        _, z, o = ns.fac_decompose_array(_or_zero(valid, y), k)
        zo = (_encode_digits(z, zw, v.dtype) << ob) | _encode_digits(
            o, ow, v.dtype)
        return v ^ np.where(valid, zo, 0)

    return BasisMapGate(
        "split_zo", sum(yw) + zb + ob, fn, fn,
        charge=charges.charge("threshold", n, max(k, 1)),
    )


@pr.register_gate("comb_to_fac")
def comb_to_fac_gate(n: int, k: int) -> BasisMapGate:
    """y ^= comb_to_fac(s, z, o) on |y>|s>|z>|o>: zeroes y."""
    yw, zw, ow = _digit_widths(n), _digit_widths(n - k), _digit_widths(k)
    zb, ob = sum(zw), sum(ow)
    weight_k = np.array([1] * k + [0] * (n - k))  # stands in for bad rows

    def fn(v: np.ndarray) -> np.ndarray:
        s = (v >> (zb + ob)) & ((1 << n) - 1)
        bits = np.stack(
            [((s >> (n - 1 - i)) & 1).astype(np.int64) for i in range(n)],
            axis=1,
        )
        z = _decode_digits(v >> ob, n - k)
        o = _decode_digits(v, k)
        valid = (ns.popcount(s) == k) & _valid_fac(z) & _valid_fac(o)
        y = ns.comb_to_fac_array(
            np.where(valid[:, None], bits, weight_k),
            _or_zero(valid, z), _or_zero(valid, o),
        )
        image = _encode_digits(y, yw, v.dtype) << (n + zb + ob)
        return v ^ np.where(valid, image, 0)

    return BasisMapGate(
        "comb_to_fac", sum(yw) + n + zb + ob, fn, fn,
        charge=charges.charge("threshold", n, max(k, 1)),
    )


def dicke_factoradic(
    n: int, k: int
) -> Tuple[pr.LaqccProgram, ss.SparseState]:
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n < 1:
        raise ValueError("need n >= 1")
    yw = _digit_widths(n)
    zw = _digit_widths(n - k)
    ow = _digit_widths(k)
    builder = pr.Builder()
    system = builder.alloc("out", n, "system")
    y_regs = [
        builder.alloc(f"y{j}", w, "index")
        for j, w in zip(range(n - 1, 0, -1), yw)
    ]
    z_regs = [
        builder.alloc(f"z{j}", w, "ancilla")
        for j, w in zip(range(n - k - 1, 0, -1), zw)
    ]
    o_regs = [
        builder.alloc(f"o{j}", w, "ancilla")
        for j, w in zip(range(k - 1, 0, -1), ow)
    ]
    (flag,) = builder.alloc("flag", 1, "flag")
    y_qubits = tuple(q for reg in y_regs for q in reg)
    z_qubits = tuple(q for reg in z_regs for q in reg)
    o_qubits = tuple(q for reg in o_regs for q in reg)

    # (1) uniform superposition over all n-factoradics
    for reg, j in zip(y_regs, range(n - 1, 0, -1)):
        frag = uniform_fragment(reg, j + 1, flag)
        frag.emit(builder)

    builder.gate(fac_to_comb_gate(n, k), y_qubits + system)
    if z_qubits or o_qubits:
        builder.gate(split_zo_gate(n, k), y_qubits + z_qubits + o_qubits)
    builder.gate(
        comb_to_fac_gate(n, k), y_qubits + system + z_qubits + o_qubits
    )

    # (5) unload the now-uniform z and o registers back to |0>
    for reg, j in zip(z_regs, range(n - k - 1, 0, -1)):
        frag = uniform_fragment(reg, j + 1, flag)
        frag.emit_inverse(builder)
    for reg, j in zip(o_regs, range(k - 1, 0, -1)):
        frag = uniform_fragment(reg, j + 1, flag)
        frag.emit_inverse(builder)
    return builder.build(), dicke_target(n, k)


# --------------------------------------------------------------------------
# Diagonal-circuit embedding
# --------------------------------------------------------------------------


def lift_diagonal(
    diag: np.ndarray, support: Sequence[int], n: int
) -> np.ndarray:
    """Full n-qubit diagonal from a gate diagonal on ``support``
    (support[0] most significant).

    The gate is its table of 2^len(support) unit phases or a diagonal
    matrix; the support is distinct qubits of range(n).  Anything else
    raises ``ValueError``."""
    table = np.asarray(diag, dtype=complex)
    if table.ndim == 2:
        if table.shape[0] != table.shape[1] or not np.allclose(
                table, np.diag(np.diag(table)), atol=1e-9):
            raise ValueError("gate is not diagonal")
        table = np.diag(table)
    k = len(support)
    if table.shape != (1 << k,):
        raise ValueError(f"a gate on {k} qubits needs a table of {1 << k}"
                         f" phases, got shape {table.shape}")
    if len(set(support)) != k or not set(support) <= set(range(n)):
        raise ValueError(f"support {tuple(support)} is not distinct qubits"
                         f" of range({n})")
    if not np.all(np.abs(np.abs(table) - 1.0) <= 1e-9):
        raise ValueError("phase factor must have unit modulus")
    v = np.arange(1 << n)
    idx = np.zeros(1 << n, dtype=v.dtype)
    for q in support:
        idx = (idx << 1) | ((v >> q) & 1)
    return table[idx]


def iqp_to_laqcc(
    diag_gates: Sequence[Tuple[np.ndarray, Tuple[int, ...]]], n: int
) -> pr.LaqccProgram:
    """Hadamard sandwich around parallelized commuting diagonal gates,
    with a terminal measurement of the system register."""
    lifted = [lift_diagonal(diag, support, n) for diag, support in diag_gates]
    builder = pr.Builder()
    system = builder.alloc("out", n, "system")
    builder.layer(*(GateApp(H_GATE, (q,)) for q in system))
    if lifted:
        layers, total = mc.parallelize_commuting(lifted)
        extra = total - n
        if extra:
            builder.alloc("copies", extra, "ancilla")
        builder.layers.extend(layers)
    builder.layer(*(GateApp(H_GATE, (q,)) for q in system))
    # outcome bit i of the report equals qubit i: list msb (qubit n-1) first
    builder.measure(tuple(reversed(system)), "output")
    return builder.build()


def iqp_direct_distribution(
    diag_gates: Sequence[Tuple[np.ndarray, Tuple[int, ...]]], n: int
) -> np.ndarray:
    """Dense reference distribution of the diagonal sandwich, indexed by
    outcome: a 2^n vector, with H on each qubit as one butterfly."""
    dim = 1 << n
    state = np.full(dim, 1 / math.sqrt(dim), dtype=complex)
    for diag, support in diag_gates:
        state = state * lift_diagonal(diag, support, n)
    for q in range(n):
        pair = state.reshape(-1, 2, 1 << q)
        state = np.stack((pair[:, 0] + pair[:, 1], pair[:, 0] - pair[:, 1]),
                         axis=1).ravel() / math.sqrt(2)
    return np.abs(state) ** 2


def max_support(
    program: pr.LaqccProgram, policy=None
) -> int:
    """Largest number of simultaneously-live basis states in one shot."""
    peak = 1

    def observe(state: ss.SparseState) -> None:
        nonlocal peak
        peak = max(peak, state.support())

    pr.execute(program, policy or pr.SeededPolicy(0), observer=observe)
    return peak
