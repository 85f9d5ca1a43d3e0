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
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import amplifier, charges
from . import macros as mc
from . import numbersys as ns
from . import program as pr
from . import sparse_state as ss
from .program import BasisMapGate, DiagonalGate, GateApp, MatrixGate

HGATE = MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))


class Fragment:
    """Recorded gate sequence usable as a builder target, replayable
    forwards or inverted (for reflections about the prepared state)."""

    def __init__(self):
        self.apps: List[GateApp] = []

    def gate(self, gate, qubits, condition=None) -> None:
        if condition is not None:
            raise ValueError("fragments are unconditional")
        self.apps.append(GateApp(gate, tuple(qubits)))

    def layer(self, *apps: GateApp) -> None:
        self.apps.extend(apps)

    def emit(self, builder) -> None:
        for app in self.apps:
            builder.gate(app.gate, app.qubits)

    def emit_inverse(self, builder) -> None:
        for app in reversed(self.apps):
            builder.gate(app.gate.inverse(), app.qubits)


def index_width(q: int) -> int:
    return max(1, math.ceil(math.log2(q)))


def uniform_fragment(
    register: Sequence[int], q: int, flag: int
) -> Tuple[Fragment, amplifier.AmplificationPlan]:
    """Fragment loading (1/sqrt q) sum_{i<q} |i> onto ``register``."""
    register = tuple(register)
    n = len(register)
    if not 1 <= q <= 1 << n:
        raise ValueError("range does not fit the register")
    fragment = Fragment()
    if q == 1:
        return fragment, amplifier.AmplificationPlan(1, 1, 0, 0.0, 0.0)
    base = Fragment()
    for qubit in register:
        base.gate(HGATE, (qubit,))
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
    return fragment, plan


def uniform_target(q: int) -> ss.SparseState:
    n = index_width(q)
    return ss.from_amplitudes(
        n, [(i, 1 / math.sqrt(q)) for i in range(q)]
    )


def uniform_superposition(
    q: int,
) -> Tuple[pr.LaqccProgram, ss.SparseState]:
    if q < 1:
        raise ValueError("need q >= 1")
    builder = pr.Builder()
    register = builder.alloc("out", index_width(q), "index")
    (flag,) = builder.alloc("flag", 1, "flag")
    fragment, _ = uniform_fragment(register, q, flag)
    fragment.emit(builder)
    return builder.build(), uniform_target(q)


# --------------------------------------------------------------------------
# W state
# --------------------------------------------------------------------------


def _one_hot_position(s: int, n: int) -> int:
    """Index i with s = e_i (bit n-1-i set); -1 if s is not one-hot."""
    if s.bit_count() != 1:
        return -1
    return n - s.bit_length()


def uncompress_gate(n: int, b: int) -> BasisMapGate:
    """|i>|s> -> |i>|s xor e_i> on the index + system registers."""

    def fn(v: int) -> int:
        i, s = v >> n, v & ((1 << n) - 1)
        if i < n:
            s ^= 1 << (n - 1 - i)
        return (i << n) | s

    return BasisMapGate(
        name=f"uncompress{n}",
        num_bits=b + n,
        fn=fn,
        inverse_fn=fn,
        charge=charges.charge("fanout", n * b)
        + n * charges.charge("equal", b),
        spec={"name": "uncompress", "params": {"n": n}},
    )


def compress_phase_gate(n: int, b: int) -> DiagonalGate:
    """(-1)^{<j, i(s)>} on |j>|s> for one-hot s = e_{i(s)}."""

    def phase(v: int) -> complex:
        j, s = v >> n, v & ((1 << n) - 1)
        i = _one_hot_position(s, n)
        if i < 0:
            return 1.0
        return -1.0 if (i & j).bit_count() % 2 else 1.0

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
    fragment, _ = uniform_fragment(index, n, flag)
    fragment.emit(builder)
    builder.gate(uncompress_gate(n, b), index + system)
    builder.layer(*(GateApp(HGATE, (q,)) for q in index))
    builder.gate(compress_phase_gate(n, b), index + system)
    builder.layer(*(GateApp(HGATE, (q,)) for q in index))
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
    b = len(indexes[0])
    for reg in indexes:
        sub, _ = uniform_fragment(reg, n, flag)
        sub.emit(fragment)
    for q in system:
        fragment.gate(HGATE, (q,))

    def kick_phase(v: int, n=n) -> complex:
        i, y = v >> n, v & ((1 << n) - 1)
        if i >= n:
            return 1.0
        bit = (y >> (n - 1 - i)) & 1
        return -1.0 if bit else 1.0

    for reg in indexes:
        gate = DiagonalGate(
            name="filling_kick",
            num_bits=b + n,
            phase_fn=kick_phase,
            charge=charges.charge("parallelize", n),
        )
        fragment.gate(gate, tuple(reg) + tuple(system))
    for q in system:
        fragment.gate(HGATE, (q,))
    return fragment


def sorted_positions(s: int, n: int) -> Tuple[int, ...]:
    """Positions i (ascending) with bit n-1-i of s set."""
    return tuple(i for i in range(n) if (s >> (n - 1 - i)) & 1)


def cleaning_gate(n: int, k: int, b: int) -> BasisMapGate:
    """Uncompute sorted index registers from the system pattern:
    register l ^= (l-th smallest set position of s)."""

    def fn(v: int) -> int:
        s = v & ((1 << n) - 1)
        rest = v >> n
        regs = []
        for l in range(k):
            shift = (k - 1 - l) * b
            regs.append((rest >> shift) & ((1 << b) - 1))
        pos = sorted_positions(s, n)
        if len(pos) == k:
            regs = [r ^ p for r, p in zip(regs, pos)]
        out = 0
        for r in regs:
            out = (out << b) | r
        return (out << n) | s

    return BasisMapGate(
        name=f"cleaning{n},{k}",
        num_bits=k * b + n,
        fn=fn,
        inverse_fn=fn,
        charge=k * charges.charge("hammingweight", n)
        + charges.charge("parallelize", n * b),
        spec={"name": "cleaning", "params": {"n": n, "k": k}},
    )


def cleaning_gadget_layers(
    indexes: Sequence[Sequence[int]], system: Sequence[int], n: int
) -> List[pr.QuantumLayer]:
    """Phase-trick variant of cleaning: Hadamards around a diagonal
    (-1)^{sum_l <j_l, pos_l(s)>}; equal to :func:`cleaning_gate` on
    states whose register l holds the l-th smallest set position."""
    k = len(indexes)
    b = len(indexes[0])
    layers = [
        pr.QuantumLayer(
            tuple(
                GateApp(HGATE, (q,)) for reg in indexes for q in reg
            )
        )
    ]

    def phase(v: int) -> complex:
        s = v & ((1 << n) - 1)
        rest = v >> n
        pos = sorted_positions(s, n)
        if len(pos) != k:
            return 1.0
        parity = 0
        for l in range(k):
            shift = (k - 1 - l) * b
            j = (rest >> shift) & ((1 << b) - 1)
            parity ^= (j & pos[l]).bit_count() & 1
        return -1.0 if parity else 1.0

    qubits = tuple(q for reg in indexes for q in reg) + tuple(system)
    layers.append(
        pr.QuantumLayer(
            (
                GateApp(
                    DiagonalGate(
                        "cleaning_phase",
                        k * b + n,
                        phase,
                        charge=k * charges.charge("hammingweight", n)
                        + charges.charge("parallelize", n * b),
                    ),
                    qubits,
                ),
            )
        )
    )
    layers.append(
        pr.QuantumLayer(
            tuple(
                GateApp(HGATE, (q,)) for reg in indexes for q in reg
            )
        )
    )
    return layers


def filtering_start_probability(n: int, k: int) -> float:
    return ns.distinct_index_probability(n, k)


def dicke_small_k(
    n: int, k: int
) -> Tuple[pr.LaqccProgram, ss.SparseState]:
    if n < 2:
        raise ValueError("need n >= 2")
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

        def ordering_fn(outcomes, k=k, rw=rw):
            raw = outcomes["ranks"]
            total = k * rw
            out = {}
            ranks_seen = []
            for l in range(k):
                shift = (k - 1 - l) * rw
                r = (raw >> shift) & ((1 << rw) - 1)
                ranks_seen.append(r)
                for pos in range(rw):
                    out[f"reset{l}_{pos}"] = (r >> (rw - 1 - pos)) & 1
            for l, r in enumerate(ranks_seen):
                out[f"rank{l}"] = r
            return out

        builder.classical(
            pr.ClassicalLayer("ordering", ordering_fn, reads=("ranks",))
        )
        xg = MatrixGate("X", np.array([[0, 1], [1, 0]]))
        builder.layer(
            *(
                GateApp(
                    xg,
                    (ranks[l][pos],),
                    ("ordering", f"reset{l}_{pos}"),
                )
                for l in range(k)
                for pos in range(rw)
            )
        )
        # uncompute the comparison bits (index registers untouched)
        for l in range(k):
            others = [m for m in range(k) if m != l]
            for slot, m in enumerate(others):
                builder.gate(
                    gt, indexes[l] + indexes[m] + (compare[l][slot],)
                )
        index_qubits = tuple(q for reg in indexes for q in reg)

        def perm_builder(env, k=k, b=b):
            sigma = [env["ordering"][f"rank{l}"] for l in range(k)]
            inv = [0] * k
            for l, r in enumerate(sigma):
                inv[r] = l
            perm = []
            for r in range(k):
                for off in range(b):
                    perm.append(inv[r] * b + off)
            return mc.permutation(perm)

        builder.gate(
            pr.DynamicGate(
                name="sort_indexes",
                num_bits=k * b,
                builder=perm_builder,
                reads=("ordering",),
                charge=charges.charge("permutation", k * b),
            ),
            index_qubits,
        )

    # Cleaning: gadget form at small n, equivalent semantic map above
    # (the two are equality-tested against each other at n = 4)
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


def _decode_digits(v: int, widths: Sequence[int]) -> List[int]:
    digits = []
    shift = sum(widths)
    for w in widths:
        shift -= w
        digits.append((v >> shift) & ((1 << w) - 1))
    digits.append(0)  # the fixed digit 0
    return digits


def _encode_digits(digits: Sequence[int], widths: Sequence[int]) -> int:
    v = 0
    for d, w in zip(digits, widths):
        v = (v << w) | d
    return v


def _valid_fac(digits: Sequence[int]) -> bool:
    n = len(digits)
    return all(0 <= d <= n - 1 - i for i, d in enumerate(digits))


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
        frag, _ = uniform_fragment(reg, j + 1, flag)
        frag.emit(builder)

    # (2) s ^= A(y)
    def forward_fn(v: int, n=n, k=k, yw=tuple(yw)) -> int:
        s = v & ((1 << n) - 1)
        y = _decode_digits(v >> n, yw)
        if not _valid_fac(y):
            return v
        bits = ns.fac_to_comb(y, k)
        image = 0
        for bval in bits:
            image = (image << 1) | bval
        return ((v >> n) << n) | (s ^ image)

    builder.gate(
        BasisMapGate(
            name="fac_to_comb",
            num_bits=len(y_qubits) + n,
            fn=forward_fn,
            inverse_fn=forward_fn,
            charge=charges.charge("threshold", n, k),
            spec={"name": "fac_to_comb", "params": {"n": n, "k": k}},
        ),
        y_qubits + system,
    )

    # (3) (z, o) ^= (Z(y), O(y)) — functions of y alone
    def zo_fn(
        v: int, n=n, k=k, yw=tuple(yw), zw=tuple(zw), ow=tuple(ow)
    ) -> int:
        zb, ob = sum(zw), sum(ow)
        y_val = v >> (zb + ob)
        z_val = (v >> ob) & ((1 << zb) - 1)
        o_val = v & ((1 << ob) - 1)
        y = _decode_digits(y_val, yw)
        if not _valid_fac(y):
            return v
        _, zdig, odig = ns.fac_decompose(y, k)
        z_val ^= _encode_digits(zdig, zw)
        o_val ^= _encode_digits(odig, ow)
        return (y_val << (zb + ob)) | (z_val << ob) | o_val

    if z_qubits or o_qubits:
        builder.gate(
            BasisMapGate(
                name="split_zo",
                num_bits=len(y_qubits) + len(z_qubits) + len(o_qubits),
                fn=zo_fn,
                inverse_fn=zo_fn,
                charge=charges.charge("threshold", n, max(k, 1)),
                spec={"name": "split_zo", "params": {"n": n, "k": k}},
            ),
            y_qubits + z_qubits + o_qubits,
        )

    # (4) y ^= comb_to_fac(s, z, o): zeroes the y registers
    def uncompute_y_fn(
        v: int, n=n, k=k, yw=tuple(yw), zw=tuple(zw), ow=tuple(ow)
    ) -> int:
        zb, ob = sum(zw), sum(ow)
        sb = n
        y_val = v >> (sb + zb + ob)
        s = (v >> (zb + ob)) & ((1 << sb) - 1)
        z_val = (v >> ob) & ((1 << zb) - 1)
        o_val = v & ((1 << ob) - 1)
        bits = tuple((s >> (n - 1 - i)) & 1 for i in range(n))
        if sum(bits) == k:
            zdig = _decode_digits(z_val, zw) if n - k > 0 else ()
            odig = _decode_digits(o_val, ow) if k > 0 else ()
            if _valid_fac(zdig) and _valid_fac(odig):
                y = ns.comb_to_fac(bits, tuple(zdig), tuple(odig))
                y_val ^= _encode_digits(y, yw)
        return (
            (y_val << (sb + zb + ob))
            | (s << (zb + ob))
            | (z_val << ob)
            | o_val
        )

    builder.gate(
        BasisMapGate(
            name="comb_to_fac",
            num_bits=len(y_qubits) + n + len(z_qubits) + len(o_qubits),
            fn=uncompute_y_fn,
            inverse_fn=uncompute_y_fn,
            charge=charges.charge("threshold", n, max(k, 1)),
            spec={"name": "comb_to_fac", "params": {"n": n, "k": k}},
        ),
        y_qubits + system + z_qubits + o_qubits,
    )

    # (5) unload the now-uniform z and o registers back to |0>
    for reg, j in zip(z_regs, range(n - k - 1, 0, -1)):
        frag, _ = uniform_fragment(reg, j + 1, flag)
        frag.emit_inverse(builder)
    for reg, j in zip(o_regs, range(k - 1, 0, -1)):
        frag, _ = uniform_fragment(reg, j + 1, flag)
        frag.emit_inverse(builder)
    return builder.build(), dicke_target(n, k)


# --------------------------------------------------------------------------
# Diagonal-circuit embedding
# --------------------------------------------------------------------------


def lift_diagonal(
    diag: np.ndarray, support: Sequence[int], n: int
) -> np.ndarray:
    """Full n-qubit diagonal from a gate diagonal on ``support``
    (support[0] most significant)."""
    diag = np.asarray(diag)
    k = len(support)
    out = np.ones(1 << n, dtype=complex)
    for v in range(1 << n):
        idx = 0
        for q in support:
            idx = (idx << 1) | ((v >> q) & 1)
        out[v] = diag[idx]
    return out


def iqp_to_laqcc(
    diag_gates: Sequence[Tuple[np.ndarray, Tuple[int, ...]]], n: int
) -> pr.LaqccProgram:
    """Hadamard sandwich around parallelized commuting diagonal gates,
    with a terminal measurement of the system register."""
    lifted = []
    for diag, support in diag_gates:
        diag = np.asarray(diag)
        if diag.ndim == 2:
            if not np.allclose(
                diag, np.diag(np.diag(diag)), atol=1e-9
            ):
                raise ValueError("gate is not diagonal")
            diag = np.diag(diag)
        lifted.append(np.diag(lift_diagonal(diag, support, n)))
    builder = pr.Builder()
    system = builder.alloc("out", n, "system")
    builder.layer(*(GateApp(HGATE, (q,)) for q in system))
    if lifted:
        layers, total = mc.parallelize_commuting(lifted)
        extra = total - n
        if extra:
            builder.alloc("copies", extra, "ancilla")
        for layer in layers:
            builder.layers.append(layer)
    builder.layer(*(GateApp(HGATE, (q,)) for q in system))
    # outcome bit i of the report equals qubit i: list msb (qubit n-1) first
    builder.measure(tuple(reversed(system)), "output")
    return builder.build()


def iqp_direct_distribution(
    diag_gates: Sequence[Tuple[np.ndarray, Tuple[int, ...]]], n: int
) -> Dict[int, float]:
    """Dense reference distribution of the diagonal sandwich."""
    dim = 1 << n
    state = np.full(dim, 1 / math.sqrt(dim), dtype=complex)
    for diag, support in diag_gates:
        diag = np.asarray(diag)
        if diag.ndim == 2:
            diag = np.diag(diag)
        state = state * lift_diagonal(diag, support, n)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    full = np.array([[1.0]])
    for _ in range(n):
        full = np.kron(full, h)
    state = full @ state
    return {v: float(abs(a) ** 2) for v, a in enumerate(state)}


def max_support(
    program: pr.LaqccProgram, policy=None
) -> int:
    """Largest number of simultaneously-live basis states in one shot."""
    peak = 1

    def observe(state: ss.SparseState) -> None:
        nonlocal peak
        peak = max(peak, len(state.amplitudes))

    pr.execute(program, policy or pr.SeededPolicy(0), observer=observe)
    return peak
