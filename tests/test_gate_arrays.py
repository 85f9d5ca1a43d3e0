"""Every map gate's array-native function against its per-pattern form.

The reference functions below are the gates' functions as they were,
one Python int pattern at a time.  The array forms must give the same
images, and phases equal bit for bit (signed zeros included), on every
pattern of gates up to 14 bits and on seeded samples of ``object``
patterns wider than 62 bits.
"""
import cmath

import numpy as np
import pytest

from laqcc import amplifier as amp
from laqcc import clifford as cl
from laqcc import macros as mc
from laqcc import numbersys as ns
from laqcc import program as pr
from laqcc import protocols as pt

# ------------------------------------------------------------- references


def ref_fanout(m):
    def fn(v):
        if (v >> m) & 1:
            v ^= (1 << m) - 1
        return v
    return fn


def ref_flag(predicate):
    return lambda v: v ^ 1 if predicate(v >> 1) else v


def ref_add(n, sign):
    mask = (1 << n) - 1
    return lambda v: ((v >> n) << n) | (((v & mask) + sign * (v >> n)) & mask)


def ref_compare(n, op):
    mask = (1 << n) - 1
    return lambda v: v ^ 1 if op((v >> (n + 1)) & mask, (v >> 1) & mask) else v


def ref_hammingweight(n):
    w = mc.count_register_width(n)
    return lambda v: ((v >> w) << w) | ((v & ((1 << w) - 1)) ^ (
        v >> w).bit_count())


def ref_weighted(weights, t):
    n = len(weights)
    return ref_flag(lambda x: sum(
        w for i, w in enumerate(weights) if (x >> (n - 1 - i)) & 1) >= t)


def ref_permutation(p):
    n = len(p)

    def fn(v):
        bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        out = 0
        for i in range(n):
            out = (out << 1) | bits[p[i]]
        return out
    return fn


def ref_uncompress(n):
    def fn(v):
        i, s = v >> n, v & ((1 << n) - 1)
        if i < n:
            s ^= 1 << (n - 1 - i)
        return (i << n) | s
    return fn


def ref_compress_phase(n):
    def phase(v):
        j, s = v >> n, v & ((1 << n) - 1)
        if s.bit_count() != 1:
            return 1.0
        i = n - s.bit_length()
        return -1.0 if (i & j).bit_count() % 2 else 1.0
    return phase


def ref_filling_kick(n):
    def phase(v):
        i, y = v >> n, v & ((1 << n) - 1)
        if i >= n:
            return 1.0
        return -1.0 if (y >> (n - 1 - i)) & 1 else 1.0
    return phase


def sorted_positions(s, n):
    return tuple(i for i in range(n) if (s >> (n - 1 - i)) & 1)


def ref_cleaning(n, k, b):
    def fn(v):
        s, rest = v & ((1 << n) - 1), v >> n
        regs = [(rest >> ((k - 1 - l) * b)) & ((1 << b) - 1)
                for l in range(k)]
        pos = sorted_positions(s, n)
        if len(pos) == k:
            regs = [r ^ p for r, p in zip(regs, pos)]
        out = 0
        for r in regs:
            out = (out << b) | r
        return (out << n) | s
    return fn


def ref_cleaning_phase(n, k, b):
    def phase(v):
        s, rest = v & ((1 << n) - 1), v >> n
        pos = sorted_positions(s, n)
        if len(pos) != k:
            return 1.0
        parity = 0
        for l in range(k):
            j = (rest >> ((k - 1 - l) * b)) & ((1 << b) - 1)
            parity ^= (j & pos[l]).bit_count() & 1
        return -1.0 if parity else 1.0
    return phase


def decode(v, widths):
    digits, shift = [], sum(widths)
    for w in widths:
        shift -= w
        digits.append((v >> shift) & ((1 << w) - 1))
    return digits + [0]


def encode(digits, widths):
    v = 0
    for d, w in zip(digits, widths):
        v = (v << w) | d
    return v


def valid(digits):
    n = len(digits)
    return all(0 <= d <= n - 1 - i for i, d in enumerate(digits))


def widths(length):
    return pt._digit_widths(length)


def ref_fac_to_comb(n, k):
    yw = widths(n)

    def fn(v):
        y = decode(v >> n, yw)
        if not valid(y):
            return v
        image = 0
        for bit in ns.fac_to_comb(y, k):
            image = (image << 1) | bit
        return v ^ image
    return fn


def ref_split_zo(n, k):
    yw, zw, ow = widths(n), widths(n - k), widths(k)
    zb, ob = sum(zw), sum(ow)

    def fn(v):
        y = decode(v >> (zb + ob), yw)
        if not valid(y):
            return v
        _, z, o = ns.fac_decompose(y, k)
        return v ^ (encode(z, zw) << ob) ^ encode(o, ow)
    return fn


def ref_comb_to_fac(n, k):
    yw, zw, ow = widths(n), widths(n - k), widths(k)
    zb, ob = sum(zw), sum(ow)

    def fn(v):
        s = (v >> (zb + ob)) & ((1 << n) - 1)
        bits = tuple((s >> (n - 1 - i)) & 1 for i in range(n))
        if sum(bits) != k:
            return v
        z = decode((v >> ob) & ((1 << zb) - 1), zw) if n - k else []
        o = decode(v & ((1 << ob) - 1), ow) if k else []
        if not (valid(z) and valid(o)):
            return v
        return v ^ (encode(ns.comb_to_fac(bits, z, o), yw) << (n + zb + ob))
    return fn


def ref_kick(phi, hit):
    return lambda v: cmath.exp(1j * phi) if hit(v) else 1.0


# (gate, its reference map) for every basis-map factory
BASIS_MAPS = [
    (mc.fanout(3), ref_fanout(3)),
    (mc.or_n(4), ref_flag(lambda x: x != 0)),
    (mc.and_n(4), ref_flag(lambda x: x == 15)),
    (mc.equal_i(4, 9), ref_flag(lambda x: x == 9)),
    (mc.add_n(3), ref_add(3, 1)),
    (mc.add_n(3).inverse(), ref_add(3, -1)),
    (mc.equality(3), ref_compare(3, lambda x, y: x == y)),
    (mc.less_than(5, 21), ref_flag(lambda x: x < 21)),
    (mc.greaterthan(3), ref_compare(3, lambda x, y: x > y)),
    (mc.hammingweight(6), ref_hammingweight(6)),
    (mc.exact_t(5, 2), ref_flag(lambda x: x.bit_count() == 2)),
    (mc.threshold_t(5, 3), ref_flag(lambda x: x.bit_count() >= 3)),
    (mc.weighted_threshold([3, 1, 2, 1], 4), ref_weighted([3, 1, 2, 1], 4)),
    (mc.permutation((2, 0, 3, 1)), ref_permutation((2, 0, 3, 1))),
    (mc.permutation((2, 0, 3, 1)).inverse(), ref_permutation((1, 3, 0, 2))),
    (pr._transcript_equal_factory(4, 0b1011),
     ref_flag(lambda x: x == 0b1011)),
    (pr._and_flags_factory(4), ref_flag(lambda x: x == 15)),
    (pt.uncompress_gate(5, 3), ref_uncompress(5)),
    (pt.cleaning_gate(6, 2, 3), ref_cleaning(6, 2, 3)),
    (pt.fac_to_comb_gate(5, 2), ref_fac_to_comb(5, 2)),
    (pt.split_zo_gate(5, 2), ref_split_zo(5, 2)),
    (pt.comb_to_fac_gate(4, 2), ref_comb_to_fac(4, 2)),
    (pt.comb_to_fac_gate(4, 0), ref_comb_to_fac(4, 0)),
    (pt.comb_to_fac_gate(4, 4), ref_comb_to_fac(4, 4)),
]

rng0 = np.random.default_rng(3)
TABLE = np.exp(2j * np.pi * rng0.random(8))
TABLE[3] = complex(-1.0, -0.0)

# (gate, its reference phase) for every diagonal factory
PHASES = [
    (amp.phase_flag(0.7), ref_kick(0.7, lambda v: v)),
    (amp.phase_all_zero(5, -1.3), ref_kick(-1.3, lambda v: v == 0)),
    (pt.compress_phase_gate(6, 3), ref_compress_phase(6)),
    (pt.filling_kick_gate(6, 3), ref_filling_kick(6)),
    (pt.cleaning_phase_gate(5, 2, 3), ref_cleaning_phase(5, 2, 3)),
    (mc.product_diagonal([TABLE, TABLE], 3),
     (np.ones(8, complex) * TABLE * TABLE).__getitem__),
    # the table as given, its signed zero too
    (mc.parallelize_commuting([TABLE])[0][0].apps[0].gate,
     TABLE.__getitem__),
]


def bits_of(phases):
    """Each phase as the bits of its two floats."""
    return np.asarray(phases, complex).view(np.uint64).tolist()


def check_map(gate, ref, patterns):
    got = gate.fn(patterns)
    assert got.dtype == patterns.dtype
    assert got.tolist() == [ref(p) for p in patterns.tolist()]
    if got.dtype == object:
        assert all(type(v) is int for v in got)


def check_phase(gate, ref, patterns):
    want = [complex(ref(p)) for p in patterns.tolist()]
    assert bits_of(gate.phase_fn(patterns)) == bits_of(want)
    # the inverse conjugates, as ``complex(phase).conjugate()`` did
    assert bits_of(gate.inverse().phase_fn(patterns)) == bits_of(
        [z.conjugate() for z in want])


@pytest.mark.parametrize("gate, ref", BASIS_MAPS, ids=lambda g: getattr(
    g, "name", ""))
def test_basis_map_equals_reference_on_every_pattern(gate, ref):
    assert gate.num_bits <= 14
    check_map(gate, ref, np.arange(1 << gate.num_bits))


@pytest.mark.parametrize("gate, ref", PHASES, ids=lambda g: getattr(
    g, "name", ""))
def test_phase_equals_reference_on_every_pattern(gate, ref):
    assert gate.num_bits <= 14
    check_phase(gate, ref, np.arange(1 << gate.num_bits))


def wide(rng, bits, size=300):
    """Seeded ``object`` patterns of ``bits`` > 62 bits."""
    return np.array([int.from_bytes(rng.bytes(bits // 8 + 1), "little")
                     % (1 << bits) for _ in range(size)], object)


def factoradic_patterns(rng, n, low_bits, size=300):
    """Patterns whose top bits hold a random n-factoradic (packed as the
    factoradic gates read it) over ``low_bits`` random bits."""
    yw = widths(n)
    return np.array([
        encode([int(rng.integers(j + 1)) for j in range(n - 1, 0, -1)], yw)
        << low_bits | int.from_bytes(rng.bytes(low_bits // 8 + 1), "little")
        % (1 << low_bits)
        for _ in range(size)], object)


def test_wide_basis_maps_equal_reference():
    rng = np.random.default_rng(62)
    for gate, ref in [
        (mc.fanout(69), ref_fanout(69)),
        (mc.or_n(70), ref_flag(lambda x: x != 0)),
        (mc.add_n(35), ref_add(35, 1)),
        (mc.add_n(35).inverse(), ref_add(35, -1)),
        (mc.equality(33), ref_compare(33, lambda x, y: x == y)),
        (mc.greaterthan(33), ref_compare(33, lambda x, y: x > y)),
        (mc.hammingweight(64), ref_hammingweight(64)),
        (mc.exact_t(66, 33), ref_flag(lambda x: x.bit_count() == 33)),
        (mc.threshold_t(66, 33), ref_flag(lambda x: x.bit_count() >= 33)),
        (mc.permutation(tuple(range(69, -1, -1))),
         ref_permutation(tuple(range(69, -1, -1)))),
        (pr._transcript_equal_factory(64, (1 << 63) + 5),
         ref_flag(lambda x: x == (1 << 63) + 5)),
        (pt.uncompress_gate(64, 7), ref_uncompress(64)),
        (pt.cleaning_gate(60, 2, 6), ref_cleaning(60, 2, 6)),
    ]:
        assert gate.num_bits > 62
        check_map(gate, ref, wide(rng, gate.num_bits))
    # one-hot system words and full-weight words, which the maps act on
    check_map(pt.uncompress_gate(64, 7), ref_uncompress(64), np.array(
        [i << 64 | 1 << (63 - i) for i in range(64)], object))
    check_map(pt.cleaning_gate(60, 2, 6), ref_cleaning(60, 2, 6), np.array(
        [int(r) << 60 | 1 << int(a) | 1 << int(b) for r, a, b in
         rng.integers(0, 60, size=(200, 3))], object))


def test_wide_factoradic_gates_equal_reference():
    rng = np.random.default_rng(16)
    n, k = 16, 5
    gate = pt.fac_to_comb_gate(n, k)
    assert gate.num_bits > 62
    check_map(gate, ref_fac_to_comb(n, k), factoradic_patterns(rng, n, n))
    check_map(gate, ref_fac_to_comb(n, k), wide(rng, gate.num_bits))
    gate = pt.split_zo_gate(n, k)
    low = sum(widths(n - k)) + sum(widths(k))
    check_map(gate, ref_split_zo(n, k), factoradic_patterns(rng, n, low))
    # comb_to_fac reads (s, z, o): build valid ones through fac_decompose
    gate = pt.comb_to_fac_gate(n, k)
    zw, ow = widths(n - k), widths(k)
    patterns = []
    for _ in range(200):
        y = [int(rng.integers(j + 1)) for j in range(n - 1, -1, -1)]
        bits, z, o = ns.fac_decompose(y, k)
        s = int("".join(map(str, bits)), 2)
        y_noise = int(rng.integers(1 << 40))
        patterns.append((((y_noise << n | s) << sum(zw) | encode(z, zw))
                         << sum(ow)) | encode(o, ow))
    patterns = np.array(patterns, object)
    check_map(gate, ref_comb_to_fac(n, k), patterns)
    check_map(gate, ref_comb_to_fac(n, k), wide(rng, gate.num_bits))


def test_wide_phases_equal_reference():
    rng = np.random.default_rng(64)
    for gate, ref in [
        (pt.compress_phase_gate(64, 6), ref_compress_phase(64)),
        (pt.filling_kick_gate(64, 7), ref_filling_kick(64)),
        (pt.cleaning_phase_gate(60, 2, 6), ref_cleaning_phase(60, 2, 6)),
        (amp.phase_all_zero(70, 0.4), ref_kick(0.4, lambda v: v == 0)),
    ]:
        assert gate.num_bits > 62
        patterns = wide(rng, gate.num_bits)
        check_phase(gate, ref, np.concatenate([patterns, [0]]))
    # one-hot system words, where compress_phase is not 1
    check_phase(pt.compress_phase_gate(64, 6), ref_compress_phase(64),
                np.array([int(j) << 64 | 1 << int(i) for i, j in
                          rng.integers(0, 64, size=(200, 2))], object))


def test_predicated_table_and_deferral_predicate_equal_reference():
    """Each deferred conditioned gate fires on the control patterns, its
    measured words, where the classical layer it replaced gives 1, as
    does the gate loaded back from its spec: the patterns where its mask
    selects an odd number of bits, counted in Python."""
    program = pr.defer_measurements(cl.flatten_ladder(cl.CliffordCircuit(
        "ladder", 3, 1, (cl.CliffordGate("H", (0,)),
                         cl.CliffordGate("CNOT", (0, 1))))))
    gates = [app.gate for layer in program.layers
             if isinstance(layer, pr.QuantumLayer) for app in layer.apps
             if isinstance(app.gate, pr.PredicatedGate)]
    assert gates
    (correct,) = [layer for layer in cl.flatten_ladder(cl.CliffordCircuit(
        "ladder", 3, 1, (cl.CliffordGate("H", (0,)),
                         cl.CliffordGate("CNOT", (0, 1))))).layers
        if isinstance(layer, pr.ClassicalLayer)]
    for gate in gates:
        key = gate.name.split(".", 1)[1].split("]", 1)[0]
        patterns = np.arange(1 << gate.control_bits)
        want = pr._classical(correct, patterns)[key].astype(bool).tolist()
        loaded = pr._gate_from_spec(pr._gate_spec(gate))
        for made in (gate, loaded):
            assert [bin(p & made.mask).count("1") % 2 == 1
                    for p in patterns.tolist()] == want
