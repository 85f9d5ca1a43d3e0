"""Parity of the numpy state operations with per-amplitude reference
loops.

The reference kernels below walk the amplitude dict one basis state at
a time, bit by bit.  The array forms in ``laqcc.sparse_state`` (and
``PredicatedGate.apply`` on top of them) must give the same support and
the same amplitudes within 1e-12 on seeded random sparse states, and
fail on the same inputs.  The dense gate kernel and the basis and phase
maps may reorder the support; ``split_register`` and
``PredicatedGate.apply`` keep the reference's order.

``apply_permutations``, the kernel of runs of signed-permutation
gates, must moreover equal ``apply_unitary`` applied to each gate of
the run in turn exactly: the same indices in the same order and
amplitudes that compare equal, on random inputs and on every run of the
acceptance programs.  A run must equal its gates applied one at a time
bit for bit, signed zeros included, and ``branch_enumerate`` the
per-outcome collapse it replaced, kept below as the reference.

``apply_unitaries``, the kernel of runs of dense gates (``apply_unitary``
is its run of one), must give what ``old_apply_unitary``, the per-gate
kernel it replaced and kept below, gives gate by gate: the same indices
in the same order and dtype, the same amplitude bytes, and the same
supports at the layer ends it is told of.
"""
import math
import warnings

import numpy as np
import pytest

from laqcc import program as pr
from laqcc import sparse_state as ss
from laqcc import verify
from test_labels import per_outcome

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


def one(fn, pattern, k):
    """The array-native map function ``fn`` at one ``k``-bit pattern."""
    return fn(np.array([pattern], ss._dtype(k)))[0]


def ref_apply_basis_map(state, mapping, targets):
    k = len(targets)
    out = {}
    for index, amp in state.amplitudes.items():
        image = int(one(mapping, _pattern(index, targets), k))
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
        p = complex(one(phase, _pattern(index, targets), len(targets)))
        if abs(abs(p) - 1.0) > 1e-9:
            raise ValueError("phase factor must have unit modulus")
        out[index] = amp * p
    return ss.SparseState(state.num_qubits, out)


def ref_split_register(state, keep):
    keep_set = set(keep)
    rest = [q for q in range(state.num_qubits) if q not in keep_set]
    sub = {}
    rest_pattern = None
    for index, amp in state.amplitudes.items():
        r = 0
        for pos, q in enumerate(rest):
            r |= ((index >> q) & 1) << pos
        if rest_pattern is None:
            rest_pattern = r
        elif r != rest_pattern:
            raise ValueError("remaining qubits are not in one basis state")
        sub[_pattern(index, keep)] = amp
    return ss.SparseState(len(keep), sub), rest_pattern or 0


def ref_fidelity(state, target):
    small, large = state.amplitudes, target.amplitudes
    if len(large) < len(small):
        small, large = large, small
    overlap = sum(a * large.get(i, 0.0).conjugate() for i, a in small.items())
    return min(1.0, abs(overlap))


def odd(pattern, mask):
    """Whether ``pattern`` holds an odd number of the bits ``mask``
    selects, counted in Python."""
    return bin(pattern & mask).count("1") % 2 == 1


def ref_predicated(state, gate, qubits):
    """``gate``'s inner gate applied to the amplitudes whose control bits
    hold an odd number of the bits of its mask."""
    controls = qubits[: gate.control_bits]
    targets = qubits[gate.control_bits:]
    hit, miss = {}, {}
    for index, amp in state.amplitudes.items():
        (hit if odd(_pattern(index, controls), gate.mask) else miss)[
            index] = amp
    out = dict(miss)
    if hit:
        norm = math.sqrt(sum(abs(a) ** 2 for a in hit.values()))
        scaled = ss.SparseState(
            state.num_qubits, {i: a / norm for i, a in hit.items()})
        moved = gate.gate.apply(scaled, targets)
        for i, a in moved.amplitudes.items():
            out[i] = out.get(i, 0.0) + a * norm
    return ss.SparseState(state.num_qubits, out)


# ---------------------------------------------------------------- inputs


def random_state(rng, n, size=None, support=()):
    """Normalised state on ``size`` distinct basis indices, ``support``
    among them and the rest random."""
    if size is None:
        size = int(rng.integers(1, min(1 << n, 200) + 1))
    support = set(support)
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


def random_signed_permutation(rng, k):
    """A matrix with one entry from ``1, -1, 1j, -1j`` per column, in a
    seeded random row."""
    d = 1 << k
    matrix = np.zeros((d, d), complex)
    matrix[rng.permutation(d), np.arange(d)] = rng.choice(
        np.array([1, -1, 1j, -1j]), d)
    return matrix


def random_targets(rng, n, k):
    """``k`` distinct qubits in shuffled, generally non-adjacent order."""
    return [int(q) for q in rng.permutation(n)[:k]]


def assert_same(got, expected):
    assert got.num_qubits == expected.num_qubits
    assert set(got.amplitudes) == set(expected.amplitudes)
    for i, a in expected.amplitudes.items():
        assert abs(got.amplitudes[i] - a) <= ATOL


def assert_same_in_order(got, expected):
    assert list(got.amplitudes) == list(expected.amplitudes)
    assert_same(got, expected)


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
    perm = rng.permutation(1 << k)
    calls = []

    def mapping(v):
        calls.append(v.tolist())
        return perm[v]

    got = ss.apply_basis_map(state, mapping, targets)
    # one call, on the distinct patterns of the support
    assert calls == [sorted({_pattern(i, targets) for i in state.amplitudes})]
    assert_same(got, ref_apply_basis_map(state, perm.__getitem__, targets))


@pytest.mark.parametrize("seed, k", CASES)
def test_phase_map_matches_reference(seed, k):
    rng, state, targets = case(seed, k)
    phases = np.exp(2j * np.pi * rng.random(1 << k))
    assert_same(
        ss.apply_phase_map(state, phases.__getitem__, targets),
        ref_apply_phase_map(state, phases.__getitem__, targets),
    )


@pytest.mark.parametrize("k", (1, 2, 3))
def test_seventy_qubit_state_matches_reference(k):
    rng, state, targets = case(100, k, n=70)
    targets[-1] = 69  # a bit beyond int64
    matrix = random_unitary(rng, k)
    perm = rng.permutation(1 << k)
    phases = np.exp(2j * np.pi * rng.random(1 << k))
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


def assert_identical(got, expected):
    """Same indices in the same order, amplitudes that compare equal."""
    assert got.num_qubits == expected.num_qubits
    assert got.idx.dtype == expected.idx.dtype
    assert np.array_equal(got.idx, expected.idx)
    assert np.array_equal(got.amp, expected.amp)


# at 62 qubits the indices are int64 but the sort key needs Python ints
@pytest.mark.parametrize("n", (20, 62, 70))
@pytest.mark.parametrize("seed, k", CASES)
def test_permutation_equals_dense_kernel(seed, k, n):
    rng, state, targets = case(seed, k, n=n)
    if n == 70:
        targets[-1] = max(set(range(64, 70)) - set(targets))
    matrix = random_signed_permutation(rng, k)
    gate = pr.MatrixGate("p", matrix)
    got = ss.apply_permutations(state, [(*gate.permutation, targets)])
    assert_identical(got, ss.apply_unitary(state, matrix, targets))
    assert_same(got, ref_apply_unitary(state, matrix, targets))
    assert_identical(gate.apply(state, tuple(targets)), got)


def assert_bitwise(got, expected):
    """:func:`assert_identical`, with amplitudes equal bit for bit, so
    signed zeros count."""
    assert_identical(got, expected)
    assert np.array_equal(got.amp.view(float), expected.amp.view(float))


RUNS = [(seed, n, length) for seed in range(6) for n in (20, 70)
        for length in (1, 2, 3, 4)]


@pytest.mark.parametrize("seed, n, length", RUNS)
def test_permutation_run_equals_its_gates_one_at_a_time(seed, n, length):
    rng = np.random.default_rng([seed, n, length])
    state = random_state(rng, n)
    amp = state.amp.copy()
    if seed % 2:  # a few amplitudes exactly real, so zero parts occur
        amp[::3] = amp[::3].real
    if seed % 3 == 0:  # one amplitude below the prune threshold
        amp[0] = 1e-13
    state = ss.SparseState._of(n, state.idx, amp / np.linalg.norm(amp))
    run, gates = [], []
    for i in range(length):
        k = int(rng.integers(1, 3))
        # even seeds: disjoint targets; odd seeds: a run reusing qubits 0-3
        pool = range(4) if seed % 2 else range(2 * i, 2 * i + 2)
        targets = [int(q) for q in rng.permutation(list(pool))[:k]]
        if n == 70 and i == 0:
            targets[-1] = 69  # a bit beyond int64
        gate = pr.MatrixGate("p", random_signed_permutation(rng, k))
        run.append((*gate.permutation, targets))
        gates.append((gate, targets))
    got = ss.apply_permutations(state, run)
    dense = one_at_a_time = state
    for (gate, targets), entry in zip(gates, run):
        dense = ss.apply_unitary(dense, gate.matrix, targets)
        one_at_a_time = ss.apply_permutations(one_at_a_time, [entry])
    assert_bitwise(got, one_at_a_time)
    assert_identical(got, dense)
    if seed % 2 == 0:  # no zero parts: the dense sums add only zeros
        assert_bitwise(got, dense)


def ref_move_bits(values, src, dst, dtype):
    """One bit at a time, through Python ints."""
    return np.array([
        sum(((v >> s) & 1) << d for s, d in zip(src, dst))
        for v in values.tolist()
    ], dtype)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("wide", (False, True))
def test_move_bits_matches_one_bit_at_a_time(seed, wide):
    rng = np.random.default_rng([seed, wide])
    n = 70 if wide else 62
    dtype = ss._dtype(n)
    values = np.array([
        int.from_bytes(rng.bytes(9), "little") % (1 << n) for _ in range(50)
    ], dtype)
    k = int(rng.integers(1, 9))
    src = [int(q) for q in rng.permutation(n)[:k]]
    dst = [int(q) for q in rng.permutation(n)[:k]]
    low = range(k - 1, -1, -1)
    patterns = ref_move_bits(values, src, low, np.int64)
    for given, s, d, out in (
        (values, src, low, np.int64),  # gather: right shifts, narrowing
        (patterns, low, src, dtype),  # scatter: left shifts, widening
        (values, src, dst, dtype),  # both directions at once
    ):
        got = ss._move_bits(given, s, d, out)
        assert got.dtype == np.dtype(out)
        assert got.tolist() == ref_move_bits(given, s, d, out).tolist()


def test_move_bits_groups_bits_by_distance():
    # 3 -> 1 and 5 -> 3 move right by 2 together; 0 -> 6 moves left by 6
    assert ss._shifts((3, 5, 0), (1, 3, 6)) == ((2, 0b101000), (-6, 0b1))
    values = np.array([0b101001, 0b001000, 0], np.int64)
    assert ss._move_bits(values, (3, 5, 0), (1, 3, 6), np.int64).tolist(
    ) == [0b1001010, 0b10, 0]


def table_moves(rng):
    """A gather, a scatter and a move both ways, each of at least 3
    distances over source bits spanning more than 8: all three take
    the table path."""
    while True:
        k = int(rng.integers(9, 17))
        src = [int(q) for q in rng.permutation(62)[:k]]
        dst = [int(q) for q in rng.permutation(62)[:k]]
        low = list(range(k - 1, -1, -1))
        moves = [(src, low), (low, src), (src, dst)]
        if all(len(ss._shifts(tuple(s), tuple(d))) >= 3
               and max(s) - min(s) >= 8
               and len(ss._shifts(tuple(s), tuple(d)))
               > len(ss._chunks(tuple(s)))
               for s, d in moves):
            return moves


@pytest.mark.parametrize("seed", range(8))
def test_move_bits_by_table_matches_one_bit_at_a_time(seed):
    rng = np.random.default_rng([seed, 3])
    values = rng.integers(0, 1 << 62, 300)
    # every bit of each value set at random: bits that a chunk covers
    # but that do not move are left out
    for src, dst in table_moves(rng):
        got = ss._move_bits(values, src, dst, np.int64)
        assert got.dtype == np.int64
        assert got.tolist() == ref_move_bits(values, src, dst, np.int64
                                             ).tolist()


def test_move_bits_tables_are_sized_to_their_chunks():
    """A chunk's table has 2^width entries, its source bits from its
    lowest to its highest: bits 0-7 and 9-10 take 256 and 4 entries."""
    assert ss._chunks((10, 0, 7, 9)) == ((0, 8), (9, 2))
    tables = ss._move_tables((10, 0, 7, 9), (0, 1, 2, 3))
    assert [len(t) for t in tables] == [256, 4]
    assert tables[1].tolist() == [0, 0b1000, 0b1, 0b1001]


def test_table_memo_drops_the_least_recently_used(monkeypatch):
    """Past ``TABLE_BYTES`` the memo drops its least recently used
    tables, and its count of bytes stays exact."""
    moves = [(tuple(range(8 * i, 8 * i + 8)), tuple(range(7, -1, -1)))
             for i in range(4)]  # one 2 kB table each
    memo = ss._TableMemo()
    monkeypatch.setattr(ss, "_TABLES", memo)
    monkeypatch.setattr(ss, "TABLE_BYTES", 3 * 2048)
    values = np.arange(100, dtype=np.int64) << 5
    for src, dst in moves[:3] + moves[:1] + moves[3:]:
        assert ss._move_bits(values, src, dst, np.int64).tolist(
        ) == ref_move_bits(values, src, dst, np.int64).tolist()
    assert list(memo) == [moves[2], moves[0], moves[3]]
    assert memo.held == sum(t.nbytes for ts in memo.values() for t in ts)


def test_move_bits_keeps_shifts_for_python_ints(monkeypatch):
    """Values or a result beyond ``int64`` keep the shift path: the
    table memo is never asked."""
    class Refusing(ss._TableMemo):
        def tables(self, src, dst):
            raise AssertionError("table path on Python ints")

    monkeypatch.setattr(ss, "_TABLES", Refusing())
    rng = np.random.default_rng(4)
    src, low = table_moves(rng)[0]
    wide = [q + 8 for q in src]  # bits up to 69
    values = np.array([int.from_bytes(rng.bytes(9), "little") % (1 << 70)
                       for _ in range(50)], object)
    patterns = ref_move_bits(values, wide, low, np.int64)
    for given, s, d, out in ((values, wide, low, np.int64),
                             (patterns, low, wide, object),
                             (values, wide, src, object)):
        got = ss._move_bits(given, s, d, out)
        assert got.dtype == np.dtype(out)
        assert got.tolist() == ref_move_bits(given, s, d, out).tolist()


@pytest.mark.parametrize("k, size, narrow", [
    (3, 100, True), (12, 50, False), (16, 8192, True), (16, 8191, False),
    (17, 20000, False), (5, 0, False), (0, 3, True)])
def test_distinct_equals_np_unique(k, size, narrow):
    """Both ways to find the distinct patterns, a table of those present
    and a sort, give ``np.unique``'s values and inverse, dtypes too."""
    rng = np.random.default_rng([k, size])
    n = k + 6
    idx = rng.integers(0, 1 << n, size)
    targets = [int(q) for q in rng.permutation(n)[:k]]
    assert ss._narrow(k, size) == narrow
    want = np.unique(ref_move_bits(idx, targets, range(k - 1, -1, -1),
                                   np.int64), return_inverse=True)
    for got, expected in zip(ss._distinct(idx, targets), want):
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("n, size, narrow", [(6, 20, True), (12, 20, False)])
def test_fidelity_equals_reference_on_either_path(n, size, narrow):
    """The shared indices, by a place table or by a sort, pair up in
    the small state's order: the overlap equals the Python sum bit for
    bit, whichever state is given first and in any storage order."""
    rng = np.random.default_rng([n, size])
    state = random_state(rng, n, size)
    shared = list(state.amplitudes)[::2]
    target = random_state(rng, n, size + 3, shared)
    target = ss.SparseState._of(n, *(a[rng.permutation(size + 3)]
                                     for a in (target.idx, target.amp)))
    assert ss._narrow(n, target.support()) == narrow
    for a, b in ((state, target), (target, state)):
        assert ss.fidelity(a, b) == ref_fidelity(a, b)


# branch_enumerate as it was: one _collapse, and one norm check, per
# outcome


def _collapse(state: ss.SparseState, members: np.ndarray, p: float):
    """The normalised state left on the entries that ``members`` selects."""
    amp = state.amp[members] * (1.0 / math.sqrt(p))
    keep = ss._modulus(amp) >= ss.PRUNE_THRESHOLD
    return state._with(state.idx[members][keep], amp[keep]).check_norm()


def old_branch_enumerate(state, qubits):
    ss._check_targets(state, qubits)
    patterns = ref_move_bits(state.idx, qubits,
                             range(len(qubits) - 1, -1, -1), np.int64)
    outcomes, where = np.unique(patterns, return_inverse=True)
    weights = np.bincount(where, ss._weights(state.amp), len(outcomes))
    groups = np.split(
        np.argsort(where, kind="stable"),
        np.cumsum(np.bincount(where, minlength=len(outcomes)))[:-1],
    )
    return [
        (o, p, _collapse(state, members, p))
        for o, p, members in zip(outcomes.tolist(), weights.tolist(), groups)
        if p > ss.PRUNE_THRESHOLD
    ]


def assert_same_branches(got, want):
    assert [(o, p) for o, p, _ in got] == [(o, p) for o, p, _ in want]
    for (_, _, g), (_, _, w) in zip(got, want):
        assert_bitwise(g, w)


@pytest.mark.parametrize("seed", range(24))
def test_branch_enumerate_equals_per_outcome_collapse(seed):
    rng = np.random.default_rng([seed, 2])
    n = 70 if seed % 4 == 3 else int(rng.integers(1, 13))
    state = random_state(rng, n)
    # some entries pruned once scaled, some outcomes too light to follow
    amp = state.amp * rng.choice([1.0, 1e-6, 1e-13], len(state.amp),
                                 p=[0.7, 0.15, 0.15])
    state = ss.SparseState._of(n, state.idx, amp / np.linalg.norm(amp))
    qubits = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, 5))]]
    assert_same_branches(per_outcome(state, qubits),
                         old_branch_enumerate(state, qubits))


def test_branch_enumerate_prunes_after_scaling():
    # outcome 1 of qubit 0 weighs about 1e-10; its 5e-13 entry becomes
    # about 5e-8 once scaled, and stays
    light = [(0b001, 1e-5), (0b011, 5e-13)]
    state = ss.SparseState(3, dict([(0b000, math.sqrt(1 - 1e-10))] + light))
    got = per_outcome(state, [0])
    assert [(o, post.support()) for o, _, post in got] == [(0, 1), (1, 2)]
    assert_same_branches(got, old_branch_enumerate(state, [0]))


def test_branch_enumerate_skips_a_zero_weight_outcome_quietly():
    # a basis map keeps the zero amplitude it is given, so outcome 1 of
    # qubit 1 has weight exactly 0
    state = ss.SparseState(2, {0b00: 1.0, 0b01: 0.0})
    state = ss.apply_basis_map(state, lambda v: (v & 1) << 1 | v >> 1, [1, 0])
    assert state.amplitudes == {0b00: 1, 0b10: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = per_outcome(state, [1])
    assert [o for o, _, _ in got] == [0]
    assert_same_branches(got, old_branch_enumerate(state, [1]))


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
        ss.apply_basis_map(state, lambda v: np.zeros_like(v), targets),
        ref_apply_basis_map(state, lambda v: np.zeros_like(v), targets),
    )


def product_state(rng, n, keep):
    """A random state on ``keep`` (keep[0] most significant) next to one
    random basis pattern on every other qubit."""
    k = len(keep)
    sub = random_state(rng, k)
    rest = [q for q in range(n) if q not in set(keep)]
    pattern = sum(int(rng.integers(2)) << q for q in rest)
    return ss.SparseState(n, {
        pattern | sum(((i >> (k - 1 - pos)) & 1) << q
                      for pos, q in enumerate(keep)): a
        for i, a in sub.amplitudes.items()
    })


@pytest.mark.parametrize("seed, k", CASES)
def test_split_register_matches_reference(seed, k):
    rng = np.random.default_rng([seed, k, 1])
    n = int(rng.integers(k, 13))
    keep = random_targets(rng, n, k)
    state = product_state(rng, n, keep)
    (got, got_rest), (want, want_rest) = (
        ss.split_register(state, keep), ref_split_register(state, keep))
    assert got_rest == want_rest
    assert_same_in_order(got, want)


@pytest.mark.parametrize("seed, k", CASES)
def test_fidelity_matches_reference(seed, k):
    rng, state, _ = case(seed, k)
    n = state.num_qubits
    shared = list(state.amplitudes)[: int(rng.integers(0, state.support() + 1))]
    size = min(1 << n, len(shared) + int(rng.integers(1, 5)))
    target = random_state(rng, n, size, shared)
    for a, b in ((state, target), (target, state), (state, state)):
        assert abs(ss.fidelity(a, b) - ref_fidelity(a, b)) <= ATOL


@pytest.mark.parametrize("seed, k", CASES)
def test_predicated_gate_matches_reference(seed, k):
    rng, state, targets = case(seed, k)
    n = state.num_qubits
    free = [q for q in rng.permutation(n).tolist() if q not in targets]
    controls = free[: int(rng.integers(0, len(free) + 1))]
    c = len(controls)
    # every mask over at most 3 controls, one random mask over more
    masks = range(1 << c) if c <= 3 else [int(rng.integers(1 << c))]
    inner = pr.MatrixGate("u", random_unitary(rng, k))
    qubits = tuple(controls + targets)
    for mask in masks:
        gate = pr.PredicatedGate("p", c, mask, inner)
        assert_same_in_order(gate.apply(state, qubits),
                             ref_predicated(state, gate, qubits))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_seventy_qubit_split_fidelity_predicated_match_reference(k):
    rng = np.random.default_rng([200, k])
    keep = random_targets(rng, 70, k)
    keep[0] = 69  # a bit beyond int64
    state = product_state(rng, 70, keep)
    (got, got_rest), (want, want_rest) = (
        ss.split_register(state, keep), ref_split_register(state, keep))
    assert got_rest == want_rest
    assert_same_in_order(got, want)

    _, state, targets = case(100, k, n=70)
    target = random_state(rng, 70, 60, list(state.amplitudes)[:40])
    assert abs(ss.fidelity(state, target)
               - ref_fidelity(state, target)) <= ATOL
    inner = pr.MatrixGate("u", random_unitary(rng, k))
    controls = [q for q in (69, 68, 67, 0, 1) if q not in targets][:2]
    # and every other qubit as a control: Python-int patterns, one mask
    wide = [q for q in range(69, -1, -1) if q not in targets]
    mask = sum(1 << b for b in range(len(wide)) if rng.integers(2))
    assert mask >> 62
    for gate, qubits in [
        *((pr.PredicatedGate("p", 2, m, inner), (*controls, *targets))
          for m in range(4)),
        (pr.PredicatedGate("p", len(wide), mask, inner),
         (*wide, *targets)),
    ]:
        assert_same_in_order(gate.apply(state, qubits),
                             ref_predicated(state, gate, qubits))


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
        lambda: ss.apply_basis_map(state, lambda v: np.zeros_like(v), targets),
        lambda: ref_apply_basis_map(state, lambda v: np.zeros_like(v), targets),
    ])


def test_image_out_of_range_rejected_by_both():
    _, state, targets = case(4, 2)
    both_raise(ValueError, "out of range", [
        lambda: ss.apply_basis_map(state, lambda v: np.full_like(v, 4), targets),
        lambda: ref_apply_basis_map(state, lambda v: np.full_like(v, 4), targets),
        lambda: ss.apply_basis_map(state, lambda v: np.full_like(v, -1), targets),
        lambda: ref_apply_basis_map(state, lambda v: np.full_like(v, -1), targets),
    ])


def test_non_unit_phase_rejected_by_both():
    _, state, targets = case(5, 3)
    both_raise(ValueError, "unit modulus", [
        lambda: ss.apply_phase_map(state, lambda v: np.full(len(v), 1 + 1e-6), targets),
        lambda: ref_apply_phase_map(state, lambda v: np.full(len(v), 1 + 1e-6), targets),
    ])


def test_norm_drift_rejected_by_both():
    state = ss.SparseState(3, {0b001: 0.6, 0b100: 0.6})
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    both_raise(ValueError, "norm drifted", [
        lambda: ss.apply_unitary(state, h, [2]),
        lambda: ref_apply_unitary(state, h, [2]),
    ])


def test_norm_drift_rejected_by_both_gate_kernels():
    state = ss.SparseState(3, {0b001: 0.6, 0b100: 0.6})
    x = pr.MatrixGate("X", [[0, 1], [1, 0]])
    both_raise(ValueError, "norm drifted", [
        lambda: ss.apply_permutations(state, [(*x.permutation, [2])]),
        lambda: ss.apply_unitary(state, x.matrix, [2]),
        lambda: ref_apply_unitary(state, x.matrix, [2]),
    ])


def test_bad_targets_rejected_by_both_gate_kernels():
    state = ss.SparseState.basis(3)
    x = pr.MatrixGate("X", [[0, 1], [1, 0]])
    for targets, error, match in (
        ([1, 1], IndexError, "duplicate"),
        ([3], IndexError, "out of range"),
        ([0, 1], ValueError, "does not match target count"),
    ):
        both_raise(error, match, [
            lambda: ss.apply_permutations(
                state, [(*x.permutation, targets)]),
            lambda: ss.apply_unitary(state, x.matrix, targets),
        ])


@pytest.mark.parametrize("controls, match", [
    ([5], "target 5 out of range"),
    ([-1], "target -1 out of range"),
    ([1, 1], "duplicate target qubits"),
])
def test_bad_controls_rejected_as_bad_targets(controls, match):
    state = ss.SparseState.basis(2)
    with pytest.raises(IndexError, match=match):
        ss.apply_predicated(state, 1, controls, lambda part: part)


def test_entangled_rest_rejected_by_both():
    _, state, targets = case(6, 2, n=6)
    both_raise(ValueError, "not in one basis state", [
        lambda: ss.split_register(state, targets),
        lambda: ref_split_register(state, targets),
    ])


# ------------------------------------------------------ acceptance parity


def test_acceptance_programs_equal_on_both_gate_kernels(monkeypatch):
    """Every run of signed-permutation gates in every acceptance driver
    gives exactly the state of the dense kernel applied to each of its
    gates in turn, each on the branches it applies to."""
    kernel, applies_to, apply = (
        ss.apply_permutations, pr._applies_to, pr.MatrixGate.apply)
    gates, checked, differ = {}, [], []

    def seen(gate):
        """Note the gate behind each permutation table a run may hold."""
        if gate.permutation is not None:
            gates[id(gate.permutation[0])] = gate
        return gate

    def both(state, run):
        got = kernel(state, run)
        want = state
        for images, _, targets, *which in run:
            gate = gates[id(images)]

            def dense(part, gate=gate, targets=targets):
                return ss.apply_unitary(part, gate.matrix, targets)

            want = ss.apply_to_labels(want, which[0], dense) if which else (
                dense(want))
            checked.append(gate.name)
        if not (np.array_equal(got.idx, want.idx)
                and np.array_equal(got.amp, want.amp)):
            differ.append([(gates[id(i)].name, t) for i, _, t, *_ in run])
        return got

    def noted(app, bits):
        seen(app.gate)
        return applies_to(app, bits)

    monkeypatch.setattr(pr, "_applies_to", noted)
    monkeypatch.setattr(pr.MatrixGate, "apply",
                        lambda g, state, qubits: apply(seen(g), state, qubits))
    monkeypatch.setattr(ss, "apply_permutations", both)
    results = verify.run_all()
    assert [r["name"] for r in results if not r["passed"]] == []
    assert differ == []
    assert {"X", "Z", "CNOT"} <= set(checked) and len(checked) > 1000


def one_gate_per_layer(program):
    """``program`` with each gate application in a quantum layer of its
    own, so no run holds more than one gate."""
    layers = []
    for layer in program.layers:
        if isinstance(layer, pr.QuantumLayer) and layer.apps:
            layers += [pr.QuantumLayer((app,)) for app in layer.apps]
        else:
            layers.append(layer)
    return pr.LaqccProgram(program.num_qubits, program.registers, layers)


def layered_programs():
    from laqcc import clifford as cl
    from laqcc import protocols as pt

    rng = np.random.default_rng(11)
    yield cl.ghz(5)
    for build, args in ((pt.w_state, (4,)), (pt.uniform_superposition, (5,)),
                        (pt.dicke_small_k, (4, 2)),
                        (pt.dicke_factoradic, (4, 2))):
        yield build(*args)[0]
    # a flattened ladder behind a layer of random inputs
    flat = cl.flatten_ladder(cl.CliffordCircuit("ladder", 3, 1, (
        cl.CliffordGate("H", (0,)), cl.CliffordGate("CNOT", (0, 1)),
        cl.CliffordGate("S", (1,)), cl.CliffordGate("CNOT", (1, 2)),
        cl.CliffordGate("H", (2,)))))
    inputs = pr.QuantumLayer(tuple(
        pr.GateApp(pr.MatrixGate(f"in{q}", random_unitary(rng, 1)), (q,))
        for q in range(3)))
    yield pr.LaqccProgram(flat.num_qubits, flat.registers,
                          (inputs,) + flat.layers)
    # a run that a dense gate ends, and a dense gate that ends a layer
    dense = [pr.MatrixGate(f"u{q}", random_unitary(rng, 1)) for q in range(4)]
    x, cnot = cl.clifford("X", 1, "X(0)"), cl.clifford("CNOT", 2, "CNOT(0,1)")
    yield pr.LaqccProgram(4, {}, (
        pr.QuantumLayer(tuple(pr.GateApp(u, (q,)) for q, u in enumerate(dense))),
        pr.QuantumLayer((pr.GateApp(cnot, (0, 1)), pr.GateApp(x, (2,)),
                         pr.GateApp(dense[3], (3,)))),
        pr.MeasureLayer((0,), "m"),
    ))


@pytest.mark.parametrize("program", layered_programs())
def test_layer_runs_equal_one_gate_per_layer(program):
    """Every branch of a program whose layers hold runs equals, bit for
    bit, the branch of the same program with one gate per layer."""
    got = pr.enumerate_branches(program)
    want = pr.enumerate_branches(one_gate_per_layer(program))
    assert [(b.record, b.probability) for b in got] == [
        (b.record, b.probability) for b in want]
    for g, w in zip(got, want):
        assert_bitwise(g.state, w.state)


# The map kernels as they were: one call of the gate's function per
# distinct pattern, here at a one-element array.


def old_apply_basis_map(state, mapping, targets):
    ss._check_targets(state, targets)
    k = len(targets)
    idx = state.idx
    patterns, where = np.unique(ss._gather(idx, targets), return_inverse=True)
    images = [int(one(mapping, p, k)) for p in patterns.tolist()]
    if not all(0 <= v < (1 << k) for v in images):
        raise ValueError("basis map image out of range")
    moved = ss._scatter(np.array(images, ss._dtype(k)), targets, idx.dtype)
    new_idx = ss._rest(idx, targets) | moved[where]
    if len(set(images)) < len(images) and len(np.unique(new_idx)) < len(
        new_idx
    ):
        raise ValueError("basis map is not injective on the support")
    return ss.SparseState._of(state.num_qubits, new_idx, state.amp)


def old_apply_phase_map(state, phase, targets):
    ss._check_targets(state, targets)
    k = len(targets)
    idx = state.idx
    patterns, where = np.unique(ss._gather(idx, targets), return_inverse=True)
    phases = np.array(
        [complex(one(phase, p, k)) for p in patterns.tolist()], complex)
    if not np.all(np.abs(np.abs(phases) - 1.0) <= 1e-9):
        raise ValueError("phase factor must have unit modulus")
    return ss.SparseState._of(
        state.num_qubits, idx, state.amp * phases[where])


def old_apply_predicated(state, mask, controls, apply):
    idx, amp = state.idx, state.amp
    patterns, where = np.unique(ss._gather(idx, controls), return_inverse=True)
    hit = np.array([odd(p, mask) for p in patterns.tolist()], bool)[where]
    if hit.any():
        norm = math.sqrt(ss._running_sum(ss._weights(amp[hit])))
        part = (amp[hit].view(float) / norm).view(complex)
        moved = apply(ss.SparseState._of(state.num_qubits, idx[hit], part))
        idx = np.concatenate([idx[~hit], moved.idx])
        amp = np.concatenate([amp[~hit], moved.amp * norm])
    return ss.SparseState._of(state.num_qubits, idx, amp).check_norm()


def test_acceptance_programs_equal_on_old_map_kernels(monkeypatch):
    """Every basis-map, phase-map and predicated application of every
    acceptance driver gives the per-pattern kernel's state exactly."""
    checked, differ = [], []

    def both(name, new, old):
        def kernel(state, fn, *rest):
            got = new(state, fn, *rest)
            want = old(state, fn, *rest)
            checked.append(name)
            if not (got.idx.dtype == want.idx.dtype
                    and np.array_equal(got.idx, want.idx)
                    and np.array_equal(got.amp, want.amp)):
                differ.append((name, rest[0]))
            return got
        return kernel

    for name, old in (("apply_basis_map", old_apply_basis_map),
                      ("apply_phase_map", old_apply_phase_map),
                      ("apply_predicated", old_apply_predicated)):
        monkeypatch.setattr(ss, name, both(name, getattr(ss, name), old))
    results = verify.run_all()
    assert [r["name"] for r in results if not r["passed"]] == []
    assert differ == []
    assert {"apply_basis_map", "apply_phase_map"} <= set(checked)
    assert len(checked) > 1000


def test_deferred_programs_equal_on_old_predicated_kernel(monkeypatch):
    """``transform defer`` output runs the same on both predicated
    kernels, every branch."""
    from laqcc import clifford as cl

    checked, differ = [], []
    new = ss.apply_predicated

    def kernel(state, mask, controls, apply):
        got = new(state, mask, controls, apply)
        want = old_apply_predicated(state, mask, controls, apply)
        checked.append(tuple(controls))
        if not (np.array_equal(got.idx, want.idx)
                and np.array_equal(got.amp, want.amp)):
            differ.append(tuple(controls))
        return got

    monkeypatch.setattr(ss, "apply_predicated", kernel)
    for program in (cl.ghz(4), cl.flatten_ladder(cl.CliffordCircuit(
            "ladder", 3, 1, (cl.CliffordGate("H", (0,)),
                             cl.CliffordGate("CNOT", (0, 1)),
                             cl.CliffordGate("S", (2,)))))):
        deferred = pr.defer_measurements(program)
        assert pr.enumerate_branches(deferred)
    assert checked and differ == []


# ------------------------------------------------------------ dense runs
#
# apply_unitary as it was, one call per gate: the reference for every run
# of apply_unitaries, which must give its indices (order and dtype) and
# amplitude bytes gate by gate, and the support after each layer end.


def old_apply_unitary(state, matrix, targets):
    """One dense gate: the state's (distinct rest) x 2^k block, grouped by
    one argsort, times the matrix, each branch with one row multiplied as
    a one-row product."""
    matrix = np.asarray(matrix, dtype=complex)
    ss._check_targets(state, targets)
    k = len(targets)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError("matrix size does not match target count")
    idx = state.idx
    rest = ss._rest(idx, targets)
    order = rest.argsort()
    ordered = rest[order]
    first = np.ones(len(rest), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    row = np.empty(len(rest), np.intp)
    row[order] = first.cumsum() - 1
    rest = ordered[first]
    if len(rest) << k > ss.MAX_SUPPORT:
        raise ss.SupportLimitError(
            f"a {k}-qubit gate would give {len(rest) << k} basis states,"
            f" more than the cap of {ss.MAX_SUPPORT}")
    block = np.zeros((len(rest), 1 << k), complex)
    block[row, ss._gather(idx, targets)] = state.amp
    out = block @ matrix.T
    if state.label_bits:
        labels = ss._labels(state, rest)
        single = np.bincount(labels)[labels] == 1
        out[single] = (block[single][:, None, :] @ matrix.T)[:, 0]
    out = out.ravel()
    new_idx = (rest[:, None] | ss._placements(tuple(targets), idx.dtype)).ravel()
    keep = np.abs(out) >= ss.PRUNE_THRESHOLD
    new_idx, out = new_idx[keep], out[keep]
    if state.label_bits:
        ss._check_branch_norms(state, new_idx, out)
    elif abs(np.vdot(out, out).real - 1.0) > ss.NORM_TOLERANCE:
        raise ValueError("state norm drifted beyond tolerance")
    return state._with(new_idx, out)


def one_at_a_time(state, run, ends=()):
    """``run`` through :func:`old_apply_unitary`, gate by gate, and each
    label's largest support after the gate counts in ``ends``."""
    peaks = 0
    for count, (matrix, targets) in enumerate(run, 1):
        state = old_apply_unitary(state, matrix, targets)
        if count in ends:
            peaks = np.maximum(peaks, ss.supports(state, 0))
    return state, peaks


def assert_run_equals_one_at_a_time(state, run, ends=None):
    if ends is None:
        ends = range(1, len(run) + 1)
    got, got_peaks = ss.apply_unitaries(state, run, ends)
    want, want_peaks = one_at_a_time(state, run, ends)
    assert (got.num_qubits, got.label_bits) == (want.num_qubits,
                                                want.label_bits)
    assert got.idx.dtype == want.idx.dtype
    assert got.idx.tolist() == want.idx.tolist()
    assert got.amp.view(np.uint64).tolist() == want.amp.view(
        np.uint64).tolist()
    assert np.atleast_1d(got_peaks).tolist() == np.atleast_1d(
        want_peaks).tolist()
    return got


H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def dense_run(rng, qubits, length, ks=(1, 2)):
    """``length`` seeded dense gates on ``qubits``, each on 1 or 2 of
    them in shuffled order."""
    run = []
    for _ in range(length):
        k = min(int(rng.choice(ks)), len(qubits))
        targets = [int(q) for q in rng.permutation(qubits)[:k]]
        run.append((random_unitary(rng, k), targets))
    return run


@pytest.mark.parametrize("seed", range(16))
def test_dense_run_equals_its_gates_one_at_a_time(seed):
    """Seeded sparse states, runs of k = 1 and 2 gates on a few of their
    qubits, some amplitudes exactly real."""
    rng = np.random.default_rng([seed, 31])
    n = int(rng.integers(3, 13))
    state = random_state(rng, n)
    if seed % 2:
        amp = state.amp.copy()
        amp[::2] = amp[::2].real
        state = ss.SparseState._of(n, state.idx, amp / np.linalg.norm(amp))
    pool = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
    run = dense_run(rng, pool, int(rng.integers(1, 9)))
    assert_run_equals_one_at_a_time(state, run)
    assert_run_equals_one_at_a_time(state, run, ends=())


@pytest.mark.parametrize("seed", range(8))
def test_labelled_dense_run_equals_its_gates_one_at_a_time(seed):
    """Batches of 2 to 6 branches, some on one rest pattern of the run's
    qubits (one live fibre per branch), some spread, some basis states."""
    from test_labels import batch

    rng = np.random.default_rng([seed, 32])
    n = int(rng.integers(3, 9))
    pool = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, 4))]]
    parts = []
    for _ in range(int(rng.integers(2, 7))):
        kind = int(rng.integers(3))
        if kind == 0:
            parts.append(ss.SparseState.basis(n, int(rng.integers(1 << n))))
        else:
            parts.append(random_state(rng, n, int(rng.integers(1, 9))
                                      if kind == 1 else None))
    run = dense_run(rng, pool, int(rng.integers(1, 7)))
    assert_run_equals_one_at_a_time(batch(*parts), run)


def test_one_live_fibre_is_multiplied_alone():
    """A basis state under H on four qubits: the first gate meets one
    live fibre among eight, plain and in each branch of a batch."""
    from test_labels import batch

    rng = np.random.default_rng(36)
    for run in ([(H, [q]) for q in (3, 1, 0, 2)],
                [(random_unitary(rng, 1), [q]) for q in (3, 1, 0, 2)]):
        state = ss.SparseState.basis(5, 0b10000)
        assert_run_equals_one_at_a_time(state, run)
        assert_run_equals_one_at_a_time(
            batch(state, ss.SparseState.basis(5, 0b00110), state), run)
        # an exact zero entry makes its fibre live, as it makes a row
        phase = complex(np.exp(1j * rng.random()))
        zero = ss.SparseState(5, {0b00000: phase, 0b10001: 0.0})
        assert zero.support() == 2
        assert_run_equals_one_at_a_time(zero, run)


def test_outputs_pruned_to_zero_and_repeated_gates():
    """H twice on one qubit, and H on |+>: outputs that cancel exactly are
    pruned, within the run and at its end."""
    plus = ss.apply_unitary(ss.SparseState.basis(3), H, [1])
    for run in ([(H, [1])] * 3, [(H, [1]), (H, [0]), (H, [1]), (H, [0])],
                [(H, [0]), (H, [0]), (H, [2]), (H, [1])]):
        got = assert_run_equals_one_at_a_time(plus, run)
        assert got.support() < 1 << len({q for _, t in run for q in t})
    assert assert_run_equals_one_at_a_time(plus, [(H, [1])]).support() == 1


@pytest.mark.parametrize("seed", range(4))
def test_dense_run_past_62_bits_equals_its_gates_one_at_a_time(seed):
    from test_labels import batch

    rng = np.random.default_rng([seed, 33])
    state = random_state(rng, 70, 40)
    run = dense_run(rng, [69, 65, 3, 0, 40], 6)
    assert state.idx.dtype == object
    assert_run_equals_one_at_a_time(state, run)
    # 62 program qubits and a label bit: the batch needs Python ints
    parts = [random_state(rng, 62, 20), ss.SparseState.basis(62, 1 << 61)]
    assert_run_equals_one_at_a_time(batch(*parts), dense_run(
        rng, [61, 60, 2], 5))


def test_a_run_rejects_what_one_gate_at_a_time_rejects():
    """A NaN amplitude, or a norm off by more than 1e-9, fails a run as it
    fails the one-gate kernel, plain and in one branch of a batch."""
    from test_labels import batch

    run = [(H, [0]), (H, [1])]
    nan = ss.SparseState(2, {0b00: float("nan"), 0b01: 1.0})
    off = ss.SparseState(2, {0b00: 0.6, 0b11: 0.6})
    good = ss.SparseState.basis(2)
    for state in (nan, off, batch(good, nan), batch(off, good)):
        both_raise(ValueError, "norm drifted", [
            lambda: ss.apply_unitaries(state, run),
            lambda: one_at_a_time(state, run),
        ])


def test_acceptance_programs_equal_dense_gates_one_at_a_time(monkeypatch):
    """Every dense run of every acceptance driver gives, gate by gate,
    the bytes and supports of the one-gate kernel it replaced."""
    kernel, runs, differ = ss.apply_unitaries, [], []

    def both(state, run, ends=()):
        got = kernel(state, run, ends)
        want = one_at_a_time(state, run, ends)
        runs.append(len(run))
        if not (got[0].idx.dtype == want[0].idx.dtype
                and got[0].idx.tolist() == want[0].idx.tolist()
                and got[0].amp.tobytes() == want[0].amp.tobytes()
                and np.atleast_1d(got[1]).tolist()
                == np.atleast_1d(want[1]).tolist()):
            differ.append([targets for _, targets in run])
        return got

    monkeypatch.setattr(ss, "apply_unitaries", both)
    results = verify.run_all()
    assert [r["name"] for r in results if not r["passed"]] == []
    assert differ == []
    assert len(runs) > 100 and max(runs) > 4


def test_blas_rows_are_independent_of_the_other_rows():
    """Bit identity of a dense run with its gates one at a time rests on
    the BLAS: each row of a complex (r x 2^k) @ (2^k x 2^k) product, for
    r >= 2, must have the same bits whatever the other rows and their
    order, as OpenBLAS 0.3.31 gives it."""
    rng = np.random.default_rng(34)
    for d in (2, 4):
        for _ in range(50):
            matrix = random_unitary(rng, d.bit_length() - 1)
            rows = rng.normal(size=(40, d)) + 1j * rng.normal(size=(40, d))
            full = rows @ matrix.T
            order = rng.permutation(40)
            parts = [(rows[:r] @ matrix.T, full[:r]) for r in (2, 3, 17)]
            parts.append((rows[order] @ matrix.T, full[order]))
            for got, want in parts:
                assert got.tobytes() == want.tobytes(), (
                    f"this BLAS ({np.__version__}, see numpy.show_config())"
                    f" rounds a row of a complex (r x {d}) @ ({d} x {d})"
                    " product differently with other rows or another row"
                    " order; sparse_state.apply_unitaries gives the bits"
                    " of one gate at a time only where it does not")


def test_a_run_past_the_support_cap_runs_gate_by_gate(monkeypatch):
    """A tensor past MAX_SUPPORT is never built: its gates run one at a
    time, so the cap stops the gate it stops alone, with its message."""
    tensors = []
    kernel = ss._run_tensor

    def noted(state, run, axes, rests, *rest):
        out = kernel(state, run, axes, rests, *rest)
        tensors.append(len(rests) << len(axes))  # built: it did not raise
        return out

    monkeypatch.setattr(ss, "_run_tensor", noted)
    monkeypatch.setattr(ss, "MAX_SUPPORT", 2)
    state = ss.SparseState.basis(3)
    # no state past 2 entries, but 4 in one tensor over qubits 0 and 1
    assert_run_equals_one_at_a_time(state, [(H, [0]), (H, [0]), (H, [1]),
                                            (H, [1])])
    assert 0 < max(tensors) <= 2
    for kernel_call in (ss.apply_unitaries, one_at_a_time):
        with pytest.raises(ss.SupportLimitError,
                           match="a 1-qubit gate would give 4 basis states"):
            kernel_call(state, [(H, [0]), (H, [1]), (H, [2])])
    assert max(tensors) <= 2


def test_a_run_is_cut_where_its_tensor_would_outgrow_the_state(monkeypatch):
    """Diagonal dense gates on a wide sparse state, and H spreading a
    basis state over 14 qubits: each tensor holds at most RUN_SLACK times
    its input support, or times RUN_FLOOR entries, apart from a one-gate
    tensor, which is the block of that gate alone."""
    tensors = []
    kernel = ss._run_tensor

    def noted(state, run, axes, rests, *rest):
        tensors.append((len(run), len(rests) << len(axes), state.support()))
        return kernel(state, run, axes, rests, *rest)

    monkeypatch.setattr(ss, "_run_tensor", noted)
    rng = np.random.default_rng(35)
    tilt = np.diag([1, np.exp(0.3j)])
    wide = random_state(rng, 40, 3000)
    for state, run in (
            (wide, [(tilt, [q]) for q in range(8)]),
            (ss.SparseState.basis(16), [(H, [q]) for q in range(14)]),
    ):
        tensors.clear()
        assert_run_equals_one_at_a_time(state, run)
        assert len(tensors) > 1 and sum(t[0] for t in tensors) == len(run)
        for gates, size, support in tensors:
            assert gates == 1 or size <= ss.RUN_SLACK * max(
                support, ss.RUN_FLOOR)


def test_a_dense_run_spans_layers_unless_observed(monkeypatch):
    """H on five qubits, one layer per gate: one apply_unitaries call
    without an observer, one per layer with one, and both report the
    peak support of every layer end."""
    from laqcc import protocols as pt

    calls = []
    kernel = ss.apply_unitaries

    def counted(state, run, ends=()):
        calls.append((len(run), list(ends)))
        return kernel(state, run, ends)

    monkeypatch.setattr(ss, "apply_unitaries", counted)
    layers = tuple(pr.QuantumLayer((pr.GateApp(pr.MatrixGate("h", H), (q,)),))
                   for q in range(5))
    program = pr.LaqccProgram(5, {}, layers + layers[:3])
    (shot,) = pr.sample_branches(program, 1)
    assert calls == [(8, list(range(1, 9)))]
    assert shot.peak_support == 32 == pt.max_support(program,
                                                     pr.SeededPolicy(0))
    calls.clear()
    seen = []
    pr.execute(program, pr.SeededPolicy(0), observer=seen.append)
    assert calls == [(1, [])] * 8
    assert [s.support() for s in seen] == [2, 4, 8, 16, 32, 16, 8, 4]
