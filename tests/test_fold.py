"""Hadamard duals and ``program.fold_hadamard``: each dual is its gate's
Hadamard sandwich as an operator, and a folded program reaches the same
branches as the program it was folded from."""
import math

import numpy as np
import pytest

import corpus
from laqcc import amplifier as am
from laqcc import program as pr
from laqcc import protocols as pt
from laqcc import sparse_state as ss

H = pr.MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))
X = pr.MatrixGate("X", np.array([[0, 1], [1, 0]]))


DUALS = [
    *((pt.filling_kick_gate, params)
      for params in [(2, 1), (3, 2), (4, 2), (5, 3), (7, 3), (8, 3), (8, 4)]),
    *((pt.cleaning_phase_gate, params)
      for params in [(3, 1, 2), (4, 1, 2), (4, 2, 2), (5, 2, 3), (6, 2, 3)]),
    *((am.phase_all_zero, params)
      for params in [(1, 0.7), (2, 2.1), (3, -1.3), (5, math.pi),
                     (8, 0.123)]),
]


def _operator_blocks(gate, bits, s, r):
    """``gate``'s operator on ``bits`` qubits as blocks[r, s_out, s_in],
    checking that it keeps the rest r of each pattern: basis state x is
    branch x of one batch, so one call gives every column."""
    x = np.arange(1 << bits)
    batch = ss.SparseState._of(2 * bits, x << bits | x,
                               np.ones(len(x), complex), bits)
    out = gate.apply(batch, tuple(range(bits - 1, -1, -1)))
    column, image = out.idx >> bits, out.idx & ((1 << bits) - 1)
    assert np.array_equal(r[image], r[column])
    blocks = np.zeros((r.max() + 1,) + (s.max() + 1,) * 2, complex)
    blocks[r[column], s[image], s[column]] = out.amp
    return blocks


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("factory, params", DUALS)
def test_hadamard_dual_is_the_dense_sandwich(factory, params, invert):
    """H^S D H^S equals the dual's operator on all 2^(b+n) patterns; so
    does the sandwich of the inverse, whose dual dumps too.  H^S keeps
    the bits outside S, so the sandwich is block diagonal over them:
    each block is built densely, and the dual must keep them."""
    gate = factory(*params)
    if invert:
        gate = gate.inverse()
    positions, dual = gate.hadamard_dual
    assert dual.spec is not None
    bits = gate.num_bits
    assert bits <= 12
    # pattern[s, r]: the positions S hold s and the others hold r
    order = [*positions, *(p for p in range(bits) if p not in positions)]
    v = np.arange(1 << bits)
    pattern = sum(((v >> (bits - 1 - j)) & 1) << (bits - 1 - p)
                  for j, p in enumerate(order))
    pattern = pattern.reshape(1 << len(positions), -1)
    walsh = np.ones((1, 1))
    for _ in positions:
        walsh = np.kron(walsh, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    phases = np.asarray(gate.phase_fn(pattern), complex)
    # blocks[r] = walsh @ diag(phases[:, r]) @ walsh
    blocks = (walsh * phases.T[:, None, :]) @ walsh
    # where each pattern sits: pattern[s[x], r[x]] == x
    s, r = np.divmod(np.argsort(pattern, axis=None), pattern.shape[1])
    assert np.abs(blocks - _operator_blocks(dual, bits, s, r)).max() <= 1e-12


def _amplitudes(state):
    return dict(zip(state.idx.tolist(), state.amp.tolist()))


def assert_same_branches(program, folded):
    """The same records on every branch, with probabilities and
    amplitudes within 1e-12."""
    built = pr.enumerate_branches(program)
    fold = pr.enumerate_branches(folded)
    assert [[ev[:3] for ev in b.record] for b in fold] == [
        [ev[:3] for ev in b.record] for b in built]
    for a, b in zip(built, fold):
        assert b.probability == pytest.approx(a.probability, abs=1e-12)
        for ea, eb in zip(a.record, b.record):
            assert eb.probability == pytest.approx(ea.probability, abs=1e-12)
        want, got = _amplitudes(a.state), _amplitudes(b.state)
        for index in want.keys() | got.keys():
            assert abs(want.get(index, 0) - got.get(index, 0)) <= 1e-12


SMALL_K = [(n, k) for n in range(4, 13) for k in (1, 2)] + [(8, 3)]


@pytest.mark.parametrize("n,k", SMALL_K)
def test_folded_small_k_reaches_the_same_branches(n, k):
    program = pt.dicke_small_k(n, k)[0]
    folded = pr.fold_hadamard(program)
    assert folded is not program
    assert_same_branches(program, folded)
    assert max(b.peak_support for b in pr.enumerate_branches(folded)) < max(
        b.peak_support for b in pr.enumerate_branches(program))


def _has_dual(program):
    return any(app.gate.hadamard_dual for layer in program.layers
               if isinstance(layer, pr.QuantumLayer) for app in layer.apps)


CORPUS = dict(corpus.programs())
# the corpus programs that name a dual: the amplified ones and small-k
FOLDING = [name for name, program in CORPUS.items() if _has_dual(program)]


def test_fold_returns_a_program_without_duals_itself():
    """Each corpus program without a dual folds to itself, and each with
    one folds: the amplified ones (uniform, W, factoradic, the deferred
    uniform) by their reflection, and small-k."""
    for name, program in CORPUS.items():
        folded = pr.fold_hadamard(program)
        assert (folded is program) is (name not in FOLDING), name
    assert {name.rstrip("0123456789,") for name in FOLDING} == {
        "uniform", "w", "small_k", "factoradic", "deferred_uniform"}


@pytest.mark.parametrize("name", FOLDING)
def test_folded_corpus_program_reaches_the_same_branches(name):
    program = CORPUS[name]
    assert_same_branches(program, pr.fold_hadamard(program))


def _round_trips(program):
    """The folded program dumps and loads back, and a loaded program
    keeps its duals, so it folds to the same program."""
    text = pr.dumps(pr.fold_hadamard(program))
    assert pr.dumps(pr.loads(text)) == text
    assert pr.dumps(pr.fold_hadamard(pr.loads(pr.dumps(program)))) == text


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 2), (8, 3)])
def test_folded_program_round_trips_through_json(n, k):
    _round_trips(pt.dicke_small_k(n, k)[0])


@pytest.mark.parametrize("name", FOLDING)
def test_folded_corpus_program_round_trips_through_json(name):
    _round_trips(CORPUS[name])


# filling_kick(2, 1) on index qubit 0 and system qubits 1 and 2
KICK = pt.filling_kick_gate(2, 1)


def _program(*layers):
    return pr.LaqccProgram(4, {}, [
        pr.QuantumLayer(tuple(pr.GateApp(g, q) for g, q in layer))
        for layer in layers])


def test_fold_leaves_other_hadamards_in_place():
    program = _program(
        [(H, (0,)), (H, (1,)), (H, (2,))],
        [(KICK, (0, 1, 2))],
        [(H, (1,))],
        [(H, (2,))],
    )
    folded = pr.fold_hadamard(program)
    assert [[(app.gate.name, app.qubits) for app in layer.apps]
            for layer in folded.layers] == [
        [("H", (0,))], [("uncompress2", (0, 1, 2))]]
    assert_same_branches(program, folded)


@pytest.mark.parametrize("layers", [
    # X on a system qubit inside the wall
    ([(H, (1,)), (H, (2,))], [(X, (2,))], [(KICK, (0, 1, 2))],
     [(H, (1,)), (H, (2,))]),
    # the wall misses qubit 2
    ([(H, (1,))], [(KICK, (0, 1, 2))], [(H, (1,))]),
    # qubit 2's first stretch breaks after the first kick, so that kick
    # cannot fold, nor qubit 1's stretch around both kicks, nor the
    # second kick, nor qubit 2's second stretch around it alone
    ([(H, (1,)), (H, (2,))], [(KICK, (0, 1, 2))], [(X, (2,))],
     [(H, (2,))], [(KICK, (3, 1, 2))], [(H, (1,)), (H, (2,))]),
])
def test_fold_leaves_an_incomplete_wall_alone(layers):
    program = _program(*layers)
    assert pr.fold_hadamard(program) is program


def test_a_dual_must_be_a_gate_on_the_gate_qubits():
    """A dual is any gate on all the gate's qubits, with distinct
    positions among them; it need not be a basis map."""
    for positions, dual in [((1, 3), pt.uncompress_gate(2, 1)),
                            ((1, 1), pt.uncompress_gate(2, 1)),
                            ((1, 2), pt.uncompress_gate(3, 1)),
                            ((0, 1, 2), am.plus_phase(2, 0.5)),
                            ((1, 2), KICK.phase_fn)]:
        with pytest.raises(ValueError, match="Hadamard dual"):
            pr.DiagonalGate("d", 3, KICK.phase_fn,
                            hadamard_dual=(positions, dual))
    for dual in [am.plus_phase(3, 0.5), H.inverse(), KICK]:
        gate = pr.DiagonalGate("d", dual.num_bits, KICK.phase_fn,
                               hadamard_dual=([0], dual))
        assert gate.hadamard_dual == ((0,), dual)


# ``sparse_state.apply_plus_phase``, the kernel of the reflection's dual


def _sandwich(state, kick, targets):
    """H on ``targets``, ``kick`` on their all-zero pattern, H again: the
    operator that ``apply_plus_phase`` applies, one wall at a time."""
    wall = [(H.matrix, (t,)) for t in targets]
    state = ss.apply_unitaries(state, wall)[0]
    state = ss.apply_phase_map(
        state, lambda v: np.where(v == 0, kick, 1.0), targets)
    return ss.apply_unitaries(state, wall)[0]


def _random_state(rng, n, size):
    idx = rng.choice(1 << n, size, replace=False)
    amp = rng.normal(size=size) + 1j * rng.normal(size=size)
    return ss.from_arrays(n, idx, amp / np.linalg.norm(amp))


@pytest.mark.parametrize("targets", [(0,), (4, 1, 2), (5, 0, 3, 1)])
def test_plus_phase_kernel_is_the_sandwich(targets):
    """Equal to the H sandwich within 1e-12 on a state with several
    rests, ordered by (rest, pattern) as a matrix gate on ``targets``."""
    rng = np.random.default_rng(len(targets))
    state = _random_state(rng, 7, 40)
    kick = np.exp(1j * 0.9)
    got = ss.apply_plus_phase(state, kick, targets)
    want = _amplitudes(_sandwich(state, kick, targets))
    assert _amplitudes(got).keys() == want.keys()
    for index, amp in _amplitudes(got).items():
        assert abs(amp - want[index]) <= 1e-12
    key = ss._rest(got.idx, targets) << len(targets) | ss._gather(
        got.idx, targets)
    assert (np.diff(key) > 0).all()


def test_plus_phase_kernel_gives_each_branch_of_a_batch_its_own():
    """On a labelled batch, the ``--branches sample:N`` case, each branch
    gets, bit for bit, what it gets alone, in label-major order."""
    rng = np.random.default_rng(5)
    outcomes, _, batch = ss.branch_enumerate(_random_state(rng, 6, 30),
                                             (5, 4))
    assert len(outcomes) == 4 and batch.label_bits == 2
    kick = np.exp(-2.3j)
    got = ss.apply_plus_phase(batch, kick, (0, 2, 3))
    assert got.label_bits == 2
    assert (np.diff(ss._labels(got, got.idx)) >= 0).all()
    for mine, alone in zip(ss.split_labels(got, 4), ss.split_labels(batch, 4)):
        alone = ss.apply_plus_phase(alone, kick, (0, 2, 3))
        assert mine.idx.tobytes() == alone.idx.tobytes()
        assert mine.amp.tobytes() == alone.amp.tobytes()


@pytest.mark.parametrize("label_bits", [0, 1])
def test_plus_phase_kernel_refuses_a_nan(label_bits):
    """A NaN spreads over its row and fails the norm check; the prune
    does not drop it, though without that row each branch has norm 1
    (qubit 2 is the label of a batch)."""
    count = 2 + label_bits
    state = ss.SparseState._of(3, np.array([0b000, 0b010, 0b100][:count]),
                               np.array([np.nan, 1, 1][:count], complex),
                               label_bits)
    with pytest.raises(ValueError, match="norm drifted"):
        ss.apply_plus_phase(state, 1j, (0,))


@pytest.mark.parametrize("label_bits, amp", [
    (0, np.array([0.6, 0.8]) * (1 + 5e-7)),
    # qubit 2 is the label: branch 1 drifts, branch 0 does not
    (1, np.array([1.0, 1 + 5e-7])),
])
def test_plus_phase_kernel_refuses_a_drifted_norm(label_bits, amp):
    state = ss.SparseState._of(3, np.array([0b000, 0b100]), amp, label_bits)
    with pytest.raises(ValueError, match="norm drifted"):
        ss.apply_plus_phase(state, -1, (0, 1))


def test_plus_phase_kernel_stops_at_the_support_cap(monkeypatch):
    """The cap is checked before the tensor exists: 2^61 entries would
    fail in numpy with another error."""
    with pytest.raises(ss.SupportLimitError, match="a 61-qubit gate"):
        ss.apply_plus_phase(ss.SparseState.basis(62), -1, range(61))
    monkeypatch.setattr(ss, "MAX_SUPPORT", 8)
    two_rests = ss.from_arrays(4, np.array([0, 8]), np.full(2, 0.5 ** 0.5))
    assert ss.apply_plus_phase(two_rests, -1, (0, 1)).support() <= 8
    with pytest.raises(ss.SupportLimitError,
                       match="a 3-qubit gate would give 16 basis states"):
        ss.apply_plus_phase(two_rests, -1, (0, 1, 2))
