"""Hadamard duals and ``program.fold_hadamard``: each dual is its gate's
Hadamard sandwich as an operator, and a folded program reaches the same
branches as the program it was folded from."""
import math

import numpy as np
import pytest

import corpus
from laqcc import program as pr
from laqcc import protocols as pt

H = pr.MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))
X = pr.MatrixGate("X", np.array([[0, 1], [1, 0]]))


DUALS = [
    *((pt.filling_kick_gate, params)
      for params in [(2, 1), (3, 2), (4, 2), (5, 3), (7, 3), (8, 3), (8, 4)]),
    *((pt.cleaning_phase_gate, params)
      for params in [(3, 1, 2), (4, 1, 2), (4, 2, 2), (5, 2, 3), (6, 2, 3)]),
]


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("factory, params", DUALS)
def test_hadamard_dual_is_the_dense_sandwich(factory, params, invert):
    """H^S D H^S equals the dual's permutation matrix on all 2^(b+n)
    patterns; so does the sandwich of the inverse, whose dual dumps too.
    H^S keeps the bits outside S, so the sandwich is block diagonal over
    them: each block is built densely, and the dual must keep them."""
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
    image = dual.fn(pattern)
    rows, cols = np.indices(pattern.shape)
    assert np.array_equal(r[image], cols)
    blocks[cols, s[image], rows] -= 1
    assert np.abs(blocks).max() <= 1e-12


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


def test_fold_returns_a_program_without_duals_itself():
    names = []
    for name, program in corpus.programs():
        if _has_dual(program):
            names.append(name)
        else:
            assert pr.fold_hadamard(program) is program, name
    assert names and all(name.startswith("small_k") for name in names)


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 2), (8, 3)])
def test_folded_program_round_trips_through_json(n, k):
    """The folded program dumps and loads back, and a loaded program
    keeps its duals, so it folds to the same program."""
    program = pt.dicke_small_k(n, k)[0]
    text = pr.dumps(pr.fold_hadamard(program))
    assert pr.dumps(pr.loads(text)) == text
    assert pr.dumps(pr.fold_hadamard(pr.loads(pr.dumps(program)))) == text


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


def test_a_dual_must_be_a_basis_map_on_the_gate_qubits():
    with pytest.raises(ValueError, match="Hadamard dual"):
        pr.DiagonalGate("d", 3, KICK.phase_fn,
                        hadamard_dual=((1, 3), pt.uncompress_gate(2, 1)))
    with pytest.raises(ValueError, match="Hadamard dual"):
        pr.DiagonalGate("d", 3, KICK.phase_fn,
                        hadamard_dual=((1, 2), pt.uncompress_gate(3, 1)))
