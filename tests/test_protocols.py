import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import laqcc
from laqcc import amplifier as amp
from laqcc import clifford as cl
from laqcc import macros as mc
from laqcc import numbersys as ns
from laqcc import program as pr
from laqcc import protocols as pt
from laqcc import sparse_state as ss


def run_out(prog, target, policy=None):
    state, _ = pr.execute(prog, policy or pr.SeededPolicy(0))
    sub, rest = ss.split_register(state, prog.registers["out"].qubits)
    assert rest == 0  # every helper register back to |0>
    return ss.fidelity(sub, target)


def all_branches_out(prog, target):
    branches = pr.enumerate_branches(prog)
    for b in branches:
        sub, rest = ss.split_register(b.state, prog.registers["out"].qubits)
        assert rest == 0
        assert ss.fidelity(sub, target) == pytest.approx(1.0, abs=1e-9)
    return branches


# ----------------------------------------------------- uniform superposition


@pytest.mark.parametrize("q", range(1, 17))
def test_uniform_all_ranges(q):
    prog, target = pt.uniform_superposition(q)
    all_branches_out(prog, target)


def test_uniform_frozen_q3():
    prog, target = pt.uniform_superposition(3)
    assert target.amplitudes[0] == pytest.approx(1 / math.sqrt(3))
    assert 3 not in target.amplitudes
    assert run_out(prog, target) == pytest.approx(1.0, abs=1e-9)


def test_uniform_single_iteration_when_half_full():
    for q in range(1, 17):
        n = pt.index_width(q)
        p = amp.plan(1 << n, q)
        if q / (1 << n) >= 0.5:
            assert p.J <= 1


def test_uniform_has_no_rounds():
    for q in (3, 5, 11):
        prog, _ = pt.uniform_superposition(q)
        assert pr.resources(prog).rounds == 0


# ------------------------------------------------------------------ W state


def test_w2_frozen():
    prog, target = pt.w_state(2)
    amp_val = 1 / math.sqrt(2)
    assert target.amplitudes == pytest.approx(
        {0b01: amp_val, 0b10: amp_val}
    )
    assert run_out(prog, target) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 7))
def test_w_state_exact(n):
    prog, target = pt.w_state(n)
    assert run_out(prog, target) == pytest.approx(1.0, abs=1e-9)


def test_w_rounds_constant_in_n():
    rounds = {pr.resources(pt.w_state(n)[0]).rounds for n in range(2, 8)}
    assert rounds == {0}


def test_w_layout_is_valid_grid():
    for n in (3, 5):
        prog, _ = pt.w_state(n)
        layout = pt.w_layout(n)
        assert set(layout.coords) == set(range(prog.num_qubits))
        pr.validate_layout(prog, layout)


def test_uncompress_compress_are_involutions():
    g = pt.uncompress_gate(3, 2)
    patterns = np.arange(1 << g.num_bits)
    assert np.array_equal(g.fn(g.fn(patterns)), patterns)


# ------------------------------------------------------------- Dicke states


def test_dicke_target_frozen_4_2():
    t = pt.dicke_target(4, 2)
    amp_val = 1 / math.sqrt(6)
    assert sorted(t.amplitudes) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert all(a == pytest.approx(amp_val) for a in t.amplitudes.values())


def test_dicke_k1_is_w_state():
    _, d = pt.dicke_small_k(4, 1)
    _, w = pt.w_target(4), pt.w_target(4)
    assert ss.fidelity(d, pt.w_target(4)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k, message", [
    (-1, "need 0 <= k <= n"),
    (0, "k=0 outside the small-k policy bound ceil(sqrt(4)) = 2; use the"
        " factoradic protocol"),
    (3, "k=3 outside the small-k policy bound ceil(sqrt(4)) = 2; use the"
        " factoradic protocol"),
])
def test_dicke_small_k_refusals(k, message):
    """Only a k that the factoradic protocol takes is pointed at it."""
    with pytest.raises(ValueError) as refused:
        pt.dicke_small_k(4, k)
    assert str(refused.value) == message


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)])
def test_dicke_small_k_all_branches(n, k):
    prog, target = pt.dicke_small_k(n, k)
    branches = all_branches_out(prog, target)
    if k > 1:
        # one feed-forward round over the k! rank assignments
        assert len(branches) == math.factorial(k)
        assert pr.resources(prog).rounds == 1


# sha256 over every branch of dicke_small_k(n, k): each record, ``repr``
# of its probability, its peak support, and its state's indices and
# amplitudes sorted by index, so the storage order does not count.  The
# amplitude bytes depend on the platform and the numpy version, as the
# corpus digests do.
SMALL_K_VALUES = {
    (4, 1): "203eaf5802827eadc7ecea2a9d2ca318ad5c1df32f2dede0000402cf7398d474",
    (4, 2): "8f8b24e3cc30ad8d58e1c88adeb13aaef4043b0fd84f38396ba9de060f5a12c0",
    (5, 2): "e65fcbbac0533e6a2e184ab16544ece11eca5ac9fdbd432c39daadedd1752f53",
    (6, 2): "13f713abdfd590bc818ba14b898513eb31829c0b03177dc9174ef461a97b5a9e",
    (8, 2): "d3fdf55484efc674b6ad8d12b1cbdae6e7027df956aaaec7f09d147d2a8fe59e",
    (9, 3): "0cb49f7e3dbf5d52d816186169b165ff4875816332dcf68d325ffc013027e301",
}


@pytest.mark.parametrize("n,k", sorted(SMALL_K_VALUES))
def test_dicke_small_k_branch_values_are_pinned(n, k):
    h = hashlib.sha256()
    for branch in pr.enumerate_branches(pt.dicke_small_k(n, k)[0]):
        order = np.argsort(branch.state.idx, kind="stable")
        for part in (repr(branch.record).encode(),
                     repr(branch.probability).encode(),
                     repr(branch.peak_support).encode(),
                     branch.state.idx[order].tobytes(),
                     branch.state.amp[order].tobytes()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    assert h.hexdigest() == SMALL_K_VALUES[n, k]


@pytest.mark.parametrize("k,b", [(1, 3), (2, 1), (2, 3), (2, 6), (3, 2)])
def test_sort_by_ranks_is_a_bijection_undone_by_its_inverse(k, b):
    gate = pt.sort_by_ranks(k, b)
    assert gate.num_bits <= 14
    v = np.arange(1 << gate.num_bits)
    image = gate.fn(v)
    assert np.array_equal(np.sort(image), v)
    assert np.array_equal(gate.inverse().fn(image), v)
    assert image.tolist() == gate.fn(v.astype(object)).tolist()


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
def test_dicke_small_k_postselected_reaches_the_target(n, k):
    """On every branch, the post-selected program flags it with the
    branch's probability, and the flagged part is the target with every
    helper at 0 and every comparison flag at 1."""
    program, target = pt.dicke_small_k(n, k)
    out = program.registers["out"].qubits
    for branch in pr.enumerate_branches(program):
        unitary, flag = pr.to_postselected(program, branch.record)
        state, _ = pr.execute(unitary, pr.SeededPolicy(0))
        _, p, flagged = ss.measure(state, (flag,), forced=1)
        assert p == pytest.approx(branch.probability, abs=1e-12)
        sub, rest = ss.split_register(flagged, out)
        flags = unitary.registers["postselect_flags"].qubits + (flag,)
        others = sorted(set(range(unitary.num_qubits)) - set(out))
        assert rest == sum(1 << i for i, q in enumerate(others) if q in flags)
        assert ss.fidelity(sub, target) == pytest.approx(1.0, abs=1e-9)


def test_dicke_small_k_policy_rejects_large_k():
    with pytest.raises(ValueError):
        pt.dicke_small_k(4, 3)  # ceil(sqrt(4)) = 2


def test_cleaning_gate_zeroes_sorted_registers():
    n, k, b = 4, 2, 2
    g = pt.cleaning_gate(n, k, b)
    from itertools import combinations

    for pos in combinations(range(n), k):
        s = sum(1 << (n - 1 - p) for p in pos)
        regs = 0
        for p in pos:
            regs = (regs << b) | p
        assert g.fn(np.array([(regs << n) | s]))[0] == s


def test_cleaning_gadget_matches_basis_map():
    n, k, b = 4, 2, 2
    from itertools import combinations

    # qubit i holds value bit i; list registers msb-first
    system = tuple(range(n - 1, -1, -1))
    indexes = [
        tuple(range(n + (l + 1) * b - 1, n + l * b - 1, -1))
        for l in range(k)
    ]
    total = n + k * b
    norm = 1 / math.sqrt(math.comb(n, k))
    entries = []
    for pos in combinations(range(n), k):
        s = sum(1 << (n - 1 - p) for p in pos)
        v = s
        for l, p in enumerate(pos):
            v |= p << (n + l * b)
        entries.append((v, norm))
    state = ss.from_amplitudes(total, entries)
    ref = pt.cleaning_gate(n, k, b).apply(
        state, indexes[0] + indexes[1] + system
    )
    out = state
    for layer in pt.cleaning_gadget_layers(indexes, system, n):
        for app in layer.apps:
            out = app.gate.apply(out, app.qubits)
    assert ss.fidelity(out, ref) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 6))
def test_dicke_factoradic_all_k(n):
    for k in range(n + 1):
        prog, target = pt.dicke_factoradic(n, k)
        assert run_out(prog, target) == pytest.approx(1.0, abs=1e-9)


def test_dicke_factoradic_no_rounds():
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        prog, _ = pt.dicke_factoradic(n, k)
        assert pr.resources(prog).rounds == 0


def test_dicke_protocols_agree():
    for n, k in [(4, 2), (5, 2), (6, 2)]:
        prog_a, t_a = pt.dicke_small_k(n, k)
        prog_b, t_b = pt.dicke_factoradic(n, k)
        assert ss.fidelity(t_a, t_b) == pytest.approx(1.0, abs=1e-9)
        assert run_out(prog_b, t_a) == pytest.approx(1.0, abs=1e-9)
        all_branches_out(prog_a, t_b)


def test_factoradic_support_tracking():
    prog, _ = pt.dicke_factoradic(4, 2)
    peak = pt.max_support(prog)
    assert peak == math.factorial(4)


# ------------------------------------------------------------ IQP embedding


CZ = np.diag([1, 1, 1, -1]).astype(complex)
T = np.diag([1.0, np.exp(1j * math.pi / 4)])


def tv_distance(p, q):
    """Total variation distance of two arrays of outcome probabilities."""
    return 0.5 * np.abs(p - q).sum()


def outcome_distribution(branches, n):
    """Each n-bit outcome's probability over ``branches``, indexed by
    outcome."""
    return np.bincount([b.record[-1].outcome for b in branches],
                       [b.probability for b in branches], 1 << n)


def test_iqp_embedding_matches_direct():
    gates = [(CZ, (2, 1)), (T, (0,)), (CZ, (1, 0))]
    n = 3
    prog = pt.iqp_to_laqcc(gates, n)
    ref = pt.iqp_direct_distribution(gates, n)
    probs = outcome_distribution(pr.enumerate_branches(prog), n)
    assert tv_distance(probs, ref) < 1e-9


def test_iqp_no_gates_is_identity_distribution():
    prog = pt.iqp_to_laqcc([], 2)
    branches = pr.enumerate_branches(prog)
    probs = {b.record[-1].outcome: b.probability for b in branches}
    assert probs == pytest.approx({0: 1.0})


@pytest.mark.parametrize("seed", range(4))
def test_iqp_program_round_trips_through_json(seed):
    """The lifted diagonals dump as ``diagonal`` entries; the loaded
    program re-dumps byte for byte and gives the same branches."""
    rng = np.random.default_rng([seed, 41])
    n = 3 + seed % 2
    gates = [(CZ, (2, 1)), (T, (0,))] + [
        (np.diag(np.exp(1j * rng.random(4) * 2 * math.pi)),
         tuple(int(q) for q in rng.choice(n, 2, replace=False)))
        for _ in range(seed)
    ]
    prog = pt.iqp_to_laqcc(gates, n)
    text = pr.dumps(prog)
    back = pr.loads(text)
    assert pr.dumps(back) == text
    assert '"name": "diagonal"' in text
    assert [(b.record, b.probability) for b in pr.enumerate_branches(back)] == [
        (b.record, b.probability) for b in pr.enumerate_branches(prog)]


def test_diagonal_gate_rejects_bad_phases():
    with pytest.raises(ValueError, match="power of two"):
        pr.diagonal("d", [[1.0, 0.0]] * 3)
    with pytest.raises(ValueError, match="unit modulus"):
        pr.diagonal("d", [[1.0, 0.0], [0.5, 0.0]])


def test_iqp_rejects_non_diagonal():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        pt.iqp_to_laqcc([(x, (0,))], 2)


@pytest.mark.parametrize("build", [pt.iqp_to_laqcc, pt.iqp_direct_distribution])
@pytest.mark.parametrize("gate, message", [
    ((cl.X_GATE.matrix, (0,)), "not diagonal"),
    ((np.diag(CZ), (0,)), "needs a table of 2 phases"),
    ((np.diag(CZ), (0, 0)), "distinct qubits"),
    ((np.diag(CZ), (0, 5)), "distinct qubits"),
    ((np.array([1.0, 0.5]), (1,)), "unit modulus"),
])
def test_iqp_builder_and_reference_read_gates_alike(build, gate, message):
    with pytest.raises(ValueError, match=message):
        build([gate], 2)


def seeded_iqp(rng, n, count, arity):
    """``count`` gates on ``arity`` random qubits, uniform random phases."""
    return [(np.exp(2j * math.pi * rng.random(1 << arity)),
             tuple(int(q) for q in rng.choice(n, arity, replace=False)))
            for _ in range(count)]


def kron_distribution(gates, n):
    """The reference as it was first written: H^n as a Kronecker product."""
    state = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    for diag, support in gates:
        state = state * pt.lift_diagonal(diag, support, n)
    full = np.array([[1.0]])
    for _ in range(n):
        full = np.kron(full, cl.H_GATE.matrix)
    return np.abs(full @ state) ** 2


@pytest.mark.parametrize("n", range(1, 9))
def test_iqp_butterfly_reference_matches_kronecker(n):
    rng = np.random.default_rng([n, 13])
    gates = seeded_iqp(rng, n, 3, min(n, 2)) + seeded_iqp(rng, n, 1, 1)
    ref = pt.iqp_direct_distribution(gates, n)
    assert ref.shape == (1 << n,)
    assert np.allclose(ref, kron_distribution(gates, n), rtol=0, atol=1e-12)


def test_iqp_at_twelve_qubits_builds_and_checks_within_budget():
    n = 12
    gates = seeded_iqp(np.random.default_rng(12), n, 4, 2)
    start = time.perf_counter()
    prog = pt.iqp_to_laqcc(gates, n)
    probs = outcome_distribution(pr.enumerate_branches(prog), n)
    assert tv_distance(probs, pt.iqp_direct_distribution(gates, n)) <= 1e-9
    assert time.perf_counter() - start < 2.0


# ------------------------------------------------------------ JSON round trip

ROUND_TRIP = (
    [(f"ghz{n}", lambda n=n: cl.ghz(n)) for n in range(2, 7)]
    + [(f"w{n}", lambda n=n: pt.w_state(n)[0]) for n in range(2, 9)]
    + [
        (f"uniform{q}", lambda q=q: pt.uniform_superposition(q)[0])
        for q in range(1, 17)
    ]
    + [
        (f"small_k{n},{k}", lambda n=n, k=k: pt.dicke_small_k(n, k)[0])
        for n, k in ((4, 1), (4, 2), (6, 2))
    ]
    + [
        (f"factoradic{n},{k}", lambda n=n, k=k: pt.dicke_factoradic(n, k)[0])
        for n in range(1, 6)
        for k in range(n + 1)
    ]
)


@pytest.mark.parametrize(
    "build", [b for _, b in ROUND_TRIP], ids=[name for name, _ in ROUND_TRIP]
)
def test_every_protocol_round_trips_through_json(build):
    program = build()
    text = pr.dumps(program)
    loaded = pr.loads(text)
    assert pr.dumps(loaded) == text
    before = pr.enumerate_branches(program)
    after = pr.enumerate_branches(loaded)
    assert [b.record for b in after] == [b.record for b in before]
    for a, b in zip(after, before):
        assert abs(a.probability - b.probability) <= 1e-15
        assert a.state.amplitudes.keys() == b.state.amplitudes.keys()
        for index, amp in b.state.amplitudes.items():
            assert abs(a.state.amplitudes[index] - amp) <= 1e-12


def test_protocol_json_has_no_matrix_entry():
    programs = [cl.ghz(n) for n in range(2, 9)]
    programs += [pt.w_state(n)[0] for n in range(2, 9)]
    programs += [pt.uniform_superposition(q)[0] for q in range(1, 17)]
    programs += [pt.dicke_small_k(4, 2)[0], pt.dicke_factoradic(4, 2)[0]]
    for program in programs:
        assert '"matrix"' not in pr.dumps(program)


def test_fresh_interpreter_loads_every_protocol(tmp_path):
    """``program.loads`` needs no import beyond ``laqcc.program``."""
    texts = {
        name: pr.dumps(program)
        for name, program in (
            ("ghz3", cl.ghz(3)),
            ("w4", pt.w_state(4)[0]),
            ("uniform5", pt.uniform_superposition(5)[0]),
            ("small-k4,2", pt.dicke_small_k(4, 2)[0]),
            ("factoradic4,2", pt.dicke_factoradic(4, 2)[0]),
            ("fanout2", mc.fanout_gadget(2)),
        )
    }
    path = tmp_path / "programs.json"
    path.write_text(json.dumps(texts))
    script = (
        "import json, sys\n"
        "from laqcc import program\n"
        "texts = json.load(open(sys.argv[1]))\n"
        "print(json.dumps({name: program.dumps(program.loads(text))\n"
        "                  for name, text in texts.items()}))\n"
    )
    source = str(Path(laqcc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": source},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == texts
