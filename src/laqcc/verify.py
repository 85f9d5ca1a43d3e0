"""Acceptance drivers: one callable per published guarantee.

Each driver raises ``AssertionError`` with a diagnostic on failure and
returns a short human-readable detail string on success.  The test
suite and the ``verify`` CLI subcommand both run these drivers, so the
two entry points can never drift apart.
"""
from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import clifford as cl
from . import macros as mc
from . import numbersys as ns
from . import program as pr
from . import protocols as pt
from . import sparse_state as ss

TOL = 1e-9


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def check_branches(branches, keep, target) -> Tuple[float, bool]:
    """Worst fidelity of register ``keep`` (keep[0] most significant) to
    ``target`` over ``branches``, and whether every other qubit was back
    at |0> on every branch."""
    worst, clean = 1.0, True
    for branch in branches:
        sub, rest = ss.split_register(branch.state, keep)
        clean &= rest == 0
        worst = min(worst, ss.fidelity(sub, target))
    return worst, clean


def _check_out(prog, target, branches) -> None:
    out = prog.registers["out"].qubits
    worst, clean = check_branches(branches, out, target)
    assert clean, "helper registers not restored"
    assert worst >= 1 - TOL, f"branch fidelity {worst}"


# ------------------------------------------------------------- criterion 1


def check_ghz(max_n: int = 6) -> str:
    checked = 0
    for n in range(2, max_n + 1):
        program = cl.ghz(n)
        amp = 1 / math.sqrt(2)
        target = ss.from_amplitudes(n, [(0, amp), ((1 << n) - 1, amp)])
        keep = tuple(reversed(program.registers["ghz"].qubits))
        if n <= 5:
            branches = pr.enumerate_branches(program)
            assert len(branches) == 2 ** (n - 1), len(branches)
        else:
            branches = pr.sample_branches(program, 100, seed=7)
        worst, _ = check_branches(branches, keep, target)
        assert worst >= 1 - TOL, (n, worst)
        checked += len(branches)
    return f"{checked} branches across n=2..{max_n}, all fidelity 1"


# ------------------------------------------------------------- criterion 2


def _random_word(rng, n, length, pairs=None):
    gates = []
    if pairs is None:
        pairs = [(i, i + 1) for i in range(n - 1)]
    for lo, hi in pairs:
        for _ in range(length):
            kind = int(rng.integers(4))
            if kind == 0:
                gates.append(
                    cl.CliffordGate("H", (hi if rng.integers(2) else lo,))
                )
            elif kind == 1:
                gates.append(
                    cl.CliffordGate("S", (hi if rng.integers(2) else lo,))
                )
            elif kind == 2:
                gates.append(cl.CliffordGate("CNOT", (hi, lo)))
            else:
                gates.append(cl.CliffordGate("CNOT", (lo, hi)))
    return gates


def _random_su2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))


def _flatten_agrees(circuit, rng) -> int:
    program = (
        cl.flatten_ladder(circuit)
        if circuit.shape == "ladder"
        else cl.flatten_grid(circuit)
    )
    apps, mats = [], []
    for q in range(circuit.n):
        m = _random_su2(rng)
        mats.append(m)
        apps.append(pr.GateApp(pr.MatrixGate(f"in{q}", m), (q,)))
    program = pr.LaqccProgram(
        program.num_qubits,
        dict(program.registers),
        [pr.QuantumLayer(tuple(apps))] + list(program.layers),
    )
    vec = np.array([1.0 + 0j])
    for m in reversed(mats):
        vec = np.kron(vec, m[:, 0])
    target_vec = circuit.unitary() @ vec
    target = ss.from_amplitudes(circuit.n, list(enumerate(target_vec)))
    keep = tuple(reversed(program.registers["outputs"].qubits))
    branches = pr.enumerate_branches(program)
    worst, _ = check_branches(branches, keep, target)
    assert worst >= 1 - TOL, (circuit.shape, circuit.n, worst)
    return len(branches)


def check_flattening(ladders: int = 100, grids: int = 20) -> str:
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(ladders):
        n = int(rng.integers(2, 6))
        circuit = cl.CliffordCircuit(
            "ladder", n, 1, tuple(_random_word(rng, n, 3))
        )
        checked += _flatten_agrees(circuit, rng)
    for _ in range(grids):
        n = d = 3
        pairs = []
        for t in range(d):
            start = 0 if t % 2 == 0 else 1
            pairs.extend((i, i + 1) for i in range(start, n - 1, 2))
        circuit = cl.CliffordCircuit(
            "grid", n, d, tuple(_random_word(rng, n, 2, pairs=pairs))
        )
        checked += _flatten_agrees(circuit, rng)
    return (
        f"{ladders} ladders + {grids} grids, {checked} branches, "
        f"all fidelity 1"
    )


# ------------------------------------------------------------- criterion 3


def check_uniform(max_q: int = 16) -> str:
    from . import amplifier

    for q in range(1, max_q + 1):
        prog, target = pt.uniform_superposition(q)
        _check_out(prog, target, pr.enumerate_branches(prog))
        n = pt.index_width(q)
        if q / (1 << n) >= 0.5:
            plan = amplifier.plan(1 << n, q)
            assert plan.J <= 1, (q, plan.J)
    return f"q=1..{max_q}, all branches fidelity 1, J <= 1 throughout"


# ------------------------------------------------------------- criterion 4


def check_w(max_n: int = 8) -> str:
    rounds_seen = set()
    for n in range(2, max_n + 1):
        prog, target = pt.w_state(n)
        if n <= 4:
            branches = pr.enumerate_branches(prog)
        else:
            branches = pr.sample_branches(prog, 100, seed=n)
        _check_out(prog, target, branches)
        rounds_seen.add(pr.resources(prog).rounds)
    assert len(rounds_seen) == 1, rounds_seen
    return (
        f"n=2..{max_n} fidelity 1, registers clean, "
        f"rounds constant ({rounds_seen.pop()})"
    )


# ------------------------------------------------------------- criterion 5


def filling_good_probability(n: int, k: int) -> float:
    """Good-subspace probability straight after Filling, before any
    amplification: the weight of system patterns with exactly k ones."""
    b = pt.index_width(n)
    builder = pr.Builder()
    system = builder.alloc("out", n, "system")
    indexes = [builder.alloc(f"index{l}", b, "index") for l in range(k)]
    (flag,) = builder.alloc("flag", 1, "flag")
    pt.filling_fragment(indexes, system, flag, n).emit(builder)
    state, _ = pr.execute(builder.build(), pr.SeededPolicy(0))
    good = 0.0
    for v, a in state.amplitudes.items():
        pattern = v & ((1 << n) - 1)
        if pattern.bit_count() == k:
            good += abs(a) ** 2
    return good


def check_dicke_small_k(
    cases: Tuple[Tuple[int, int], ...] = ((4, 1), (4, 2), (6, 2), (8, 2)),
) -> str:
    details = []
    for n, k in cases:
        prog, target = pt.dicke_small_k(n, k)
        branches = pr.enumerate_branches(prog)
        _check_out(prog, target, branches)
        expected = math.perm(n, k) / n**k
        measured = filling_good_probability(n, k)
        assert _close(measured, expected), (n, k, measured, expected)
        assert measured > math.exp(-2 * k * k / n) - TOL, (n, k, measured)
        if (n, k) == (4, 2):
            outcomes = {
                tuple(ev.outcome for ev in b.record) for b in branches
            }
            assert len(outcomes) == math.factorial(k), outcomes
        details.append(f"({n},{k}):p={measured:.6f}")
    return "fidelity 1 on all branches; " + " ".join(details)


# ------------------------------------------------------------- criterion 6


def check_dicke_factoradic(max_n: int = 6) -> str:
    c = 1  # fixed round-budget constant across the whole sweep
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            prog, target = pt.dicke_factoradic(n, k)
            _check_out(prog, target, pr.enumerate_branches(prog))
            rounds = pr.resources(prog).rounds
            assert rounds <= c * max(1, math.ceil(math.log2(max(n, 2)))), (
                n,
                k,
                rounds,
            )
    # direct cross-agreement where both protocols apply
    for n in range(2, max_n + 1):
        for k in range(1, pt.small_k_policy_bound(n) + 1):
            prog_a, _ = pt.dicke_small_k(n, k)
            prog_b, _ = pt.dicke_factoradic(n, k)
            state_b, _ = pr.execute(prog_b, pr.SeededPolicy(0))
            sub_b, _ = ss.split_register(
                state_b, prog_b.registers["out"].qubits
            )
            worst, _ = check_branches(
                pr.enumerate_branches(prog_a),
                prog_a.registers["out"].qubits,
                sub_b,
            )
            assert worst >= 1 - TOL, (n, k, worst)
    return (
        f"n<={max_n} all k fidelity 1; protocols agree; "
        f"rounds within {c}*ceil(log2 n)"
    )


# ------------------------------------------------------------- criterion 7


def check_numbersys(max_n: int = 8, birthday_n: int = 64) -> str:
    for n in range(1, max_n + 1):
        counts: Dict[Tuple[int, ...], int] = {}
        for k in range(n + 1):
            counts.clear()
            for digits in ns.all_factoradics(n):
                bits = tuple(ns.fac_to_comb(digits, k))
                counts[bits] = counts.get(bits, 0) + 1
                back = ns.comb_to_fac(
                    bits, *ns.fac_decompose(digits, k)[1:]
                )
                assert tuple(back) == tuple(digits), (digits, k)
            expected = math.factorial(k) * math.factorial(n - k)
            assert all(v == expected for v in counts.values()), (n, k)
            assert len(counts) == math.comb(n, k)
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            ranked = []
            for m in range(math.comb(n, k)):
                pos = ns.int_to_comb(m, k, n)
                assert ns.comb_to_int(pos) == m
                bits = ns.positions_to_bits(pos, n)
                assert ns.bits_to_positions(bits) == pos
                ranked.append(
                    sum(b << (n - 1 - i) for i, b in enumerate(bits))
                )
            assert ranked == sorted(ranked)  # rank = lexicographic order
    for n in range(2, birthday_n + 1):
        for k in range((n - 1) // 2 + 1):
            if k >= n / 2:
                continue
            _, _, holds = ns.birthday_bound_check(n, k)
            assert holds, (n, k)
    return (
        f"preimage counts, bijections, rank agreement (n<={max_n}); "
        f"birthday bound (n<={birthday_n})"
    )


# ------------------------------------------------------------- criterion 8


def check_macros(max_n: int = 4) -> str:
    gates = []
    for n in range(1, max_n + 1):
        gates.extend(
            [
                mc.fanout(n),
                mc.or_n(n),
                mc.and_n(n),
                mc.equal_i(n, n - 1),
                mc.add_n(n),
                mc.hammingweight(n),
                mc.exact_t(n, min(1, n)),
                mc.threshold_t(n, 1),
                mc.permutation(tuple(range(n))[::-1]),
            ]
        )
        if n >= 2:
            gates.extend([mc.equality(n), mc.greaterthan(n)])
    for gate in gates:
        if gate.num_bits > 12:
            continue
        seen = set()
        inv = gate.inverse()
        for v in range(1 << gate.num_bits):
            img = gate.fn(v)
            assert img not in seen
            seen.add(img)
            assert inv.fn(img) == v
    # gadget vs semantic fanout, all branches
    m = 2
    gadget = mc.fanout_gadget(m)
    outs = gadget.registers["fanout_out"].qubits
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    prep = pr.QuantumLayer((pr.GateApp(pr.MatrixGate("H", h), (0,)),))
    program = pr.LaqccProgram(
        gadget.num_qubits,
        dict(gadget.registers),
        [prep] + list(gadget.layers),
    )
    sem = ss.SparseState.basis(m + 1)
    sem = ss.apply_unitary(sem, h, [m])
    sem = mc.fanout(m).apply(sem, tuple(range(m, -1, -1)))
    for branch in pr.enumerate_branches(program):
        sub, _ = ss.split_register(branch.state, outs)
        assert ss.fidelity(sub, sem) >= 1 - TOL
    # gadget vs semantic commuting-gate parallelization
    rng = np.random.default_rng(11)
    k = 2
    diags = [
        np.diag(np.exp(1j * rng.normal(size=1 << k))) for _ in range(3)
    ]
    layers, total = mc.parallelize_commuting(diags)
    sem_gate = mc.product_diagonal([np.diag(g) for g in diags], k)
    amps = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    amps /= np.linalg.norm(amps)
    state = ss.from_amplitudes(total, list(enumerate(amps)))
    for layer in layers:
        for app in layer.apps:
            state = app.gate.apply(state, app.qubits)
    sub, rest = ss.split_register(state, tuple(range(k - 1, -1, -1)))
    assert rest == 0
    ref = sem_gate.apply(
        ss.from_amplitudes(k, list(enumerate(amps))), (1, 0)
    )
    assert ss.fidelity(sub, ref) >= 1 - TOL
    # QFT round trip
    g = mc.qft(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = ss.from_amplitudes(3, list(enumerate(amps)))
    back = g.inverse().apply(g.apply(s, (2, 1, 0)), (2, 1, 0))
    assert ss.fidelity(back, s) >= 1 - TOL
    return (
        f"{len(gates)} macros bijective with clean scratch; gadgets "
        f"match semantics; QFT round trip exact"
    )


# ------------------------------------------------------------- criterion 9


def _transform_programs():
    yield "ghz3", cl.ghz(3), tuple(
        reversed(cl.ghz(3).registers["ghz"].qubits)
    ), ss.from_amplitudes(
        3, [(0, 1 / math.sqrt(2)), (7, 1 / math.sqrt(2))]
    )
    prog, target = pt.w_state(4)
    yield "w4", prog, prog.registers["out"].qubits, target
    prog, target = pt.uniform_superposition(3)
    yield "uniform3", prog, prog.registers["out"].qubits, target


def check_transforms() -> str:
    for name, program, keep, target in _transform_programs():
        deferred = pr.enumerate_branches(pr.defer_measurements(program))
        worst, _ = check_branches(deferred, keep, target)
        assert worst >= 1 - TOL, (name, "defer", worst)
        for branch in pr.enumerate_branches(program):
            unitary, flag = pr.to_postselected(program, branch.record)
            state, _ = pr.execute(unitary, pr.SeededPolicy(0))
            flag_prob = sum(
                abs(a) ** 2
                for v, a in state.amplitudes.items()
                if (v >> flag) & 1
            )
            assert _close(flag_prob, branch.probability), (
                name,
                flag_prob,
                branch.probability,
            )
            kept = {
                v: a
                for v, a in state.amplitudes.items()
                if (v >> flag) & 1
            }
            norm = math.sqrt(sum(abs(a) ** 2 for a in kept.values()))
            cond = ss.SparseState(
                unitary.num_qubits,
                {v: a / norm for v, a in kept.items()},
            )
            sub, _ = ss.split_register(cond, keep)
            f = ss.fidelity(sub, target)
            assert f >= 1 - TOL, (name, "postselect", f)
    return "defer + postselect preserve ghz3, w4, uniform3 exactly"


# ------------------------------------------------------------ criterion 10


def check_iqp(circuits: int = 20, max_n: int = 5) -> str:
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(circuits):
        n = int(rng.integers(2, max_n + 1))
        num_gates = int(rng.integers(1, 5))
        gates = []
        for _ in range(num_gates):
            arity = int(rng.integers(1, 3))
            support = tuple(
                int(q)
                for q in rng.choice(n, size=arity, replace=False)
            )
            diag = np.exp(
                1j * math.pi * rng.integers(0, 8, size=1 << arity) / 4
            )
            gates.append((np.diag(diag), support))
        prog = pt.iqp_to_laqcc(gates, n)
        ref = pt.iqp_direct_distribution(gates, n)
        probs: Dict[int, float] = {}
        for b in pr.enumerate_branches(prog):
            out = b.record[-1].outcome
            probs[out] = probs.get(out, 0.0) + b.probability
        tv = 0.5 * sum(
            abs(probs.get(v, 0.0) - ref.get(v, 0.0))
            for v in range(1 << n)
        )
        assert tv <= TOL, tv
        worst = max(worst, tv)
    return f"{circuits} random circuits, worst TV distance {worst:.2e}"


# ----------------------------------------------------------------- runner


CRITERIA: List[Tuple[int, str, Callable[[], str]]] = [
    (1, "ghz", check_ghz),
    (2, "clifford-flattening", check_flattening),
    (3, "uniform-superposition", check_uniform),
    (4, "w-state", check_w),
    (5, "dicke-small-k", check_dicke_small_k),
    (6, "dicke-factoradic", check_dicke_factoradic),
    (7, "number-systems", check_numbersys),
    (8, "gate-macros", check_macros),
    (9, "transforms", check_transforms),
    (10, "iqp-embedding", check_iqp),
]


def run_all(max_n: int | None = None) -> List[dict]:
    """Run every acceptance driver; ``max_n`` caps the sweep sizes of
    the size-parameterised drivers (for quick smoke runs)."""
    capped = {
        "ghz": lambda: check_ghz(max(2, min(6, max_n))),
        "clifford-flattening": lambda: check_flattening(
            min(100, 10 * max_n), min(20, 2 * max_n)
        ),
        "uniform-superposition": lambda: check_uniform(
            min(16, 1 << max_n if max_n < 5 else 16)
        ),
        "w-state": lambda: check_w(max(2, min(8, max_n))),
        "dicke-small-k": lambda: check_dicke_small_k(
            tuple(
                (n, k)
                for n, k in ((4, 1), (4, 2), (6, 2), (8, 2))
                if n <= max(4, max_n)
            )
        ),
        "dicke-factoradic": lambda: check_dicke_factoradic(
            max(1, min(6, max_n))
        ),
        "number-systems": lambda: check_numbersys(max(1, min(8, max_n))),
        "iqp-embedding": lambda: check_iqp(
            min(20, 5 * max_n), max(2, min(5, max_n))
        ),
    } if max_n is not None else {}
    results = []
    for number, name, driver in CRITERIA:
        try:
            detail = capped.get(name, driver)()
            results.append(
                {
                    "criterion": number,
                    "name": name,
                    "passed": True,
                    "detail": detail,
                }
            )
        except AssertionError as exc:
            results.append(
                {
                    "criterion": number,
                    "name": name,
                    "passed": False,
                    "detail": str(exc),
                }
            )
    return results
