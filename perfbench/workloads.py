"""Seeded workloads of the laqcc benchmark.

A workload is a sequence of passes.  ``make_pass(workload, seed, index)``
draws one pass from ``(seed, index)`` alone, so the same seed always gives
the same items.  Drawing happens here, outside the timed region; an
item's ``run()`` is the timed part: it calls laqcc's public functions on
the drawn inputs and checks every output, raising :class:`CheckFailed`
on a wrong result.

References are computed here with numpy or closed forms, never with the
laqcc function under test.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from laqcc import cli
from laqcc import clifford as cl
from laqcc import numbersys as ns
from laqcc import program as pr
from laqcc import protocols as pt

TOL = 1e-9


class CheckFailed(AssertionError):
    """An item produced a wrong output."""


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], None]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# References: closed forms and dense numpy simulation
# --------------------------------------------------------------------------

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
DENSE = {"H": H, "S": S, "CNOT": CNOT}


def ghz_target(n: int) -> np.ndarray:
    target = np.zeros(1 << n, dtype=complex)
    target[[0, (1 << n) - 1]] = 1 / math.sqrt(2)
    return target


def dicke_target(n: int, k: int) -> np.ndarray:
    target = np.zeros(1 << n, dtype=complex)
    for pos in itertools.combinations(range(n), k):
        target[sum(1 << p for p in pos)] = 1 / math.sqrt(math.comb(n, k))
    return target


def _apply_dense(
    psi: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], n: int
) -> np.ndarray:
    """Apply ``matrix`` (qubits[0] most significant) to an n-qubit vector
    whose basis index has qubit q at bit q."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    tensor = psi.reshape((2,) * n)
    tensor = np.moveaxis(tensor, axes, range(k))
    shape = tensor.shape
    tensor = (matrix @ tensor.reshape(1 << k, -1)).reshape(shape)
    return np.moveaxis(tensor, range(k), axes).reshape(-1)


def _random_su2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))


def _pairs(shape: str, n: int, depth: int) -> List[Tuple[int, int]]:
    if shape == "ladder":
        return [(i, i + 1) for i in range(n - 1)]
    pairs = []
    for t in range(depth):
        pairs.extend((i, i + 1) for i in range(t % 2, n - 1, 2))
    return pairs


def random_clifford(
    rng: np.random.Generator, shape: str, n: int, depth: int, per_pair: int
) -> cl.CliffordCircuit:
    """Random H/S/CNOT word, ``per_pair`` gates on each step of the
    ladder or brickwork order."""
    gates = []
    for lo, hi in _pairs(shape, n, depth):
        for _ in range(per_pair):
            kind = int(rng.integers(4))
            if kind < 2:
                q = hi if rng.integers(2) else lo
                gates.append(cl.CliffordGate("HS"[kind], (q,)))
            else:
                pair = (hi, lo) if kind == 2 else (lo, hi)
                gates.append(cl.CliffordGate("CNOT", pair))
    return cl.CliffordCircuit(shape, n, depth, tuple(gates))


def _flatten(circuit: cl.CliffordCircuit) -> pr.LaqccProgram:
    """Flatten through the module attribute at call time, so a tracer
    installed after the item was drawn sees the call."""
    if circuit.shape == "ladder":
        return cl.flatten_ladder(circuit)
    return cl.flatten_grid(circuit)


def junction_count(circuit: cl.CliffordCircuit) -> int:
    """Wire hand-offs of the canonical flattening: every step input that
    an earlier step already consumed needs one Bell pair."""
    consumed = set()
    count = 0
    for pair in _pairs(circuit.shape, circuit.n, circuit.depth):
        count += sum(1 for w in pair if w in consumed)
        consumed.update(pair)
    return count


def iqp_distribution(
    gates: Sequence[Tuple[np.ndarray, Tuple[int, ...]]], n: int
) -> np.ndarray:
    """Output distribution of H^n D H^n |0>, indexed by basis state."""
    v = np.arange(1 << n)
    psi = np.full(1 << n, 1 / math.sqrt(1 << n), dtype=complex)
    for diag, support in gates:
        sub = np.zeros(1 << n, dtype=np.int64)
        for q in support:
            sub = (sub << 1) | ((v >> q) & 1)
        psi = psi * diag[sub]
    for q in range(n):
        psi = _apply_dense(psi, H, (q,), n)
    return np.abs(psi) ** 2


def _helper_bits(keep_mask: int, record: pr.MeasurementRecord) -> int:
    """Basis bits, in place, that the qubits outside ``keep_mask`` must
    hold when every measured qubit still holds its last outcome and every
    unmeasured one is |0>."""
    bit = {}
    for ev in record:
        width = len(ev.qubits)
        for pos, q in enumerate(ev.qubits):
            bit[q] = (ev.outcome >> (width - 1 - pos)) & 1
    return sum(b << q for q, b in bit.items()) & ~keep_mask


def _check_branches(
    name: str,
    branches: Sequence[pr.Branch],
    keep: Sequence[int],
    target: np.ndarray,
    helpers: str,
    expected_count: int | None = None,
) -> None:
    """Every branch: ``keep`` (keep[0] most significant) holds ``target``
    with fidelity within TOL, global phase aside; helper qubits are |0>
    (``helpers="zero"``) or hold their own measurement outcome
    (``helpers="record"``); branch probabilities sum to 1.  Computed
    from the raw amplitudes, without laqcc's own state functions."""
    _check(len(branches) > 0, f"{name}: no branches")
    if expected_count is not None:
        _check(
            len(branches) == expected_count,
            f"{name}: {len(branches)} branches, expected {expected_count}",
        )
    keep_mask = sum(1 << q for q in keep)
    conj = target.conj().tolist()
    total = 0.0
    for branch in branches:
        want = 0 if helpers == "zero" else _helper_bits(keep_mask,
                                                         branch.record)
        overlap = 0j
        for index, amp in branch.state.amplitudes.items():
            rest = index & ~keep_mask
            _check(rest == want, f"{name}: helper bits {rest:b}, want {want:b}")
            k = 0
            for q in keep:
                k = (k << 1) | ((index >> q) & 1)
            overlap += amp * conj[k]
        f = abs(overlap)
        _check(f >= 1 - TOL, f"{name}: branch fidelity {f!r}")
        total += branch.probability
    _check(abs(total - 1) <= TOL, f"{name}: probabilities sum to {total!r}")


# --------------------------------------------------------------------------
# prep_ladder: the user's `laqcc prep` command, in process
# --------------------------------------------------------------------------


def prep_item(argv: List[str]) -> Item:
    label = " ".join(argv[1:-2])

    def run() -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        _check(code == 0, f"{label}: exit code {code}: {err.getvalue()}")
        doc = json.loads(out.getvalue())
        _check(
            doc["fidelity"] >= 1 - TOL,
            f"{label}: fidelity {doc['fidelity']!r}",
        )
        _check(doc["registers_clean"] is True, f"{label}: registers dirty")
        _check(doc["branches_checked"] >= 1, f"{label}: no branches")

    return Item(label, run)


def _uniform_qs(rng: np.random.Generator, count: int) -> List[int]:
    """``count`` draws of q uniform on [2, 1023], stratified by index
    width: each width gets its share of the range, rounded by largest
    remainder, so every pass holds the same mix of register sizes."""
    strata = [(max(2, (1 << (w - 1)) + 1), min(1023, 1 << w))
              for w in range(1, 11)]
    shares = [count * (hi - lo + 1) / 1022 for lo, hi in strata]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(10), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:count - sum(counts)]:
        counts[i] += 1
    return [int(q) for (lo, hi), c in zip(strata, counts)
            for q in rng.integers(lo, hi + 1, size=c)]


def prep_ladder_pass(rng: np.random.Generator, size: dict) -> List[Item]:
    argvs = [["ghz", "--n", str(n), "--branches", "sample:4"]
             for n in size["ghz"]]
    argvs += [["w", "--n", str(n)] for n in size["w"]]
    argvs += [["uniform", "--q", str(q)]
              for q in _uniform_qs(rng, size["uniform"])]
    argvs += [["dicke", "--n", str(n), "--k", str(k)]
              for n, k in size["dicke_small_k"]]
    argvs += [["dicke", "--n", str(n), "--k", str(k),
               "--method", "factoradic"]
              for n, k in size["dicke_factoradic"]]
    return [
        prep_item(["prep", *argv, "--seed", str(int(rng.integers(1 << 31)))])
        for argv in argvs
    ]


# --------------------------------------------------------------------------
# branch_exhaustive: build one program, enumerate and check every branch
# --------------------------------------------------------------------------


def flatten_item(rng: np.random.Generator, circuit: cl.CliffordCircuit) -> Item:
    """Flattened circuit behind a random SU(2) input layer; the reference
    is the dense simulation of the unflattened gate word."""
    n = circuit.n
    mats = [_random_su2(rng) for _ in range(n)]
    psi = np.array([1.0 + 0j])
    for m in reversed(mats):
        psi = np.kron(psi, m[:, 0])
    for g in circuit.gates:
        psi = _apply_dense(psi, DENSE[g.name], g.qubits, n)
    label = f"{circuit.shape}{n}x{circuit.depth}"

    def run() -> None:
        flat = _flatten(circuit)
        inputs = pr.QuantumLayer(tuple(
            pr.GateApp(pr.MatrixGate(f"in{q}", m), (q,))
            for q, m in enumerate(mats)
        ))
        program = pr.LaqccProgram(
            flat.num_qubits, dict(flat.registers),
            [inputs] + list(flat.layers),
        )
        keep = tuple(reversed(program.registers["outputs"].qubits))
        _check_branches(label, pr.enumerate_branches(program), keep, psi,
                        "record")

    return Item(label, run)


def ghz_branches_item(n: int) -> Item:
    target = ghz_target(n)
    label = f"ghz{n}"

    def run() -> None:
        program = cl.ghz(n)
        keep = tuple(reversed(program.registers["ghz"].qubits))
        _check_branches(label, pr.enumerate_branches(program), keep,
                        target, "record", 1 << (n - 1))

    return Item(label, run)


def dicke_branches_item(n: int, k: int, target: np.ndarray) -> Item:
    label = f"dicke{n},{k}"

    def run() -> None:
        program, _ = pt.dicke_small_k(n, k)
        _check_branches(label, pr.enumerate_branches(program),
                        program.registers["out"].qubits, target, "zero")

    return Item(label, run)


def iqp_item(rng: np.random.Generator, max_n: int) -> Item:
    n = int(rng.integers(2, max_n + 1))
    gates = []
    for _ in range(int(rng.integers(1, 5))):
        arity = int(rng.integers(1, 3))
        support = tuple(int(q) for q in rng.choice(n, arity, replace=False))
        diag = np.exp(1j * math.pi * rng.integers(0, 8, 1 << arity) / 4)
        gates.append((diag, support))
    reference = iqp_distribution(gates, n)
    label = f"iqp{n}"

    def run() -> None:
        program = pt.iqp_to_laqcc([(np.diag(d), s) for d, s in gates], n)
        probs = np.zeros(1 << n)
        for branch in pr.enumerate_branches(program):
            probs[branch.record[-1].outcome] += branch.probability
        tv = 0.5 * float(np.abs(probs - reference).sum())
        _check(tv <= TOL, f"{label}: total variation {tv!r}")

    return Item(label, run)


def branch_exhaustive_pass(rng: np.random.Generator, size: dict
                           ) -> List[Item]:
    items = [flatten_item(rng, random_clifford(rng, "ladder", n, 1, 3))
             for n, count in size["ladders"] for _ in range(count)]
    items += [flatten_item(rng, random_clifford(rng, "grid", 3, 3, 2))
              for _ in range(size["grids"])]
    items += [ghz_branches_item(n) for n in size["ghz"]]
    items += [dicke_branches_item(n, k, dicke_target(n, k))
              for n, k in size["dicke_small_k"]]
    items += [iqp_item(rng, size["iqp_max_n"]) for _ in range(size["iqp"])]
    return items


# --------------------------------------------------------------------------
# classical_compile: compile and serialise, no state vector
# --------------------------------------------------------------------------


def _roundtrip(label: str, program: pr.LaqccProgram,
               layout: pr.GridLayout) -> Tuple[pr.ResourceProfile, List[str]]:
    """dumps -> loads -> dumps must be byte-identical, with equal
    resources and layout violations before and after."""
    text = pr.dumps(program)
    again = pr.loads(text)
    _check(pr.dumps(again) == text, f"{label}: re-dump differs")
    profile = pr.resources(program)
    _check(pr.resources(again) == profile, f"{label}: resources differ")
    violations = pr.validate_layout(program, layout)
    _check(pr.validate_layout(again, layout) == violations,
           f"{label}: layout violations differ")
    return profile, violations


def compile_flatten_item(circuit: cl.CliffordCircuit) -> Item:
    width = circuit.n + 2 * junction_count(circuit)
    layout = pr.GridLayout.line(width)
    label = f"flatten-{circuit.shape}{circuit.n}x{circuit.depth}"

    def run() -> None:
        profile, _ = _roundtrip(label, _flatten(circuit), layout)
        _check(profile.width == width,
               f"{label}: width {profile.width}, expected {width}")
        _check(profile.rounds == 1, f"{label}: {profile.rounds} rounds")

    return Item(label, run)


def compile_ghz_item(n: int) -> Item:
    layout = pr.GridLayout.line(2 * n - 1)
    label = f"ghz-roundtrip{n}"

    def run() -> None:
        profile, violations = _roundtrip(label, cl.ghz(n), layout)
        _check(profile.width == 2 * n - 1, f"{label}: width {profile.width}")
        _check(profile.rounds == 1, f"{label}: {profile.rounds} rounds")
        _check(violations == [], f"{label}: {violations[:1]}")

    return Item(label, run)


def all_factoradics(n: int) -> List[Tuple[int, ...]]:
    return list(itertools.product(*(range(j + 1) for j in range(n - 1, -1, -1))))


def numbersys_item(n: int, k: int, expected: int | None = None) -> Item:
    """Sweep every n-factoradic at weight k: each weight-k string has
    ``expected`` (default k!(n-k)!) preimages, fac <-> comb round-trips,
    and ranking round-trips over all C(n, k) strings."""
    if expected is None:
        expected = math.factorial(k) * math.factorial(n - k)
    factoradics = all_factoradics(n)
    classes = math.comb(n, k)
    label = f"numbersys{n},{k}"

    def run() -> None:
        counts: Dict[Tuple[int, ...], int] = {}
        for digits in factoradics:
            bits = ns.fac_to_comb(digits, k)
            counts[bits] = counts.get(bits, 0) + 1
            _, z, o = ns.fac_decompose(digits, k)
            back = ns.comb_to_fac(bits, z, o)
            _check(tuple(back) == digits, f"{label}: {digits} -> {back}")
        _check(len(counts) == classes, f"{label}: {len(counts)} classes")
        _check(all(c == expected for c in counts.values()),
               f"{label}: preimage counts {sorted(set(counts.values()))}")
        for m in range(classes):
            _check(ns.comb_to_int(ns.int_to_comb(m, k, n)) == m,
                   f"{label}: rank {m} does not round-trip")

    return Item(label, run)


def classical_compile_pass(rng: np.random.Generator, size: dict
                           ) -> List[Item]:
    items = [compile_flatten_item(random_clifford(rng, "ladder", n, 1, 2))
             for n in size["ladders"]]
    items += [compile_flatten_item(random_clifford(rng, "grid", n, 2, 1))
              for n in size["grids"]]
    items += [compile_ghz_item(n) for n in size["ghz"]]
    n = size["numbersys_n"]
    items += [numbersys_item(n, k) for k in range(n + 1)]
    return items


# --------------------------------------------------------------------------

PASSES = {
    "prep_ladder": prep_ladder_pass,
    "branch_exhaustive": branch_exhaustive_pass,
    "classical_compile": classical_compile_pass,
}
WORKLOADS = tuple(PASSES)


# Input sizes per workload.  "full" is the benchmark; "tiny" keeps the
# same shape at sizes that run in a second, for the tests.
SIZES = {
    "full": {
        "prep_ladder": {
            "ghz": (10, 11, 12),
            "w": tuple(range(8, 17)),
            "uniform": 96,  # draws of q
            "dicke_small_k": ((6, 2), (8, 2)),
            "dicke_factoradic": ((6, 3), (7, 3)),
        },
        "branch_exhaustive": {
            "ladders": ((2, 2), (3, 2), (4, 2), (5, 6)),  # (width, count)
            "grids": 12,
            "ghz": (8, 9, 10),
            "dicke_small_k": ((4, 2), (6, 2)),
            "iqp": 3,
            "iqp_max_n": 5,
        },
        "classical_compile": {
            "ladders": tuple(range(16, 65, 8)),
            "grids": (16, 32, 48),
            "ghz": tuple(range(12, 65, 2)),
            "numbersys_n": 7,
        },
    },
    "tiny": {
        "prep_ladder": {
            "ghz": (3,),
            "w": (3, 4),
            "uniform": 4,
            "dicke_small_k": ((4, 2),),
            "dicke_factoradic": ((4, 2),),
        },
        "branch_exhaustive": {
            "ladders": ((2, 1), (3, 1)),
            "grids": 1,
            "ghz": (3,),
            "dicke_small_k": ((4, 1),),
            "iqp": 2,
            "iqp_max_n": 3,
        },
        "classical_compile": {
            "ladders": (6,),
            "grids": (6,),
            "ghz": (3, 8),
            "numbersys_n": 4,
        },
    },
}


def make_pass(workload: str, seed: int, index: int,
              size: str = "full") -> List[Item]:
    """Pass ``index`` of ``workload`` under ``seed``, in seeded order."""
    rng = np.random.default_rng([seed, index, WORKLOADS.index(workload)])
    items = PASSES[workload](rng, SIZES[size][workload])
    order = rng.permutation(len(items))
    return [items[i] for i in order]
