"""The parity corpus: one deterministic list of programs, and two sha256
digests of each, so that "every state is unchanged" is a tier-1 check.

For each program, ``digests`` gives:

* the sha256 of ``program.dumps``;
* the sha256 over every branch that ``enumerate_branches`` returns and
  over three seeded shots of ``sample_branches`` (seeds 0, 1, 2): each
  branch's record, ``repr`` of its probability, ``peak_support``, and the
  dtype and bytes of its state's ``idx`` and ``amp``, so signed zeros and
  the storage order count.

``corpus_golden.json`` holds the digests with the platform and numpy
version they were taken on; ``tests/test_corpus.py`` recomputes them.
The amplitude bytes depend on the platform and the numpy version, as the
pinned ``prep`` digests in ``tests/test_cli.py`` do.  To list each
program whose JSON or branch digest differs from the file (exit code 1
if any does), without pytest::

    PYTHONPATH=src python3 tests/corpus.py --check

To rewrite the file (a change to test data, to be recorded with its
reason)::

    PYTHONPATH=src python3 tests/corpus.py --write
"""
from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from laqcc import clifford as cl
from laqcc import macros as mc
from laqcc import program as pr
from laqcc import protocols as pt

GOLDEN = Path(__file__).with_name("corpus_golden.json")
SHOTS = 3


def _random_su2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))


def _random_word(rng, n: int, pairs, length: int):
    gates = []
    for lo, hi in pairs:
        for _ in range(length):
            kind = int(rng.integers(4))
            if kind < 2:
                q = hi if rng.integers(2) else lo
                gates.append(cl.CliffordGate("HS"[kind], (q,)))
            else:
                pair = (hi, lo) if kind == 2 else (lo, hi)
                gates.append(cl.CliffordGate("CNOT", pair))
    return tuple(gates)


def _with_inputs(program: pr.LaqccProgram, mats) -> pr.LaqccProgram:
    inputs = pr.QuantumLayer(tuple(
        pr.GateApp(pr.MatrixGate(f"in{q}", m), (q,))
        for q, m in enumerate(mats)))
    return pr.LaqccProgram(program.num_qubits, program.registers,
                           (inputs,) + program.layers)


def _flattened(rng: np.random.Generator, shape: str, inputs: bool):
    if shape == "ladder":
        n = int(rng.integers(2, 6))
        pairs = [(i, i + 1) for i in range(n - 1)]
        circuit = cl.CliffordCircuit(
            "ladder", n, 1, _random_word(rng, n, pairs, 3))
    else:
        n = depth = 3
        pairs = [(i, i + 1) for t in range(depth)
                 for i in range(t % 2, n - 1, 2)]
        circuit = cl.CliffordCircuit(
            "grid", n, depth, _random_word(rng, n, pairs, 2))
    program = cl.flatten_ladder(circuit) if shape == "ladder" else (
        cl.flatten_grid(circuit))
    if inputs:
        program = _with_inputs(
            program, [_random_su2(rng) for _ in range(circuit.n)])
    return program


def _iqp(rng: np.random.Generator) -> pr.LaqccProgram:
    n = int(rng.integers(2, 6))
    gates = []
    for _ in range(int(rng.integers(1, 5))):
        arity = int(rng.integers(1, 3))
        support = tuple(int(q) for q in rng.choice(n, arity, replace=False))
        diag = np.exp(1j * math.pi * rng.integers(0, 8, 1 << arity) / 4)
        gates.append((np.diag(diag), support))
    return pt.iqp_to_laqcc(gates, n)


def _iqp_wide(n: int) -> pr.LaqccProgram:
    """Four two-qubit gates, each a table of uniform random phases, on n
    qubits: every lifted table is 2^n entries long."""
    rng = np.random.default_rng([n, 20])
    gates = [(np.exp(2j * math.pi * rng.random(4)),
              tuple(int(q) for q in rng.choice(n, 2, replace=False)))
             for _ in range(4)]
    return pt.iqp_to_laqcc(gates, n)


def _rounds(seed: int) -> pr.LaqccProgram:
    """Two measured rounds, each followed by conditioned dense, signed
    permutation, diagonal, basis-map and parity gates, on random
    SU(2) inputs: several branches meet every kind of gate."""
    rng = np.random.default_rng(seed)
    u = [pr.MatrixGate(f"u{i}", _random_su2(rng)) for i in range(6)]
    H, X, Z = cl.H_GATE, cl.X_GATE, cl.Z_GATE
    S = cl.clifford("S", 1, "S(0)")
    cnot, swap = cl.CNOT_GATE, cl.clifford("SWAP", 2, "SWAP(0,1)")
    phases = np.exp(1j * math.pi * rng.integers(0, 8, 4) / 4)
    diag = pr.diagonal("d", [[p.real, p.imag] for p in phases])
    fan = mc.fanout(2)
    hit = pr.parity("pz", 1, 1, {
        "name": "clifford",
        "params": {"label": "Z", "wires": 1, "word": "Z(0)"}})
    b = pr.Builder()
    b.alloc("work", 6, "system")
    b.layer(*(pr.GateApp(u[q], (q,)) for q in range(4)))
    b.layer(pr.GateApp(cnot, (0, 4)), pr.GateApp(cnot, (1, 5)),
            pr.GateApp(H, (2,)))
    b.measure((4, 5), "m1")
    b.classical(pr.linear("c1", "m1", {"a": 0b10, "b": 0b01, "c": 0b11}))
    b.layer(pr.GateApp(H, (0,), ("c1", "a")),
            pr.GateApp(X, (1,), ("c1", "b")),
            pr.GateApp(u[4], (2,), ("c1", "c")),
            pr.GateApp(S, (3,), ("c1", "a")))
    b.layer(pr.GateApp(swap, (0, 1), ("c1", "c")),
            pr.GateApp(diag, (2, 3), ("c1", "b")))
    b.layer(pr.GateApp(fan, (0, 4, 5), ("c1", "a")),
            pr.GateApp(Z, (2,), ("c1", "b")))
    b.layer(pr.GateApp(hit, (1, 3), ("c1", "c")))
    b.measure((0, 3), "m2")
    b.classical(pr.linear("c2", "m2", {"x": 0b10, "z": 0b11}))
    b.layer(pr.GateApp(X, (4,), ("c2", "x")),
            pr.GateApp(u[5], (1,), ("c2", "z")),
            pr.GateApp(Z, (2,), ("c2", "x")))
    b.layer(pr.GateApp(cnot, (2, 5)), pr.GateApp(X, (1,), ("c2", "z")))
    return b.build()


def programs() -> Iterator[Tuple[str, pr.LaqccProgram]]:
    """Every program of the corpus, with a unique name, in a fixed order."""
    for n in range(2, 11):
        yield f"ghz{n}", cl.ghz(n)
    for q in list(range(1, 17)) + [300, 517, 1000]:
        yield f"uniform{q}", pt.uniform_superposition(q)[0]
    for n in range(2, 9):
        yield f"w{n}", pt.w_state(n)[0]
    for n, k in ((4, 1), (4, 2), (5, 2), (6, 2), (8, 2)):
        yield f"small_k{n},{k}", pt.dicke_small_k(n, k)[0]
    for n in range(1, 7):
        for k in range(n + 1):
            yield f"factoradic{n},{k}", pt.dicke_factoradic(n, k)[0]
    rng = np.random.default_rng(2024)
    for i in range(20):
        shape = "ladder" if i % 2 == 0 else "grid"
        inputs = i % 4 >= 2
        program = _flattened(rng, shape, inputs)
        yield f"{shape}{i}{'+su2' if inputs else ''}", program
    for n in (3, 4):
        yield f"deferred_ghz{n}", pr.defer_measurements(cl.ghz(n))
    for name, program in (("w4", pt.w_state(4)[0]),
                          ("uniform3", pt.uniform_superposition(3)[0])):
        yield f"deferred_{name}", pr.defer_measurements(program)
    ladder = cl.flatten_ladder(cl.CliffordCircuit("ladder", 3, 1, (
        cl.CliffordGate("H", (0,)), cl.CliffordGate("CNOT", (0, 1)),
        cl.CliffordGate("CNOT", (1, 2)))))
    yield "deferred_ladder3", pr.defer_measurements(ladder)
    for name, program in (("ghz3", cl.ghz(3)), ("ladder3", ladder)):
        for j, branch in enumerate(pr.enumerate_branches(program)[:2]):
            yield (f"postselected_{name}_{j}",
                   pr.to_postselected(program, branch.record)[0])
    for m in range(1, 5):
        yield f"fanout_gadget{m}", mc.fanout_gadget(m)
    rng = np.random.default_rng(77)
    for i in range(6):
        yield f"iqp{i}", _iqp(rng)
    for n in (8, 10):
        yield f"iqp_wide{n}", _iqp_wide(n)
    for seed in range(3):
        yield f"rounds{seed}", _rounds(seed)


def branch_bytes(branch: pr.Branch) -> Iterator[bytes]:
    """The bytes of one branch that its digest covers."""
    idx, amp = branch.state.idx, branch.state.amp
    yield repr(branch.record).encode()
    yield repr(branch.probability).encode()
    yield repr(branch.peak_support).encode()
    yield idx.dtype.str.encode()
    # an object array's bytes are pointers: digest its values instead
    yield repr(idx.tolist()).encode() if idx.dtype == object else (
        idx.tobytes())
    yield amp.dtype.str.encode()
    yield amp.tobytes()


def digests(program: pr.LaqccProgram) -> List[str]:
    branches = pr.enumerate_branches(program)
    branches += pr.sample_branches(program, SHOTS, seed=0)
    h = hashlib.sha256()
    for branch in branches:
        for part in branch_bytes(branch):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return [hashlib.sha256(pr.dumps(program).encode()).hexdigest(),
            h.hexdigest()]


def environment() -> Dict[str, str]:
    return {"platform": f"{platform.system()}-{platform.machine()}",
            "python": platform.python_version(),
            "numpy": np.__version__}


def compute() -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for name, program in programs():
        if name in out:
            raise ValueError(f"duplicate corpus name {name!r}")
        out[name] = digests(program)
    return out


def check() -> int:
    """Print each program whose digests differ from the golden file, and
    which of the two differ; 1 if any program differs, else 0."""
    golden = json.loads(GOLDEN.read_text())["programs"]
    got = compute()
    differ = 0
    for name in dict.fromkeys([*golden, *got]):
        if name not in got or name not in golden:
            where = "the corpus" if name in golden else "the golden file"
            print(f"{name}: not in {where}")
        else:
            parts = [part for part, a, b in zip(
                ("JSON", "branch"), got[name], golden[name]) if a != b]
            if not parts:
                continue
            print(f"{name}: {' and '.join(parts)} digest"
                  f"{'s differ' if len(parts) > 1 else ' differs'}")
        differ += 1
    print(f"{differ} of {len(got)} programs differ from {GOLDEN.name}",
          file=sys.stderr)
    return 1 if differ else 0


def main(argv: List[str]) -> int:
    if argv == ["--check"]:
        return check()
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    doc = {**environment(), "programs": compute()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['programs'])} programs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
