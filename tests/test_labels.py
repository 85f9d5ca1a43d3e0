"""The batched walk: every branch carried in one state, its label held in
the qubits above the program's.

``ref_enumerate_branches`` is the walk it replaced, kept as the
reference: it follows one branch at a time, depth first, and runs each
kernel on that branch alone.  ``enumerate_branches`` must give the same
branches bit for bit: records, probabilities, ``peak_support``, and the
dtype, order and bytes of every ``idx`` and ``amp``, signed zeros
included.  The kernels must check each branch's norm on its own and
keep every branch as it would be alone.
"""
import math
import warnings

import numpy as np
import pytest

import corpus
from laqcc import clifford as cl
from laqcc import macros as mc
from laqcc import program as pr
from laqcc import protocols as pt
from laqcc import sparse_state as ss

# ------------------------------------------------------------- reference


def ref_enumerate_branches(program):
    """Depth-first, one branch at a time, as the walk ran before it held
    every branch in one state."""
    layers = program.layers
    out = []

    def walk(start, state, env, record, peak):
        for i in range(start, len(layers)):
            layer = layers[i]
            if isinstance(layer, pr.QuantumLayer):
                run = []
                for app in layer.apps:
                    if app.condition is not None:
                        source, key = app.condition
                        if env.get(source, {}).get(key, 0) != 1:
                            continue
                    gate = app.gate
                    if gate.permutation is not None:
                        run.append((*gate.permutation, app.qubits))
                        continue
                    if run:
                        state, run = ss.apply_permutations(state, run), []
                    state = gate.apply(state, app.qubits)
                if run:
                    state = ss.apply_permutations(state, run)
            elif isinstance(layer, pr.MeasureLayer):
                for outcome, p, post in per_outcome(state, layer.qubits):
                    event = pr.MeasurementEvent(
                        layer.label, layer.qubits, outcome, p)
                    walk(i + 1, post, env, record + (event,), peak)
                return
            else:
                (raw,) = (ev.outcome for ev in record
                          if ev.label == layer.reads)
                env = {**env, layer.name: {
                    key: (raw & mask).bit_count() & 1
                    for key, mask in layer.outputs.items()}}
            peak = max(peak, state.support())
        prob = math.prod((ev.probability for ev in record), start=1.0)
        out.append(pr.Branch(record, prob, state, peak))

    walk(0, ss.SparseState.basis(program.num_qubits), {}, (), 1)
    return out


def per_outcome(state, qubits):
    """``branch_enumerate`` as ``(outcome, probability, post-state)``
    triples, one per outcome."""
    outcomes, probabilities, batch = ss.branch_enumerate(state, qubits)
    return list(zip(outcomes.tolist(), probabilities.tolist(),
                    ss.split_labels(batch, len(outcomes))))


def assert_same_branches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.record == b.record
        assert repr(a.probability) == repr(b.probability)
        assert a.peak_support == b.peak_support
        assert type(a.peak_support) is int
        assert a.state.num_qubits == b.state.num_qubits
        assert a.state.label_bits == 0
        assert a.state.idx.dtype == b.state.idx.dtype
        assert a.state.idx.tolist() == b.state.idx.tolist()
        assert a.state.amp.tobytes() == b.state.amp.tobytes()


# --------------------------------------------------------------- programs


def random_su2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))


def two_rounds(seed, n=6, low=0):
    """Random inputs, two measured rounds, and after each a layer of
    conditioned dense, permutation, diagonal, basis-map and parity
    gates; the program's qubits start at ``low``, so it can sit in a
    wide register."""
    rng = np.random.default_rng(seed)
    q = [low + i for i in range(n)]
    u = [pr.MatrixGate(f"u{i}", random_su2(rng)) for i in range(8)]
    phases = np.exp(1j * math.pi * rng.integers(0, 8, 4) / 4)
    diag = pr.diagonal("d", [[p.real, p.imag] for p in phases])
    pz = pr.parity("pz", 1, 1, {
        "name": "clifford",
        "params": {"label": "Z", "wires": 1, "word": "Z(0)"}})
    X, Z, H = cl.X_GATE, cl.Z_GATE, cl.H_GATE
    b = pr.Builder()
    b.alloc("all", low + n, "system")
    b.layer(*(pr.GateApp(u[i], (q[i],)) for i in range(4)))
    b.layer(pr.GateApp(cl.CNOT_GATE, (q[0], q[4])),
            pr.GateApp(cl.CNOT_GATE, (q[1], q[5])))
    b.measure((q[4], q[5], q[2]), "m1")
    b.classical(pr.linear("c1", "m1", {"a": 0b100, "b": 0b011, "c": 0b110}))
    b.layer(pr.GateApp(H, (q[0],), ("c1", "a")),
            pr.GateApp(X, (q[1],), ("c1", "b")),
            pr.GateApp(u[4], (q[2],), ("c1", "c")),
            pr.GateApp(Z, (q[3],), ("c1", "a")),
            pr.GateApp(X, (q[5],), ("c1", "c")))
    b.layer(pr.GateApp(diag, (q[2], q[3]), ("c1", "b")),
            pr.GateApp(mc.fanout(2), (q[0], q[4], q[5]), ("c1", "a")),
            pr.GateApp(u[5], (q[1],)))
    b.layer(pr.GateApp(pz, (q[1], q[3]), ("c1", "c")))
    b.measure((q[0], q[3]), "m2")
    b.classical(pr.linear("c2", "m2", {"x": 0b10, "z": 0b11}))
    b.layer(pr.GateApp(X, (q[4],), ("c2", "x")),
            pr.GateApp(u[6], (q[1],), ("c2", "z")),
            pr.GateApp(Z, (q[2],), ("c2", "x")))
    b.layer(pr.GateApp(cl.CNOT_GATE, (q[2], q[5])),
            pr.GateApp(X, (q[1],), ("c2", "z")),
            pr.GateApp(u[7], (q[3],), ("c2", "x")),
            pr.GateApp(pz, (q[0], q[4])))
    # an output of the first round read after the second, and branches
    # that outgrow the support they had before either measurement
    b.layer(pr.GateApp(H, (q[0],), ("c1", "b")),
            pr.GateApp(X, (q[1],), ("c1", "c")),
            *(pr.GateApp(H, (q[i],)) for i in (2, 3, 4, 5)))
    return b.build()


def programs():
    yield "ghz6", cl.ghz(6)
    yield "small_k4,2", pt.dicke_small_k(4, 2)[0]
    yield "small_k5,2", pt.dicke_small_k(5, 2)[0]
    yield "fanout_gadget3", mc.fanout_gadget(3)
    rng = np.random.default_rng(5)
    for n in (3, 4):
        circuit = cl.CliffordCircuit("ladder", n, 1, tuple(
            cl.CliffordGate("CNOT", (i, i + 1)) if rng.integers(2) else
            cl.CliffordGate("H", (i,)) for i in range(n - 1) for _ in "ab"))
        flat = cl.flatten_ladder(circuit)
        inputs = pr.QuantumLayer(tuple(
            pr.GateApp(pr.MatrixGate(f"in{i}", random_su2(rng)), (i,))
            for i in range(n)))
        yield f"ladder{n}", pr.LaqccProgram(
            flat.num_qubits, flat.registers, (inputs,) + flat.layers)
    for seed in range(4):
        yield f"two_rounds{seed}", two_rounds(seed)


@pytest.mark.parametrize("name, program", list(programs()))
def test_batched_walk_equals_one_branch_at_a_time(name, program):
    assert_same_branches(pr.enumerate_branches(program),
                         ref_enumerate_branches(program))


MEASURED = [(name, program) for name, program in corpus.programs()
            if any(isinstance(layer, pr.MeasureLayer)
                   for layer in program.layers)]


@pytest.mark.parametrize("program", [program for _, program in MEASURED],
                         ids=[name for name, _ in MEASURED])
def test_batched_walk_equals_one_branch_at_a_time_on_the_corpus(program):
    """Every corpus program that measures: GHZ, small-k Dicke,
    flattened, deferred, fanout-gadget, IQP and two-round programs among
    them."""
    assert_same_branches(pr.enumerate_branches(program),
                         ref_enumerate_branches(program))


SAMPLED = {**{name: dict(MEASURED)[name]
              for name in ("rounds0", "rounds1", "rounds2", "deferred_ghz4")},
           "small_k6,2": pt.dicke_small_k(6, 2)[0], "ghz5": cl.ghz(5),
           "wide_rounds": two_rounds(1, low=54)}


@pytest.mark.parametrize("program", list(SAMPLED.values()), ids=list(SAMPLED))
def test_seeded_shots_walked_as_one_batch_equal_each_shot_alone(program):
    """Shot ``s`` of ``sample_branches`` is the branch that ``execute``
    reaches alone with seed ``seed + s``: its record, its state's bytes
    and its peak support.  Shots with equal records share one state, so
    the batch held each distinct record prefix once."""
    seed = 40
    shots = pr.sample_branches(program, 32, seed)
    assert len(shots) == 32
    for s, shot in enumerate(shots):
        policy = pr.SeededPolicy(seed + s)
        state, record = pr.execute(program, policy)
        assert shot.record == record
        assert shot.state.idx.dtype == state.idx.dtype
        assert shot.state.idx.tolist() == state.idx.tolist()
        assert shot.state.amp.tobytes() == state.amp.tobytes()
        assert shot.peak_support == pt.max_support(program, policy)
    states = {}
    for shot in shots:
        assert states.setdefault(shot.record, shot.state) is shot.state
    assert len({id(shot.state) for shot in shots}) == len(states)
    assert pr.sample_branches(program, 0, seed) == []


# engine calls and the states each makes: apply_to_labels and
# apply_predicated make two, the part they hand their gate and the result;
# apply_unitaries makes one per tensor, and these programs' runs fit one
MADE = {"from_arrays": 1, "apply_unitary": 1, "apply_unitaries": 1,
        "apply_permutations": 1, "apply_basis_map": 1, "apply_phase_map": 1,
        "branch_enumerate": 1, "apply_to_labels": 2, "apply_predicated": 2}


def test_per_branch_work_is_one_state_and_one_event_per_measurement(
        monkeypatch):
    """Enumerating ghz(n), n = 4..10, and a two-round program builds at
    most the states its engine calls make (``MADE``) and one per returned
    branch: no state is built per outcome and dropped.  One
    ``MeasurementEvent`` is built per returned branch per measurement on
    its record."""
    counts = dict.fromkeys(("states", "made", "events"), 0)
    own, new = ss.SparseState._own, pr.MeasurementEvent.__new__

    def owned(self, *args):
        counts["states"] += 1
        return own(self, *args)

    def event(cls, *args):
        counts["events"] += 1
        return new(cls, *args)

    monkeypatch.setattr(ss.SparseState, "_own", owned)
    # a named tuple is built by its ``__new__``; it has no ``__init__``
    monkeypatch.setattr(pr.MeasurementEvent, "__new__", event)
    for name, made in MADE.items():
        def counted(*args, kernel=getattr(ss, name), made=made):
            counts["made"] += made
            return kernel(*args)

        monkeypatch.setattr(ss, name, counted)
    for program in [cl.ghz(n) for n in range(4, 11)] + [
            dict(MEASURED)["rounds0"]]:
        counts.update(dict.fromkeys(counts, 0))
        branches = pr.enumerate_branches(program)
        assert counts["states"] <= counts["made"] + len(branches)
        assert counts["events"] == sum(len(b.record) for b in branches)


def test_measure_builds_only_the_branch_it_returns(monkeypatch):
    """Measuring 3 qubits of the uniform 3-qubit state builds at most 2
    states, the batch of its 8 outcomes and the one it returns, which
    equals that outcome's ``split_labels`` branch byte for byte."""
    state = ss.from_arrays(3, np.arange(8), np.full(8, 8 ** -0.5 + 0j))
    wants = ss.split_labels(ss.branch_enumerate(state, (0, 1, 2))[2], 8)
    own, built = ss.SparseState._own, []

    def owned(self, *args):
        built.append(self)
        return own(self, *args)

    monkeypatch.setattr(ss.SparseState, "_own", owned)
    for forced, want in enumerate(wants):
        built.clear()
        outcome, _, got = ss.measure(state, (0, 1, 2), forced=forced)
        assert outcome == forced and len(built) <= 2
        assert (got.num_qubits, got.label_bits, got.idx.dtype) == (
            want.num_qubits, want.label_bits, want.idx.dtype)
        assert got.idx.tobytes() == want.idx.tobytes()
        assert got.amp.tobytes() == want.amp.tobytes()


def looped_apply_unitary(state, matrix, targets):
    """``apply_unitary``'s indices and amplitudes on a labelled state, as
    it computed them with a Python loop over the branches whose rest has
    one row, each row's product taken alone."""
    k = len(targets)
    rest = ss._rest(state.idx, targets)
    order = rest.argsort()
    ordered = rest[order]
    first = np.ones(len(rest), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    row = np.empty(len(rest), np.intp)
    row[order] = first.cumsum() - 1
    rest = ordered[first]
    block = np.zeros((len(rest), 1 << k), complex)
    block[row, ss._gather(state.idx, targets)] = state.amp
    out = block @ matrix.T
    labels = ss._labels(state, rest)
    for r in np.flatnonzero(np.bincount(labels)[labels] == 1).tolist():
        out[r] = block[r : r + 1].copy() @ matrix.T
    out = out.ravel()
    idx = (rest[:, None] | ss._placements(tuple(targets), np.int64)).ravel()
    keep = np.abs(out) >= ss.PRUNE_THRESHOLD
    return idx[keep], out[keep]


@pytest.mark.parametrize("seed", range(4))
def test_one_row_branches_get_the_product_of_the_loop(seed):
    """Random batches, about half their branches on one rest pattern,
    with zero and signed-zero amplitudes: the dense kernel's stacked
    one-row product gives the loop's bytes."""
    rng = np.random.default_rng([seed, 17])
    for _ in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(n, 4) + 1))
        targets = [int(q) for q in rng.permutation(n)[:k]]
        placed = ss._placements(tuple(targets), np.int64)
        parts = []
        for _ in range(int(rng.integers(2, 7))):
            if rng.integers(2):  # one rest pattern
                rest = int(rng.integers(1 << n)) & ~int(placed[-1])
                idx = rest | rng.choice(placed, int(rng.integers(1, 1 << k)),
                                        replace=False)
            else:
                idx = rng.choice(1 << n, int(rng.integers(1, 1 << n)),
                                 replace=False)
            amp = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
            amp[rng.random(len(idx)) < 0.2] = complex(-0.0, 0.0)
            amp[0] = complex(0.6, -0.0)
            parts.append(ss.SparseState._of(n, idx.astype(np.int64),
                                            amp / np.linalg.norm(amp)))
        z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(
            size=(1 << k, 1 << k))
        matrix = np.linalg.qr(z)[0]
        got = ss.apply_unitary(batch(*parts), matrix, targets)
        idx, amp = looped_apply_unitary(batch(*parts), matrix, targets)
        assert got.idx.tolist() == idx.tolist()
        assert got.amp.tobytes() == amp.tobytes()


def test_wide_program_batches_past_int64_and_returns_int64_branches(
        monkeypatch):
    """60 program qubits and 3 measured ones need 3 label bits: the batch
    holds Python ints, each branch its own int64 indices."""
    program = two_rounds(1, low=54)
    batches = []
    measure = ss.branch_enumerate

    def noted(state, qubits):
        chosen = measure(state, qubits)
        batches.append(chosen[2])
        return chosen

    monkeypatch.setattr(ss, "branch_enumerate", noted)
    branches = pr.enumerate_branches(program)
    assert program.num_qubits == 60
    assert [(b.label_bits, b.idx.dtype) for b in batches[:1]] == [
        (3, np.dtype(object))]
    assert {b.state.idx.dtype for b in branches} == {np.dtype(np.int64)}
    assert_same_branches(branches, ref_enumerate_branches(program))


# ------------------------------------------------------------ edge cases


def batch(*branches):
    """Whole branches of one qubit count, as one labelled state: branch
    ``i`` gets label ``i`` in the bits above its qubits."""
    n = branches[0].num_qubits
    bits = (len(branches) - 1).bit_length()
    dtype = np.int64 if n + bits <= 62 else object
    idx = np.concatenate([b.idx for b in branches]).astype(dtype)
    idx |= np.repeat(np.arange(len(branches)),
                     [b.support() for b in branches]).astype(dtype) << n
    amp = np.concatenate([b.amp for b in branches])
    return ss.SparseState._of(n + bits, idx, amp, bits)


def test_branch_enumerate_labels_each_outcome_and_split_labels_returns_it():
    """Three outcomes of qubits 4 and 3, each over its own state of
    qubits 0-2: the batch labels outcome i's collapse i, in two bits
    above the five qubits, and split_labels gives each collapse back."""
    a = ss.from_amplitudes(3, [(0b001, 0.6), (0b100, -0.8j)])
    b = ss.SparseState.basis(3, 0b111)
    c = ss.from_amplitudes(3, [(0b010, 1 / math.sqrt(2)),
                               (0b011, -1 / math.sqrt(2))])
    w = [0.5, 0.3, 0.2]
    state = ss.SparseState._of(5, np.concatenate(
        [s.idx | o << 3 for o, s in zip((0b00, 0b01, 0b11), (a, b, c))]),
        np.concatenate([s.amp * math.sqrt(p) for p, s in zip(w, (a, b, c))]))
    outcomes, probabilities, got = ss.branch_enumerate(state, [4, 3])
    assert outcomes.tolist() == [0b00, 0b01, 0b11]
    assert probabilities.tolist() == pytest.approx(w)
    assert (got.num_qubits, got.label_bits) == (7, 2)
    assert got.idx.tolist() == [0b0000001, 0b0000100, 0b0101111,
                                0b1011010, 0b1011011]
    assert ss.supports(got, 3).tolist() == [2, 1, 2]
    for o, post, want in zip((0, 1, 3), ss.split_labels(got, 3), (a, b, c)):
        assert post.idx.dtype == np.int64 and post.label_bits == 0
        assert post.idx.tolist() == (want.idx | o << 3).tolist()
        assert np.allclose(post.amp, want.amp, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 61])
def test_select_labels_keeps_the_named_branches_and_relabels_them(n):
    """Of four branches, keeping 1 and 3 gives a two-branch batch in one
    label bit, each branch as it was; keeping one gives the unlabelled
    branch, in the dtype of its own qubits."""
    parts = [ss.SparseState.basis(n, i) for i in range(3)] + [
        ss.from_amplitudes(n, [(0b001, 0.6), (0b100, -0.8j)])]
    four = batch(*parts)
    two = ss.select_labels(four, np.array([1, 3]))
    assert (two.num_qubits, two.label_bits) == (n + 1, 1)
    assert two.idx.dtype == np.dtype(np.int64 if n + 1 <= 62 else object)
    assert two.idx.tolist() == batch(parts[1], parts[3]).idx.tolist()
    assert two.amp.tobytes() == batch(parts[1], parts[3]).amp.tobytes()
    one = ss.select_labels(four, np.array([3]))
    assert (one.num_qubits, one.label_bits) == (n, 0)
    assert one.idx.dtype == np.int64
    assert one.idx.tolist() == parts[3].idx.tolist()
    assert one.amp.tobytes() == parts[3].amp.tobytes()


def test_basis_map_may_collide_across_branches_but_not_within_one():
    to_one = lambda v: np.ones_like(v)  # every pattern to 0b01
    a, b = ss.SparseState.basis(2, 0b00), ss.SparseState.basis(2, 0b10)
    out = ss.apply_basis_map(batch(a, b), to_one, [1, 0])
    assert out.idx.tolist() == [0b001, 0b101]
    mixed = ss.from_amplitudes(2, [(0b00, 0.6), (0b10, 0.8)])
    with pytest.raises(ValueError, match="not injective"):
        ss.apply_basis_map(batch(a, mixed), to_one, [1, 0])


def drifted(n=2):
    """Three branches; the second's norm is off by 1e-6."""
    good = ss.from_amplitudes(n, [(0, 0.6), (1, 0.8)])
    bad = ss.SparseState._of(n, good.idx, good.amp * (1 + 5e-7))
    return batch(good, bad, good)


def test_norm_drift_in_one_branch_of_many_raises():
    state = drifted()
    x = pr.MatrixGate("X", [[0, 1], [1, 0]])
    h = pr.MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    second = np.array([False, True, False])
    for call in (
        lambda: state.check_norm(),
        lambda: ss.apply_unitary(state, h.matrix, [1]),
        lambda: ss.apply_permutations(state, [(*x.permutation, [1])]),
        lambda: ss.apply_permutations(
            state, [(*x.permutation, [1], second)]),
        lambda: ss.apply_predicated(
            state, 1, [0],
            lambda part: ss.apply_unitary(part, h.matrix, [1])),
    ):
        with pytest.raises(ValueError, match="drifted"):
            call()
    # a branch that no gate of a run touches is not checked, as a branch
    # that no gate reached was not before
    others = np.array([True, False, True])
    ss.apply_permutations(state, [(*x.permutation, [1], others)])


def test_zero_weight_outcome_is_skipped_quietly():
    a = ss.SparseState.basis(2, 0b00)
    b = ss.from_amplitudes(2, [(0b00, 0.6), (0b01, 0.8)])
    state = batch(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes, _, _ = ss.branch_enumerate(state, [2, 0])
        program = two_rounds(3)
        branches = pr.enumerate_branches(program)
    assert outcomes.tolist() == [0b00, 0b10, 0b11]
    assert_same_branches(branches, ref_enumerate_branches(program))


def test_run_applies_each_gate_to_its_branches_only():
    """A run whose gates pick branches leaves each branch as its own
    gates, run alone, leave it: sorted by its last gate, or untouched."""
    rng = np.random.default_rng(3)
    n = 4
    parts = []
    for _ in range(4):
        idx = rng.choice(1 << n, 5, replace=False)
        amp = rng.normal(size=5) + 1j * rng.normal(size=5)
        amp[0], amp[1] = complex(-0.0, amp[0].imag), 0
        amp = amp / np.linalg.norm(amp)
        amp[1] = 5e-13  # pruned where a gate reaches it, kept elsewhere
        parts.append(ss.SparseState._of(n, idx, amp))
    state = batch(*parts)
    x = cl.X_GATE.permutation
    cnot = cl.CNOT_GATE.permutation
    s = cl.clifford("S", 1, "S(0)").permutation
    picks = [np.array(p, bool)
             for p in ([1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0])]
    run = [(*x, [2], picks[0]), (*cnot, [0, 3], picks[1]),
           (*s, [1], picks[2])]
    got = ss.split_labels(ss.apply_permutations(state, run), 4)
    for label, part in enumerate(parts):
        mine = [gate[:3] for gate in run if gate[3][label]]
        want = ss.apply_permutations(part, mine) if mine else part
        assert got[label].idx.tolist() == want.idx.tolist()
        assert got[label].amp.tobytes() == want.amp.tobytes()
    assert [p.support() for p in got] == [4, 4, 4, 5]


@pytest.mark.parametrize("n", [4, 61])
def test_run_whose_masks_all_hold_equals_the_run_without_masks(n):
    """Where every mask of a run selects every branch, the masked path of
    the one permutation loop gives the unmasked path's ``idx`` order and
    ``amp`` bytes, also with a mask on some entries only and with
    indices past 62 bits."""
    rng = np.random.default_rng(8)
    parts = []
    for _ in range(3):
        idx = rng.choice(16, 5, replace=False) << (n - 4)
        amp = rng.normal(size=5) + 1j * rng.normal(size=5)
        amp[1] = 0
        amp = amp / np.linalg.norm(amp)
        amp[1] = 5e-13  # pruned by both paths
        parts.append(ss.SparseState._of(n, idx, amp))
    state = batch(*parts)
    x, cnot = cl.X_GATE.permutation, cl.CNOT_GATE.permutation
    s = cl.clifford("S", 1, "S(0)").permutation
    every = np.ones(3, bool)
    for run in ([(*x, [n - 1])],
                [(*cnot, [n - 1, 0]), (*s, [n - 2]), (*x, [n - 3])],
                [(*s, [n - 4]), (*cnot, [0, n - 2])]):
        want = ss.apply_permutations(state, run)
        for masked in ([gate + (every,) for gate in run],
                       [run[0] + (every,)] + run[1:]):
            got = ss.apply_permutations(state, masked)
            assert got.idx.dtype == want.idx.dtype
            assert got.idx.tolist() == want.idx.tolist()
            assert got.amp.tobytes() == want.amp.tobytes()


@pytest.mark.parametrize("n", [3, 70])
def test_mask_on_a_state_without_label_bits_selects_label_0(n):
    """A state without label bits is one branch, label 0: a masked entry
    applies its gate where its mask is ``[True]`` and leaves the state
    as it was, unpruned, where it is ``[False]``."""
    top = n - 1
    state = ss.SparseState._of(n, np.array([1, 1 << top, 3], object
                                           if n > 62 else np.int64),
                               np.array([0.6, 0.8j, 5e-13]))
    x, cnot = cl.X_GATE.permutation, cl.CNOT_GATE.permutation
    s = cl.clifford("S", 1, "S(0)").permutation
    yes, no = np.array([True]), np.array([False])
    for run in ([(*x, [top])], [(*cnot, [0, top]), (*s, [1]), (*x, [2])]):
        want = ss.apply_permutations(state, run)
        got = ss.apply_permutations(state, [gate + (yes,) for gate in run])
        assert got.idx.tolist() == want.idx.tolist()
        assert got.amp.tobytes() == want.amp.tobytes()
        same = ss.apply_permutations(state, [gate + (no,) for gate in run])
        assert same.idx.tolist() == state.idx.tolist()
        assert same.amp.tobytes() == state.amp.tobytes()
    got = ss.apply_permutations(state, [(*x, [top], yes), (*s, [1], no)])
    want = ss.apply_permutations(state, [(*x, [top])])
    assert got.idx.tolist() == want.idx.tolist()
    assert got.amp.tobytes() == want.amp.tobytes()
