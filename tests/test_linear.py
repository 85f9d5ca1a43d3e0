"""The ``linear`` classical layer against the per-bit closures it replaced.

Each reference below is a classical layer function as the package wrote
it before every classical layer became a parity map: the flattening's
column-by-column correction, the GHZ prefix parity and the Dicke rank
unpacking.  Each new layer must publish the same bits on every outcome
of up to 12 bits.
"""
import numpy as np
import pytest

from laqcc import clifford as cl
from laqcc import macros as mc
from laqcc import program as pr
from laqcc import protocols as pt
from laqcc import verify


def classical_layer(program, name):
    (layer,) = (
        l for l in program.layers
        if isinstance(l, pr.ClassicalLayer) and l.name == name
    )
    return layer


def outputs_on(layer, raws):
    """The outputs of ``layer`` on each word of ``raws``, one dict per
    word, from one ``_classical`` call."""
    table = pr._classical(layer, np.array(raws))
    return [dict(zip(table, row))
            for row in zip(*(values.tolist() for values in table.values()))]


# ------------------------------------------------------------ references


def ref_columns(steps, junctions, n):
    """(z mask, x mask) per Bell outcome bit: column 2j is the image of
    the Z error at junction j, column 2j+1 of its X error; bit w of a
    mask is wire w."""
    zrow, xrow = [0] * n, [0] * n
    starts = {}
    for c, j in enumerate(junctions):
        starts.setdefault(j.gate_index, []).append((c, j.wire))
    for gi, (_, word) in enumerate(steps):
        for c, w in starts.get(gi, ()):
            zrow[w] |= 1 << (2 * c)
            xrow[w] |= 1 << (2 * c + 1)
        for g in word:
            cl.conjugate_gate(g, zrow, xrow)
    columns = []
    for c in range(2 * len(junctions)):
        z = x = 0
        for w in range(n):
            z |= ((zrow[w] >> c) & 1) << w
            x |= ((xrow[w] >> c) & 1) << w
        columns.append((z, x))
    return columns


def ref_bell_correct(columns, outputs):
    nbits = len(columns)

    def correction(outcomes):
        raw = outcomes["bell"]
        bits = [(raw >> (nbits - 1 - i)) & 1 for i in range(nbits)]
        z = x = 0
        for bit, (cz, cx) in zip(bits, columns):
            if bit:
                z ^= cz
                x ^= cx
        out = {}
        for w, q in enumerate(outputs):
            out[f"z{q}"] = (z >> w) & 1
            out[f"x{q}"] = (x >> w) & 1
        return out

    return correction


def ref_prefix_parity(n):
    def prefix_parity(outcomes):
        raw = outcomes["parity"]
        bits = [(raw >> (n - 2 - i)) & 1 for i in range(n - 1)]
        out = {}
        acc = 0
        for j in range(1, n):
            acc ^= bits[j - 1]
            out[f"flip{j}"] = acc
        return out

    return prefix_parity


def ref_ordering(k):
    rw = mc.count_register_width(k - 1)

    def ordering_fn(outcomes):
        raw = outcomes["ranks"]
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

    return ordering_fn


def ref_sort_perm(k, b, ranks):
    inv = [0] * k
    for l, r in enumerate(ranks):
        inv[r] = l
    return [inv[r] * b + off for r in range(k) for off in range(b)]


# ------------------------------------------------------------ equalities


def small_circuits():
    rng = np.random.default_rng(71)
    for n in range(2, 9):  # n - 2 junctions: at most 12 outcome bits
        yield cl.CliffordCircuit(
            "ladder", n, 1, tuple(verify._random_word(rng, n, 3))
        )
    yield cl.CliffordCircuit("ladder", 8, 1, tuple(
        cl.CliffordGate(name, (i, i + 1))
        for i in range(7) for name in ("CNOT", "SWAP")
    ))
    for n, depth in ((3, 3), (4, 2), (4, 3), (5, 2)):
        pairs = [(i, i + 1) for t in range(depth)
                 for i in range(t % 2, n - 1, 2)]
        yield cl.CliffordCircuit(
            "grid", n, depth,
            tuple(verify._random_word(rng, n, 2, pairs=pairs)),
        )


def test_bell_correct_equals_the_column_closure(monkeypatch):
    plans = []
    propagate = cl._propagate_unit_errors

    def spy(steps, junctions, n):
        plans.append((steps, junctions, n))
        return propagate(steps, junctions, n)

    monkeypatch.setattr(cl, "_propagate_unit_errors", spy)
    checked = 0
    for circuit in small_circuits():
        program = cl._flatten(circuit)
        steps, junctions, n = plans.pop()
        if not junctions:
            continue
        layer = classical_layer(program, "correct")
        assert layer.reads == "bell"
        outputs = program.registers["outputs"].qubits
        ref = ref_bell_correct(ref_columns(steps, junctions, n), outputs)
        nbits = 2 * len(junctions)
        assert nbits <= 12
        raws = range(1 << nbits)
        for raw, got in zip(raws, outputs_on(layer, raws)):
            assert got == ref({"bell": raw}), raw
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("n", range(2, 14))
def test_ghz_parity_equals_the_prefix_closure(n):
    layer = classical_layer(cl.ghz(n), "parity_fix")
    ref = ref_prefix_parity(n)
    raws = range(1 << (n - 1))
    for raw, got in zip(raws, outputs_on(layer, raws)):
        assert got == ref({"parity": raw}), raw


@pytest.mark.parametrize("n, k", [(4, 2), (5, 3), (10, 4)])
def test_ordering_equals_the_rank_closure(n, k):
    """Reset bits equal the old closure's, and the sort, read on the
    measured ranks, applies to the indexes the permutation the old
    ``rank{l}`` outputs gave; on rank words that are no permutation it
    leaves the indexes as they are."""
    program, _ = pt.dicke_small_k(n, k)
    layer = classical_layer(program, "ordering")
    (app,) = (
        app for l in program.layers if isinstance(l, pr.QuantumLayer)
        for app in l.apps if app.gate.name == "sort_by_ranks"
    )
    b = pt.index_width(n)
    rw = mc.count_register_width(k - 1)
    assert app.qubits == tuple(
        q for name in [f"rank{l}" for l in range(k)]
        + [f"index{l}" for l in range(k)]
        for q in program.registers[name].qubits)
    ref = ref_ordering(k)
    assert k * rw <= 12
    indexes = (np.arange(1 << (k * b)) if k * b <= 12 else
               np.random.default_rng(5).integers(0, 1 << (k * b), 512))
    raws = range(1 << (k * rw))
    for raw, bits in zip(raws, outputs_on(layer, raws)):
        want = ref({"ranks": raw})
        ranks = [want.pop(f"rank{l}") for l in range(k)]
        assert bits == want, raw
        expected = indexes
        if sorted(ranks) == list(range(k)):
            expected = mc.permutation(ref_sort_perm(k, b, ranks)).fn(indexes)
        got = app.gate.fn((raw << (k * b)) | indexes)
        assert np.array_equal(got, (raw << (k * b)) | expected), raw


# ------------------------------------------------- masks, no simulation


GHZ_SIZES = (*range(2, 65), 127, 128, 255, 256, 511, 512, 1023, 1024)


def test_ghz_parity_fan_in_is_the_prefix_length():
    """flip{j} reads the first j line outcomes, so flip{n-1} has fan-in
    n - 1, read off the layer's masks without running the program."""
    for n in GHZ_SIZES:
        masks = classical_layer(cl.ghz(n), "parity_fix").outputs
        assert list(masks) == [f"flip{j}" for j in range(1, n)]
        assert masks[f"flip{n - 1}"] == (1 << (n - 1)) - 1
        for j, mask in enumerate(masks.values(), start=1):
            assert mask.bit_count() == j
            assert mask >> (n - 1 - j) == (1 << j) - 1  # the top j bits


def test_linear_masks_pick_the_first_listed_bit_as_the_top_one():
    layer = pr.linear("c", "m", {"first": 0b100, "last": 0b001,
                                 "both": 0b101, "none": 0})
    assert layer.reads == "m"
    assert outputs_on(layer, [0b100, 0b101]) == [
        {"first": 1, "last": 0, "both": 1, "none": 0},
        {"first": 1, "last": 1, "both": 0, "none": 0}]
    program = pr.LaqccProgram(3, layers=[pr.MeasureLayer((0, 1, 2), "m"),
                                         layer])
    assert pr.program_to_json(program)["layers"][-1] == {
        "kind": "classical", "function_name": "linear", "params": {
            "name": "c", "reads": "m",
            "outputs": {"first": 4, "last": 1, "both": 5, "none": 0}}}


def test_masks_above_bit_62_read_python_int_words():
    """On 70-bit words, held as Python ints in an ``object`` array, every
    output equals the parity of the masked Python int."""
    rng = np.random.default_rng(70)
    words = [int(hi) << 35 | int(lo)
             for hi, lo in rng.integers(0, 1 << 35, size=(200, 2))]
    masks = {"b69": 1 << 69, "b63": 1 << 63, "all": (1 << 70) - 1,
             "none": 0, "b0": 1}
    masks.update((f"r{i}", int(hi) << 35 | int(lo)) for i, (hi, lo)
                 in enumerate(rng.integers(0, 1 << 35, size=(8, 2))))
    assert all(mask >> 70 == 0 for mask in masks.values())
    got = pr._classical(pr.linear("c", "m", masks), np.array(words, object))
    assert list(got) == list(masks)
    for key, mask in masks.items():
        assert got[key].tolist() == [
            (raw & mask).bit_count() & 1 for raw in words], key


@pytest.mark.parametrize(
    "args, message",
    [
        (("c", "m", {"b": True}), "got True"),
        (("c", "m", {"b": -1}), "got -1"),
        (("c", "m", {"b": np.int64(1)}), "needs a mask that is an integer"),
        (("c", "m", {1: 1}), "linear output 1 needs"),
        (("c", "m", [("b", 1)]), "outputs must be an object"),
        (("c", ("m",), {"b": 1}), "must be strings"),
        ((None, "m", {"b": 1}), "must be strings"),
    ],
)
def test_linear_checks_its_params_when_made(args, message):
    with pytest.raises(ValueError, match=message):
        pr.linear(*args)
