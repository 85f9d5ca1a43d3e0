"""Sparse complex state vector over computational basis states.

A state is two parallel arrays, unsorted: ``idx``, its basis indices
(``int64`` up to 62 qubits, Python ints beyond; qubit ``q`` owns bit
``(index >> q) & 1``), and ``amp``, their ``complex128`` amplitudes;
``amplitudes`` is a read-only dict view in the same order.  States are
immutable.  Weights and overlaps are summed in storage order and rounded
as Python rounds ``abs(a) ** 2`` and complex products, so they match a
per-amplitude loop bit for bit and a seed keeps its report bytes.

Ordering rule of the matrix-gate kernels, :func:`apply_unitaries` (and
:func:`apply_unitary`, its run of one) and :func:`apply_permutations`:
each orders its result by ``(rest, image)`` of its targets, an index's
bits outside the targets first, then its target pattern.  Those keys
are distinct, so the order depends on the result alone, and a run of
dense gates or of signed permutations orders its result as its last
gate alone would.  The map kernels keep the storage order.

Index chores take no sort where a table is small: bits move between
index and pattern positions by one lookup per chunk of up to 8 source
bits (:func:`_move_bits`), and the distinct patterns of at most 16 bits
come from a table of those present (:func:`_distinct`, :func:`_narrow`).
:func:`apply_predicated` needs no distinct patterns: it holds a gate's
parity mask, and one popcount of each entry's control pattern under it
finds the hits.

A state may be a batch of whole branches (:func:`branch_enumerate` makes
one, :func:`select_labels` keeps some, :func:`split_labels` takes it
apart): each branch's label sits in ``label_bits`` extra qubits above
the others, as if it were a classical register, and the entries come in
label-major order.  The label bits are outside every gate's targets, so
they lead the rest pattern: the ordering rule sorts by label first and
orders each branch as it orders that branch alone, and the map kernels
keep each branch's order.  The 1e-9 norm checks, and
:func:`apply_predicated`'s normalisation of its hit part, run per label
(``np.bincount`` in storage order).  A gate may apply to some branches
only: as an entry of an :func:`apply_permutations` run, with a boolean
mask over the labels, or through :func:`apply_to_labels`.  A state with
no label bits is one branch, label 0, to a mask as to the per-label sums.
"""
from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .numbersys import popcount

PRUNE_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-9
# most basis states a dense gate may produce, in one state or one batch,
# and most entries a run of dense gates may hold in one tensor
MAX_SUPPORT = 1 << 22
# a stretch of a run of dense gates holds in one tensor at most RUN_SLACK
# times its input support, or times RUN_FLOOR where that is more: small
# states pay the fixed cost of a gate, large ones the cost of each entry
RUN_SLACK = 2
RUN_FLOOR = 1024


class SparseState:
    """``SparseState(n, {index: amplitude})`` copies the pairs into arrays.

    A state whose ``label_bits`` is not 0 is a batch of branches: its top
    ``label_bits`` qubits hold each entry's label, and the entries of
    one label form one whole branch, of norm 1."""

    def __init__(self, num_qubits: int, amplitudes: Mapping[int, complex]):
        idx = _index_array(num_qubits, amplitudes)
        _check_range(num_qubits, idx)
        amp = np.fromiter(amplitudes.values(), complex, len(amplitudes))
        self._own(num_qubits, idx, amp, 0)

    @classmethod
    def _of(cls, num_qubits: int, idx: np.ndarray, amp: np.ndarray,
            label_bits: int = 0):
        """A state that takes ``idx`` and ``amp`` over as they are."""
        return cls.__new__(cls)._own(num_qubits, idx, amp, label_bits)

    def _own(self, num_qubits: int, idx: np.ndarray, amp: np.ndarray,
             label_bits: int):
        # a flag write costs several reads: slices of a state's arrays
        # are read-only already
        if idx.flags.writeable:
            idx.flags.writeable = False
        if amp.flags.writeable:
            amp.flags.writeable = False
        vars(self).update(num_qubits=num_qubits, idx=idx, amp=amp,
                          label_bits=label_bits)
        return self

    def _with(self, idx: np.ndarray, amp: np.ndarray) -> "SparseState":
        """A state on the same qubits and labels holding ``idx``, ``amp``."""
        return SparseState._of(self.num_qubits, idx, amp, self.label_bits)

    def __setattr__(self, name, value):
        raise AttributeError("SparseState is immutable")

    @functools.cached_property
    def amplitudes(self) -> Mapping[int, complex]:
        """Read-only ``{index: amplitude}`` view, in storage order."""
        return MappingProxyType(
            dict(zip(self.idx.tolist(), self.amp.tolist()))
        )

    @staticmethod
    def basis(num_qubits: int, index: int = 0) -> "SparseState":
        return from_amplitudes(num_qubits, [(index, 1.0)])

    def norm_squared(self) -> float:
        return _running_sum(_weights(self.amp))

    def check_norm(self) -> "SparseState":
        if self.label_bits:
            _check_branch_norms(self, self.idx, self.amp)
        elif not abs(self.norm_squared() - 1.0) <= NORM_TOLERANCE:
            raise ValueError("state norm drifted beyond tolerance")
        return self

    def support(self) -> int:
        return len(self.amp)


def _modulus(amp: np.ndarray) -> np.ndarray:
    """``abs(a)`` of each amplitude, bit for bit as Python (not numpy)."""
    return np.hypot(amp.real, amp.imag)


def _weights(amp: np.ndarray) -> np.ndarray:
    """``abs(a) ** 2`` of each amplitude, bit for bit as Python."""
    return np.float_power(_modulus(amp), 2)


def _running_sum(values: np.ndarray) -> float:
    """Sum in storage order, as a Python loop adds (``np.sum`` pairs)."""
    return float(values.cumsum()[-1]) if len(values) else 0.0


def _labels(state: SparseState, idx: np.ndarray) -> np.ndarray:
    """The label of each index in ``idx``, an index of ``state``."""
    return (idx >> (state.num_qubits - state.label_bits)).astype(np.intp)


def _check_branch_norms(
    state: SparseState, idx: np.ndarray, amp: np.ndarray,
    checked: np.ndarray | None = None,
) -> None:
    """Raise unless every label of ``state`` (only those that ``checked``
    selects, when given) has a norm within ``NORM_TOLERANCE`` of 1 over
    the entries ``idx``, ``amp``: each label summed in storage order, as
    :func:`branch_enumerate` sums each outcome."""
    present = np.bincount(_labels(state, state.idx)) > 0
    if checked is not None:
        present &= checked[: len(present)]
    norms = np.bincount(_labels(state, idx), _weights(amp), len(present))
    if (present & ~(np.abs(norms - 1.0) <= NORM_TOLERANCE)).any():
        raise ValueError("state norm drifted beyond tolerance")


def _check_targets(state: SparseState, targets: Sequence[int]) -> None:
    if len(set(targets)) != len(targets):
        raise IndexError("duplicate target qubits")
    for t in targets:
        if not 0 <= t < state.num_qubits:
            raise IndexError(f"target {t} out of range")


def _dtype(bits: int):
    """Integer dtype for values of ``bits`` bits: ``int64`` while they
    fit, Python ints (``object``) beyond."""
    return np.int64 if bits <= 62 else object


@functools.lru_cache(maxsize=4096)
def _shifts(src: Tuple[int, ...], dst: Tuple[int, ...]):
    """``(distance, mask)`` per distinct ``src[i] - dst[i]``: ``mask``
    holds the source bits that move right by ``distance`` (left when it
    is negative).  Memoised: a program moves the bits of a few thousand
    distinct target tuples at most."""
    masks: dict = {}
    for s, d in zip(src, dst):
        masks[s - d] = masks.get(s - d, 0) | 1 << s
    return tuple(masks.items())


class _TableMemo(dict):
    """:func:`_move_tables` by ``(src, dst)``, least recently used first;
    it drops the oldest while its tables pass ``TABLE_BYTES``."""

    held = 0  # bytes of the tables held

    def tables(self, src: Tuple[int, ...], dst: Tuple[int, ...]):
        key = src, dst
        found = self.pop(key, None)
        if found is None:
            found = _move_tables(src, dst)
            self.held += sum(table.nbytes for table in found)
            while self.held > TABLE_BYTES:
                gone = self.pop(next(iter(self)))
                self.held -= sum(table.nbytes for table in gone)
        self[key] = found
        return found


# most bytes the memo of bit-movement tables holds: a table takes up to
# 2 kB, and a 4096-entry memo of up to eight each could take 64 MB
TABLE_BYTES = 1 << 20
_TABLES = _TableMemo()


@functools.lru_cache(maxsize=4096)
def _chunks(src: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """``(low, width)`` of each chunk of at most 8 bits that covers the
    bits ``src``, ascending: each starts at the lowest bit the chunks
    below miss and ends at the highest bit of ``src`` within 8 of it."""
    chunks: List[list] = []
    for s in sorted(src):
        if chunks and s < chunks[-1][0] + 8:
            chunks[-1][1] = s - chunks[-1][0] + 1
        else:
            chunks.append([s, 1])
    return tuple(map(tuple, chunks))


def _move_tables(src: Tuple[int, ...], dst: Tuple[int, ...]):
    """One table per chunk of the source bits (:func:`_chunks`): the one
    at bit ``low`` holds, at each ``b`` below 2^width, the moved bits of
    ``b << low``."""
    tables = []
    for low, width in _chunks(src):
        byte = np.arange(1 << width)
        table = np.zeros(1 << width, np.int64)
        for s, d in zip(src, dst):
            if low <= s < low + width:
                table |= (byte >> (s - low) & 1) << d
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _move_bits(
    values: np.ndarray, src: Sequence[int], dst: Sequence[int], dtype
) -> np.ndarray:
    """Bit ``src[i]`` of each value placed at bit ``dst[i]``; every other
    bit of the result is 0.  ``int64`` values move by one table lookup
    per chunk of their source bits (:func:`_move_tables`) where
    that takes fewer steps; else bits that move by the same distance
    move together."""
    src, dst = tuple(src), tuple(dst)
    shifts, chunks = _shifts(src, dst), _chunks(src)
    if values.dtype == dtype == np.int64 and len(shifts) > len(chunks):
        out = None
        for (low, _), table in zip(chunks, _TABLES.tables(src, dst)):
            byte = values >> low
            byte &= len(table) - 1
            if out is None:
                out = table[byte]
            else:
                out |= table[byte]
        return out
    out = None
    for distance, mask in shifts:
        part = values & mask
        # convert where the part fits the narrower dtype: after a right
        # shift, before a left one
        if distance > 0:
            part >>= distance
        if part.dtype != dtype:
            part = part.astype(dtype)
        if distance < 0:
            part <<= -distance
        if out is None:
            out = part
        else:
            out |= part
    return np.zeros(len(values), dtype) if out is None else out


def _gather(idx: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Target-bit pattern of each index, targets[0] most significant."""
    k = len(targets)
    return _move_bits(idx, targets, range(k - 1, -1, -1), _dtype(k))


def _scatter(
    patterns: np.ndarray, targets: Sequence[int], dtype
) -> np.ndarray:
    """Inverse of :func:`_gather`: each pattern's bits set on the target
    qubits, every other bit 0."""
    k = len(targets)
    return _move_bits(patterns, range(k - 1, -1, -1), targets, dtype)


def _rest(idx: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Each index with its target bits cleared."""
    return idx & ~sum(1 << t for t in targets)


_PLACEMENTS: dict = {}


def _placements(targets: Sequence[int], dtype) -> np.ndarray:
    """Each target pattern's bits set on ``targets``, every other bit 0;
    memoised up to 10 targets (8 kB a tuple), for 4096 tuples at most."""
    key = tuple(targets), dtype
    placed = _PLACEMENTS.get(key)
    if placed is None:
        placed = _scatter(np.arange(1 << len(targets)), targets, dtype)
        placed.flags.writeable = False
        if len(targets) <= 10 and len(_PLACEMENTS) < 4096:
            _PLACEMENTS[key] = placed
    return placed


def _group(idx: np.ndarray, targets: Sequence[int]):
    """The distinct rest patterns of ``idx`` outside ``targets``, in
    ascending order, and the place of each index's rest among them."""
    rest = _rest(idx, targets)
    if len(rest) and not np.count_nonzero(rest != rest[0]):
        return rest[:1], np.zeros(len(rest), np.intp)
    order = rest.argsort()
    ordered = rest[order]
    first = np.ones(len(rest), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    row = np.empty(len(rest), np.intp)
    row[order] = first.cumsum() - 1
    return ordered[first], row


def apply_unitary(
    state: SparseState, matrix: np.ndarray, targets: Sequence[int]
) -> SparseState:
    """Apply a dense unitary on ``targets``; targets[0] is the matrix's
    most significant bit.  A run of one (see :func:`apply_unitaries`)."""
    return apply_unitaries(state, [(matrix, targets)])[0]


def apply_unitaries(
    state: SparseState, run: Sequence[tuple], ends: Iterable[int] = ()
) -> Tuple[SparseState, np.ndarray | int]:
    """Apply a run of dense unitaries, one after another; ``run`` holds
    at least one ``(matrix, targets)`` pair, targets[0] the matrix's most
    significant bit.  Returns the state and the largest support each
    label had after the first ``e`` gates for any ``e`` in ``ends``: an
    array indexed by label, an int for a state without label bits, 0
    when ``ends`` names no gate.

    The gates give the state, bit for bit and in the same order, that
    they give one at a time.  A stretch of the run (see :func:`_stretch`)
    scatters the state once into a tensor of (distinct rest outside its
    ``m`` qubits) x 2^m, and each gate is one product of that tensor's
    fibres along its targets, (fibres x 2^k) @ matrix.T, with the 1e-12
    prune (to exact zeros) and the 1e-9 norm check of a gate alone.
    Every fibre thus meets the gate's matrix as its row of the one-gate
    block does; the BLAS computes each row of a product of two or more
    rows alike, whatever the other rows and their order, but a product
    of one row takes another path, so a fibre that is the only one of
    its branch holding an entry is multiplied alone, as a one-row block
    is.  The result is read off in ``(rest, image)`` order of the last
    gate, with one sort where the rows alone do not give it.  A stretch
    whose tensor would pass ``MAX_SUPPORT`` runs gate by gate, so
    :class:`SupportLimitError` stops the gate it stops alone."""
    gates = []
    for matrix, targets in run:
        matrix = np.asarray(matrix, dtype=complex)
        _check_targets(state, targets)
        if matrix.shape != (1 << len(targets),) * 2:
            raise ValueError("matrix size does not match target count")
        gates.append((matrix, tuple(targets)))
    run, ends = gates, set(ends)
    peaks = 0
    start = alone = 0  # gates before ``alone`` run one at a time
    spread = False  # whether the last stretch grew the support
    while start < len(run):
        count, axes, grouping = _stretch(
            state, run[start:start + 1] if start < alone else run[start:],
            not spread)
        if count > 1 and len(grouping[0]) << len(axes) > MAX_SUPPORT:
            alone = start + count
            continue
        support = state.support()
        state, seen = _run_tensor(state, run[start:start + count], axes,
                                  *grouping, ends, start)
        if ends:
            peaks = np.maximum(peaks, seen)
        spread = state.support() > support
        start += count
    return state, peaks


def _stretch(state: SparseState, run: Sequence[tuple], whole: bool):
    """How many leading gates of ``run`` one tensor takes, that tensor's
    qubits and the grouping of ``state`` outside them (:func:`_group`).
    The qubits are the first gate's targets, in its order, while the
    gates stay on them, else all of them descending, so that adjacent
    qubits gather with one shift.

    The tensor may hold ``RUN_SLACK`` times the support of ``state``, or
    times ``RUN_FLOOR`` where that is more.  It takes all the gates when
    ``whole`` is true and their tensor fits; else the first gate, and
    each later one while the support times 2^m for the m qubits so far
    fits, which bounds the tensor without grouping the state again.  A
    run that spreads the state over many qubits thus takes them a few at
    a time (its caller passes ``whole`` false while it spreads, to save
    the grouping that would not fit), and dense gates that do not spread
    a wide sparse state cost about what they cost one at a time."""
    first, qubits, spans = run[0][1], set(), []
    for _, targets in run:
        qubits.update(targets)
        spans.append(first if len(qubits) == len(first)
                     else tuple(sorted(qubits, reverse=True)))
    support = state.support()
    bound = RUN_SLACK * max(support, RUN_FLOOR)
    if whole and 1 << len(spans[-1]) <= bound:
        grouping = _group(state.idx, spans[-1])
        if len(grouping[0]) << len(spans[-1]) <= bound:
            return len(run), spans[-1], grouping
    count = 1
    while count < len(run) and (spans[count] == spans[count - 1]
                                or support << len(spans[count]) <= bound):
        count += 1
    return count, spans[count - 1], _group(state.idx, spans[count - 1])


def _run_tensor(
    state: SparseState, run: Sequence[tuple], axes: Tuple[int, ...],
    rests: np.ndarray, row: np.ndarray, ends: set, done: int,
) -> Tuple[SparseState, np.ndarray | int]:
    """:func:`apply_unitaries` of one stretch, on the tensor over ``axes``
    whose rows are ``rests``, ``row`` placing each entry of ``state``;
    ``ends`` counts gates as :func:`apply_unitaries` does, from ``done``
    gates before the stretch."""
    m, width = len(axes), len(rests)
    if width << m > MAX_SUPPORT:
        raise SupportLimitError(
            f"a {m}-qubit gate would give {width << m} basis states,"
            f" more than the cap of {MAX_SUPPORT}")
    shape = (width,) + (2,) * m
    col = _gather(state.idx, axes)
    tensor = np.zeros((width, 1 << m), complex)
    tensor[row, col] = state.amp
    tensor = tensor.reshape(shape)
    if state.label_bits:  # the label bits lead each row's rest
        labels, counts = _labels(state, rests), supports(state, 0)
        checked = counts > 0
        least = int(counts[checked].min())
    else:
        labels, counts = None, len(row)
        least = counts
    peaks = 0
    order = list(axes)  # the qubit of each axis of ``tensor`` after the first
    for gate, (matrix, targets) in enumerate(run, done + 1):
        k = len(targets)
        perm = _to_back(order, targets)
        if perm is not None:
            tensor = tensor.transpose(perm)
        fibres = tensor.reshape(-1, 1 << k)
        out = fibres @ matrix.T
        # a branch may hold one live fibre among others
        if least <= 1 << k and len(fibres) > 1:
            # a fibre is live when it holds an entry: a nonzero, but for
            # an exact zero in ``state``, since the prune leaves none
            if gate == done + 1 and np.count_nonzero(state.amp) < len(row):
                live = np.zeros((width, 1 << m), bool)
                live[row, col] = True
                live = live.reshape(shape)
                if perm is not None:
                    live = live.transpose(perm)
                live = live.reshape(-1, 1 << k).any(1)
            else:
                live = fibres.any(1)
            _alone(out, fibres, live, matrix, labels, 1 << (m - k))
        size = np.abs(out)
        drop = size < PRUNE_THRESHOLD
        # NaN fails these checks, as the kernel of one gate, which
        # pruned a NaN entry, failed its norm
        if labels is None:
            if not abs(np.vdot(out, out).real - 1.0) <= NORM_TOLERANCE:
                raise ValueError("state norm drifted beyond tolerance")
        else:
            norms = np.bincount(labels, np.square(size).reshape(width, -1)
                                .sum(1), len(counts))
            if (checked & ~(np.abs(norms - 1.0) <= NORM_TOLERANCE)).any():
                raise ValueError("state norm drifted beyond tolerance")
        if gate == done + len(run) and gate not in ends:
            break
        if labels is None:
            counts = least = drop.size - np.count_nonzero(drop)
        else:
            per_row = (1 << m) - np.count_nonzero(drop.reshape(width, -1), 1)
            counts = np.bincount(labels, per_row, len(counts)).astype(np.int64)
            least = int(np.minimum.reduce(counts[checked]))
        if gate in ends:
            peaks = (max(peaks, counts) if labels is None
                     else np.maximum(peaks, counts))
        np.putmask(out, drop, 0)
        tensor = out.reshape(shape)
    out, keep = out.reshape(shape), ~drop.reshape(shape)
    # the other qubits descending: with one row, or rows that differ
    # above them, the flat order is then (rest, image) of the last gate
    perm = _to_back(order, tuple(sorted(order[:m - k], reverse=True))
                    + targets)
    if perm is not None:
        out, keep = out.transpose(perm), keep.transpose(perm)
    keep = keep.ravel()
    idx = (rests[:, None] | _placements(order, state.idx.dtype)).ravel()[keep]
    amp = out.ravel()[keep]
    if m > k and width > 1 and np.count_nonzero(
            (rests[1:] ^ rests[:-1]) >> (order[0] + 1)) < width - 1:
        key = _rest(idx, targets).astype(
            _dtype(state.num_qubits + k), copy=False) << k
        by_key = (key | _gather(idx, targets)).argsort()
        idx, amp = idx[by_key], amp[by_key]
    return state._with(idx, amp), peaks


def _to_back(order: List[int], targets: Tuple[int, ...]):
    """The axis permutation that puts the axes of ``targets`` last, in
    their order, or ``None`` when they are there; ``order``, the qubit of
    each axis after the first, is permuted with it."""
    if tuple(order[len(order) - len(targets):]) == targets:
        return None
    if len(targets) == 1:  # swap its axis with the last
        perm = list(range(len(order) + 1))
        i = order.index(targets[0])
        order[i], order[-1] = order[-1], order[i]
        perm[i + 1], perm[-1] = perm[-1], perm[i + 1]
        return perm
    moved = [i for i, q in enumerate(order) if q not in targets] + [
        order.index(t) for t in targets]
    order[:] = [order[i] for i in moved]
    return [0] + [1 + i for i in moved]


def _alone(out: np.ndarray, fibres: np.ndarray, live: np.ndarray,
           matrix: np.ndarray, labels: np.ndarray | None,
           spread: int) -> None:
    """Redo in ``out``, as a product of one row, the product of each live
    fibre that is the only live one of its branch; ``labels`` holds the
    label of each tensor row (``None`` for one branch), and each row
    holds ``spread`` fibres."""
    if labels is None:
        single = live if np.count_nonzero(live) == 1 else None
    else:
        fibre_labels = np.repeat(labels, spread)
        single = live & (np.bincount(fibre_labels, live)[fibre_labels] == 1)
    if single is not None:
        out[single] = (fibres[single][:, None, :] @ matrix.T)[:, 0]


def apply_permutations(state: SparseState, run: Sequence[tuple]) -> SparseState:
    """Apply a run of signed permutations, one after another; ``run``
    holds at least one.  In each ``(images, phases, targets)``, target
    pattern ``p`` (targets[0] most significant) moves to ``images[p]``,
    its amplitude times ``phases[p]``, one of ``1, -1, 1j, -1j``.  An
    entry may add a boolean array indexed by label (label 0 in a state
    without label bits): the gate then applies to those branches only.

    One gate gives :func:`apply_unitary`'s indices in its order,
    ``(rest, image)``, and amplitudes that compare equal: a product with
    a unit is exact.  A run gives each branch what the gates that reach
    it give one at a time: one sort, as the last of them sorts, and, as
    a unit keeps each modulus, one prune and one norm check.  A branch
    that no gate reaches stays as it was, unpruned and unchecked."""
    idx, amp, hit = state.idx, state.amp, None
    if any(len(entry) > 3 for entry in run):
        # sort key: ``rest << width | image`` of the last gate to reach
        # an entry, else its label alone, so a stable sort keeps order
        labels = _labels(state, idx)
        width = max(len(entry[2]) for entry in run)
        dtype = _dtype(state.num_qubits + width)
        top = state.num_qubits - state.label_bits + width
        key = labels.astype(dtype) << top
        hit = np.zeros(len(idx), bool)
    for images, phases, targets, *which in run:
        _check_targets(state, targets)
        k = len(targets)
        if len(images) != 1 << k:
            raise ValueError("permutation size does not match target count")
        patterns = _gather(idx, targets)
        rest, moved = _rest(idx, targets), images[patterns]
        image = rest | _placements(targets, idx.dtype)[moved]
        phased = amp * phases[patterns]
        if hit is not None:
            on = which[0][labels] if which else True
            image = np.where(on, image, idx)
            phased = np.where(on, phased, amp)
            key = np.where(on, rest.astype(dtype, copy=False) << width
                           | moved.astype(dtype), key)
            hit |= on
        idx, amp = image, phased
    # written so that a NaN is kept, and the norm check rejects it
    keep, checked = ~(np.abs(amp) < PRUNE_THRESHOLD), None
    if hit is None:
        # the last gate's (rest, image) pairs as distinct integers: one
        # sort, several times faster than np.lexsort of the two keys
        key = rest.astype(_dtype(state.num_qubits + k), copy=False) << k
        order = (key | moved).argsort()
    else:
        order = key.argsort(kind="stable")
        keep, checked = keep | ~hit, np.bincount(labels, hit) > 0
    order = order[keep[order]]
    idx, amp = idx[order], amp[order]
    if state.label_bits or checked is not None:
        _check_branch_norms(state, idx, amp, checked)
    elif not abs(np.vdot(amp, amp).real - 1.0) <= NORM_TOLERANCE:
        raise ValueError("state norm drifted beyond tolerance")
    return state._with(idx, amp)


def _narrow(bits: int, count: int) -> bool:
    """Whether a table over every ``bits``-bit value costs less than a
    sort of ``count`` such values: at most 2^16 of them, and at most 8
    per value sorted."""
    return bits <= 16 and 1 << bits <= 8 * count


def _distinct(idx: np.ndarray, targets: Sequence[int]):
    """The sorted distinct target patterns of ``idx`` (targets[0] most
    significant) and each index's position among them: the one array a
    map kernel hands its function.  ``np.unique``'s, with no sort where
    a table of the patterns present is :func:`_narrow`."""
    patterns = _gather(idx, targets)
    if not _narrow(len(targets), len(patterns)):
        return np.unique(patterns, return_inverse=True)
    present = np.zeros(1 << len(targets), bool)
    present[patterns] = True
    values = np.flatnonzero(present)
    # each value's place: a scatter costs half a cumsum of ``present``
    place = np.empty(len(present), np.intp)
    place[values] = np.arange(len(values))
    return values, place[patterns]


def _repeats(values: np.ndarray) -> bool:
    """Whether a value occurs twice; one sort (``np.unique`` without
    ``return_inverse`` loads ``numpy.ma``, about 1 MB, on first use)."""
    ordered = np.sort(values)
    return bool((ordered[1:] == ordered[:-1]).any())


def apply_basis_map(
    state: SparseState,
    mapping: Callable[[np.ndarray], np.ndarray],
    targets: Sequence[int],
) -> SparseState:
    """Relabel basis states by a bijection on the target bits.

    ``mapping`` takes the array of distinct target patterns in the
    support (targets[0] most significant; ``int64`` up to 62 targets,
    Python ints beyond) and returns their images in the same dtype; it
    is called once.  Support size never grows.
    """
    _check_targets(state, targets)
    k = len(targets)
    idx = state.idx
    patterns, where = _distinct(idx, targets)
    images = np.asarray(mapping(patterns))
    if not ((images >= 0) & (images < (1 << k))).all():
        raise ValueError("basis map image out of range")
    moved = _scatter(images, targets, idx.dtype)
    new_idx = _rest(idx, targets) | moved[where]
    # distinct images cannot collide; otherwise test the support itself
    if _repeats(images) and _repeats(new_idx):
        raise ValueError("basis map is not injective on the support")
    return state._with(new_idx, state.amp)


def apply_phase_map(
    state: SparseState,
    phase: Callable[[np.ndarray], np.ndarray],
    targets: Sequence[int],
) -> SparseState:
    """Multiply each basis amplitude by a unit-modulus phase of its
    target-bit pattern; ``phase`` takes the array of distinct patterns,
    as :func:`apply_basis_map`'s ``mapping`` does, and returns their
    phases."""
    _check_targets(state, targets)
    idx = state.idx
    patterns, where = _distinct(idx, targets)
    phases = np.asarray(phase(patterns), complex)
    if not np.all(np.abs(np.abs(phases) - 1.0) <= 1e-9):
        raise ValueError("phase factor must have unit modulus")
    return state._with(idx, state.amp * phases[where])


def apply_predicated(
    state: SparseState,
    mask: int,
    controls: Sequence[int],
    apply: Callable[[SparseState], SparseState],
) -> SparseState:
    """Run ``apply``, which keeps the control bits, on the normalised part
    of ``state`` whose control pattern (controls[0] most significant)
    holds an odd number of the bits ``mask`` selects, and scale its
    result back; the rest stays.  Each branch's part is normalised on its
    own weight."""
    _check_targets(state, controls)
    hit = popcount(_gather(state.idx, controls) & mask) & 1 == 1
    if not hit.any():
        return state.check_norm()
    idx, amp = state.idx[hit], state.amp[hit]
    labels = _labels(state, idx)
    norms = np.sqrt(np.bincount(labels, _weights(amp)))
    # divide each component, as Python's complex-by-float division does
    part = amp.view(float) / np.repeat(norms[labels], 2)
    moved = apply(state._with(idx, part.view(complex)))
    return _merged(state, hit, moved.idx,
                   moved.amp * norms[_labels(state, moved.idx)]).check_norm()


def pick(outcomes: np.ndarray, weights: np.ndarray, qubits: Sequence[int],
         rng: np.random.Generator | None, forced: int | None) -> int:
    """The place among the live ``outcomes`` of measuring ``qubits`` that
    a shot follows: ``rng``'s draw by ``weights``, or that of ``forced``."""
    if forced is None:
        return int(rng.choice(len(weights), p=weights / weights.sum()))
    place = np.flatnonzero(outcomes == forced)
    if not len(place):
        raise InfeasibleBranchError(f"outcome {forced:b} on qubits"
                                    f" {list(qubits)} has zero probability")
    return int(place[0])


def measure(state: SparseState, qubits: Sequence[int], *,
            rng: np.random.Generator | None = None,
            forced: int | None = None) -> Tuple[int, float, SparseState]:
    """Measure ``qubits``: the outcome (qubits[0] its most significant
    bit) that :func:`pick` picks from :func:`branch_enumerate`, its
    probability and its branch.  Give exactly one of ``rng``, ``forced``."""
    if (rng is None) == (forced is None):
        raise ValueError("provide exactly one of rng and forced")
    outcomes, weights, batch = branch_enumerate(state, qubits)
    place = pick(outcomes, weights, qubits, rng, forced)
    return (int(outcomes[place]), float(weights[place]),
            select_labels(batch, np.array([place])))


class InfeasibleBranchError(ValueError):
    """Raised when a forced measurement outcome has zero probability."""


class SupportLimitError(ValueError):
    """Raised when a dense gate would give more than :data:`MAX_SUPPORT`
    basis states."""


def branch_enumerate(
    state: SparseState, qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, SparseState]:
    """The live outcomes of measuring ``qubits`` (probability above
    ``PRUNE_THRESHOLD``) in one pass: the ascending outcomes, their
    probabilities, and one batch whose branch ``i`` is the collapse on
    ``outcomes[i]``, labelled in bits above the state's unlabelled
    qubits.  On a labelled state, ``qubits`` must hold the label bits,
    so that each outcome falls in one branch."""
    _check_targets(state, qubits)
    outcomes, where = _distinct(state.idx, qubits)
    weights = np.bincount(where, _weights(state.amp), len(outcomes))
    if not np.isfinite(weights).all():  # the prune would drop a NaN
        raise ValueError("outcome weights must be finite")
    live = weights > PRUNE_THRESHOLD
    place = np.cumsum(live) - 1  # each live outcome's place among them
    # positions grouped by outcome, each group in storage order; outcomes
    # too unlikely to follow go before anything divides by their weight
    members = np.argsort(where, kind="stable")
    members = members[live[where[members]]]
    group = place[where[members]]
    outcomes, weights = outcomes[live], weights[live]
    amp = state.amp[members] * (1.0 / np.sqrt(weights))[group]
    keep = _modulus(amp) >= PRUNE_THRESHOLD
    idx, amp, group = state.idx[members[keep]], amp[keep], group[keep]
    # each branch's norm summed in storage order, as _running_sum does
    norms = np.bincount(group, _weights(amp), len(weights))
    if not (np.abs(norms - 1.0) <= NORM_TOLERANCE).all():
        raise ValueError("state norm drifted beyond tolerance")
    return outcomes, weights, _batch(state, idx, amp, group, len(weights))


def _batch(state: SparseState, idx: np.ndarray, amp: np.ndarray,
           group: np.ndarray, count: int) -> SparseState:
    """The batch whose branch ``group[i]`` of ``count`` holds ``idx[i]``,
    ``amp[i]``, above ``state``'s unlabelled qubits."""
    n = state.num_qubits - state.label_bits
    bits = (count - 1).bit_length()
    if bits or state.label_bits:
        dtype = _dtype(n + bits)
        idx = (idx & ((1 << n) - 1)).astype(dtype, copy=False)
        idx |= group.astype(dtype) << n
    return SparseState._of(n + bits, idx, amp, bits)


def select_labels(state: SparseState, labels: np.ndarray) -> SparseState:
    """The branches of ``state`` that the ascending ``labels`` name, each
    as it was, relabelled ``0, 1, ...`` in that order."""
    group = np.full(1 << state.label_bits, -1, np.intp)
    group[labels] = np.arange(len(labels))
    group = group[_labels(state, state.idx)]
    keep = group >= 0
    return _batch(state, state.idx[keep], state.amp[keep], group[keep],
                  len(labels))


def split_labels(state: SparseState, count: int) -> List[SparseState]:
    """The ``count`` branches of ``state``, label ``i`` at place ``i``,
    each without its label bits and with the dtype of its own qubits."""
    if not state.label_bits:
        return [state]
    n = state.num_qubits - state.label_bits
    ends = supports(state, count).cumsum().tolist()
    idx = (state.idx & ((1 << n) - 1)).astype(_dtype(n), copy=False)
    idx.flags.writeable = False  # once, so that no slice needs it
    # slices: np.split costs several times more per piece
    return [SparseState._of(n, idx[start:end], state.amp[start:end])
            for start, end in zip([0] + ends, ends)]


def supports(state: SparseState, count: int) -> np.ndarray:
    """The support of each of the ``count`` branches of ``state``."""
    return np.bincount(_labels(state, state.idx), minlength=count)


def apply_to_labels(
    state: SparseState, which: np.ndarray,
    apply: Callable[[SparseState], SparseState],
) -> SparseState:
    """Run ``apply`` on the branches of ``state`` that ``which``, a
    boolean array indexed by label, selects, and merge its result back
    (:func:`_merged`); the branches stay whole, so none is rescaled."""
    on = which[_labels(state, state.idx)]
    moved = apply(state._with(state.idx[on], state.amp[on]))
    return _merged(state, on, moved.idx, moved.amp)


def _merged(state: SparseState, on: np.ndarray, idx, amp) -> SparseState:
    """``state`` but ``on``, then ``idx``, ``amp``, stably sorted by label."""
    idx = np.concatenate([state.idx[~on], idx])
    amp = np.concatenate([state.amp[~on], amp])
    order = _labels(state, idx).argsort(kind="stable")
    return state._with(idx[order], amp[order])


def fidelity(state: SparseState, target: SparseState) -> float:
    """|<target|state>| — global phase quotiented out."""
    if state.num_qubits != target.num_qubits:
        raise ValueError("qubit counts differ")
    small, large = sorted((state, target), key=SparseState.support)
    # the shared indices in the small state's order: by a table of each
    # index's place in the large state where it is narrow, else a sort
    if _narrow(state.num_qubits, large.support()):
        place = np.full(1 << state.num_qubits, -1, np.intp)
        place[large.idx] = np.arange(large.support())
        j = place[small.idx]
        i = np.flatnonzero(j >= 0)
        j = j[i]
    else:
        _, i, j = np.intersect1d(
            small.idx, large.idx, assume_unique=True, return_indices=True
        )
        order = np.argsort(i)
        i, j = i[order], j[order]
    a, b = small.amp[i], large.amp[j]
    # a * conj(b) per component, as Python's complex product rounds it
    re = _running_sum(a.real * b.real + a.imag * b.imag)
    im = _running_sum(a.imag * b.real - a.real * b.imag)
    return min(1.0, abs(complex(re, im)))


def from_arrays(
    num_qubits: int, idx: np.ndarray, amp: np.ndarray
) -> SparseState:
    """The state with amplitudes ``amp`` on the distinct basis indices
    ``idx`` (any integer dtype), checked as :func:`from_amplitudes`
    checks its entries: every index in range, amplitudes below
    ``PRUNE_THRESHOLD`` dropped and the norm within ``NORM_TOLERANCE``
    of 1, and every amplitude finite."""
    _check_range(num_qubits, idx)
    if not np.isfinite(amp).all():  # the prune would drop a NaN
        raise ValueError("amplitudes must be finite")
    keep = _modulus(amp) >= PRUNE_THRESHOLD
    idx = idx.astype(_dtype(num_qubits), copy=False)
    state = SparseState._of(num_qubits, idx[keep], amp[keep])
    if not abs(state.norm_squared() - 1.0) <= NORM_TOLERANCE:
        raise ValueError("amplitudes are not normalized")
    return state


def _check_range(num_qubits: int, idx: np.ndarray) -> None:
    """Raise unless every index in ``idx`` is in [0, 2^num_qubits)."""
    if len(idx):
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0 or hi >> num_qubits:
            raise IndexError(
                f"basis index {lo if lo < 0 else hi} out of range")


def _index_array(num_qubits: int, amps: Mapping[int, complex]) -> np.ndarray:
    """The keys of ``amps`` as an index array of ``num_qubits`` qubits,
    not yet checked to be in range."""
    try:
        return np.fromiter(amps, _dtype(num_qubits), len(amps))
    except OverflowError:  # an index past int64, for the range check
        return np.array(list(amps), object)


def from_amplitudes(
    num_qubits: int, entries: Iterable[Tuple[int, complex]]
) -> SparseState:
    amps = dict(entries)
    amp = np.fromiter(amps.values(), complex, len(amps))
    return from_arrays(num_qubits, _index_array(num_qubits, amps), amp)


def split_register(
    state: SparseState, keep: Sequence[int]
) -> Tuple[SparseState, int]:
    """Factor out ``keep`` (keep[0] most significant) from a state whose
    remaining qubits sit in one common basis state.

    Returns the sub-state on the kept qubits and the basis pattern of the
    discarded qubits (ascending qubit order, qubit 0 least significant).
    Raises if the rest is entangled with, or in superposition outside,
    the kept register.
    """
    _check_targets(state, keep)
    rest = _rest(state.idx, keep)
    if len(rest) and (rest != rest[0]).any():
        raise ValueError("remaining qubits are not in one basis state")
    r = int(rest[0]) if len(rest) else 0
    others = sorted(set(range(state.num_qubits)) - set(keep))
    pattern = sum(((r >> q) & 1) << pos for pos, q in enumerate(others))
    sub = SparseState._of(len(keep), _gather(state.idx, keep), state.amp)
    return sub, pattern
