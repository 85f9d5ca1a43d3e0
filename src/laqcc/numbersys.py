"""Classical number-representation kernel.

Factoradics (mixed-radix digit strings with digit j in 0..j), the
combinatorial number system (ranking/unranking of fixed-weight bit
strings), the left-to-right conversion from a factoradic to a weight-k
bit string, its randomized inverse, and the birthday-style lower bound
on the distinct-index probability used by the Dicke filtering step.

Digit order is most-significant-first: a length-n factoradic is
``(y_{n-1}, ..., y_0)``.  Bit strings are tuples with bit n-1 leftmost.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Bits = Tuple[int, ...]


def _check_factoradic(digits: Sequence[int]) -> None:
    n = len(digits)
    for pos, d in enumerate(digits):
        j = n - 1 - pos
        if not 0 <= d <= j:
            raise ValueError(f"digit {d} at weight {j} outside 0..{j}")


def factoradic_to_int(digits: Sequence[int]) -> int:
    """Evaluate sum of y_j * j! for digits given most-significant-first."""
    _check_factoradic(digits)
    n = len(digits)
    return sum(d * math.factorial(n - 1 - pos) for pos, d in enumerate(digits))


def int_to_factoradic(m: int, n: int) -> Bits:
    if not 0 <= m < math.factorial(n):
        raise ValueError(f"{m} not in [0, {n}!)")
    digits = []
    for j in range(n - 1, -1, -1):
        f = math.factorial(j)
        digits.append(m // f)
        m %= f
    return tuple(digits)


def all_factoradics(n: int):
    """Yield every n-factoradic, most-significant-first."""
    for m in range(math.factorial(n)):
        yield int_to_factoradic(m, n)


def comb_to_int(positions: Sequence[int]) -> int:
    """Rank of the strictly-decreasing index sequence (c_k, ..., c_1)."""
    k = len(positions)
    for i in range(k - 1):
        if positions[i] <= positions[i + 1]:
            raise ValueError("index sequence must be strictly decreasing")
    if k and positions[-1] < 0:
        raise ValueError("indices must be nonnegative")
    return sum(math.comb(c, k - i) for i, c in enumerate(positions))


def int_to_comb(m: int, k: int, n: int) -> Bits:
    """Unrank m into the decreasing sequence (c_k, ..., c_1) with c_k < n.

    The ones of the m-th lexicographically-smallest weight-k n-bit string
    sit exactly at these positions (bit n-1 leftmost).
    """
    if not 0 <= m < math.comb(n, k):
        raise ValueError(f"{m} not in [0, C({n},{k}))")
    positions = []
    for i in range(k, 0, -1):
        # greedy: biggest c with C(c, i) <= m
        c = i - 1
        while math.comb(c + 1, i) <= m:
            c += 1
        positions.append(c)
        m -= math.comb(c, i)
    return tuple(positions)


def positions_to_bits(positions: Sequence[int], n: int) -> Bits:
    bits = [0] * n
    for p in positions:
        bits[n - 1 - p] = 1
    return tuple(bits)


def bits_to_positions(bits: Sequence[int]) -> Bits:
    n = len(bits)
    return tuple(n - 1 - i for i, b in enumerate(bits) if b)


def fac_to_comb(digits: Sequence[int], k: int) -> Bits:
    """Map a factoradic to a weight-k bit string, scanning left to right.

    Bit n-j is set iff the digit at that position is smaller than the
    number of ones still owed.
    """
    n = len(digits)
    out = []
    h = 0  # ones emitted so far
    for pos, d in enumerate(digits):
        j = n - 1 - pos
        if not 0 <= d <= j:
            raise ValueError(f"digit {d} at weight {j} outside 0..{j}")
        bit = 1 if d < k - h else 0
        out.append(bit)
        h += bit
    if not 0 <= k <= n:
        raise ValueError("weight out of range")
    return tuple(out)


def comb_to_fac(bits: Sequence[int], z: Sequence[int], o: Sequence[int]) -> Bits:
    """Rebuild a factoradic from a weight-k bit string and fresh digits.

    ``z`` is an (n-k)-factoradic, ``o`` a k-factoradic; over all (z, o)
    the output ranges over exactly the k!(n-k)! preimages of ``bits``
    under :func:`fac_to_comb`.
    """
    n = len(bits)
    k = sum(bits)
    if len(z) != n - k or len(o) != k:
        raise ValueError("auxiliary factoradic lengths must be n-k and k")
    digits = []
    ones = zeros = 0
    for bit in bits:
        if bit == 1 and ones < k:
            # i-th one (left to right) consumes digit O_{k-1-i}; its
            # range 0..k-ones-1 is exactly the digit values that emit a
            # 1 here.
            d = o[ones]
            ones += 1
            if not 0 <= d <= k - ones:
                break
            digits.append(d)
        elif bit == 0 and zeros < n - k:
            # i-th zero consumes digit Z_{n-k-1-i}, shifted past the
            # 1-band.
            d = z[zeros]
            zeros += 1
            if not 0 <= d <= n - k - zeros:
                break
            digits.append(k - ones + d)
        else:
            # k = sum(bits) counts the ones only if every bit is 0 or 1;
            # a bit that is neither can run O or Z out before the loop
            # reaches it
            bad_bit = (
                "bits must be 0 or 1" if bit in (0, 1)
                else f"bit {bit} is not 0 or 1"
            )
            break
    else:
        return tuple(digits)
    # a bad digit or bit stopped the loop: the digits fail first, Z
    # before O, as when they were checked before it
    _check_factoradic(z)
    _check_factoradic(o)
    raise ValueError(bad_bit)


def fac_decompose(digits: Sequence[int], k: int) -> Tuple[Bits, Bits, Bits]:
    """Invert :func:`comb_to_fac`: split y into (bits, Z, O).

    The bits are :func:`fac_to_comb`'s.  Only the input is checked: a
    digit d emits a 1 iff d < k - ones, which is O's range at that
    weight, and otherwise d - (k - ones) is within Z's.
    """
    n = len(digits)
    bits: List[int] = []
    z: List[int] = []
    o: List[int] = []
    for pos, d in enumerate(digits):
        j = n - 1 - pos
        if not 0 <= d <= j:
            raise ValueError(f"digit {d} at weight {j} outside 0..{j}")
        owed = k - len(o)
        if d < owed:
            bits.append(1)
            o.append(d)
        else:
            bits.append(0)
            z.append(d - owed)
    if not 0 <= k <= n:
        raise ValueError("weight out of range")
    return tuple(bits), tuple(z), tuple(o)


# ---------------------------------------------------------------- arrays
#
# The same three maps over an (N, n) digit array, one row per factoradic:
# checked once, then computed one digit column at a time.


def all_factoradics_array(n: int) -> np.ndarray:
    """The rows of :func:`all_factoradics`, in its order, as one
    (n!, n) digit array; ``n = 0`` gives one empty row."""
    m = np.arange(math.factorial(n))
    digits = np.empty((len(m), n), np.int64)
    for pos in range(n):
        j = n - 1 - pos
        digits[:, pos] = m // math.factorial(j) % (j + 1)
    return digits


def _check_factoradic_rows(digits: np.ndarray) -> None:
    """:func:`_check_factoradic` of each row, failing on the first bad
    digit in row order."""
    n = digits.shape[1]
    bad = (digits < 0) | (digits > np.arange(n - 1, -1, -1))
    if bad.any():
        _check_factoradic(digits[np.argwhere(bad)[0, 0]].tolist())


def fac_to_comb_array(digits: np.ndarray, k: int) -> np.ndarray:
    """:func:`fac_to_comb` of each row of an (N, n) digit array, as an
    (N, n) array of 0/1."""
    digits = np.asarray(digits, np.int64)
    _check_factoradic_rows(digits)
    n = digits.shape[1]
    if not 0 <= k <= n:
        raise ValueError("weight out of range")
    bits = np.zeros(digits.shape, np.int64)
    h = np.zeros(len(digits), np.int64)  # ones emitted so far
    for pos in range(n):
        bits[:, pos] = digits[:, pos] < k - h
        h += bits[:, pos]
    return bits


def fac_decompose_array(
    digits: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fac_decompose` of each row of an (N, n) digit array: the
    (N, n) bits, the (N, n-k) Z digits and the (N, k) O digits."""
    digits = np.asarray(digits, np.int64)
    bits = fac_to_comb_array(digits, k)
    rows, n = np.arange(len(digits)), digits.shape[1]
    # one spare column each: a row's every bit writes one of them
    z = np.zeros((len(digits), n - k + 1), np.int64)
    o = np.zeros((len(digits), k + 1), np.int64)
    h = np.zeros(len(digits), np.int64)
    for pos in range(n):
        one, d = bits[:, pos] == 1, digits[:, pos]
        o[rows, np.where(one, h, k)] = np.where(one, d, 0)
        z[rows, np.where(one, n - k, pos - h)] = np.where(one, 0, d - (k - h))
        h += one
    return bits, z[:, :-1], o[:, :-1]


def comb_to_fac_array(
    bits: np.ndarray, z: np.ndarray, o: np.ndarray
) -> np.ndarray:
    """:func:`comb_to_fac` of each row of an (N, n) 0/1 array with the
    rows of the (N, n-k) Z and (N, k) O digit arrays."""
    bits, z, o = (np.asarray(a, np.int64) for a in (bits, z, o))
    n, k = bits.shape[1], o.shape[1]
    if z.shape[1] != n - k or (bits.sum(axis=1) != k).any():
        raise ValueError("auxiliary factoradic lengths must be n-k and k")
    _check_factoradic_rows(z)
    _check_factoradic_rows(o)
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("bits must be 0 or 1")
    rows = np.arange(len(bits))
    # one spare column each, read by the rows that take the other digit
    z = np.concatenate([z, np.zeros((len(bits), 1), np.int64)], axis=1)
    o = np.concatenate([o, np.zeros((len(bits), 1), np.int64)], axis=1)
    out = np.zeros(bits.shape, np.int64)
    ones = np.zeros(len(bits), np.int64)
    for pos in range(n):
        one = bits[:, pos] == 1
        out[:, pos] = np.where(
            one, o[rows, ones], k - ones + z[rows, pos - ones]
        )
        ones += one
    return out


_LOW_BITS = (1 << 62) - 1


def popcount(values: np.ndarray) -> np.ndarray:
    """The set bits of each nonnegative value, in the dtype of ``values``:
    ``int64``, or ``object`` (Python ints, any width), which
    ``np.bitwise_count`` refuses."""
    if values.dtype != object:
        return np.bitwise_count(values).astype(values.dtype)
    count = np.zeros(values.shape, np.int64)
    rest = values
    while rest.any():  # 62 bits at a time
        count += np.bitwise_count((rest & _LOW_BITS).astype(np.int64))
        rest = rest >> 62
    return count.astype(object)


def preimage_counts(n: int, k: int) -> Optional[Dict[Bits, int]]:
    """How many n-factoradics :func:`fac_to_comb` sends to each weight-k
    bit string, keyed in order of first appearance; None if one of them
    does not come back through :func:`fac_decompose` and
    :func:`comb_to_fac`.  Runs the array forms over all n! rows at
    once."""
    digits = all_factoradics_array(n)
    bits, z, o = fac_decompose_array(digits, k)
    if not np.array_equal(comb_to_fac_array(bits, z, o), digits):
        return None
    # each bit row as one integer, its first bit the most significant
    packed = bits @ (1 << np.arange(n - 1, -1, -1))
    values, first, counts = np.unique(
        packed, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return {
        tuple((v >> j) & 1 for j in range(n - 1, -1, -1)): c
        for v, c in zip(values[order].tolist(), counts[order].tolist())
    }


def birthday_bound_check(n: int, k: int) -> Tuple[float, float, bool]:
    """Compare n!/(n^k (n-k)!) against exp(-2k^2/n) in log space."""
    if k >= n / 2:
        raise ValueError("requires k < n/2")
    log_lhs = sum(math.log((n - i) / n) for i in range(k))
    lhs = math.exp(log_lhs)
    rhs = math.exp(-2.0 * k * k / n)
    # strict for k >= 1; k = 0 is the degenerate 1 >= 1 case
    return lhs, rhs, log_lhs >= (-2.0 * k * k / n)
