import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from laqcc import numbersys as ns


def test_factoradic_to_int_basics():
    assert ns.factoradic_to_int((0, 0, 0)) == 0
    assert ns.factoradic_to_int((2, 1, 0)) == 5
    assert ns.factoradic_to_int((3, 2, 1, 0)) == 23


def test_factoradic_digit_range_enforced():
    with pytest.raises(ValueError):
        ns.factoradic_to_int((3, 0, 0))
    with pytest.raises(ValueError):
        ns.factoradic_to_int((0, 0, -1))


def test_int_to_factoradic_examples():
    assert ns.int_to_factoradic(0, 3) == (0, 0, 0)
    assert ns.int_to_factoradic(5, 3) == (2, 1, 0)
    assert ns.int_to_factoradic(23, 4) == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        ns.int_to_factoradic(24, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_factoradic_round_trip_exhaustive(n):
    seen = set()
    for m in range(math.factorial(n)):
        y = ns.int_to_factoradic(m, n)
        assert ns.factoradic_to_int(y) == m
        seen.add(y)
    assert len(seen) == math.factorial(n)


def test_comb_index_examples():
    assert ns.int_to_comb(0, 2, 4) == (1, 0)
    assert ns.positions_to_bits((1, 0), 4) == (0, 0, 1, 1)
    assert ns.comb_to_int((3, 2)) == 5
    assert ns.int_to_comb(5, 2, 4) == (3, 2)
    assert ns.positions_to_bits((3, 2), 4) == (1, 1, 0, 0)


def test_comb_index_round_trip_and_lex_rank():
    n, k = 6, 3
    ranked = []
    for m in range(math.comb(n, k)):
        pos = ns.int_to_comb(m, k, n)
        assert ns.comb_to_int(pos) == m
        bits = ns.positions_to_bits(pos, n)
        assert ns.bits_to_positions(bits) == pos
        ranked.append(int("".join(map(str, bits)), 2))
    # rank order agrees with lexicographic (= numeric) order of the strings
    assert ranked == sorted(ranked)
    # cross-check against direct enumeration of all weight-k strings
    direct = sorted(
        sum(1 << p for p in pos) for pos in combinations(range(n), k)
    )
    assert ranked == direct


def test_comb_index_rejects_bad_input():
    with pytest.raises(ValueError):
        ns.comb_to_int((2, 2))
    with pytest.raises(ValueError):
        ns.int_to_comb(6, 2, 4)


def test_fac_to_comb_rule_trace():
    # digits (2,1,0): 2 >= 1 -> 0; 1 >= 1 -> 0; 0 < 1 -> 1
    assert ns.fac_to_comb((2, 1, 0), 1) == (0, 0, 1)
    assert ns.fac_to_comb((0, 0, 0), 1) == (1, 0, 0)
    assert ns.fac_to_comb((0, 1, 0), 1) == (1, 0, 0)
    # k = 0 never satisfies the emission condition
    for y in ns.all_factoradics(3):
        assert ns.fac_to_comb(y, 0) == (0, 0, 0)


def test_fac_to_comb_weight_is_k():
    for n in range(1, 7):
        for k in range(n + 1):
            for y in ns.all_factoradics(n):
                assert sum(ns.fac_to_comb(y, k)) == k


@pytest.mark.parametrize("n", range(1, 9))
def test_fac_to_comb_preimage_counts(n):
    for k in range(n + 1):
        counts = Counter(ns.fac_to_comb(y, k) for y in ns.all_factoradics(n))
        assert len(counts) == math.comb(n, k)
        expected = math.factorial(k) * math.factorial(n - k)
        assert all(c == expected for c in counts.values())


def test_comb_to_fac_covers_preimages():
    n, k = 4, 2
    for pos in combinations(range(n), k):
        bits = ns.positions_to_bits(pos, n)
        images = {
            ns.comb_to_fac(bits, z, o)
            for z in ns.all_factoradics(n - k)
            for o in ns.all_factoradics(k)
        }
        assert len(images) == 4  # 2! * 2!
        assert all(ns.fac_to_comb(y, k) == bits for y in images)


@pytest.mark.parametrize(
    "bits, z, o, message",
    [
        ((2, 0), (), (1, 0), "bit 2 is not 0 or 1"),
        ((1, -1, 0), (0, 0, 0), (), "bits must be 0 or 1"),
        ((0, 0, 2), (0,), (1, 0), "bits must be 0 or 1"),
    ],
)
def test_comb_to_fac_rejects_non_binary_bits(bits, z, o, message):
    with pytest.raises(ValueError, match=message):
        ns.comb_to_fac(bits, z, o)


@pytest.mark.parametrize("n", range(1, 7))
def test_bijection_round_trips(n):
    for k in range(n + 1):
        for y in ns.all_factoradics(n):
            bits, z, o = ns.fac_decompose(y, k)
            assert ns.fac_to_comb(y, k) == bits
            assert ns.comb_to_fac(bits, z, o) == y
        # and the other direction on a sample of triples
        for z in ns.all_factoradics(n - k):
            for o in ns.all_factoradics(k):
                bits = ns.fac_to_comb(ns.int_to_factoradic(0, n), k)
                y = ns.comb_to_fac(bits, z, o)
                assert ns.fac_decompose(y, k) == (bits, z, o)


@pytest.mark.parametrize(
    "digits, k, message",
    [
        ((3, 0, 0), 1, "digit 3 at weight 2"),
        ((1, 2, 0), 1, "digit 2 at weight 1"),
        ((0, 0, 1), 0, "digit 1 at weight 0"),
        ((2, 1, 0), 4, "weight out of range"),
        ((2, 1, 0), -1, "weight out of range"),
    ],
)
def test_fac_decompose_rejects_bad_input(digits, k, message):
    with pytest.raises(ValueError, match=message):
        ns.fac_decompose(digits, k)


def test_fac_decompose_checks_its_input_once(monkeypatch):
    """The digit checks run inside each map's one loop: the separate
    check is reached only to report a bad input."""
    calls = []
    check = ns._check_factoradic
    monkeypatch.setattr(
        ns, "_check_factoradic", lambda d: (calls.append(d), check(d))
    )
    for k in range(5):
        for y in ns.all_factoradics(4):
            bits, z, o = ns.fac_decompose(y, k)
            assert ns.comb_to_fac(ns.fac_to_comb(y, k), z, o) == y
    assert calls == []


# ------------------------------------------------------------ references
# The maps as they were with a separate digit check up front: the one
# loop of each must raise what these raise, in the same order.


def ref_fac_to_comb(digits, k):
    ns._check_factoradic(digits)
    n = len(digits)
    if not 0 <= k <= n:
        raise ValueError("weight out of range")
    out = []
    h = 0
    for d in digits:
        bit = 1 if d < k - h else 0
        out.append(bit)
        h += bit
    return tuple(out)


def ref_comb_to_fac(bits, z, o):
    n = len(bits)
    k = sum(bits)
    if len(z) != n - k or len(o) != k:
        raise ValueError("auxiliary factoradic lengths must be n-k and k")
    ns._check_factoradic(z)
    ns._check_factoradic(o)
    digits = []
    ones = zeros = 0
    try:
        for bit in bits:
            if bit == 1:
                digits.append(o[ones])
                ones += 1
            elif bit != 0:
                raise ValueError(f"bit {bit} is not 0 or 1")
            else:
                digits.append(k - ones + z[zeros])
                zeros += 1
    except IndexError:
        raise ValueError("bits must be 0 or 1") from None
    return tuple(digits)


def ref_fac_decompose(digits, k):
    ns._check_factoradic(digits)
    if not 0 <= k <= len(digits):
        raise ValueError("weight out of range")
    bits, z, o = [], [], []
    for d in digits:
        owed = k - len(o)
        if d < owed:
            bits.append(1)
            o.append(d)
        else:
            bits.append(0)
            z.append(d - owed)
    return tuple(bits), tuple(z), tuple(o)


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_one_loop_maps_fail_as_the_checked_maps():
    rng = np.random.default_rng(23)
    for _ in range(4000):
        n = int(rng.integers(0, 7))
        digits = tuple(int(d) for d in rng.integers(-1, n + 1, size=n))
        k = int(rng.integers(-1, n + 2))
        for new, ref in ((ns.fac_to_comb, ref_fac_to_comb),
                         (ns.fac_decompose, ref_fac_decompose)):
            assert outcome(new, digits, k) == outcome(ref, digits, k)
        bits = tuple(int(b) for b in rng.choice(
            [0, 1, 1, 0, 2, -1], size=n, p=[.4, .4, .05, .05, .05, .05]))
        ones = int(rng.integers(0, n + 1)) if rng.random() < 0.2 else sum(
            bits)
        z = tuple(int(d) for d in rng.integers(-1, n, size=max(0, n - ones)))
        o = tuple(int(d) for d in rng.integers(-1, n, size=max(0, ones)))
        assert outcome(ns.comb_to_fac, bits, z, o) == outcome(
            ref_comb_to_fac, bits, z, o), (bits, z, o)


@pytest.mark.parametrize("n", range(0, 8))
def test_array_forms_equal_scalar_forms(n):
    factoradics = list(ns.all_factoradics(n))
    digits = np.array(factoradics, np.int64).reshape(len(factoradics), n)
    assert np.array_equal(ns.all_factoradics_array(n), digits)
    for k in range(n + 1):
        bits = ns.fac_to_comb_array(digits, k)
        split = ns.fac_decompose_array(digits, k)
        back = ns.comb_to_fac_array(*split)
        for row, y in enumerate(factoradics):
            want = ns.fac_decompose(y, k)
            assert tuple(bits[row].tolist()) == ns.fac_to_comb(y, k)
            assert tuple(tuple(a[row].tolist()) for a in split) == want
            assert tuple(back[row].tolist()) == ns.comb_to_fac(*want) == y


def ref_preimage_counts(n, k):
    """The scalar loop ``preimage_counts`` ran before it took the array
    forms, kept as the reference."""
    counts = {}
    for digits in ns.all_factoradics(n):
        bits = ns.fac_to_comb(digits, k)
        counts[bits] = counts.get(bits, 0) + 1
        if ns.comb_to_fac(bits, *ns.fac_decompose(digits, k)[1:]) != digits:
            return None
    return counts


@pytest.mark.parametrize("n", range(0, 8))
def test_preimage_counts_equal_the_scalar_loop(n):
    assert ns.all_factoradics_array(n).shape == (math.factorial(n), n)
    for k in range(n + 1):
        got, want = ns.preimage_counts(n, k), ref_preimage_counts(n, k)
        assert got == want and list(got) == list(want)
        assert all(type(b) is int for key in got for b in key)
        assert all(type(c) is int for c in got.values())
    for k in (-1, n + 1):
        with pytest.raises(ValueError, match="weight out of range"):
            ns.preimage_counts(n, k)
        with pytest.raises(ValueError, match="weight out of range"):
            ref_preimage_counts(n, k)


def test_preimage_counts_none_when_a_round_trip_fails(monkeypatch):
    array_form, scalar_form = ns.comb_to_fac_array, ns.comb_to_fac

    def off_by_one_row(bits, z, o):
        out = array_form(bits, z, o)
        out[-1] = out[0]
        return out

    def off_by_one_digits(bits, z, o):
        out = scalar_form(bits, z, o)
        return out if any(out) else (1,) + out[1:]

    monkeypatch.setattr(ns, "comb_to_fac_array", off_by_one_row)
    monkeypatch.setattr(ns, "comb_to_fac", off_by_one_digits)
    assert ns.preimage_counts(4, 2) is None
    assert ref_preimage_counts(4, 2) is None


def test_array_forms_check_their_rows_once():
    with pytest.raises(ValueError, match="digit 2 at weight 1"):
        ns.fac_to_comb_array(np.array([[1, 0, 0], [0, 2, 0]]), 1)
    with pytest.raises(ValueError, match="weight out of range"):
        ns.fac_decompose_array(np.array([[1, 0, 0]]), 4)
    bits, z, o = np.array([[0, 1, 0]]), np.array([[0, 0]]), np.array([[0]])
    assert ns.comb_to_fac_array(bits, z, o).tolist() == [[1, 0, 0]]
    with pytest.raises(ValueError, match="digit 2 at weight 1"):
        ns.comb_to_fac_array(bits, np.array([[2, 0]]), o)
    with pytest.raises(ValueError, match="lengths must be n-k and k"):
        ns.comb_to_fac_array(bits, np.array([[0]]), o)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        ns.comb_to_fac_array(np.array([[0, 2, -1]]), z, o)


def test_popcount_on_both_dtypes():
    rng = np.random.default_rng(5)
    small = rng.integers(0, 1 << 62, size=200)
    wide = np.array([int(v) << 40 | int(v) for v in small] + [0, (1 << 130) - 1],
                    object)
    assert ns.popcount(small).dtype == np.int64
    assert ns.popcount(small).tolist() == [v.bit_count()
                                            for v in small.tolist()]
    counts = ns.popcount(wide)
    assert counts.dtype == object
    assert all(type(c) is int for c in counts)
    assert counts.tolist() == [v.bit_count() for v in wide.tolist()]


def test_birthday_bound_examples():
    lhs, rhs, holds = ns.birthday_bound_check(16, 4)
    assert lhs == pytest.approx(43680 / 65536, abs=1e-12)
    assert rhs == pytest.approx(math.exp(-2), abs=1e-12)
    assert holds
    lhs, _, holds = ns.birthday_bound_check(10, 0)
    assert lhs == 1.0 and holds
    lhs, rhs, holds = ns.birthday_bound_check(10, 1)
    assert lhs == 1.0 and rhs == pytest.approx(math.exp(-0.2)) and holds


def test_birthday_bound_holds_broadly():
    for n in range(2, 65):
        for k in range((n - 1) // 2 + 1):
            if k >= n / 2:
                continue
            _, _, holds = ns.birthday_bound_check(n, k)
            assert holds, (n, k)


def test_birthday_bound_rejects_large_k():
    with pytest.raises(ValueError):
        ns.birthday_bound_check(4, 2)
