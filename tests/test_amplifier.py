import math

import numpy as np
import pytest

from laqcc import amplifier as amp
from laqcc import macros as mc
from laqcc import program as pr
from laqcc import sparse_state as ss


def test_plan_full_good_set():
    p = amp.plan(4, 4)
    assert p.J == 0


def test_plan_quarter_is_standard_grover():
    p = amp.plan(4, 1)
    assert p.J == 1
    assert p.phi == pytest.approx(math.pi)
    assert p.theta == pytest.approx(math.pi)


def test_plan_n8_m5_single_iteration():
    p = amp.plan(8, 5)
    assert p.J == 1
    assert amp._success_amplitude(8, 5, p.J, p.phi, p.theta) == pytest.approx(
        1.0, abs=1e-9
    )


def test_plan_rejects_empty_good_set():
    with pytest.raises(ValueError):
        amp.plan(4, 0)


def test_zero_failure_sweep():
    for N in range(1, 65):
        for m in range(1, N + 1):
            p = amp.plan(N, m)
            a = amp._success_amplitude(N, m, p.J, p.phi, p.theta)
            assert a >= 1 - 1e-9, (N, m)
            assert p.J <= math.ceil(math.pi / 4 * math.sqrt(N / m)) + 1
            if m / N >= 0.5:
                assert p.J <= 1


def test_plan_phase_is_the_closed_form():
    # At N = 2^29 the 18198 iterates of _success_amplitude round to a miss
    # of a few 1e-12; the plan still takes the exact matched phase.
    N, m = 1 << 29, 1
    p = amp.plan(N, m)
    beta = math.asin(math.sqrt(m / N))
    assert p.J == 18198
    assert p.phi == p.theta == 2 * math.asin(
        math.sin(math.pi / (4 * p.J + 2)) / math.sin(beta)
    )


def hadamard_prep(register):
    h = pr.MatrixGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def prep(builder):
        builder.layer(*(pr.GateApp(h, (q,)) for q in register))

    return prep


def run_amplified(n_bits, good):
    builder = pr.Builder()
    register = builder.alloc("reg", n_bits, "system")
    (flag,) = builder.alloc("flag", 1, "flag")
    N = 1 << n_bits
    prep = hadamard_prep(register)
    prep(builder)
    oracle = mc._flag_gate("good", n_bits, lambda v: np.isin(v, list(good)), "equal")
    p = amp.plan(N, len(good))
    amp.amplify(
        builder, register, flag, prep, prep, oracle, register, p
    )  # H layer is self-inverse
    program = builder.build()
    state, _ = pr.execute(program, pr.SeededPolicy(0))
    sub, rest = ss.split_register(state, register)
    assert rest == 0  # flag restored
    return sub, p


def test_amplify_good_five_of_eight():
    sub, p = run_amplified(3, set(range(5)))
    target = ss.from_amplitudes(
        3, [(i, 1 / math.sqrt(5)) for i in range(5)]
    )
    assert p.J == 1
    assert ss.fidelity(sub, target) == pytest.approx(1.0, abs=1e-9)


def test_amplify_whole_ambient_is_noop():
    sub, p = run_amplified(2, set(range(4)))
    target = ss.from_amplitudes(2, [(i, 0.5) for i in range(4)])
    assert p.J == 0
    assert ss.fidelity(sub, target) == pytest.approx(1.0, abs=1e-9)


def test_amplify_single_marked_state():
    sub, _ = run_amplified(2, {3})
    target = ss.SparseState.basis(2, 3)
    assert ss.fidelity(sub, target) == pytest.approx(1.0, abs=1e-9)
