"""How fast the host runs right now, from fixed work that is not laqcc's.

A shared host runs the same code up to 1.7 times slower in its busy
phases, which last from tens of seconds to minutes.  :func:`slowdown`
times three fixed kernels of the kinds of work laqcc does: an
interpreter loop over ints, a dict of complex amplitudes, and numpy
calls on small arrays.  It returns the geometric mean of their times
over the times they take on a quiet 2-vCPU Xeon VM, so 1.0 there in a
quiet phase and about 1.6 in a busy one.  Dividing a latency by the
slowdown measured around it gives the latency at that reference speed.

The kernels never call laqcc, so a change to laqcc cannot move them.
numpy is imported on first use, so that a fresh interpreter can import
this module and time the interpreter kernel before it loads anything
else (see :func:`interpreter_seconds`).
"""
from __future__ import annotations

import math
import time

# The interpreter kernel's time in a quiet phase of the reference VM.
INTERPRETER_REFERENCE_S = 2.2e-3


def _interpreter() -> None:
    total = 0
    for i in range(30000):
        total += (i * i) % 7


def interpreter_seconds() -> float:
    """Time of the interpreter kernel alone; it needs no numpy."""
    start = time.perf_counter()
    _interpreter()
    return time.perf_counter() - start


def _dict_of_complex() -> None:
    amps = {}
    for i in range(3000):
        amps[(i * 2654435761) & 0xFFFFF] = complex(i, 1.0)
    total = 0j
    for index, amp in amps.items():
        if index & 1:
            total += amp * 0.5


def _numpy_small() -> None:
    import numpy as np

    x = small = np.arange(64, dtype=complex)
    for _ in range(800):
        x = np.multiply(x, 1.0000001) + small[0]


# (kernel, seconds it takes in a quiet phase of the reference VM)
KERNELS = ((_interpreter, INTERPRETER_REFERENCE_S),
           (_dict_of_complex, 1.05e-3), (_numpy_small, 1.4e-3))


def slowdown() -> float:
    """The host's current slowdown against the reference speed."""
    log_sum = 0.0
    for kernel, reference in KERNELS:
        start = time.perf_counter()
        kernel()
        log_sum += math.log((time.perf_counter() - start) / reference)
    return math.exp(log_sum / len(KERNELS))
