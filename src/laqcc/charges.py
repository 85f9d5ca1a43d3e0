"""Analytic width charges per macro.

The library's wide gates run as direct basis maps, so the simulated
width understates the ancilla cost of a faithful constant-depth layout.
Each macro therefore carries an extra "charged width" term computed from
a pinned coefficient table (``charges.json``).
"""
from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources

_FORMULAS = {
    "n": lambda n, t: n,
    "n_log_n": lambda n, t: n * math.log2(max(n, 2)),
    "n_squared": lambda n, t: n * n,
    "n_cubed_log_n": lambda n, t: n**3 * math.log2(max(n, 2)),
    "t_n_log_n": lambda n, t: max(t, 1) * n * math.log2(max(n, 2)),
}


@lru_cache(maxsize=1)
def table() -> dict:
    text = resources.files("laqcc").joinpath("charges.json").read_text()
    return json.loads(text)


def charge(name: str, n: int, t: int = 0) -> float:
    entry = table()[name]
    return entry["coefficient"] * _FORMULAS[entry["formula"]](n, t)
