"""Per-layer tracing of laqcc from outside the package.

:class:`Tracer` replaces the public functions of laqcc's modules with
wrappers that record one span per call: name, start, end, parent span
and the benchmark item that was running.  Because the wrappers replace
module attributes, calls that laqcc makes through a module attribute or
a module global are caught too (``program.execute`` -> ``ss.measure``,
``branch_enumerate`` -> ``measure``, ``_propagate_unit_errors`` ->
``conjugate_gate``).  Calls through references taken at import time,
such as the gate factories held in ``program.GATE_REGISTRY``, are not.

Spans stay in memory, in flat arrays, until :meth:`Tracer.metrics`
reduces them and :meth:`Tracer.write_spans` writes them out.  A span's
self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from laqcc import amplifier, cli, clifford, macros, numbersys, program
from laqcc import protocols, sparse_state

ENGINE = ("apply_unitary", "apply_basis_map", "apply_phase_map", "measure",
          "branch_enumerate", "split_register", "fidelity")
GATE_KERNELS = ("apply_unitary", "apply_phase_map", "apply_basis_map")
PROGRAM = ("execute", "enumerate_branches", "sample_branches", "resources",
           "validate_layout", "dumps", "loads")
CLIFFORD = ("flatten_ladder", "flatten_grid", "ghz", "conjugate_gate")
PROTOCOLS = ("dicke_small_k", "dicke_factoradic", "w_state",
             "uniform_superposition", "iqp_to_laqcc", "max_support")
MACRO_FACTORIES = ("fanout", "fanout_gadget", "or_n", "and_n", "equal_i",
                   "add_n", "equality", "less_than", "greaterthan",
                   "hammingweight", "exact_t", "threshold_t",
                   "weighted_threshold", "qft", "permutation",
                   "product_diagonal", "parallelize_commuting")
NUMBERSYS = ("fac_to_comb", "comb_to_fac", "fac_decompose", "int_to_comb",
             "comb_to_int")

# (module, attribute, span name); every macro factory shares one name
TARGETS: List[Tuple[object, str, str]] = (
    [(sparse_state, f, f"sparse_state.{f}") for f in ENGINE]
    + [(program, f, f"program.{f}") for f in PROGRAM]
    + [(clifford, f, f"clifford.{f}") for f in CLIFFORD]
    + [(protocols, f, f"protocols.{f}") for f in PROTOCOLS]
    + [(macros, f, "macros.factories") for f in MACRO_FACTORIES]
    + [(amplifier, "plan", "amplifier.plan"), (cli, "main", "cli.main")]
    + [(numbersys, f, f"numbersys.{f}") for f in NUMBERSYS]
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
LAYER_KINDS = ("quantum", "measure", "classical")


def _support_out(result) -> int:
    """Basis states in an engine call's result."""
    if isinstance(result, sparse_state.SparseState):
        return result.support()
    if isinstance(result, (tuple, list)):  # measure, branch_enumerate, ...
        return sum(_support_out(r) for r in result)
    return 0


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; set
    :attr:`item` to the index of the running benchmark item."""

    def __init__(self) -> None:
        self.item = -1
        self.names = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.amps_in = array("q")
        self.amps_out = array("q")
        self.counts = {"branches": 0, "json_bytes": 0}
        self.layer_s = dict.fromkeys(LAYER_KINDS, 0.0)
        self._stack = [-1]
        self._saved: List[Tuple[object, str, Callable]] = []

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn: Callable, name_id: int, engine: bool) -> Callable:
        names, parents, items = self.names, self.parents, self.items
        starts, ends = self.starts, self.ends
        amps_in, amps_out, stack = self.amps_in, self.amps_out, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(self.item)
            amps_in.append(
                (args[0] if args else kwargs["state"]).support()
                if engine else 0)
            amps_out.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if engine:
                amps_out[idx] = _support_out(result)
            return result

        return traced

    def _wrap_execute(self, traced: Callable) -> Callable:
        """Chain an observer into ``execute``; its i-th call ends
        ``layers[i]``, so the gaps between calls time each layer."""
        layer_s = self.layer_s
        clock = time.perf_counter

        @functools.wraps(traced)
        def execute(prog, policy, observer=None):
            kinds = [
                "quantum" if isinstance(layer, program.QuantumLayer)
                else "measure" if isinstance(layer, program.MeasureLayer)
                else "classical"
                for layer in prog.layers
            ]
            position = 0
            last = clock()

            def observe(state):
                nonlocal position, last
                now = clock()
                layer_s[kinds[position]] += now - last
                position += 1
                if observer is not None:
                    observer(state)
                last = clock()

            return traced(prog, policy, observer=observe)

        return execute

    def _wrap_counting(self, traced: Callable, counter: str,
                       size: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(traced)
        def counting(*args, **kwargs):
            result = traced(*args, **kwargs)
            counts[counter] += size(result)
            return result

        return counting

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            wrapped = self._wrap(fn, SPAN_NAMES.index(name),
                                 module is sparse_state)
            if (module, attr) == (program, "execute"):
                wrapped = self._wrap_execute(wrapped)
            elif (module, attr) in ((program, "enumerate_branches"),
                                    (program, "sample_branches")):
                wrapped = self._wrap_counting(wrapped, "branches", len)
            elif (module, attr) == (program, "dumps"):
                wrapped = self._wrap_counting(
                    wrapped, "json_bytes", lambda s: len(s.encode()))
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----------------------------------------------------------- reduction

    def spans(self) -> Dict[str, np.ndarray]:
        """All spans as columns; ``parent`` is a span index or -1."""
        return {
            "name": np.array(self.names, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int32),
            "item": np.array(self.items, dtype=np.int32),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "amps_in": np.array(self.amps_in, dtype=np.int64),
            "amps_out": np.array(self.amps_out, dtype=np.int64),
        }

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        s = self.spans()
        k = len(SPAN_NAMES)
        duration = s["end"] - s["start"]
        self_time = duration.copy()
        child = s["parent"] >= 0
        np.subtract.at(self_time, s["parent"][child], duration[child])
        calls = np.bincount(s["name"], minlength=k)
        self_s = np.bincount(s["name"], weights=self_time, minlength=k)
        amps_in = np.bincount(s["name"], weights=s["amps_in"], minlength=k)

        out: Dict[str, Tuple[float, str]] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            if name.startswith("sparse_state."):
                out[f"{name}.amps_in"] = (int(amps_in[i]), "count")

        # measurement waste: amplitudes scanned by measure and
        # branch_enumerate per amplitude they keep (a measure call made
        # by branch_enumerate keeps nothing beyond what its caller keeps)
        measure = SPAN_NAMES.index("sparse_state.measure")
        enum = SPAN_NAMES.index("sparse_state.branch_enumerate")
        is_scan = (s["name"] == measure) | (s["name"] == enum)
        scanned = int(s["amps_in"][is_scan].sum())
        parent_name = np.where(child, s["name"][np.maximum(s["parent"], 0)], -1)
        is_kept = (s["name"] == enum) | (
            (s["name"] == measure) & (parent_name != enum))
        kept = int(s["amps_out"][is_kept].sum())
        out["sparse_state.measure.scanned_per_kept"] = (
            scanned / kept if kept else 0.0, "ratio")

        kernel = [SPAN_NAMES.index(f"sparse_state.{f}") for f in GATE_KERNELS]
        kernel_s = float(self_s[kernel].sum())
        out["sparse_state.gate_amps_per_s"] = (
            float(amps_in[kernel].sum()) / kernel_s if kernel_s else 0.0,
            "1/s")

        # one state per result: the gate kernels and measure
        single = np.isin(s["name"], kernel + [measure])
        out["program.branches"] = (self.counts["branches"], "count")
        out["program.peak_support"] = (
            int(s["amps_out"][single].max(initial=0)), "count")
        out["program.json_bytes"] = (self.counts["json_bytes"], "bytes")
        for kind in LAYER_KINDS:
            out[f"program.layer.{kind}_s"] = (self.layer_s[kind], "s")
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span, as numpy columns plus the span names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.spans())
