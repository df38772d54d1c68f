"""Spans recorded around calls into phaselab's public functions.

The tracer wraps module attributes from outside the package: every phaselab
module that holds a reference to a traced function gets the wrapper, so
calls made between modules are caught too. A span records the operation it
belongs to, its layer, start, end and the span that caused it. A layer's
self time is its spans' durations minus the time covered by their child
spans, so the self times of one operation add up to the time spent inside
its outermost spans.
"""
from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (self-time metric, call-count metric, module, public functions)
LAYERS = (
    ("cli.self_ms", "cli.calls", "cli", ("main",)),
    ("fock_core.persist_ms", "fock_core.persist.calls", "fock_core",
     ("save_state", "load_state")),
    ("fock_core.build_ms", "fock_core.build.calls", "fock_core",
     ("make_fock", "make_coherent", "make_thermal", "mix", "tensor", "embed", "validate")),
    ("fock_core.moments_ms", "fock_core.moments.calls", "fock_core", ("normal_moment",)),
    ("phase_filters.charfunc_ms", "phase_filters.charfunc.calls", "phase_filters",
     ("symmetric_charfunc", "filtered_charfunc", "two_mode_charfunc", "vacuum_charfunc")),
    ("phase_filters.displacement_ms", "phase_filters.displacement.calls", "phase_filters",
     ("displacement_stack",)),
    ("quasiprob_engine.grid_ms", "quasiprob_engine.grid.calls", "quasiprob_engine",
     ("lattice", "charfunc_grid", "two_mode_charfunc_grid")),
    ("quasiprob_engine.transform_ms", "quasiprob_engine.transform.calls", "quasiprob_engine",
     ("quasiprob_transform",)),
    ("quasiprob_engine.q_function_ms", "quasiprob_engine.q_function.calls", "quasiprob_engine",
     ("q_function",)),
    ("quasiprob_engine.marginal_ms", "quasiprob_engine.marginal.calls", "quasiprob_engine",
     ("quadrature_distribution",)),
    ("linear_optics.unitary_ms", "linear_optics.unitary.calls", "linear_optics",
     ("beamsplitter_unitary",)),
    ("linear_optics.apply_ms", "linear_optics.apply.calls", "linear_optics",
     ("apply_beamsplitter", "partial_trace", "pullback_charfunc", "attenuate_charfunc")),
    ("linear_optics.attenuate_ms", "linear_optics.attenuate.calls", "linear_optics",
     ("attenuate",)),
    ("nonclassicality.figure3_ms", "nonclassicality.figure3.calls", "nonclassicality",
     ("figure3_data", "wigner_origin_numeric", "wigner_origin_analytic", "correlation_report",
      "hierarchy_check", "scaling_invariance_check", "locate_wigner_zero", "coherent_mixture")),
    ("classical_fields.ensemble_ms", "classical_fields.ensemble.calls", "classical_fields",
     ("ensemble_beamsplit", "classical_attenuate", "classical_moments", "classical_beamsplit",
      "load_ensemble", "save_ensemble")),
    ("theorem_lab.classify_ms", "theorem_lab.classify.calls", "theorem_lab",
     ("classify_filter_bs", "classify_filter_attenuator", "disk_grid")),
)

# the layer whose allocations are followed with tracemalloc
ALLOC_LAYER = "phase_filters"
PEAK_ALLOC_METRIC = "phase_filters.peak_alloc_mb"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, metric, start, end, parent index]
        self.stack: list[int] = []
        self.op = -1
        self.peak_alloc: dict[int, int] = {}
        self._patched: list[tuple] = []

    def install(self, package: str = "phaselab") -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for metric, _, module_name, names in LAYERS:
            module = sys.modules[f"{package}.{module_name}"]
            for name in names:
                orig = getattr(module, name)
                wrapped = self._wrap(metric, orig, module_name == ALLOC_LAYER)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, metric, fn, follow_alloc):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([self.op, metric, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(idx)
            own_alloc = follow_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[self.op] = max(self.peak_alloc.get(self.op, 0), peak)
                stack.pop()
                spans[idx][2], spans[idx][3] = start, end

        traced.__wrapped__ = fn
        return traced

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-operation self time and call count of every layer, and the
        time covered by outermost spans."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        for i, (_, metric, start, end, parent) in enumerate(self.spans):
            self_ms[metric] += (end - start - child[i]) * 1e3
            calls[metric] += 1
            if parent is None:
                covered += (end - start) * 1e3
        out = {}
        for metric, calls_metric, _, _ in LAYERS:
            out[metric] = self_ms[metric] / n_ops
            out[calls_metric] = calls[metric] / n_ops
        peaks = list(self.peak_alloc.values())
        out[PEAK_ALLOC_METRIC] = max(peaks) / 2**20 if peaks else 0.0
        out["_covered_ms"] = covered / n_ops
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "layer", "start", "end", "parent"], "spans": self.spans}, fh)


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric, calls_metric, _, _ in LAYERS:
        units[metric] = "ms"
        units[calls_metric] = "count"
    units[PEAK_ALLOC_METRIC] = "MB"
    return units
