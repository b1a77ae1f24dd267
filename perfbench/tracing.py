"""Spans around the public functions of each viscodelay module, from outside.

``Tracer.installed()`` replaces module attributes with timing wrappers at
every place the name is bound, including the ``from``-imports other
modules made and the attribute ``solver.run`` reads its deferred
``sample_state`` import from, and restores the originals on exit.  Spans
(name, start, end, parent, operation id) are kept in memory; self time is
computed from them after the operation.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from pathlib import Path

import numpy as np

# (span name, [(module, attribute), ...]) -- every binding of the function
TRACE_POINTS = (
    ("cli.main", [("cli", "main")]),
    ("cli.sweep_row", [("cli", "_sweep_row")]),
    ("solver.discretize", [("solver", "discretize")]),
    ("solver.build", [("solver", "build")]),
    ("solver.run", [("solver", "run")]),
    ("solver.step", [("solver", "step")]),
    ("solver.rhs", [("solver", "_rhs")]),
    ("solver.eta_field", [("solver", "eta_field")]),
    ("energy.sample_state", [("energy", "sample_state")]),
    ("energy.delay_integral", [("energy", "_delay_integral")]),
    ("energy.check_dissipation", [("energy", "check_dissipation"),
                                  ("cli", "check_dissipation")]),
    ("analysis.fit_decay_rate", [("analysis", "fit_decay_rate")]),
    ("analysis.check_memory_identity", [("analysis", "check_memory_identity")]),
    ("certificate.compute_constants", [("certificate", "compute_constants")]),
    ("certificate.amplitude_budget", [("certificate", "amplitude_budget")]),
    ("kernel.validate_kernel", [("kernel", "validate_kernel"),
                                ("solver", "validate_kernel"),
                                ("cli", "validate_kernel")]),
    ("svgplot.render_log_plot", [("svgplot", "render_log_plot")]),
)

# per-layer metric -> (span name, statistic, unit); statistics are per operation
LAYER_METRICS = {
    "solver.step.calls": ("solver.step", "calls", "count"),
    "solver.step.us": ("solver.step", "us_per_call", "us"),
    "solver.rhs.calls": ("solver.rhs", "calls", "count"),
    "solver.rhs.us": ("solver.rhs", "us_per_call", "us"),
    "solver.build.s": ("solver.build", "total_s", "s"),
    "solver.discretize.s": ("solver.discretize", "total_s", "s"),
    "solver.state_bytes": ("solver.build", "state_bytes", "bytes"),
    "energy.sample_state.calls": ("energy.sample_state", "calls", "count"),
    "energy.sample_state.us": ("energy.sample_state", "us_per_call", "us"),
    "solver.eta_field.us": ("solver.eta_field", "us_per_call", "us"),
    "energy.delay_integral.us": ("energy.delay_integral", "us_per_call", "us"),
    "energy.check_dissipation.s": ("energy.check_dissipation", "total_s", "s"),
    "analysis.check_memory_identity.s": ("analysis.check_memory_identity", "total_s", "s"),
    "analysis.fit_decay_rate.s": ("analysis.fit_decay_rate", "total_s", "s"),
    "certificate.compute_constants.calls": ("certificate.compute_constants", "calls", "count"),
    "certificate.compute_constants.us": ("certificate.compute_constants", "us_per_call", "us"),
    "certificate.amplitude_budget.calls": ("certificate.amplitude_budget", "calls", "count"),
    "kernel.validate_kernel.calls": ("kernel.validate_kernel", "calls", "count"),
    "kernel.validate_kernel.us": ("kernel.validate_kernel", "us_per_call", "us"),
    "cli.self_s": ("cli.main", "self_s", "s"),
    "cli.sweep_row.s": ("cli.sweep_row", "total_s", "s"),
    "svgplot.render_log_plot.s": ("svgplot.render_log_plot", "total_s", "s"),
}
OVERHEAD_METRIC = "trace.overhead_s"


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.state_bytes = {}    # op id -> largest SimState.nbytes() built
        self.op = None
        self._stack = []
        self._blocks = {}        # op id -> (first, end) index of its spans

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_build = name == "solver.build"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if is_build:
                size = result.nbytes()
                self.state_bytes[self.op] = max(size, self.state_bytes.get(self.op, 0))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, op_id):
        """Trace every call made inside the block as operation ``op_id``."""
        saved = []
        self.op = op_id
        first = len(self.spans)
        try:
            for name, bindings in TRACE_POINTS:
                wrappers = {}  # id(original) -> wrapper, so shared bindings share one
                for mod_name, attr in bindings:
                    module = importlib.import_module(f"viscodelay.{mod_name}")
                    original = getattr(module, attr, None)
                    if original is None:
                        continue  # binding removed by a refactor: nothing to time there
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, original)
                    wrapper = wrappers[id(original)]
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.op = None
            self._blocks[op_id] = (first, len(self.spans))

    def layer_stats(self, op_id) -> dict:
        """Per span name: calls, inclusive and self seconds, for one operation."""
        first, end = self._blocks[op_id]
        return span_stats(self.spans[first:end], base=first,
                          state_bytes=self.state_bytes.get(op_id, 0))

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: name,start,end,parent,op (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def span_stats(spans: list, base: int = 0, state_bytes: int = 0) -> dict:
    """Aggregate spans whose parent indices are global, offset by ``base``.

    Self time of a span is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    if not spans:
        return {}
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans]) - base
    inside = parent >= 0
    child_sum = np.bincount(parent[inside], weights=dur[inside], minlength=len(spans))
    self_time = dur - child_sum
    stats = {}
    for i, name in enumerate(names):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += float(dur[i])
        entry["self_s"] += float(self_time[i])
    for entry in stats.values():
        entry["us_per_call"] = 1e6 * entry["total_s"] / entry["calls"]
    stats.setdefault("solver.build", {})["state_bytes"] = state_bytes
    return stats


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values of one operation; absent layers read 0."""
    return {metric: float(stats.get(span, {}).get(stat, 0))
            for metric, (span, stat, _) in LAYER_METRICS.items()}
