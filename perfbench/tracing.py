"""Spans around the calls into drivenchain's public functions.

The tracer wraps each target at every module attribute a caller looks it
up by (``cli.evolve_state`` and ``ensemble.evolve_state`` both name
``propagate.evolve_state``), records one span per call (name, start, end,
parent, thread id) in memory, and removes the wrappers again when the
traced job ends.  ``ensemble`` maps realizations onto a thread pool: a span
opened on a thread with no open span of its own is parented to the
innermost span open on the thread that installed the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import Counter


def _steps_evolve(bound, result):
    times, step = bound.arguments["t_samples"], bound.arguments["step"]
    return {"propagate.steps": int(round(max(times) / step))}


def _steps_floquet(bound, result):
    return {"propagate.steps": int(bound.arguments["steps_per_period"])}


def _ratio_slots(bound, result):
    spectra = bound.arguments["spectra"]
    spectra = [spectra] if hasattr(spectra, "values") else list(spectra)
    return {"spectrum.ratios": result.count,
            "spectrum.ratio_slots": sum(s.dim - 2 for s in spectra)}


def _grid_cells(bound, result):
    return {"semiclassical.cells": len(bound.arguments["omega_values"])
            * len(bound.arguments["delta1_values"])}


def _csv_bytes(bound, result):
    return {"cli.write_csv.bytes": os.path.getsize(bound.arguments["path"])}


#: (module, attribute, span name, counter).  A dotted attribute names a
#: method on a class.
TARGETS = (
    ("propagate", "evolve_state", "propagate.evolve_state", _steps_evolve),
    ("propagate", "floquet_operator", "propagate.floquet_operator",
     _steps_floquet),
    ("ensemble", "run_dynamics_ensemble", "ensemble", None),
    ("ensemble", "run_spectrum_ensemble", "ensemble", None),
    ("spectrum", "quasienergies", "spectrum.quasienergies", None),
    ("spectrum", "gap_ratios", "spectrum.gap_ratios", _ratio_slots),
    ("spectrum", "ks_distance", "spectrum.ks_distance", None),
    ("observables", "observable_series", "observables.observable_series", None),
    ("semiclassical", "stability_grid", "semiclassical.stability_grid",
     _grid_cells),
    ("cli", "write_csv", "cli.write_csv", _csv_bytes),
    ("cli", "ManifestWriter.record_output", "cli.record_output", None),
)


class Tracer:
    """In-memory spans and counters for traced jobs."""

    def __init__(self):
        self.spans = []             # dicts: id, name, start, end, parent, thread
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = []
        self._home = threading.get_ident()

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._home_stack[-1] if self._home_stack else None)
        with self._lock:
            span_id = len(self.spans)
            record = {"id": span_id, "name": name, "start": time.perf_counter(),
                      "end": None, "parent": parent,
                      "thread": threading.get_ident()}
            self.spans.append(record)
        stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def _wrap(self, func, name, counter):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    self.counts.update(counter(bound, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patches = []
        for module_name, attr, name, counter in TARGETS:
            try:
                module = importlib.import_module(f"drivenchain.{module_name}")
            except ImportError:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, method, None)
                if original is None:
                    print(f"trace: {module_name}.{attr} not found",
                          file=sys.stderr)
                    continue
                patches.append((owner, method, original))
                setattr(owner, method, self._wrap(original, name, counter))
                continue
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found", file=sys.stderr)
                continue
            wrapper = self._wrap(original, name, counter)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("drivenchain"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-job layer numbers derived from the recorded spans and counters."""
    busy = Counter()
    calls = Counter()
    for s in tracer.spans:
        busy[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1

    ensemble_self = 0.0
    child_busy = 0.0
    workers = 0
    for s in tracer.spans:
        if s["name"] != "ensemble":
            continue
        children = [c for c in tracer.spans if c["parent"] == s["id"]]
        intervals = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                     for c in children]
        ensemble_self += (s["end"] - s["start"]) - _union_length(intervals)
        child_busy += sum(c["end"] - c["start"] for c in children)
        pool = {c["thread"] for c in children} - {s["thread"]}
        workers = max(workers, len(pool) or 1)

    c = tracer.counts
    propagate_busy = (busy["propagate.evolve_state"]
                      + busy["propagate.floquet_operator"])
    return {
        "propagate.evolve_state.calls": calls["propagate.evolve_state"] / jobs,
        "propagate.evolve_state.busy_s": busy["propagate.evolve_state"] / jobs,
        "propagate.floquet_operator.calls":
            calls["propagate.floquet_operator"] / jobs,
        "propagate.floquet_operator.busy_s":
            busy["propagate.floquet_operator"] / jobs,
        "propagate.steps": c["propagate.steps"] / jobs,
        "propagate.step_us": (1e6 * propagate_busy / c["propagate.steps"]
                              if c["propagate.steps"] else 0.0),
        "ensemble.self_s": ensemble_self / jobs,
        "ensemble.workers": workers,
        "ensemble.overlap": (child_busy / busy["ensemble"]
                             if busy["ensemble"] else 0.0),
        "spectrum.quasienergies.busy_s": busy["spectrum.quasienergies"] / jobs,
        "spectrum.gap_ratios.busy_s": busy["spectrum.gap_ratios"] / jobs,
        "spectrum.ks_distance.busy_s": busy["spectrum.ks_distance"] / jobs,
        "spectrum.useful_ratio": (c["spectrum.ratios"] / c["spectrum.ratio_slots"]
                                  if c["spectrum.ratio_slots"] else 0.0),
        "observables.observable_series.calls":
            calls["observables.observable_series"] / jobs,
        "observables.observable_series.busy_s":
            busy["observables.observable_series"] / jobs,
        "semiclassical.stability_grid.busy_s":
            busy["semiclassical.stability_grid"] / jobs,
        "semiclassical.us_per_cell": (
            1e6 * busy["semiclassical.stability_grid"]
            / c["semiclassical.cells"] if c["semiclassical.cells"] else 0.0),
        "cli.write_csv.busy_s": busy["cli.write_csv"] / jobs,
        "cli.write_csv.bytes": c["cli.write_csv.bytes"] / jobs,
        "cli.record_output.busy_s": busy["cli.record_output"] / jobs,
    }
