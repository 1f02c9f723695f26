"""Spans and counters recorded around embreg's layer boundaries.

Each function is wrapped at the module attribute its caller looks up at
call time: ``run_pipeline`` calls ``embreg.pipeline.sscc``, ``sscc`` calls
``embreg.matching.find_points``, and so on. The wrappers live only for the
traced registration: leaving the ``with`` block puts every original back.

Spans stay in memory (``Tracer.spans``) and per-pair totals accumulate in
``Tracer.values``; the benchmark writes both out when the run ends.
"""

from __future__ import annotations

import importlib
import math
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pair: int


def _gather_mb(values, args, result, parent):
    # Computed from array sizes: points x 8 corners x channels x 8 bytes.
    # Cache behaviour and the actual bytes moved are not measured.
    field, points = args[0], args[1]
    channels = np.shape(field)[3] if np.ndim(field) == 4 else 1
    values["grid.gather_mb"] += math.prod(np.shape(points)[:-1]) * 8 * channels * 8 / MB


def _instance_sample(values, args, result, parent):
    _gather_mb(values, args, result, parent)
    if np.ndim(args[0]) == 4:  # the feature map, not the intensity volume
        values["instance.evaluations"] += 1


def _score_matrix_mb(values, args, result, parent):
    # Computed from array sizes: query voxels x keys x 8 bytes per call.
    keys, _, feat_query = args[0], args[1], args[2]
    size = math.prod(np.shape(feat_query)[:3]) * len(keys) * 8 / MB
    values["matching.score_matrix_mb"] = max(values["matching.score_matrix_mb"], size)


def _lattice_points(values, args, result, parent):
    if parent == "matching.sscc":  # eval also calls select_points for landmarks
        values["matching.lattice_points"] += len(result)


def _unique(values, args, result, parent):
    values["matching.unique_pairs"] += len(result)


def _kept(values, args, result, parent):
    values["matching.kept_pairs"] += len(result)


def _affine_pairs(values, args, result, parent):
    values["affine.pairs"] += len(args[0])


def _bytes_read(values, args, result, parent):
    values["container.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(values, args, result, parent):
    values["container.bytes_written"] += os.path.getsize(args[0])


# (module, attribute, span name, hook, peak-allocation metric)
LAYERS = [
    ("embreg.pipeline", "sscc", "matching.sscc", _unique, "matching.peak_alloc_mb"),
    ("embreg.pipeline", "filter_matches", "matching.filter", _kept, None),
    ("embreg.matching", "select_points", "matching.select_points", _lattice_points, None),
    ("embreg.matching", "find_points", "matching.find_points", _score_matrix_mb, None),
    ("embreg.pipeline", "fit_affine", "affine.fit", _affine_pairs, None),
    ("embreg.pipeline", "optimize_coarse", "coarse.optimize", None, None),
    ("embreg.coarse", "coarse_objective", "coarse.objective", None, None),
    ("embreg.coarse", "coarse_gradient", "coarse.gradient", None, None),
    ("embreg.coarse", "trilinear_sample", "grid.sample", _gather_mb, None),
    ("embreg.coarse", "trilinear_corners", "grid.corners", None, None),
    ("embreg.pipeline", "optimize_instance", "instance.optimize", None, "instance.peak_alloc_mb"),
    ("embreg.instance", "trilinear_sample_with_grad", "grid.sample_with_grad", _instance_sample, None),
    ("embreg.instance", "integrate_svf_with_tape", "transform.svf_forward", None, None),
    ("embreg.instance", "svf_backward", "transform.svf_backward", None, None),
    ("embreg.instance", "lncc_gradient", "metrics.lncc_gradient", None, None),
    ("embreg.instance", "ncc_gradient", "metrics.ncc_gradient", None, None),
    ("embreg.transform", "trilinear_sample", "grid.sample", _gather_mb, None),
    ("embreg.transform", "trilinear_sample_with_grad", "grid.sample_with_grad", _gather_mb, None),
    ("embreg.transform", "trilinear_corners", "grid.corners", None, None),
    ("embreg.grid", "trilinear_sample", "grid.sample", _gather_mb, None),
    ("embreg.pipeline", "compose", "transform.compose", None, None),
    ("embreg.pipeline", "jacobian_determinant", "transform.jacobian", None, None),
    ("embreg.pipeline", "dice", "metrics.dice", None, None),
    ("embreg.cli", "cmd_register", "cli.register", None, None),
    ("embreg.cli", "cmd_eval", "cli.eval", None, None),
    ("embreg.cli", "run_pipeline", "pipeline.run", None, None),
    ("embreg.cli", "compose", "transform.compose", None, None),
    ("embreg.cli", "jacobian_determinant", "transform.jacobian", None, None),
    ("embreg.cli", "dice", "metrics.dice", None, None),
    ("embreg.cli", "read_vol1", "container.read", _bytes_read, None),
    ("embreg.cli", "write_vol1", "container.write", _bytes_written, None),
]


class Tracer:
    """Context manager that wraps :data:`LAYERS` and records what they do.

    Set ``pair`` before each registration; spans and per-pair totals are
    keyed by it. ``values[pair]`` maps ``<span>_s`` to summed inclusive
    seconds, ``<span>_calls`` to call counts, and hook names to counters.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[int, defaultdict] = {}
        self.pair = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self._saved = []
        for module_name, attr, name, hook, alloc in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook, alloc))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original function again."""
        return all(getattr(module, attr) is original for module, attr, original in self._saved)

    def pair_values(self, pair: int) -> defaultdict:
        return self.values.setdefault(pair, defaultdict(float))

    def _wrap(self, fn, name, hook, alloc):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.pair)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if alloc:
                # Tracing allocations slows every allocation, so it runs
                # only inside the stages whose peak is reported.
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
            values = self.pair_values(self.pair)
            values[name + "_s"] += span.end - span.start
            values[name + "_calls"] += 1
            if alloc:
                values[alloc] = max(values[alloc], peak)
            if hook is not None:
                hook(values, args, result, None if parent is None else self.spans[parent].name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
