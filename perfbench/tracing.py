"""Span tracing of mdpp from outside the package.

``Tracer.install`` replaces every public function bound as a module attribute
of the traced mdpp modules with a wrapper that records a span (name, start,
end, parent span, op id). Attributes that re-export another module's function
(``summarizer.kts`` is ``kts.kts``) get the same wrapper, so a call is traced
whichever name the caller uses and spans nest. ``uninstall`` puts the original
functions back, so untraced work runs the program exactly as shipped.

A span's self time is its duration minus the time its direct children cover.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

import numpy as np


def _ground_size(kernel, *_args, **_kwargs):
    return kernel.ground_size


def _count_kts(result, features, max_segments, *_args, **_kwargs):
    n = np.shape(features)[0]
    return {"kts.kts.calls": 1, "kts.kts.dp_cells": min(max_segments, n) * n}


def _count_greedy(result, kernel, max_size=None, *_args, **_kwargs):
    n = kernel.ground_size if hasattr(kernel, "ground_size") else np.shape(kernel)[0]
    return {
        "dpp.greedy_map.picks": len(result),
        "dpp.greedy_map.budget": n if max_size is None else max_size,
    }


# Work counts computed from each call's arguments and result (not measured),
# keyed by the metric they add to.
COUNTERS = {
    "encoder.forward": lambda result, params, sequence, *a, **k: {
        "encoder.forward.frames": sequence.num_views * sequence.num_steps
    },
    "encoder.loss_and_grad": lambda result, *a, **k: {"encoder.loss_and_grad.calls": 1},
    "training.adam_step": lambda result, *a, **k: {"training.adam_step.calls": 1},
    # ground-set items of every N x N likelihood evaluation
    "dpp.log_prob": lambda result, *a, **k: {"dpp.items": _ground_size(*a, **k)},
    "dpp.logprob_grad_L": lambda result, *a, **k: {"dpp.items": _ground_size(*a, **k)},
    "kts.kts": _count_kts,
    "dpp.greedy_map": _count_greedy,
    "summarizer.knapsack_shots": lambda result, lengths, scores, budget_frames: {
        "summarizer.knapsack_shots.cells": len(lengths) * budget_frames
    },
    "io.read_feature_file": lambda result, path: {
        "io.read_feature_file.bytes": os.path.getsize(path)
    },
}


class Tracer:
    """Installs span-recording wrappers on the public functions of modules."""

    def __init__(self, modules, error_type):
        self.modules = list(modules)
        self.error_type = error_type
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._wrappers: dict = {}

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("mdpp."):
                    continue
                if value not in self._wrappers:
                    self._wrappers[value] = self._wrap(value)
                self._originals.append((module, attr, value))
                setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _wrap(self, fn):
        layer = fn.__module__.split(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.error_type as exc:
                # count an error once, in the layer that raised it
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, op_filter) -> tuple[dict[str, float], float]:
        """Self time per span name over spans whose op passes ``op_filter``,
        and the summed duration of the top-level spans among them."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if not op_filter(op):
                continue
            totals[name] += (end - start) - child_time[i]
            if parent < 0:
                top_level += end - start
        return dict(totals), top_level
