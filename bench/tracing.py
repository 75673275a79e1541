"""Spans around the program's public functions, installed from outside.

`Tracer.enable` replaces every public function of the six `entorder`
modules with a wrapper, at *every* module attribute that binds it: for
example `catalysis` imports `compare` by name, so `entorder.catalysis.compare`
is wrapped as well as `entorder.majorization.compare`.  `numpy.linalg.svd`
is wrapped only as `sampling` sees it, through a private copy of the numpy
module bound to `entorder.sampling.np`.

Each call records one span (name, start, end, parent) in memory; spans are
aggregated, and optionally written out, when the run ends.  Span times are
process CPU time, like the op times in `worker.py`.  A layer's self time is
its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types

import numpy as np

import entorder
import entorder.catalysis
import entorder.cli
import entorder.genericity
import entorder.majorization
import entorder.sampling
import entorder.spectra

LAYERS = ("spectra", "majorization", "catalysis", "genericity", "sampling", "cli")
MODULES = [getattr(entorder, layer) for layer in LAYERS]


# Bound before any wrapping, so counting makes no spans of its own.
_comparison_horizon = entorder.spectra.comparison_horizon


def _finite_horizon(a, b):
    if a.tail is None and b.tail is None:
        return max(len(a), len(b))
    return _comparison_horizon(a, b)


# Counters taken from a call's arguments and result, after its span ends.
def _entries(counters, args, result):
    counters["entries"] = counters.get("entries", 0) + len(result)


def _prefix_entries(counters, args, result):
    key = "prefix_entries"
    counters[key] = counters.get(key, 0) + _finite_horizon(args[0], args[1])


def _hits(counters, args, result):
    counters["hits"] = counters.get("hits", 0) + (result is not None)


_OUTCOME_KEYS = {
    "strong-by-c": "strong_by_c",
    "convertible-witness": "convertible",
    "inconclusive": "inconclusive",
}


def _outcomes(counters, args, result):
    key = _OUTCOME_KEYS[result.outcome.value]
    counters[key] = counters.get(key, 0) + 1


COUNTERS = {
    "catalysis.tensor_product_spectrum": _entries,
    "catalysis.tensor_power_spectrum": _entries,
    "catalysis.top_k_tensor_power": _entries,
    "majorization.compare": _prefix_entries,
    "catalysis.catalyst_search": _hits,
    "catalysis.strong_verdict": _outcomes,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}  # span name -> {counter: value}
        self._stack = [-1]
        self._wrapped = self._bindings()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time
        counter = COUNTERS.get(name)
        counts = self.counters.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def _bindings(self):
        """(owner, attr, original, wrapper) for every binding to replace."""
        targets = {}
        for module in MODULES:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    # A generator's body runs after its call returns, so a
                    # span would time only its creation.
                    and not inspect.isgeneratorfunction(fn)
                ):
                    targets[fn] = self.wrap(f"{layer}.{attr}", fn)
        bindings = [
            (module, attr, fn, targets[fn])
            for module in MODULES + [entorder]
            for attr, fn in vars(module).items()
            if inspect.isfunction(fn) and fn in targets
        ]
        numpy_copy = types.ModuleType("numpy")
        numpy_copy.__dict__.update(vars(np))
        linalg_copy = types.ModuleType("numpy.linalg")
        linalg_copy.__dict__.update(vars(np.linalg))
        linalg_copy.svd = self.wrap("sampling.svd", np.linalg.svd)
        numpy_copy.linalg = linalg_copy
        bindings.append((entorder.sampling, "np", np, numpy_copy))
        return bindings

    def enable(self):
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in self._wrapped:
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, self_ms and counters; plus root time in ms."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        root_ms = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - inner) * 1e3
            if parent < 0:
                root_ms += (end - start) * 1e3
        for name, counts in self.counters.items():
            if counts:
                out.setdefault(name, {"calls": 0, "self_ms": 0.0}).update(counts)
        return out, root_ms

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
