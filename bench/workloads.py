"""Seeded input streams for the four benchmark workloads.

Each workload is an endless stream of *op specs*: plain lists, numbers and
strings, never library objects, so the same stream can be regenerated by
the checking side without importing the program.  The first spec of every
stream is a deliberately light warm-up op; its cost belongs to set-up time.

Costs vary between op kinds, so each stream is built from shuffled *cycles*
that visit every stratum (pair kind and size, dimension, subcommand, query
kind) once.  The op mix is then nearly the same for every seed, and run-to-run
spread comes from the machine rather than from which inputs the seed drew.
"""

from __future__ import annotations

import importlib.util
import math
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("strong", "sweep", "cli", "topk")

# strong_verdict bounds used by the `strong` workload.
STRONG_BOUNDS = {"m_max": 3, "catalyst_dim_max": 3, "grid_steps": 50}
SWEEP_DIMS = (3, 4, 6, 8, 12, 16)
SWEEP_SAMPLES = 200
# CLI spectra are multiples of 1/DYADIC, so every sum and product the CLI
# computes is exact and its output can be checked bit for bit.
DYADIC = 4096


def load_oracles():
    """Import the repository's independent test oracles, read-only."""
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("entorder_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stream(workload: str, seed: int):
    """Endless iterator of op specs for `workload`; op 0 is the warm-up op."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    streams = {"strong": _strong_stream, "sweep": _sweep_stream,
               "cli": _cli_stream, "topk": _topk_stream}
    return streams[workload](rng, seed)


def cycle_length(workload: str) -> int:
    """Ops per cycle of `workload`'s stream, after the warm-up op."""
    return {"strong": len(STRONG_STRATA), "sweep": len(SWEEP_DIMS),
            "cli": len(CLI_KINDS), "topk": TOPK_KINDS}[workload]


def first_ops(workload: str, seed: int, count: int) -> list:
    it = stream(workload, seed)
    return [next(it) for _ in range(count)]


def _cycles(rng, strata):
    """Yield every stratum once per cycle, in a fresh seeded order."""
    while True:
        for index in rng.permutation(len(strata)):
            yield strata[index]


# --- strong ---------------------------------------------------------------


# Half condition-c pairs (their sizes are drawn by the oracle helper), half
# same-length random pairs with n = 3..6.
STRONG_STRATA = [("c", None)] * 4 + [("random", n) for n in (3, 4, 5, 6)]


def _strong_stream(rng, seed):
    oracles = load_oracles()

    def pair(kind, n):
        if kind == "c":
            a, b = oracles.random_condition_c_pair(rng)
        else:
            a = oracles.random_sorted_probs(rng, n)
            b = oracles.random_sorted_probs(rng, n)
        return {"kind": kind, "a": a.tolist(), "b": b.tolist()}

    # The warm-up op is a condition-c pair: it always scans the full grid,
    # so its cost, and set-up time, hardly depends on the seed.
    yield pair("c", None)
    for kind, n in _cycles(rng, STRONG_STRATA):
        yield pair(kind, n)


# --- sweep ----------------------------------------------------------------


def _sweep_stream(rng, seed):
    index = 0

    def op(n):
        nonlocal index
        index += 1
        # Distinct per-op seeds, all derived from the workload seed.
        return {"n": n, "samples": SWEEP_SAMPLES, "seed": seed * 1_000_003 + index}

    yield op(SWEEP_DIMS[0])
    for n in _cycles(rng, list(SWEEP_DIMS)):
        yield op(n)


# --- topk -----------------------------------------------------------------

TOPK_M = (5, 40)
TOPK_K = (100.0, 3000.0)
# Query kinds per cycle.  An odd count puts the median, and the 90th
# percentile, inside one kind's cluster of op times, not on the edge between
# two clusters.
TOPK_KINDS = 37


def _topk_queries():
    """One cycle of (length, m, k): m over 5..40, k spaced evenly in log k,
    and 2..6 entries, paired by fixed strides.

    A query's cost is set by length, m and k alone, and spans 2.5 orders of
    magnitude; a run holds a few hundred queries.  Drawn at random, the
    costs near the median differed enough between seeds to move
    `op_ms_p50` by 10%.  So every cycle asks the same kinds of query, and
    the seed picks their order and the spectra.
    """
    lo, hi = math.log(TOPK_K[0]), math.log(TOPK_K[1])
    queries = []
    for i in range(TOPK_KINDS):
        m = TOPK_M[0] + i * (TOPK_M[1] - TOPK_M[0]) // (TOPK_KINDS - 1)
        position = ((i * 17) % TOPK_KINDS + 0.5) / TOPK_KINDS
        k = int(round(math.exp(lo + (hi - lo) * position)))
        queries.append((2 + (i * 11) % TOPK_KINDS % 5, m, k))
    return queries


def _topk_stream(rng, seed):
    def query(length, m, k):
        return {"a": dyadic_values(rng, length, total=2**20, unit=2**20), "m": m, "k": k}

    yield query(3, TOPK_M[0], int(TOPK_K[0]))
    for length, m, k in _cycles(rng, _topk_queries()):
        yield query(length, m, k)


# --- cli ------------------------------------------------------------------

CLI_KINDS = (
    "compare-text",
    "compare-json",
    "compare-tail",
    "power",
    "catalyze",
    "complete",
    "truncate",
    "audit",
)


def dyadic_values(rng, n, total=DYADIC, floor=1, unit=DYADIC):
    """n sorted positive multiples of 1/unit summing to total/unit.

    With total == unit the float sum is exactly 1, so ingestion keeps the
    values unchanged and the oracles see the program's exact inputs.
    """
    weights = rng.dirichlet(np.full(n, 1.0))
    counts = np.maximum(floor, np.floor(weights * (total - n * floor))).astype(int)
    counts[0] += total - int(counts.sum())
    counts = sorted((int(c) for c in counts), reverse=True)
    return [c / unit for c in counts]


def _text(values) -> str:
    return ",".join(repr(v) for v in values)


def _cli_stream(rng, seed):
    def distinct_tops(n_a, n_b):
        while True:
            a = dyadic_values(rng, n_a)
            b = dyadic_values(rng, n_b)
            if a[0] != b[0]:
                return a, b

    def op(kind):
        fmt = ["--format", "json"] if rng.random() < 0.5 else []
        if kind in ("compare-text", "compare-json"):
            n = int(rng.integers(3, 9))
            a = dyadic_values(rng, n)
            b = a if rng.random() < 0.1 else dyadic_values(rng, int(rng.integers(3, 9)))
            fmt = ["--format", "json"] if kind == "compare-json" else []
            argv = ["compare", "--a", _text(a), "--b", _text(b)] + fmt
            return {"kind": kind, "argv": argv, "a": a, "b": b}
        if kind == "compare-tail":
            # One tailed and one finite spectrum: the tail is geom(f, 1/2)
            # with f no larger than the last head entry, so its mass is 2f.
            n = int(rng.integers(2, 7))
            first = int(rng.integers(1, 33))
            head = dyadic_values(rng, n, total=DYADIC - 2 * first, floor=first)
            finite = dyadic_values(rng, int(rng.integers(2, 9)))
            tailed = {"values": head, "first": first / DYADIC, "ratio": 0.5}
            text = f"{_text(head)}...geom({first / DYADIC!r},0.5)"
            if rng.random() < 0.5:
                a, b, argv_a, argv_b = tailed, finite, text, _text(finite)
            else:
                a, b, argv_a, argv_b = finite, tailed, _text(finite), text
            argv = ["compare", "--a", argv_a, "--b", argv_b] + fmt
            return {"kind": kind, "argv": argv, "a": a, "b": b}
        if kind == "power":
            a = dyadic_values(rng, int(rng.integers(2, 5)))
            m = int(rng.integers(1, 4))
            argv = ["power", "--a", _text(a), "--m", str(m)] + fmt
            return {"kind": kind, "argv": argv, "a": a, "m": m}
        if kind == "catalyze":
            n = int(rng.integers(3, 6))
            a, b = dyadic_values(rng, n), dyadic_values(rng, n)
            c = dyadic_values(rng, int(rng.integers(2, 4)))
            argv = ["catalyze", "--a", _text(a), "--b", _text(b), "--c", _text(c)]
            return {"kind": kind, "argv": argv + fmt, "a": a, "b": b, "c": c}
        if kind == "complete":
            base = dyadic_values(rng, int(rng.integers(2, 7)))
            m = int(rng.integers(1, 50))
            argv = ["construct", "complete", "--base", _text(base), "--m", str(m)]
            return {"kind": kind, "argv": argv + fmt, "base": base, "m": m}
        a, b = distinct_tops(int(rng.integers(5, 11)), int(rng.integers(5, 11)))
        longest = len(a) if a[0] > b[0] else len(b)
        shortest = len(b) if a[0] > b[0] else len(a)
        m_top = min(longest, shortest + 1)
        if kind == "truncate":
            m = int(rng.integers(2, m_top + 1))
            argv = ["construct", "truncate", "--a", _text(a), "--b", _text(b)]
            return {"kind": kind, "argv": argv + ["--m", str(m)] + fmt,
                    "a": a, "b": b, "m": m}
        m_list = sorted(int(m) for m in rng.choice(
            np.arange(2, m_top + 1), size=min(3, m_top - 1), replace=False))
        argv = ["construct", "audit", "--a", _text(a), "--b", _text(b),
                "--m-list", ",".join(map(str, m_list))] + fmt
        return {"kind": kind, "argv": argv, "a": a, "b": b, "m_list": m_list}

    yield op("compare-text")
    for kind in _cycles(rng, list(CLI_KINDS)):
        yield op(kind)
