"""entorder benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload strong --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  `--trace 0` prints the end-to-end metrics
named in BENCHMARK.json, `--trace 1` the per-layer metrics of a separate
traced run.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Every op's output is checked
against the independent oracles in tests/oracles.py after timing.  Times
are CPU times scaled to a fixed reference core by reference work timed next
to the program (see bench/README.md).  Run provenance and the full result
are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(BENCH, "out")
REQUIRED = ("BENCHMARK.json", "src/entorder/__init__.py", "tests/oracles.py")
BLAS_THREADS = "1"
# A measured run is split over this many fresh worker processes in turn.
# Memory layout differs from process to process, and so does speed: whole
# processes ran 30% apart on the same ops, each one steady within itself.
RUN_PROCESSES = 10
# Fresh interpreters timed before the measured run and as many after it, so
# that set-up samples meet more than one phase of a shared machine's load.
# Each is followed by a reference interpreter that only imports numpy.
SETUP_SAMPLES_PER_SIDE = 3
# At most this many ops per run get the (costly) oracle check, spread evenly
# over the run, so that a much faster program cannot push a run past its time
# limit.  Every op that raised still counts as failed.
CHECK_LIMIT = {"strong": 20000, "sweep": 1000, "cli": 20000, "topk": 1000}
# CPU times of worker.gauge() and of a `reference` interpreter on the
# reference core that reported times are scaled to: what they took in the
# fast phases of a shared 2-vCPU Xeon virtual machine (see README.md).
GAUGE_REFERENCE_S = 0.0015
START_REFERENCE_S = 0.12
# Traced-run op counts per 10 s of --seconds, fixed so that per-op counts
# repeat exactly for a given seed on any machine and at any program speed.
TRACE_OPS_PER_10S = {"strong": 150, "sweep": 40, "cli": 600, "topk": 24}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def worker(args, *, stdin_text="", timeout):
    """Run bench/worker.py in a fresh interpreter.

    Returns its JSON stdout lines and the monotonic time it was started.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *map(str, args)],
        input=stdin_text, capture_output=True, text=True, env=child_env(),
        timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()], start


def sample_setup(workload, warmup_spec, samples):
    """Time fresh interpreters up to `import entorder` and to the warm-up op.

    Appends the child's CPU time at both points, the latter also scaled to
    the reference core by a reference interpreter started right after it,
    and the wall time from spawn, to the lists in `samples`.
    """
    for _ in range(SETUP_SAMPLES_PER_SIDE):
        (result,), start = worker(["setup", workload], timeout=120,
                                  stdin_text=json.dumps(warmup_spec))
        (reference,), _ = worker(["reference"], timeout=120)
        samples["import"].append(result["imported_cpu"])
        samples["ready"].append(result["ready_cpu"])
        samples["ready_scaled"].append(
            result["ready_cpu"] * START_REFERENCE_S / reference["cpu"])
        samples["ready_wall"].append(result["ready"] - start)


def new_setup_samples():
    return {"import": [], "ready": [], "ready_scaled": [], "ready_wall": []}


def scaled_times(records):
    """Split a worker's stream into ops and gauges; scale each op's CPU time.

    Each op between two gauge lines is scaled by GAUGE_REFERENCE_S over the
    mean of those two gauge times, so that it reads as on the reference
    core.  Returns the op records and their scaled times.
    """
    ops, scaled, block, before = [], [], [], None
    for record in records:
        if "gauge" not in record:
            block.append(record)
            continue
        after = record["gauge"]
        gauge = after if before is None else (before + after) / 2
        ops += block
        scaled += [op["s"] * GAUGE_REFERENCE_S / gauge for op in block]
        block, before = [], after
    assert not block, "the worker ended without a closing gauge line"
    return ops, scaled


def latency_stats(latencies):
    ms = [x * 1e3 for x in latencies]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "samples": len(ms),
        "beyond_p90": sum(1 for x in ms if x > p90),
    }


def check_outputs(workload, specs, outputs):
    from oracle import check

    step = -(-len(outputs) // CHECK_LIMIT[workload])
    failures = []
    for index, (spec, output) in enumerate(zip(specs, outputs)):
        if index % step == 0 or "error" in output:
            reason = check(workload, spec, output)
            if reason is not None:
                failures.append(f"op {index}: {reason}")
    return failures


def run_plain(workload, seed, seconds, max_ops):
    from workloads import cycle_length, first_ops

    warmup = first_ops(workload, seed, 1)[0]
    setup = new_setup_samples()
    sample_setup(workload, warmup, setup)
    ops, scaled, gauges, peak_rss_mb = [], [], [], 0.0
    for _ in range(RUN_PROCESSES):
        if max_ops and len(ops) >= max_ops:
            break
        left = max_ops - len(ops) if max_ops else 0
        *records, summary = worker(
            ["run", workload, seed, seconds / RUN_PROCESSES, left, len(ops) + 1],
            timeout=seconds + 120)[0]
        chunk, chunk_scaled = scaled_times(records)
        ops += chunk
        scaled += chunk_scaled
        gauges += [r["gauge"] for r in records if "gauge" in r]
        peak_rss_mb = max(peak_rss_mb, summary["peak_rss_mb"])
    sample_setup(workload, warmup, setup)
    # Every process ran the same warm-up op; its output is checked once.
    outputs = [summary["warmup"]] + [op["out"] for op in ops]
    specs = first_ops(workload, seed, len(outputs))
    failures = check_outputs(workload, specs, outputs)
    # Times are taken over whole cycles of the op stream, so that every run
    # times the same mix of op kinds; the ops of a last, partial cycle are
    # still checked.
    cycle = cycle_length(workload)
    timed = max(len(ops) // cycle * cycle, min(len(ops), cycle))
    stats = latency_stats(scaled[:timed])
    cpu = latency_stats([op["s"] for op in ops[:timed]])
    wall = latency_stats([op["wall"] for op in ops[:timed]])
    attempted = len(outputs)
    values = {
        "setup_s": statistics.median(setup["ready_scaled"]),
        "ops_per_s": stats["ops_per_s"],
        "op_ms_p50": stats["op_ms_p50"],
        "op_ms_p90": stats["op_ms_p90"],
        "ok_frac": 1.0 - len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "samples": stats["samples"],
        "beyond_p90": stats["beyond_p90"],
        "failed_frac": len(failures) / attempted,
        "setup_import_s": statistics.median(setup["import"]),
        "gauge_ms_p50": statistics.median(gauges) * 1e3,
        "cpu": {"setup_s": statistics.median(setup["ready"]),
                **{k: cpu[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_p90")}},
        "wall": {"setup_s": statistics.median(setup["ready_wall"]),
                 **{k: wall[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_p90")}},
    }
    return values, info, attempted, failures, []


def run_traced(workload, seed, seconds, max_ops, per_layer):
    from workloads import first_ops

    ops = max_ops if max_ops > 0 else max(
        10, round(TRACE_OPS_PER_10S[workload] * seconds / 10))
    warmup = first_ops(workload, seed, 1)[0]
    setup = new_setup_samples()
    sample_setup(workload, warmup, setup)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    (result,), _ = worker(["trace", workload, seed, ops, spans_path], timeout=150)
    sample_setup(workload, warmup, setup)
    specs = first_ops(workload, seed, ops + 1)[1:]
    plain, traced = result["plain"], result["traced"]
    failures = check_outputs(workload, specs, plain["outputs"])
    failures += check_outputs(workload, specs, traced["outputs"])
    problems = []
    if plain["outputs"] != traced["outputs"]:
        problems.append("traced outputs differ from untraced outputs")
    layers = result["layers"]
    if workload == "strong":
        tally = {}
        for output in plain["outputs"]:
            if "ok" in output:
                outcome = output["ok"]["outcome"]
                tally[outcome] = tally.get(outcome, 0) + 1
        counted = layers.get("catalysis.strong_verdict", {})
        traced_tally = {
            "strong-by-c": counted.get("strong_by_c", 0),
            "convertible-witness": counted.get("convertible", 0),
            "inconclusive": counted.get("inconclusive", 0),
        }
        if {k: v for k, v in traced_tally.items() if v} != tally:
            problems.append(f"traced outcome counts {traced_tally} != untraced {tally}")
    plain_ms = sum(plain["latencies"]) * 1e3
    traced_ms = sum(traced["latencies"]) * 1e3
    derived = {
        "setup.import_s": statistics.median(setup["import"]),
        "trace.overhead_ms": (traced_ms - plain_ms) / ops,
        "trace.overhead_ops_per_s": ops / plain_ms * 1e3 - ops / traced_ms * 1e3,
        "trace.unattributed_ms": (traced_ms - result["root_ms"]) / ops,
    }
    values = {}
    for name in per_layer:
        if name in derived:
            values[name] = derived[name]
            continue
        span, stat = name.rsplit(".", 1)
        entry = layers.get(span, {})
        if stat == "hit_ratio":
            calls = entry.get("calls", 0)
            values[name] = entry.get("hits", 0) / calls if calls else 0.0
        else:
            values[name] = entry.get(stat, 0) / ops
    info = {"ops": ops, "spans": spans_path}
    return values, info, 2 * ops, failures, problems


def provenance(workload, seed):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "entorder")
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (short mode); 0 = no cap")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an entorder checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seed < 0 or args.seconds <= 0:
        print(f"error: need --workload in {WORKLOADS}, --seed >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if args.trace:
        values, info, attempted, failures, problems = run_traced(
            args.workload, args.seed, args.seconds, args.max_ops, list(units))
    else:
        values, info, attempted, failures, problems = run_plain(
            args.workload, args.seed, args.seconds, args.max_ops)
    failures += problems
    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures) - len(problems),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    meta = {"provenance": provenance(args.workload, args.seed), "info": info,
            "failures": failures[:20]}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**meta, **record}, fh, indent=2)
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps(meta))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
