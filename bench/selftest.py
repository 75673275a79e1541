"""Short mode: the benchmark's own test.  Takes under a minute.

    python3 bench/selftest.py

Runs every workload for a handful of ops, untraced and traced, and checks
that each run is correct with no failed op and prints every metric named in
BENCHMARK.json with its unit.  On `strong` it also checks that the spans of
the traced ops account for their wall time to within the tracing overhead.
Finally it checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and bench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_declaration(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}, sorted(declared)
    names = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"] + declared["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200, workload
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    return names


def check_result(proc, expected, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{label}: {proc.stdout.splitlines()[-2]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {sorted(got)} != {sorted(expected)}"
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_bare_directory():
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "--workload", "strong", "--seed", 1, "--seconds", 1, "--trace", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = check_declaration(declared)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for workload in workloads:
        common = ["--workload", workload, "--seed", 7, "--seconds", 60]
        values = check_result(run(ROOT, *common, "--trace", 0, "--max-ops", 5),
                              end_to_end, f"{workload} untraced")
        assert values["ok_frac"] == 1.0, values
        layers = check_result(run(ROOT, *common, "--trace", 1, "--max-ops", 8),
                              per_layer, f"{workload} traced")
        if workload == "strong":
            assert layers["trace.unattributed_ms"] <= layers["trace.overhead_ms"], layers
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory refused")


if __name__ == "__main__":
    main()
