"""One workload in one fresh, single-threaded process, with one caller.

    python bench/worker.py setup <workload>         (warm-up op spec on stdin)
    python bench/worker.py reference
    python bench/worker.py run <workload> <seed> <seconds> <max_ops> <first>
    python bench/worker.py trace <workload> <seed> <ops> <spans_path>

`setup` imports the program, runs the warm-up op and prints the process's
CPU time, and the monotonic clock the parent also reads, when each step
finished.  `reference` prints the CPU time this file's own imports took: a
fresh interpreter that loads numpy and no program code.  `run` is a closed
loop: it discards the warm-up op, then times ops one at a time, from op
number `first` of the stream on, until `seconds` have passed (or `max_ops`
ops, if positive).  It streams one line
per op, so that outputs held for checking do not add to its memory, and ends
with a summary line.  `trace` runs a fixed number of ops twice each,
untraced and traced, over the same inputs, and prints one JSON object.  The
parent checks every output.

Op times are process CPU time.  The ops are single-threaded and do no I/O,
so on a dedicated core this equals wall time; on a shared virtual machine it
leaves out the time the hypervisor gives the core to other guests, which
otherwise swings run-to-run results by 20% or more.  Wall times are kept
alongside for reference.

CPU time still follows the speed of the core, which on a shared host moves by
1.5x or more from one second to the next.  So `run` also times a fixed piece
of reference work, `gauge()`, between ops at least every `GAUGE_EVERY_S`
seconds and streams it as a line of its own.  The parent scales each op by
the gauge times around it, and each `setup` by a `reference` run next to it.
"""

import json
import sys
import time

import numpy

GAUGE_EVERY_S = 0.05
_GAUGE_LIST = [((i * 7919) % 1009 + 1) / 1009 for i in range(48)]
_GAUGE_ARRAY = numpy.linspace(0.1, 1.0, 6)


def gauge() -> float:
    """CPU seconds taken by fixed reference work that never calls the program.

    It mixes what the workloads do: interpreted loops over small lists, and
    small numpy calls.
    """
    start = time.process_time()
    hits = 0
    for _ in range(100):
        total = 0.0
        for index, value in enumerate(sorted(_GAUGE_LIST, reverse=True)):
            total += value
            if total > 0.02 * index:
                hits += 1
        products = numpy.sort(numpy.outer(_GAUGE_ARRAY, _GAUGE_ARRAY).ravel())[::-1]
        sums = numpy.cumsum(products)
        hits += int((sums[:-1] <= sums[1:]).all())
    elapsed = time.process_time() - start
    assert hits == 100 * 49, hits
    return elapsed


def _setup(workload):
    spec = json.loads(sys.stdin.read())
    import entorder  # noqa: F401

    imported = time.process_time(), time.monotonic()
    from ops import call, prepare

    call(workload, prepare(workload, spec))
    ready = time.process_time(), time.monotonic()
    return {"imported_cpu": imported[0], "imported": imported[1],
            "ready_cpu": ready[0], "ready": ready[1]}


def _loop(workload, specs, emit, deadline=None, emit_gauge=None):
    """Time each op of `specs`; pass (cpu_s, wall_s, output) to `emit`.

    Stops early once the monotonic clock passes `deadline`.  With
    `emit_gauge`, times `gauge()` before the first op, between ops at least
    every GAUGE_EVERY_S seconds, and after the last op, and passes each time
    to it.
    """
    from ops import call, encode, prepare

    cpu, wall = time.process_time, time.perf_counter
    gauged = None
    for spec in specs:
        if emit_gauge is not None and (gauged is None or
                                       time.monotonic() - gauged >= GAUGE_EVERY_S):
            emit_gauge(gauge())
            gauged = time.monotonic()
        args = prepare(workload, spec)
        start_wall, start = wall(), cpu()
        try:
            result, error = call(workload, args), None
        except Exception as exc:  # counted as a failed op, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed, elapsed_wall = cpu() - start, wall() - start_wall
        output = {"error": error} if error else {"ok": encode(workload, args, result)}
        emit(elapsed, elapsed_wall, output)
        if deadline is not None and time.monotonic() >= deadline:
            break
    if emit_gauge is not None:
        emit_gauge(gauge())


def _run(workload, seed, seconds, max_ops, first):
    import itertools

    from workloads import stream

    specs = stream(workload, seed)
    warm = []
    _loop(workload, [next(specs)], lambda _cpu, _wall, out: warm.append(out))
    specs = itertools.islice(specs, first - 1, first - 1 + max_ops if max_ops > 0 else None)

    def emit(cpu_s, wall_s, output):
        sys.stdout.write(json.dumps({"s": cpu_s, "wall": wall_s, "out": output}) + "\n")

    def emit_gauge(cpu_s):
        sys.stdout.write(json.dumps({"gauge": cpu_s}) + "\n")

    _loop(workload, specs, emit, time.monotonic() + seconds, emit_gauge)
    return {"warmup": warm[0], "peak_rss_mb": _peak_rss_kb() / 1024.0}


def _peak_rss_kb():
    """Peak resident memory of this process image, in KiB.

    `ru_maxrss` survives execve, so a worker spawned by a large parent would
    report the parent's size; the kernel's VmHWM belongs to this image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _trace(workload, seed, ops, spans_path):
    from tracing import Tracer
    from workloads import first_ops

    specs = first_ops(workload, seed, ops + 1)
    _loop(workload, specs[:1], lambda *_: None)
    tracer = Tracer()
    runs = {False: ([], []), True: ([], [])}
    # Each op runs untraced and traced back to back; alternating which goes
    # first cancels the advantage of the second, warmer run.
    for index, spec in enumerate(specs[1:]):
        for traced in (False, True) if index % 2 else (True, False):
            latencies, outputs = runs[traced]
            if traced:
                tracer.enable()
            try:
                _loop(workload, [spec],
                      lambda s, _wall, out: (latencies.append(s), outputs.append(out)))
            finally:
                tracer.disable()
    layers, root_ms = tracer.summary()
    if spans_path:
        tracer.dump(spans_path)
    return {
        "plain": {"latencies": runs[False][0], "outputs": runs[False][1]},
        "traced": {"latencies": runs[True][0], "outputs": runs[True][1]},
        "layers": layers,
        "root_ms": root_ms,
    }


def main(argv):
    mode, workload = argv[0], (argv[1:2] or [None])[0]
    if mode == "reference":
        result = {"cpu": time.process_time()}
    elif mode == "setup":
        result = _setup(workload)
    elif mode == "run":
        result = _run(workload, int(argv[2]), float(argv[3]), int(argv[4]), int(argv[5]))
    elif mode == "trace":
        result = _trace(workload, int(argv[2]), int(argv[3]), argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
