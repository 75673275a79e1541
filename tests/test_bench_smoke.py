"""The benchmark harness's short mode keeps passing against the program.

`bench/selftest.py` runs every workload briefly, untraced and traced, and
checks each op against the oracles in `tests/oracles.py`; its `sweep`
oracle redraws the samples from their (seed, n, i) streams, so this also
guards the stream contract.  Takes about half a minute.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
