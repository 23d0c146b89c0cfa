"""The benchmark harness still runs against the package: one traced smoke run.

Wall-clock numbers are not checked; only that every case ran, was judged
correct, and that the deep-window smoke rung decomposed its matrix once per p.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_smoke_run_of_all_workloads():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["metrics"]["deep-window.spectral.svd_calls"]["value"] == 3
