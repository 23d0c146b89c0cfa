"""Smoke tests of the benchmark harness; they never gate on wall-clock time.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_output_schema(workload, trace):
    out = smoke(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"]
                                                                 for m in wanted}
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_counts_repeat():
    first, second = (smoke("all", 1)["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if v["unit"] in ("count", "bytes", "rows")}
    assert counts == {k: second[k]["value"] for k in counts}
    assert first["verify-all.kernels.kernel_evals"]["value"] > 0
    assert first["experiments.cli.bytes_written"]["value"] > 0
    assert first["deep-window.spectral.svd_calls"]["value"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "verify-all", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("n, pct, beyond", [(1, 100, 0), (19, 100, 0), (20, 50, 10),
                                            (24, 58, 10), (32, 68, 10), (40, 75, 10),
                                            (1000, 99, 10)])
def test_tail_is_highest_percentile_with_ten_cases_beyond(n, pct, beyond):
    times = [float(i) for i in range(n)]
    value, got_pct, got_beyond = run.tail_latency(times)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(t > value for t in times) == beyond


def test_case_times_are_best_of_k_per_label():
    cases = [{"label": "a", "s": 1.0, "pass": 0, "ok": True},
             {"label": "b", "s": 5.0, "pass": 0, "ok": True},
             {"label": "a", "s": 2.0, "pass": 1, "ok": True},
             {"label": "b", "s": 4.0, "pass": 1, "ok": True}]
    metrics, details = run.end_to_end_metrics({"cases": cases, "peak_rss_mb": 1.0},
                                              [0.2, 0.1, 0.3], 2)
    assert metrics["wall_s"] == (5.0, "s")
    assert metrics["cases_per_s"] == (0.4, "1/s")
    assert metrics["case_p50_s"] == (2.5, "s")
    assert metrics["case_tail_s"] == (4.0, "s")
    assert metrics["setup_s"] == (0.2, "s")
    assert details["passes_s"] == [6.0, 6.0] and details["fail_frac"] == 0.0
