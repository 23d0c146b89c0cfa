"""Benchmark of parahaar, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload deep-window --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
  deep-window  decompose + Schatten + Besov on d=2 D=1024, d=3 D=729 and
               dim=2 D=1024, and paraproduct + Schatten on d=2 D=2048;
  verify-all   checks.run_suite for each of the 8 suites, committed calibration;
  experiments  `parahaar run` on five seeded configs, each run twice.

This process generates the inputs from --seed and starts every workload
process fresh (worker.py), one at a time.  With --trace 0 it starts
N_SETUPS - 1 processes that only set up, then one that sets up and runs the
timed passes, and reports the end-to-end metrics.  With --trace 1 it starts
one process that runs pass 0 untraced and then traced, and one traced process
with OPENBLAS_NUM_THREADS=1, and reports the per-layer metrics.  --smoke runs
one pass of the smallest rung of the workload and never looks at the clock.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Everything else (environment, per-case records, per-function self time) goes
to perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
N_SETUPS = 7
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "case_p50_s": "s",
    "case_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "paraproducts.dense_bytes": "bytes",
    "paraproducts.nnz_frac": "ratio",
    "spectral.svd_calls": "count",
    "spectral.svd_D_max": "rows",
    "spectral.svd_work": "rows3",
    "spectral.svd_repeat_frac": "ratio",
    "dyadic.basis_first_touch_s": "s",
    "median.searches": "count",
    "median.fallbacks": "count",
    "median.boundary_cases": "count",
    "median.fallback_frac": "ratio",
    "kernels.kernel_evals": "count",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.probe_s": "s",
    "trace.spans": "count",
    "blas1.wall_s": "s",
    "blas1.spectral.self_s": "s",
    "blas1.paraproducts.self_s": "s",
}


class BenchError(Exception):
    pass


def tail_latency(times):
    """(value, percentile, cases beyond it) for the highest percentile from
    p50 up with at least ten cases beyond it (nearest rank); with fewer than
    twenty cases none exists, and the slowest case is reported as p100."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def spawn(root, spec, deadline, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              env=env, cwd=root, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']} process ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} process exited with {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root, workload, seed, seconds, trace, smoke, deadline):
    """Run one workload; returns (metrics {name: (value, unit)}, record)."""
    count = 1 if smoke or trace else workloads.n_passes(workload, seconds)
    passes = workloads.passes(workload, seed, count, smoke)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(HERE, "out"))
    try:
        if workload == "experiments":
            for i, cfg in enumerate(workloads.experiment_configs(seed)):
                with open(workloads.config_path(workdir, i), "w") as fh:
                    json.dump(cfg, fh)
        base = {"root": root, "workload": workload, "seed": seed, "workdir": workdir,
                "passes": passes}
        if trace:
            main = spawn(root, {**base, "untraced_passes": 1, "traced": True}, deadline)
            blas1 = spawn(root, {**base, "untraced_passes": 0, "traced": True}, deadline,
                          {"OPENBLAS_NUM_THREADS": "1"})
            procs = [main, blas1]
            metrics = layer_metrics(main, blas1)
        else:
            setups = [spawn(root, {**base, "untraced_passes": 0, "traced": False}, deadline)
                      for _ in range(0 if smoke else N_SETUPS - 1)]
            main = spawn(root, {**base, "untraced_passes": count, "traced": False}, deadline)
            procs = [main]
            metrics, details = end_to_end_metrics(main, [p["setup_s"] for p in setups + [main]],
                                                  count)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cases = [c for p in procs for c in p["cases"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "passes": count,
        "attempted": len(cases), "failed": sum(not c["ok"] for c in cases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": main["env"],
        "cases": [{**c, "process": i} for i, p in enumerate(procs) for c in p["cases"]],
    }
    if trace:
        record["env_blas1"] = blas1["env"]
        record["by_name"] = main["trace"]["by_name"]
        record["by_name_blas1"] = blas1["trace"]["by_name"]
    else:
        record.update(details)
    return metrics, record


def end_to_end_metrics(main, setups, count):
    """Every case time is taken best-of-k: the fastest of the run's cases
    with the same label.  Slow spells on a shared machine only ever add time,
    so that minimum repeats between runs better than a mean or a median does.
    wall_s is one pass at those times; p50 and tail are over every case."""
    cases = main["cases"]
    best = {}
    for c in cases:
        best[c["label"]] = min(c["s"], best.get(c["label"], math.inf))
    times = [best[c["label"]] for c in cases]
    one_pass = [best[c["label"]] for c in cases if c["pass"] == 0]
    tail, pct, beyond = tail_latency(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(one_pass),
        "cases_per_s": len(one_pass) / sum(one_pass),
        "case_p50_s": statistics.median(times),
        "case_tail_s": tail,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    failed = sum(not c["ok"] for c in cases)
    details = {"case_tail_pct": pct, "cases_beyond_tail": beyond, "n_cases": len(cases),
               "fail_frac": failed / len(cases), "setups_s": setups, "best_s": best,
               "passes_s": [sum(c["s"] for c in cases if c["pass"] == k) for k in range(count)]}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details


def layer_metrics(main, blas1):
    def pass_s(proc, traced):
        return sum(c["s"] for c in proc["cases"] if c["traced"] == traced)

    values = {k: v for k, v in main["trace"].items() if k in PER_LAYER}
    values["dyadic.basis_first_touch_s"] = main["basis_first_touch_s"]
    values["trace.wall_s"] = pass_s(main, True)
    values["trace.overhead_s"] = pass_s(main, True) - pass_s(main, False)
    values["blas1.wall_s"] = pass_s(blas1, True)
    values["blas1.spectral.self_s"] = blas1["trace"]["spectral.self_s"]
    values["blas1.paraproducts.self_s"] = blas1["trace"]["paraproducts.self_s"]
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise BenchError(f"traced run did not produce {sorted(missing)}")
    return {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}


def print_table(workload, metrics, record):
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:28s} {value:>16.6g} {unit}")
    if not record["trace"]:
        print(f"{workload:12s} {'fail_frac':28s} {record['fail_frac']:>16.6g} ratio "
              f"({record['failed']} of {record['attempted']} cases)")
        print(f"{workload:12s} case_tail_s is p{record['case_tail_pct']} of "
              f"{record['n_cases']} cases ({record['cases_beyond_tail']} beyond it)")
    for c in record["cases"]:
        if not c["ok"]:
            print(f"{workload:12s} FAILED {c['label']}: {c['detail']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of the smallest rung; checks the harness, not the clock")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "parahaar", "__init__.py")):
        print(f"error: no src/parahaar under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    results = []
    try:
        for name in names:
            results.append(run_workload(root, name, args.seed, args.seconds,
                                        bool(args.trace), args.smoke, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (metrics, record) in zip(names, results):
        path = os.path.join(HERE, "out", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print_table(name, metrics, record)
    print("env " + json.dumps(results[0][1]["env"], sort_keys=True))
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    prefix = len(names) > 1
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {(f"{name}.{k}" if prefix else k): {"value": v, "unit": u}
                    for name, (metrics, _) in zip(names, results)
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
