"""One workload process: set up, run passes of cases, print one JSON result.

Started by run.py with a JSON spec on stdin:
  root, workload, seed, workdir  where to find src/ and what to run;
  passes            case lists per pass (see workloads.passes);
  untraced_passes   how many of them to run untraced (0: set-up only);
  traced            then run pass 0 once more with layer spans on.
The result is the last line of stdout; the program's own prints are dropped.
"""

import json
import os
import resource
import sys
import time
import traceback

import workloads


def main():
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import parahaar

    if os.path.dirname(os.path.dirname(os.path.abspath(parahaar.__file__))) != os.path.abspath(src):
        raise SystemExit(f"parahaar was imported from {parahaar.__file__}, not from {src}")
    st = workloads.setup(spec, time.perf_counter)
    setup_s = time.perf_counter() - t0

    cases = []
    for k in range(spec["untraced_passes"]):
        cases += run_pass(st, spec["passes"][k], k, None)
    trace = None
    if spec["traced"]:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
        written = st.bytes_written
        cases += run_pass(st, spec["passes"][0], 0, tr)
        trace = tr.report()
        trace["cli.bytes_written"] = st.bytes_written - written
        trace["by_name"] = {name: {"self_s": s, "calls": n}
                            for name, (s, n) in sorted(tr.by_name.items(),
                                                       key=lambda kv: -kv[1][0])}
    result = {
        "setup_s": setup_s,
        "basis_first_touch_s": st.basis_first_touch_s,
        "cases": cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
        "env": environment(),
    }
    print(json.dumps(result))


def run_pass(st, pass_cases, k, tr):
    from parahaar import median

    out = []
    for case in pass_cases:
        inputs = workloads.prepare_case(st, case)
        # the program zeroes median.stats inside some cases, so count per case
        median.stats.reset()
        probe0 = tr.probe_s if tr else 0.0
        if tr:
            tr.start_case()
        t = time.perf_counter()
        try:
            result = workloads.run_case(st, case, inputs)
            error = None
        except Exception:
            error = traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t
        if tr:
            tr.end_case(median.stats)
            elapsed -= tr.probe_s - probe0
        if error is None:
            ok, detail = workloads.check_case(st, case, result)
        else:
            ok, detail = False, error
        out.append({"pass": k, "label": case["label"], "s": elapsed, "ok": ok,
                    "detail": detail, "traced": tr is not None})
    return out


def environment():
    import ctypes
    import importlib.metadata
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(ctypes),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _blas_threads(ctypes):
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    main()
