"""The benchmark's workloads: their cases, how a case runs, how it is checked.

`passes` runs in the generating process and needs neither numpy nor parahaar;
`setup`, `run_case` and `check_case` run in the workload process, which has
imported parahaar during `setup`.  Only `run_case` is timed.

A pass is one case of every rung (deep-window), every suite (verify-all) or
two runs of every config (experiments).  Cases that do the same work share a
label: a rung, a suite, or a config's experiment name.  A run does a whole number of passes,
`seconds / PASS_S` rounded, so case counts, tail percentiles and traced counts
do not depend on how fast the machine happened to be.
"""

from __future__ import annotations

import math
import os
import random
import shutil

EXACT_TOL = 1e-12

# (name, d, depth, dim, frontier); frontier rungs assemble only the paraproduct
RUNGS = (
    ("d2-depth10", 2, 10, 1, False),
    ("d3-depth6", 3, 6, 1, False),
    ("dim2-depth5", 2, 5, 2, False),
    ("d2-depth11", 2, 11, 1, True),
)
SCHATTEN_P = (1.0, 2.0, math.inf)
BESOV_P = 2.0

SUITES = ("exact-identities", "explicit-constants", "transference", "median",
          "covering", "kernels", "shifts", "calibrated")

WORKLOADS = ("deep-window", "verify-all", "experiments")

# nominal seconds per pass; it only turns --seconds into a pass count.  One
# pass takes about 19.5, 6.5 and 6.2 s on the reference machine (2 cores,
# numpy 2.4.6, OpenBLAS 0.3.31).  The last two are rounded up so that 30 s
# gives 4 passes, not 5: with 5 or 10 like cases per label, the tail rank
# n - 10 would fall on the edge between two labels instead of inside one.
PASS_S = {"deep-window": 19.5, "verify-all": 7.5, "experiments": 7.5}

# the smallest rung of each workload, for the smoke mode
SMOKE = {"deep-window": "d3-depth6", "verify-all": "kernels", "experiments": "covering"}


def n_passes(workload, seconds):
    return max(1, round(seconds / PASS_S[workload]))


def experiment_configs(seed):
    rng = random.Random(seed)
    return [
        {"experiment": "median-verify", "trials": 2000, "seed": rng.randrange(2**31)},
        {"experiment": "weak-factorization", "cells": 1024, "seed": rng.randrange(2**31)},
        {"experiment": "shift-growth", "depth": 7, "p": [1.0, 2.0],
         "seed": rng.randrange(2**31)},
        {"experiment": "covering", "dim": 2, "seed": rng.randrange(2**31)},
        {"experiment": "theorem1", "depth": 7, "seed": rng.randrange(2**31)},
    ]


def passes(workload, seed, count, smoke=False):
    """Case lists of `count` passes; every case is a JSON-ready dict."""
    out = []
    for k in range(count):
        if workload == "deep-window":
            cases = [{"label": name, "rung": name, "trial": k}
                     for (name, *_) in RUNGS if not smoke or name == SMOKE[workload]]
        elif workload == "verify-all":
            cases = [{"label": name, "suite": name}
                     for name in SUITES if not smoke or name == SMOKE[workload]]
        elif workload == "experiments":
            cases = [{"label": cfg["experiment"], "config": i, "run": r}
                     for i, cfg in enumerate(experiment_configs(seed))
                     if not smoke or cfg["experiment"] == SMOKE[workload]
                     for r in range(2)]
        else:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        out.append(cases)
    return out


# -- workload process -------------------------------------------------------


class State:
    """What set-up leaves for the cases of one workload process."""

    def __init__(self, spec):
        self.spec = spec
        self.systems = {}
        self.calib = None
        self.outputs = {}       # config index -> {file name: bytes} of its first run
        self.bytes_written = 0
        self.basis_first_touch_s = 0.0


def setup(spec, clock):
    """Import parahaar and build what the workload's cases share."""
    import numpy as np

    from parahaar import checks, dyadic

    st = State(spec)
    workload = spec["workload"]
    if workload == "deep-window":
        wanted = {c["rung"] for cases in spec["passes"] for c in cases}
        for name, d, depth, dim, _ in RUNGS:
            if name not in wanted:
                continue
            st.systems[name] = dyadic.build_system(dyadic.DyadicParams(d, depth, dim))
        t = clock()
        for sys_ in st.systems.values():
            sys_.basis_matrix
            sys_.cube_average_matrix
        st.basis_first_touch_s = clock() - t
    elif workload == "verify-all":
        st.calib = checks.load_calibration()
    # start the BLAS thread pool here, not in the first timed case
    warm = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.svd(warm + 1j * warm.T, compute_uv=False)
    return st


def prepare_case(st, case):
    """Untimed inputs of one case: the seeded symbol of a deep-window trial."""
    if st.spec["workload"] != "deep-window":
        return None
    import numpy as np

    from parahaar import paraproducts

    idx = [r[0] for r in RUNGS].index(case["rung"])
    rng = np.random.default_rng([st.spec["seed"], idx, case["trial"]])
    return paraproducts.random_symbol(st.systems[case["rung"]], rng)


def run_case(st, case, symbol):
    """The timed part of one case; returns what `check_case` inspects."""
    workload = st.spec["workload"]
    if workload == "deep-window":
        return _run_rung(st, case, symbol)
    if workload == "verify-all":
        from parahaar import checks

        return checks.run_suite(case["suite"], st.calib)
    import contextlib

    from parahaar import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(["run", "--config", config_path(st.spec["workdir"], case["config"]),
                         "--out", _case_dir(st, case)])


def _run_rung(st, case, b):
    from parahaar import norms, paraproducts, spectral

    frontier = dict((r[0], r[4]) for r in RUNGS)[case["rung"]]
    sys_ = st.systems[case["rung"]]
    out = {}
    if frontier:
        out["pi"] = paraproducts.paraproduct(sys_, b)
    else:
        out["bundle"] = paraproducts.decompose(sys_, b)
        out["pi"] = out["bundle"].pi
    out["schatten"] = [spectral.schatten_norm(out["pi"], p) for p in SCHATTEN_P]
    if not frontier:
        out["besov"] = [f(sys_, b, BESOV_P)
                        for f in (norms.besov_haar, norms.besov_diff, norms.besov_osc)]
    return out


def check_case(st, case, out):
    """(passed, detail) for the outputs of one case; not timed."""
    workload = st.spec["workload"]
    if workload == "deep-window":
        return _check_rung(out)
    if workload == "verify-all":
        bad = [r.name for r in out if not r.passed]
        return not bad and bool(out), f"{len(out)} records" + (f", failed: {bad}" if bad else "")
    return _check_experiment(st, case, out)


def _check_rung(out):
    import numpy as np

    pi = out["pi"]
    detail = []
    ok = True
    if "bundle" in out:
        bun = out["bundle"]
        scale = float(np.abs(bun.mult).max())
        resid = float(np.abs(bun.mult - bun.pi - bun.lam - bun.r - bun.coarse).max()) / scale
        ok = ok and resid <= EXACT_TOL
        detail.append(f"decompose residual {resid:.3g}")
        ok = ok and all(np.isfinite(v) and v > 0 for v in out["besov"])
    frob = float(np.linalg.norm(pi))
    s2 = out["schatten"][SCHATTEN_P.index(2.0)]
    resid = abs(s2 - frob) / frob
    ok = ok and resid <= EXACT_TOL
    detail.append(f"S2-Frobenius residual {resid:.3g}")
    return bool(ok), "; ".join(detail)


def _case_dir(st, case):
    return os.path.join(st.spec["workdir"], f"out-{case['label']}-{case['run']}")


def config_path(workdir, index):
    return os.path.join(workdir, f"config-{index}.json")


def _check_experiment(st, case, rc):
    outdir = _case_dir(st, case)
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    shutil.rmtree(outdir)
    st.bytes_written += sum(len(v) for v in files.values())
    first = st.outputs.setdefault(case["config"], files)
    if rc != 0:
        return False, f"exit code {rc}"
    if "summary.json" not in files or len(files) < 2:
        return False, f"missing outputs: {sorted(files)}"
    if files != first:
        return False, "outputs differ from the first run of this config"
    return True, f"{len(files)} files, {sum(len(v) for v in files.values())} bytes"
