"""Config-driven experiment runner, verification entry point, report writer.

`parahaar run --config cfg.json` executes one experiment deterministically
(same config and seed give byte-identical CSV/JSON), `parahaar verify
--suite NAME` runs an assertion suite against the committed calibration, and
`parahaar calibrate` re-measures the frozen constants into a new file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

import numpy as np

from . import checks, kernels, median, shifts
from .dyadic import DyadicParams, build_system, cover_cube, make_adjacent_family
from .paraproducts import random_symbol


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in header) + "\n")


def _write_summary(path, experiment, seed, assertions, rows):
    payload = {
        "experiment": experiment,
        "seed": seed,
        "assertions": [a.as_dict() if hasattr(a, "as_dict") else a for a in assertions],
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _experiment_theorem1(cfg, rng, outdir):
    sys_ = build_system(DyadicParams(cfg.get("d", 2), cfg.get("depth", 5), cfg.get("dim", 1)))
    p_values = cfg.get("p", [2.0])
    m = cfg.get("blockdim", 1)
    rows = [{"trial": trial, "p": p, "norm": norm, "besov": besov, "ratio": norm / besov}
            for trial, p, norm, besov in checks._paraproduct_draws(
                sys_, p_values, cfg.get("trials", 200), rng, m)]
    _write_csv(os.path.join(outdir, "theorem1.csv"),
               ["trial", "p", "norm", "besov", "ratio"], rows)
    ratios = [r["ratio"] for r in rows]
    summary = [{"name": "ratio-range", "paper_ref": "two-sided-symbol-norm",
                "pass": True, "worst": max(ratios),
                "detail": f"min={min(ratios)!r} mean={sum(ratios)/len(ratios)!r}"}]
    return summary, rows


def _experiment_median_verify(cfg, rng, outdir):
    n_sets = cfg.get("trials", 1000)
    median.stats.reset()
    rows = []
    ok = True
    for t in range(n_sets):
        n = int(rng.integers(1, 64))
        pts = median.WeightedPointSet(
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            rng.uniform(0.25, 2.0, n))
        frame = median.complex_median(pts)
        masses = median.quadrant_masses(pts, frame)
        margin = float(masses.min() - pts.total / 16.0)
        ok = ok and margin >= -1e-12 * max(1.0, pts.total)
        rows.append({"set": t, "n": n, "margin": margin})
    _write_csv(os.path.join(outdir, "median.csv"), ["set", "n", "margin"], rows)
    summary = [
        {"name": "sixteenth-mass", "paper_ref": "closed-quadrant-mass",
         "pass": ok, "worst": min(r["margin"] for r in rows), "detail": ""},
        {"name": "fallbacks", "paper_ref": "constructive-path-coverage",
         "pass": median.stats.fallbacks == 0, "worst": float(median.stats.fallbacks),
         "detail": f"boundary={median.stats.boundary_cases}"},
    ]
    return summary, rows


def _experiment_shift_growth(cfg, rng, outdir):
    sys_ = build_system(DyadicParams(2, cfg.get("depth", 6), cfg.get("dim", 1)))
    b = random_symbol(sys_, rng)
    i_range = cfg.get("i_range", [0, 3])
    j_range = cfg.get("j_range", [0, 3])
    ij = [(i, j) for i in range(i_range[0], i_range[1] + 1)
          for j in range(j_range[0], j_range[1] + 1)]
    seeds = list(range(cfg.get("trials", 3)))
    rows = shifts.commutator_growth_sweep(sys_, b, cfg.get("p", [2.0]), ij, seeds)
    _write_csv(os.path.join(outdir, "shift_growth.csv"),
               ["i", "j", "seed", "p", "norm", "besov", "ratio"], rows)
    worst = max(r["ratio"] / ((r["i"] ** r["p"] + r["j"] ** r["p"] + 1) ** (1 / r["p"]))
                for r in rows)
    summary = [{"name": "normalized-growth", "paper_ref": "complexity-normalized-ratio",
                "pass": True, "worst": worst, "detail": ""}]
    return summary, rows


def _experiment_covering(cfg, rng, outdir):
    dim = cfg.get("dim", 1)
    fam = make_adjacent_family(dim)
    rows = []
    ok = True
    from .dyadic import LENGTH_RATIO_BOUND, dilation_bound

    for t in range(cfg.get("trials", 1000)):
        side = float(rng.uniform(0.001, 0.3))
        lo = [float(rng.uniform(0, 1 - side)) for _ in range(dim)]
        q = cover_cube(lo, side, fam)
        ratio = float(q.side) / side
        ok = ok and ratio <= LENGTH_RATIO_BOUND + 1e-12
        rows.append({"cube": t, "side": side, "q_side": float(q.side),
                     "grid": q.grid, "ratio": ratio})
    _write_csv(os.path.join(outdir, "covering.csv"),
               ["cube", "side", "q_side", "grid", "ratio"], rows)
    summary = [{"name": "length-ratio", "paper_ref": "shifted-grid-covering",
                "pass": ok, "worst": max(r["ratio"] for r in rows),
                "detail": f"dilation bound {dilation_bound(dim)}"}]
    return summary, rows


def _experiment_weak_factorization(cfg, rng, outdir):
    K = kernels.kernel_by_name(cfg.get("kernel", "hilbert"),
                               **cfg.get("kernel_params", {}))
    T = kernels.discretize(K, cfg.get("cells", 256), refinement=2)
    q_cells = np.arange(8, 12)
    f = np.zeros(T.n_cells, dtype=complex)
    f[q_cells[:2]] = 1.0
    f[q_cells[2:]] = -1.0
    rows = []
    for A in cfg.get("A_values", [8, 16, 32]):
        out = kernels.weak_factorization(f, q_cells, q_cells + 4 * A, T)
        rows.append({"A": A, "residual": out["residual"],
                     "remainder_ratio": out["remainder_ratio"],
                     "h_ratio": out["h_ratio"]})
    _write_csv(os.path.join(outdir, "weak_factorization.csv"),
               ["A", "residual", "remainder_ratio", "h_ratio"], rows)
    dec = all(rows[i]["remainder_ratio"] > rows[i + 1]["remainder_ratio"]
              for i in range(len(rows) - 1))
    summary = [{"name": "remainder-decay", "paper_ref": "two-cube-reconstruction",
                "pass": dec, "worst": rows[-1]["remainder_ratio"], "detail": ""}]
    return summary, rows


EXPERIMENTS = {
    "theorem1": _experiment_theorem1,
    "median-verify": _experiment_median_verify,
    "shift-growth": _experiment_shift_growth,
    "covering": _experiment_covering,
    "weak-factorization": _experiment_weak_factorization,
}

# the config keys each experiment reads, besides "experiment", "seed" and "out"
CONFIG_KEYS = {
    "theorem1": {"d", "depth", "dim", "p", "blockdim", "trials"},
    "median-verify": {"trials"},
    "shift-growth": {"depth", "dim", "p", "i_range", "j_range", "trials"},
    "covering": {"dim", "trials"},
    "weak-factorization": {"kernel", "kernel_params", "cells", "A_values"},
}


def cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        print(f"error: unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}",
              file=_sys.stderr)
        return 1
    accepted = CONFIG_KEYS[name] | {"experiment", "seed", "out"}
    unknown = sorted(set(cfg) - accepted)
    if unknown:
        print(f"error: unknown config key {unknown[0]!r} for experiment {name!r}; "
              f"accepted keys: {', '.join(sorted(accepted))}", file=_sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        print("error: a seed is mandatory (config key 'seed' or --seed)", file=_sys.stderr)
        return 1
    outdir = args.out or cfg.get("out", ".")
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(int(seed))
    summary, rows = EXPERIMENTS[name](cfg, rng, outdir)
    _write_summary(os.path.join(outdir, "summary.json"), name, int(seed), summary, rows)
    bad = [a for a in summary if not a["pass"]]
    for a in summary:
        flag = "PASS" if a["pass"] else "FAIL"
        print(f"[{flag}] {a['name']} ({a['paper_ref']}) worst={a['worst']!r}")
    return 1 if bad else 0


def cmd_verify(args) -> int:
    calib = checks.load_calibration(args.calibration)
    records = checks.run_suite(args.suite, calib)
    for r in records:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.name} ({r.paper_ref}) worst={r.worst!r} {r.detail}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_summary(os.path.join(args.out, "verify.json"),
                       f"verify:{args.suite}", 0, records, [])
    failed = [r for r in records if not r.passed]
    if failed:
        print(f"{len(failed)} assertion(s) failed: "
              + ", ".join(f"{r.name} ({r.paper_ref})" for r in failed))
        return 1
    print(f"all {len(records)} assertions passed")
    return 0


def cmd_calibrate(args) -> int:
    if args.trials < 2:
        print("error: --trials must be at least 2", file=_sys.stderr)
        return 1
    calib = checks.calibrate_all(seed=args.seed if args.seed is not None else 20240901,
                                 trials=args.trials,
                                 progress=lambda s: print(f"  {s}"))
    with open(args.out, "w") as fh:
        json.dump(calib, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="parahaar")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run an assertion suite")
    p_ver.add_argument("--suite", required=True,
                       help="exact-identities | explicit-constants | transference | "
                            "median | covering | kernels | shifts | calibrated | all")
    p_ver.add_argument("--calibration", default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="re-measure the frozen constants")
    p_cal.add_argument("--out", default="calibration.json")
    p_cal.add_argument("--seed", type=int, default=None)
    p_cal.add_argument("--trials", type=int, default=200)
    p_cal.set_defaults(func=cmd_calibrate)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
