"""Config-driven experiment runner, verification entry point, report writer.

`parahaar run --config cfg.json` executes one experiment deterministically
(same config and seed give byte-identical CSV/JSON), `parahaar verify
--suite NAME` runs an assertion suite against the committed calibration, and
`parahaar calibrate` re-measures the frozen constants into a new file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys

import numpy as np

from . import checks, kernels, median, shifts
from .checks import CheckRecord
from .dyadic import DILATION_BOUND, LENGTH_RATIO_BOUND, DyadicParams, build_system
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


def _finite_json(x):
    """x with every non-finite float written as the CSV writes it: "inf", "-inf", "nan"."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(float(x))
    if isinstance(x, dict):
        return {k: _finite_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_json(v) for v in x]
    return x


def _write_summary(path, experiment, seed, records, rows):
    payload = {
        "experiment": experiment,
        "seed": seed,
        "assertions": [r.as_dict() for r in records],
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(_finite_json(payload), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _experiment_theorem1(cfg, rng, outdir):
    sys_ = build_system(DyadicParams(cfg["d"], cfg["depth"], cfg["dim"]))
    rows = [{"trial": trial, "p": p, "norm": norm, "besov": besov, "ratio": norm / besov}
            for trial, p, norm, besov in checks._paraproduct_draws(
                sys_, cfg["p"], cfg["trials"], rng, cfg["blockdim"])]
    _write_csv(os.path.join(outdir, "theorem1.csv"),
               ["trial", "p", "norm", "besov", "ratio"], rows)
    ratios = [r["ratio"] for r in rows]
    return [CheckRecord("ratio-range", "two-sided-symbol-norm", True, max(ratios),
                        f"min={min(ratios)!r} mean={sum(ratios)/len(ratios)!r}")], rows


def _median_verify_sets(trials, rng):
    """The experiment's weighted point sets, drawn in order before any search."""
    sets = []
    for _ in range(trials):
        n = int(rng.integers(1, 64))
        sets.append(median.WeightedPointSet(
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            rng.uniform(0.25, 2.0, n)))
    return sets


def _experiment_median_verify(cfg, rng, outdir):
    median.stats.reset()
    rows = []
    ok = True
    for ts in checks._blocks(cfg["trials"]):
        sets = _median_verify_sets(len(ts), rng)
        for t, pts, frame in zip(ts, sets, median.complex_medians(sets)):
            masses = median.quadrant_masses(pts, frame)
            margin = float(masses.min() - pts.total / 16.0)
            ok = ok and margin >= -1e-12 * max(1.0, pts.total)
            rows.append({"set": t, "n": pts.z.size, "margin": margin})
    _write_csv(os.path.join(outdir, "median.csv"), ["set", "n", "margin"], rows)
    return [
        CheckRecord("sixteenth-mass", "closed-quadrant-mass", ok,
                    min(r["margin"] for r in rows)),
        CheckRecord("fallbacks", "constructive-path-coverage", median.stats.fallbacks == 0,
                    float(median.stats.fallbacks), f"boundary={median.stats.boundary_cases}"),
    ], rows


def _experiment_shift_growth(cfg, rng, outdir):
    sys_ = build_system(DyadicParams(2, cfg["depth"], cfg["dim"]))
    b = random_symbol(sys_, rng)
    (i_lo, i_hi), (j_lo, j_hi) = cfg["i_range"], cfg["j_range"]
    ij = [(i, j) for i in range(i_lo, i_hi + 1) for j in range(j_lo, j_hi + 1)]
    rows = shifts.commutator_growth_sweep(sys_, b, cfg["p"], ij, list(range(cfg["trials"])))
    _write_csv(os.path.join(outdir, "shift_growth.csv"),
               ["i", "j", "seed", "p", "norm", "besov", "ratio"], rows)
    worst = max(r["ratio"] / ((r["i"] ** r["p"] + r["j"] ** r["p"] + 1) ** (1 / r["p"]))
                for r in rows)
    return [CheckRecord("normalized-growth", "complexity-normalized-ratio", True, worst)], rows


def _experiment_covering(cfg, rng, outdir):
    rows = []
    ok = True
    for t, (lo, side, q) in enumerate(checks._covering_draws(cfg["dim"], cfg["trials"], rng)):
        ratio = float(q.side) / side
        ok = ok and ratio <= LENGTH_RATIO_BOUND + 1e-12
        rows.append({"cube": t, "side": side, "q_side": float(q.side),
                     "grid": q.grid, "ratio": ratio})
    _write_csv(os.path.join(outdir, "covering.csv"),
               ["cube", "side", "q_side", "grid", "ratio"], rows)
    return [CheckRecord("length-ratio", "shifted-grid-covering", ok,
                        max(r["ratio"] for r in rows),
                        f"dilation bound {DILATION_BOUND}")], rows


def _experiment_weak_factorization(cfg, rng, outdir):
    T = kernels.discretize(kernels.hilbert_kernel(), cfg["cells"], refinement=2)
    rows = [{"A": A, "residual": out["residual"], "remainder_ratio": out["remainder_ratio"],
             "h_ratio": out["h_ratio"]}
            for A, out in zip(cfg["A_values"], checks._two_cube_sweep(T, cfg["A_values"]))]
    _write_csv(os.path.join(outdir, "weak_factorization.csv"),
               ["A", "residual", "remainder_ratio", "h_ratio"], rows)
    dec = all(rows[i]["remainder_ratio"] > rows[i + 1]["remainder_ratio"]
              for i in range(len(rows) - 1))
    return [CheckRecord("remainder-decay", "two-cube-reconstruction", dec,
                        rows[-1]["remainder_ratio"])], rows


# Each experiment: its function and the config keys it reads with their
# defaults, besides "experiment", "seed" and "out".  `_bad_value` holds every
# config value to the type of its default.
EXPERIMENTS = {
    "theorem1": (_experiment_theorem1,
                 {"d": 2, "depth": 5, "dim": 1, "p": [2.0], "blockdim": 1, "trials": 200}),
    "median-verify": (_experiment_median_verify, {"trials": 1000}),
    "shift-growth": (_experiment_shift_growth,
                     {"depth": 6, "dim": 1, "p": [2.0], "i_range": [0, 3], "j_range": [0, 3],
                      "trials": 3}),
    "covering": (_experiment_covering, {"dim": 1, "trials": 1000}),
    "weak-factorization": (_experiment_weak_factorization,
                           {"cells": 256, "A_values": [8, 16, 32]}),
}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _bad_value(key, value, default):
    """Why `value` cannot stand in for `default` under `key`; None if it can."""
    if _is_int(default):
        least = 2 if key == "d" else 1
        return None if _is_int(value) and value >= least else f"must be an integer >= {least}"
    if not isinstance(value, list) or not value:
        return "must be a nonempty list"
    if key.endswith("_range"):
        ok = len(value) == 2 and all(map(_is_int, value)) and 0 <= value[0] <= value[1]
        return None if ok else "must be [lo, hi] with integers 0 <= lo <= hi"
    if _is_int(default[0]):
        ok = all(_is_int(x) and x >= 1 for x in value)
        return None if ok else "must list integers >= 1"
    ok = all(isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0 for x in value)
    return None if ok else "must list numbers > 0 (Infinity allowed)"


def _config_error(cfg, defaults):
    """'<key>' and why its value is rejected, for the first bad key; None if none is."""
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        return "'seed' must be an integer >= 0"
    if not isinstance(cfg.get("out", "."), str):
        return "'out' must be a string"
    for key, default in defaults.items():
        why = _bad_value(key, cfg[key], default)
        if why:
            return f"{key!r} {why}, got {json.dumps(cfg[key])}"
    if cfg.get("dim", 1) > 1 and cfg.get("d", 2) != 2:
        return "'d' must be 2 when dim > 1"
    if "i_range" in cfg and max(cfg["i_range"][1], cfg["j_range"][1]) >= cfg["depth"]:
        return "'depth' must exceed every i and j of i_range and j_range"
    # _two_cube_sweep's near cube is cells 8..11 and its far cube 4 A cells further
    if "A_values" in cfg and 12 + 4 * max(cfg["A_values"]) > cfg["cells"]:
        return "'A_values' must keep the far cube inside the grid: 12 + 4 max(A) <= cells"
    return None


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: config file cannot be read: {exc}", file=_sys.stderr)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: config file is not JSON: {exc}", file=_sys.stderr)
        return 1
    name = cfg.get("experiment") if isinstance(cfg, dict) else None
    if name not in EXPERIMENTS:
        print(f"error: unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}",
              file=_sys.stderr)
        return 1
    experiment, defaults = EXPERIMENTS[name]
    accepted = set(defaults) | {"experiment", "seed", "out"}
    unknown = sorted(set(cfg) - accepted)
    if unknown:
        print(f"error: unknown config key {unknown[0]!r} for experiment {name!r}; "
              f"accepted keys: {', '.join(sorted(accepted))}", file=_sys.stderr)
        return 1
    if args.seed is not None:
        cfg["seed"] = args.seed
    if "seed" not in cfg:
        print("error: a seed is mandatory (config key 'seed' or --seed)", file=_sys.stderr)
        return 1
    cfg = {**defaults, **cfg}
    error = _config_error(cfg, defaults)
    if error:
        print(f"error: config key {error}", file=_sys.stderr)
        return 1
    outdir = args.out or cfg.get("out", ".")
    os.makedirs(outdir, exist_ok=True)
    records, rows = experiment(cfg, np.random.default_rng(cfg["seed"]), outdir)
    _write_summary(os.path.join(outdir, "summary.json"), name, cfg["seed"], records, rows)
    for r in records:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.name} ({r.paper_ref}) worst={r.worst!r}")
    return 0 if all(r.passed for r in records) else 1


def cmd_verify(args) -> int:
    try:
        calib = checks.load_calibration(args.calibration)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
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
