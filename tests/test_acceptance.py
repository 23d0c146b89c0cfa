"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Exact identities run at 1e-12 (scaled), explicit-constant inequalities over
200 random symbols at -1e-10 slack, equivalence ratios against the frozen
calibration file, and the randomized geometry suites at their stated sizes.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math

from parahaar import checks, norms
from parahaar.dyadic import DyadicParams, build_system
from parahaar.paraproducts import random_symbol


def report(criterion, records):
    ok = all(r.passed for r in records)
    for r in records:
        flag = "PASS" if r.passed else "FAIL"
        print(f"  [{flag}] {r.name:40s} worst={r.worst:+.3e}")
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}")
    return ok


def test_criterion_1_exact_identities():
    print("\ncriterion 1: exact identities at 1e-12")
    assert report(1, checks.exact_identity_suite())


def test_criterion_2_explicit_constants():
    print("\ncriterion 2: explicit-constant inequalities, 200 symbols each")
    assert report(2, checks.explicit_constant_suite())


def test_criterion_3_p2_relation(rng):
    print("\ncriterion 3: p=2 exact square-function relation")
    worst = 0.0
    for d in (2, 3):
        sys = build_system(DyadicParams(d, 3))
        for _ in range(50):
            b = random_symbol(sys, rng)
            worst = max(worst, abs(norms.besov_diff(sys, b, 2)
                                   - math.sqrt(d) * norms.besov_haar(sys, b, 2)))
    print(f"  worst |diff - sqrt(d) haar| = {worst:.3e}")
    print(f"[{'PASS' if worst < 1e-12 * 100 else 'FAIL'}] criterion 3")
    assert worst < 1e-12 * 100  # scaled by typical norm magnitude ~40


def test_criterion_4_calibrated_ratios():
    print("\ncriterion 4: calibrated bounded-ratio suites")
    calib = checks.load_calibration()
    assert report(4, checks.calibrated_suite(calib))


def test_criterion_5_transference():
    print("\ncriterion 5: transference exactness")
    assert report(5, checks.transference_suite())


def test_criterion_6_median():
    print("\ncriterion 6: complex median, 1000 sets / 500 cube pairs")
    assert report(6, checks.median_suite())


def test_criterion_7_covering():
    print("\ncriterion 7: adjacent-grid covering, 1000 cubes per dimension")
    assert report(7, checks.covering_suite())


def test_criterion_8_kernels():
    print("\ncriterion 8: kernel probe and weak factorization")
    assert report(8, checks.kernel_suite())


def test_criterion_9_determinism(tmp_path):
    print("\ncriterion 9: byte-identical reruns")
    import parahaar.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "d": 2, "depth": 4,
                               "p": [0.5, 2.0], "trials": 40, "seed": 321}))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "theorem1.csv").read_bytes()
                    + (out / "summary.json").read_bytes())
    same = outs[0] == outs[1]
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"experiment": "shift-growth", "depth": 5,
                                "i_range": [0, 1], "j_range": [0, 1],
                                "trials": 2, "seed": 9, "p": [2.0]}))
    more = []
    for tag in ("c", "d"):
        out = tmp_path / tag
        assert cli.main(["run", "--config", str(cfg2), "--out", str(out)]) == 0
        more.append((out / "shift_growth.csv").read_bytes())
    same = same and more[0] == more[1]
    print(f"[{'PASS' if same else 'FAIL'}] criterion 9")
    assert same
