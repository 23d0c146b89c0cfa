import json
import subprocess
import sys

import numpy as np
import pytest

import parahaar.checks as checks
import parahaar.cli as cli
from parahaar.dyadic import DyadicParams, build_system
from parahaar.paraproducts import paraproduct, random_symbol
from parahaar.spectral import schatten_norm


def run_cli(args):
    return cli.main(args)


def test_unknown_experiment(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "nope", "seed": 1}))
    assert run_cli(["run", "--config", str(cfg)]) == 1


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "dpeth": 3, "trials": 2, "seed": 1}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'dpeth'" in err and "depth" in err
    assert not (tmp_path / "o").exists()


# the key sets of the shipped configs (README and the benchmark's five), at small sizes
@pytest.mark.parametrize("cfg", [
    {"experiment": "theorem1", "d": 2, "depth": 3, "p": [0.5, 2.0], "trials": 2},
    {"experiment": "theorem1", "depth": 3},
    {"experiment": "median-verify", "trials": 20},
    {"experiment": "weak-factorization", "cells": 256},
    {"experiment": "shift-growth", "depth": 4, "p": [1.0, 2.0]},
    {"experiment": "covering", "dim": 2},
], ids=["theorem1-readme", "theorem1", "median-verify", "weak-factorization",
        "shift-growth", "covering"])
def test_shipped_config_keys_accepted(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "seed": 4, "out": str(tmp_path / "o")}))
    assert run_cli(["run", "--config", str(path)]) == 0
    assert (tmp_path / "o" / "summary.json").exists()


def test_seed_mandatory(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1"}))
    assert run_cli(["run", "--config", str(cfg)]) == 1


def test_run_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "d": 2, "depth": 4,
                               "p": [1.0, 2.0], "trials": 20, "seed": 11}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run_cli(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "theorem1.csv").read_bytes() == (out_b / "theorem1.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    payload = json.loads((out_a / "summary.json").read_text())
    assert payload["experiment"] == "theorem1"
    assert {"name", "paper_ref", "pass", "worst"} <= set(payload["assertions"][0])


def test_theorem1_rows_are_the_paraproduct_sampler(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "d": 3, "depth": 3,
                               "p": [0.5, 2.0], "trials": 4, "seed": 21}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "summary.json").read_text())["rows"]
    ratios = checks._paraproduct_trials(3, 3, (0.5, 2.0), 4, np.random.default_rng(21))
    assert [r["ratio"] for r in rows if r["p"] == 0.5] == ratios[0.5]
    assert [r["ratio"] for r in rows if r["p"] == 2.0] == ratios[2.0]


def test_theorem1_inf_rows_are_the_operator_norm(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "d": 2, "depth": 4,
                               "p": [2.0, float("inf")], "trials": 3, "seed": 1}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "summary.json").read_text())["rows"]
    sys_ = build_system(DyadicParams(2, 4))
    rng = np.random.default_rng(1)
    want = [schatten_norm(paraproduct(sys_, random_symbol(sys_, rng)), np.inf)
            for _ in range(3)]
    # the rows come from `paraproduct_core`, the dense operator's spectrum by
    # another route: equal within the tolerance model, not bit for bit
    got = [r["norm"] for r in rows if float(r["p"]) == np.inf]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= checks.model_bound(sys_.dim_basis, w)
    assert want[0] == pytest.approx(9.41, abs=0.005)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_is_strict_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "depth": 3, "trials": 1,
                               "p": [2.0, float("inf")], "seed": 1}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_reject_constant)
    # non-finite floats are written as the CSV writes them
    assert [r["p"] for r in summary["rows"]] == [2.0, "inf"]
    csv_p = [line.split(",")[1] for line in (tmp_path / "theorem1.csv").read_text().splitlines()]
    assert csv_p == ["p", "2.0", "inf"]


def _wf(**kw):
    return {"experiment": "weak-factorization", **kw}


@pytest.mark.parametrize("cfg,key", [
    ({"experiment": "theorem1", "p": 2.0}, "p"),
    ({"experiment": "theorem1", "p": ["2"]}, "p"),
    ({"experiment": "theorem1", "p": [0.0]}, "p"),
    ({"experiment": "theorem1", "p": []}, "p"),
    ({"experiment": "theorem1", "p": [True]}, "p"),
    ({"experiment": "theorem1", "trials": 0}, "trials"),
    ({"experiment": "median-verify", "trials": 0}, "trials"),
    ({"experiment": "shift-growth", "trials": 0}, "trials"),
    ({"experiment": "covering", "trials": 0}, "trials"),
    ({"experiment": "covering", "trials": True}, "trials"),
    ({"experiment": "covering", "dim": 1.0}, "dim"),
    ({"experiment": "theorem1", "d": 1}, "d"),
    ({"experiment": "theorem1", "d": 3, "dim": 2}, "d"),
    ({"experiment": "theorem1", "blockdim": "2"}, "blockdim"),
    ({"experiment": "shift-growth", "i_range": [2, 1]}, "i_range"),
    ({"experiment": "shift-growth", "j_range": [-1, 1]}, "j_range"),
    ({"experiment": "shift-growth", "i_range": [0, 1, 2]}, "i_range"),
    ({"experiment": "shift-growth", "depth": 3}, "depth"),
    (_wf(A_values=[]), "A_values"),
    (_wf(A_values=[8.5]), "A_values"),
    (_wf(cells=8), "A_values"),
    (_wf(cells=256, A_values=[64]), "A_values"),
    ({"experiment": "covering", "seed": 1.5}, "seed"),
    ({"experiment": "covering", "seed": -1}, "seed"),
    ({"experiment": "covering", "out": 5}, "out"),
])
def test_malformed_config_rejected(tmp_path, capsys, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "out": str(tmp_path / "o"), **cfg}))
    assert run_cli(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config key {key!r} ")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_run_median_experiment(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "median-verify", "trials": 60, "seed": 3}))
    out = tmp_path / "m"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    byname = {a["name"]: a for a in payload["assertions"]}
    assert byname["fallbacks"]["pass"] and byname["fallbacks"]["worst"] == 0.0


def test_run_shift_growth(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "shift-growth", "depth": 4,
                               "i_range": [0, 1], "j_range": [0, 1],
                               "trials": 2, "seed": 5, "p": [2.0]}))
    out = tmp_path / "s"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "shift_growth.csv").read_text().splitlines()[0]
    assert header == "i,j,seed,p,norm,besov,ratio"


def test_verify_unknown_suite():
    with pytest.raises(KeyError):
        checks.run_suite("bogus")


def test_verify_cli_rejects_an_unknown_suite_before_reading_a_calibration(monkeypatch, capsys):
    loaded = []
    monkeypatch.setattr(checks, "load_calibration", lambda *args: loaded.append(args))
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "bogus"])
    assert exc.value.code == 2 and loaded == []
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(f"'{name}'" in err for name in [*checks.SUITES, "all"])


@pytest.mark.parametrize("name", ["calibrated", "all"])
def test_calibrated_suites_refuse_a_missing_calibration_before_measuring(monkeypatch, name):
    measured = []
    monkeypatch.setattr(checks, "_measure", lambda *args, **kwargs: measured.append(args))
    with pytest.raises(ValueError, match="needs a calibration"):
        checks.run_suite(name)
    assert measured == []


@pytest.mark.parametrize("suite", ["shifts", "exact-identities"])
def test_verify_suite_cli(tmp_path, suite):
    assert run_cli(["verify", "--suite", suite, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert all(a["pass"] for a in payload["assertions"])


def test_verify_refuses_an_output_file_before_running(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(checks, "run_suite", lambda *args: calls.append(args))
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert run_cli(["verify", "--suite", "all", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert calls == [] and out.read_text() == "kept\n"


def test_run_refuses_an_output_file_before_running(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setitem(cli.EXPERIMENTS, "covering",
                        (lambda *args: calls.append(args), cli.EXPERIMENTS["covering"][1]))
    cfg, out = tmp_path / "cfg.json", tmp_path / "taken"
    cfg.write_text(json.dumps({"experiment": "covering", "seed": 1, "trials": 3}))
    out.write_text("kept\n")
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert calls == [] and out.read_text() == "kept\n"


def test_verify_detects_corruption(monkeypatch, capsys):
    # a corrupted wavelet phase must fail the product-rule assertion by name
    import parahaar.checks as chk
    from parahaar.dyadic import FiniteDyadicSystem

    orig = FiniteDyadicSystem.haar_values
    monkeypatch.setattr(FiniteDyadicSystem, "haar_values",
                        lambda self, h: orig(self, h) * np.exp(0.1j))
    rec = chk.check_product_rule(np.random.default_rng(0))
    assert not rec.passed
    assert rec.name == "haar-product-rule"

    code = run_cli(["verify", "--suite", "exact-identities"])
    out = capsys.readouterr().out
    assert code == 1
    assert "haar-product-rule" in out.splitlines()[-1]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "parahaar.cli", "verify",
                           "--suite", "covering"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "covering-dim1" in proc.stdout


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}/")
        elif isinstance(value, list):
            yield from ((f"{prefix}{key}[{i}]", x) for i, x in enumerate(value))
        else:
            yield f"{prefix}{key}", value


@pytest.mark.parametrize("args, file_text, named", [
    (["run", "--config"], None, "config file cannot be read"),
    (["run", "--config"], "{", "config file is not JSON"),
    (["verify", "--suite", "covering", "--calibration"], None, "calibration file cannot be read"),
], ids=["missing-config", "config-not-json", "missing-calibration"])
def test_unreadable_input_file_rejected(tmp_path, capsys, args, file_text, named):
    path = tmp_path / "input.json"
    if file_text is not None:
        path.write_text(file_text)
    assert run_cli(args + [str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {named}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("trials", ["0", "1", "-3"])
def test_calibrate_rejects_too_few_trials(tmp_path, capsys, trials):
    out = tmp_path / "cal.json"
    assert run_cli(["calibrate", "--out", str(out), "--trials", trials]) == 1
    assert capsys.readouterr().err == "error: --trials must be at least 2\n"
    assert not out.exists()


def test_calibrate_rejects_a_negative_seed(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(checks, "calibrate_all", lambda **kwargs: calls.append(kwargs))
    out = tmp_path / "cal.json"
    assert run_cli(["calibrate", "--out", str(out), "--seed", "-5"]) == 1
    assert capsys.readouterr().err == "error: --seed must be an integer >= 0\n"
    assert calls == [] and not out.exists()


def test_calibrate_refuses_a_missing_output_folder_before_measuring(monkeypatch, tmp_path, capsys):
    measured = []
    monkeypatch.setattr(checks, "_measure", lambda *args, **kwargs: measured.append(args))
    out = tmp_path / "missing" / "c.json"
    assert run_cli(["calibrate", "--out", str(out), "--trials", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert measured == [] and not out.parent.exists()


def test_calibrate_leaves_no_partial_file(monkeypatch, tmp_path):
    # a value json cannot write fails before the file is opened
    monkeypatch.setattr(checks, "calibrate_all", lambda **kwargs: {"a": 1.0, "b": object()})
    out = tmp_path / "c.json"
    with pytest.raises(TypeError):
        run_cli(["calibrate", "--out", str(out), "--trials", "2"])
    assert not out.exists()


def test_calibrate_command(tmp_path):
    # the committed seed and trial count re-measure the committed constants,
    # so calibrate still measures what calibration.json froze
    out = tmp_path / "cal.json"
    assert run_cli(["calibrate", "--out", str(out), "--trials", "200",
                    "--seed", "20240901"]) == 0
    calib = json.loads(out.read_text())
    assert "paraproduct_ratio" in calib and "diff_haar_ratio" in calib
    fresh, frozen = dict(_leaves(calib)), dict(_leaves(checks.load_calibration()))
    assert fresh.keys() == frozen.keys()
    for key, value in frozen.items():
        assert fresh[key] == pytest.approx(value, rel=1e-6), key
    # a freshly measured file is itself a valid verify input
    recs = checks.calibrated_suite(calib, seed=99, trials=8)
    assert all(r.passed for r in recs)


@pytest.mark.parametrize("edit, named", [
    (lambda c: {k: v for k, v in c.items() if k != "tensor_ratio"},
     "key 'tensor_ratio' is missing"),
    (lambda c: {**c, "word_margin": "1.6"}, "key 'word_margin' must be a number >= 1"),
    (lambda c: {**c, "block_ratio": {**c["block_ratio"], "1,1.0": [0.5]}},
     "key 'block_ratio/1,1.0' must be [lo, hi] with 0 < lo <= hi"),
    (lambda c: {**c, "nwo_margin": 0}, "key 'nwo_margin' must be a number >= 1"),
    (lambda c: [c], "file must hold a JSON object"),
    (lambda c: {**c, "car_ratio": {**c["car_ratio"], "2,1.0": [0.5, 0.4]}},
     "key 'car_ratio/2,1.0' must be [lo, hi] with 0 < lo <= hi"),
    (lambda c: "{", "file is not JSON"),
], ids=["missing-key", "string-margin", "short-band", "zero-margin", "top-level-list",
        "inverted-band", "not-json"])
def test_malformed_calibration_rejected(tmp_path, capsys, edit, named):
    path = tmp_path / "cal.json"
    calib = edit(checks.load_calibration())
    path.write_text(calib if isinstance(calib, str) else json.dumps(calib))
    assert run_cli(["verify", "--suite", "all", "--calibration", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: calibration {named}")


def test_calibrated_table_covers_the_file():
    named = [key for _, _, margin_key, _, keys in checks.CALIBRATED
             for key in (margin_key, *keys)]
    assert sorted(named) == sorted(set(checks.load_calibration()) - {"seed", "trials"})


def _scaled(tree, factor):
    if isinstance(tree, dict):
        return {k: _scaled(v, factor) for k, v in tree.items()}
    if isinstance(tree, list):
        return [x * factor for x in tree]
    return tree * factor


def test_every_calibrated_record_judges_its_keys():
    # bands and upper constants shrunk 1000-fold, the lower constant raised
    # 1000-fold: every record must fail
    frozen = checks.load_calibration()
    moved = {**frozen, **{key: _scaled(frozen[key], 1e3 if key == "testing_lower" else 1e-3)
                          for *_, keys in checks.CALIBRATED for key in keys}}
    recs = checks.calibrated_suite(moved, seed=99, trials=8)
    assert [r.name for r in recs if not r.passed] == [row[0] for row in checks.CALIBRATED]
