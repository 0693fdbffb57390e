import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deeplinear import cli, constants, critical, spectrum, verify
from deeplinear.cli import main
from deeplinear.critical import InternalConsistencyError, SolverError
from deeplinear.util import named_stream
from deeplinear.verify import CenterNotCriticalError, counterexample_family


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_config(tmp_path, **overrides):
    cfg = {
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "instance": {
            "dims": [2, 4, 2],
            "lambdas": [0.6, 0.7],
            "target": {"kind": "diagonal", "values": [2.0, 1.3]},
        },
    }
    cfg.update(overrides)
    return cfg


def test_roots_command(capsys):
    assert main(["roots", "--y", "2", "--lambda", "1", "--L", "2"]) == 0
    out = capsys.readouterr().out
    assert "1" in out
    assert main(["roots", "--y", "2", "--lambda", "1", "--L", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    roots = [r["root"] for r in payload["roots"]]
    assert roots[0] == 0.0
    assert roots[1] == pytest.approx(0.5436890126920764, abs=1e-12)
    assert roots[2] == pytest.approx(1.0, abs=1e-12)


def test_roots_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--y", "2"])
    assert exc.value.code == 2


def test_check_assumptions_pass_fail_and_missing(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    assert main(["check-assumptions", _write_config(tmp_path, cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["assumption2"] is True

    bad = _base_config(tmp_path)
    bad["instance"]["lambdas"] = [2.0, 2.0]  # product 4 = (top singular value)^2
    assert main(["check-assumptions", _write_config(tmp_path, bad, "bad.json")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violated_indices"] == [0]

    assert main(["check-assumptions", str(tmp_path / "missing.json")]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = _base_config(tmp_path)
    cfg["surprise"] = 1
    assert main(["check-assumptions", _write_config(tmp_path, cfg)]) == 2
    cfg = _base_config(tmp_path)
    cfg["instance"]["typo"] = True
    assert main(["check-assumptions", _write_config(tmp_path, cfg)]) == 2


def test_constants_command(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["instance"] = {
        "dims": [1, 1, 1],
        "lambdas": [1.0, 1.0],
        "target": {"kind": "diagonal", "values": [2.0]},
    }
    path = _write_config(tmp_path, cfg)
    assert main(["constants", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa_zero"] == pytest.approx(6.0)
    assert (tmp_path / "out" / "constants.csv").exists()

    assert main(["constants", path, "--profile", "99"]) == 2

    degenerate = _base_config(tmp_path)
    degenerate["instance"] = {
        "dims": [1, 1, 1],
        "lambdas": [2.0, 2.0],
        "target": {"kind": "diagonal", "values": [2.0]},
    }
    assert main(["constants", _write_config(tmp_path, degenerate, "deg.json")]) == 1


def test_verify_eb_command_and_json_roundtrip(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["instance"]["target"] = {"kind": "gaussian"}
    cfg["instance"]["dims"] = [2, 4, 3]
    cfg["sweep"] = {
        "radii": {"start": 1e-4, "stop": 1e-2, "num": 4},
        "samples_per_radius": 4,
        "center": "optimal",
    }
    path = _write_config(tmp_path, cfg)
    code = main(["verify-eb", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    report_path = tmp_path / "out" / "verify-eb.json"
    text = report_path.read_text()
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    csv_lines = (tmp_path / "out" / "verify-eb.csv").read_text().splitlines()
    assert csv_lines[0] == "radius,dist_lower,dist_upper,grad_norm,F,ratio"


def _theory_regime_sweep(tmp_path, target="F"):
    """``verify-eb`` on a generic instance with radii below its eps1 (F) or
    eps (G), so the closed-form regime cutoff holds and every sample meets
    the kappa1 (F) or kappa (G) check."""
    cfg = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "instance": {"dims": [5, 6, 6, 4], "lambdas": [0.6, 0.8, 0.7], "target": {"kind": "gaussian"}},
        "sweep": {"radii": {"start": 1e-13, "stop": 1e-11, "num": 5}, "samples_per_radius": 32,
                  "target": target},
    }
    code = main(["verify-eb", _write_config(tmp_path, cfg)])
    return code, json.loads((tmp_path / "out" / "verify-eb.json").read_text())


def test_verify_eb_in_the_theory_regime(tmp_path, capsys):
    code, report = _theory_regime_sweep(tmp_path)
    assert code == 0 and report["verdict"] == "PASS"
    assert report["notes"]["regime_source"] == "theory"
    assert report["notes"]["kappa_checked_samples"] == 160
    assert report["fitted"]["max_ratio_overall"] <= report["constants"]["kappa1"]


def test_verify_eb_fails_past_kappa1(tmp_path, capsys, monkeypatch):
    real = verify.compute_ledger
    monkeypatch.setattr(verify, "compute_ledger", lambda inst, p: dataclasses.replace(real(inst, p), kappa1=0.1))
    code, report = _theory_regime_sweep(tmp_path)
    assert code == 1 and report["verdict"] == "FAIL"
    assert "kappa1-exceeded" in report["tags"]
    assert report["notes"]["regime_source"] == "theory"


def test_g_verify_eb_in_the_theory_regime(tmp_path, capsys):
    code, report = _theory_regime_sweep(tmp_path, target="G")
    assert code == 0 and report["verdict"] == "PASS"
    assert report["notes"]["regime_source"] == "theory"
    assert report["notes"]["kappa_checked_samples"] == 160
    assert report["fitted"]["max_ratio_overall"] <= report["constants"]["kappa"]


def test_g_verify_eb_fails_past_kappa(tmp_path, capsys, monkeypatch):
    real = verify.compute_ledger
    monkeypatch.setattr(verify, "compute_ledger", lambda inst, p: dataclasses.replace(real(inst, p), kappa=0.1))
    code, report = _theory_regime_sweep(tmp_path, target="G")
    assert code == 1 and report["verdict"] == "FAIL"
    assert "kappa-exceeded" in report["tags"]
    assert report["notes"]["regime_source"] == "theory"


@pytest.mark.parametrize("command, name", [("verify-eb", "zero"), ("constants", "saddle")])
def test_named_profile_reads_like_its_index(command, name, tmp_path, capsys):
    # sweep.center and --profile take a profile's name or its index in the
    # enumeration, and both give the same report.
    cfg = _base_config(tmp_path, sweep={"radii": [1e-3, 1e-2], "samples_per_radius": 2})
    cfg["instance"] = {"dims": [2, 4, 4, 3], "lambdas": [0.3, 0.4, 0.5], "target": {"kind": "gaussian"}}
    inst = cli.build_instance(cfg, cfg["seed"])
    sigma = {"zero": critical.zero_profile, "saddle": critical.saddle_profile}[name](inst).sigma
    (k,) = [k for k, p in enumerate(inst.profiles.profiles) if p.sigma == sigma]

    def report(spec):
        if command == "constants":
            assert main(["constants", _write_config(tmp_path, cfg), "--profile", spec]) == 0
        else:
            cfg["sweep"]["center"] = spec
            assert main([command, _write_config(tmp_path, cfg)]) in (0, 1)
        capsys.readouterr()
        return (tmp_path / "out" / f"{command}.json").read_text()

    assert report(name) == report(str(k))


def test_verify_plqg_command(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["sweep"] = {
        "radii": [1e-3, 1e-2],
        "samples_per_radius": 4,
        "center": "optimal",
    }
    assert main(["verify-plqg", _write_config(tmp_path, cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_g_sweep_of_a_deep_small_weight_instance(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["instance"].update(dims=[2] * 11, lambdas=[1e-4] * 10)
    cfg["sweep"] = {"radii": [1e-3, 1e-2], "samples_per_radius": 2, "center": "optimal", "target": "G"}
    path = _write_config(tmp_path, cfg)
    for command in ("verify-eb", "verify-plqg"):
        assert main([command, path]) == 1  # every radius is past the tiny regime cutoff
        assert "no-in-regime-radii" in capsys.readouterr().out
        assert (tmp_path / "out" / f"{command}.json").is_file()


def test_counterexample_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEEPLINEAR_OUT", str(tmp_path / "cex"))
    assert main(["counterexample", "--kind", "l2", "--fit"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "fail-by-design" in out
    assert main(["counterexample", "--kind", "lge3", "--fit"]) == 0
    capsys.readouterr()
    assert main(["counterexample", "--kind", "l2", "--t", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "grad_norm" in out
    # The measure's G companion has product weight 1e-360; only the
    # instance's own product, 1e-180, must be a float.
    assert main(["counterexample", "--kind", "l2", "--y", "1e-90", "--fit"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_train_command(tmp_path, monkeypatch, capsys):
    train, runs = cli.train, []

    def recorded(*args, **kwargs):
        runs.append(train(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "train", recorded)
    cfg = _base_config(tmp_path)
    cfg["train"] = {
        "learning_rate": 1e-3,
        "max_iters": 5000,
        "init": "near-critical",
        "center": "optimal",
    }
    assert main(["train", _write_config(tmp_path, cfg)]) == 0
    assert "train:" in capsys.readouterr().out
    csv_lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "iter,F,grad_sq"
    # the file holds plain numbers, the trajectory's own values
    (traj,) = runs
    rows = [line.split(",") for line in csv_lines[1:]]
    assert [float(r[1]) for r in rows] == traj.f_values[: traj.n_steps].tolist()
    assert [float(r[2]) for r in rows] == traj.grad_sq.tolist()
    summary = json.loads((tmp_path / "out" / "train-summary.json").read_text())
    assert summary["termination"] in ("converged", "max-iters")


def test_train_command_nonlinear(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    cfg["instance"]["target"] = {"kind": "gaussian"}
    cfg["model"] = {
        "kind": "nonlinear",
        "activation": "tanh",
        "input": {"kind": "uniform", "cols": 6},
    }
    cfg["train"] = {"learning_rate": 1e-3, "max_iters": 500, "init": "gaussian"}
    assert main(["train", _write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()


def test_reproduce_s4_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEEPLINEAR_OUT", str(tmp_path / "s4"))
    assert main(["reproduce-s4", "--depths", "2"]) == 0
    out = capsys.readouterr().out
    assert "L=2" in out
    csv_lines = (tmp_path / "s4" / "section4.csv").read_text().splitlines()
    assert csv_lines[0].startswith("depth,init,f_center,f_end,rate")
    assert len(csv_lines) == 3  # header + optimal + saddle


# TrainConfig values rejected as config errors (JSON allows NaN and Infinity).
BAD_TRAIN_VALUES = {
    "nan-learning-rate": {"learning_rate": math.nan},
    "nan-grad-sq-tol": {"grad_sq_tol": math.nan},
    "zero-fval-change-tol": {"fval_change_tol": 0.0},
    "negative-max-iters": {"max_iters": -5},
    "fractional-max-iters": {"max_iters": 2.5},
    "bool-max-iters": {"max_iters": True},
    "zero-log-stride": {"log_stride": 0},
    "infinite-init-scale": {"init_scale": math.inf},
    "negative-init-scale": {"init_scale": -0.1},
    # past the 4,300 digits int() reads, zero-padded or not
    "over-long-train-center-index": {"init": "near-critical", "center": "1" * 5000},
    "zero-padded-train-center-index": {"init": "near-critical", "center": "0" * 5000 + "99"},
}

# Sweep blocks rejected as config errors.
BAD_SWEEP_VALUES = {
    "nan-radius": {"radii": [math.nan, 0.01]},
    "infinite-radius": {"radii": [math.inf]},
    "fractional-samples-per-radius": {"samples_per_radius": 2.5},
    "zero-samples-per-radius": {"samples_per_radius": 0},
    "non-numeric-radius": {"radii": ["abc"]},
    "null-radius": {"radii": [1e-3, None]},
    "radii-range-without-stop": {"radii": {"start": 1e-3, "num": 3}},
    "fractional-radii-num": {"radii": {"start": 1e-3, "stop": 1e-2, "num": 2.5}},
    "empty-radii": {"radii": []},
    "zero-radii-num": {"radii": {"start": 1e-3, "stop": 1e-2, "num": 0}},
    "string-radii": {"radii": "15"},
    "repeated-radii": {"radii": [0.05, 0.05]},
    "repeated-radii-range": {"radii": {"start": 1e-3, "stop": 1e-3, "num": 2}},
    "string-radii-start": {"radii": {"start": "1e-3", "stop": 1e-2, "num": 2}},
    "string-radii-stop": {"radii": {"start": 1e-3, "stop": "1e-2", "num": 2}},
    "bool-radii-start": {"radii": {"start": True, "stop": 1e-2, "num": 2}},
    "unknown-sweep-target": {"target": "H"},
    "negative-center-index": {"center": -1},
    "center-index-out-of-range": {"center": 99},
    "over-long-center-index": {"center": "1" * 5000},
}

# Seeds that are not integers >= 0, by the block that carries them: each is a
# config error, not truncated to an integer nor passed on to the random streams.
BAD_SEEDS = {
    "fractional-seed": ("config", 1.5),
    "bool-seed": ("config", True),
    "string-seed": ("config", "7"),
    "fractional-sweep-seed": ("sweep", 2.5),
    "bool-sweep-seed": ("sweep", False),
    "fractional-target-seed": ("target", 0.5),
    "bool-target-seed": ("target", True),
    "fractional-input-seed": ("input", 4.5),
    "negative-seed": ("config", -1),
    "negative-sweep-seed": ("sweep", -1),
    "negative-target-seed": ("target", -1),
    "negative-input-seed": ("input", -1),
}


# Instances whose ledger constants overflow float range: each is refused.
OVERFLOWING_LEDGERS = {
    # numpy's overflow in the per-profile constants
    "overflowing-ledger": {"dims": [3, 4, 3], "lambda_uniform": 0.5,
                           "target": {"kind": "gaussian", "scale": 1e100}},
    # Python's silent one in kappa1 = kappa * lam / lambda_min
    "overflowing-kappa1": {"dims": [3, 4, 4, 3], "lambdas": [1e-300, 1e-5, 1e300],
                           "target": {"kind": "gaussian"}},
}


def _bad_seed_call(tmp_path, case):
    block, seed = BAD_SEEDS[case]
    cfg = _base_config(tmp_path, sweep={"radii": [1e-3, 1e-2], "samples_per_radius": 2})
    if block == "config":
        cfg["seed"] = seed
    elif block == "sweep":
        cfg["sweep"]["seed"] = seed
    elif block == "target":
        cfg["instance"]["target"] = {"kind": "gaussian", "seed": seed}
    else:
        cfg["model"] = {"input": {"kind": "uniform", "seed": seed}}
        cfg["train"] = {"learning_rate": 1e-3, "max_iters": 5, "init": "gaussian"}
        return ["train", _write_config(tmp_path, cfg)]
    return ["verify-eb", _write_config(tmp_path, cfg)]


def _failing_call(tmp_path, case):
    if case in BAD_SEEDS:
        return _bad_seed_call(tmp_path, case)
    if case == "divergent-train":
        cfg = _base_config(
            tmp_path, train={"learning_rate": 10, "max_iters": 500, "init": "gaussian"}
        )
        return ["train", _write_config(tmp_path, cfg)]
    if case in BAD_TRAIN_VALUES:
        train = {"learning_rate": 1e-3, "max_iters": 50, "init": "gaussian"}
        cfg = _base_config(tmp_path, train={**train, **BAD_TRAIN_VALUES[case]})
        return ["train", _write_config(tmp_path, cfg)]
    if case in BAD_SWEEP_VALUES:
        sweep = {"radii": [1e-3, 1e-2], "samples_per_radius": 2}
        cfg = _base_config(tmp_path, sweep={**sweep, **BAD_SWEEP_VALUES[case]})
        return ["verify-eb", _write_config(tmp_path, cfg)]
    if case == "negative-s4-seed":
        return ["reproduce-s4", _write_config(tmp_path, {"seed": -1}), "--depths", "2"]
    if case == "negative-seed-with-target-seed":
        cfg = _base_config(tmp_path, seed=-1)
        cfg["instance"]["target"] = {"kind": "gaussian", "seed": 3}
        return ["check-assumptions", _write_config(tmp_path, cfg)]
    if case == "grouping-tol-key":
        cfg = _base_config(tmp_path)
        cfg["instance"]["grouping_tol"] = 0.5
        return ["check-assumptions", _write_config(tmp_path, cfg)]
    if case == "too-many-diagonal-values":
        cfg = _base_config(tmp_path)
        cfg["instance"]["dims"] = [2, 3, 2]
        cfg["instance"]["target"] = {"kind": "diagonal", "values": [2, 1, 0.5]}
        return ["check-assumptions", _write_config(tmp_path, cfg)]
    if case in OVERFLOWING_LEDGERS:
        cfg = _base_config(tmp_path, instance=OVERFLOWING_LEDGERS[case])
        return ["constants", _write_config(tmp_path, cfg)]
    if case == "narrow-hidden-layer":
        cfg = _base_config(tmp_path, sweep={"radii": [1e-3, 1e-2], "samples_per_radius": 2})
        cfg["instance"] = {"dims": [5, 3, 4], "lambdas": [0.6, 0.7], "target": {"kind": "gaussian"}}
        return ["verify-eb", _write_config(tmp_path, cfg)]
    if case == "list-config":
        return ["check-assumptions", _write_config(tmp_path, [_base_config(tmp_path)])]
    if case == "over-long-json-integer":
        path = tmp_path / "config.json"
        path.write_text('{"sweep": {"center": ' + "1" * 5000 + "}}")
        return ["verify-eb", str(path)]
    if case == "nan-target-file":
        target = np.diag([2.0, 1.3])
        target[0, 1] = np.nan
        np.save(tmp_path / "target.npy", target)
        cfg = _base_config(tmp_path)
        cfg["instance"]["target"] = {"kind": "file", "path": str(tmp_path / "target.npy")}
        return ["check-assumptions", _write_config(tmp_path, cfg)]
    return {
        "negative-root-target": ["roots", "--y", "-1", "--lambda", "1", "--L", "2"],
        "infinite-root-target": ["roots", "--y", "inf", "--lambda", "1", "--L", "6", "--json"],
        "infinite-root-lambda": ["roots", "--y", "1", "--lambda", "inf", "--L", "6", "--json"],
        "huge-root-target": ["roots", "--y", "1e150", "--lambda", "1", "--L", "6", "--json"],
        "overflowing-root-target": ["roots", "--y", "1e200", "--lambda", "1", "--L", "6"],
        "one-layer-roots": ["roots", "--y", "2", "--lambda", "1", "--L", "1"],
        "zero-counterexample-target": ["counterexample", "--kind", "l2", "--y", "0"],
        "one-layer-s4": ["reproduce-s4", "--depths", "1"],
    }[case]


@pytest.mark.parametrize(
    "case, code",
    [
        ("divergent-train", 1),
        ("narrow-hidden-layer", 1),
        ("list-config", 2),
        ("over-long-json-integer", 2),
        ("nan-target-file", 2),
        ("grouping-tol-key", 2),
        ("too-many-diagonal-values", 2),
        ("negative-root-target", 2),
        ("infinite-root-target", 2),
        ("infinite-root-lambda", 2),
        ("huge-root-target", 1),
        ("overflowing-root-target", 1),
        ("one-layer-roots", 2),
        ("zero-counterexample-target", 2),
        ("one-layer-s4", 2),
        ("negative-s4-seed", 2),
        ("negative-seed-with-target-seed", 2),
        *[(case, 2) for case in BAD_TRAIN_VALUES],
        *[(case, 2) for case in BAD_SWEEP_VALUES],
        *[(case, 2) for case in BAD_SEEDS],
        *[(case, 1) for case in OVERFLOWING_LEDGERS],
    ],
)
def test_error_paths_exit_with_one_line(case, code, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEEPLINEAR_OUT", str(tmp_path / "out"))
    assert main(_failing_call(tmp_path, case)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    if case in BAD_SWEEP_VALUES or case in BAD_SEEDS or "seed" in case or "center" in case:
        assert err.startswith("config error: ")
    if case.endswith("center-index"):
        assert len(err.encode()) < 300
    if case in OVERFLOWING_LEDGERS:
        assert err.startswith("constants: refused: ")
    if case == "narrow-hidden-layer":
        assert err.startswith("assumption violated: ")
    if case == "list-config":
        assert err.startswith("config error: ") and len(err.encode()) < 300


# reproduce-s4 depths and train input columns that are config errors: a
# number where a list belongs, an empty list, and column counts that are
# not positive integers (no truncation of 2.7 to 2, nor true read as 1).
BAD_DEPTHS = {"int-depths": 5, "empty-depths": [], "string-depths": "24", "one-depth": [2, 1]}
BAD_DEPTH_FLAGS = {"empty-depths-flag": "", "comma-depths-flag": ","}
BAD_INPUT_COLS = {
    "string-cols": "abc",
    "negative-cols": -1,
    "zero-cols": 0,
    "fractional-cols": 2.7,
    "bool-cols": True,
    "null-cols": None,
    "diagonal-target-cols": 5,  # only a gaussian target is redrawn with one column per sample
}


@pytest.mark.parametrize("case", [*BAD_DEPTHS, *BAD_DEPTH_FLAGS, *BAD_INPUT_COLS])
def test_config_holes_exit_two_with_one_line(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEEPLINEAR_OUT", str(tmp_path / "out"))
    if case in BAD_DEPTHS:
        argv = ["reproduce-s4", _write_config(tmp_path, {"depths": BAD_DEPTHS[case]})]
    elif case in BAD_DEPTH_FLAGS:
        argv = ["reproduce-s4", "--depths", BAD_DEPTH_FLAGS[case]]
    else:
        cfg = _base_config(tmp_path)
        cfg["model"] = {"input": {"kind": "uniform", "cols": BAD_INPUT_COLS[case]}}
        cfg["train"] = {"learning_rate": 1e-3, "max_iters": 5, "init": "gaussian"}
        argv = ["train", _write_config(tmp_path, cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_input_cols_set_the_sample_count(tmp_path, monkeypatch):
    train, shapes = cli.train, []

    def recorded(model, target, *args, **kwargs):
        shapes.append((model.input_matrix.shape, target.shape))
        return train(model, target, *args, **kwargs)

    monkeypatch.setattr(cli, "train", recorded)
    cfg = _base_config(tmp_path)
    cfg["instance"]["target"] = {"kind": "gaussian"}
    cfg["model"] = {"input": {"kind": "uniform", "cols": 3}}
    cfg["train"] = {"learning_rate": 1e-3, "max_iters": 5, "init": "gaussian"}
    assert main(["train", _write_config(tmp_path, cfg)]) == 0
    assert shapes == [((2, 3), (2, 3))]


def _train_target(tmp_path, monkeypatch, target):
    """The target ``train`` receives for the instance ``target`` block and 3 input columns."""
    train, targets = cli.train, []

    def recorded(model, y, *args, **kwargs):
        targets.append(y)
        return train(model, y, *args, **kwargs)

    monkeypatch.setattr(cli, "train", recorded)
    cfg = _base_config(tmp_path)
    cfg["instance"]["target"] = target
    cfg["model"] = {"input": {"kind": "uniform", "cols": 3}}
    cfg["train"] = {"learning_rate": 1e-3, "max_iters": 5, "init": "gaussian"}
    assert main(["train", _write_config(tmp_path, cfg)]) == 0
    (y,) = targets
    return y


def test_input_cols_target_reads_the_scale(tmp_path, monkeypatch):
    plain = _train_target(tmp_path, monkeypatch, {"kind": "gaussian"})
    assert np.array_equal(plain, named_stream(3, "instance-target").standard_normal((2, 3)))
    scaled = _train_target(tmp_path, monkeypatch, {"kind": "gaussian", "scale": 2.0})
    assert np.array_equal(scaled, 2.0 * plain)


def test_input_cols_target_reads_the_target_seed(tmp_path, monkeypatch):
    seeded = _train_target(tmp_path, monkeypatch, {"kind": "gaussian", "seed": 8})
    assert np.array_equal(seeded, named_stream(8, "instance-target").standard_normal((2, 3)))


@pytest.mark.parametrize(
    "flag, kind, depth", [("l2", "l2-lambda-eq-y2", 2), ("lge3", "lge3-phi-prime-zero", 3)]
)
def test_counterexample_command_uses_the_family_depth(flag, kind, depth, monkeypatch, capsys):
    excluded, family, depths, built = cli.excluded_lambda, cli.counterexample_family, [], []
    monkeypatch.setattr(cli, "excluded_lambda", lambda y, L: depths.append(L) or excluded(y, L))
    monkeypatch.setattr(
        cli, "counterexample_family", lambda k, **kw: built.append((k, family(k, **kw))) or built[-1][1]
    )
    assert main(["counterexample", "--kind", flag, "--t", "0.1"]) == 0
    assert depths == [depth]
    assert [(k, f.depth) for k, f in built] == [(kind, depth)]
    assert counterexample_family(kind).depth == depth


def test_parser_reused_across_calls_leaks_no_option(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = _base_config(tmp_path)
    cfg["instance"]["dims"] = [2, 4, 4, 3]
    cfg["instance"]["lambdas"] = [0.3, 0.4, 0.5]
    cfg["instance"]["target"] = {"kind": "gaussian"}
    path = _write_config(tmp_path, cfg)
    calls = [
        ("constants", path, "--profile", "1"),
        ("constants", path),
        ("roots", "--y", "2", "--lambda", "1", "--L", "3", "--json"),
        ("check-assumptions", path),
        ("constants", path, "--profile", "2"),
        ("constants", path),
    ]
    in_process = []
    for argv in calls:
        code = main(list(argv))
        in_process.append((code, capsys.readouterr().out))
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = {}
    script = "import sys; from deeplinear.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in dict.fromkeys(calls):
        run = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        fresh[argv] = (run.returncode, run.stdout)
    assert in_process == [fresh[argv] for argv in calls]
    assert len({in_process[k] for k in (0, 1, 4)}) == 3  # the --profile values took effect


@pytest.mark.parametrize(
    "error", [SolverError, InternalConsistencyError, CenterNotCriticalError]
)
def test_numerical_failures_exit_one(error, monkeypatch, capsys):
    def fail(*args):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "solve_scalar_equation", fail)
    assert main(["roots", "--y", "2", "--lambda", "1", "--L", "2"]) == 1
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"roots failed: {error.__name__}: synthetic failure"]


def _count_calls(monkeypatch, func) -> list:
    """Wrap ``func`` at every binding of it in the loaded deeplinear modules,
    the defining one and every importer; returns the list of call arguments."""
    calls = []

    def counted(*args):
        calls.append(args)
        return func(*args)

    for name, module in list(sys.modules.items()):
        if name == "deeplinear" or name.startswith("deeplinear."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_instance_commands_solve_each_root_equation_once(tmp_path, monkeypatch, capsys):
    # one root solve per positive target value, and one assumption report
    # and one stationary-value set per command
    counts = {
        "roots": _count_calls(monkeypatch, critical.solve_scalar_equation),
        "assumptions": _count_calls(monkeypatch, constants.check_assumptions),
        "root values": _count_calls(monkeypatch, spectrum.build_root_value_set),
    }
    cfg = _base_config(tmp_path)
    cfg["instance"]["dims"] = [2, 4, 4, 3]
    cfg["instance"]["lambdas"] = [0.6, 0.7, 0.8]
    cfg["instance"]["target"] = {"kind": "gaussian"}
    cfg["sweep"] = {"radii": [1e-3, 1e-2], "samples_per_radius": 2}
    path = _write_config(tmp_path, cfg)
    for command in ("constants", "verify-eb"):
        for calls in counts.values():
            calls.clear()
        assert main([command, path]) in (0, 1)
        # two roots: the rank of the generic 3x2 target
        assert {key: len(calls) for key, calls in counts.items()} == {
            "roots": 2, "assumptions": 1, "root values": 1}, command
    capsys.readouterr()


# Each config block, by its path, and the commands that read it; every one
# given as a JSON value that is not an object is a config error.
BLOCK_READERS = {
    ("instance",): ("check-assumptions", "constants", "verify-eb", "verify-plqg", "train"),
    ("instance", "target"): ("check-assumptions", "constants", "verify-eb", "verify-plqg", "train"),
    ("sweep",): ("verify-eb", "verify-plqg"),
    ("train",): ("train",),
    ("model",): ("train",),
    ("model", "input"): ("train",),
}
NOT_OBJECTS = {"null": None, "list": [1, 2], "string": "abc", "number": 3}

# Values of the wrong type or range, keys that no command reads, and
# arguments out of range: (command, path in the config, value).
BAD_CONFIG_VALUES = {
    "string-target-scale": ("check-assumptions", ("instance", "target"),
                            {"kind": "gaussian", "scale": "abc"}),
    "number-target-values": ("constants", ("instance", "target"), {"kind": "diagonal", "values": 3}),
    "string-target-values": ("constants", ("instance", "target"), {"kind": "diagonal", "values": "21"}),
    "string-dims": ("check-assumptions", ("instance", "dims"), "564"),
    "fractional-dims": ("check-assumptions", ("instance", "dims"), [2, 4.5, 2]),
    "bool-dims": ("check-assumptions", ("instance", "dims"), [2, True, 2]),
    "zero-dims": ("check-assumptions", ("instance", "dims"), [2, 0, 2]),
    "string-lambdas": ("check-assumptions", ("instance", "lambdas"), "67"),
    "bool-lambdas": ("check-assumptions", ("instance", "lambdas"), [0.6, True]),
    "string-lambda-uniform": ("check-assumptions", ("instance",),
                              {"dims": [2, 4, 2], "lambda_uniform": "0.5", "target": {"kind": "gaussian"}}),
    "bool-lambda-uniform": ("check-assumptions", ("instance",),
                            {"dims": [2, 4, 2], "lambda_uniform": True, "target": {"kind": "gaussian"}}),
    "numeric-string-target-scale": ("check-assumptions", ("instance", "target"),
                                    {"kind": "gaussian", "scale": "2"}),
    "bool-target-scale": ("check-assumptions", ("instance", "target"), {"kind": "gaussian", "scale": True}),
    "rate-fit-key": ("train", ("rate_fit",), {"tail_fraction": 0.5}),
    "constants-key": ("constants", ("constants",), {}),
    "number-output-dir": ("check-assumptions", ("output_dir",), 5),
    "directory-target-path": ("check-assumptions", ("instance", "target"), {"kind": "file", "path": "."}),
    "both-lambda-forms": ("check-assumptions", ("instance", "lambda_uniform"), 0.5),
    "wrong-weight-count": ("check-assumptions", ("instance", "lambdas"), [0.6, 0.7, 0.8]),
    "unknown-target-kind": ("check-assumptions", ("instance", "target"), {"kind": "laplace"}),
    "unknown-input-kind": ("train", ("model", "input"), {"kind": "sphere"}),
    # The product of the weights underflows to 0 or overflows to inf.
    **{
        f"underflowing-lambda-product-{command}": (command, ("instance", "lambdas"), [1e-200, 1e-200])
        for command in ("check-assumptions", "constants", "verify-eb", "train")
    },
    "overflowing-lambda-product": ("constants", ("instance",),
                                   {"dims": [2, 4, 2], "lambda_uniform": 1e300, "target": {"kind": "gaussian"}}),
    # A target value whose excluded weight underflows to 0 or overflows.
    "underflowing-excluded-weight": ("check-assumptions", ("instance", "target"),
                                     {"kind": "gaussian", "scale": 1e-200}),
    "underflowing-excluded-weight-plqg": ("verify-plqg", ("instance", "target"),
                                          {"kind": "gaussian", "scale": 1e-200}),
    "underflowing-excluded-weight-depth-6": (
        "constants", ("instance",),
        {"dims": [2, 4, 4, 4, 4, 4, 2], "lambda_uniform": 0.5, "target": {"kind": "gaussian", "scale": 1e-40}},
    ),
    "overflowing-excluded-weight-depth-6": (
        "verify-eb", ("instance",),
        {"dims": [2, 4, 4, 4, 4, 4, 2], "lambda_uniform": 0.5, "target": {"kind": "gaussian", "scale": 1e40}},
    ),
    "negative-radii-start": ("verify-eb", ("sweep", "radii"), {"start": -1, "stop": 1, "num": 3}),
    "negative-radii-stop": ("verify-plqg", ("sweep", "radii"), {"start": 1e-3, "stop": -1e-2, "num": 3}),
}
BAD_ARGUMENTS = {
    "profile-out-of-range": ["constants", None, "--profile", "99"],
    "directory-config": ["check-assumptions", "."],
    "infinite-counterexample-t": ["counterexample", "--kind", "l2", "--t", "inf"],
    "overflowing-counterexample-t": ["counterexample", "--kind", "l2", "--t", "1e200"],
    "huge-counterexample-y": ["counterexample", "--kind", "l2", "--y", "1e200"],
    "huge-counterexample-y-lge3": ["counterexample", "--kind", "lge3", "--y", "1e200", "--fit"],
    "tiny-counterexample-y": ["counterexample", "--kind", "l2", "--y", "1e-200"],
    "tiny-counterexample-y-lge3": ["counterexample", "--kind", "lge3", "--y", "1e-200"],
    "nan-counterexample-y": ["counterexample", "--kind", "lge3", "--y", "nan", "--fit"],
    "underflowing-s4-lambda-product": ["reproduce-s4", "--depths", "90"],
}
CONFIG_HOLES = {
    **{
        f"{'.'.join(path)}-{name}-{command}": (command, path, value)
        for path, commands in BLOCK_READERS.items()
        for command in commands
        for name, value in NOT_OBJECTS.items()
    },
    **BAD_CONFIG_VALUES,
}


def _set(cfg, path, value):
    for key in path[:-1]:
        cfg = cfg.setdefault(key, {})
    cfg[path[-1]] = value


# A numpy warning on the way to the refusal would print a second stderr line.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", [*CONFIG_HOLES, *BAD_ARGUMENTS])
def test_malformed_inputs_exit_two_with_one_line(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEEPLINEAR_OUT", str(tmp_path / "out"))
    cfg = _base_config(
        tmp_path,
        sweep={"radii": [1e-3, 1e-2], "samples_per_radius": 2},
        train={"learning_rate": 1e-3, "max_iters": 5, "init": "gaussian"},
    )
    if case in CONFIG_HOLES:
        command, path, value = CONFIG_HOLES[case]
        _set(cfg, path, value)
        argv = [command, _write_config(tmp_path, cfg)]
    else:
        argv = [_write_config(tmp_path, cfg) if a is None else a for a in BAD_ARGUMENTS[case]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: ")
    assert not (tmp_path / "out").exists()
    assert len(err.encode()) < 300
