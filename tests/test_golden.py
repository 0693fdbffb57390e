"""Golden reports: fixed-seed CLI runs compared against recorded outputs.

`train.json` holds train summaries; `reports.json` holds the check-assumptions,
constants, verify-eb and verify-plqg reports of one small instance each.

Step counts, terminations and flags must match exactly; fitted and final
numbers within 1e-10 relative.  A change that moves a golden value names the
value and the reason in CHANGES.md and re-records the file.
"""

import json
from pathlib import Path

import pytest

from deeplinear.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRAIN_CASES = json.loads((GOLDEN / "train.json").read_text())
EXACT = ("n_steps", "termination", "monotone")
CLOSE = ("f_final", "grad_sq_final", "rate")


@pytest.mark.parametrize("name", sorted(TRAIN_CASES))
def test_train_matches_golden(name, tmp_path):
    case = TRAIN_CASES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(case["config"], output_dir=str(tmp_path))))
    assert main(["train", str(config)]) == 0
    summary = json.loads((tmp_path / "train-summary.json").read_text())
    expect = case["expect"]
    for key in EXACT:
        assert summary[key] == expect[key], key
    for key in CLOSE:
        assert summary[key] == pytest.approx(expect[key], rel=1e-10, abs=0.0), key


REPORT_CASES = json.loads((GOLDEN / "reports.json").read_text())


def _assert_matches(got, want, where="report"):
    """Strings, flags and counts exactly; floats within 1e-10 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_matches(a, b, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert got == pytest.approx(want, rel=1e-10, abs=0.0, nan_ok=True), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    case = REPORT_CASES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(case["config"], output_dir=str(tmp_path))))
    command, *options = case["argv"]
    assert main([command, str(config), *options]) == case["exit"]
    capsys.readouterr()
    report = json.loads((tmp_path / case["report"]).read_text())
    _assert_matches(report, case["expect"])
