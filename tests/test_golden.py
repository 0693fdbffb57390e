"""Golden reports: fixed-seed CLI runs compared against recorded outputs.

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
