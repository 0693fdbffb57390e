"""Golden reports: fixed-seed CLI runs compared against recorded outputs.

`train.json` holds train summaries; `reports.json` holds the check-assumptions,
constants, verify-eb and verify-plqg reports of one small instance each, a
verify-eb report on a target with repeated singular-value blocks of sizes 3, 2
and 1 (also in tangent-removed mode at the optimal center and at profile 1),
a singular-direction verify-plqg report, the `roots --json` output at an excluded and a generic weight, the
`counterexample --kind l2 --fit` and `--kind lge3 --y 2 --fit` reports, and
the `reproduce-s4` tables at depths 2 and 4.  A case without a config runs its
argv as is; its report is read from stdout when ``report`` is "-".
`csv.json` holds, by case, the header and rows of every CSV file the case
writes; a CSV cell is read as an int, else a float, else a string.

Step counts, terminations and flags must match exactly; fitted and final
numbers within 1e-10 relative.  CSV headers, strings and ints match exactly,
floats within 1e-10 relative.  A change that moves a golden value names the
value and the reason in CHANGES.md and re-records the file.
"""

import json
from pathlib import Path

import pytest

from deeplinear.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRAIN_CASES = json.loads((GOLDEN / "train.json").read_text())
CSV_CASES = json.loads((GOLDEN / "csv.json").read_text())
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
    _assert_csvs_match(tmp_path, CSV_CASES["train"].get(name, {}))


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


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_csvs_match(out, tables):
    """The CSV files in ``out`` are those of ``tables``, header and rows alike."""
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(tables)
    for name, want in tables.items():
        header, *rows = (out / name).read_text().splitlines()
        assert header.split(",") == want["header"], name
        got = [[_cell(c) for c in row.split(",")] for row in rows]
        _assert_matches(got, want["rows"], name)


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_matches_golden(name, tmp_path, capsys, monkeypatch):
    case = REPORT_CASES[name]
    monkeypatch.setenv("DEEPLINEAR_OUT", str(tmp_path))
    argv = list(case["argv"])
    if "config" in case:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(case["config"], output_dir=str(tmp_path))))
        argv.insert(1, str(config))
    assert main(argv) == case["exit"]
    stdout = capsys.readouterr().out
    if case["report"] == "-":
        report = json.loads(stdout)
    else:
        report = json.loads((tmp_path / case["report"]).read_text())
    _assert_matches(report, case["expect"])
    _assert_csvs_match(tmp_path, CSV_CASES["reports"].get(name, {}))
