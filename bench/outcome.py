"""What a command produced, and how it is compared with the reference.

Every outcome splits into ``exact`` fields (exit code, verdict, tags, GD step
counts and terminations, root counts and degeneracy flags, assumption flags)
that must match exactly, and ``num`` fields (fitted numbers, ledger
constants, sums of the sweep sample columns) that must match within
``RTOL`` relative, with an ``ATOL`` floor for values that are roundoff.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-12

LEDGER_NUMBERS = ("kappa", "eps", "kappa1", "eps1", "delta_sigma", "kappa_sigma", "eps_sigma", "L_G")
LEDGER_COUNTS = ("d_max", "r_sigma", "p", "g_max", "enumeration_truncated")
SAMPLE_COLUMNS = ("dist_lower", "dist_upper", "grad_norm", "F", "ratio")


def report_name(argv) -> str:
    """File stem the CLI writes its report under, for commands with a report."""
    kind = argv[0]
    if kind == "counterexample":
        return f"counterexample-{argv[argv.index('--kind') + 1]}"
    return {"verify-eb": "verify-eb", "verify-plqg": "verify-plqg",
            "train": "train-summary", "reproduce-s4": "section4"}.get(kind, "")


def run(main, argv) -> tuple[int | None, str, str]:
    """Call the CLI in-process; return (exit code, stdout, error).

    Any exception, ``SystemExit`` included, is caught and returned as the
    error text with exit code ``None``.
    """
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        return None, out.getvalue(), f"SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception as exc:  # a failed command must not stop the benchmark
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), ""


def _sample_sums(samples) -> dict:
    return {f"sum_{c}": math.fsum(s[c] for s in samples) for c in SAMPLE_COLUMNS}


def extract(argv, code: int, stdout: str, outdir: Path) -> dict:
    """Outcome of one finished command, from its stdout and report files."""
    kind = argv[0]
    exact: dict = {"exit": code}
    num: dict = {}
    if kind == "roots":
        rows = json.loads(stdout)["roots"]
        exact["degenerate"] = [r["degenerate"] for r in rows]
        num["roots"] = [r["root"] for r in rows]
    elif kind == "check-assumptions":
        rep = json.loads(stdout)
        exact.update({k: rep[k] for k in ("assumption1", "assumption2", "violated_indices")})
        num["margins"] = rep["margins"]
    elif kind == "constants":
        if code == 0:
            led = json.loads(stdout)
            exact.update({k: led[k] for k in LEDGER_COUNTS})
            num.update({k: led[k] for k in LEDGER_NUMBERS})
            # Every other constant enters through one sum of logs, which keeps
            # the reference small and still moves when any constant moves.
            values = [v for k, v in led.items() if k not in LEDGER_COUNTS]
            finite = [abs(v) for v in values if math.isfinite(v) and v != 0.0]
            exact["ledger_nonfinite_or_zero"] = len(values) - len(finite)
            num["ledger_log_sum"] = math.fsum(math.log(v) for v in finite)
    else:
        rep = json.loads((outdir / f"{report_name(argv)}.json").read_text())
        if kind == "train":
            exact.update({k: rep[k] for k in ("n_steps", "termination", "monotone")})
            num.update({k: rep[k] for k in ("f_initial", "f_final", "grad_sq_final", "rate")})
        elif kind == "reproduce-s4":
            exact["rows"] = [[r["depth"], r["init"], r["n_steps"], r["termination"]] for r in rep["rows"]]
            num["rows"] = [[r["f_center"], r["f_end"], r["rate"], r["r_squared"]] for r in rep["rows"]]
        else:
            exact.update({"verdict": rep["verdict"], "tags": rep["tags"], "samples": len(rep["samples"])})
            if "regime_source" in rep["notes"]:
                exact["regime_source"] = rep["notes"]["regime_source"]
            num.update({k: v for k, v in sorted(rep["fitted"].items()) if k != "min_gap_sampled"})
            num.update(rep["constants"])
            num.update(_sample_sums(rep["samples"]))
    return {"exact": exact, "num": num}


def _close(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if a is None or b is None:
        return a is b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def differences(got: dict, want: dict) -> list[str]:
    """Human-readable list of the fields where ``got`` departs from ``want``."""
    diffs = []
    for k, v in want["exact"].items():
        if got["exact"].get(k, "<missing>") != v:
            diffs.append(f"{k}: {got['exact'].get(k, '<missing>')!r} != {v!r}")
    for k, v in want["num"].items():
        if k not in got["num"] or not _close(got["num"][k], v):
            diffs.append(f"{k}: {got['num'].get(k, '<missing>')!r} !~ {v!r}")
    return diffs
