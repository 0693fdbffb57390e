"""Span tracing from outside the package, and the per-layer metrics it yields.

``Tracer.install`` wraps the public functions listed in ``TRACED`` at every
binding of them in the loaded ``deeplinear`` modules (the defining module
and every module that imported the name), so calls across and within layers
both open a span.  A span is ``[name, start, end, parent index, command
index]``; spans stay in memory and are written out by the caller.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict

# module -> the public functions the CLI commands reach, each mapped to the
# layer group its self time and call count are charged to.
TRACED = {
    "cli": {"main": "cli"},
    "verify": {
        "verify_error_bound": "verify",
        "verify_pl_qg": "verify",
        "fit_counterexample_scaling": "verify",
        "counterexample_family": "verify",
    },
    "critical": {
        "distance_to_critical_set": "set_distance",
        "distance_to_component": "projection",
        "mirsky_lower_bound": "lower_bound",
        "solve_scalar_equation": "root_solve",
        "enumerate_sigma_profiles": "enumerate",
        "profile_from_choices": "construct",
        "optimal_profile": "construct",
        "zero_profile": "construct",
        "construct_critical_point": "construct",
        "sample_random_params": "construct",
        "identity_params": "construct",
        "singular_direction": "construct",
        "tangent_basis": "construct",
    },
    "spectrum": {"analyze_target": "analyze", "build_root_value_set": "root_value_set"},
    "constants": {"compute_ledger": "ledger", "check_assumptions": "assumption"},
    # grad_g, grad_norm_* and loss_g all evaluate through these two, so each
    # gradient or loss evaluation opens exactly one span.
    "network": {"grad_f": "grad", "loss_f": "loss"},
    "training": {
        "train": "loop",
        "value_and_grad": "kernel",
        "estimate_linear_rate": "rate_fit",
        "reproduce_section4": "s4",
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cmd = -1
        self.returns: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.returns.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock, returns = self.spans, self.stack, time.perf_counter, self.returns

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cmd]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            keep = KEEP_RETURNS.get(name)
            if keep is not None:
                try:
                    returns[name].append(keep(result))
                except AttributeError:  # the return type changed shape
                    pass
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for k, m in sys.modules.items() if k == "deeplinear" or k.startswith("deeplinear.")]
        for mod_name, funcs in TRACED.items():
            module = sys.modules.get(f"deeplinear.{mod_name}")
            for func in funcs:
                orig = getattr(module, func, None) if module else None
                if orig is None:
                    self.missing.append(f"{mod_name}.{func}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{func}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()


def _verify_stats(report) -> tuple:
    ratios = [s.dist_upper / s.dist_lower for s in report.samples if s.dist_lower > 0]
    return report.kind, len(report.samples), report.notes.get("regime_source"), ratios


KEEP_RETURNS = {
    "critical.distance_to_component": lambda r: (r.sweeps, r.converged),
    "critical.enumerate_sigma_profiles": lambda r: len(r.profiles),
    "training.train": lambda r: r.n_steps,
    "verify.verify_error_bound": _verify_stats,
    "verify.verify_pl_qg": _verify_stats,
}

GROUP = {f"{mod}.{func}": group for mod, funcs in TRACED.items() for func, group in funcs.items()}


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    k = (len(values) - 1) * q
    lo, hi = math.floor(k), math.ceil(k)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        g = GROUP[name]
        calls[g] += 1
        self_s[g] += end - start - child[i]
        total_s[g] += end - start
        durations[g].append(end - start)

    ret = tracer.returns
    proj = ret["critical.distance_to_component"]
    sweeps = [s for s, _ in proj]
    sweep_reports = ret["verify.verify_error_bound"] + ret["verify.verify_pl_qg"]
    ratios = [x for rep in sweep_reports for x in rep[3]]
    steps = sum(ret["training.train"])
    return {
        "critical.projections": calls["projection"],
        "critical.projection_self_s": self_s["projection"],
        "critical.projection_sweeps_p50": statistics.median(sweeps) if sweeps else 0,
        "critical.projection_sweeps_max": max(sweeps, default=0),
        "critical.projection_unconverged": sum(1 for _, ok in proj if not ok),
        "critical.projection_useful_ratio": calls["set_distance"] / calls["projection"] if calls["projection"] else 0.0,
        "critical.lower_bound_calls": calls["lower_bound"],
        "critical.lower_bound_self_s": self_s["lower_bound"],
        "critical.set_distance_calls": calls["set_distance"],
        "critical.set_distance_ms_p50": 1e3 * _pct(durations["set_distance"], 0.5),
        "critical.set_distance_ms_p99": 1e3 * _pct(durations["set_distance"], 0.99),
        "critical.bracket_ratio_p50": _pct(ratios, 0.5),
        "critical.root_solve_calls": calls["root_solve"],
        "critical.root_solve_self_s": self_s["root_solve"],
        "critical.root_solve_us_p50": 1e6 * _pct(durations["root_solve"], 0.5),
        "critical.enumerate_self_s": self_s["enumerate"],
        "critical.profiles_enumerated": sum(ret["critical.enumerate_sigma_profiles"]),
        "critical.construct_self_s": self_s["construct"],
        "spectrum.analyze_self_s": self_s["analyze"],
        "spectrum.root_value_set_self_s": self_s["root_value_set"],
        "constants.ledger_calls": calls["ledger"],
        "constants.ledger_self_s": self_s["ledger"],
        "constants.assumption_self_s": self_s["assumption"],
        "network.grad_calls": calls["grad"],
        "network.grad_self_s": self_s["grad"],
        "network.grad_us_p50": 1e6 * _pct(durations["grad"], 0.5),
        "training.kernel_calls": calls["kernel"],
        "training.kernel_us_p50": 1e6 * _pct(durations["kernel"], 0.5),
        "training.steps": steps,
        "training.loop_self_s": self_s["loop"],
        "training.step_us": 1e6 * total_s["loop"] / steps if steps else 0.0,
        "training.rate_fit_self_s": self_s["rate_fit"],
        "verify.samples": sum(rep[1] for rep in sweep_reports),
        "verify.self_s": self_s["verify"],
        "verify.regime_fallback_share": (
            sum(1 for rep in sweep_reports if rep[2] == "separation-fallback") / len(sweep_reports)
            if sweep_reports else 0.0
        ),
        "cli.commands": calls["cli"],
        "cli.self_s": self_s["cli"],
    }
