"""Empirical verification of the local landscape inequalities.

Radius sweeps around constructed critical points measure how the distance to
the critical set compares with the gradient norm (error bound), how the
gradient norm controls suboptimality (PL) and suboptimality controls squared
distance (quadratic growth).  Degenerate instances are probed along explicit
one-parameter families whose gradient norm collapses at a known polynomial
order, and gradient-descent trajectories are checked against the standard
sufficient-decrease / cost-to-go / safeguard conditions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import critical
from .constants import compute_ledger, excluded_lambda
from .critical import (
    CriticalPoint,
    SigmaProfile,
    assemble,
    construct_critical_point,
    distance_to_critical_set,
    identity_params,
    layer_singular_values,
    mirsky_lower_bound,
    profile_from_choices,
    singular_direction,
    tangent_basis,
)
from .network import (
    DimChain,
    RegParams,
    WeightStack,
    grad_g,
    loss_f,
    loss_g,
    uniform_companion,
    value_and_grad,
)
from .spectrum import Instance
from .util import fit_line, is_number

PERTURBATION_MODES = ("gaussian-all-layers", "singular-direction", "tangent-removed")


class CenterNotCriticalError(ValueError):
    """The sweep center does not have a (numerically) vanishing gradient."""


@dataclass
class RadiusSweepConfig:
    radii: tuple[float, ...] = tuple(float(r) for r in np.geomspace(1e-5, 1e-1, 9))
    samples_per_radius: int = 64
    seed: int = 0
    mode: str = "gaussian-all-layers"

    def __post_init__(self):
        radii = tuple(self.radii)
        if not radii:
            raise ValueError("radii must not be empty")
        for r in radii:
            if not (is_number(r) and math.isfinite(r) and r > 0):
                raise ValueError(f"radii must be finite and positive numbers, got {r!r}")
        self.radii = tuple(sorted(float(r) for r in radii))
        if len(set(self.radii)) < len(self.radii):
            raise ValueError(f"radii must be distinct, got {self.radii}")
        n = self.samples_per_radius
        if not is_number(n, numbers.Integral) or n < 1:
            raise ValueError(f"samples_per_radius must be an integer >= 1, got {n!r}")
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(f"unknown perturbation mode {self.mode!r}")


@dataclass
class SweepSample:
    radius: float
    dist_lower: float
    dist_upper: float
    grad_norm: float
    F: float  # the swept objective's value: F, or G in a G sweep
    ratio: float
    in_regime: bool


@dataclass
class VerificationReport:
    kind: str
    verdict: str
    tags: list[str] = field(default_factory=list)
    samples: list[SweepSample] = field(default_factory=list)
    per_radius: list[dict] = field(default_factory=list)
    fitted: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _degeneracy_tags(slope: float) -> list[str]:
    """Tags for a log-log slope within 0.05 of a cubic (3) or quadratic (2) degeneracy."""
    orders = ((3.0, "cubic-degeneracy"), (2.0, "quadratic-degeneracy"))
    return [tag for order, tag in orders if abs(slope - order) <= 0.05]


def _grad_and_loss(stack, target_matrix, reg, target):
    """Gradient norm and loss, one kernel call; per sample for a batched stack."""
    if target != "F":
        target_matrix, reg = uniform_companion(target_matrix, reg)
    value, grad = value_and_grad(stack, None, target_matrix, reg)
    return grad.norm(), value


def _make_sampler(center: CriticalPoint, inst, cfg):
    """``draw(rng, count)``: ``count`` unit directions as one batched stack.

    Its stream and directions are those of ``count`` one-sample draws; each
    singular direction is built once, and a draw gathers its rows.
    """
    n = center.stack.flat.shape[-1]

    def unit(flat):
        e = center.stack.like(flat)
        return e.scale(1.0 / e.norm())

    if cfg.mode == "gaussian-all-layers":
        return lambda rng, count: unit(rng.standard_normal((count, n)))
    if cfg.mode == "singular-direction":
        d_min = min(center.stack.dims[0], center.stack.dims[-1])
        directions = singular_direction(center, range(d_min))
        return lambda rng, count: directions[[int(rng.integers(d_min)) for _ in range(count)]]
    # tangent-removed: project each Gaussian draw off the component's tangent space
    basis = tangent_basis(center, inst.spectrum)

    def draw(rng, count):
        flat = rng.standard_normal((count, n))
        return unit(flat - (basis.T @ (basis @ flat[..., None]))[..., 0])

    return draw


def _error_bound(center, ledger) -> tuple[str, float, float]:
    """The swept objective's error-bound constant, its value and the radius
    within which it holds: kappa1 within eps1 for F, kappa within eps for G."""
    if center.target == "F":
        return "kappa1", ledger.kappa1, ledger.eps1
    return "kappa", ledger.kappa, ledger.eps


def _regime_cutoff(center, inst, cfg, ledger) -> tuple[float, str]:
    geometric = inst.delta_sigma / 3.0
    if ledger is not None:
        cut = min(_error_bound(center, ledger)[2], geometric)
        if sum(1 for r in cfg.radii if r <= cut) >= 2:
            return cut, "theory"
        # The closed-form radius is far below any usable perturbation size;
        # fall back to the component-separation scale.
        return geometric, "separation-fallback"
    return geometric, "separation"


def _sweep(center, inst, cfg):
    """The steps both sweeps share, from the center check to the samples, on
    the objective (F or G) that ``center`` was built for.

    The samples of every radius are drawn, projected and differentiated as
    one radius-major batch, cut into chunks of at most
    ``critical.BATCH_ENTRIES`` parameters but never fewer samples than one
    radius has, so a sweep makes at most one set-distance call per radius;
    the chunking changes no reported number.

    Returns the ledger (None when an assumption fails), the center's loss,
    the samples with ``in_regime`` marked, the samples grouped by radius and
    ``finish``.  ``finish(kind, verdict, tags, per_radius, fitted, constants,
    notes)`` appends the closing tags and returns the report, its notes
    extended by the regime cutoff and source, assumption 2 and the mode: a
    sweep with an unconverged projection cannot pass, and one over a
    truncated profile enumeration is tagged; the verdict stands.
    """
    target = center.target
    gnorm, f_center = _grad_and_loss(center.stack, inst.target, inst.reg, target)
    if gnorm > 1e-8 * (1.0 + float(np.linalg.norm(inst.target))):
        raise CenterNotCriticalError(
            f"sweep center has gradient norm {gnorm}, not a critical point"
        )
    ledger = compute_ledger(inst, center.profile) if inst.assumptions.ok else None
    cutoff, regime_source = _regime_cutoff(center, inst, cfg, ledger)
    rng = np.random.default_rng(cfg.seed)
    draw = _make_sampler(center, inst, cfg)
    # One row per sample, radius-major, with the numbers of its own 2-D call.
    radii = np.repeat(cfg.radii, cfg.samples_per_radius)
    n = center.stack.flat.shape[-1]
    rows = max(cfg.samples_per_radius, critical.BATCH_ENTRIES // n)
    samples = []
    converged = True
    for start in range(0, len(radii), rows):
        chunk = radii[start : start + rows]
        w = center.stack + draw(rng, len(chunk)).scale(chunk)
        sds = distance_to_critical_set(w, inst, target=target)
        gnorms, lvals = _grad_and_loss(w, inst.target, inst.reg, target)
        for radius, sd, gnorm, lval in zip(chunk.tolist(), sds, gnorms.tolist(), lvals.tolist()):
            converged = converged and sd.converged
            ratio = sd.distance / gnorm if gnorm > 0 else math.inf
            in_regime = radius <= cutoff
            samples.append(
                SweepSample(radius, sd.lower_bound, sd.distance, gnorm, lval, ratio, in_regime)
            )
    by_radius = [(r, [s for s in samples if s.radius == r]) for r in cfg.radii]

    def finish(kind, verdict, tags, per_radius, fitted, constants, notes):
        if not converged:
            verdict = "FAIL"
            tags.append("projection-unconverged")
        if inst.profiles.truncated:
            tags.append("profiles-truncated")
        notes.update(regime_cutoff=cutoff, regime_source=regime_source,
                     assumption2=inst.assumptions.assumption2, mode=cfg.mode)
        return VerificationReport(kind, verdict, tags, samples, per_radius, fitted, constants, notes)

    return ledger, f_center, samples, by_radius, finish


def verify_error_bound(
    center: CriticalPoint,
    inst: Instance,
    cfg: RadiusSweepConfig | None = None,
) -> VerificationReport:
    """Radius sweep testing dist(W, critical set) <= kappa * ||grad||.

    The verdict compares the worst distance/gradient ratio at the smallest
    radius against the worst ratio at the largest in-regime radius; a bounded
    quotient (factor 10) means no blow-up as the radius shrinks.  Samples
    beyond the regime cutoff are recorded but never judged, and a sweep with
    an unconverged projection cannot pass.  A truncated profile enumeration
    (the distances and the ledger then see only part of the critical set) is
    tagged ``profiles-truncated``; the verdict stands.
    """
    cfg = cfg or RadiusSweepConfig()
    ledger, _, samples, by_radius, finish = _sweep(center, inst, cfg)
    per_radius = []
    for radius, rs in by_radius:
        per_radius.append(
            {
                "radius": radius,
                "max_ratio": max(s.ratio for s in rs),
                "min_ratio": min(s.ratio for s in rs),
                "in_regime": rs[0].in_regime,
            }
        )

    in_reg = [p for p in per_radius if p["in_regime"]]
    tags = []
    verdict = "FAIL"
    stability = math.nan
    if len(in_reg) >= 2:
        small, large = in_reg[0], in_reg[-1]
        stability = small["max_ratio"] / large["max_ratio"]
        verdict = "PASS" if stability <= 10.0 else "FAIL"
    else:
        tags.append("no-in-regime-radii")

    xs = [s.dist_upper for s in samples if s.in_regime and s.grad_norm > 0]
    ys = [s.grad_norm for s in samples if s.in_regime and s.grad_norm > 0]
    slope, r2 = fit_line(np.log(xs), np.log(ys)) if len(xs) >= 2 else (math.nan, math.nan)
    fitted = {
        "stability_ratio": stability,
        "grad_vs_dist_slope": slope,
        "grad_vs_dist_r2": r2,
        "max_ratio_overall": max(s.ratio for s in samples),
    }

    kappa_checked = 0
    if ledger is not None:
        name, kappa, eps = _error_bound(center, ledger)
        ratios = [s.ratio for s in samples if s.radius <= eps]
        kappa_checked = len(ratios)
        if not all(r <= kappa * (1 + 1e-9) for r in ratios):
            verdict = "FAIL"
            tags.append(f"{name}-exceeded")

    if not inst.assumptions.assumption2:
        tags += ["assumption2-violated", *_degeneracy_tags(slope)]

    constants = {}
    if ledger is not None:
        constants = {"kappa1": ledger.kappa1, "eps1": ledger.eps1,
                     "kappa": ledger.kappa, "eps": ledger.eps}
    notes = {
        "assumption1": inst.assumptions.assumption1,
        "kappa_checked_samples": kappa_checked,
        "profile_truncated": inst.profiles.truncated,
    }
    return finish("error-bound", verdict, tags, per_radius, fitted, constants, notes)


def verify_pl_qg(
    center: CriticalPoint,
    inst: Instance,
    cfg: RadiusSweepConfig | None = None,
) -> VerificationReport:
    """Fit the gradient-dominance and quadratic-growth constants around a center.

    mu1 is the worst-case ||grad||^2 / (F - F*) over samples above the center,
    mu2 the worst-case dist^2 / (F - F*).  The quadratic-growth fit only
    applies when sampling confirms the center is a local minimizer.  A sweep
    with an unconverged projection cannot pass, and one over a truncated
    profile enumeration is tagged ``profiles-truncated``.
    """
    cfg = cfg or RadiusSweepConfig()
    ledger, f_center, samples, by_radius, finish = _sweep(center, inst, cfg)
    loss = loss_f if center.target == "F" else loss_g

    floor = 1e-15 * (1.0 + abs(f_center))
    min_gap = min(s.F - f_center for s in samples)
    # Random draws can miss a low-dimensional descent cone, so probe every
    # singular coordinate of the construction explicitly as well.
    d_min = min(center.stack.dims[0], center.stack.dims[-1])
    units = singular_direction(center, range(d_min))
    signed = units.like(np.concatenate([units.flat, -units.flat]))
    probe_losses = loss(center.stack + signed.scale(cfg.radii[0]), inst.target, inst.reg)
    min_gap = min(min_gap, float(probe_losses.min()) - f_center)
    is_minimizer = min_gap >= -1e-10

    per_radius = []
    for radius, rs in by_radius:
        gaps = [(s.F - f_center, s) for s in rs]
        usable = [(g, s) for g, s in gaps if g > floor]
        mu1 = min((s.grad_norm**2 / g for g, s in usable), default=math.nan)
        mu2 = max((s.dist_upper**2 / g for g, s in usable), default=math.nan)
        per_radius.append(
            {
                "radius": radius,
                "mu1": mu1,
                "mu2": mu2,
                "in_regime": rs[0].in_regime,
                "n_above_center": len(usable),
            }
        )

    in_reg = [p for p in per_radius if p["in_regime"] and not math.isnan(p["mu1"])]
    tags = []
    verdict = "FAIL"
    mu1_fit = math.nan
    mu2_fit = math.nan
    stability = math.nan
    if len(in_reg) >= 2:
        mu1_fit = min(p["mu1"] for p in in_reg)
        mu2_fit = max(p["mu2"] for p in in_reg)
        stability = in_reg[-1]["mu1"] / in_reg[0]["mu1"]
        ok = mu1_fit > 0 and stability <= 10.0
        if is_minimizer:
            ok = ok and math.isfinite(mu2_fit)
        verdict = "PASS" if ok else "FAIL"
    else:
        tags.append("no-in-regime-radii")
    if not is_minimizer:
        tags.append("not-a-minimizer")

    fitted = {
        "mu1": mu1_fit,
        "mu2": mu2_fit,
        "mu1_stability_ratio": stability,
        "f_center": f_center,
        "min_gap_sampled": min_gap,
    }
    constants = {"kappa1": ledger.kappa1, "eps1": ledger.eps1} if ledger is not None else {}
    return finish("pl-qg", verdict, tags, per_radius, fitted, constants,
                  {"qg_applicable": is_minimizer})


@dataclass
class BalanceCheck:
    grad_norm: float
    residuals: list[float]
    bound: float
    drift_max: list[float]
    drift_bound: float
    precondition_ok: bool
    mirsky_lower: float
    passed: bool


def check_balance_inequalities(
    stack: WeightStack, profile: SigmaProfile, inst: Instance
) -> BalanceCheck:
    """Near-balance of adjacent Gram matrices under the uniform regularizer.

    Close to a nonzero component, each ||W_{l+1}^T W_{l+1} - W_l W_l^T||_F is
    bounded by (3 sqrt(2) sigma*_max / (4 lam)) ||grad||_F, and matched
    singular values of adjacent layers drift by at most that bound divided by
    sigma*_min.  A violated proximity precondition is reported, not raised.
    """
    reg, depth = inst.reg, inst.depth
    lam = reg.lambda_prod
    gnorm = grad_g(stack, inst.target, reg).norm()
    lower = float(mirsky_lower_bound(stack, [profile.sigma], reg, target="G")[0])
    pre_ok = (not profile.is_zero) and lower < profile.sigma_min_pos / 2.0

    residuals = []
    for l in range(depth - 1):
        a = stack.layers[l + 1].T @ stack.layers[l + 1]
        b = stack.layers[l] @ stack.layers[l].T
        residuals.append(float(np.linalg.norm(a - b)))
    bound = 3.0 * math.sqrt(2.0) * profile.sigma_max / (4.0 * lam) * gnorm

    r_sig = profile.r_sigma
    drifts = []
    svals = layer_singular_values(stack)
    for l in range(depth - 1):
        top = min(r_sig, len(svals[l]), len(svals[l + 1]))
        if top:
            drifts.append(float(np.max(np.abs(svals[l][:top] - svals[l + 1][:top]))))
        else:
            drifts.append(0.0)
    drift_bound = (
        bound / profile.sigma_min_pos if not profile.is_zero else math.inf
    )

    slack = 1.0 + 1e-9
    passed = (
        pre_ok
        and all(r <= bound * slack for r in residuals)
        and all(d <= drift_bound * slack for d in drifts)
    )
    return BalanceCheck(
        grad_norm=gnorm,
        residuals=residuals,
        bound=bound,
        drift_max=drifts,
        drift_bound=drift_bound,
        precondition_ok=pre_ok,
        mirsky_lower=lower,
        passed=passed,
    )


# Each failure family's kind and its depth.
COUNTEREXAMPLE_KINDS = {"l2-lambda-eq-y2": 2, "lge3-phi-prime-zero": 3}


@dataclass
class CounterexampleFamily:
    """One-parameter family W(t) along which the error bound provably fails.

    ``point(t)`` shifts the stationary value of every (1 x 1) layer by t while
    keeping the construction frames fixed; the gradient norm then collapses
    like t^3 (tangential zero root at the excluded weight, 2 layers) or t^2
    (tangential positive root, 3+ layers) while the distance stays linear.
    """

    inst: Instance
    center: CriticalPoint
    expected_slope: float

    @property
    def depth(self) -> int:
        return self.inst.depth

    def point(self, t: float | np.ndarray) -> WeightStack:
        """W(t); a 1-D array of t gives one batched stack, row k ``point(float(t[k]))``."""
        t = np.asarray(t, dtype=float)
        sigma_mats = [np.broadcast_to(s, t.shape + s.shape).copy() for s in self.center.sigma_mats]
        for s in sigma_mats:
            s[..., 0, 0] += t
        return assemble(self.center.left, sigma_mats, self.center.right)

    def predicted_grad_norm(self, t: float) -> float:
        lam = self.inst.reg.lambda_prod
        y = self.inst.spectrum.y_top
        base = self.center.profile.sigma_eq[0]
        s = base + t
        L = self.depth
        f = s ** (2 * L - 1) - math.sqrt(lam) * y * s ** (L - 1) + lam * s
        return 2.0 * math.sqrt(L) * abs(f)

    def dist_lower(self, t: float) -> float:
        return math.sqrt(self.depth) * abs(t)

    def measure(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient norm, loss and distance to the center at each t of a 1-D
        array: one batched stack, one kernel call and one distance pass."""
        w = self.point(t)
        grads, losses = _grad_and_loss(w, self.inst.target, self.inst.reg, "G")
        return grads, losses, (w - self.center.stack).norm()


def counterexample_family(kind: str, y: float = 2.0) -> CounterexampleFamily:
    """Instance with the excluded regularization weight and its failure family.

    The instance is scalar (every width 1, target ``y``) and the center is
    built with identity frames.
    """
    if kind not in COUNTEREXAMPLE_KINDS:
        raise ValueError(f"kind must be one of {tuple(COUNTEREXAMPLE_KINDS)}")
    depth = COUNTEREXAMPLE_KINDS[kind]
    lam = excluded_lambda(y, depth)
    reg = RegParams.uniform(lam ** (1.0 / depth), depth)
    inst = Instance(DimChain((1,) * (depth + 1)), reg, y * np.eye(1))
    choices = [0] * inst.spectrum.rank
    if kind == "l2-lambda-eq-y2":
        expected = 3.0  # the zero root is the only root here
    else:
        choices[0] = -1  # the tangential positive root, largest by construction
        expected = 2.0
    profile = profile_from_choices(inst, choices)
    center = construct_critical_point(profile, identity_params(inst), inst, target="G")
    return CounterexampleFamily(inst, center, expected)


def build_counterexample(kind: str, t: float, y: float = 2.0) -> WeightStack:
    """The perturbed point W(t) of the failure family (see the family class)."""
    if not t > 0:
        raise ValueError("t must be positive")
    family = counterexample_family(kind, y=y)
    return family.point(t)


def fit_counterexample_scaling(
    kind: str,
    y: float = 2.0,
    t_values: tuple[float, ...] | None = None,
) -> VerificationReport:
    """Log-log slope of the gradient norm against the distance along the family."""
    family = counterexample_family(kind, y=y)
    if t_values is None:
        t_values = tuple(float(t) for t in np.geomspace(1e-3, 1e-1, 13))
    grads, losses, uppers = family.measure(np.asarray(t_values, dtype=float))
    samples = [
        SweepSample(t, family.dist_lower(t), up, g, lval, up / g if g > 0 else math.inf, True)
        for t, up, g, lval in zip(t_values, uppers.tolist(), grads.tolist(), losses.tolist())
    ]
    slope, r2 = fit_line(np.log(uppers), np.log(grads)) if len(samples) >= 2 else (math.nan, math.nan)
    ok = abs(slope - family.expected_slope) <= 0.05
    tags = ["fail-by-design", *_degeneracy_tags(slope)]
    return VerificationReport(
        kind=f"counterexample:{kind}",
        verdict="PASS" if ok else "FAIL",
        tags=tags,
        samples=samples,
        fitted={
            "slope": slope,
            "r2": r2,
            "expected_slope": family.expected_slope,
        },
        notes={"lambda": family.inst.reg.lambda_prod, "y": y, "depth": family.depth},
    )


@dataclass
class FirstOrderConditionsReport:
    sufficient_decrease_constant: float
    sufficient_decrease_held: bool
    cost_to_go_constant: float
    cost_to_go_held: bool
    safeguard_constant: float
    safeguard_held: bool
    tail_start: int
    n_steps: int
    n_distance_points: int


def check_first_order_conditions(trajectory, inst: Instance) -> FirstOrderConditionsReport:
    """Fit the three algorithmic constants on the second half of a descent trajectory.

    Sufficient decrease: F(W^k) - F(W^{k+1}) >= c ||step||^2 with the fitted
    c the worst step.  Safeguard: ||grad|| <= c ||step|| (exactly 1/lr for
    plain gradient descent).  Cost-to-go compares suboptimality against
    squared distance to the critical set at the tail's snapshots, at most
    six of them, evenly spaced.
    """
    f_vals = np.asarray(trajectory.f_values)
    step_sq = np.asarray(trajectory.step_norm_sq)
    grad_sq = np.asarray(trajectory.grad_sq)
    n = len(step_sq)
    if n < 3:
        raise ValueError("trajectory too short: need at least 3 steps")
    tail_start = int(n * 0.5)
    tail = range(tail_start, n)

    decreases = [(f_vals[k] - f_vals[k + 1]) for k in tail]
    steps = [step_sq[k] for k in tail]
    ratios = [float(d / s) for d, s in zip(decreases, steps) if s > 0]
    c_dec = min(ratios) if ratios else math.nan
    dec_held = bool(ratios) and bool(c_dec > 0)

    guard = [float(math.sqrt(grad_sq[k] / step_sq[k])) for k in tail if step_sq[k] > 0]
    c_guard = max(guard) if guard else math.nan
    guard_held = bool(guard) and math.isfinite(c_guard)

    snaps = [(k, s) for k, s in trajectory.snapshots if tail_start <= k < n]
    if len(snaps) > 6:
        idx = np.linspace(0, len(snaps) - 1, 6).astype(int)
        snaps = [snaps[i] for i in idx]
    # The final iterate and the snapshots are projected in one batch.
    end_sd, *snap_sds = distance_to_critical_set(
        WeightStack.batch([trajectory.final] + [stack for _, stack in snaps]), inst, target="F"
    )
    f_star = loss_f(end_sd.nearest, inst.target, inst.reg)
    c2_vals = []
    for (k, _), sd in zip(snaps, snap_sds):
        denom = sd.distance**2 + step_sq[k]
        gap = f_vals[k + 1] - f_star
        if denom > 0:
            c2_vals.append(gap / denom)
    c_cost = max(c2_vals) if c2_vals else math.nan
    cost_held = bool(c2_vals) and all(v < math.inf for v in c2_vals)

    return FirstOrderConditionsReport(
        sufficient_decrease_constant=float(c_dec),
        sufficient_decrease_held=dec_held,
        cost_to_go_constant=float(c_cost),
        cost_to_go_held=cost_held,
        safeguard_constant=float(c_guard),
        safeguard_held=guard_held,
        tail_start=tail_start,
        n_steps=n,
        n_distance_points=len(snaps),
    )
