"""Gradient descent on the regularized losses and their nonlinear extensions.

Plain full-batch gradient descent with the joint stopping rule
``grad_sq <= tol`` and ``|F change| <= tol`` reproduces the convergence
experiments: linear rates near critical points, escape from two- and
three-layer saddles, trapping at depths 4 and 6.  The extended objectives
add an input matrix, per-layer biases, and elementwise activations; every
objective is evaluated by the one gradient kernel, :func:`network.value_and_grad`.
Runs of one shape and step size are stepped together by :func:`train_runs`,
one kernel call per step for all of them.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .critical import optimal_profile, saddle_profile, sample_random_params, \
    construct_critical_point
from .network import (
    ACTIVATIONS,
    DimChain,
    RegParams,
    ShapeError,
    WeightStack,
    loss_f,
    objective,
    value_and_grad,
)
from .spectrum import Instance
from .util import fit_line, is_number, named_seed, named_stream

MODEL_KINDS = ("linear", "linear-with-bias", "nonlinear")
INIT_SCHEMES = ("near-critical", "uniform-fan-based", "gaussian")


class DivergenceError(RuntimeError):
    def __init__(self, message, last_finite=None):
        super().__init__(message)
        self.last_finite = last_finite


class InsufficientDataError(ValueError):
    """Not enough usable points for the requested fit."""


@dataclass
class ModelSpec:
    """Objective structure: plain product loss, bias terms, or activations."""

    kind: str = "linear"
    activation: str = "identity"
    input_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.kind == "linear" and self.activation != "identity":
            raise ValueError("the linear kind uses the identity activation")
        if self.input_matrix is not None:
            self.input_matrix = np.asarray(self.input_matrix, dtype=float)

    @property
    def with_bias(self) -> bool:
        return self.kind in ("linear-with-bias", "nonlinear")


@dataclass
class TrainConfig:
    learning_rate: float = 4.5e-4
    max_iters: int = 100_000
    grad_sq_tol: float = 1e-6
    fval_change_tol: float = 1e-7
    seed: int = 0
    init: str = "near-critical"
    init_scale: float = 0.01
    log_stride: int = 100

    def __post_init__(self):
        for name in ("learning_rate", "grad_sq_tol", "fval_change_tol"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (is_number(self.init_scale) and math.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ValueError(f"init_scale must be finite and >= 0, got {self.init_scale!r}")
        for name, least in (("max_iters", 0), ("log_stride", 1)):
            value = getattr(self, name)
            if not is_number(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.init not in INIT_SCHEMES:
            raise ValueError(f"init must be one of {INIT_SCHEMES}")


@dataclass
class Trajectory:
    f_values: np.ndarray            # F(W^0), ..., F(W^n): one more than steps
    grad_sq: np.ndarray             # squared gradient norm at W^0 .. W^{n-1}
    step_norm_sq: np.ndarray        # ||W^{k+1} - W^k||^2 per step
    snapshots: list[tuple[int, WeightStack]]
    final: WeightStack
    final_biases: list[np.ndarray] | None
    termination: str
    wall_time: float

    @property
    def n_steps(self) -> int:
        return len(self.step_norm_sq)

    @property
    def is_monotone(self) -> bool:
        """Objective nonincreasing along the run (up to 1e-12 relative).

        Informational: large steps can overshoot without diverging, which is
        flagged here rather than treated as an error.
        """
        f = np.asarray(self.f_values)
        return bool(np.all(np.diff(f) <= 1e-12 * (1.0 + np.abs(f[:-1]))))

    def summary(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "f_initial": float(self.f_values[0]),
            "f_final": float(self.f_values[-1]),
            "grad_sq_final": float(self.grad_sq[-1]) if self.n_steps else math.nan,
            "monotone": self.is_monotone,
            "termination": self.termination,
            "wall_time": self.wall_time,
        }


def _init_state(model, dims: DimChain, cfg: TrainConfig, center: WeightStack | None):
    rng = named_stream(cfg.seed, "init")
    d = dims.dims
    if cfg.init == "near-critical":
        if center is None:
            raise ValueError("near-critical initialization needs a center stack")
        noise = center.like(rng.standard_normal(center.flat.shape))
        layers = (center + noise.scale(cfg.init_scale)).layers
    elif cfg.init == "uniform-fan-based":
        layers = []
        for l in range(dims.depth):
            fan_in, fan_out = d[l], d[l + 1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            layers.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
    else:
        layers = [
            rng.standard_normal((d[l + 1], d[l])) / math.sqrt(d[l])
            for l in range(dims.depth)
        ]
    biases = None
    if model.with_bias:
        biases = []
        for l in range(dims.depth):
            bound = 1.0 / math.sqrt(d[l])
            if cfg.init == "near-critical":
                biases.append(cfg.init_scale * rng.standard_normal(d[l + 1]))
            else:
                biases.append(rng.uniform(-bound, bound, size=d[l + 1]))
    return layers, biases


# The fields a batch of runs shares: one step size and one stopping rule.
SHARED_FIELDS = ("learning_rate", "max_iters", "grad_sq_tol", "fval_change_tol", "log_stride")

# The bytes of iterates a descent ring may hold beyond the two that any
# descent loop holds (the iterate and the next one), and the most steps a
# ring period holds.
RING_BYTES = 256 * 1024
RING_STEPS = 32


class _Ring:
    """The step buffers of a batch of ``rows`` runs of one layout.

    ``iterates`` has C+1 slots of ``(rows, n)``: slot 0 holds the iterate
    before the period, slot 1 + j the iterate of the period's step j, whose
    residual the kernel writes into ``resids[j]``.  The gradient (``grad``)
    and the step, lr times it, are the two halves of one ``(2, rows, n)``
    buffer.  C is as many iterates as fit in ``RING_BYTES``, 1 to
    ``RING_STEPS``: a large layout gets a ring of one step, the two iterates
    of a loop without one.
    """

    def __init__(self, layout: WeightStack, rows: int, resid_shape: tuple[int, int]):
        self.rows, n = rows, layout.flat.shape[-1]
        self.size = min(max(RING_BYTES // (8 * rows * n), 1), RING_STEPS)
        self.iterates = np.empty((self.size + 1, rows, n))
        self.slots = [layout.like(flat) for flat in self.iterates]  # views cut once
        self.resids = np.empty((self.size, rows) + resid_shape)
        moves = np.empty((2, rows, n))
        self.grad, self.step = layout.like(moves[0]), moves[1]
        self._operands = moves[:, :, None, :], moves[:, :, :, None]
        self._dots = np.empty((2, rows, 1, 1))

    def row_dots(self) -> list[float]:
        """Every row's grad_sq, then its step_norm_sq, from one stacked matmul.

        Each equals ``float(row @ row)`` bit for bit: both are one dot product
        per row.  (``einsum`` and a reduce of ``mat * mat`` sum in another order.)
        """
        return np.matmul(*self._operands, out=self._dots).ravel().tolist()

    def row(self, slot: int, row: int) -> WeightStack:
        """A copy of one run's iterate in one slot."""
        return self.slots[slot].like(self.iterates[slot, row].copy())


def train_runs(
    model: ModelSpec,
    target: np.ndarray,
    reg: RegParams,
    cfgs: list[TrainConfig],
    dims: DimChain,
    centers: list[WeightStack | None],
) -> list[Trajectory]:
    """Run gradient descent on R parameter sets of one shape, stepped together.

    Run i starts from ``_init_state`` with ``cfgs[i]`` and ``centers[i]``;
    the runs may differ in seed, init and init_scale but must share the
    fields in ``SHARED_FIELDS`` (else ``ValueError``).  The parameters are
    ``(R, n)`` :class:`WeightStack` buffers, one row per run, so each step
    is one kernel call for every live run, writing the gradient in place.
    Each run stops on its own when both stopping tolerances hold jointly
    (or at ``max_iters``) and is then dropped from the batch; its
    trajectory, snapshots and wall time are its own, and every iterate is
    bit-identical to the run trained alone.  The update is exactly
    W <- W - lr * grad for every entry, which downstream diagnostics rely on
    (the safeguard constant of plain descent is 1/lr).

    A run whose objective becomes non-finite is dropped too; once no run
    is left, the ``DivergenceError`` of the lowest-index diverged run is
    raised, which is the error the runs trained one by one would raise.
    """
    if not cfgs or len(cfgs) != len(centers):
        raise ValueError("need one center per config, at least one run")
    for name in SHARED_FIELDS:
        if len({getattr(cfg, name) for cfg in cfgs}) > 1:
            raise ValueError(f"runs trained together must share {name}")
    target = np.asarray(target, dtype=float)
    x = model.input_matrix
    n_cols = x.shape[1] if x is not None else dims.dims[0]
    if x is not None and x.shape[0] != dims.dims[0]:
        raise ShapeError("input matrix rows must match d_0")
    if target.shape != (dims.dims[-1], n_cols):
        raise ShapeError(
            f"target shape {target.shape} does not match ({dims.dims[-1]}, {n_cols})"
        )

    # The kernel computes only the gradient and the residual; the objective
    # values wait in a ring (see _Ring).  A step is one kernel call, one
    # stacked row-dot call for every run's grad_sq and step_norm_sq, and the
    # update into the next slot.  The values of every pending iterate come
    # from one objective call, a flush: when the ring is full, at max_iters,
    # or when a run's grad_sq is at most grad_sq_tol or not finite, where it
    # may stop (a flush drops it from the batch at once).  The flush replays
    # the steps in order by the rule of a loop that has each value when it
    # steps, so a run's trajectory ends where it stops; a run whose value
    # alone turns non-finite is found at the next flush, its last finite
    # iterate still in the ring.  Snapshots and final and last finite
    # iterates are copies of ring rows.
    packed = [WeightStack(*_init_state(model, dims, cfg, c)) for cfg, c in zip(cfgs, centers)]
    layout = packed[0]
    weights = layout.reg_rows(reg)[1]
    resid_shape = (dims.dims[-1], n_cols)
    ring = _Ring(layout, len(cfgs), resid_shape)
    np.stack([p.flat for p in packed], out=ring.iterates[1])
    cfg = cfgs[0]
    lr, grad_tol, f_tol = cfg.learning_rate, cfg.grad_sq_tol, cfg.fval_change_tol
    live = list(range(len(cfgs)))  # the run held in each row of the ring
    f_hist: list[list[float]] = [[] for _ in cfgs]
    g_hist: list[list[float]] = [[] for _ in cfgs]
    s_hist: list[list[float]] = [[] for _ in cfgs]
    snapshots: list[list[tuple[int, WeightStack]]] = [[] for _ in cfgs]
    snap_stride = cfg.log_stride
    out: list[Trajectory | None] = [None] * len(cfgs)
    errors: dict[int, DivergenceError] = {}

    def finish(run, final, termination):
        out[run] = Trajectory(
            f_values=np.asarray(f_hist[run]),
            grad_sq=np.asarray(g_hist[run]),
            step_norm_sq=np.asarray(s_hist[run]),
            snapshots=snapshots[run],
            final=final.weights(),
            final_biases=final.biases,
            termination=termination,
            wall_time=time.perf_counter() - t0,
        )

    t0 = time.perf_counter()
    k = k0 = 0  # the iteration of the step, and of the period's first step
    pending: list[list[float]] = []  # the row dots of each step of the period
    stopped = False
    while k < cfg.max_iters:
        j = k - k0
        value_and_grad(ring.slots[j + 1], x, target, reg, model.activation, ring.grad,
                       ring.resids[j])
        np.multiply(lr, ring.grad.flat, out=ring.step)
        dots = ring.row_dots()
        pending.append(dots)
        k += 1
        if j + 1 < ring.size and k < cfg.max_iters and all(
            grad_tol < gsq < math.inf for gsq in dots[:ring.rows]
        ):
            np.subtract(ring.slots[j + 1].flat, ring.step, out=ring.slots[j + 2].flat)
            continue
        f_steps = objective(ring.iterates[1:j + 2], ring.resids[:j + 1], weights, layout.bounds)
        rows = list(range(ring.rows))  # the ring row of each live run
        for i, (f_vals, dots) in enumerate(zip(f_steps.tolist(), pending)):
            it = k0 + i
            keep = []
            for row, run in zip(rows, live):
                f_val = f_vals[row]
                if not math.isfinite(f_val):
                    # the last finite iterate: the previous one, or the start
                    errors[run] = DivergenceError(
                        f"objective became non-finite at iteration {it}",
                        ring.row(i if it else 1, row).weights(),
                    )
                    continue
                f_run, gsq = f_hist[run], dots[row]
                if f_run and gsq <= grad_tol and abs(f_val - f_run[-1]) <= f_tol:
                    f_run.append(f_val)
                    finish(run, ring.row(i + 1, row), "converged")
                    continue
                if it % snap_stride == 0:
                    snapshots[run].append((it, ring.row(i + 1, row).weights()))
                f_run.append(f_val)
                g_hist[run].append(gsq)
                keep.append((row, run))
            if len(keep) < len(rows):
                rows, live = [row for row, _ in keep], [run for _, run in keep]
                if not live or (errors and min(errors) < min(live)):
                    stopped = True  # every run stopped, or none left can raise an earlier error
                    break
            if it % snap_stride == 0 and len(snapshots[live[0]]) > 128:
                snap_stride *= 2
                for run in live:
                    snapshots[run] = snapshots[run][::2]
            for row, run in zip(rows, live):
                s_hist[run].append(dots[ring.rows + row])
        if stopped:
            break
        # The next period starts from the last replayed iterate (slot 0) and
        # its step (slot 1), in a ring of the live rows.
        prev, step = ring.slots[j + 1].flat, ring.step
        if len(rows) < ring.rows:
            prev, step = prev[rows], step[rows]
            ring = _Ring(layout, len(rows), resid_shape)
        ring.iterates[0] = prev
        np.subtract(ring.iterates[0], step, out=ring.iterates[1])
        k0, pending = k, []
    if errors:
        raise errors[min(errors)]
    if live:
        # ran out of iterations: record the final value for a complete series
        f_vals, _ = value_and_grad(ring.slots[1], x, target, reg, model.activation, ring.grad)
        for row, (run, f_val) in enumerate(zip(live, f_vals.tolist())):
            f_hist[run].append(f_val)
            finish(run, ring.row(1, row), "max-iters")
    return out


def train(
    model: ModelSpec,
    target: np.ndarray,
    reg: RegParams,
    cfg: TrainConfig,
    dims: DimChain,
    center: WeightStack | None = None,
) -> Trajectory:
    """Run gradient descent until both stopping tolerances hold jointly.

    A batch of one in :func:`train_runs`, the one descent loop: the same
    iterates, stopping rule and ``DivergenceError`` as every run there.
    """
    return train_runs(model, target, reg, [cfg], dims, [center])[0]


@dataclass
class RateFit:
    rate: float
    r_squared: float


def estimate_linear_rate(traj: Trajectory) -> RateFit:
    """Per-iteration contraction of F(W^k) - F(end), fitted on the tail half.

    Points with gap below 1e-14 carry no signal and are excluded.  The gap to
    the final value bends down over the last ~1/(1-rate) iterations by
    construction, so the fit runs twice: a crude pass estimates the rate,
    which then sets how much of the trailing stretch to discard.
    """
    f = np.asarray(traj.f_values, dtype=float)
    f_end = f[-1]
    gaps = f[:-1] - f_end
    valid = np.nonzero(gaps > 1e-14)[0]
    if len(valid) < 5:
        raise InsufficientDataError("fewer than 5 iterates carry a positive gap")

    def window_fit(indices) -> tuple[float, float]:
        take = max(20, int(len(indices) * 0.5))
        window = indices[-take:]
        window = window[:-3] if len(window) > 3 else window
        if len(window) < 20:
            raise InsufficientDataError(
                f"only {len(window)} usable tail points, need at least 20"
            )
        return fit_line(window.astype(float), np.log(gaps[window]))

    slope, r2 = window_fit(valid)
    if slope < 0:
        # Drop the stretch where the unfitted remainder rho^(n-k) exceeds ~2%.
        cut = int(math.log(0.02) / slope) + 1
        trimmed = valid[valid <= valid[-1] - cut]
        if len(trimmed) >= 23:
            slope, r2 = window_fit(trimmed)
    return RateFit(float(math.exp(slope)), r2)


@dataclass
class Section4Row:
    depth: int
    init: str
    f_center: float
    f_end: float
    rate: float
    r_squared: float
    n_steps: int
    termination: str


def reproduce_section4(depths=(2, 4, 6), seed: int = 0) -> list[Section4Row]:
    """The near-critical-initialization experiment of Section 4, per depth.

    The experiment is fixed: widths 10 -> 32 -> ... -> 32 -> 20, every
    regularization weight 1e-4, a 20 x 10 Gaussian target drawn from
    ``seed``, step 4.5e-4, at most 400,000 steps, and initial noise of scale
    0.01 around a center.  The target is fitted from initializations near an
    optimal component and near a non-optimal one (:func:`saddle_profile`,
    the smallest target singular value dropped).  Two and three layers
    escape the saddle (at depth 3, noise 0.01 exceeds a basin of curvature
    only 2 lambda = 2e-4); the default depths 4 and 6 stay trapped.  The two
    runs of a depth share every shape and the step size, so they are trained
    together by one :func:`train_runs` call.
    """
    rng = named_stream(seed, "instance")
    target = rng.standard_normal((20, 10))
    insts = [  # built first, so a bad depth is refused before any training
        Instance(DimChain((10,) + (32,) * (depth - 1) + (20,)), RegParams.uniform(1e-4, depth), target)
        for depth in depths
    ]
    rows: list[Section4Row] = []
    for inst in insts:
        depth, dims, reg = inst.depth, inst.dims, inst.reg
        centers = {"optimal": optimal_profile(inst), "saddle": saddle_profile(inst)}
        points, cfgs = [], []
        for name, profile in centers.items():
            params = sample_random_params(
                inst, seed=named_seed(seed, f"params-{depth}-{name}")
            )
            points.append(construct_critical_point(profile, params, inst, target="F"))
            cfgs.append(
                TrainConfig(
                    learning_rate=4.5e-4,
                    max_iters=400_000,
                    seed=named_seed(seed, f"init-{depth}-{name}"),
                    init="near-critical",
                    init_scale=0.01,
                    log_stride=200,
                )
            )
        trajs = train_runs(
            ModelSpec(), target, reg, cfgs, dims, [p.stack for p in points]
        )
        for name, center, traj in zip(centers, points, trajs):
            try:
                fit = estimate_linear_rate(traj)
                rate, r2 = fit.rate, fit.r_squared
            except InsufficientDataError:
                rate, r2 = math.nan, math.nan
            rows.append(
                Section4Row(
                    depth=depth,
                    init=name,
                    f_center=loss_f(center.stack, target, reg),
                    f_end=float(traj.f_values[-1]),
                    rate=rate,
                    r_squared=r2,
                    n_steps=traj.n_steps,
                    termination=traj.termination,
                )
            )
    return rows
