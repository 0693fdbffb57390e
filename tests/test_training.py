import json
import math

import numpy as np
import pytest

from deeplinear import (
    DimChain,
    Instance,
    RegParams,
    WeightStack,
    construct_critical_point,
    grad_f,
    loss_f,
    optimal_profile,
    sample_random_params,
)
from deeplinear import cli, training
from deeplinear.training import (
    DivergenceError,
    InsufficientDataError,
    ModelSpec,
    TrainConfig,
    Trajectory,
    _init_state,
    _Ring,
    estimate_linear_rate,
    train,
    train_runs,
)
from deeplinear.util import named_stream
from conftest import list_kernel, random_instance


def test_linear_kind_matches_closed_form_gradient(rng):
    for _ in range(5):
        dims, reg, target = random_instance(rng, depth=3, max_dim=5)
        stack = WeightStack.gaussian(dims, rng)
        value, grads, gbias = list_kernel(
            stack.layers, None, None, target, reg, "identity"
        )
        assert gbias is None
        assert value == pytest.approx(loss_f(stack, target, reg), rel=1e-12)
        closed = grad_f(stack, target, reg)
        for a, b in zip(grads, closed.layers):
            assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))


def _fd_check(layers, biases, x, target, reg, activation, rng, step=1e-5):
    value, gw, gb = list_kernel(layers, biases, x, target, reg, activation)
    arrays = list(layers) + (list(biases) if biases is not None else [])
    grads = list(gw) + (list(gb) if gb is not None else [])
    worst = 0.0
    for arr, g in zip(arrays, grads):
        flat = arr.ravel()
        gf = g.ravel()
        for j in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + step
            fp, _, _ = list_kernel(layers, biases, x, target, reg, activation)
            flat[j] = orig - step
            fm, _, _ = list_kernel(layers, biases, x, target, reg, activation)
            flat[j] = orig
            fd = (fp - fm) / (2 * step)
            worst = max(worst, abs(fd - gf[j]) / max(1.0, abs(fd)))
    return worst


@pytest.mark.parametrize("activation", ["relu", "leaky-relu", "tanh"])
def test_nonlinear_gradients_match_finite_differences(activation, rng):
    dims, reg, _ = random_instance(rng, depth=3, max_dim=5)
    n = 6
    x = rng.uniform(-1, 1, size=(dims.dims[0], n))
    target = rng.standard_normal((dims.dims[-1], n))
    layers = [0.5 * rng.standard_normal(w.shape) for w in WeightStack.zeros(dims).layers]
    biases = [0.3 * rng.standard_normal(d) for d in dims.dims[1:]]
    worst = _fd_check(layers, biases, x, target, reg, activation, rng)
    assert worst <= 1e-6


def test_bias_gradients_match_finite_differences(rng):
    dims, reg, _ = random_instance(rng, depth=2, max_dim=4)
    x = rng.uniform(-1, 1, size=(dims.dims[0], 5))
    target = rng.standard_normal((dims.dims[-1], 5))
    layers = [0.5 * rng.standard_normal(w.shape) for w in WeightStack.zeros(dims).layers]
    biases = [0.3 * rng.standard_normal(d) for d in dims.dims[1:]]
    worst = _fd_check(layers, biases, x, target, reg, "identity", rng)
    assert worst <= 1e-6


def test_linear_with_input_matrix_matches_finite_differences(rng):
    dims, reg, _ = random_instance(rng, depth=2, max_dim=4)
    x = rng.uniform(-1, 1, size=(dims.dims[0], 7))
    target = rng.standard_normal((dims.dims[-1], 7))
    layers = [0.5 * rng.standard_normal(w.shape) for w in WeightStack.zeros(dims).layers]
    worst = _fd_check(layers, None, x, target, reg, "identity", rng)
    assert worst <= 1e-6


def test_train_deterministic(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    cfg = TrainConfig(
        learning_rate=1e-3, max_iters=200, seed=5, init="gaussian", log_stride=50
    )
    a = train(ModelSpec(), target, reg, cfg, dims)
    b = train(ModelSpec(), target, reg, cfg, dims)
    assert np.array_equal(a.f_values, b.f_values)
    assert (a.final - b.final).norm() == 0.0


def test_gd_identity_step_equals_lr_times_grad(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    lr = 2e-3
    cfg = TrainConfig(
        learning_rate=lr, max_iters=50, seed=2, init="gaussian", log_stride=10
    )
    traj = train(ModelSpec(), target, reg, cfg, dims)
    ratio = np.sqrt(traj.step_norm_sq / traj.grad_sq)
    assert np.max(np.abs(ratio - lr)) <= 1e-12 * lr


def _per_layer_descent(model, target, reg, cfg, dims):
    """Reference loop: W <- W - lr * grad layer by layer, biases included,
    stopped by the joint rule."""
    layers, biases = _init_state(model, dims, cfg, None)
    lr, x = cfg.learning_rate, model.input_matrix
    iterates, f_values, grad_sq, step_sq, dots = [], [], [], [], []
    termination = "max-iters"
    for _ in range(cfg.max_iters):
        value, gw, gb = list_kernel(layers, biases, x, target, reg, model.activation)
        grads = gw + (gb or [])
        gsq = sum(float(np.sum(g * g)) for g in grads)
        if f_values and gsq <= cfg.grad_sq_tol and abs(value - f_values[-1]) <= cfg.fval_change_tol:
            termination = "converged"
            break
        iterates.append(layers)
        f_values.append(value)
        grad_sq.append(gsq)
        step_sq.append(sum(float(np.sum((lr * g) ** 2)) for g in grads))
        # one dot product over the concatenated gradient, and over the step
        g = np.concatenate([a.ravel() for a in grads])
        d = lr * g
        dots.append((float(g @ g), float(d @ d)))
        layers = [w - lr * g for w, g in zip(layers, gw)]
        if biases is not None:
            biases = [b - lr * g for b, g in zip(biases, gb)]
    f_values.append(list_kernel(layers, biases, x, target, reg, model.activation)[0])
    return f_values, grad_sq, step_sq, dots, iterates, layers, biases, termination


def _assert_matches_reference(traj, model, target, reg, cfg, dims):
    f_values, grad_sq, step_sq, dots, iterates, layers, biases, termination = _per_layer_descent(
        model, target, reg, cfg, dims
    )
    assert traj.termination == termination
    assert traj.n_steps == len(step_sq)
    assert np.array_equal(traj.f_values, f_values)
    assert all(np.array_equal(a, b) for a, b in zip(traj.final.layers, layers))
    if biases is None:
        assert traj.final_biases is None
    else:
        assert all(np.array_equal(a, b) for a, b in zip(traj.final_biases, biases))
    for k, snap in traj.snapshots:
        assert all(np.array_equal(a, b) for a, b in zip(snap.layers, iterates[k]))
    np.testing.assert_allclose(traj.grad_sq, grad_sq, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(traj.step_norm_sq, step_sq, rtol=1e-14, atol=0.0)
    # The loop's stacked row dots are the per-row dot products bit for bit.
    assert np.array_equal(traj.grad_sq, [gsq for gsq, _ in dots])
    assert np.array_equal(traj.step_norm_sq, [ssq for _, ssq in dots])


def _model_problem(kind, activation, rng):
    dims, reg, _ = random_instance(rng, depth=3, max_dim=5)
    x = None
    target = rng.standard_normal((dims.dims[-1], dims.dims[0]))
    if kind != "linear":
        x = rng.uniform(-1, 1, size=(dims.dims[0], 6))
        target = rng.standard_normal((dims.dims[-1], 6))
    return ModelSpec(kind=kind, activation=activation, input_matrix=x), target, reg, dims


@pytest.mark.parametrize(
    "kind, activation",
    [("linear", "identity"), ("linear-with-bias", "identity"), ("nonlinear", "tanh")],
)
def test_flat_descent_matches_per_layer_reference(kind, activation, rng):
    model, target, reg, dims = _model_problem(kind, activation, rng)
    cfg = TrainConfig(
        learning_rate=1e-2, max_iters=200, grad_sq_tol=1e-300, seed=3,
        init="gaussian", log_stride=1,
    )
    traj = train(model, target, reg, cfg, dims)
    assert traj.termination == "max-iters" and traj.n_steps == 200
    assert len(traj.snapshots) > 64
    _assert_matches_reference(traj, model, target, reg, cfg, dims)


# Per model: stopping tolerance, iteration cap, and (seed, init) of three
# runs, chosen so that the runs of one batch stop at three different
# iterations: two converge, the third runs to the cap.
BATCHES = {
    "linear": (1e-1, 100, [(6, "gaussian"), (3, "gaussian"), (4, "uniform-fan-based")]),
    "linear-with-bias": (1e-2, 200, [(3, "gaussian"), (4, "uniform-fan-based"), (6, "gaussian")]),
    "nonlinear": (1e-1, 200, [(5, "gaussian"), (4, "uniform-fan-based"), (6, "gaussian")]),
    "relu": (1.0, 200, [(1, "gaussian"), (2, "uniform-fan-based"), (6, "gaussian")]),
}


@pytest.mark.parametrize(
    "kind, activation",
    [("linear", "identity"), ("linear-with-bias", "identity"), ("nonlinear", "tanh")],
)
def test_batched_runs_match_serial_runs(kind, activation, rng):
    model, target, reg, dims = _model_problem(kind, activation, rng)
    tol, max_iters, inits = BATCHES[kind]
    cfgs = [
        TrainConfig(
            learning_rate=2e-2, max_iters=max_iters, grad_sq_tol=tol,
            fval_change_tol=tol / 10, seed=seed, init=init, log_stride=1,
        )
        for seed, init in inits
    ]
    trajs = train_runs(model, target, reg, cfgs, dims, [None] * len(cfgs))
    assert {t.termination for t in trajs} == {"converged", "max-iters"}
    assert len({t.n_steps for t in trajs}) == len(trajs)
    for traj, cfg in zip(trajs, cfgs):
        _assert_matches_reference(traj, model, target, reg, cfg, dims)
        alone = train(model, target, reg, cfg, dims)
        assert [k for k, _ in traj.snapshots] == [k for k, _ in alone.snapshots]
        assert np.array_equal(traj.grad_sq, alone.grad_sq)
        assert np.array_equal(traj.step_norm_sq, alone.step_norm_sq)


@pytest.mark.parametrize(
    "kind, activation",
    [("linear", "identity"), ("linear-with-bias", "identity"), ("nonlinear", "tanh"),
     ("nonlinear", "relu")],
)
def test_row_norms_are_per_row_dots(kind, activation, rng):
    # grad_sq and step_norm_sq of every run of a batch whose runs stop at
    # three different iterations, under per-layer weights that differ.
    model, target, reg, dims = _model_problem(kind, activation, rng)
    assert len(set(reg.lambdas)) == reg.depth
    tol, max_iters, inits = BATCHES["relu" if activation == "relu" else kind]
    cfgs = [
        TrainConfig(
            learning_rate=2e-2, max_iters=max_iters, grad_sq_tol=tol,
            fval_change_tol=tol / 10, seed=seed, init=init, log_stride=50,
        )
        for seed, init in inits
    ]
    trajs = train_runs(model, target, reg, cfgs, dims, [None] * len(cfgs))
    assert len({t.n_steps for t in trajs}) == len(trajs)
    for traj, cfg in zip(trajs, cfgs):
        _assert_matches_reference(traj, model, target, reg, cfg, dims)


def test_batched_runs_must_share_step_and_stopping_rule(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    base = TrainConfig(learning_rate=1e-3, max_iters=20, seed=1, init="gaussian")
    # seed, init and init_scale may differ
    other = TrainConfig(learning_rate=1e-3, max_iters=20, seed=2, init="uniform-fan-based",
                        init_scale=0.5)
    assert len(train_runs(ModelSpec(), target, reg, [base, other], dims, [None, None])) == 2
    for field, value in [("learning_rate", 2e-3), ("max_iters", 21), ("grad_sq_tol", 1e-5),
                         ("fval_change_tol", 1e-6), ("log_stride", 7)]:
        changed = TrainConfig(**{**base.__dict__, field: value})
        with pytest.raises(ValueError, match=field):
            train_runs(ModelSpec(), target, reg, [base, changed], dims, [None, None])
    with pytest.raises(ValueError):
        train_runs(ModelSpec(), target, reg, [base], dims, [None, None])


def _iteration(err: DivergenceError) -> int:
    return int(str(err).split()[-1])


@pytest.mark.parametrize("scales, raised", [((0.5, 1e3), 1), ((1e3, 1e4), 0)])
def test_batched_divergence_raises_the_serial_error(scales, raised, rng):
    # Linear runs from random points of the given scales around the origin:
    # run 1 diverges early while run 0 runs on to the cap, or both diverge,
    # run 1 first.  Either way the batch raises the error that training the
    # runs one by one raises first.
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    zero = WeightStack.zeros(dims)
    cfgs = [
        TrainConfig(learning_rate=1e-2, max_iters=300, seed=seed, init="near-critical",
                    init_scale=scale)
        for seed, scale in enumerate(scales)
    ]
    alone = []
    with np.errstate(over="ignore", invalid="ignore"):
        for cfg in cfgs:
            try:
                alone.append(train(ModelSpec(), target, reg, cfg, dims, center=zero))
            except DivergenceError as exc:
                alone.append(exc)
        with pytest.raises(DivergenceError) as err:
            train_runs(ModelSpec(), target, reg, cfgs, dims, [zero, zero])
    assert isinstance(alone[1], DivergenceError)
    if raised == 1:
        assert alone[0].termination == "max-iters"
    else:
        assert _iteration(alone[1]) < _iteration(alone[0])
    assert str(err.value) == str(alone[raised])
    assert all(
        np.array_equal(a, b)
        for a, b in zip(err.value.last_finite.layers, alone[raised].last_finite.layers)
    )


# Ring periods of three steps: the objective values of the pending iterates
# are evaluated in batches of at most three, so a run can stop at any offset
# of a period, and a sweep over 1 .. 2C+1 steps crosses two period ends.
RING = 3


def _linear_batch_matches_reference(rng, seeds, max_iters, stop):
    """Linear runs trained together whose grad_sq tolerance is just above run
    0's grad_sq at step ``stop`` (its grad_sq falls monotonically, so it
    converges there unless max_iters comes first), each checked against the
    per-layer reference.  The margin keeps the tolerance far from the
    roundoff by which the reference's per-layer sums differ from the loop's
    dot products, so both stop at the same step."""
    model, target, reg, dims = _model_problem("linear", "identity", rng)
    cfgs = [
        TrainConfig(learning_rate=2e-2, max_iters=max_iters, grad_sq_tol=1e-300,
                    fval_change_tol=1e300, seed=seed, init="gaussian", log_stride=2)
        for seed in seeds
    ]
    ref = TrainConfig(**{**cfgs[0].__dict__, "max_iters": stop + 1})
    tol = _per_layer_descent(model, target, reg, ref, dims)[1][stop] * (1 + 1e-9)
    cfgs = [TrainConfig(**{**cfg.__dict__, "grad_sq_tol": tol}) for cfg in cfgs]
    trajs = train_runs(model, target, reg, cfgs, dims, [None] * len(cfgs))
    for traj, cfg in zip(trajs, cfgs):
        _assert_matches_reference(traj, model, target, reg, cfg, dims)
    return [(t.termination, t.n_steps) for t in trajs]


@pytest.mark.parametrize("max_iters", range(1, 2 * RING + 2))
def test_runs_stopping_at_every_ring_offset_match_per_layer_reference(max_iters, rng, monkeypatch):
    # Run 0 converges at step 3 once max_iters allows; the other runs stop
    # at max_iters, which the sweep puts at every offset of two periods.
    monkeypatch.setattr(training, "RING_STEPS", RING)
    stops = _linear_batch_matches_reference(rng, (1, 3, 6), max_iters, 3)
    assert stops[0][1] == min(3, max_iters)


@pytest.mark.parametrize("stop", range(1, 2 * RING + 2))
def test_convergence_at_every_ring_offset_matches_per_layer_reference(stop, rng, monkeypatch):
    monkeypatch.setattr(training, "RING_STEPS", RING)
    stops = _linear_batch_matches_reference(rng, (1, 2, 5), 2 * RING + 2, stop)
    assert stops[0] == ("converged", stop)


def test_runs_stopping_at_different_offsets_of_one_ring(rng):
    # Inside the first period of a full-size ring, two runs converge at
    # steps 4 and 2, and the third stops at max_iters = 5.
    stops = _linear_batch_matches_reference(rng, (1, 2, 4), 5, 6)
    assert stops == [("max-iters", 5), ("converged", 4), ("converged", 2)]


def test_divergence_found_at_a_later_flush_matches_per_layer_reference(monkeypatch):
    # With a zero input matrix the data term is constant and each step
    # multiplies W_l by 1 - 2 lambda_l lr (-4 and -9 here), so F overflows
    # once a squared layer norm does, while grad_sq = sum (2 lambda_l w)^2
    # stays finite a few steps longer: no flush is due at the divergence, and
    # a later one finds it.  The three step sizes put it at every offset.
    monkeypatch.setattr(training, "RING_STEPS", RING)
    dims, reg = DimChain((2, 3, 2)), RegParams((1e-3, 2e-3))
    model = ModelSpec(input_matrix=np.zeros((2, 4)))
    target = np.random.default_rng(5).standard_normal((2, 4))
    offsets = set()
    for lr in (2500.0, 2300.0, 2200.0):
        cfgs = [TrainConfig(learning_rate=lr, max_iters=300, seed=seed, init="gaussian")
                for seed in (0, 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            f_values, grad_sq, _, _, iterates, *_ = _per_layer_descent(model, target, reg, cfgs[0], dims)
            with pytest.raises(DivergenceError) as err:
                train_runs(model, target, reg, cfgs, dims, [None, None])
        k = next(k for k, f in enumerate(f_values) if not math.isfinite(f))
        assert math.isfinite(grad_sq[k])
        offsets.add(k % RING)
        assert str(err.value) == f"objective became non-finite at iteration {k}"
        assert all(np.array_equal(a, b) for a, b in zip(err.value.last_finite.layers, iterates[k - 1]))
    assert offsets == set(range(RING))


def test_ring_memory_stays_within_its_budget():
    # Beyond the iterate and the next one, which any descent loop holds, a
    # ring holds at most RING_BYTES of iterates: a layout of about 5e5
    # parameters gets a ring of one step (allocated, never trained here);
    # reproduce-s4's L=6 and L=2 batches get 3 and 17 steps.
    for dims, rows, size in [((250, 400, 400, 400, 250), 1, 1), ((10, 32, 32, 32, 32, 32, 20), 2, 3),
                             ((10, 32, 20), 2, 17), ((2, 3, 2), 1, training.RING_STEPS)]:
        layout = WeightStack.zeros(dims)
        ring = _Ring(layout, rows, (dims[-1], dims[0]))
        iterate = 8 * rows * layout.flat.size
        assert ring.size == size
        assert ring.iterates.shape == (size + 1, rows, layout.flat.size)
        assert ring.iterates.nbytes - 2 * iterate <= training.RING_BYTES


def test_loss_monotone_for_small_step(rng):
    dims, reg, target = random_instance(rng, depth=3, max_dim=4)
    cfg = TrainConfig(
        learning_rate=1e-4, max_iters=2000, seed=7, init="gaussian", log_stride=100
    )
    traj = train(ModelSpec(), target, reg, cfg, dims)
    diffs = np.diff(traj.f_values)
    assert np.all(diffs <= 1e-12 * (1.0 + np.abs(traj.f_values[:-1])))


def test_divergence_raises_with_last_finite(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    cfg = TrainConfig(learning_rate=10.0, max_iters=500, seed=1, init="gaussian")
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
        train(ModelSpec(), target, reg, cfg, dims)
    last = err.value.last_finite
    assert last is not None
    assert all(np.all(np.isfinite(w)) for w in last.layers)
    # last_finite is the final iterate with a finite objective: one more step
    # from it, at the same learning rate, diverges.
    with np.errstate(over="ignore", invalid="ignore"):
        value, grads, _ = list_kernel(last.layers, None, None, target, reg)
        assert math.isfinite(value)
        step = [w - cfg.learning_rate * g for w, g in zip(last.layers, grads)]
        value, _, _ = list_kernel(step, None, None, target, reg)
    assert not math.isfinite(value)


def test_near_critical_init_converges_close_to_center(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4, lam_lo=0.05, lam_hi=0.5)
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    params = sample_random_params(inst, seed=3)
    center = construct_critical_point(profile, params, inst)
    cfg = TrainConfig(
        learning_rate=1e-3, max_iters=60_000, seed=4, init="near-critical",
        init_scale=0.01, log_stride=100,
    )
    traj = train(ModelSpec(), target, reg, cfg, dims, center=center.stack)
    assert traj.termination == "converged"
    f_star = loss_f(center.stack, target, reg)
    assert abs(traj.f_values[-1] - f_star) <= 1e-2 * max(1e-12, f_star)


def test_near_critical_bias_runs(rng):
    # Near-critical runs of a model with biases: a batch equals each run
    # trained alone, and the initial biases are init_scale times the init
    # stream's draws that follow the layer noise.
    model, target, reg, dims = _model_problem("linear-with-bias", "identity", rng)
    center = WeightStack.gaussian(dims, rng).scale(0.5)
    cfgs = [
        TrainConfig(learning_rate=1e-3, max_iters=50, grad_sq_tol=1e-300, seed=seed,
                    init="near-critical", init_scale=scale, log_stride=5)
        for seed, scale in ((1, 0.1), (2, 0.3))
    ]
    trajs = train_runs(model, target, reg, cfgs, dims, [center, center])
    for traj, cfg in zip(trajs, cfgs):
        alone = train(model, target, reg, cfg, dims, center=center)
        assert np.array_equal(traj.f_values, alone.f_values)
        assert np.array_equal(traj.final.flat, alone.final.flat)
        assert all(np.array_equal(a, b) for a, b in zip(traj.final_biases, alone.final_biases))

    cfg = TrainConfig(max_iters=0, seed=7, init="near-critical", init_scale=0.25)
    traj = train(model, target, reg, cfg, dims, center=center)
    stream = named_stream(7, "init")
    noise = stream.standard_normal(center.flat.shape)
    assert np.array_equal(traj.final.flat, (center + center.like(noise).scale(0.25)).flat)
    for bias, width in zip(traj.final_biases, dims.dims[1:]):
        assert np.array_equal(bias, 0.25 * stream.standard_normal(width))


def _synthetic_trajectory(f_values):
    n = len(f_values) - 1
    return Trajectory(
        f_values=np.asarray(f_values, dtype=float),
        grad_sq=np.full(n, 1e-3),
        step_norm_sq=np.full(n, 1e-5),
        snapshots=[],
        final=WeightStack.zeros((2, 2, 2)),
        final_biases=None,
        termination="converged",
        wall_time=0.0,
    )


def test_rate_fit_on_exact_geometric_sequence():
    f_star = 0.25
    ks = np.arange(2000)
    traj = _synthetic_trajectory(f_star + 0.9**ks)
    fit = estimate_linear_rate(traj)
    assert fit.rate == pytest.approx(0.9, abs=1e-6)
    assert fit.r_squared > 0.99999


def test_rate_fit_requires_enough_points():
    traj = _synthetic_trajectory(np.full(200, 3.0))
    with pytest.raises(InsufficientDataError):
        estimate_linear_rate(traj)


def test_fan_based_initialization_runs(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    cfg = TrainConfig(
        learning_rate=1e-3, max_iters=100, seed=8, init="uniform-fan-based"
    )
    traj = train(ModelSpec(), target, reg, cfg, dims)
    assert traj.n_steps > 0
    bound = math.sqrt(6.0 / (dims.dims[0] + dims.dims[1]))
    first = traj.snapshots[0][1].layers[0]
    assert np.max(np.abs(first)) <= bound


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="linear", activation="relu")
    with pytest.raises(ValueError):
        ModelSpec(kind="unknown")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)


def test_trajectory_csv_stream(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "train", lambda *a, **k: runs.append(train(*a, **k)) or runs[-1])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "output_dir": str(tmp_path),
        "instance": {"dims": [3, 2, 3], "lambdas": [0.4, 0.7], "target": {"kind": "gaussian"}},
        "train": {"learning_rate": 1e-3, "max_iters": 20, "init": "gaussian"},
    }))
    assert cli.main(["train", str(config)]) == 0
    capsys.readouterr()
    (traj,) = runs
    assert traj.n_steps == 20
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "iter,F,grad_sq"
    assert len(lines) == 1 + traj.n_steps
    # every field is a plain number, the trajectory's own value
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(traj.n_steps))
    assert [float(r[1]) for r in rows] == traj.f_values[: traj.n_steps].tolist()
    assert [float(r[2]) for r in rows] == traj.grad_sq.tolist()
