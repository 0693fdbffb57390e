import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from deeplinear import (
    DimChain,
    Instance,
    RegParams,
    RadiusSweepConfig,
    WeightStack,
    build_counterexample,
    check_balance_inequalities,
    check_first_order_conditions,
    construct_critical_point,
    counterexample_family,
    fit_counterexample_scaling,
    grad_g,
    loss_g,
    optimal_profile,
    profile_from_choices,
    sample_random_params,
    verify_error_bound,
    verify_pl_qg,
    zero_profile,
)
from deeplinear import critical
from deeplinear.cli import _finish_report
from deeplinear.critical import distance_to_critical_set
from deeplinear.training import ModelSpec, TrainConfig, Trajectory, train, train_runs
from deeplinear.verify import CenterNotCriticalError


def _generic_instance(seed=3, depth=2):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal((4, 3))
    dims = DimChain((3,) + (5,) * (depth - 1) + (4,))
    reg = RegParams(tuple(rng.uniform(0.3, 1.0, depth)))
    return Instance(dims, reg, target), dims, reg


SMALL_SWEEP = RadiusSweepConfig(
    radii=tuple(np.geomspace(1e-4, 1e-1, 5)), samples_per_radius=6, seed=0
)


def _center(inst, which="optimal", target="F", seed=1):
    if which == "optimal":
        profile = optimal_profile(inst)
    elif which == "zero":
        profile = zero_profile(inst)
    else:
        profile = which
    params = sample_random_params(inst, seed=seed)
    return construct_critical_point(profile, params, inst, target=target)


def test_error_bound_passes_on_generic_instance():
    inst, dims, reg = _generic_instance()
    point = _center(inst)
    report = verify_error_bound(point, inst, SMALL_SWEEP)
    assert report.passed
    assert report.notes["assumption2"]
    assert math.isfinite(report.fitted["stability_ratio"])
    assert report.constants["kappa1"] > 0


def test_error_bound_zero_center():
    inst, dims, reg = _generic_instance(seed=8)
    point = _center(inst, which="zero")
    report = verify_error_bound(point, inst, SMALL_SWEEP)
    assert report.passed
    # around the zero component the distance equals the perturbation radius
    for s in report.samples:
        assert s.dist_upper <= s.radius * (1 + 1e-9)
        assert math.isfinite(s.ratio)


def test_error_bound_rejects_noncritical_center():
    inst, dims, reg = _generic_instance()
    point = _center(inst)
    point.stack.layers[0][0, 0] += 0.5
    with pytest.raises(CenterNotCriticalError):
        verify_error_bound(point, inst, SMALL_SWEEP)


def test_error_bound_fails_with_cubic_tag_on_degenerate_instance():
    family = counterexample_family("l2-lambda-eq-y2", y=2.0)
    cfg = RadiusSweepConfig(
        radii=tuple(np.geomspace(1e-3, 1e-1, 7)),
        samples_per_radius=1,
        seed=0,
        mode="singular-direction",
    )
    assert family.center.target == "G"
    report = verify_error_bound(family.center, family.inst, cfg)
    assert not report.passed
    assert "assumption2-violated" in report.tags
    assert "cubic-degeneracy" in report.tags
    assert abs(report.fitted["grad_vs_dist_slope"] - 3.0) <= 0.05


def test_unconverged_projection_tags_and_fails(monkeypatch):
    inst, dims, reg = _generic_instance()
    point = _center(inst)
    monkeypatch.setattr(critical, "PROJECTION_SWEEPS", 1)
    e = WeightStack.gaussian(dims, np.random.default_rng(0)).scale(1e-2)
    assert not distance_to_critical_set(point.stack + e, inst).converged
    for verify in (verify_error_bound, verify_pl_qg):
        report = verify(point, inst, SMALL_SWEEP)
        assert report.verdict == "FAIL"
        assert "projection-unconverged" in report.tags


def test_error_bound_tangent_removed_mode():
    inst, dims, reg = _generic_instance(seed=5)
    point = _center(inst)
    cfg = RadiusSweepConfig(
        radii=tuple(np.geomspace(1e-4, 1e-2, 4)),
        samples_per_radius=4,
        seed=2,
        mode="tangent-removed",
    )
    report = verify_error_bound(point, inst, cfg)
    assert report.passed


def test_pl_qg_at_global_minimizer():
    inst, dims, reg = _generic_instance(seed=11)
    point = _center(inst)
    report = verify_pl_qg(point, inst, SMALL_SWEEP)
    assert report.passed
    assert report.notes["qg_applicable"]
    assert report.fitted["mu1"] > 0
    assert math.isfinite(report.fitted["mu2"])
    assert report.fitted["min_gap_sampled"] >= -1e-10


def test_pl_qg_saddle_reports_not_minimizer():
    inst, dims, reg = _generic_instance(seed=13)
    choices = [-1] * inst.spectrum.rank
    choices[0] = 0  # drop the top singular value: a non-optimal component
    saddle = profile_from_choices(inst, choices)
    point = _center(inst, which=saddle)
    report = verify_pl_qg(point, inst, SMALL_SWEEP)
    assert "not-a-minimizer" in report.tags
    assert not report.notes["qg_applicable"]
    assert report.fitted["mu1"] > 0  # gradient dominance still measurable


def test_balance_holds_near_component(rng):
    inst, dims, reg = _generic_instance(seed=17)
    profile = optimal_profile(inst)
    point = _center(inst, target="G")
    check = check_balance_inequalities(point.stack, profile, inst)
    assert check.passed
    assert max(check.residuals) <= 1e-10
    for _ in range(25):
        e = WeightStack.gaussian(dims, rng)
        e = e.scale(0.25 * profile.sigma_min_pos / e.norm())
        check = check_balance_inequalities(point.stack + e, profile, inst)
        assert check.precondition_ok
        assert check.passed


def test_balance_precondition_reported_not_raised():
    inst, dims, reg = _generic_instance(seed=19)
    profile = optimal_profile(inst)
    far = WeightStack.gaussian(dims, np.random.default_rng(0)).scale(50.0)
    check = check_balance_inequalities(far, profile, inst)
    assert not check.precondition_ok
    assert not check.passed


def _grad_norm_at(family, t):
    """Per-t oracle of ``family.measure``: the G gradient norm at the one point W(t)."""
    return grad_g(family.point(t), family.inst.target, family.inst.reg).norm()


def _dist_upper_at(family, t):
    """Per-t oracle of ``family.measure``: the distance from W(t) to the center."""
    return (family.point(t) - family.center.stack).norm()


def test_counterexample_hand_value():
    # scalar two-layer family at the excluded weight: grad norm 2 sqrt(2) t^3
    family = counterexample_family("l2-lambda-eq-y2", y=2.0)
    t = 0.1
    expected = 2.0 * math.sqrt(2.0) * t**3
    assert _grad_norm_at(family, t) == pytest.approx(expected, rel=1e-10)
    assert family.dist_lower(t) == pytest.approx(math.sqrt(2.0) * t, rel=1e-12)
    stack = build_counterexample("l2-lambda-eq-y2", t, y=2.0)
    assert stack.norm() == pytest.approx(math.sqrt(2.0) * t, rel=1e-12)


def test_counterexample_slopes():
    rep = fit_counterexample_scaling("l2-lambda-eq-y2")
    assert rep.passed
    assert abs(rep.fitted["slope"] - 3.0) <= 0.05
    assert "fail-by-design" in rep.tags

    rep = fit_counterexample_scaling("lge3-phi-prime-zero")
    assert rep.passed
    assert abs(rep.fitted["slope"] - 2.0) <= 0.05


@pytest.mark.parametrize("kind", ["l2-lambda-eq-y2", "lge3-phi-prime-zero"])
@pytest.mark.parametrize("y", [1e-6, 0.5, 1.2, 2.0, 50.0])
@pytest.mark.parametrize("t_values", [None, (0.3, 1e-4, 2e-2)])
def test_batched_fit_equals_per_t_values(kind, y, t_values):
    # Every t is evaluated in one batched stack; each sample is the per-t
    # value bit for bit, and row k of point(array) is point(float(t[k])).
    family = counterexample_family(kind, y=y)
    report = fit_counterexample_scaling(kind, y=y, t_values=t_values)
    ts = [s.radius for s in report.samples]
    if t_values is not None:
        assert ts == list(t_values)
    batch = family.point(np.array(ts))
    target, reg = family.inst.target, family.inst.reg
    for k, (t, s) in enumerate(zip(ts, report.samples)):
        w = family.point(t)
        assert np.array_equal(batch.flat[k], w.flat)
        g, up, lval = _grad_norm_at(family, t), _dist_upper_at(family, t), loss_g(w, target, reg)
        expected = (t, family.dist_lower(t), up, g, lval, up / g if g > 0 else math.inf)
        got = (s.radius, s.dist_lower, s.dist_upper, s.grad_norm, s.F, s.ratio)
        assert got == expected
        assert all(type(v) is float for v in got)
        # the one-t batch of ``counterexample --t``
        assert [float(v[0]) for v in family.measure(np.array([t]))] == [g, lval, up]


def test_counterexample_kind_checks():
    with pytest.raises(ValueError):
        counterexample_family("nope")
    with pytest.raises(ValueError):
        build_counterexample("l2-lambda-eq-y2", t=0.0)


def test_sweep_config_rejects_empty_radii():
    # an empty sweep has no smallest radius to judge; the verifier must not start
    with pytest.raises(ValueError, match="radii must not be empty"):
        RadiusSweepConfig(radii=())


def test_first_order_conditions_on_descent_run():
    inst, dims, reg = _generic_instance(seed=23)
    point = _center(inst)
    lr = 1e-3
    cfg = TrainConfig(
        learning_rate=lr, max_iters=20_000, seed=1, init="near-critical",
        init_scale=0.05, log_stride=25,
    )
    traj = train(ModelSpec(), inst.target, reg, cfg, dims, center=point.stack)
    assert traj.termination == "converged"
    rep = check_first_order_conditions(traj, inst)
    assert abs(rep.safeguard_constant * lr - 1.0) <= 1e-12
    assert rep.sufficient_decrease_held
    assert rep.cost_to_go_held
    assert rep.cost_to_go_constant > 0


def test_first_order_conditions_flags_nondecreasing_tail():
    n = 40
    f = np.linspace(1.0, 0.5, n + 1)
    f[-2] = f[-3] + 0.1  # one increasing tail step
    traj = Trajectory(
        f_values=f,
        grad_sq=np.full(n, 1e-2),
        step_norm_sq=np.full(n, 1e-4),
        snapshots=[],
        final=WeightStack.zeros((2, 2, 2)),
        final_biases=None,
        termination="max-iters",
        wall_time=0.0,
    )
    inst = Instance(DimChain((2, 2, 2)), RegParams((1.0, 1.0)), np.zeros((2, 2)))
    rep = check_first_order_conditions(trajectory=traj, inst=inst)
    assert not rep.sufficient_decrease_held


def _written(report, out):
    """The JSON and CSV text the CLI writes for ``report`` into the new directory ``out``."""
    out.mkdir()
    _finish_report(report, out, "report")
    return (out / "report.json").read_text(), (out / "report.csv").read_text()


def test_sweeps_deterministic_given_seed(tmp_path, capsys):
    inst, dims, reg = _generic_instance(seed=31)
    point = _center(inst)
    cfg = RadiusSweepConfig(radii=(1e-3, 1e-2), samples_per_radius=3, seed=9)
    # the written reports: NaN fitted values make the dataclasses unequal
    assert _written(verify_error_bound(point, inst, cfg), tmp_path / "a") == _written(
        verify_error_bound(point, inst, cfg), tmp_path / "b"
    )


def test_error_bound_small_weights_three_layer():
    # three layers with lambda_l = 1e-2 each: tiny product weight, so the
    # component separation (and with it the usable radius range) shrinks;
    # sweep radii follow the instance's own scale
    rng = np.random.default_rng(37)
    target = rng.standard_normal((3, 3))
    dims = DimChain((3, 4, 4, 3))
    reg = RegParams.uniform(1e-2, 3)
    inst = Instance(dims, reg, target)
    point = _center(inst)
    delta_sigma = inst.delta_sigma
    cfg = RadiusSweepConfig(
        radii=tuple(np.geomspace(delta_sigma / 1000, delta_sigma / 4, 5)),
        samples_per_radius=4,
        seed=1,
    )
    report = verify_error_bound(point, inst, cfg)
    assert report.passed


def test_descent_terminates_near_critical_set():
    # random initialization, joint stopping rule, then certified distance to
    # the enumerated critical set stays small
    rng = np.random.default_rng(41)
    target = rng.standard_normal((3, 3))
    dims = DimChain((3, 4, 3))
    reg = RegParams((0.5, 0.8))
    inst = Instance(dims, reg, target)
    cfg = TrainConfig(
        learning_rate=2e-3, max_iters=100_000, seed=6, init="gaussian",
        grad_sq_tol=1e-6, fval_change_tol=1e-7, log_stride=200,
    )
    traj = train(ModelSpec(), target, reg, cfg, dims)
    assert traj.termination == "converged"
    from deeplinear import distance_to_critical_set

    sd = distance_to_critical_set(traj.final, inst)
    assert sd.distance <= 1e-3


def test_report_serialization_roundtrip(tmp_path, capsys):
    inst, dims, reg = _generic_instance(seed=29)
    point = _center(inst)
    cfg = RadiusSweepConfig(
        radii=(1e-3, 1e-2), samples_per_radius=2, seed=0
    )
    report = verify_error_bound(point, inst, cfg)
    assert _finish_report(report, tmp_path, "verify-eb") == 0
    assert "verify-eb: PASS" in capsys.readouterr().out
    text = (tmp_path / "verify-eb.json").read_text()
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    assert payload["samples"] == [asdict(s) for s in report.samples]
    assert {k: v for k, v in payload.items() if k != "samples"} == {
        k: v for k, v in asdict(report).items() if k != "samples"
    }
    csv = (tmp_path / "verify-eb.csv").read_text().splitlines()
    assert csv[0] == "radius,dist_lower,dist_upper,grad_norm,F,ratio"
    assert len(csv) == 1 + len(report.samples)
    # every field is the sample's own value, in its shortest round-trip form
    for line, s in zip(csv[1:], report.samples):
        values = (s.radius, s.dist_lower, s.dist_upper, s.grad_norm, s.F, s.ratio)
        assert line == ",".join(repr(v) for v in values)


def test_first_order_conditions_hand_computed_scalar_case():
    # F(a, b) = (ab)^2 + l1 a^2 + l2 b^2 (target 0) from (a, b) = (1, 0): b stays
    # 0, so a_k = rho^k with rho = 1 - 2 lr l1, and F_k = l1 a_k^2.  Then
    #   decrease / step^2 = l1 (1 - rho^2) / (2 lr l1)^2 = 1/lr - l1,
    #   ||grad|| / ||step|| = 1/lr,
    #   (F_{k+1} - 0) / (dist^2 + step^2) = l1 rho^2 / (1 + (2 lr l1)^2),
    # the critical set being the origin alone.  lr = 1/8 and l1 = 1 give 7, 8
    # and 9/17, with every iterate, value and step exact in binary.
    lr, l1 = 0.125, 1.0
    dims = DimChain((1, 1, 1))
    reg = RegParams((l1, 0.5))
    inst = Instance(dims, reg, np.zeros((1, 1)))
    start = WeightStack([np.ones((1, 1)), np.zeros((1, 1))])
    cfg = TrainConfig(
        learning_rate=lr, max_iters=16, grad_sq_tol=1e-300, fval_change_tol=1e-300,
        init="near-critical", init_scale=0.0, log_stride=1,
    )
    traj = train(ModelSpec(), inst.target, reg, cfg, dims, center=start)
    assert np.array_equal(traj.f_values, 0.5625 ** np.arange(17))
    rep = check_first_order_conditions(traj, inst)
    assert rep.safeguard_constant == 1.0 / lr
    assert rep.sufficient_decrease_constant == 1.0 / lr - l1
    assert rep.cost_to_go_constant == pytest.approx(9.0 / 17.0, rel=1e-12)
    assert rep.sufficient_decrease_held and rep.safeguard_held and rep.cost_to_go_held
    assert (rep.tail_start, rep.n_steps, rep.n_distance_points) == (8, 16, 6)


def test_first_order_report_same_from_batched_run():
    inst, dims, reg = _generic_instance(seed=23)
    point = _center(inst)
    cfgs = [
        TrainConfig(learning_rate=1e-3, max_iters=4000, seed=seed, init="near-critical",
                    init_scale=0.05, log_stride=25)
        for seed in (1, 2)
    ]
    batch = train_runs(ModelSpec(), inst.target, reg, cfgs, dims, [point.stack] * 2)
    for traj, cfg in zip(batch, cfgs):
        alone = train(ModelSpec(), inst.target, reg, cfg, dims, center=point.stack)
        assert json.dumps(asdict(check_first_order_conditions(traj, inst))) == json.dumps(
            asdict(check_first_order_conditions(alone, inst))
        )


def test_truncated_enumeration_is_tagged():
    # seven distinct singular values and three layers give 3^7 = 2187 root
    # choices, beyond the enumeration cap of 1024
    target = np.diag(np.linspace(3.0, 1.5, 7))
    inst = Instance(DimChain((7, 7, 7, 7)), RegParams.uniform(1e-4 ** (1 / 3), 3), target)
    assert inst.profiles.truncated
    point = _center(inst)
    delta_sigma = inst.delta_sigma
    cfg = RadiusSweepConfig(
        radii=tuple(np.geomspace(delta_sigma / 1000, delta_sigma / 10, 3)),
        samples_per_radius=2, seed=0,
    )
    for report in (verify_error_bound(point, inst, cfg), verify_pl_qg(point, inst, cfg)):
        # the tag qualifies the verdict without changing it
        assert report.passed
        assert report.tags == ["profiles-truncated"]


@pytest.mark.parametrize("target", ["F", "G"])
def test_batched_gradient_norms_and_losses_equal_2d_calls(target):
    from deeplinear.verify import _grad_and_loss

    inst, dims, reg = _generic_instance(seed=5, depth=3)
    rng = np.random.default_rng(0)
    stacks = [WeightStack.gaussian(dims, rng).scale(s) for s in (1e-3, 0.1, 1.0)]
    gnorms, losses = _grad_and_loss(WeightStack.batch(stacks), inst.target, reg, target)
    for stack, gnorm, loss in zip(stacks, gnorms.tolist(), losses.tolist()):
        assert (gnorm, loss) == _grad_and_loss(stack, inst.target, reg, target)


def _one_draw(center, inst, mode):
    """One unit direction drawn as the sweep drew one sample at a time."""
    from deeplinear.critical import singular_direction, tangent_basis

    dims = center.stack.dim_chain()
    if mode == "singular-direction":
        return lambda rng: singular_direction(center, int(rng.integers(dims.d_min)))
    basis = tangent_basis(center, inst.spectrum)

    def draw(rng):
        e = WeightStack.gaussian(dims, rng)
        if mode == "tangent-removed":
            e = e.like(e.flat - basis.T @ (basis @ e.flat))
        return e.scale(1.0 / e.norm())

    return draw


@pytest.mark.parametrize("mode", ["gaussian-all-layers", "singular-direction", "tangent-removed"])
def test_batched_draw_equals_one_at_a_time_draws(mode, monkeypatch):
    from deeplinear import verify
    from deeplinear.critical import tangent_basis

    inst, dims, reg = _generic_instance(seed=5, depth=3)
    center = _center(inst)
    assert tangent_basis(center, inst.spectrum).shape[0] > 0
    built = []
    make_direction = verify.singular_direction
    monkeypatch.setattr(
        verify, "singular_direction", lambda *a: built.append(a[1]) or make_direction(*a)
    )
    draw = verify._make_sampler(center, inst, RadiusSweepConfig(mode=mode))
    one = _one_draw(center, inst, mode)
    count = 9
    batch_rng, single_rng, unit_rng = (np.random.default_rng(4) for _ in range(3))
    batch = draw(batch_rng, count)
    singles = WeightStack.batch([one(single_rng) for _ in range(count)])
    units = WeightStack.batch([draw(unit_rng, 1).unbatch()[0] for _ in range(count)])
    for got, want, unit in zip(batch.layers, singles.layers, units.layers):
        assert got.shape == (count,) + want.shape[1:]
        assert np.array_equal(got, want) and np.array_equal(unit, want)
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state
    assert unit_rng.bit_generator.state == single_rng.bit_generator.state
    if mode == "singular-direction":
        assert len(built) == len(set(built)) <= dims.d_min


@pytest.mark.parametrize("mode", ["gaussian-all-layers", "singular-direction", "tangent-removed"])
def test_sweep_reports_do_not_depend_on_the_chunking(mode, monkeypatch, tmp_path, capsys):
    # 5 radii x 6 samples of a 60-parameter stack: one chunk by default; then
    # one radius per chunk (the floor) with 1-row lower-bound chunks, and
    # 9-row chunks that straddle the radii.
    from deeplinear import verify

    inst, dims, reg = _generic_instance(seed=5, depth=3)
    center = _center(inst)
    cfg = RadiusSweepConfig(
        radii=tuple(np.geomspace(1e-4, 1e-1, 5)), samples_per_radius=6, seed=3, mode=mode
    )
    n = sum(w.size for w in center.stack.layers)
    assert critical.BATCH_ENTRIES // n >= 30
    calls = []
    monkeypatch.setattr(
        verify,
        "distance_to_critical_set",
        lambda w, *a, **k: calls.append(len(w.layers[0])) or distance_to_critical_set(w, *a, **k),
    )

    def reports():
        # the written reports: NaN fitted values make the dataclasses unequal
        calls.clear()
        runs = len(list(tmp_path.iterdir()))
        return (
            _written(verify_error_bound(center, inst, cfg), tmp_path / f"eb{runs}"),
            _written(verify_pl_qg(center, inst, cfg), tmp_path / f"plqg{runs}"),
        )

    default = reports()
    assert calls == [30, 30]
    for entries, chunks in ((1, [6] * 5), (9 * n, [9, 9, 9, 3])):
        monkeypatch.setattr(critical, "BATCH_ENTRIES", entries)
        assert reports() == default
        assert calls == chunks * 2
