"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from deeplinear import (
    DimChain,
    RegParams,
    RadiusSweepConfig,
    Instance,
    WeightStack,
    check_balance_inequalities,
    check_first_order_conditions,
    construct_critical_point,
    distance_to_component,
    enumerate_sigma_profiles,
    fit_counterexample_scaling,
    grad_f,
    loss_f,
    optimal_profile,
    sample_random_params,
    solve_scalar_equation,
    verify_error_bound,
    verify_pl_qg,
    zero_profile,
)
from deeplinear.critical import layer_singular_values, mirsky_lower_bound
from deeplinear.training import (
    ModelSpec,
    TrainConfig,
    reproduce_section4,
    train,
)
from conftest import list_kernel, random_instance, scan_roots_oracle


def _verdict(num, ok, detail, elapsed, limit):
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {flag} ({elapsed:.2f}s / limit {limit:.0f}s) {detail}")


def _assumption_clean_instance(rng, depth, max_dim=5, lam_lo=0.2, lam_hi=1.0):
    """Instance with healthy margins and a nonzero optimal profile."""
    while True:
        dims, reg, target = random_instance(
            rng, depth=depth, max_dim=max_dim, lam_lo=lam_lo, lam_hi=lam_hi
        )
        problem = Instance(dims, reg, target)
        from deeplinear import check_assumptions

        report = check_assumptions(problem)
        if not report.ok or (report.margins and min(report.margins) < 1e-2):
            continue
        profile = optimal_profile(problem)
        if profile.is_zero:
            continue
        return dims, reg, target, problem, profile


def test_criterion_01_critical_point_construction():
    limit = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    for inst in range(20):
        depth = int(rng.integers(2, 5))
        dims, reg, target = random_instance(rng, depth=depth, max_dim=8)
        problem = Instance(dims, reg, target)
        enum = enumerate_sigma_profiles(problem)
        tol = 1e-9 * (1.0 + float(np.linalg.norm(target)))
        for k, profile in enumerate(enum.profiles):
            params = sample_random_params(problem, seed=1000 * inst + k)
            point = construct_critical_point(profile, params, problem)
            worst = max(worst, grad_f(point.stack, target, reg).norm() / tol)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < limit
    _verdict(1, ok, f"{checked} profiles, worst grad {worst:.2e} of tolerance", elapsed, limit)
    assert worst <= 1.0
    assert elapsed < limit


def test_criterion_02_root_solver_vs_dense_scan():
    limit = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(100):
        y = float(rng.uniform(0.05, 5.0))
        lam = float(rng.uniform(1e-3, 4.0))
        depth = int(rng.integers(2, 7))
        mine = [r for r in solve_scalar_equation(y, lam, depth).roots if r > 0]
        oracle = [r for r in scan_roots_oracle(y, lam, depth, cells=1_000_000) if r > 0]
        assert len(mine) == len(oracle), (y, lam, depth, mine, oracle)
        for a, b in zip(sorted(mine), sorted(oracle)):
            assert abs(a - b) <= 1e-10 * max(1.0, b), (y, lam, depth)
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    _verdict(2, ok, "100 random triples agree with the 1e6-point scan to 1e-10", elapsed, limit)
    assert elapsed < limit


def test_criterion_03_counterexample_scaling():
    limit = 1.0
    t_values = tuple(float(t) for t in np.geomspace(1e-3, 1e-1, 13))

    start = time.perf_counter()
    rep2 = fit_counterexample_scaling("l2-lambda-eq-y2", t_values=t_values)
    elapsed2 = time.perf_counter() - start
    slope2 = rep2.fitted["slope"]

    start = time.perf_counter()
    rep3 = fit_counterexample_scaling("lge3-phi-prime-zero", t_values=t_values)
    elapsed3 = time.perf_counter() - start
    slope3 = rep3.fitted["slope"]

    ok = (
        abs(slope2 - 3.0) <= 0.05
        and abs(slope3 - 2.0) <= 0.05
        and elapsed2 < limit
        and elapsed3 < limit
    )
    _verdict(
        3,
        ok,
        f"two-layer slope {slope2:.3f} (want 3.00+-0.05), "
        f"deep slope {slope3:.3f} (want 2.00+-0.05)",
        elapsed2 + elapsed3,
        2 * limit,
    )
    assert abs(slope2 - 3.0) <= 0.05
    assert abs(slope3 - 2.0) <= 0.05
    assert elapsed2 < limit and elapsed3 < limit


def test_criterion_04_error_bound_in_regime():
    limit = 60.0
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    sweep = RadiusSweepConfig(
        radii=tuple(np.geomspace(1e-5, 1e-1, 7)), samples_per_radius=6, seed=4
    )
    n_checked_kappa = 0
    for inst in range(20):
        depth = int(rng.integers(2, 5))
        dims, reg, target, problem, profile = _assumption_clean_instance(rng, depth)
        for which in ("zero", "nonzero"):
            prof = zero_profile(problem) if which == "zero" else profile
            params = sample_random_params(problem, seed=7000 + inst)
            center = construct_critical_point(prof, params, problem)
            report = verify_error_bound(center, problem, sweep)
            assert report.passed, (inst, which, report.fitted, report.tags)
            assert "kappa1-exceeded" not in report.tags
            n_checked_kappa += report.notes["kappa_checked_samples"]
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    _verdict(
        4,
        ok,
        f"40 sweeps stable (10x rule); ratio <= kappa1 on {n_checked_kappa} "
        "samples inside eps1 (vacuous where eps1 is below every radius)",
        elapsed,
        limit,
    )
    assert elapsed < limit


def test_criterion_05_pl_qg_at_global_minimizer():
    limit = 30.0
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    sweep = RadiusSweepConfig(
        radii=tuple(np.geomspace(1e-5, 1e-1, 7)), samples_per_radius=6, seed=5
    )
    mu1s = []
    for inst in range(5):
        depth = int(rng.integers(2, 4))
        dims, reg, target, problem, profile = _assumption_clean_instance(rng, depth)
        params = sample_random_params(problem, seed=9000 + inst)
        center = construct_critical_point(profile, params, problem)
        report = verify_pl_qg(center, problem, sweep)
        assert report.passed, (inst, report.fitted, report.tags)
        assert report.notes["qg_applicable"]
        assert report.fitted["mu1"] > 0
        assert math.isfinite(report.fitted["mu2"])
        mu1s.append(report.fitted["mu1"])
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    _verdict(
        5,
        ok,
        f"5 minimizers: mu1 in [{min(mu1s):.3g}, {max(mu1s):.3g}], mu2 finite, "
        "10x stability holds",
        elapsed,
        limit,
    )
    assert elapsed < limit


def test_criterion_06_balance_inequality():
    limit = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    n_points = 0
    for inst in range(10):
        depth = int(rng.integers(2, 5))
        dims, reg, target, problem, profile = _assumption_clean_instance(rng, depth)
        params = sample_random_params(problem, seed=1100 + inst)
        center = construct_critical_point(profile, params, problem, target="G")
        for _ in range(100):
            radius = float(rng.uniform(0.02, 0.3)) * profile.sigma_min_pos
            e = WeightStack.gaussian(dims, rng)
            e = e.scale(radius / e.norm())
            check = check_balance_inequalities(center.stack + e, profile, problem)
            assert check.precondition_ok
            assert check.passed, (inst, check.residuals, check.bound)
            n_points += 1
    elapsed = time.perf_counter() - start
    ok = n_points == 1000 and elapsed < limit
    _verdict(6, ok, f"{n_points} perturbed points satisfy the Gram-balance bound", elapsed, limit)
    assert n_points == 1000
    assert elapsed < limit


def test_criterion_07_near_critical_descent_reproduction():
    limit = 300.0
    start = time.perf_counter()
    rows = reproduce_section4(depths=(2, 4, 6), seed=0)
    elapsed = time.perf_counter() - start

    by_key = {(r.depth, r.init): r for r in rows}
    details = []
    ok = True
    for depth in (2, 4, 6):
        r = by_key[(depth, "optimal")]
        good = r.termination == "converged" and r.rate < 1.0 and r.r_squared >= 0.98
        ok = ok and good
        details.append(f"L={depth} opt R2={r.r_squared:.4f}")
    f_global = {d: by_key[(d, "optimal")].f_center for d in (2, 4, 6)}
    for depth in (4, 6):
        r = by_key[(depth, "saddle")]
        rel = abs(r.f_end - r.f_center) / abs(r.f_center)
        ok = ok and rel <= 1e-3
        details.append(f"L={depth} trapped rel={rel:.1e}")
    r = by_key[(2, "saddle")]
    rel = abs(r.f_end - f_global[2]) / abs(f_global[2])
    ok = ok and rel <= 1e-2
    details.append(f"L=2 escape rel={rel:.1e}")
    ok = ok and elapsed < limit
    _verdict(7, ok, "; ".join(details), elapsed, limit)

    for depth in (2, 4, 6):
        r = by_key[(depth, "optimal")]
        assert r.termination == "converged"
        assert r.rate < 1.0
        assert r.r_squared >= 0.98
    for depth in (4, 6):
        r = by_key[(depth, "saddle")]
        assert abs(r.f_end - r.f_center) <= 1e-3 * abs(r.f_center)
    r = by_key[(2, "saddle")]
    assert abs(r.f_end - f_global[2]) <= 1e-2 * abs(f_global[2])
    assert elapsed < limit


def test_criterion_08_extended_gradient_correctness():
    limit = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    step = 1e-5
    activations = ("identity", "relu", "leaky-relu", "tanh")
    worst = 0.0
    for inst in range(50):
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
        reg = RegParams(tuple(rng.uniform(1e-3, 1.0, depth)))
        n = int(rng.integers(2, 7))
        x = rng.uniform(-1, 1, size=(sizes[0], n))
        target = rng.standard_normal((sizes[-1], n))
        layers = [
            0.6 * rng.standard_normal((sizes[l + 1], sizes[l])) for l in range(depth)
        ]
        biases = [0.3 * rng.standard_normal(sizes[l + 1]) for l in range(depth)]
        activation = activations[inst % 4]
        _, gw, gb = list_kernel(layers, biases, x, target, reg, activation)
        for arr, grad in list(zip(layers, gw)) + list(zip(biases, gb)):
            flat = arr.ravel()
            gf = grad.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                fp, _, _ = list_kernel(layers, biases, x, target, reg, activation)
                flat[j] = orig - step
                fm, _, _ = list_kernel(layers, biases, x, target, reg, activation)
                flat[j] = orig
                fd = (fp - fm) / (2 * step)
                worst = max(worst, abs(fd - gf[j]) / max(1.0, abs(fd)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < limit
    _verdict(
        8,
        ok,
        f"50 instances (bias + identity/relu/leaky/tanh), worst FD error {worst:.2e}",
        elapsed,
        limit,
    )
    assert worst <= 1e-6
    assert elapsed < limit


def test_criterion_09_distance_bracket_validity():
    limit = 30.0
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    n_points = 0
    for inst in range(10):
        depth = int(rng.integers(2, 4))
        dims, reg, target, problem, profile = _assumption_clean_instance(rng, depth)
        params = sample_random_params(problem, seed=500 + inst)
        center = construct_critical_point(profile, params, problem)
        for _ in range(50):
            radius = 10.0 ** float(rng.uniform(-4, -0.8))
            e = WeightStack.gaussian(dims, rng)
            e = e.scale(radius / e.norm())
            sample = center.stack + e
            result = distance_to_component(sample, profile, problem)
            assert result.lower_bound <= result.distance * (1 + 1e-12) + 1e-15
            assert result.distance <= radius * (1 + 1e-9), (inst, radius, result.distance)
            n_points += 1
    elapsed = time.perf_counter() - start
    ok = n_points == 500 and elapsed < limit
    _verdict(
        9,
        ok,
        f"{n_points} samples: certified lower <= upper <= injected radius",
        elapsed,
        limit,
    )
    assert n_points == 500
    assert elapsed < limit


def test_criterion_10_descent_condition_diagnostics():
    limit = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    dims, reg, target, problem, profile = _assumption_clean_instance(rng, 2)
    params = sample_random_params(problem, seed=77)
    center = construct_critical_point(profile, params, problem)
    lr = 1e-3
    cfg = TrainConfig(
        learning_rate=lr, max_iters=40_000, seed=10, init="near-critical",
        init_scale=0.05, log_stride=25,
    )
    traj = train(ModelSpec(), target, reg, cfg, dims, center=center.stack)
    report = check_first_order_conditions(traj, problem)
    safeguard_err = abs(report.safeguard_constant * lr - 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        traj.termination == "converged"
        and safeguard_err <= 1e-12
        and report.sufficient_decrease_held
        and report.cost_to_go_held
        and elapsed < limit
    )
    _verdict(
        10,
        ok,
        f"safeguard*lr - 1 = {safeguard_err:.1e}, sufficient decrease held at "
        f"every tail step, cost-to-go constant {report.cost_to_go_constant:.3g}",
        elapsed,
        limit,
    )
    assert traj.termination == "converged"
    assert safeguard_err <= 1e-12
    assert report.sufficient_decrease_held
    assert report.cost_to_go_held
    assert elapsed < limit
