import math

import numpy as np
import pytest

from deeplinear import DimChain, Instance, RegParams, analyze_target, build_root_value_set
from deeplinear.spectrum import GROUPING_TOL

TRIBONACCI_RECIPROCAL = 0.5436890126920764  # real root of x^3 + x^2 + x = 1


def test_zero_matrix():
    spec = analyze_target(np.zeros((3, 4)))
    assert spec.rank == 0
    assert spec.p_distinct == 0
    assert spec.multiplicities == ()
    assert math.isinf(spec.delta_y)


def test_repeated_value_partition():
    spec = analyze_target(np.diag([3.0, 3.0, 2.0]))
    assert spec.rank == 3
    assert spec.p_distinct == 2
    assert spec.s_bounds == (0, 2, 3)
    assert spec.multiplicities == (2, 1)
    assert spec.delta_y == pytest.approx(1.0)


def test_identity_target_single_block():
    spec = analyze_target(np.eye(3))
    assert spec.p_distinct == 1
    assert spec.multiplicities == (3,)
    assert spec.rank == 3
    # no second distinct value and no trailing zero: no gap exists
    assert math.isinf(spec.delta_y)


def test_trailing_zero_counts_as_gap():
    spec = analyze_target(np.diag([2.0, 0.0]))
    assert spec.rank == 1
    assert spec.delta_y == pytest.approx(2.0)


def test_reconstruction(rng):
    for _ in range(10):
        target = rng.standard_normal((rng.integers(2, 7), rng.integers(2, 7)))
        spec = analyze_target(target)
        smat = np.zeros(target.shape)
        for i, v in enumerate(spec.y):
            smat[i, i] = v
        err = np.linalg.norm(spec.u @ smat @ spec.v.T - target)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(target))


def test_partition_soundness_with_grouping(rng):
    tol = GROUPING_TOL
    base = np.array([5.0, 5.0 * (1 + 0.3 * tol), 3.0, 3.0, 1.0])
    spec = analyze_target(np.diag(base))
    top = base[0]
    assert spec.p_distinct == 3
    for i in range(spec.p_distinct):
        block = spec.y[spec.block_slice(i)]
        assert block.max() - block.min() <= tol * top
    for i in range(spec.p_distinct - 1):
        hi = spec.y[spec.s_bounds[i + 1] - 1]
        lo = spec.y[spec.s_bounds[i + 1]]
        assert hi - lo > tol * top


def test_root_value_set_two_layer():
    inst = Instance(DimChain((1, 1, 1)), RegParams((1.0, 1.0)), np.array([[2.0]]))
    assert build_root_value_set(inst) == pytest.approx((0.0, 1.0))
    assert inst.delta_sigma == pytest.approx(1.0)


def test_root_value_set_no_positive_roots():
    inst = Instance(DimChain((1, 1, 1)), RegParams((2.0, 2.0)), np.array([[1.0]]))
    assert build_root_value_set(inst) == (0.0,)
    assert math.isinf(inst.delta_sigma)


def test_root_value_set_three_layer_gap():
    # roots {0, u, 1} with u the tribonacci reciprocal; the minimal pairwise
    # gap is 1 - u, not u
    inst = Instance(DimChain((1, 1, 1, 1)), RegParams((1.0, 1.0, 1.0)), np.array([[2.0]]))
    assert build_root_value_set(inst) == pytest.approx((0.0, TRIBONACCI_RECIPROCAL, 1.0), abs=1e-12)
    assert inst.delta_sigma == pytest.approx(1.0 - TRIBONACCI_RECIPROCAL, abs=1e-12)


def test_root_value_set_residuals(rng):
    for _ in range(10):
        target = rng.standard_normal((4, 4))
        depth = int(rng.integers(2, 5))
        reg = RegParams(tuple(rng.uniform(1e-3, 1.0, depth)))
        inst = Instance(DimChain((4,) * (depth + 1)), reg, target)
        spec = inst.spectrum
        lam = reg.lambda_prod
        tol = 1e-10 * (1.0 + lam + math.sqrt(lam) * spec.y_top)
        for value in build_root_value_set(inst):
            best = min(
                abs(
                    value ** (2 * depth - 1)
                    + lam * value
                    - math.sqrt(lam) * y * value ** (depth - 1)
                )
                for y in spec.y
            )
            assert best <= tol


def test_nearby_target_values_keep_their_distinct_roots():
    # Two blocks 3e-8 apart: their small roots lie 7.5e-11 apart, well inside
    # 1e-9 * max(1, sigma_max), and delta_sigma is that gap, not the 1.4e-9
    # between the large roots that a merge of the small ones would leave.
    from deeplinear import compute_ledger, optimal_profile

    reg = RegParams.uniform(1e-4 ** (1 / 3), 3)
    inst = Instance(DimChain((2, 2, 2, 2)), reg, np.diag([2.0, 2.0 * (1 - 1.5e-8)]))
    assert inst.spectrum.multiplicities == (1, 1) and len(inst.profiles.profiles) == 9
    positive = sorted(r for roots in inst.roots for r in roots.roots if r > 0.0)
    values = build_root_value_set(inst)
    assert values == (0.0, *positive)
    gaps = np.diff(values)
    assert inst.delta_sigma == gaps.min() and 7e-11 < inst.delta_sigma < 8e-11
    assert compute_ledger(inst, optimal_profile(inst)).delta_sigma == inst.delta_sigma
