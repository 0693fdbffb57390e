import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplinear import SolverError, degenerate_sigma, excluded_lambda, solve_scalar_equation
from conftest import scan_roots_oracle


def test_two_layer_closed_form():
    roots = solve_scalar_equation(2.0, 1.0, 2)
    assert roots.roots == pytest.approx((0.0, 1.0), abs=1e-13)
    assert roots.degenerate == (False, False)

    roots = solve_scalar_equation(1.0, 4.0, 2)
    assert roots.roots == (0.0,)


def test_three_layer_known_roots():
    roots = solve_scalar_equation(2.0, 1.0, 3)
    assert len(roots.roots) == 3
    assert roots.roots[1] == pytest.approx(0.5436890126920764, abs=1e-12)
    assert roots.roots[2] == pytest.approx(1.0, abs=1e-13)


def test_zero_target_value():
    roots = solve_scalar_equation(0.0, 0.3, 4)
    assert roots.roots == (0.0,)


def test_double_root_flagged_for_deep_network():
    y = 2.0
    lam = excluded_lambda(y, 3)
    roots = solve_scalar_equation(y, lam, 3)
    positive = [(r, d) for r, d in zip(roots.roots, roots.degenerate) if r > 0]
    assert len(positive) == 1
    root, degenerate = positive[0]
    assert degenerate
    # phi'(x) = 0 forces x^(2L-2) = lam (L-2)/L, so x* = (lam/3)^(1/4) here
    expected = (lam / 3.0) ** 0.25
    assert root == pytest.approx(expected, rel=1e-6)


def test_two_layer_excluded_value_flags_zero_root():
    roots = solve_scalar_equation(2.0, 4.0, 2)  # lam = y^2
    assert roots.roots == (0.0,)
    assert roots.degenerate == (True,)


@pytest.mark.parametrize("depth", range(2, 7))
def test_double_root_at_excluded_weight_is_flagged(depth):
    for y in (0.3, 1.0, 2.0, 5.0):
        lam = excluded_lambda(y, depth)
        roots = solve_scalar_equation(y, lam, depth)
        if depth == 2:
            # lam = y^2: the positive root has merged into the zero root
            assert roots.roots == (0.0,) and roots.degenerate == (True,)
            continue
        assert not roots.degenerate[0]
        flagged = [r for r, d in zip(roots.roots, roots.degenerate) if d]
        x = degenerate_sigma(lam, depth)
        assert flagged and all(abs(r - x) <= 1e-6 * x for r in flagged)


def test_simple_roots_at_tiny_weights_are_not_flagged():
    # reproduce-s4's weight at L=6: q's terms are far below 1, so a vanishing
    # derivative must be judged against their size, not an absolute scale
    for y in (0.5, 2.0, 5.0):
        roots = solve_scalar_equation(y, 1e-24, 6)
        assert len(roots.roots) == 3
        assert roots.degenerate == (False, False, False)


def test_agrees_with_dense_scan_oracle(rng):
    cases = [
        (float(rng.uniform(0.1, 5.0)), float(rng.uniform(1e-3, 2.0)), int(rng.integers(2, 7)))
        for _ in range(30)
    ]
    # reproduce-s4-sized weights, where sqrt(lam) is far below 1e-12 * y
    cases += [(y, lam, depth) for y in (0.5, 2.0, 5.0) for depth, lam in ((5, 1e-20), (6, 1e-24))]
    for y, lam, depth in cases:
        mine = [r for r in solve_scalar_equation(y, lam, depth).roots if r > 0]
        oracle = [r for r in scan_roots_oracle(y, lam, depth, cells=200_000) if r > 0]
        assert len(mine) == len(oracle)
        for a, b in zip(mine, oracle):
            assert abs(a - b) <= 1e-10 * max(1.0, b)


@settings(max_examples=60, deadline=None)
@given(
    y=st.floats(min_value=1e-3, max_value=10.0),
    lam=st.floats(min_value=1e-4, max_value=10.0),
    depth=st.integers(min_value=2, max_value=6),
)
def test_roots_satisfy_equation_within_bracket(y, lam, depth):
    roots = solve_scalar_equation(y, lam, depth)
    assert roots.roots[0] == 0.0
    scale = lam + math.sqrt(lam) * y
    bracket = (math.sqrt(lam) * y) ** (1.0 / depth)
    for r in roots.roots:
        if r > 0:
            assert r <= bracket * (1 + 1e-12)
            q = r ** (2 * depth - 2) - math.sqrt(lam) * y * r ** (depth - 2) + lam
            assert abs(q) <= 1e-11 * scale


def test_invalid_arguments():
    with pytest.raises(ValueError):
        solve_scalar_equation(-1.0, 1.0, 2)
    with pytest.raises(ValueError):
        solve_scalar_equation(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        solve_scalar_equation(1.0, 1.0, 1)
