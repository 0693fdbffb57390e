import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplinear import (
    DimChain,
    Instance,
    RegParams,
    SolverError,
    degenerate_sigma,
    excluded_lambda,
    solve_scalar_equation,
)
from deeplinear.cli import main
from deeplinear.critical import DEGENERACY_TOL, GRID_CELLS, ScalarRoots, _bisect
from conftest import grid_solver_oracle, scan_roots_oracle


def _scalar_scan_reference(y, lam, depth):
    """The solver with q evaluated point by point with scalar pow.

    Same grid, cell loop, tangential test, polish and dedup as
    ``solve_scalar_equation``; only the grid evaluation differs, so the two
    must agree bit for bit.
    """
    y, lam, L = float(y), float(lam), int(depth)
    root_lam = math.sqrt(lam)
    scale = lam + root_lam * y
    res_tol = 1e-12 * scale

    def q(x):
        return x ** (2 * L - 2) - root_lam * y * x ** (L - 2) + lam

    def qp(x):
        if L == 2:
            return 2.0 * x
        return (2 * L - 2) * x ** (2 * L - 3) - (L - 2) * root_lam * y * x ** (L - 3)

    def size(x):
        return max(x ** (2 * L - 2), root_lam * y * x ** (L - 2), lam)

    roots, flags, residuals = [0.0], [abs(q(0.0)) <= 1e-12 * size(0.0)], [0.0]
    if y > 0.0:
        bracket = (root_lam * y) ** (1.0 / L)
        grid = list(np.linspace(0.0, bracket, GRID_CELLS + 1))
        x_min = ((L - 2) * root_lam * y / (2 * L - 2)) ** (1.0 / L)
        interior = 0.0 < x_min < bracket
        if interior:
            grid.append(x_min)
            grid.sort()
        qvals = [q(x) for x in grid]
        found = []
        for k in range(len(grid) - 1):
            a, b = grid[k], grid[k + 1]
            qa, qb = qvals[k], qvals[k + 1]
            if qa == 0.0 and a > 0.0:
                found.append(a)
            elif qa * qb < 0.0:
                found.append(_bisect(q, a, b, qa, qb))
        if qvals[-1] == 0.0:
            found.append(grid[-1])
        if (
            interior
            and abs(q(x_min)) <= res_tol
            and not any(abs(x_min - r) <= 1e-9 * max(1.0, bracket) for r in found)
        ):
            found.append(x_min)
        polished = []
        for r in sorted(found):
            d = qp(r)
            if abs(d) > DEGENERACY_TOL * scale:
                step = q(r) / d
                if abs(step) < 1e-6 * max(1.0, bracket):
                    r = r - step
            polished.append(r)
        for r in polished:
            if any(abs(r - prev) <= 1e-9 * max(1.0, bracket) for prev in roots[1:]):
                continue
            res = abs(q(r))
            if res > 10 * max(res_tol, 1e-12 * size(r)):
                raise SolverError(f"root {r} of (y={y}, lam={lam}, L={L}) has residual {res}")
            roots.append(r)
            flags.append(abs(r * qp(r)) <= DEGENERACY_TOL * size(r))
            residuals.append(res)
    order = np.argsort(roots)
    return ScalarRoots(
        tuple(float(roots[k]) for k in order),
        tuple(bool(flags[k]) for k in order),
        tuple(float(residuals[k]) for k in order),
    )


def _outcome(solve, y, lam, depth):
    try:
        r = solve(y, lam, depth)
    except SolverError as exc:
        return str(exc)
    return r.roots, r.degenerate, r.residuals


def _assert_same_as_scalar_scan(y, lam, depth):
    expected = _outcome(_scalar_scan_reference, y, lam, depth)
    assert _outcome(solve_scalar_equation, y, lam, depth) == expected, (y, lam, depth)


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


@pytest.mark.parametrize("y, lam", [(1.0, 1e-24), (1e9, 1.0), (5.0, 1e-26)])
def test_positive_roots_below_the_dedup_tolerance_are_kept(y, lam):
    # At L=3 the small root sits near sqrt(lam) / y, below 1e-9 * max(1, bracket):
    # it is a root of its own, not the zero root.
    roots = solve_scalar_equation(y, lam, 3)
    mine = roots.positive()
    oracle = [r for r in scan_roots_oracle(y, lam, 3, cells=200_000) if r > 0]
    assert len(mine) == len(oracle) == 2
    for a, b in zip(mine, oracle):
        assert abs(a - b) <= 1e-10 * max(1.0, b)
    small = math.sqrt(lam) / y  # q(x) = x^4 - sqrt(lam) y x + lam, x^4 negligible
    assert mine[0] < 1e-9 * max(1.0, (math.sqrt(lam) * y) ** (1 / 3))
    assert mine[0] == pytest.approx(small, rel=1e-9)
    assert roots.degenerate == (False, False, False)


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


@pytest.mark.parametrize("y, lam", [(97240510.80549808, 0.1), (124814889.8610428, 2.0)])
def test_residual_gate_scales_with_the_terms_of_q(y, lam, capsys):
    # At these roots q's largest term is about 1e13, so its rounding alone
    # exceeds 1e-11 * (lam + sqrt(lam) y); the gate measures against the terms.
    depth = 7
    roots = solve_scalar_equation(y, lam, depth)
    assert len(roots.positive()) == 2
    for r, res in zip(roots.roots, roots.residuals):
        if r > 0:
            size = max(r ** (2 * depth - 2), math.sqrt(lam) * y * r ** (depth - 2), lam)
            assert res <= 1e-12 * size
    assert main(["roots", "--y", repr(y), "--lambda", repr(lam), "--L", str(depth)]) == 0
    assert "residual" in capsys.readouterr().out


def test_invalid_arguments():
    with pytest.raises(ValueError):
        solve_scalar_equation(-1.0, 1.0, 2)
    with pytest.raises(ValueError):
        solve_scalar_equation(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        solve_scalar_equation(1.0, 1.0, 1)


@pytest.mark.parametrize("depth", range(2, 8))
def test_array_grid_pass_matches_scalar_scan_near_excluded_weights(depth):
    # numpy's array power and libm pow differ by up to an ulp; near a double
    # root that flips grid signs unless near-zero points are re-evaluated.
    # At the exact weights for (y=2, L=5) and (y=5, L=6) both return the
    # double root three times (see the xfail below).
    offsets = [0.0] + [s * 10.0**e for e in range(-14, -1) for s in (1.0, -1.0)]
    for y in (0.3, 1.0, 2.0, 5.0):
        lam = excluded_lambda(y, depth)
        for offset in offsets:
            _assert_same_as_scalar_scan(y, lam * (1.0 + offset), depth)
        _assert_same_as_scalar_scan(0.0, lam, depth)


def test_array_grid_pass_matches_scalar_scan_at_tiny_weights():
    for y in (0.5, 2.0, 5.0):
        for depth, lam in ((6, 1e-24), (6, 1e-20), (5, 1e-24), (5, 1e-20)):
            _assert_same_as_scalar_scan(y, lam, depth)


def _y_with_root_on_grid_point(lam, depth, k):
    # q(t * bracket) = lam - (sqrt(lam) y)^((2L-2)/L) t^(L-2) (1 - t^L) with
    # t = k / GRID_CELLS: pick y so that this vanishes, so the computed q at
    # grid point k is rounding noise of either sign
    t = k / GRID_CELLS
    inner = lam / (t ** (depth - 2) * (1.0 - t**depth))
    return inner ** (depth / (2 * depth - 2)) / math.sqrt(lam)


# A coarse sweep, and the triples on which a plain array pass without the
# scalar re-evaluation (numpy 2.4.6, x86-64) returned other roots than the
# scalar scan.
ON_GRID = [(lam, depth, k) for depth in range(2, 8) for lam in (0.1, 2.0) for k in range(7, 4096, 401)]
ON_GRID += [
    (0.1, 3, 3152), (0.001, 5, 1228), (0.001, 5, 3559), (0.1, 5, 3485), (0.5, 5, 377),
    (2.0, 5, 2301), (0.1, 6, 3152), (2.0, 6, 3522), (2.0, 6, 3781), (0.1, 7, 3263),
    (0.5, 7, 3522), (0.5, 7, 3559),
]


def test_array_grid_pass_matches_scalar_scan_with_roots_on_grid_points():
    for lam, depth, k in ON_GRID:
        _assert_same_as_scalar_scan(_y_with_root_on_grid_point(lam, depth, k), lam, depth)


@settings(max_examples=40, deadline=None)
@given(
    y=st.floats(min_value=0.0, max_value=20.0),
    lam=st.floats(min_value=1e-26, max_value=10.0),
    depth=st.integers(min_value=2, max_value=7),
)
def test_array_grid_pass_matches_scalar_scan_generic(y, lam, depth):
    _assert_same_as_scalar_scan(y, lam, depth)


def _oracle_cases():
    """2,140 seeded solver inputs: random triples, and weights at or near the
    excluded value (where the double roots sit), exactly and at margins."""
    rng = np.random.default_rng(20261019)
    margins = (0.0, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12)
    cases = [
        (y, excluded_lambda(y, depth) * (1.0 + m), depth)
        for depth in range(2, 7)
        for y in (0.3, 1.0, 2.0, 5.0)
        for m in margins
    ]
    for _ in range(1000):
        depth = int(rng.integers(2, 8))
        cases.append((10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-8, 2), depth))
    for _ in range(1000):
        depth, y = int(rng.integers(2, 7)), 10.0 ** rng.uniform(-2, 2)
        cases.append((y, excluded_lambda(y, depth) * (1.0 + rng.choice(margins)), depth))
    return cases


def test_solver_matches_numpy_grid_oracle_bit_for_bit():
    # Python-float bisection, polish and checks, and the precomputed grid,
    # are the numpy-scalar solver's operations: roots, flags, residuals and
    # SolverError messages must be equal, not close.
    cases = _oracle_cases()
    assert len(cases) >= 2000
    for y, lam, depth in cases:
        expected = _outcome(grid_solver_oracle, y, lam, depth)
        assert _outcome(solve_scalar_equation, y, lam, depth) == expected, (y, lam, depth)


@pytest.mark.parametrize(
    "y, lam, depth",
    [(1e150, 1.0, 6), (1e200, 1.0, 6), (math.inf, 1.0, 6), (1.0, math.inf, 6), (1e308, 1.0, 2)],
)
def test_overflowing_terms_raise_solver_error(y, lam, depth):
    # Past about 1e154, the product of two grid values of q overflows and the
    # sign changes (so the roots) are lost; the solver says so.
    with pytest.raises(SolverError, match="overflow"):
        solve_scalar_equation(y, lam, depth)


@pytest.mark.xfail(
    strict=True,
    reason="the grid returns the L=5 double root three times; bench/reference/ledger.json "
    "pins the same duplication in its ledger-11-L4-r4-excluded/roots entries, so the "
    "fix lands with a re-recorded reference",
)
def test_double_root_counted_once_in_profiles():
    lam = excluded_lambda(2.0, 5)
    inst = Instance(DimChain((2,) * 6), RegParams((lam, 1.0, 1.0, 1.0, 1.0)), np.diag([2.0, 0.5]))
    assert inst.reg.lambda_prod == lam
    assert len(inst.roots[0].positive()) == 1
    assert len(inst.profiles.profiles) == 2  # the double root and the zero profile
