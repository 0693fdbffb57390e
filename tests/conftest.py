import itertools
import math

import numpy as np
import pytest

from deeplinear import DimChain, RegParams, WeightStack, analyze_target, value_and_grad
from deeplinear.critical import (
    _EPS,
    BISECT_TOL,
    DEGENERACY_TOL,
    GRID_CELLS,
    ScalarRoots,
    SolverError,
)


def list_kernel(layers, biases, x, target, reg, activation="identity"):
    """The kernel on lists of layers (and biases): value, layer and bias gradients."""
    value, grad = value_and_grad(WeightStack(layers, biases), x, target, reg, activation)
    return value, grad.layers, grad.biases


def random_instance(rng, depth=None, max_dim=8, lam_lo=1e-3, lam_hi=1.0):
    """Random instance with hidden widths satisfying the width condition."""
    if depth is None:
        depth = int(rng.integers(2, 5))
    d0 = int(rng.integers(2, max_dim + 1))
    dl = int(rng.integers(2, max_dim + 1))
    dmin = min(d0, dl)
    hidden = [int(rng.integers(dmin, max_dim + 1)) for _ in range(depth - 1)]
    dims = DimChain((d0, *hidden, dl))
    reg = RegParams(tuple(float(x) for x in rng.uniform(lam_lo, lam_hi, depth)))
    target = rng.standard_normal((dl, d0))
    return dims, reg, target


def finite_difference_grad(fun, stack: WeightStack, step=1e-5) -> WeightStack:
    """Central-difference gradient of a scalar function of a weight stack."""
    grads = []
    for li, w in enumerate(stack.layers):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            fp = fun(stack)
            w[idx] = orig - step
            fm = fun(stack)
            w[idx] = orig
            g[idx] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return WeightStack(grads)


def scan_roots_oracle(y, lam, depth, cells=1_000_000):
    """Independent dense-scan root finder for the scalar stationarity equation.

    Vectorized sign-change scan over a uniform grid on (0, (sqrt(lam) y)^(1/L)]
    followed by plain bisection; deliberately shares no code with the
    production solver.
    """
    roots = [0.0]
    if y <= 0:
        return roots
    rl = np.sqrt(lam)
    b = (rl * y) ** (1.0 / depth)

    def q(x):
        return x ** (2 * depth - 2) - rl * y * x ** (depth - 2) + lam

    xs = np.linspace(0.0, b, cells + 1)
    vals = q(xs)
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    for k in sign_change:
        lo, hi = xs[k], xs[k + 1]
        flo = vals[k]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = q(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    exact = xs[1:][np.abs(vals[1:]) == 0.0]
    roots.extend(float(x) for x in exact)
    return sorted(set(roots))


def _grid_bisect(q, lo, hi, qlo, qhi):
    if qlo == 0.0:
        return lo
    if qhi == 0.0:
        return hi
    if qlo * qhi > 0.0:
        raise SolverError(f"root not bracketed on [{lo}, {hi}]: q={qlo}, {qhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        qmid = q(mid)
        if qmid == 0.0 or hi - lo < BISECT_TOL * max(1.0, hi):
            return mid
        if (qmid < 0.0) == (qlo < 0.0):
            lo, qlo = mid, qmid
        else:
            hi, qhi = mid, qmid
    raise SolverError(f"bisection did not converge on [{lo}, {hi}] (q values {qlo}, {qhi})")


def grid_solver_oracle(y, lam, depth):
    """The grid root solver as written with numpy throughout.

    ``np.linspace`` grid, ``np.insert`` of the interior minimizer, and
    bisection, polish, dedup and residual checks on the ``np.float64`` grid
    scalars.  ``solve_scalar_equation`` does the same IEEE operations on
    Python floats, so the two must agree bit for bit wherever q's terms stay
    finite.
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
        grid = np.linspace(0.0, bracket, GRID_CELLS + 1)
        x_min = ((L - 2) * root_lam * y / (2 * L - 2)) ** (1.0 / L)
        interior = 0.0 < x_min < bracket
        if interior:
            q_min = q(x_min)
            k_min = np.searchsorted(grid, x_min, side="right")
            grid = np.insert(grid, k_min, x_min)
        high = grid ** (2 * L - 2)
        low = root_lam * y * grid ** (L - 2)
        qvals = high - low + lam
        if interior:
            qvals[k_min] = q_min
        near = ~(np.abs(qvals) > 64 * _EPS * (high + low + lam) + 1e-150)
        near[1:] |= near[:-1].copy()
        near[:-1] |= near[1:].copy()
        for k in np.flatnonzero(near):
            qvals[k] = q(grid[k])
        qa, qb = qvals[:-1], qvals[1:]
        found = []
        for k in np.flatnonzero(((qa == 0.0) & (grid[:-1] > 0.0)) | (qa * qb < 0.0)):
            if qa[k] == 0.0:
                found.append(grid[k])
            else:
                found.append(_grid_bisect(q, grid[k], grid[k + 1], qa[k], qb[k]))
        if qvals[-1] == 0.0:
            found.append(grid[-1])
        if (
            interior
            and abs(q_min) <= res_tol
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


def product_walk_oracle(inst, cap=1024):
    """The profile walk as ``enumerate_sigma_profiles`` built it one tuple at
    a time: ``itertools.product`` over each run's
    ``combinations_with_replacement``, each combination joined by
    ``sum(combo, ())``.  Returns the ordered choice rows and sorted vectors,
    the truncation flag and the product of the root counts."""
    counts = [len(r.roots) for r in inst.roots]
    rank, spectrum = len(counts), inst.spectrum
    roots = np.zeros((rank, max(counts, default=1)))
    for i, r in enumerate(inst.roots):
        roots[i, : counts[i]] = r.roots
    runs = [
        itertools.combinations_with_replacement(range(n - 1, -1, -1), len(list(run)))
        for b in range(spectrum.p_distinct)
        for n, run in itertools.groupby(counts[spectrum.block_slice(b)])
    ]
    walk = itertools.islice(itertools.product(*runs), cap + 1)
    choice = np.array([sum(combo, ()) for combo in walk], dtype=np.intp)
    truncated = len(choice) > cap
    if truncated:
        choice[cap] = 0
    sigmas = np.zeros((len(choice), inst.dims.d_min))
    sigmas[:, :rank] = np.sort(roots[np.arange(rank), choice], axis=1)[:, ::-1]
    order = np.lexsort(-sigmas[:, ::-1].T)
    return choice[order], sigmas[order], truncated, math.prod(counts)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
