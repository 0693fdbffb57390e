import numpy as np
import pytest

from deeplinear import DimChain, FlatParams, RegParams, WeightStack, analyze_target, value_and_grad


def list_kernel(layers, biases, x, target, reg, activation="identity"):
    """The kernel on lists of layers (and biases): value, layer and bias gradients."""
    value, grad = value_and_grad(FlatParams.pack(layers, biases), x, target, reg, activation)
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
