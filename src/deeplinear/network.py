"""Regularized deep linear networks: losses, the gradient kernel, and rescalings.

The two objectives handled here are the per-layer regularized squared loss

    F(W) = ||W_L ... W_1 - Y||_F^2 + sum_l lambda_l ||W_l||_F^2

and its uniform-regularizer companion

    G(W) = ||W_L ... W_1 - sqrt(lam) Y||_F^2 + lam * sum_l ||W_l||_F^2,

where lam is the product of the per-layer regularization weights.  The two
problems share critical points up to the per-layer rescaling implemented by
:func:`rescale_f_to_g`.  Both, and the extended objectives of gradient descent
(input matrix, biases, activations), are evaluated by one kernel,
:func:`value_and_grad`, on one flat buffer of the layers and biases, a
:class:`WeightStack`.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .util import is_number


class ShapeError(ValueError):
    """Matrix shapes do not chain into a valid network."""


@dataclass(frozen=True)
class DimChain:
    """Layer dimension chain (d_0, d_1, ..., d_L) of an L-layer network, L >= 2."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if not all(is_number(d, numbers.Integral) for d in dims):
            raise ShapeError(f"dimensions must be integers, got dims={dims}")
        dims = tuple(int(d) for d in dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 3:
            raise ShapeError(f"need at least 2 layers (3 dims), got dims={dims}")
        if any(d < 1 for d in dims):
            raise ShapeError(f"all dimensions must be >= 1, got dims={dims}")

    @property
    def depth(self) -> int:
        return len(self.dims) - 1

    @property
    def d_in(self) -> int:
        return self.dims[0]

    @property
    def d_out(self) -> int:
        return self.dims[-1]

    @property
    def d_min(self) -> int:
        return min(self.d_in, self.d_out)

    @property
    def hidden(self) -> tuple[int, ...]:
        return self.dims[1:-1]

    @property
    def assumption1(self) -> bool:
        """Every hidden width at least as large as min(d_0, d_L)."""
        return min(self.hidden) >= self.d_min


@dataclass(frozen=True)
class RegParams:
    """Per-layer regularization weights lambda_1, ..., lambda_L (all > 0)."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lams = tuple(self.lambdas)
        if not lams:
            raise ValueError("need one weight per layer, got none")
        if not all(is_number(x) and math.isfinite(x) and x > 0 for x in lams):
            raise ValueError(f"regularization weights must be positive numbers, got {lams}")
        object.__setattr__(self, "lambdas", tuple(float(x) for x in lams))

    @classmethod
    def uniform(cls, value: float, depth: int) -> "RegParams":
        return cls((value,) * depth)

    @property
    def depth(self) -> int:
        return len(self.lambdas)

    @property
    def lambda_prod(self) -> float:
        return float(np.prod(self.lambdas))

    @property
    def lambda_min(self) -> float:
        return min(self.lambdas)

    @property
    def lambda_max(self) -> float:
        return max(self.lambdas)


class WeightStack:
    """The tuple W = (W_1, ..., W_L), layer l of shape d_l x d_{l-1}, and
    for the extended objectives the biases b_1, ..., b_L (else None).

    All are views into one flat float array: ``flat`` has shape ``(..., n)``,
    the layers and then the biases, each raveled in C order, so a leading
    sample axis, ``(R, n)``, holds R parameter sets of one shape (see
    :meth:`batch`).  The views are cut once, when the holder is made:
    ``WeightStack(layers, biases)`` copies the arrays into a new buffer, and
    :meth:`like` puts the same layout over another buffer.
    """

    def __init__(self, layers, biases=None):
        layers = [np.asarray(w, dtype=float) for w in layers]
        if len(layers) < 2:
            raise ShapeError("a network needs at least 2 layers")
        for l in range(1, len(layers)):
            if layers[l].shape[-1] != layers[l - 1].shape[-2]:
                raise ShapeError(
                    f"layer {l + 1} has {layers[l].shape[-1]} columns but "
                    f"layer {l} has {layers[l - 1].shape[-2]} rows"
                )
            if layers[l].shape[:-2] != layers[0].shape[:-2]:
                raise ShapeError("layers carry different leading sample axes")
        biases = [np.asarray(b, dtype=float) for b in biases or []]
        if biases and [b.shape for b in biases] != [w.shape[:-1] for w in layers]:
            raise ShapeError("need one bias per layer, of its rows and sample axes")
        parts, lead = layers + biases, layers[0].shape[:-2]
        shapes = tuple(a.shape[len(lead):] for a in parts)
        flat = np.concatenate([a.reshape(*lead, math.prod(s)) for a, s in zip(parts, shapes)], -1)
        self._cut(flat, shapes, len(layers))

    def _cut(self, flat: np.ndarray, shapes: tuple, depth: int) -> "WeightStack":
        """Hold ``flat`` and cut its views by ``shapes``, the first ``depth`` the layers."""
        self.flat, self.shapes, self.depth = flat, shapes, depth
        self.sizes, self.bounds = _layout(shapes)
        lead = flat.shape[:-1]
        views = [flat[..., a:b].reshape(lead + s) for (a, b), s in zip(self.bounds, shapes)]
        self.layers, self.biases = views[:depth], views[depth:] or None
        return self

    def like(self, flat: np.ndarray) -> "WeightStack":
        """The same layout over ``flat`` (its leading axes may differ)."""
        return WeightStack.__new__(WeightStack)._cut(flat, self.shapes, self.depth)

    def weights(self) -> "WeightStack":
        """The stack of the layers alone: the holder itself when it has no
        biases, else a view of the layers' prefix of ``flat`` (no copy)."""
        if self.biases is None:
            return self
        n = self.depth
        return WeightStack.__new__(WeightStack)._cut(
            self.flat[..., : self.bounds[n - 1][1]], self.shapes[:n], n
        )

    def reg_rows(self, reg: RegParams) -> tuple[np.ndarray, np.ndarray]:
        """The per-entry row of 2 lambda_l over ``flat`` (one 0-d array when
        the weights are equal), and the weights
        (1, lambda_1, ..., lambda_L, lambda_1, ...) of the squared residual and
        segment norms; built once per layout and weights."""
        if reg.depth != self.depth:
            raise ShapeError(f"{reg.depth} regularization weights for a {self.depth}-layer network")
        return _reg_rows(self.sizes, reg.lambdas * (1 if self.biases is None else 2))

    @classmethod
    def batch(cls, stacks: list["WeightStack"]) -> "WeightStack":
        """One stack holding same-shape 2-D stacks along a leading sample axis."""
        if not stacks or any(s.shapes != stacks[0].shapes for s in stacks):
            raise ShapeError("batch needs one or more stacks of one shape")
        return stacks[0].like(np.stack([s.flat for s in stacks]))

    def unbatch(self) -> list["WeightStack"]:
        """The 2-D stacks of a batched stack, in sample order."""
        return [self.like(row) for row in self.flat]

    def __getitem__(self, rows) -> "WeightStack":
        """The samples ``rows`` (an index array or mask) of a batched stack."""
        return self.like(self.flat[rows])

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.shapes[0][1],) + tuple(s[0] for s in self.shapes[: self.depth])

    def dim_chain(self) -> DimChain:
        return DimChain(self.dims)

    def copy(self) -> "WeightStack":
        return self.like(self.flat.copy())

    def norm(self) -> float | np.ndarray:
        """Frobenius norm: a float, or one per sample for a batched stack."""
        # a reduce per layer's segment, summed layer by layer: the per-layer roundings
        sq = self.flat * self.flat
        total = np.sqrt(sum(np.add.reduce(sq[..., a:b], axis=-1) for a, b in self.bounds))
        return total if total.ndim else float(total)

    def __add__(self, other: "WeightStack") -> "WeightStack":
        return self.like(self.flat + other.flat)

    def __sub__(self, other: "WeightStack") -> "WeightStack":
        return self.like(self.flat - other.flat)

    def scale(self, c: float | np.ndarray) -> "WeightStack":
        """Multiply by c: a float, or one factor per sample for a batched stack."""
        return self.like(np.asarray(c)[..., None] * self.flat)

    @classmethod
    def zeros(cls, dims) -> "WeightStack":
        dims = dims.dims if isinstance(dims, DimChain) else tuple(dims)
        return cls([np.zeros((dims[l + 1], dims[l])) for l in range(len(dims) - 1)])

    @classmethod
    def gaussian(cls, dims, rng: np.random.Generator) -> "WeightStack":
        """Standard normal entries: the stream of one draw per layer, in order."""
        stack = cls.zeros(dims)
        return stack.like(rng.standard_normal(stack.flat.shape))


def _check_target(stack: WeightStack, target: np.ndarray) -> np.ndarray:
    if stack.biases is not None:
        raise ShapeError("the product loss takes a stack without biases")
    target = np.asarray(target, dtype=float)
    expected = (stack.dims[-1], stack.dims[0])
    if target.shape != expected:
        raise ShapeError(f"target has shape {target.shape}, expected {expected}")
    return target


def partial_product(stack: WeightStack, i: int, j: int) -> np.ndarray:
    """Product W_i W_{i-1} ... W_j (1-based); the empty range j == i + 1 is identity.

    The identity returned for an empty range has the size of the seam it sits
    on: d_i rows/columns (so W_{0:1} is I_{d_0} and W_{L:L+1} is I_{d_L}).
    """
    L = stack.depth
    dims = stack.dims
    if not (0 <= i <= L and 1 <= j <= L + 1 and j <= i + 1):
        raise IndexError(f"invalid product range i={i}, j={j} for L={L}")
    if j == i + 1:
        return np.eye(dims[i])
    out = stack.layers[j - 1]
    for l in range(j, i):
        out = stack.layers[l] @ out
    return out


ACTIVATIONS = ("identity", "relu", "leaky-relu", "tanh")
LEAKY_SLOPE = 0.01


def _act(z: np.ndarray, name: str) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky-relu":
        return np.where(z > 0.0, z, LEAKY_SLOPE * z)
    return np.tanh(z)


def _act_deriv(z: np.ndarray, a: np.ndarray, name: str) -> np.ndarray:
    """Derivative of a non-identity activation at z, where a = _act(z, name)."""
    if name == "relu":
        # subgradient 0 at the kink
        return (z > 0.0).astype(float)
    if name == "leaky-relu":
        return np.where(z > 0.0, 1.0, LEAKY_SLOPE)
    return 1.0 - a * a


@functools.lru_cache(maxsize=64)
def _layout(shapes: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple]:
    """Segment sizes and (start, end) bounds, computed once per layout."""
    sizes = tuple(math.prod(s) for s in shapes)
    ends = list(itertools.accumulate(sizes))
    return sizes, tuple(zip([0, *ends[:-1]], ends))


@functools.lru_cache(maxsize=64)
def _reg_rows(sizes: tuple[int, ...], lams: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    if len(set(lams)) == 1:
        two_lam = np.array(2.0 * lams[0])  # multiplies as a scalar: the same products, faster
    else:
        two_lam = np.repeat(np.multiply(2.0, lams), sizes)
    weights = np.array((1.0,) + lams)
    two_lam.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return two_lam, weights


def objective(flat: np.ndarray, resid: np.ndarray, weights: np.ndarray, bounds) -> np.ndarray:
    """Objective values of flat buffers ``(..., n)`` and their residuals
    ``(..., d_out, cols)``, over any leading axes, each bit-identical to a
    call on its own leading index: the squared norms of the residual and of
    every segment (``bounds``), weighted by ``reg_rows(reg)[1]`` and summed.

    A reduce per segment of the squared buffer sums it as a reduce over the
    layer does, and one accumulate adds the weighted terms left to right:
    the roundings of adding them one by one, in fewer calls.
    """
    sq = np.empty(resid.shape[:-2] + weights.shape)
    np.add.reduce(resid * resid, axis=(-2, -1), out=sq[..., 0])
    flat_sq = flat * flat
    for i, (a, b) in enumerate(bounds, 1):
        np.add.reduce(flat_sq[..., a:b], axis=-1, out=sq[..., i])
    sq *= weights
    return np.add.accumulate(sq, axis=-1)[..., -1]


def _forward(params: WeightStack, x, target, weights, activation, resid=None):
    """Objective value, residual, pre-activations and activations of every layer.

    ``weights`` are the weights of the squared norms, ``params.reg_rows(reg)[1]``.
    Given a ``resid`` buffer, the residual is written into it and the value
    is not computed (None).
    """
    layers, biases = params.layers, params.biases
    L = len(layers)
    acts: list[np.ndarray | None] = [x]
    pre: list[np.ndarray] = []
    a = x
    for l in range(L):
        z = layers[l] @ a if a is not None else layers[l]
        if biases is not None:
            z = z + biases[l][..., :, None]
        pre.append(z)
        a = _act(z, activation) if l < L - 1 else z
        acts.append(a)
    if resid is not None:
        return None, np.subtract(a, target, out=resid), pre, acts
    resid = a - target
    value = objective(params.flat, resid, weights, params.bounds)
    return (value if value.ndim else float(value)), resid, pre, acts


def value_and_grad(
    params: WeightStack,
    x: np.ndarray | None,
    target: np.ndarray,
    reg: RegParams,
    activation: str = "identity",
    grad: WeightStack | None = None,
    resid: np.ndarray | None = None,
) -> tuple[float | np.ndarray | None, WeightStack]:
    """Objective value and exact gradient of the extended loss.

    The one gradient kernel: a forward pass, then backpropagation.  ``x is
    None`` means the identity input, which makes the objective ``loss_f``.
    Activations apply after every layer except the last; biases (when
    present) are regularized with the same per-layer weights as the matrices.

    The gradient is written in place into ``grad``, a holder of the layout
    of ``params`` (allocated when None), and returned.  ``params.flat`` may
    carry a leading run axis, shape ``(R, n)``, to evaluate R parameter sets
    of one shape at once; the input matrix and the target are shared 2-D
    arrays.  The value is then an array of R objectives.  Each run's value
    and gradient are bit-identical to a call on its row, and a call on one
    ``(n,)`` row returns the value as a float.

    Given a ``resid`` buffer (shape ``(..., d_out, cols)``), the kernel
    writes the residual into it and skips the value, returning None in its
    place: :func:`objective` of the parameters and that residual is the value,
    bit for bit.
    """
    two_lam, weights = params.reg_rows(reg)
    value, resid, pre, acts = _forward(params, x, target, weights, activation, resid)
    if grad is None:
        grad = params.like(np.empty_like(params.flat))
    layers = params.layers
    dz = 2.0 * resid
    for l in range(len(layers) - 1, -1, -1):
        if acts[l] is None:
            np.copyto(grad.layers[l], dz)
        else:
            np.matmul(dz, acts[l].swapaxes(-1, -2), out=grad.layers[l])
        if params.biases is not None:
            np.add.reduce(dz, axis=-1, out=grad.biases[l])
        if l > 0:
            dz = layers[l].swapaxes(-1, -2) @ dz
            if activation != "identity":
                dz *= _act_deriv(pre[l - 1], acts[l], activation)
    # the Tikhonov term of every layer and bias at once
    grad.flat += two_lam * params.flat
    return value, grad


def loss_f(stack: WeightStack, target: np.ndarray, reg: RegParams) -> float | np.ndarray:
    """Squared residual of the end-to-end map plus per-layer Tikhonov terms.

    A batched stack gives one value per sample, each bit-identical to a 2-D
    call on its sample (as for :func:`value_and_grad` and :func:`grad_f`).
    """
    target = _check_target(stack, target)
    return _forward(stack, None, target, stack.reg_rows(reg)[1], "identity")[0]


def grad_f(stack: WeightStack, target: np.ndarray, reg: RegParams) -> WeightStack:
    """Exact gradient of :func:`loss_f` with respect to every layer, over the
    kernel's own gradient buffer."""
    target = _check_target(stack, target)
    return value_and_grad(stack, None, target, reg)[1]


def uniform_companion(target: np.ndarray, reg: RegParams) -> tuple[np.ndarray, RegParams]:
    """Target and weights of the F problem whose loss is G: sqrt(lam) Y and lam."""
    lam = reg.lambda_prod
    return math.sqrt(lam) * np.asarray(target, dtype=float), RegParams.uniform(lam, reg.depth)


def loss_g(stack: WeightStack, target: np.ndarray, reg: RegParams) -> float | np.ndarray:
    """Uniform-regularizer loss with target scaled by sqrt of the product weight."""
    return loss_f(stack, *uniform_companion(target, reg))


def grad_g(stack: WeightStack, target: np.ndarray, reg: RegParams) -> WeightStack:
    """Exact gradient of :func:`loss_g` with respect to every layer."""
    return grad_f(stack, *uniform_companion(target, reg))


def rescale_f_to_g(stack: WeightStack, reg: RegParams) -> WeightStack:
    """Map a point of the per-layer problem to the uniform problem: W_l -> sqrt(lambda_l) W_l."""
    two_lam = stack.reg_rows(reg)[0]  # checks the depth; halved exactly
    return stack.like(stack.flat * np.sqrt(0.5 * two_lam))


def rescale_g_to_f(stack: WeightStack, reg: RegParams) -> WeightStack:
    """Inverse of :func:`rescale_f_to_g`."""
    two_lam = stack.reg_rows(reg)[0]  # checks the depth; halved exactly
    return stack.like(stack.flat / np.sqrt(0.5 * two_lam))
