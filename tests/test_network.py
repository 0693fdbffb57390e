import math

import numpy as np
import pytest

from deeplinear import (
    DimChain,
    Instance,
    ModelSpec,
    RegParams,
    ShapeError,
    TrainConfig,
    WeightStack,
    construct_critical_point,
    distance_to_critical_set,
    grad_f,
    grad_g,
    loss_f,
    loss_g,
    optimal_profile,
    partial_product,
    rescale_f_to_g,
    rescale_g_to_f,
    sample_random_params,
    train,
    value_and_grad,
)
from deeplinear import network
from deeplinear.verify import RadiusSweepConfig
from conftest import finite_difference_grad, list_kernel, random_instance


def test_loss_zero_stack_is_target_norm():
    target = np.diag([2.0, 1.0])  # ||Y||_F^2 = 5
    stack = WeightStack.zeros((2, 3, 2))
    assert loss_f(stack, target, RegParams((1.0, 1.0))) == pytest.approx(5.0)


def test_loss_exact_fit_leaves_regularizer():
    target = np.array([[1.0, 2.0], [3.0, -1.0]])
    stack = WeightStack([np.eye(2), target.copy()])
    reg = RegParams((1.0, 1.0))
    expected = np.sum(np.eye(2) ** 2) + np.sum(target**2)
    assert loss_f(stack, target, reg) == pytest.approx(expected, rel=1e-14)


def test_loss_and_grad_scalar_hand_case():
    # W1 = 2, W2 = 3, Y = 5, lambda = (0.1, 0.1)
    stack = WeightStack([np.array([[2.0]]), np.array([[3.0]])])
    target = np.array([[5.0]])
    reg = RegParams((0.1, 0.1))
    assert loss_f(stack, target, reg) == pytest.approx(2.3, rel=1e-14)
    g = grad_f(stack, target, reg)
    assert g.layers[0][0, 0] == pytest.approx(6.4, rel=1e-14)
    assert g.layers[1][0, 0] == pytest.approx(4.6, rel=1e-14)


def test_loss_nonnegative_random(rng):
    for _ in range(20):
        dims, reg, target = random_instance(rng, max_dim=5)
        stack = WeightStack.gaussian(dims, rng)
        assert loss_f(stack, target, reg) >= 0.0


def test_shape_errors():
    stack = WeightStack([np.zeros((3, 2)), np.zeros((2, 3))])
    with pytest.raises(ShapeError):
        loss_f(stack, np.zeros((5, 5)), RegParams((1.0, 1.0)))
    with pytest.raises(ShapeError):
        WeightStack([np.zeros((3, 2)), np.zeros((2, 4))])  # 4 != 3


def test_product_loss_and_critical_set_reject_a_stack_with_biases(rng):
    # The one holder also carries biases, so the bias-free objectives check
    # for them: a holder with biases is a shape error, its weights() view is not.
    inst = Instance(DimChain((3, 4, 2)), RegParams((0.5, 0.6)), rng.standard_normal((2, 3)))
    stack = WeightStack.gaussian(inst.dims, rng)
    held = WeightStack(stack.layers, [rng.standard_normal(4), rng.standard_normal(2)])
    for call in (
        lambda s: loss_f(s, inst.target, inst.reg),
        lambda s: grad_f(s, inst.target, inst.reg),
        lambda s: distance_to_critical_set(s, inst),
    ):
        with pytest.raises(ShapeError):
            call(held)
        call(held.weights())


def test_gradient_matches_central_differences(rng):
    for _ in range(6):
        depth = int(rng.integers(2, 6))
        dims, reg, target = random_instance(rng, depth=depth, max_dim=8)
        stack = WeightStack(
            [rng.uniform(-1, 1, size=w.shape) for w in WeightStack.zeros(dims).layers]
        )
        analytic = grad_f(stack, target, reg)
        numeric = finite_difference_grad(lambda s: loss_f(s, target, reg), stack)
        err = (analytic - numeric).norm() / max(1.0, numeric.norm())
        assert err <= 1e-6


def test_kernel_agrees_exactly_with_f_and_g_views(rng):
    for _ in range(8):
        depth = int(rng.integers(2, 6))
        dims, reg, target = random_instance(rng, depth=depth, max_dim=6)
        stack = WeightStack.gaussian(dims, rng)
        lam = reg.lambda_prod
        problems = [
            (target, reg, loss_f, grad_f),
            (math.sqrt(lam) * target, RegParams.uniform(lam, depth), loss_g, grad_g),
        ]
        for y, kernel_reg, loss, grad in problems:
            value, grads, gbias = list_kernel(stack.layers, None, None, y, kernel_reg)
            assert gbias is None
            assert value == loss(stack, target, reg)
            for a, b in zip(grads, grad(stack, target, reg).layers):
                assert np.array_equal(a, b)


def test_gradient_vanishes_at_constructed_critical_point(rng):
    dims, reg, target = random_instance(rng, depth=3, max_dim=6)
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    params = sample_random_params(inst, seed=1)
    point = construct_critical_point(profile, params, inst)
    norm = grad_f(point.stack, target, reg).norm()
    assert norm <= 1e-10 * (1.0 + np.linalg.norm(target))


def test_grad_g_rescale_identity(rng):
    # grad of the uniform problem at the rescaled point equals
    # (lam / sqrt(lambda_l)) times the per-layer gradient, entrywise.
    dims, reg, target = random_instance(rng, depth=3, max_dim=5)
    stack = WeightStack.gaussian(dims, rng)
    lam = reg.lambda_prod
    gf = grad_f(stack, target, reg)
    gg = grad_g(rescale_f_to_g(stack, reg), target, reg)
    for l in range(3):
        expected = lam / math.sqrt(reg.lambdas[l]) * gf.layers[l]
        assert np.max(np.abs(gg.layers[l] - expected)) <= 1e-12 * (
            1.0 + np.max(np.abs(expected))
        )


def test_g_view_of_a_deep_small_weight_instance(rng):
    # The instance's product weight 1e-40 is a float; its companion's,
    # (1e-40) ** 10, underflows, and the G view must not need it.
    dims, reg, target = DimChain((2,) * 11), RegParams.uniform(1e-4, 10), np.diag([2.0, 1.3])
    Instance(dims, reg, target)
    assert loss_g(WeightStack.zeros(dims), target, reg) == pytest.approx(1e-40 * 5.69)
    assert math.isfinite(grad_g(WeightStack.gaussian(dims, rng), target, reg).norm())


def test_rescale_roundtrip_and_identity(rng):
    dims, _, _ = random_instance(rng, depth=4, max_dim=5)
    stack = WeightStack.gaussian(dims, rng)
    unit = RegParams.uniform(1.0, 4)
    same = rescale_f_to_g(stack, unit)
    assert (same - stack).norm() == 0.0
    reg = RegParams((0.2, 0.9, 1.7, 0.4))
    back = rescale_g_to_f(rescale_f_to_g(stack, reg), reg)
    assert (back - stack).norm() <= 1e-14 * (1.0 + stack.norm())


def test_rescaled_critical_point_is_critical_for_uniform_problem(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=5)
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    params = sample_random_params(inst, seed=3)
    point = construct_critical_point(profile, params, inst)
    moved = rescale_f_to_g(point.stack, reg)
    assert grad_g(moved, target, reg).norm() <= 1e-10 * (1.0 + np.linalg.norm(target))


def test_partial_product_conventions(rng):
    dims, _, _ = random_instance(rng, depth=4, max_dim=5)
    stack = WeightStack.gaussian(dims, rng)
    L = stack.depth
    for i in range(1, L + 1):
        assert np.array_equal(partial_product(stack, i, i), stack.layers[i - 1])
    assert np.array_equal(partial_product(stack, 0, 1), np.eye(dims.dims[0]))
    assert np.array_equal(partial_product(stack, L, L + 1), np.eye(dims.dims[-1]))
    with pytest.raises(IndexError):
        partial_product(stack, L + 1, 1)
    with pytest.raises(IndexError):
        partial_product(stack, 2, 0)


def test_partial_product_two_association_orders_agree(rng):
    dims, _, _ = random_instance(rng, depth=5, max_dim=6)
    stack = WeightStack.gaussian(dims, rng)
    left = partial_product(stack, 5, 1)
    right = stack.layers[4]
    for l in range(3, -1, -1):
        right = right @ stack.layers[l]
    assert np.max(np.abs(left - right)) <= 1e-12 * (1.0 + np.max(np.abs(left)))


def test_dimchain_assumption_flag():
    assert DimChain((3, 5, 4)).assumption1
    assert not DimChain((3, 2, 4)).assumption1
    assert DimChain((4, 3, 3, 3)).assumption1  # min(d0, dL) = 3


@pytest.mark.parametrize("dims", [(5.9, 6, 4), (True, 6, 4), (5.0, 6, 4), ("5", 6, 4)])
def test_dimchain_rejects_dims_that_are_not_integers(dims):
    # no truncation of 5.9 to 5, nor True read as 1
    with pytest.raises(ShapeError, match="integers"):
        DimChain(dims)


# Each config object's numbers: a real number (numpy's too), not a bool nor a
# string that float() would read.
NUMBER_HOLDERS = {
    "weights": lambda values: RegParams(values).lambdas,
    "radii": lambda values: RadiusSweepConfig(radii=values).radii,
}


@pytest.mark.parametrize("holder", NUMBER_HOLDERS)
@pytest.mark.parametrize("values", [("0.5", True), ("1e-3", 0.5), (0.5, True), (0.5, np.bool_(True))])
def test_number_holders_refuse_strings_and_bools(holder, values):
    with pytest.raises(ValueError):
        NUMBER_HOLDERS[holder](values)


@pytest.mark.parametrize("holder", NUMBER_HOLDERS)
def test_number_holders_read_numpy_numbers_as_floats(holder):
    numbers = NUMBER_HOLDERS[holder]((np.float32(0.5), np.int64(2), 3))
    assert numbers == (0.5, 2.0, 3.0) and all(type(v) is float for v in numbers)


@pytest.mark.parametrize("value", ["0.5", True])
def test_uniform_weights_refuse_strings_and_bools(value):
    with pytest.raises(ValueError):
        RegParams.uniform(value, 2)


def test_dimchain_accepts_numpy_integers():
    dims = DimChain((np.int64(5), np.int32(6), 4)).dims
    assert dims == (5, 6, 4) and all(type(d) is int for d in dims)


def _reference_kernel(layers, biases, x, target, reg, activation):
    """The 2-D kernel term by term: per-layer np.sum values added one at a
    time, `.T` products, and the tanh derivative recomputed from z."""
    acts, pre, a = [x], [], x
    for l, w in enumerate(layers):
        z = w @ a if a is not None else w
        if biases is not None:
            z = z + biases[l][:, None]
        pre.append(z)
        if l == len(layers) - 1 or activation == "identity":
            a = z
        elif activation == "relu":
            a = np.maximum(z, 0.0)
        elif activation == "leaky-relu":
            a = np.where(z > 0.0, z, 0.01 * z)
        else:
            a = np.tanh(z)
        acts.append(a)
    resid = a - target
    value = float(np.sum(resid * resid))
    for lam, w in zip(reg.lambdas, layers):
        value += lam * float(np.sum(w * w))
    for lam, b in zip(reg.lambdas, biases or []):
        value += lam * float(np.sum(b * b))
    grads, gbias = [None] * len(layers), [None] * len(layers)
    dz = 2.0 * resid
    for l in range(len(layers) - 1, -1, -1):
        gw = dz @ acts[l].T if acts[l] is not None else dz.copy()
        gw += 2.0 * reg.lambdas[l] * layers[l]
        grads[l] = gw
        if biases is not None:
            gbias[l] = dz.sum(axis=1) + 2.0 * reg.lambdas[l] * biases[l]
        if l > 0:
            dz = layers[l].T @ dz
            z = pre[l - 1]
            if activation == "relu":
                dz *= (z > 0.0).astype(float)
            elif activation == "leaky-relu":
                dz *= np.where(z > 0.0, 1.0, 0.01)
            elif activation == "tanh":
                t = np.tanh(z)
                dz *= 1.0 - t * t
    return value, grads, (gbias if biases is not None else None)


KERNEL_MODELS = [
    ("linear", False, False, "identity"),
    ("linear-with-bias", True, False, "identity"),
    ("input-matrix", False, True, "identity"),
    ("input-matrix-with-bias", True, True, "identity"),
    ("tanh", True, True, "tanh"),
    ("relu", True, True, "relu"),
    ("leaky-relu", True, True, "leaky-relu"),
]


@pytest.mark.parametrize("depth", [2, 3, 5])
@pytest.mark.parametrize("name, with_bias, with_input, activation", KERNEL_MODELS)
def test_stacked_kernel_equals_per_slice_calls(depth, name, with_bias, with_input, activation, rng):
    dims, reg, _ = random_instance(rng, depth=depth, max_dim=7)
    d = dims.dims
    x = rng.uniform(-1, 1, size=(d[0], 5)) if with_input else None
    target = rng.standard_normal((d[-1], 5 if with_input else d[0]))
    for runs in (1, 2, 3):
        # Views into one (R, n) array, as the descent loop passes them.
        shapes = [(d[l + 1], d[l]) for l in range(depth)]
        shapes += [(d[l + 1],) for l in range(depth)] if with_bias else []
        ends = np.cumsum([math.prod(s) for s in shapes])
        params = 0.7 * rng.standard_normal((runs, int(ends[-1])))
        parts = [
            params[:, a:b].reshape((runs,) + s)
            for a, b, s in zip([0, *ends[:-1]], ends, shapes)
        ]
        layers, biases = parts[:depth], (parts[depth:] if with_bias else None)
        # Lists packed at the boundary, and the layout of a packed holder put
        # over the (R, n) array itself, writing into a gradient buffer of it.
        packed = WeightStack(layers, biases).like(params)
        assert np.shares_memory(packed.layers[0], params)
        grad = packed.like(np.full_like(params, np.nan))  # every entry is written
        packed_value, written = value_and_grad(packed, x, target, reg, activation, grad)
        assert written is grad
        for value, grads, gbias in [
            list_kernel(layers, biases, x, target, reg, activation),
            (packed_value, grad.layers, grad.biases),
        ]:
            assert value.shape == (runs,)
            assert (gbias is None) == (not with_bias)
            for r in range(runs):
                run_layers = [w[r] for w in layers]
                run_biases = [b[r] for b in biases] if with_bias else None
                v2, g2, gb2 = list_kernel(run_layers, run_biases, x, target, reg, activation)
                ref = _reference_kernel(run_layers, run_biases, x, target, reg, activation)
                assert type(v2) is float
                assert v2 == value[r] == ref[0]
                for a, b, c in zip(grads, g2, ref[1]):
                    assert np.array_equal(a[r], b) and np.array_equal(b, c)
                if with_bias:
                    for a, b, c in zip(gbias, gb2, ref[2]):
                        assert np.array_equal(a[r], b) and np.array_equal(b, c)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_flat_params_layout(lead, rng):
    dims, reg, _ = random_instance(rng, depth=3, max_dim=6)
    d = dims.dims
    layers = [rng.standard_normal(lead + (d[l + 1], d[l])) for l in range(3)]
    biases = [rng.standard_normal(lead + (d[l + 1],)) for l in range(3)]
    for bs in (None, biases):
        p = WeightStack(layers, bs)
        parts = layers + (bs or [])
        assert p.flat.shape == lead + (sum(a[(0,) * len(lead)].size for a in parts),)
        # pack, then views, round-trips, and every view shares the buffer
        assert (p.biases is None) == (bs is None)
        views = p.layers + (p.biases or [])
        assert len(views) == len(parts)
        for v, a in zip(views, parts):
            assert v.shape == a.shape and np.array_equal(v, a)
            assert np.shares_memory(v, p.flat)
        # segments in order: the layers, then the biases, each raveled in C order
        rows = p.flat.reshape(-1, p.flat.shape[-1])
        for r, row in enumerate(rows):
            run = np.unravel_index(r, lead) if lead else ()
            expected = np.concatenate([a[run].ravel() for a in parts])
            assert np.array_equal(row, expected)
        # the same layout over another buffer cuts identical segments
        other = p.like(np.arange(p.flat.size, dtype=float).reshape(p.flat.shape))
        assert other.bounds == p.bounds and other.shapes == p.shapes
        for v, (a, b), s in zip(other.layers + (other.biases or []), p.bounds, p.shapes):
            assert np.shares_memory(v, other.flat)
            assert np.array_equal(v, other.flat[..., a:b].reshape(lead + s))
        row = p.like(p.flat[(0,) * len(lead)])
        assert [v.shape for v in row.layers] == [w.shape[len(lead):] for w in layers]
        # the Tikhonov row holds 2.0 * lambda of its segment in every entry,
        # built once per layout and weights
        two_lam, weights = p.reg_rows(reg)
        lams = reg.lambdas + (reg.lambdas if bs is not None else ())
        assert two_lam.shape == (p.flat.shape[-1],)
        for (a, b), lam in zip(p.bounds, lams):
            assert np.all(two_lam[a:b] == 2.0 * lam)
        assert weights.tolist() == [1.0, *lams]
        assert other.reg_rows(reg)[0] is two_lam
    with pytest.raises(ShapeError):
        p.reg_rows(RegParams((0.5, 0.6)))


def _same_layers(got, want) -> bool:
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_batched_weight_stack(rng, monkeypatch):
    dims = DimChain((3, 5, 4, 2))
    stacks = [WeightStack.gaussian(dims, rng) for _ in range(4)]
    batch = WeightStack.batch(stacks)
    assert batch.dims == dims.dims and batch.depth == 3
    assert [w.shape for w in batch.layers] == [(4, 5, 3), (4, 4, 5), (4, 2, 4)]
    assert _same_layers(batch.layers, [np.stack(ws) for ws in zip(*(s.layers for s in stacks))])
    norms = batch.norm()
    assert isinstance(norms, np.ndarray) and norms.shape == (4,)
    assert isinstance(stacks[0].norm(), float)
    assert norms.tolist() == [s.norm() for s in stacks]
    for a, b in zip(batch.unbatch(), stacks):
        assert _same_layers(a.layers, b.layers)
        assert np.shares_memory(a.flat, batch.flat)  # rows, not copies
    # One layout: the layers are views of one buffer with no biases, and a
    # stack made from a list copies the list into a new buffer.
    layers = [rng.standard_normal((5, 3)), rng.standard_normal((4, 5)), rng.standard_normal((2, 4))]
    stack = WeightStack(layers)
    assert stack.biases is None and stack.flat.shape == (15 + 20 + 8,)
    assert stack.weights() is stack
    assert _same_layers(stack.layers, layers)
    assert all(np.shares_memory(w, stack.flat) for w in stack.layers)
    assert not any(np.shares_memory(w, v) for w, v in zip(stack.layers, layers))
    # Every operation is one flat operation, bit-equal to the per-layer formula.
    target, reg = rng.standard_normal((2, 3)), RegParams((0.5, 0.6, 0.7))
    roots = [math.sqrt(lam) for lam in reg.lambdas]
    factors = rng.uniform(0.5, 2.0, 4)
    for a, b, c in [(stack, stacks[1], 0.3), (batch, WeightStack.batch(stacks[::-1]), factors)]:
        c_layer = np.asarray(c)[..., None, None]
        assert _same_layers((a + b).layers, [x + y for x, y in zip(a.layers, b.layers)])
        assert _same_layers((a - b).layers, [x - y for x, y in zip(a.layers, b.layers)])
        assert _same_layers(a.scale(c).layers, [c_layer * x for x in a.layers])
        assert _same_layers(a.scale(2.5).layers, [2.5 * x for x in a.layers])
        copied = a.copy()
        assert _same_layers(copied.layers, a.layers)
        assert not np.shares_memory(copied.flat, a.flat)
        per_layer = np.sqrt(sum(np.add.reduce(w * w, axis=(-2, -1)) for w in a.layers))
        assert np.array_equal(a.norm(), per_layer)
        assert _same_layers(rescale_f_to_g(a, reg).layers, [r * w for r, w in zip(roots, a.layers)])
        assert _same_layers(rescale_g_to_f(a, reg).layers, [w / r for r, w in zip(roots, a.layers)])
    assert loss_f(batch, target, reg).tolist() == [loss_f(s, target, reg) for s in stacks]
    assert loss_g(batch, target, reg).tolist() == [loss_g(s, target, reg) for s in stacks]
    # grad_f hands back the kernel's own gradient buffer, not a copy of it.
    holders = []
    kernel = network.value_and_grad

    def recording_kernel(*args):
        value, grad = kernel(*args)
        holders.append(grad)
        return value, grad

    monkeypatch.setattr(network, "value_and_grad", recording_kernel)
    for s in (stack, batch):
        g = grad_f(s, target, reg)
        assert g is holders[-1] and g.flat.shape == s.flat.shape
    monkeypatch.undo()
    # A trained run with biases ends on a stack over its layers only: the
    # prefix of the run's row, whose biases follow in the same buffer.
    model = ModelSpec(kind="linear-with-bias")
    traj = train(model, target, reg, TrainConfig(init="gaussian", max_iters=3), dims)
    final = traj.final
    assert final.biases is None and final.flat.shape == (15 + 20 + 8,)
    assert [w.shape for w in final.layers] == [(5, 3), (4, 5), (2, 4)]
    for b in traj.final_biases:
        assert b.base is final.flat.base and not np.shares_memory(b, final.flat)
    # The same prefix view, taken of a holder with biases: no copy, and the
    # layers' gradient is written into the holder's own gradient buffer.
    held = WeightStack(layers, [rng.standard_normal(d) for d in (5, 4, 2)])
    view = held.weights()
    assert view.biases is None and view.dims == held.dims == (3, 5, 4, 2)
    assert view.flat.base is held.flat and np.shares_memory(view.flat, held.flat)
    assert not any(np.shares_memory(view.flat, b) for b in held.biases)
    assert _same_layers(view.layers, held.layers) and view.norm() == stack.norm()
    held_grad = value_and_grad(held, None, target, reg)[1]
    assert held_grad.weights().flat.base is held_grad.flat
    with pytest.raises(ShapeError):
        WeightStack(layers, [np.zeros(5), np.zeros(4)])  # one bias short
    with pytest.raises(ShapeError):
        WeightStack([np.zeros((4, 5, 3)), np.zeros((4, 4, 6))])  # 6 != 5
    with pytest.raises(ShapeError):
        WeightStack([np.zeros((4, 5, 3)), np.zeros((3, 4, 5))])  # 3 samples, not 4
    for bad in ([stacks[0], WeightStack.gaussian((3, 4, 5, 2), rng)], []):
        with pytest.raises(ShapeError):
            WeightStack.batch(bad)
    with pytest.raises(ShapeError):
        loss_f(batch, np.zeros((3, 2)), reg)
