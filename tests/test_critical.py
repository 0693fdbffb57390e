import itertools
import math

import numpy as np
import pytest

from deeplinear import critical
from deeplinear import (
    AssumptionError,
    DimChain,
    Instance,
    RegParams,
    WeightStack,
    check_assumptions,
    compute_ledger,
    construct_critical_point,
    distance_to_component,
    distance_to_critical_set,
    enumerate_sigma_profiles,
    excluded_lambda,
    grad_f,
    grad_g,
    mirsky_lower_bound,
    optimal_profile,
    profile_from_choices,
    saddle_profile,
    sample_random_params,
    zero_profile,
)
from deeplinear.constants import distinct_value_starts
from conftest import product_walk_oracle, random_instance


def _simple_instance(values, depth, lam, hidden=None):
    target = np.diag(values)
    d = len(values)
    hidden = hidden or d
    dims = DimChain((d,) + (hidden,) * (depth - 1) + (d,))
    reg = RegParams.uniform(lam ** (1.0 / depth), depth)
    return Instance(dims, reg, target), dims, reg, target


def test_enumerate_single_value():
    inst, dims, reg, _ = _simple_instance([2.0], 2, 1.0)
    enum = enumerate_sigma_profiles(inst)
    sigmas = sorted(tuple(p.sigma) for p in enum.profiles)
    assert sigmas == [(0.0,), (1.0,)]
    assert enum.total_combinations == 2
    assert not enum.truncated


def test_enumerate_zero_target():
    inst = Instance(DimChain((2, 2, 3)), RegParams((0.5, 0.5)), np.zeros((3, 2)))
    enum = enumerate_sigma_profiles(inst)
    assert len(enum.profiles) == 1
    assert enum.profiles[0].is_zero


def test_enumerate_repeated_values_dedup():
    inst, dims, reg, _ = _simple_instance([2.0, 2.0], 2, 1.0)
    enum = enumerate_sigma_profiles(inst)
    sigmas = sorted(tuple(p.sigma) for p in enum.profiles)
    # (0,1) and (1,0) choices collapse onto the same sorted vector
    assert sigmas == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    assert enum.total_combinations == 4


def test_enumeration_cap_sets_flag(rng):
    values = [3.0, 2.5, 2.0, 1.5]
    inst, dims, reg, _ = _simple_instance(values, 3, 1e-4)
    enum = enumerate_sigma_profiles(inst, cap=5)
    assert enum.truncated
    assert len(enum.profiles) <= 6  # cap plus the guaranteed zero profile
    assert any(p.is_zero for p in enum.profiles)


def _component_key(inst, combo):
    """The component of a product combination: per block of the target, the
    multiset of (root count, chosen root index) of its indices.  Permuting
    choices between indices whose equations have equally many roots keeps
    the component."""
    counts = [len(r.roots) for r in inst.roots]
    spectrum = inst.spectrum
    return tuple(
        tuple(sorted(zip(counts[spectrum.block_slice(b)], combo[spectrum.block_slice(b)])))
        for b in range(spectrum.p_distinct)
    )


def _scalar_enumeration(inst, cap=1024):
    """Reference enumeration, one product combination at a time: the first
    combination of each component (``_component_key``) kept up to ``cap``,
    the zero profile appended, then sorted by decreasing sorted vector."""
    per_index, d_min = inst.roots, inst.dims.d_min
    kept, seen, truncated = [], set(), False
    for combo in itertools.product(*[range(len(r.roots) - 1, -1, -1) for r in per_index]):
        key = _component_key(inst, combo)
        if key in seen:
            continue
        if len(kept) >= cap:
            truncated = True
            break
        seen.add(key)
        sigma_eq = [r.roots[c] for r, c in zip(per_index, combo)]
        sigma = sorted(sigma_eq, reverse=True) + [0.0] * (d_min - len(sigma_eq))
        kept.append((tuple(sigma), tuple(sigma_eq), combo))
    if _component_key(inst, (0,) * len(per_index)) not in seen:
        kept.append(((0.0,) * d_min, (0.0,) * len(per_index), (0,) * len(per_index)))
    kept.sort(key=lambda k: tuple(-v for v in k[0]))
    return kept, truncated


def _assert_matches_scalar_walk(inst, cap=1024):
    enum = enumerate_sigma_profiles(inst, cap=cap)
    kept, truncated = _scalar_enumeration(inst, cap)
    assert enum.truncated == truncated
    assert [(p.sigma, p.sigma_eq, p.choice) for p in enum.profiles] == kept
    for p, profile in enumerate(enum.profiles):
        assert tuple(enum.sigmas[p].tolist()) == profile.sigma
    return enum


def test_repeated_block_with_bit_different_values_merges_as_scalar_walk():
    # Three copies of 2.0, two of them one and two ulps below: one block of
    # the spectrum, with roots that differ in their last bits.
    y = [2.0, np.nextafter(2.0, 0.0), np.nextafter(np.nextafter(2.0, 0.0), 0.0), 1.2]
    inst, *_ = _simple_instance(y, 3, 0.1)
    assert inst.spectrum.multiplicities == (3, 1)
    assert len({r.roots for r in inst.roots[:3]}) > 1
    enum = _assert_matches_scalar_walk(inst)
    # 3 roots per equation: multisets of 3 from 3 roots, times 3 for the last
    assert len(enum.profiles) == 10 * 3 < enum.total_combinations


def test_distinct_values_share_only_the_zero_root():
    # Each positive root x belongs to the one y = phi(x), so distinct values
    # share only the zero root: nothing merges, and the all-zero vector is
    # the one combination choosing zero everywhere.
    inst, *_ = _simple_instance([2.0, 1.5], 3, 0.1)
    assert set(inst.roots[0].positive()).isdisjoint(inst.roots[1].positive())
    enum = _assert_matches_scalar_walk(inst)
    assert len(enum.profiles) == enum.total_combinations == 9
    assert [p.choice for p in enum.profiles if p.is_zero] == [(0, 0)]


def _assert_cap_walk(cases, cap):
    for values, depth, lam in cases:
        inst, *_ = _simple_instance(values, depth, lam)
        assert all(len(r.roots) == (2 if depth == 2 else 3) for r in inst.roots)
        components = len(_scalar_enumeration(inst)[0])
        enum = _assert_matches_scalar_walk(inst, cap=cap)
        assert enum.truncated == (components > cap)
        assert len(enum.profiles) == min(cap + 1, components)
        assert enum.profiles[-1].is_zero
        # the largest-root-first walk keeps the all-largest profile first
        assert enum.profiles[0].choice == optimal_profile(inst).choice


@pytest.mark.parametrize("cap", [1, 2, 5, 12, 1024])
def test_cap_keeps_first_distinct_profiles_and_the_zero_profile(cap):
    _assert_cap_walk((([3.0, 2.5, 2.0, 2.0], 3, 0.3),), cap)


@pytest.mark.parametrize("cap", [1, 7, 1024])
def test_chunked_walk_matches_scalar_walk(cap):
    # Components repeat across the product walk, and truncation falls inside
    # it at caps 1 and 7.
    cases = (([2.0, 2.0, 2.0, 1.2], 3, 0.1), ([2.4, 1.7, 1.2], 4, 0.03), ([2.0, 2.0, 1.0], 2, 0.1))
    _assert_cap_walk(cases, cap)


def test_random_instances_match_scalar_walk(rng):
    for depth in (2, 3, 4, 5, 6):
        dims, reg, target = random_instance(rng, depth=depth, max_dim=5)
        _assert_matches_scalar_walk(Instance(dims, reg, target))


def test_scale_alone_does_not_merge_components():
    # (sqrt 2, 0) and (1, 0) are the same vector up to scale; both are
    # components of their own, and a member of the second is on the set.
    inst, dims, reg, target = _simple_instance([3.0, 2.0], 2, 1.0)
    enum = enumerate_sigma_profiles(inst)
    assert [p.sigma for p in enum.profiles] == [
        (math.sqrt(2.0), 1.0), (math.sqrt(2.0), 0.0), (1.0, 0.0), (0.0, 0.0)
    ]
    point = construct_critical_point(
        profile_from_choices(inst, [0, 1]), sample_random_params(inst, seed=0), inst
    )
    assert distance_to_critical_set(point.stack, inst).distance <= 1e-12


def _haar_block_instance(rng):
    """Random instance at depth 2-6 with rectangular ends, a Haar-framed
    target with repeated singular values, and weights whose roots reach
    above 1."""
    depth = int(rng.integers(2, 7))
    d0, dl = (int(d) for d in rng.integers(2, 6, size=2))
    d_min = min(d0, dl)
    hidden = tuple(int(h) for h in rng.integers(d_min, 6, size=depth - 1))
    y = np.sort(np.repeat(rng.uniform(0.5, 4.0, d_min), rng.integers(1, 4, d_min)))[::-1]
    y = y[:d_min] * (rng.uniform(size=d_min) < 0.9)
    sigma = np.zeros((dl, d0))
    sigma[np.arange(d_min), np.arange(d_min)] = y
    target = critical.haar_orthogonal(rng, dl) @ sigma @ critical.haar_orthogonal(rng, d0).T
    reg = RegParams(tuple(float(x) for x in rng.uniform(0.2, 1.5, depth)))
    return Instance(DimChain((d0, *hidden, dl)), reg, target)


@pytest.mark.parametrize("cap", [1, 3, 1024])
def test_array_walk_equals_the_itertools_walk(cap):
    # Repeated blocks with rectangular ends (some values zeroed), generic
    # targets, and a zero target (rank 0: one empty choice row).
    rng = np.random.default_rng(21)
    instances = [_haar_block_instance(rng) for _ in range(40)]
    instances += [Instance(*random_instance(rng, max_dim=5)) for _ in range(10)]
    instances.append(Instance(DimChain((3, 4, 2)), RegParams((0.5, 0.6)), np.zeros((2, 3))))
    # Large ranks: 70 runs (more than numpy's 64 array dimensions), 3^40
    # combinations (more than 2^63), and one block of 60 equal values whose
    # run has C(62, 2) tuples, more than cap + 1.
    instances += [
        Instance(DimChain((70, 71, 70)), RegParams((0.3, 0.3)), np.diag(np.linspace(3.0, 1.0, 70))),
        Instance(DimChain((40, 41, 41, 40)), RegParams((0.5,) * 3), np.diag(np.linspace(4.0, 2.0, 40))),
        Instance(DimChain((60, 61, 61, 60)), RegParams((0.5,) * 3), 3.0 * np.eye(60)),
    ]
    for inst in instances:
        enum = enumerate_sigma_profiles(inst, cap=cap)
        choice, sigmas, truncated, total = product_walk_oracle(inst, cap)
        got = np.array([p.choice for p in enum.profiles], dtype=np.intp).reshape(choice.shape)
        assert np.array_equal(got, choice)
        assert np.array_equal(enum.sigmas, sigmas)
        assert enum.truncated == truncated
        assert enum.total_combinations == total


def test_every_combination_has_its_component_listed_once():
    rng = np.random.default_rng(15)
    for _ in range(60):
        inst = _haar_block_instance(rng)
        enum = enumerate_sigma_profiles(inst)
        assert not enum.truncated
        listed = np.array([p.sigma for p in enum.profiles])
        for combo in itertools.product(*[range(len(r.roots)) for r in inst.roots]):
            sigma_eq = [r.roots[c] for r, c in zip(inst.roots, combo)]
            sigma = np.zeros(inst.dims.d_min)
            sigma[: len(sigma_eq)] = sorted(sigma_eq, reverse=True)
            close = np.abs(listed - sigma) <= 1e-12 * sigma
            assert close.all(axis=1).any(), (inst.spectrum.y, sigma)
        spectrum = inst.spectrum
        blocks = {
            tuple(tuple(sorted(p.choice[spectrum.block_slice(b)])) for b in range(spectrum.p_distinct))
            for p in enum.profiles
        }
        assert len(blocks) == len(enum.profiles)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_block_with_unequal_root_counts_lists_every_component(scale):
    # y_1 and y_2 share a block, but only y_1 lies above the fold, so its
    # equation has two positive roots and y_2's none: three components.  At
    # scale 2 both positive roots lie above 1.
    y = [scale * 2.0, scale * 2.0 * (1 - 5e-9), scale * 1.0]
    lam = excluded_lambda(scale * 2.0 * (1 - 2.5e-9), 3)
    inst, *_ = _simple_instance(y, 3, lam)
    assert inst.spectrum.multiplicities == (2, 1)
    assert [len(r.roots) for r in inst.roots] == [3, 1, 1]
    assert check_assumptions(inst).assumption2
    enum = _assert_matches_scalar_walk(inst)
    assert [p.choice for p in enum.profiles] == [(2, 0, 0), (1, 0, 0), (0, 0, 0)]


def test_profile_list_has_list_semantics():
    inst, *_ = _simple_instance([2.0, 1.5], 3, 0.1)
    profiles = enumerate_sigma_profiles(inst).profiles
    every = list(profiles)
    assert len(profiles) == len(every) == 9
    assert profiles[-1] is every[-1] and profiles[-9] is every[0]
    assert profiles[2:5] == every[2:5]
    assert profiles[np.int64(3)] is every[3]
    for k in (9, -10):
        with pytest.raises(IndexError):
            profiles[k]


def test_zero_profile_gives_zero_stack():
    inst, dims, reg, target = _simple_instance([2.0, 1.0], 3, 0.5)
    profile = zero_profile(inst)
    params = sample_random_params(inst, seed=0)
    point = construct_critical_point(profile, params, inst)
    assert point.stack.norm() == 0.0
    assert grad_f(point.stack, target, reg).norm() <= 1e-12 * (
        1 + np.linalg.norm(target)
    )


def test_saddle_profile_drops_the_smallest_target_value():
    inst = _simple_instance([2.0, 1.5, 1.0], 3, 0.5)[0]
    saddle, optimal = saddle_profile(inst), optimal_profile(inst)
    assert saddle.choice[:-1] == optimal.choice[:-1] and saddle.choice[-1] == 0
    assert saddle.sigma_eq[-1] == 0.0 and saddle.sigma_eq[:-1] == optimal.sigma_eq[:-1]
    # a zero target has no value to drop: the saddle is the zero profile
    inst = Instance(DimChain((2, 3, 2)), RegParams.uniform(0.5, 2), np.zeros((2, 2)))
    assert saddle_profile(inst) == zero_profile(inst)


def test_every_profile_is_critical_many_draws(rng):
    dims, reg, target = random_instance(rng, depth=3, max_dim=5)
    inst = Instance(dims, reg, target)
    enum = enumerate_sigma_profiles(inst)
    scale = 1e-9 * (1.0 + np.linalg.norm(target))
    for profile in enum.profiles:
        for draw in range(20):
            params = sample_random_params(inst, seed=draw)
            point = construct_critical_point(profile, params, inst)
            assert grad_f(point.stack, target, reg).norm() <= scale


def test_identity_params_product_singular_values(rng):
    inst, dims, reg, target = _simple_instance([2.0], 2, 1.0)
    profile = optimal_profile(inst)
    from deeplinear.critical import identity_params

    point = construct_critical_point(profile, identity_params(inst), inst)
    lam = reg.lambda_prod
    product = point.stack.layers[1] @ point.stack.layers[0]
    sv = np.linalg.svd(product, compute_uv=False)
    assert sv[0] == pytest.approx(profile.sigma_max**2 / math.sqrt(lam), rel=1e-12)


def test_construct_requires_wide_hidden_layers():
    dims = DimChain((2, 1, 2))  # hidden narrower than min(d0, dL)
    reg = RegParams((1.0, 1.0))
    inst = Instance(dims, reg, np.diag([2.0, 1.5]))
    profile = optimal_profile(inst)
    params = sample_random_params(inst, seed=0)
    with pytest.raises(AssumptionError):
        construct_critical_point(profile, params, inst)


def test_sample_params_deterministic_and_orthogonal(rng):
    dims, reg, target = random_instance(rng, depth=3, max_dim=6)
    inst = Instance(dims, reg, target)
    a = sample_random_params(inst, seed=42)
    b = sample_random_params(inst, seed=42)
    c = sample_random_params(inst, seed=43)
    for qa, qb in zip(a.inner + a.blocks, b.inner + b.blocks):
        assert np.array_equal(qa, qb)
    assert any(
        not np.array_equal(qa, qc) for qa, qc in zip(a.inner, c.inner)
    )
    for q in a.inner + a.blocks:
        n = q.shape[0]
        if n:
            assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-12 * max(1, n)


def test_distance_to_own_component_is_zero(rng):
    dims, reg, target = random_instance(rng, depth=3, max_dim=5)
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    params = sample_random_params(inst, seed=9)
    point = construct_critical_point(profile, params, inst)
    result = distance_to_component(point.stack, profile, inst)
    assert result.distance <= 1e-8


def test_distance_upper_bounded_by_perturbation(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=5)
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    params = sample_random_params(inst, seed=4)
    point = construct_critical_point(profile, params, inst)
    for k in range(10):
        radius = 10.0 ** -(k % 4 + 1)
        e = WeightStack.gaussian(dims, rng)
        e = e.scale(radius / e.norm())
        result = distance_to_component(point.stack + e, profile, inst)
        assert result.distance <= radius * (1 + 1e-9)
        assert result.lower_bound <= result.distance + 1e-12


def test_mirsky_bound_from_singular_values(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    stack = WeightStack.gaussian(dims, rng)
    lower = mirsky_lower_bound(stack, [profile.sigma], reg, target="F")[0]
    total = 0.0
    sig = sorted(profile.sigma_eq, reverse=True)
    for l, w in enumerate(stack.layers):
        ref = np.zeros(min(w.shape))
        vals = np.asarray(sig) / math.sqrt(reg.lambdas[l])
        ref[: len(vals)] = vals
        sv = np.linalg.svd(w, compute_uv=False)
        total += float(np.sum((sv - ref) ** 2))
    assert lower == pytest.approx(math.sqrt(total), rel=1e-12)


def test_distance_to_critical_set_zero_stack(rng):
    dims, reg, target = random_instance(rng, depth=2, max_dim=4)
    inst = Instance(dims, reg, target)
    enum = enumerate_sigma_profiles(inst)
    result = distance_to_critical_set(WeightStack.zeros(dims), inst)
    assert result.distance == pytest.approx(0.0, abs=1e-12)
    assert enum.profiles[result.profile_index].is_zero


def test_nearest_profile_identified_within_separation():
    inst, dims, reg, target = _simple_instance([2.0], 2, 1.0)
    enum = enumerate_sigma_profiles(inst)
    rng = np.random.default_rng(5)
    profile = optimal_profile(inst)
    params = sample_random_params(inst, seed=2)
    point = construct_critical_point(profile, params, inst, target="G")
    radius = 0.4 * inst.delta_sigma
    e = WeightStack.gaussian(dims, rng)
    e = e.scale(radius / e.norm())
    result = distance_to_critical_set(point.stack + e, inst, target="G")
    assert tuple(enum.profiles[result.profile_index].sigma) == tuple(profile.sigma)


def test_component_separation_at_least_delta_sigma(rng):
    inst, dims, reg, target = _simple_instance([2.0, 2.0], 2, 1.0)
    enum = enumerate_sigma_profiles(inst)
    nonzero = [p for p in enum.profiles if not p.is_zero]
    best = math.inf
    for pa in enum.profiles:
        for pb in enum.profiles:
            if tuple(pa.sigma) == tuple(pb.sigma):
                continue
            for seed in range(6):
                pt = construct_critical_point(
                    pa, sample_random_params(inst, seed=seed), inst, target="G"
                )
                d = distance_to_component(pt.stack, pb, inst, target="G")
                best = min(best, d.lower_bound)
    assert best >= inst.delta_sigma - 1e-6


def test_equal_sorted_profiles_share_a_component():
    # same sorted vector from different per-index choices inside one repeated
    # block: the two parametrizations cover the same set
    inst, dims, reg, target = _simple_instance([2.0, 2.0], 2, 1.0)
    p_a = profile_from_choices(inst, [1, 0])
    p_b = profile_from_choices(inst, [0, 1])
    assert tuple(p_a.sigma) == tuple(p_b.sigma)
    point = construct_critical_point(
        p_a, sample_random_params(inst, seed=11), inst, target="G"
    )
    d = distance_to_component(point.stack, p_b, inst, target="G")
    assert d.distance <= 1e-6


@pytest.mark.parametrize("choices", [None, [-1, 0, -1]], ids=["optimal", "mixed-roots"])
def test_tangent_basis_matches_orbit_finite_differences(choices):
    # independent oracle: move along the orbit by an exact Givens rotation of
    # one free factor and difference the constructed points.  At the optimal
    # profile both indices of the repeated block take the same root, and the
    # block direction lies in the span of the inner seams' directions; where
    # they take different roots (choices -1, 0), it does not, so the block
    # move checks the wrap-around seam itself.
    inst, dims, reg, target = _simple_instance([2.0, 2.0, 1.4], 3, 0.8, hidden=4)
    profile = optimal_profile(inst) if choices is None else profile_from_choices(inst, choices)
    params = sample_random_params(inst, seed=21)
    point = construct_critical_point(profile, params, inst)
    from deeplinear.critical import CriticalParams, tangent_basis

    basis = tangent_basis(point, inst.spectrum)
    t = 1e-6

    def givens(n, a, b, angle):
        r = np.eye(n)
        r[a, a] = r[b, b] = math.cos(angle)
        r[a, b] = math.sin(angle)
        r[b, a] = -math.sin(angle)
        return r

    def flatten(stack):
        return np.concatenate([w.ravel() for w in stack.layers])

    def moved(d_inner=None, d_block=None):
        inner = [q.copy() for q in params.inner]
        blocks = [o.copy() for o in params.blocks]
        if d_inner is not None:
            l, a, b, angle = d_inner
            inner[l] = inner[l] @ givens(inner[l].shape[0], a, b, angle)
        if d_block is not None:
            i, a, b, angle = d_block
            blocks[i] = blocks[i] @ givens(blocks[i].shape[0], a, b, angle)
        moved_params = CriticalParams(inner, blocks)
        return construct_critical_point(profile, moved_params, inst).stack

    moves = [
        flatten(moved(d_inner=(0, 0, 1, t)) - moved(d_inner=(0, 0, 1, -t))),
        flatten(moved(d_inner=(1, 1, 2, t)) - moved(d_inner=(1, 1, 2, -t))),
        flatten(moved(d_block=(0, 0, 1, t)) - moved(d_block=(0, 0, 1, -t))),
    ]
    for vec in moves:
        vec = vec / (2 * t)
        residual = vec - basis.T @ (basis @ vec)
        assert np.linalg.norm(residual) <= 1e-6 * max(1.0, np.linalg.norm(vec))


def _skew(n, a, b):
    s = np.zeros((n, n))
    s[a, b], s[b, a] = 1.0, -1.0
    return s


def _seam_layers(point, a, b, s_a, s_b):
    """One direction of seam (a, b) as a list of layers: layer a moves by
    left[a] s_a sigma[a] right[a], layer b by -left[b] sigma[b] s_b right[b]."""
    d = [np.zeros_like(w) for w in point.stack.layers]
    d[a] = point.left[a] @ s_a @ point.sigma_mats[a] @ point.right[a]
    d[b] = -point.left[b] @ point.sigma_mats[b] @ s_b @ point.right[b]
    return d


def _inner_seam_rows(point, params):
    """The directions of the seam factors Q_2, ..., Q_L, each packed on its own."""
    rows = []
    for l in range(2, point.depth + 1):
        n = params.inner[l - 2].shape[0]
        for a, b in itertools.combinations(range(n), 2):
            d = _seam_layers(point, l - 2, l - 1, _skew(n, a, b), _skew(n, a, b))
            rows.append(WeightStack(d).flat)
    return rows


def _tangent_rows_packed_one_by_one(point, params, spectrum):
    """Each tangent direction as a list of layers, packed on its own, then stacked:
    the inner seams, then the target blocks as one wrap-around seam from the
    last layer to the first."""
    rows = _inner_seam_rows(point, params)
    d_in, d_out = point.stack.dims[0], point.stack.dims[-1]
    for i, h in enumerate(spectrum.multiplicities):
        start = spectrum.s_bounds[i]
        for a, b in itertools.combinations(range(start, start + h), 2):
            d = _seam_layers(point, point.depth - 1, 0, _skew(d_out, a, b), _skew(d_in, a, b))
            rows.append(WeightStack(d).flat)
    return np.vstack(rows)


def _mixer_tangent_rows(point, params, spectrum):
    """The tangent rows as first written: each block direction perturbs the
    block factor inside the mixers M_in and M_out, and is rebuilt from the
    target's singular frames."""
    layers, rows = point.stack.layers, _inner_seam_rows(point, params)
    for i, h in enumerate(spectrum.multiplicities):
        sl = spectrum.block_slice(i)
        for a, b in itertools.combinations(range(h), 2):
            d = [np.zeros_like(w) for w in layers]
            dm_in = np.zeros((layers[0].shape[1],) * 2)
            dm_in[sl, sl] = params.blocks[i] @ _skew(h, a, b)
            d[0] = point.left[0] @ point.sigma_mats[0] @ dm_in @ spectrum.v.T
            dm_out = np.zeros((layers[-1].shape[0],) * 2)
            dm_out[sl, sl] = _skew(h, a, b).T @ params.blocks[i].T
            d[-1] = spectrum.u @ dm_out @ point.sigma_mats[-1] @ point.right[-1]
            rows.append(WeightStack(d).flat)
    return np.vstack(rows) if rows else np.zeros((0, point.stack.flat.shape[-1]))


def test_seam_basis_spans_the_mixer_directions():
    # Random instances at depth 2-4 with rectangular ends, repeated target
    # blocks and rank-deficient targets, at several profiles each: the seam
    # basis has the rank of the mixer rows and the same projector.
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 40:
        inst = _haar_block_instance(rng)
        if inst.depth > 4:
            continue
        profiles = inst.profiles.profiles
        for k in sorted({0, int(rng.integers(len(profiles))), len(profiles) - 1}):
            params = sample_random_params(inst, seed=k)
            point = construct_critical_point(profiles[k], params, inst)
            rows = _mixer_tangent_rows(point, params, inst.spectrum)
            basis = critical.tangent_basis(point, inst.spectrum)
            if len(rows):
                _, s, vt = np.linalg.svd(rows, full_matrices=False)
                want = vt[s > 1e-10 * max(1.0, s[0])]
            else:
                want = rows
            assert basis.shape == want.shape
            assert np.linalg.norm(basis.T @ basis - want.T @ want) <= 1e-12
            checked += 1


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("center", ["optimal", "saddle"])
def test_tangent_rows_equal_directions_packed_one_by_one(depth, center, monkeypatch):
    # A repeated target block (2.0 twice) gives block-factor directions too.
    inst, dims, reg, target = _simple_instance([2.0, 2.0, 1.4], depth, 0.8, hidden=4)
    profile = optimal_profile(inst)
    if center == "saddle":
        profile = profile_from_choices(inst, [-1, -1, 0])
    assert not profile.is_zero and inst.spectrum.multiplicities[0] == 2
    params = sample_random_params(inst, seed=depth)
    point = construct_critical_point(profile, params, inst)
    assert point.stack.norm() > 0
    want = _tangent_rows_packed_one_by_one(point, params, inst.spectrum)
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.copy()) or svd(a, **kw))
    basis = critical.tangent_basis(point, inst.spectrum)
    monkeypatch.undo()
    assert len(seen) == 1 and np.array_equal(seen[0], want)
    u, s, vt = np.linalg.svd(want, full_matrices=False)
    assert basis.shape[0] > 0 and np.array_equal(basis, vt[s > 1e-10 * max(1.0, s[0])])


@pytest.mark.parametrize("dims", [(3, 4, 4, 2), (5, 6, 4), (32, 32, 32, 32)])
@pytest.mark.parametrize("center", ["optimal", "zero"])
def test_batched_singular_directions_equal_per_index_calls(dims, center):
    rng = np.random.default_rng(len(dims))
    inst = Instance(DimChain(dims), RegParams.uniform(0.1, len(dims) - 1),
                    rng.standard_normal((dims[-1], dims[0])))
    profile = optimal_profile(inst) if center == "optimal" else zero_profile(inst)
    point = construct_critical_point(profile, sample_random_params(inst, seed=3), inst)
    d_min = inst.dims.d_min
    batch = critical.singular_direction(point, range(d_min))
    assert batch.flat.shape == (d_min, point.stack.flat.size)
    for k, row in enumerate(batch.flat):
        assert np.array_equal(row, critical.singular_direction(point, k).flat)
    one = critical.singular_direction(point, [1])
    assert np.array_equal(one.flat, batch.flat[1:2])


def test_profile_partition_fields():
    inst, dims, reg, target = _simple_instance([2.0, 2.0, 1.2], 2, 1.0)
    profile = optimal_profile(inst)
    assert profile.r_sigma == 3
    # groups of sizes (2, 1): the repeated value first
    assert distinct_value_starts(np.array([profile.sigma]))[0].tolist() == [True, False, True]
    ledger = compute_ledger(inst, profile)
    assert (ledger.r_sigma, ledger.p, ledger.g_max) == (3, 2, 2)
    assert profile.sigma_max >= profile.sigma_min_pos > 0


def _mirsky_reference(svals, profile, reg, target):
    """Per-profile bound as a loop: sort, pad and compare each layer's values."""
    scales = [1.0 / math.sqrt(lam) for lam in reg.lambdas] if target == "F" else [1.0] * reg.depth
    sig = np.sort(np.asarray(profile.sigma_eq))[::-1]
    total = 0.0
    for k, s in enumerate(svals):
        ref = np.zeros(len(s))
        ref[: len(sig)] = sig * scales[k]
        diff = s - np.sort(ref)[::-1]
        total += float(diff @ diff)
    return math.sqrt(total)


def test_batched_lower_bounds_match_per_profile_loop(monkeypatch):
    # Two repeated-value blocks of size 3, two positive roots per value at
    # L=3: 10^2 = 100 profiles.  Any member of a component bounds the distance
    # to it from above, so one sweep per projection suffices for the upper
    # check (most far components take the full 200 sweeps otherwise).
    monkeypatch.setattr(critical, "PROJECTION_SWEEPS", 1)
    dims = DimChain((6, 7, 7, 6))
    reg = RegParams((0.5, 0.6, 0.7))
    inst = Instance(dims, reg, np.diag([3.0, 3.0, 3.0, 2.0, 2.0, 2.0]))
    enum = inst.profiles
    assert len(enum.profiles) >= 100
    assert enum.sigmas.shape == (len(enum.profiles), dims.d_min)
    point = construct_critical_point(optimal_profile(inst), sample_random_params(inst, seed=8), inst)
    rng = np.random.default_rng(21)
    for radius in np.geomspace(1e-4, 1e-1, 20):
        e = WeightStack.gaussian(dims, rng)
        stack = point.stack + e.scale(radius / e.norm())
        svals = [np.linalg.svd(w, compute_uv=False) for w in stack.layers]
        for target in ("F", "G"):
            lowers = mirsky_lower_bound(stack, enum.sigmas, reg, target)
            assert lowers.shape == (len(enum.profiles),)
            for profile, lower in zip(enum.profiles, lowers):
                want = _mirsky_reference(svals, profile, reg, target)
                assert abs(lower - want) <= 1e-13 * want
                assert mirsky_lower_bound(stack, [profile.sigma], reg, target)[0] == lower
                if target == "G":
                    continue
                result = distance_to_component(stack, profile, inst)
                assert lower <= result.distance
                assert lower <= (stack - result.nearest).norm() * (1 + 1e-12) + 1e-15


ASSEMBLER_CASES = [
    (target, values, depth)
    for target in ("F", "G")
    for values, depth in [((3.0, 2.0, 1.0), L) for L in (2, 3, 4, 5)] + [((2.0, 2.0, 1.0), 3)]
]


@pytest.mark.parametrize("target, values, depth", ASSEMBLER_CASES)
def test_every_member_comes_from_the_one_assembler(target, values, depth):
    from deeplinear.verify import CounterexampleFamily

    rng = np.random.default_rng(depth)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    dims = DimChain((4,) + (5,) * (depth - 1) + (3,))
    reg = RegParams(tuple(float(x) for x in rng.uniform(0.3, 0.9, depth)))
    inst = Instance(dims, reg, u @ np.diag(values) @ v[:3])
    profile = optimal_profile(inst)
    point = construct_critical_point(profile, sample_random_params(inst, seed=depth), inst, target)

    assembled = critical.assemble(point.left, point.sigma_mats, point.right)
    assert all(np.array_equal(a, b) for a, b in zip(assembled.layers, point.stack.layers))
    family = CounterexampleFamily(inst, point, 3.0)
    assert all(np.array_equal(a, b) for a, b in zip(family.point(0.0).layers, point.stack.layers))

    e = WeightStack.gaussian(dims, rng)
    result = distance_to_component(point.stack + e.scale(1e-3 / e.norm()), profile, inst, target)
    assert result.converged
    scales = [1.0 / math.sqrt(lam) for lam in reg.lambdas] if target == "F" else [1.0] * depth
    for w, scale in zip(result.nearest.layers, scales):
        want = np.zeros(min(w.shape))
        want[: dims.d_min] = np.asarray(profile.sigma) * scale
        assert np.allclose(np.linalg.svd(w, compute_uv=False), want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("target", ["F", "G"])
def test_member_frames_hold_the_free_factors(target):
    # Repeated target blocks with rectangular ends: the frames carry every free
    # factor bit for bit, the seam factors as left[:-1] and the block factors
    # mixed into the target's singular frames as left[-1] and right[0].
    rng = np.random.default_rng(24)
    repeated = 0
    for k in range(30):
        inst = _haar_block_instance(rng)
        spectrum, dims = inst.spectrum, inst.dims
        repeated += max(spectrum.multiplicities, default=1) > 1
        params = sample_random_params(inst, seed=k)
        point = construct_critical_point(optimal_profile(inst), params, inst, target)
        assert len(point.left) == len(params.inner) + 1
        assert all(np.array_equal(a, q) for a, q in zip(point.left[:-1], params.inner))
        m_in, m_out = np.eye(dims.d_in), np.eye(dims.d_out)
        for i, q in enumerate(params.blocks):
            sl = spectrum.block_slice(i)
            m_in[sl, sl], m_out[sl, sl] = q, q.T
        assert np.array_equal(point.left[-1], spectrum.u @ m_out)
        assert np.array_equal(point.right[0], m_in @ spectrum.v.T)
    assert repeated >= 10


def _assert_same_component_distance(a, b):
    assert a.distance == b.distance and a.lower_bound == b.lower_bound
    assert a.sweeps == b.sweeps and a.converged == b.converged
    assert all(np.array_equal(x, y) for x, y in zip(a.nearest.layers, b.nearest.layers))


def _assert_same_set_distance(a, b):
    assert a.distance == b.distance and a.lower_bound == b.lower_bound
    assert a.profile_index == b.profile_index
    assert a.converged == b.converged
    assert all(np.array_equal(x, y) for x, y in zip(a.nearest.layers, b.nearest.layers))


def _batch_instance(target, values, depth):
    rng = np.random.default_rng(10 * depth + len(values))
    d = len(values)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d + 1, d + 1)))
    dims = DimChain((d + 1,) + (d + 2,) * (depth - 1) + (d,))
    reg = RegParams(tuple(float(x) for x in rng.uniform(0.4, 0.9, depth)))
    return Instance(dims, reg, u @ np.diag(values) @ v[:d]), rng


def _check_batch_matches_samples(inst, stacks, profile, target):
    batch = WeightStack.batch(stacks)
    lowers = mirsky_lower_bound(batch, inst.profiles.sigmas, inst.reg, target)
    assert lowers.shape == (len(stacks), len(inst.profiles.profiles))
    for row, stack in zip(lowers, stacks):
        assert np.array_equal(row, mirsky_lower_bound(stack, inst.profiles.sigmas, inst.reg, target))
    sets = distance_to_critical_set(batch, inst, target=target)
    comps = distance_to_component(batch, profile, inst, target=target)
    assert len(sets) == len(comps) == len(stacks)
    for stack, sd, cd in zip(stacks, sets, comps):
        _assert_same_set_distance(sd, distance_to_critical_set(stack, inst, target=target))
        _assert_same_component_distance(cd, distance_to_component(stack, profile, inst, target=target))
    return sets, comps


BATCH_CASES = [
    (target, values, depth)
    for target in ("F", "G")
    for values, depth in [((3.0, 2.0, 1.0), L) for L in (2, 3, 4, 5)]
    + [((2.5, 2.5, 1.5, 1.5, 1.5), 3)]
]


@pytest.mark.parametrize("target, values, depth", BATCH_CASES)
def test_batched_projection_matches_per_sample_calls(target, values, depth):
    # Radii from 1e-6 to 1e-1 make the samples stop after different numbers
    # of sweeps, so rows leave the batch at different times.
    inst, rng = _batch_instance(target, values, depth)
    profile = optimal_profile(inst)
    center = construct_critical_point(profile, sample_random_params(inst, seed=depth), inst, target)
    stacks = []
    for radius in np.geomspace(1e-6, 1e-1, 6):
        for _ in range(2):
            e = WeightStack.gaussian(inst.dims, rng)
            stacks.append(center.stack + e.scale(radius / e.norm()))
    _, comps = _check_batch_matches_samples(inst, stacks, profile, target)
    assert len({c.sweeps for c in comps}) > 1


@pytest.mark.parametrize("target", ["F", "G"])
def test_batched_projection_onto_the_zero_profile(target):
    inst, rng = _batch_instance(target, (3.0, 2.0, 1.0), 3)
    stacks = [WeightStack.gaussian(inst.dims, rng).scale(r) for r in (1e-4, 1e-3, 1e-2)]
    sets, comps = _check_batch_matches_samples(inst, stacks, zero_profile(inst), target)
    assert all(c.sweeps == 0 and c.converged for c in comps)
    assert all(inst.profiles.profiles[s.profile_index].is_zero for s in sets)


def test_batched_projection_with_some_samples_unconverged(monkeypatch):
    # A low cap that the near samples reach convergence under and the far
    # ones do not: both kinds sit in one batch.
    monkeypatch.setattr(critical, "PROJECTION_SWEEPS", 3)
    inst, rng = _batch_instance("F", (3.0, 2.0, 1.0), 4)
    profile = optimal_profile(inst)
    center = construct_critical_point(profile, sample_random_params(inst, seed=1), inst)
    stacks = []
    for radius in (1e-7, 1e-6, 3e-1, 5e-1):
        e = WeightStack.gaussian(inst.dims, rng)
        stacks.append(center.stack + e.scale(radius / e.norm()))
    sets, comps = _check_batch_matches_samples(inst, stacks, profile, "F")
    assert {c.converged for c in comps} == {True, False}
    assert {s.converged for s in sets} == {True, False}


def test_batched_set_distance_between_components(monkeypatch):
    # Stacks halfway between the optimal component and the zero one, with
    # their frames scrambled: their nearest candidate's projection leaves a
    # gap above the next lower bound, so several candidates are projected.
    inst, rng = _batch_instance("G", (2.0, 1.6, 1.2), 3)
    center = construct_critical_point(optimal_profile(inst), sample_random_params(inst, seed=3), inst, "G")
    stacks = []
    for t in np.linspace(0.35, 0.65, 8):
        e = WeightStack.gaussian(inst.dims, rng)
        stacks.append(center.stack.scale(t) + e.scale(0.3 * center.stack.norm() / e.norm()))
    rows = []
    project = critical.distance_to_component

    def counting(stack, *args, **kwargs):
        rows.append(stack.layers[0].shape[0] if stack.layers[0].ndim > 2 else 1)
        return project(stack, *args, **kwargs)

    monkeypatch.setattr(critical, "distance_to_component", counting)
    batch = WeightStack.batch(stacks)
    sets = distance_to_critical_set(batch, inst, target="G")
    projected = sum(rows)
    rows.clear()
    for stack, sd in zip(stacks, sets):
        _assert_same_set_distance(sd, distance_to_critical_set(stack, inst, target="G"))
    assert projected == sum(rows) > len(stacks)
    assert len({s.profile_index for s in sets}) > 1


def _materialized_lower_bound(stack, enum, reg, target):
    """The bound from the whole (R, P, m) array of squared gaps per layer."""
    scales = [1.0 / math.sqrt(lam) for lam in reg.lambdas] if target == "F" else [1.0] * reg.depth
    total = 0.0
    for w, scale in zip(stack.layers, scales):
        s = np.linalg.svd(w, compute_uv=False)
        k = min(s.shape[-1], enum.sigmas.shape[1])
        ref = np.zeros((len(enum.sigmas), s.shape[-1]))
        ref[:, :k] = enum.sigmas[:, :k] * scale
        diff = s[..., None, :] - ref
        total = total + (diff * diff).sum(axis=-1)
    return np.sqrt(total)


@pytest.mark.parametrize("width", [3, 7, 8, 9, 16, 32])
def test_chunked_lower_bound_equals_materialized_formula(width, monkeypatch):
    inst, dims, reg, _ = _simple_instance([2.5, 1.8, 1.2], 3, 0.3, hidden=width)
    rng = np.random.default_rng(width)
    center = construct_critical_point(optimal_profile(inst), sample_random_params(inst, seed=2), inst)
    batch = WeightStack.batch(
        [center.stack + WeightStack.gaussian(dims, rng).scale(r) for r in np.geomspace(1e-4, 1.0, 11)]
    )
    enum = inst.profiles
    for target in ("F", "G"):
        want = _materialized_lower_bound(batch, enum, reg, target)
        assert np.array_equal(mirsky_lower_bound(batch, enum.sigmas, reg, target), want)
        for entries in (1, 3 * enum.sigmas.size * width):  # 1-row and 3-row chunks
            monkeypatch.setattr(critical, "BATCH_ENTRIES", entries)
            assert np.array_equal(mirsky_lower_bound(batch, enum.sigmas, reg, target), want)
        monkeypatch.undo()


def test_lower_bound_memory_is_linear_in_samples_times_profiles():
    import tracemalloc

    inst = Instance(DimChain((6, 7, 7, 6)), RegParams((0.5, 0.6, 0.7)),
                    np.diag([3.0, 3.0, 2.0, 2.0, 1.5, 1.5]))
    enum = inst.profiles
    n_samples, n_profiles = 576, len(enum.profiles)
    assert n_profiles == 216
    rng = np.random.default_rng(0)
    batch = WeightStack([rng.standard_normal((n_samples,) + w.shape) for w in WeightStack.zeros(inst.dims).layers])
    tracemalloc.start()
    try:
        lowers = mirsky_lower_bound(batch, enum.sigmas, inst.reg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lowers.shape == (n_samples, n_profiles)
    assert peak < 3 * n_samples * n_profiles * 8 + 8 * critical.BATCH_ENTRIES


def test_sign_is_the_polar_factor_of_a_1x1_block():
    # The projection takes a 1x1 block's Procrustes factor as its sign;
    # LAPACK's u @ vt must give the same values, signed zeros included.
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]
    values = np.concatenate([special, rng.standard_normal(4 * 64 - len(special))])
    c = values.reshape(4, 64, 1, 1)
    u, _, vt = np.linalg.svd(c)
    polar = u @ vt
    signs = np.copysign(1.0, c)
    assert np.array_equal(signs, polar)
    assert np.array_equal(np.signbit(signs), np.signbit(polar))
    assert np.array_equal(np.signbit(critical._polar(c)), np.signbit(polar))
    assert np.array_equal(critical._polar(c), polar)
