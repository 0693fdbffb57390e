"""Construction of the critical-point set and distances to it.

For every singular value y_i of the target, the stationary layer singular
values sigma solve

    sigma^(2L-1) - sqrt(lam) * y_i * sigma^(L-1) + lam * sigma = 0,

whose nonnegative roots are 0 plus the real roots of

    q(x) = x^(2L-2) - sqrt(lam) * y_i * x^(L-2) + lam

on (0, (sqrt(lam) y_i)^(1/L)].  A choice of one root per index defines a
"sigma profile"; each profile parametrizes one connected component of the
critical set, swept out by free orthogonal factors.  This module solves the
scalar equation, enumerates profiles, builds explicit critical points for
either objective, and estimates the distance from an arbitrary point to a
component by alternating orthogonal-Procrustes minimization over the free
factors (a certified upper bound), with the singular-value perturbation
inequality supplying a certified lower bound.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .network import (
    DimChain,
    RegParams,
    ShapeError,
    WeightStack,
    grad_f,
    grad_g,
)

if TYPE_CHECKING:  # pragma: no cover
    from .spectrum import Instance, TargetSpectrum


class SolverError(RuntimeError):
    """Scalar root refinement failed to converge."""


class AssumptionError(ValueError):
    """A width or regularization assumption required here does not hold."""


class InternalConsistencyError(RuntimeError):
    """A quantity violated an invariant it is supposed to satisfy exactly."""


GRID_CELLS = 4096
BISECT_TOL = 1e-14
DEGENERACY_TOL = 1e-7  # |r q'(r)| below this times q's largest term flags a multiple root
_EPS = float(np.finfo(float).eps)
_GRID_STEPS = np.arange(GRID_CELLS + 1.0)  # grid point k of the root scan sits at k * cell
PROJECTION_SWEEPS = 200  # cap on alternating-Procrustes sweeps per projection
BATCH_ENTRIES = 2**16  # entries per array pass of the lower bound and of a sweep's projections


@dataclass(frozen=True)
class ScalarRoots:
    """Nonnegative roots of the scalar stationarity equation for one y value.

    ``roots`` is ascending and always starts with 0.  ``degenerate[k]`` marks
    a multiple root (vanishing derivative), the situation excluded by the
    regularization assumption.
    """

    roots: tuple[float, ...]
    degenerate: tuple[bool, ...]
    residuals: tuple[float, ...]

    def positive(self) -> tuple[float, ...]:
        return tuple(r for r in self.roots if r > 0.0)


def _bisect(q, lo: float, hi: float, qlo: float, qhi: float) -> float:
    # The caller passes a strict sign change: neither end is a zero of q.
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
    raise SolverError(
        f"bisection did not converge on [{lo}, {hi}] (q values {qlo}, {qhi})"
    )


def solve_scalar_equation(y: float, lam: float, depth: int) -> ScalarRoots:
    """All nonnegative stationary values for one target singular value.

    Uses a 4096-cell bracketing grid on (0, (sqrt(lam) y)^(1/L)] (every
    positive root lies in that interval since x^L <= sqrt(lam) y there),
    bisection on each sign change, and one Newton polish.  The interior
    minimizer of q is added to the grid, and tested on its own: a tangential
    (double) root can only sit there, so it is caught and flagged.

    q is evaluated on the whole grid in one array pass.  numpy's array power
    can differ from libm ``pow`` by an ulp, so x_min and every point where q
    is within 64 eps of its terms (with its two neighbours) are evaluated
    with the scalar q: the grid's signs and exact zeros, and so the roots,
    are those of a point-by-point scalar scan.  The scalar work runs on Python
    floats: numpy scalars' IEEE operations and libm ``pow``, without their
    call cost.  Inputs whose q overflows on the bracket raise ``SolverError``.
    """
    y = float(y)
    lam = float(lam)
    L = int(depth)
    if y < 0 or lam <= 0 or L < 2:
        raise ValueError(f"need y >= 0, lam > 0, depth >= 2; got {y}, {lam}, {L}")
    root_lam = math.sqrt(lam)
    scale = lam + root_lam * y
    res_tol = 1e-12 * scale

    def q(x: float) -> float:
        return x ** (2 * L - 2) - root_lam * y * x ** (L - 2) + lam

    def qp(x: float) -> float:
        if L == 2:
            return 2.0 * x
        return (2 * L - 2) * x ** (2 * L - 3) - (L - 2) * root_lam * y * x ** (L - 3)

    def size(x: float) -> float:
        # largest term of q at x: a vanishing derivative is measured against it
        return max(x ** (2 * L - 2), root_lam * y * x ** (L - 2), lam)

    # The zero root is degenerate exactly when q(0) = 0 as well (only possible
    # for L = 2 with y = sqrt(lam)), making 0 a higher-order stationary value.
    zero_degenerate = abs(q(0.0)) <= 1e-12 * size(0.0)

    roots = [0.0]
    flags = [zero_degenerate]
    residuals = [0.0]

    if y > 0.0:
        bracket = (root_lam * y) ** (1.0 / L)
        # q's terms are largest at the bracket, and the sign test multiplies
        # two values of q: past this, overflow loses signs (a float ** raises).
        try:
            top = size(bracket)
        except OverflowError:
            top = math.inf
        if not 4.0 * top * top < math.inf:
            raise SolverError(f"q's terms overflow on (0, {bracket}] for (y={y}, lam={lam}, L={L})")
        grid = _GRID_STEPS * (bracket / GRID_CELLS)  # np.linspace's formula
        grid[-1] = bracket
        # For L >= 3, q decreases then increases; x_min is its only interior
        # critical point (for L = 2 it is 0 and q only increases).
        x_min = ((L - 2) * root_lam * y / (2 * L - 2)) ** (1.0 / L)
        interior = 0.0 < x_min < bracket
        if interior:
            q_min = q(x_min)
            k_min = np.searchsorted(grid, x_min, side="right")
            grid = np.concatenate((grid[:k_min], [x_min], grid[k_min:]))
        high = grid ** (2 * L - 2)
        low = root_lam * y * grid ** (L - 2)
        qvals = high - low + lam
        if interior:
            qvals[k_min] = q_min
        # A value kept from the array pass is more than 64 eps of q's terms
        # away from zero, so it has the scalar value's sign (numpy's power is
        # within an ulp of libm's).  The 1e-150 floor keeps a product of two
        # kept values from underflowing; the neighbours of a re-evaluated
        # point are re-evaluated too, so a product with a tiny value uses
        # scalar values only.  "not >" also catches a nan.
        near = ~(np.abs(qvals) > 64 * _EPS * (high + low + lam) + 1e-150)
        near[1:] |= near[:-1].copy()
        near[:-1] |= near[1:].copy()
        for k in np.flatnonzero(near).tolist():
            qvals[k] = q(float(grid[k]))

        qa, qb = qvals[:-1], qvals[1:]
        found: list[float] = []
        for k in np.flatnonzero(((qa == 0.0) & (grid[:-1] > 0.0)) | (qa * qb < 0.0)).tolist():
            (lo, hi), (q_lo, q_hi) = grid[k : k + 2].tolist(), qvals[k : k + 2].tolist()
            found.append(lo if q_lo == 0.0 else _bisect(q, lo, hi, q_lo, q_hi))
        if qvals[-1] == 0.0:
            found.append(bracket)
        # A tangential root leaves no sign change and can only sit at x_min.
        # No other grid point is accepted on its residual alone: when
        # sqrt(lam) is below about 1e-12 * y, every point below the small
        # root is within res_tol of zero.
        if (
            interior
            and abs(q_min) <= res_tol
            and not any(abs(x_min - r) <= 1e-9 * max(1.0, bracket) for r in found)
        ):
            found.append(x_min)

        # Each root gets one Newton polish, then is matched only against the
        # positive roots kept so far: a positive root below the tolerance is
        # a root of its own, not 0.
        dedup_tol = 1e-9 * max(1.0, bracket)
        for r in sorted(found):
            d = qp(r)
            if abs(d) > DEGENERACY_TOL * scale:
                step = q(r) / d
                if abs(step) < 1e-6 * max(1.0, bracket):
                    r = r - step
            if any(abs(r - prev) <= dedup_tol for prev in roots[1:]):
                continue
            # q's terms at a root can dwarf lam + sqrt(lam) y (they grow like
            # (sqrt(lam) y)^(2 - 2/L)), and their rounding with them.
            res = abs(q(r))
            if res > 10 * max(res_tol, 1e-12 * size(r)):
                raise SolverError(
                    f"root {r} of (y={y}, lam={lam}, L={L}) has residual {res}"
                )
            roots.append(r)
            flags.append(abs(r * qp(r)) <= DEGENERACY_TOL * size(r))
            residuals.append(res)

    return ScalarRoots(*zip(*sorted(zip(roots, flags, residuals))))


@dataclass(frozen=True)
class SigmaProfile:
    """One choice of stationary value per positive target singular value.

    ``sigma_eq[i]`` is the root chosen for the equation of y_{i+1} (so it is
    aligned with the target's singular-value order, not sorted), and
    ``sigma`` is the same multiset sorted nonincreasing and zero-padded to
    d_min.
    """

    sigma: tuple[float, ...]          # sorted nonincreasing, length d_min
    sigma_eq: tuple[float, ...]       # per-index chosen roots, length rank(Y)
    choice: tuple[int, ...]           # index into each equation's root list

    @property
    def r_sigma(self) -> int:
        return sum(1 for v in self.sigma if v > 0.0)

    @property
    def is_zero(self) -> bool:
        return self.r_sigma == 0

    @property
    def sigma_max(self) -> float:
        return self.sigma[0] if self.sigma else 0.0

    @property
    def sigma_min_pos(self) -> float:
        pos = [v for v in self.sigma if v > 0.0]
        return min(pos) if pos else 0.0


def _make_profile(sigma_eq, choice, d_min) -> SigmaProfile:
    sigma = sorted((float(v) for v in sigma_eq), reverse=True)
    sigma += [0.0] * (d_min - len(sigma))
    return SigmaProfile(
        sigma=tuple(sigma),
        sigma_eq=tuple(float(v) for v in sigma_eq),
        choice=tuple(int(c) for c in choice),
    )


def profile_from_choices(inst: "Instance", choices) -> SigmaProfile:
    """Profile picking one explicit root (by index, ascending) per positive y_i.

    Negative indices follow Python semantics, so -1 selects the largest root
    of each equation.
    """
    choices = list(choices)
    if len(choices) != len(inst.roots):
        raise ValueError(
            f"need one choice per positive singular value ({len(inst.roots)}), "
            f"got {len(choices)}"
        )
    idx = [range(len(r.roots))[int(c)] for r, c in zip(inst.roots, choices)]
    sigma_eq = [r.roots[c] for r, c in zip(inst.roots, idx)]
    return _make_profile(sigma_eq, idx, inst.dims.d_min)


def zero_profile(inst: "Instance") -> SigmaProfile:
    return profile_from_choices(inst, [0] * len(inst.roots))


def optimal_profile(inst: "Instance") -> SigmaProfile:
    """Profile with the largest root at every index: the lowest-loss component."""
    return profile_from_choices(inst, [-1] * len(inst.roots))


def saddle_profile(inst: "Instance") -> SigmaProfile:
    """The optimal profile with the smallest target singular value dropped
    (its zero root); the zero profile when the target is zero."""
    choices = [-1] * len(inst.roots)
    if choices:
        choices[-1] = 0
    return profile_from_choices(inst, choices)


class ProfileList(Sequence):
    """The profiles of an enumeration, each made when it is first indexed.

    Row p of ``sigma_eq`` and ``choice`` describes profile p.
    Length, indexing (negative indices, ``IndexError``, slices) and iteration
    behave as on a list.
    """

    def __init__(self, sigma_eq: np.ndarray, choice: np.ndarray, d_min: int):
        self._rows = (sigma_eq, choice)
        self._d_min = d_min
        self._made: list[SigmaProfile | None] = [None] * len(choice)

    def __len__(self) -> int:
        return len(self._made)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        prof = self._made[k]
        if prof is None:
            sigma_eq, choice = self._rows
            prof = _make_profile(sigma_eq[k], choice[k], self._d_min)
            self._made[k] = prof
        return prof


@dataclass
class ProfileEnumeration:
    profiles: ProfileList
    total_combinations: int
    truncated: bool
    sigmas: np.ndarray  # (P, d_min): row p is profiles[p].sigma


def enumerate_sigma_profiles(inst: "Instance", cap: int = 1024) -> ProfileEnumeration:
    """One sigma profile per component (up to ``cap``), zero profile included.

    Choices that only permute the roots of indices inside one ``spectrum``
    block whose equations have equally many roots give the same component,
    so each such run of indices takes one nonincreasing tuple of root
    indices.  The runs are walked largest root first, in ``itertools.product``
    order, so truncation keeps the low-loss profiles.  ``truncated`` is set
    when more than ``cap`` profiles exist, and the zero profile (last in the
    walk) is then appended.  Profiles are ordered by lexicographically
    decreasing sorted vector; ``profiles`` makes each ``SigmaProfile`` when it
    is first indexed.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    d_min = inst.dims.d_min
    per_index = inst.roots
    rank = len(per_index)
    counts = [len(r.roots) for r in per_index]
    total = math.prod(counts)

    roots = np.zeros((rank, max(counts, default=1)))
    for i, r in enumerate(per_index):
        roots[i, : counts[i]] = r.roots
    cols = np.arange(rank)

    # Each run's tuples are the rows of one table (its first cap + 1 suffice).
    # Walk row k takes the mixed-radix digits of k over the tables, last
    # table fastest: itertools.product order.
    spectrum = inst.spectrum
    runs = [
        itertools.combinations_with_replacement(range(n)[::-1], len(list(run)))
        for b in range(spectrum.p_distinct)
        for n, run in itertools.groupby(counts[spectrum.block_slice(b)])
    ]
    tables = [np.array(list(itertools.islice(run, cap + 1)), dtype=np.intp) for run in runs]
    walked = min(math.prod(map(len, tables)), cap + 1)
    k, parts = np.arange(walked), []
    for table in reversed(tables):
        k, i = np.divmod(k, len(table))
        parts.append(table[i])
    choice = np.concatenate([np.empty((walked, 0), np.intp), *reversed(parts)], 1)
    truncated = walked > cap
    if truncated:
        choice[cap] = 0
    sigma_eq = roots[cols, choice]
    sigmas = np.zeros((len(choice), d_min))
    sigmas[:, :rank] = np.sort(sigma_eq, axis=1)[:, ::-1]

    # Deterministic order: lexicographically decreasing sorted vectors.
    order = np.lexsort(-sigmas[:, ::-1].T)
    profiles = ProfileList(sigma_eq[order], choice[order], d_min)
    return ProfileEnumeration(profiles, total, truncated, sigmas[order])


@dataclass
class CriticalParams:
    """Free orthogonal factors of one critical-set component.

    ``inner`` holds Q_2, ..., Q_L (Q_l acts on the seam of width d_{l-1});
    ``blocks`` holds one orthogonal factor per repeated-singular-value block
    of the target, shared between the first and last layer.
    """

    inner: list[np.ndarray]
    blocks: list[np.ndarray]

    def validate(self) -> None:
        for q in self.inner + self.blocks:
            n = q.shape[0]
            if q.shape != (n, n):
                raise ShapeError("orthogonal factor is not square")
            if n and np.linalg.norm(q.T @ q - np.eye(n)) > 1e-10:
                raise ValueError("factor is not orthogonal to 1e-10")


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR of a Gaussian."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return q * signs


def identity_params(inst: "Instance") -> CriticalParams:
    dims = inst.dims
    inner = [np.eye(dims.dims[l - 1]) for l in range(2, dims.depth + 1)]
    blocks = [np.eye(h) for h in inst.spectrum.multiplicities]
    return CriticalParams(inner, blocks)


def sample_random_params(
    inst: "Instance", seed: int | np.random.Generator = 0
) -> CriticalParams:
    """Haar-random orthogonal factors, deterministic for a fixed seed."""
    dims = inst.dims
    rng = np.random.default_rng(seed)
    inner = [haar_orthogonal(rng, dims.dims[l - 1]) for l in range(2, dims.depth + 1)]
    blocks = [haar_orthogonal(rng, h) for h in inst.spectrum.multiplicities]
    return CriticalParams(inner, blocks)


def _embed_diag(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols))
    k = len(values)
    out[:k, :k] = np.diag(values)
    return out


def _layer_scales(reg: RegParams, target: str) -> list[float]:
    if target == "F":
        return [1.0 / math.sqrt(lam) for lam in reg.lambdas]
    if target == "G":
        return [1.0] * reg.depth
    raise ValueError(f"target must be 'F' or 'G', got {target!r}")


def _sigma_matrices(
    profile: SigmaProfile, dims: DimChain, reg: RegParams, target: str
) -> list[np.ndarray]:
    scales = _layer_scales(reg, target)
    sig = np.asarray(profile.sigma_eq)
    return [
        _embed_diag(sig * scales[l - 1], dims.dims[l], dims.dims[l - 1])
        for l in range(1, dims.depth + 1)
    ]


def _block_mixers(
    params: CriticalParams, spectrum: "TargetSpectrum", d_in: int, d_out: int
) -> tuple[np.ndarray, np.ndarray]:
    """Left/right repeated-block factors M_in (d_in) and M_out (d_out).

    Trailing blocks (beyond the target's rank) stay identity: they multiply
    zero rows/columns of the singular matrices and never affect the point.
    """
    m_in = np.eye(d_in)
    m_out = np.eye(d_out)
    for i in range(len(spectrum.multiplicities)):
        sl = spectrum.block_slice(i)
        m_in[sl, sl] = params.blocks[i]
        m_out[sl, sl] = params.blocks[i].T
    return m_in, m_out


def assemble(
    left: list[np.ndarray], sigma_mats: list[np.ndarray], right: list[np.ndarray]
) -> WeightStack:
    """The stack whose layer k is ``left[k] @ sigma_mats[k] @ right[k]``.

    A member of a component has ``left = [Q_2, ..., Q_L, U_Y M_out]`` and
    ``right = [M_in V_Y^T, Q_2^T, ..., Q_L^T]``: the target's singular frames,
    the free seam factors and the shared block mixers.  Every member, and
    every direction that keeps the frames fixed, is formed here.
    """
    return WeightStack([a @ s @ b for a, s, b in zip(left, sigma_mats, right)])


@dataclass
class CriticalPoint:
    """An explicit critical point together with its construction frames.

    ``stack`` is ``assemble(left, sigma_mats, right)``; downstream code reuses
    the frames to build one-parameter perturbation families and tangent
    directions along the component.  The free factors live in the frames:
    ``left[:-1]`` is ``params.inner``; ``left[-1]``, ``right[0]`` mix the blocks.
    """

    stack: WeightStack
    profile: SigmaProfile
    target: str
    left: list[np.ndarray]
    right: list[np.ndarray]
    sigma_mats: list[np.ndarray]

    @property
    def depth(self) -> int:
        return self.stack.depth


def construct_critical_point(
    profile: SigmaProfile,
    params: CriticalParams,
    inst: "Instance",
    target: str = "F",
) -> CriticalPoint:
    """Assemble the critical point determined by a profile and free factors.

    The first layer carries the target's right singular frame, the last layer
    its left frame; repeated-value blocks of the target are mixed by the
    shared orthogonal factors in ``params``.
    """
    dims, spectrum, depth = inst.dims, inst.spectrum, inst.depth
    if not dims.assumption1:
        raise AssumptionError(
            f"hidden widths {dims.hidden} are narrower than min(d_0, d_L)="
            f"{dims.d_min}; the closed-form construction needs them at least that wide"
        )
    if len(params.inner) != depth - 1 or len(params.blocks) != spectrum.p_distinct:
        raise ShapeError("params do not match the dims/spectrum block structure")
    params.validate()

    sig_mats = _sigma_matrices(profile, dims, inst.reg, target)
    m_in, m_out = _block_mixers(params, spectrum, dims.dims[0], dims.dims[-1])

    left = params.inner + [spectrum.u @ m_out]
    right = [m_in @ spectrum.v.T] + [q.T for q in params.inner]
    return CriticalPoint(
        stack=assemble(left, sig_mats, right),
        profile=profile,
        target=target,
        left=left,
        right=right,
        sigma_mats=sig_mats,
    )


def singular_direction(point: CriticalPoint, index) -> WeightStack:
    """Unit perturbation that shifts the ``index``-th stationary value in every layer.

    Moving along this direction keeps the construction frames fixed and
    changes only one diagonal entry of every layer's singular matrix; it is
    the one-parameter family used to probe degenerate instances.  A sequence
    of indices gives their directions, in order, as one batched stack.
    """
    index = np.asarray(index)
    units = [np.zeros(index.shape + s.shape) for s in point.sigma_mats]
    for e in units:
        e.reshape(-1, *e.shape[-2:])[np.arange(index.size), index.ravel(), index.ravel()] = 1.0
    d = assemble(point.left, units, point.right)
    return d.scale(1.0 / d.norm())


def _skew_generators(n: int, ranges: list[slice]) -> np.ndarray:
    """E_ab - E_ba (n x n) for every pair a < b inside one of the index ranges."""
    same = np.zeros((n, n), dtype=bool)
    for r in ranges:
        same[r, r] = True
    a, b = np.nonzero(np.triu(same, 1))
    s = np.zeros((len(a), n, n))
    k = np.arange(len(a))
    s[k, a, b], s[k, b, a] = 1.0, -1.0
    return s


def tangent_basis(point: CriticalPoint, spectrum: "TargetSpectrum") -> np.ndarray:
    """Orthonormal basis (rows) of the component's tangent space at the point.

    Every free factor is a seam (a, b) with a stack of skew generators S:
    layer a moves by ``left[a] @ S @ sigma[a] @ right[a]`` and layer b by
    ``-left[b] @ sigma[b] @ S @ right[b]``.  Seam Q_l joins layers l-1 and l
    with every generator of so(d_{l-1}); the target blocks form one
    wrap-around seam from the last layer to the first, with the generators
    of each block's index range (d_L x d_L on its left side, d_0 x d_0 on its
    right).  The zero profile has an empty tangent space.
    """
    dims, L = point.stack.dims, point.depth
    blocks = [spectrum.block_slice(k) for k in range(spectrum.p_distinct)]
    inner = [_skew_generators(dims[l], [slice(None)]) for l in range(1, L)]
    seams = [(l - 1, l, s, s) for l, s in enumerate(inner, 1)]
    seams.append((L - 1, 0, _skew_generators(dims[L], blocks), _skew_generators(dims[0], blocks)))
    # One row per direction, written through the center's layer views; the
    # entries of the layers a seam does not join stay zero.
    rows = np.zeros((sum(len(s) for *_, s in seams), point.stack.flat.shape[-1]))
    d = point.stack.like(rows).layers
    left, sig, right = point.left, point.sigma_mats, point.right
    i = 0
    for a, b, s_a, s_b in seams:
        d[a][i : i + len(s_a)] = left[a] @ s_a @ sig[a] @ right[a]
        d[b][i : i + len(s_b)] = -left[b] @ sig[b] @ s_b @ right[b]
        i += len(s_a)

    if not len(rows):
        return rows
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    keep = s > 1e-10 * max(1.0, s[0])
    return vt[keep]


def _polar(c: np.ndarray) -> np.ndarray:
    if c.shape[-2:] == (1, 1):  # the sign: LAPACK's u @ vt bit for bit, without the SVD
        return np.copysign(1.0, c)
    u, _, vt = np.linalg.svd(c)
    return u @ vt


def layer_singular_values(stack: WeightStack) -> list[np.ndarray]:
    return [np.linalg.svd(w, compute_uv=False) for w in stack.layers]


def mirsky_lower_bound(
    stack: WeightStack, sigmas, reg: RegParams, target: str = "F"
) -> np.ndarray:
    """Certified lower bounds on the distances to the components of ``sigmas``.

    ``sigmas`` is a (P, d_min) table whose row p is a profile's sorted
    vector, as :attr:`ProfileEnumeration.sigmas` holds.  Singular values are
    1-Lipschitz under Frobenius perturbations, so the per-layer gap between
    the stack's singular values s_k and the component's fixed ones bounds
    the distance from below:
    ``lower_p^2 = sum_k ||s_k - scale_k * pad(sigma_p, m_k)||^2``.  One pass
    over the layers bounds every row; the result has the stack's leading
    axes followed by P.

    The (R, P, m_k) gaps are squared in place and reduced over the last axis
    in chunks of at most ``BATCH_ENTRIES`` entries: the same sums as the
    whole array gives, in O(R P) memory.
    """
    sigmas = np.asarray(sigmas)
    svals = layer_singular_values(stack)
    lead = svals[0].shape[:-1]
    total = np.zeros((math.prod(lead), len(sigmas)))
    for s, scale in zip(svals, _layer_scales(reg, target)):
        s = s.reshape(len(total), -1)
        k = min(s.shape[-1], sigmas.shape[1])
        ref = np.zeros((len(sigmas), s.shape[-1]))
        ref[:, :k] = sigmas[:, :k] * scale
        step = max(1, BATCH_ENTRIES // ref.size)
        for a in range(0, len(s), step):
            diff = s[a : a + step, None, :] - ref
            np.multiply(diff, diff, out=diff)
            total[a : a + step] += np.add.reduce(diff, axis=-1)
    return np.sqrt(total, out=total).reshape(lead + (len(sigmas),))


@dataclass
class ComponentDistance:
    distance: float
    lower_bound: float
    nearest: WeightStack
    sweeps: int
    converged: bool


def distance_to_component(
    stack: WeightStack, profile: SigmaProfile, inst: "Instance", target: str = "F", lower=None
) -> ComponentDistance | list[ComponentDistance]:
    """Certified distance bracket from ``stack`` to one component.

    The upper bound comes from projecting onto the component: seed the free
    orthogonal factors from the stack's own singular frames (aligned to the
    component's singular-value pattern), then alternate closed-form
    Procrustes updates over each factor.  Every update solves its subproblem
    exactly, so the objective is nonincreasing; a rise beyond roundoff is an
    internal error, and so is a projected point that is not critical.  At
    most ``PROJECTION_SWEEPS`` sweeps run; ``converged`` says whether the
    objective settled before the cap.

    A batched stack (layers with a leading sample axis) returns one result
    per sample.  The samples are projected together in stacked calls, but
    each one leaves the batch when its own objective settles, so every
    result equals the one for that sample alone; a 2-D stack is the batch of
    one and returns its result.  ``lower`` passes in the samples' bounds
    from :func:`mirsky_lower_bound` when the caller has them already.
    """
    spectrum, reg, L = inst.spectrum, inst.reg, inst.depth
    dims = stack.dim_chain()
    if stack.biases is not None:
        raise ShapeError("the critical set is one of stacks without biases")
    if dims.dims[0] != inst.dims.d_in or dims.dims[-1] != inst.dims.d_out:
        raise ShapeError("stack endpoints do not match the target's shape")
    if dims.depth != L:
        raise ShapeError("stack depth does not match the instance")
    batched = stack.flat.ndim > 1
    stack = stack if batched else WeightStack.batch([stack])
    if lower is None:
        lower = mirsky_lower_bound(stack, [profile.sigma], reg, target)[:, 0]
    n = len(lower)

    def results(nearest, dist, sweeps, converged):
        out = [
            ComponentDistance(max(d, lo), lo, member, s, c)
            for d, lo, member, s, c in zip(
                dist.tolist(), lower.tolist(), nearest.unbatch(), sweeps, converged
            )
        ]
        return out if batched else out[0]

    if profile.is_zero or spectrum.rank == 0:
        nearest = stack.like(np.zeros_like(stack.flat))
        return results(nearest, (stack - nearest).norm(), [0] * n, [True] * n)

    sig_mats = _sigma_matrices(profile, dims, reg, target)
    scales = _layer_scales(reg, target)
    sig_eq = np.asarray(profile.sigma_eq)
    w = stack
    u_y, v_y = spectrum.u, spectrum.v

    # Seed the first seam from the right singular frame of layer 2 (columns
    # permuted so the frame's value order matches the unsorted diagonal
    # pattern of the component).  Later seams are NOT seeded independently:
    # chaining each one through a Procrustes fit of the layer between them
    # keeps the sign/gauge conventions consistent around the loop, which
    # per-layer SVD seeds do not (their arbitrary signs can create a
    # parity-locked corner the coordinate descent cannot leave).
    _, _, vt = np.linalg.svd(w.layers[1], full_matrices=True)
    order = np.argsort(-(sig_eq * scales[1]), kind="stable")
    perm = list(np.argsort(order)) + list(range(len(order), vt.shape[-2]))  # order's ranks

    # The iterate is the member's frames: left = [Q_2, ..., Q_L, U_Y M_out],
    # right = [M_in V_Y^T, Q_2^T, ..., Q_L^T]; the outer frames are set by
    # the first block update.  Every array carries the sample axis first.
    left = [vt.swapaxes(-1, -2)[..., perm]]
    for k in range(1, L - 1):
        left.append(_polar(w.layers[k] @ left[k - 1] @ sig_mats[k].T))
    left.append(None)
    right = [None] + [q.swapaxes(-1, -2) for q in left[:-1]]

    # Block factors go straight into the mixers M_in, M_out (identity past the
    # rank); the blocks of one size h share n_h x h x h index arrays.
    m_in = np.tile(np.eye(dims.dims[0]), (n, 1, 1))
    m_out = np.tile(np.eye(dims.dims[-1]), (n, 1, 1))
    sizes, starts = np.array(spectrum.multiplicities), np.array(spectrum.s_bounds[:-1])
    groups = []
    for h in sorted(set(spectrum.multiplicities)):
        idx = starts[sizes == h][:, None] + np.arange(h)
        d1, dl = sig_eq[idx] * scales[0], sig_eq[idx] * scales[L - 1]
        groups.append((idx[:, :, None], idx[:, None, :], d1[:, :, None], dl[:, :, None]))

    def update_blocks():
        # Block i's factor is the polar factor of D1 G1[i] + DL GL[i]^T (all
        # blocks of one size in one stacked SVD, 1x1 blocks by their sign;
        # Schoenemann 1966).
        g1 = left[0].swapaxes(-1, -2) @ w.layers[0] @ v_y
        gl = u_y.T @ w.layers[L - 1] @ left[-2]
        for rows, cols, d1, dl in groups:
            factors = _polar(d1 * g1[..., rows, cols] + dl * gl[..., cols, rows])
            m_in[..., rows, cols] = factors
            m_out[..., cols, rows] = factors
        right[0], left[-1] = m_in @ v_y.T, u_y @ m_out

    def update_seams():
        # Seam k's factor is the left frame of layer k and, transposed, the
        # right frame of layer k + 1.
        for k in range(L - 1):
            left[k] = _polar(
                w.layers[k] @ (sig_mats[k] @ right[k]).swapaxes(-1, -2)
                + w.layers[k + 1].swapaxes(-1, -2) @ (left[k + 1] @ sig_mats[k + 1])
            )
            right[k + 1] = left[k].swapaxes(-1, -2)

    # ``live`` holds the samples still sweeping; ``w`` and the frames hold
    # only their rows, and a sample's rows are dropped once its own
    # objective settles, so it runs exactly the sweeps it would run alone.
    live = np.arange(n)
    sweeps = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    update_blocks()
    member = assemble(left, sig_mats, right)
    nearest = member.flat.copy()
    obj = (w - member).norm() ** 2
    for sweep in range(1, PROJECTION_SWEEPS + 1):
        update_seams()
        update_blocks()
        member = assemble(left, sig_mats, right)
        new_obj = (w - member).norm() ** 2
        rose = new_obj > obj + 1e-12 * np.maximum(1.0, obj)
        if rose.any():
            i = int(np.argmax(rose))
            raise InternalConsistencyError(
                f"alternating projection increased the objective: {obj[i]} -> {new_obj[i]}"
            )
        done = obj - new_obj < 1e-12
        obj = new_obj
        nearest[live] = member.flat
        sweeps[live] = sweep
        converged[live[done]] = True
        if done.any():
            keep = ~done
            live, obj = live[keep], obj[keep]
            if not len(live):
                break
            w, left, m_in, m_out = w[keep], [x[keep] for x in left], m_in[keep], m_out[keep]
            right = [right[0][keep]] + [q.swapaxes(-1, -2) for q in left[:-1]]

    nearest = stack.like(nearest)
    y = inst.target
    gnorm = (grad_f if target == "F" else grad_g)(nearest, y, reg).norm()
    bad = gnorm > 1e-9 * (1.0 + float(np.linalg.norm(y)))
    if bad.any():
        raise InternalConsistencyError(
            f"projected point is not critical: gradient norm {gnorm[np.argmax(bad)]}"
        )
    # The bracket must be consistent; tolerate only roundoff inversion.
    dist = (stack - nearest).norm()
    inverted = dist < lower - 1e-9 * (1.0 + lower)
    if inverted.any():
        i = int(np.argmax(inverted))
        raise InternalConsistencyError(
            f"distance upper bound {dist[i]} fell below the certified lower {lower[i]}"
        )
    return results(nearest, dist, sweeps.tolist(), converged.tolist())


@dataclass
class SetDistance:
    distance: float
    lower_bound: float
    profile_index: int
    nearest: WeightStack
    converged: bool  # every projection run for this distance converged


def distance_to_critical_set(
    stack: WeightStack, inst: "Instance", target: str = "F"
) -> SetDistance | list[SetDistance]:
    """Minimum component distance over the instance's enumerated profiles.

    Profiles whose certified lower bound already exceeds the best upper bound
    are skipped.  Candidates are visited in order of their lower bound, with
    the enumeration index breaking ties so results are deterministic.

    A batched stack returns one result per sample, each equal to the result
    for that sample alone: every sample walks its own candidate order, and
    each round projects the samples whose next candidate is the same profile
    in one :func:`distance_to_component` call, handing it their rows of the
    bounds computed here, so each layer's singular values are taken once.
    """
    batched = stack.flat.ndim > 1
    stack = stack if batched else WeightStack.batch([stack])
    enum = inst.profiles
    lowers = mirsky_lower_bound(stack, enum.sigmas, inst.reg, target)
    order = np.argsort(lowers, axis=-1, kind="stable")
    n, n_profiles = lowers.shape
    best: list[ComponentDistance | None] = [None] * n
    best_idx = [-1] * n
    converged = [True] * n
    visited = [0] * n  # candidates of each sample's order projected so far
    active = list(range(n))
    while active:
        rounds: dict[int, list[int]] = {}
        for i in active:
            if visited[i] == n_profiles:
                continue
            k = int(order[i, visited[i]])
            if best[i] is not None and lowers[i, k] >= best[i].distance:
                continue  # later bounds are no smaller, and the best distance only falls
            rounds.setdefault(k, []).append(i)
        active = []
        for k, rows in sorted(rounds.items()):
            cands = distance_to_component(
                stack[rows], enum.profiles[k], inst, target=target, lower=lowers[rows, k]
            )
            for i, cand in zip(rows, cands):
                converged[i] = converged[i] and cand.converged
                if best[i] is None or cand.distance < best[i].distance:
                    best[i], best_idx[i] = cand, k
                visited[i] += 1
                active.append(i)
    out = [
        SetDistance(b.distance, float(lo.min()), k, b.nearest, c)
        for b, lo, k, c in zip(best, lowers, best_idx, converged)
    ]
    return out if batched else out[0]
