"""The problem instance and the spectral data of its target matrix.

Everything downstream of the target matrix Y is phrased in terms of its
singular values y_1 >= ... >= y_{d_min} and the partition of the positive
ones into blocks of equal value.  This module computes that partition, the
minimal gap ``delta_y`` between distinct values, and the set of all
nonnegative solutions of the per-value scalar stationarity equation together
with its separation ``delta_sigma``.  :class:`Instance` is the one problem
object the library passes around: it solves each stationarity equation once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import critical
from .network import DimChain, RegParams, ShapeError

# Consecutive target singular values closer than this, relative to the largest,
# form one block.
GROUPING_TOL = 1e-8


@dataclass
class TargetSpectrum:
    """SVD of a target matrix Y and its distinct-singular-value partition.

    Attributes:
        u: left singular frame, d_out x d_out orthogonal
        v: right singular frame, d_in x d_in orthogonal
        y: all min(d_out, d_in) singular values, nonincreasing
        s_bounds: block boundaries 0 = s_0 < s_1 < ... < s_p = rank, the one
            record of the partition; ``rank``, ``p_distinct`` and
            ``multiplicities`` are read from it
        delta_y: minimal gap between adjacent distinct values; the trailing
            zero counts as a distinct value whenever rank < d_min; +inf when
            no gap exists
    """

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    s_bounds: tuple[int, ...]
    delta_y: float

    @property
    def rank(self) -> int:
        """Number of singular values above the rank threshold."""
        return self.s_bounds[-1]

    @property
    def p_distinct(self) -> int:
        """Number of distinct positive singular values (p_Y)."""
        return len(self.s_bounds) - 1

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """Block sizes h_i = s_i - s_{i-1}."""
        return tuple(b - a for a, b in zip(self.s_bounds, self.s_bounds[1:]))

    @property
    def y_top(self) -> float:
        """Largest singular value (0 for the zero matrix)."""
        return float(self.y[0]) if self.y.size else 0.0

    @property
    def y_smallest_positive(self) -> float:
        """Smallest positive singular value y_{s_p}; 0 when Y = 0."""
        return float(self.y[self.rank - 1]) if self.rank > 0 else 0.0

    def block_slice(self, i: int) -> slice:
        """Index range of the i-th (0-based) positive block."""
        return slice(self.s_bounds[i], self.s_bounds[i + 1])


def analyze_target(target: np.ndarray) -> TargetSpectrum:
    """SVD of the target plus the distinct-positive-value partition.

    Consecutive singular values whose gap is at most ``GROUPING_TOL * y_1``
    are merged into one block; the rank threshold is ``1e-12 * y_1`` (exact
    zeros when y_1 = 0).  Generic targets have all-distinct values, so the
    grouping only matters for designed repeated-spectrum inputs.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 2:
        raise ValueError("target must be a matrix")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must have finite entries")

    u, svals, vt = np.linalg.svd(target, full_matrices=True)
    y = np.asarray(svals, dtype=float)
    top = float(y[0]) if y.size else 0.0
    rank_tol = 1e-12 * top
    rank = int(np.sum(y > rank_tol)) if top > 0 else 0

    # Partition the positive part into blocks of (numerically) equal value.
    bounds = [0]
    gap_tol = GROUPING_TOL * top
    for k in range(1, rank):
        if y[k - 1] - y[k] > gap_tol:
            bounds.append(k)
    if rank > 0:
        bounds.append(rank)
    s_bounds = tuple(bounds)

    # Gap between block i and block i+1 compares the values at s_i and s_{i+1}.
    gaps = [float(y[a - 1] - y[b - 1]) for a, b in zip(s_bounds[1:], s_bounds[2:])]
    if rank < y.size and rank > 0:
        gaps.append(float(y[rank - 1]))  # trailing zero counts as the next value
    delta_y = min(gaps) if gaps else math.inf

    return TargetSpectrum(u=u, v=vt.T, y=y, s_bounds=s_bounds, delta_y=delta_y)


def build_root_value_set(inst: "Instance") -> tuple[float, ...]:
    """Union of the root sets of the scalar equation over all singular values,
    sorted ascending; it always contains 0.

    Each block contributes the positive roots of its value's equation.  At a
    fixed x > 0, q is strictly monotone in y, so distinct block values share
    no positive root and no value is merged with another.
    """
    starts = inst.spectrum.s_bounds[:-1]  # the first index of each block
    return tuple(sorted([0.0, *(r for i in starts for r in inst.roots[i].roots if r > 0.0)]))


class WeightRangeError(ValueError):
    """A weight the root solver needs (the product of the weights, or a target
    value's excluded weight) is not a positive finite float."""


@dataclass(eq=False)
class Instance:
    """One problem: layer widths, regularization weights and target matrix.

    Checked once when built.  The target's spectrum, the root table (the
    nonnegative roots of the stationarity equation of every positive y_i,
    indexed like ``spectrum.y``), the sigma-profile enumeration, the
    assumption report and ``delta_sigma`` are computed on first use and
    kept, so no equation is solved and no fact derived twice.  The
    target is not copied; do not modify it after building the instance.
    Instances compare by identity.
    """

    dims: DimChain
    reg: RegParams
    target: np.ndarray

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=float)
        if self.reg.depth != self.dims.depth:
            raise ShapeError(
                f"{self.reg.depth} regularization weights for {self.dims.depth} layers"
            )
        if self.target.shape != (self.dims.d_out, self.dims.d_in):
            raise ShapeError(
                f"target has shape {self.target.shape}, dims need "
                f"({self.dims.d_out}, {self.dims.d_in})"
            )
        with np.errstate(over="ignore"):
            lam = self.reg.lambda_prod
        if not 0.0 < lam < math.inf:
            raise WeightRangeError(f"the product of the weights is {lam}, not a positive finite float")

    @property
    def depth(self) -> int:
        return self.dims.depth

    @cached_property
    def spectrum(self) -> TargetSpectrum:
        return analyze_target(self.target)

    @cached_property
    def roots(self) -> tuple[critical.ScalarRoots, ...]:
        lam = self.reg.lambda_prod
        y = self.spectrum.y
        return tuple(
            critical.solve_scalar_equation(float(y[i]), lam, self.depth)
            for i in range(self.spectrum.rank)
        )

    @cached_property
    def profiles(self) -> critical.ProfileEnumeration:
        return critical.enumerate_sigma_profiles(self)

    @cached_property
    def assumptions(self) -> "AssumptionReport":
        from . import constants  # constants imports this module

        return constants.check_assumptions(self)

    @cached_property
    def delta_sigma(self) -> float:
        """Least gap of the stationary-value set (+inf for a singleton): it
        lower-bounds the separation between distinct components of the
        critical set."""
        values = build_root_value_set(self)
        return float(min((b - a for a, b in zip(values, values[1:])), default=math.inf))
