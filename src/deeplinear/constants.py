"""Assumption checks and the explicit error-bound constant ledger.

All constants are evaluated verbatim from their displayed closed forms, even
where they are extremely conservative.  They certify the local inequalities;
empirical counterparts are fitted separately by the verification module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .critical import AssumptionError, SigmaProfile
from .spectrum import Instance, WeightRangeError

ASSUMPTION_REL_TOL = 1e-9


def phi(x: float, lam: float, depth: int) -> float:
    """Ratio (x^(2L-1) + lam*x) / (sqrt(lam) x^(L-1)) linking layer and target values."""
    if x <= 0:
        raise ValueError("phi is defined for x > 0 only")
    L = depth
    return (x ** (2 * L - 1) + lam * x) / (math.sqrt(lam) * x ** (L - 1))


def phi_prime(x, lam: float, depth: int):
    """Analytic derivative of :func:`phi`, elementwise on an array; its zeros
    mark degenerate instances."""
    if np.any(np.asarray(x) <= 0):
        raise ValueError("phi_prime is defined for x > 0 only")
    L = depth
    return (L / math.sqrt(lam)) * x ** (L - 1) + math.sqrt(lam) * (2 - L) * x ** (1 - L)


def excluded_lambda(y: float, depth: int) -> float:
    """The product regularization weight at which the instance degenerates for y;
    inf when it is past float range."""
    L = depth
    if y <= 0:
        return math.nan
    if L == 2:
        return y * y
    a = ((L - 2) / L) ** (L / (2 * (L - 1)))
    b = (L / (L - 2)) ** ((L - 2) / (2 * (L - 1)))
    try:
        return y ** (2 * (L - 1)) * (a + b) ** (-2 * (L - 1))
    except OverflowError:
        return math.inf


def degenerate_sigma(lam: float, depth: int) -> float:
    """Positive stationary value with vanishing phi' at the excluded weight (L >= 3).

    Solving phi'(x) = 0 gives x^(2L-2) = lam (L-2) / L; at the excluded
    weight this x is simultaneously a (double) root of the stationarity
    equation.
    """
    L = depth
    if L < 3:
        raise ValueError("the tangential stationary value exists for depth >= 3 only")
    return (lam * (L - 2) / L) ** (1.0 / (2 * (L - 1)))


@dataclass
class AssumptionReport:
    assumption1: bool
    assumption2: bool
    violated_indices: list[int]     # 0-based indices into the singular values
    margins: list[float]            # relative |lam - excluded_i| per positive value
    excluded_values: list[float]

    @property
    def ok(self) -> bool:
        return self.assumption1 and self.assumption2


def check_assumptions(inst: Instance) -> AssumptionReport:
    """Width condition plus the non-degeneracy of lam against every y_i; an
    excluded weight that is not a positive finite float is refused."""
    spectrum, L = inst.spectrum, inst.depth
    lam = inst.reg.lambda_prod
    violated = []
    margins = []
    excluded = []
    for i in range(spectrum.rank):
        exc = excluded_lambda(float(spectrum.y[i]), L)
        if not 0.0 < exc < math.inf:
            raise WeightRangeError(
                f"y_{i + 1} = {spectrum.y[i]} puts the excluded weight at {exc}, not a positive finite float"
            )
        excluded.append(exc)
        rel = abs(lam - exc) / exc
        margins.append(rel)
        if rel <= ASSUMPTION_REL_TOL:
            violated.append(i)
    return AssumptionReport(
        assumption1=inst.dims.assumption1,
        assumption2=not violated,
        violated_indices=violated,
        margins=margins,
        excluded_values=excluded,
    )


# The ledger's per-profile constants, NaN for the zero profile.
PROFILE_KEYS = (
    "eta1", "eta2", "eta3", "eta4", "eta5", "c1", "c2", "c3", "c4", "c5",
    "delta1", "delta2", "L_G", "eps_sigma", "kappa_sigma",
)


@dataclass
class EbConstantsLedger:
    """Every named error-bound constant for one instance and one profile.

    Per-profile entries (eta*, c*, delta1/2, L_G, eps_sigma, kappa_sigma and
    the sigma summaries) are NaN for the zero profile, which is covered by
    (eps_zero, kappa_zero) alone.  (kappa, eps) aggregate over the whole
    enumerated profile family, zero profile included, and (kappa1, eps1)
    transfer them to the per-layer-regularized objective.
    """

    delta_y: float
    delta_sigma: float
    d_max: int
    eta1: float
    eta2: float
    eta3: float
    eta4: float
    eta5: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    delta1: float
    delta2: float
    L_G: float
    eps_zero: float
    kappa_zero: float
    eps_sigma: float
    kappa_sigma: float
    kappa: float
    eps: float
    kappa1: float
    eps1: float
    sigma_min_pos: float
    sigma_max: float
    r_sigma: int
    g_max: int
    p: int
    enumeration_truncated: bool = False


def _zero_profile_constants(inst: Instance) -> tuple[float, float]:
    spectrum, L = inst.spectrum, inst.depth
    lam = inst.reg.lambda_prod
    rl = math.sqrt(lam)
    y1 = spectrum.y_top
    if L == 2:
        gaps = [abs(lam - float(y) ** 2) for y in spectrum.y[: spectrum.rank]]
        m = min(gaps + [lam])
        eps0 = math.sqrt(rl / (2.0 * (rl + y1)) * m)
        kappa0 = 2.0 * (rl + y1) / (rl * m)
    else:
        first = (lam / 3.0) ** (1.0 / (2 * L - 2))
        second = (rl / (3.0 * y1)) ** (1.0 / (L - 2)) if y1 > 0 else math.inf
        eps0 = min(first, second)
        kappa0 = 3.0 * math.sqrt(L) / (2.0 * lam)
    return eps0, kappa0


def distinct_value_starts(sigmas: np.ndarray) -> np.ndarray:
    """Where each distinct positive value begins, along rows of sorted sigma vectors.

    ``sigmas`` is (P, d), each row sorted nonincreasing.  Entry k of a row is
    True when sigma[k] > 0 and, for k > 0, sigma[k-1] - sigma[k] exceeds
    1e-12 * sigma[k-1], a gap relative to the larger of the two values, so
    tiny roots of different blocks stay apart however small they are.  The
    same root of equal target values (one block) agrees to rounding and
    merges.
    """
    starts = sigmas > 0.0
    starts[:, 1:] &= sigmas[:, :-1] - sigmas[:, 1:] > 1e-12 * sigmas[:, :-1]
    return starts


def _profile_summaries(inst: Instance, sigmas: np.ndarray) -> dict[str, np.ndarray]:
    """The six (P,) summaries every per-profile constant reads, of the non-zero
    profiles whose sorted sigma vectors are the rows of ``sigmas``: the largest
    and least positive entry, the counts of positive entries and of distinct
    positive values, the largest multiplicity, and the least |phi'|."""
    pos = sigmas > 0.0
    starts = distinct_value_starts(sigmas)
    k = np.arange(sigmas.shape[1])
    place = k - np.maximum.accumulate(np.where(starts, k, 0), axis=1)  # within its group
    phi_abs = np.abs(phi_prime(np.where(pos, sigmas, 1.0), inst.reg.lambda_prod, inst.depth))
    return dict(
        smax=sigmas[:, 0],
        smin=np.where(pos, sigmas, np.inf).min(axis=1),
        r=pos.sum(axis=1),
        p=starts.sum(axis=1),
        gmax=np.where(pos, place + 1, 0).max(axis=1),
        minphi=np.where(pos, phi_abs, np.inf).min(axis=1),
    )


def _profile_constants(inst: Instance, smax, smin, r, p, gmax, minphi) -> dict[str, np.ndarray]:
    """Per-profile constants over the summaries of :func:`_profile_summaries`:
    one (P,) array per name in ``PROFILE_KEYS``, each constant one expression
    over every profile."""
    spectrum, L = inst.spectrum, inst.depth
    lam = inst.reg.lambda_prod
    rl = math.sqrt(lam)
    d_max = max(inst.dims.dims)
    y1 = spectrum.y_top
    ysp = spectrum.y_smallest_positive
    py = spectrum.p_distinct
    dy = spectrum.delta_y
    ds = inst.delta_sigma
    if L == 2:
        gaps = [abs(rl - float(y)) for y in spectrum.y[: spectrum.rank]]
        m2 = min(gaps + [rl])
        # the first profile's own refusal comes first
        if m2 == 0.0 and minphi[0] != 0.0:
            raise AssumptionError(
                "min{|sqrt(lam) - y_i|, sqrt(lam)} = 0: c3 is undefined"
            )
    if (minphi == 0.0).any():
        raise AssumptionError(
            "min |phi'(sigma*)| = 0: c5 and delta2 are undefined at this profile"
        )

    # (L-l)(L-l+1) + (l-1)l is convex in l = 1..L, largest (L(L-1)) at l = 1 and L.
    c1 = (1.5 * smax) ** (2 * L - 2) * ((L - 1) * L) / (2.0 * math.sqrt(2.0) * lam) + 0.5
    eta1 = (smax / smin) * (
        3.0 * math.sqrt(2.0) * smin / (4.0 * lam)
        + 81.0 * smax**2 / (8.0 * ds * lam)
        + 9.0 * np.sqrt(2.0 * gmax) * L * smax / (4.0 * lam)
    )
    eta2 = c1 + (1.5 * smax) ** L * 3.0 * (L - 1) * y1 / (2.0 * ds * rl * smin)
    c2 = (
        (1.5 * smax) ** L * 3.0 * y1 * L / (2.0 * rl * ds * smin)
        + c1
        + y1
        * p
        * rl
        * (1.5 * smax) ** (L - 2)
        * (
            L**2 * eta1 / (2.0 * smin)
            + 3.0 * np.sqrt(2.0 * gmax) * L**2 * smax / (2.0 * lam * smin)
        )
    )
    if L == 2:
        c3 = 6.0 * c2 * (y1 + rl) / (lam * m2)
    else:
        c3 = 2.0 * eta2 / lam

    delta1 = dy / (
        3.0 * L * (4.0 * smax / 3.0) ** (L - 1) / rl
        + 3.0 * (L - 2) * rl * (2.0 * smin / 3.0) ** (1 - L)
    )
    delta2 = minphi / (
        2.0 * L * (L - 1) * (4.0 * smax / 3.0) ** (L - 1) / rl
        + 2.0 * rl * (2 - L) * (1 - L) * (2.0 * smin / 3.0) ** (-L)
    )
    eta3 = c2 + c3 * math.sqrt(d_max) * (
        (1.5 * smax) ** (2 * (L - 1)) + rl * y1 * (1.5 * smax) ** (L - 2) + lam
    )
    eta4 = (
        eta3
        + p * eta1 * (2 * L - 1) * L / smin * (1.5 * smax) ** (2 * L - 2)
        + lam * p * eta1 * L / smin
    )
    hyp = np.hypot(eta3, eta4)
    if math.isinf(dy):
        # Single distinct value filling the whole spectrum: the gap-dependent
        # prefactor (6 y1 + dy) / dy tends to 1.
        eta5 = 2.0 ** (L + 1) * (py + 1) * hyp / (3.0 * rl * ysp * smin ** (L - 1))
    else:
        eta5 = (
            2.0 ** (L + 1)
            * (6.0 * y1 + dy)
            * (py + 1)
            * hyp
            / (3.0 * rl * ysp * dy * smin ** (L - 1))
        )
    c4 = eta5 + (1.0 / ysp) * (
        2.0**L * hyp / (rl * smin ** (L - 1)) + 2.0 * y1 * eta5
    )
    c5 = 2.0**L * hyp / (rl * smin ** (L - 1) * minphi) + 3.0 * math.sqrt(2.0) * (
        L - 1
    ) * smax / (4.0 * lam * smin)
    l_g = (
        lam * L
        + 2.0 ** (2 * L - 1) * L**2 * smax ** (2 * L - 2)
        + rl * y1 * 2.0 ** (L - 2) * L**2 * smax ** (L - 2)
    )

    radius_pieces = [
        ds / 3.0,
        delta1,
        delta2,
        dy * rl * smin ** (L - 1) / (3.0 * 2.0 ** (L - 1) * l_g * hyp),
    ]
    if L == 2:
        radius_pieces.append(rl / math.sqrt(3.0 * (rl + y1)) * math.sqrt(m2))
        radius_pieces.append(
            math.sqrt(2.0 * lam) * m2 * smin / (12.0 * c2 * l_g)
        )
    else:
        radius_pieces.append((rl / (2.0 * y1)) ** (1.0 / (L - 2)))
    # fmin, like Python's min over the pieces, passes over a NaN piece
    eps_sigma = functools.reduce(np.fmin, radius_pieces)
    kappa_sigma = math.sqrt(L) * (
        9.0 * smax**2 / (4.0 * ds * lam * smin)
        + c3 * np.sqrt(np.maximum(d_max - r, 0))
        + c4 * smax
        + c5 * np.sqrt(r)
    )

    return dict(zip(PROFILE_KEYS, (
        eta1, eta2, eta3, eta4, eta5, c1, c2, c3, c4, c5,
        delta1, delta2, l_g, eps_sigma, kappa_sigma,
    )))


def compute_ledger(inst: Instance, profile: SigmaProfile) -> EbConstantsLedger:
    """Full constant ledger for one instance and one profile.

    Refuses when the width or non-degeneracy assumptions fail, naming the
    constant that becomes undefined, and when a constant overflows float
    range (the +inf of ``delta_y``, ``delta_sigma`` and ``delta1`` where no
    gap exists is not an overflow).  ``d_max`` is taken over the whole layer
    chain.  (kappa, eps) aggregate over the instance's profile enumeration.
    One summary pass over the sorted vectors, and the constants over its
    arrays, give both: the requested profile's row, then the enumeration's
    non-zero profiles.
    """
    report = inst.assumptions
    if not report.assumption1:
        raise AssumptionError(
            "hidden widths below min(d_0, d_L): the closed-form critical set "
            "and every constant derived from it are unavailable"
        )
    if not report.assumption2:
        idx = report.violated_indices
        if inst.depth == 2:
            detail = "min{|sqrt(lam) - y_i|, sqrt(lam)} = 0 degenerates c3, eps_zero, kappa_zero"
        else:
            detail = "min |phi'(sigma*)| = 0 degenerates c5 and delta2"
        raise AssumptionError(
            f"regularization weight hits the excluded value at indices {idx}: {detail}"
        )

    reg = inst.reg
    first = 0 if profile.is_zero else 1  # the requested profile's row, if any
    sigmas = inst.profiles.sigmas
    sigmas = np.concatenate([np.array([profile.sigma])[:first], sigmas[sigmas[:, 0] > 0.0]])
    # The requested profile's entries: NaN, and counts of 0, for the zero profile.
    own = dict.fromkeys(PROFILE_KEYS + ("sigma_max", "sigma_min_pos"), math.nan)
    own.update(r_sigma=0, p=0, g_max=0)
    try:
        with np.errstate(over="raise"):
            eps0, kappa0 = _zero_profile_constants(inst)
            kappa, eps = kappa0, eps0
            if len(sigmas):  # none for a zero target
                summaries = _profile_summaries(inst, sigmas)
                every = _profile_constants(inst, **summaries)
                if first:
                    own = {key: float(val[0]) for key, val in every.items()}
                    row = {key: val[0].item() for key, val in summaries.items()}
                    own.update(sigma_max=row["smax"], sigma_min_pos=row["smin"],
                               r_sigma=row["r"], p=row["p"], g_max=row["gmax"])
                # max/min of Python floats in enumeration order: a NaN value is passed over
                kappa = max([kappa0] + every["kappa_sigma"][first:].tolist())
                eps = min([eps0] + every["eps_sigma"][first:].tolist())
            kappa1 = kappa * reg.lambda_prod / reg.lambda_min
            if math.isinf(kappa1):  # a product of Python floats overflows silently
                raise OverflowError("kappa1 = kappa * lam / lambda_min")
    except (FloatingPointError, OverflowError) as exc:
        raise AssumptionError(f"a constant overflows float range: {exc}") from exc

    return EbConstantsLedger(
        delta_y=inst.spectrum.delta_y,
        delta_sigma=inst.delta_sigma,
        d_max=max(inst.dims.dims),
        eps_zero=eps0,
        kappa_zero=kappa0,
        kappa=kappa,
        eps=eps,
        kappa1=kappa1,
        eps1=eps / math.sqrt(reg.lambda_max),
        enumeration_truncated=inst.profiles.truncated,
        **own,
    )
