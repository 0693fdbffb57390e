"""Small shared utilities."""

from __future__ import annotations

import hashlib
import numbers

import numpy as np


def is_number(value, kind=numbers.Real) -> bool:
    """The one number rule: an instance of ``kind`` (numpy's numbers too), not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic random stream derived from a root seed and a label.

    Streams for different labels are independent, and adding a new label
    never perturbs the draws of an existing one.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), sub]))


def named_seed(seed: int, name: str) -> int:
    """Integer seed variant of :func:`named_stream` for APIs that take ints."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (int(seed) * 0x9E3779B9 + int.from_bytes(digest[:4], "little")) % (2**63)


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x, and the fit's R^2 (1 for constant y)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
