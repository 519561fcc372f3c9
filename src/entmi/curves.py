"""Closed-form curves for the equal-weight two-angle state family.

Restricting to real amplitudes (cos(a), sin(a), cos(b), sin(b))/sqrt(2)
with b = a - d, the post-measurement mutual information becomes an
explicit periodic function of the angle a.  Its maxima over a trace out
a curve I = ridge_mi(C) in the (concurrence, information) plane: the
locus where the joint density of random states piles up.  This module
evaluates that curve, inverts it, and locates the angle extrema.

``mi_from_angles`` is deliberately implemented from the closed form
rather than through the measurement pipeline, so the two routes can be
cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .states import _within, binary_entropy, xlog2

_BISECT_MAX_ITER = 200


def mi_from_angles(alpha, delta):
    """Mutual information (bits) of the state (cos a, sin a, cos(a-d), sin(a-d))/sqrt(2).

    Evaluated directly from the closed form; periodic in ``alpha`` with
    period pi and accepts unrestricted angles.  Result lies in [0, 1].
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    beta = alpha - delta
    cos_a2 = np.cos(alpha) ** 2
    sin_a2 = np.sin(alpha) ** 2
    cos_b2 = np.cos(beta) ** 2
    sin_b2 = np.sin(beta) ** 2
    mean_cos = 0.5 * (cos_a2 + cos_b2)
    mean_sin = 0.5 * (sin_a2 + sin_b2)
    value = (
        -xlog2(mean_cos)
        - xlog2(mean_sin)
        + 0.5 * (xlog2(cos_a2) + xlog2(cos_b2) + xlog2(sin_a2) + xlog2(sin_b2))
    )
    value = np.clip(value, 0.0, 1.0)
    return float(value) if np.ndim(value) == 0 else value


def ridge_mi(c):
    """Most probable nonzero mutual information at fixed concurrence.

    ridge_mi(C) = 1 + (1+C)/2 log2((1+C)/2) + (1-C)/2 log2((1-C)/2),
    strictly increasing with ridge_mi(0) = 0 and ridge_mi(1) = 1.
    """
    c = np.asarray(c, dtype=np.float64)
    if not _within(c, -1e-12, 1.0 + 1e-12):
        raise DomainError("concurrence outside [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    value = np.maximum(1.0 - binary_entropy(0.5 * (1.0 + c)), 0.0)
    return float(value) if np.ndim(value) == 0 else value


def ridge_concurrence(info, tol: float = 1e-12) -> float:
    """Invert ``ridge_mi`` by bisection on [0, 1].

    The curve is strictly increasing, so bisection converges
    unconditionally; the loop stops once |ridge_mi(c) - info| <= tol.
    Raises ``ConvergenceError`` if 200 iterations are not enough.
    """
    info = float(info)
    if not 0.0 <= info <= 1.0:
        raise DomainError(f"mutual information {info!r} outside [0, 1]")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = ridge_mi(mid)
        if abs(value - info) <= tol:
            return mid
        if value < info:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not reach tolerance {tol!r} for info={info!r}"
    )


@dataclass(frozen=True)
class MIExtrema:
    """Angles where the two-angle mutual information is stationary.

    For offset ``delta`` and integer branch ``index``:
      alpha_max = (delta + (index + 1/2) pi) / 2   (maximum, MI = ridge_mi(|sin delta|))
      alpha_min = (delta + index pi) / 2           (minimum, MI = 0)
    """

    delta: float
    index: int
    alpha_max: float
    alpha_min: float


def mi_extrema(delta: float, index: int = 0) -> MIExtrema:
    """Stationary angles of ``mi_from_angles`` on branch ``index``."""
    delta = float(delta)
    index = int(index)
    return MIExtrema(
        delta=delta,
        index=index,
        alpha_max=0.5 * (delta + (index + 0.5) * np.pi),
        alpha_min=0.5 * (delta + index * np.pi),
    )
