"""Closed-form curves for the equal-weight two-angle state family.

Restricting to real amplitudes (cos(a), sin(a), cos(b), sin(b))/sqrt(2)
with b = a - d, the post-measurement mutual information becomes an
explicit periodic function of the angle a.  Its maxima over a trace out
a curve I = ridge_mi(C) in the (concurrence, information) plane: the
locus where the joint density of random states piles up.  This module
evaluates that curve, inverts it, and locates the angle extrema.

``mi_from_angles`` is deliberately implemented from the closed form
rather than through the measurement pipeline.  The mi-oracle check of
``verify`` evaluates both routes from the same cos and sin values: they
share elementary-function values, not formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .states import _scalarize, _within, _xlog2_into, binary_entropy

_BISECT_MAX_ITER = 200
_BISECT_TOL = 1e-12


def mi_from_angles(alpha, delta):
    """Mutual information (bits) of the state (cos a, sin a, cos(a-d), sin(a-d))/sqrt(2).

    Evaluated directly from the closed form; periodic in ``alpha`` with
    period pi and accepts unrestricted finite angles.  Result lies in
    [0, 1].  An angle that is not finite raises ``DomainError``.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if not (np.isfinite(alpha).all() and np.isfinite(delta).all()):
        raise DomainError("angles must be finite")
    beta = alpha - delta
    squares = np.stack(
        np.broadcast_arrays(
            np.cos(alpha) ** 2, np.sin(alpha) ** 2, np.cos(beta) ** 2, np.sin(beta) ** 2
        )
    )
    rows = squares.reshape(4, -1)
    value = _mi_from_trig(
        rows, np.empty((3, rows.shape[1])), np.empty(rows.shape[1], dtype=bool)
    )
    return _scalarize(value.reshape(squares.shape[1:]))


def _mi_from_trig(squares, buffers, mask):
    """The closed form of ``mi_from_angles`` from the squared cosines and sines.

    ``squares`` is a (4, n) float64 array of cos^2 a, sin^2 a, cos^2 b and
    sin^2 b, and is overwritten; ``buffers`` is a (3, n) float64 array
    whose first row receives the result, and ``mask`` a boolean array of
    length n.  The caller squares: numpy squares a 0-d angle's cosine with
    libm ``pow``, which differs from ``x * x`` in the last bit for about
    0.1% of inputs, and ``mi_from_angles`` keeps that value.
    """
    cos_a2, sin_a2, cos_b2, sin_b2 = squares
    value, mean_sin, logs = buffers
    mean_cos = np.add(cos_a2, cos_b2, out=value)
    mean_cos *= 0.5
    np.add(sin_a2, sin_b2, out=mean_sin)
    mean_sin *= 0.5
    # -x(mean_cos) - x(mean_sin) + 0.5 * (x(cos_a2) + x(cos_b2) + x(sin_a2)
    # + x(sin_b2)), each sum taken left to right.
    np.negative(_xlog2_into(mean_cos, logs, mask), out=value)
    value -= _xlog2_into(mean_sin, logs, mask)
    for row in squares:
        _xlog2_into(row, logs, mask)
    total = np.add(cos_a2, cos_b2, out=mean_sin)
    total += sin_a2
    total += sin_b2
    total *= 0.5
    value += total
    return np.clip(value, 0.0, 1.0, out=value)


def ridge_mi(c):
    """Most probable nonzero mutual information at fixed concurrence.

    ridge_mi(C) = 1 + (1+C)/2 log2((1+C)/2) + (1-C)/2 log2((1-C)/2),
    strictly increasing with ridge_mi(0) = 0 and ridge_mi(1) = 1.
    """
    c = np.asarray(c, dtype=np.float64)
    if not _within(c, -1e-12, 1.0 + 1e-12):
        raise DomainError("concurrence outside [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    return _scalarize(np.maximum(1.0 - binary_entropy(0.5 * (1.0 + c)), 0.0))


def ridge_concurrence(info) -> float:
    """Invert ``ridge_mi`` by bisection on [0, 1].

    The curve is strictly increasing, so bisection converges
    unconditionally; the loop stops once |ridge_mi(c) - info| <= 1e-12.
    Raises ``ConvergenceError`` if 200 iterations are not enough.
    """
    info = float(info)
    if not 0.0 <= info <= 1.0:
        raise DomainError(f"mutual information {info!r} outside [0, 1]")
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = ridge_mi(mid)
        if abs(value - info) <= _BISECT_TOL:
            return mid
        if value < info:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not reach tolerance {_BISECT_TOL!r} for info={info!r}"
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
