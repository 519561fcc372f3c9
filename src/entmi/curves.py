"""Closed-form curves for the equal-weight two-angle state family.

Restricting to real amplitudes (cos(a), sin(a), cos(b), sin(b))/sqrt(2)
with b = a - d, the post-measurement mutual information becomes an
explicit periodic function of the angle a.  Its maxima over a trace out
a curve I = ridge_mi(C) in the (concurrence, information) plane: the
locus where the joint density of random states piles up.  This module
evaluates that curve and inverts it.

``mi_from_angles`` is deliberately implemented from the closed form
rather than through the measurement pipeline.  The mi-oracle check of
``verify`` evaluates both routes from the same cos and sin values: they
share elementary-function values, not formulas.
"""

from __future__ import annotations

import numpy as np

from .states import _binary_entropy, _require_finite, _scalarize, _unit_interval, _xlog2_into

_BISECT_TOL = 1e-12


def mi_from_angles(alpha, delta):
    """Mutual information (bits) of the state (cos a, sin a, cos(a-d), sin(a-d))/sqrt(2).

    Evaluated directly from the closed form; periodic in ``alpha`` with
    period pi and accepts unrestricted finite angles.  Result lies in
    [0, 1].  An angle that is not finite raises ``DomainError``.
    """
    alpha, delta = _require_finite("angles", alpha, delta)
    beta = alpha - delta
    squares = np.square(np.stack([np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)]))
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
    length n.
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
    strictly increasing with ridge_mi(0) = 0 and ridge_mi(1) = 1.  A ``c``
    within 1e-12 of [0, 1] is clipped into it; one further off, or NaN,
    raises ``DomainError``.
    """
    c = _unit_interval(c, "concurrence")
    return _scalarize(np.maximum(1.0 - _binary_entropy(0.5 * (1.0 + c)), 0.0))


def ridge_concurrence(info):
    """Invert ``ridge_mi`` by bisection on [0, 1], element by element.

    The curve is strictly increasing, so an element's bisection stops once
    |ridge_mi(c) - info| <= 1e-12, or once no float is left between the
    ends of its bracket.  An ``info`` within 1e-12 of [0, 1] is clipped
    into it; one further off, or NaN, raises ``DomainError``.
    """
    info = _unit_interval(info, "mutual information")
    lo, hi, mid = np.zeros(info.shape), np.ones(info.shape), np.empty(info.shape)
    open_ = np.ones(info.shape, dtype=bool)
    while open_.any():
        np.copyto(mid, 0.5 * (lo + hi), where=open_)
        value = ridge_mi(mid)
        open_ &= (np.abs(value - info) > _BISECT_TOL) & (mid != lo) & (mid != hi)
        below = value < info
        np.copyto(lo, mid, where=open_ & below)
        np.copyto(hi, mid, where=open_ & ~below)
    return _scalarize(mid)
