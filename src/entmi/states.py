"""Exact per-state observables for two-qubit pure states.

A pure state is held as four complex amplitudes (a, b, c, d) over the
product basis |00>, |01>, |10>, |11>, normalized so the squared moduli
sum to 1.  Measuring both qubits in that basis yields the classical
outcome distribution (|a|^2, |b|^2, |c|^2, |d|^2), whose mutual
information (in bits) is computed below.  Concurrence 2|ad - bc| and the
von Neumann entropy of either reduced qubit quantify the quantum
correlation.

All observable functions take an array whose last axis holds the four
amplitudes, so one call processes a single state or a whole batch.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DomainError

# |sum of squared moduli - 1| must stay below this for a valid state.
NORM_TOL = 1e-12

# Mutual information may round to a tiny negative; anything below this
# indicates a real bug rather than round-off.
_MI_ROUNDOFF_TOL = 1e-12

# A concurrence or a probability may leave [0, 1] by round-off only
# within this margin.
_UNIT_CLAMP_TOL = 1e-12


def xlog2(v):
    """Elementwise ``v * log2(v)`` with the convention 0 log 0 = 0."""
    v = np.array(v, dtype=np.float64)
    return _xlog2_into(v, np.empty_like(v), np.empty(v.shape, dtype=bool))


def _binary_entropy(p):
    """Base-2 entropy of each two-outcome distribution (p, 1-p), for ``p`` in [0, 1]."""
    return np.maximum(-xlog2(p) - xlog2(1.0 - p), 0.0)


def _scalarize(x):
    return float(x) if np.ndim(x) == 0 else x


def _numbers(values):
    """``values`` as a float64 array if they are real numbers, else None.

    A string, None or rows of unequal length are not real numbers.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # rows of unequal length
        return None
    return arr.astype(np.float64, copy=False) if arr.dtype.kind in "biuf" else None


def _require_unit(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, each off [0, 1] by at most 1e-12.

    One further off, NaN, or a value that is not a number raises
    ``DomainError("<what> outside [0, 1]")``.  A float64 array is returned
    as it is, neither copied nor clipped.
    """
    arr = _numbers(values)
    if arr is None or not (  # NaN fails both comparisons
        np.min(arr, initial=0.0) >= -_UNIT_CLAMP_TOL
        and np.max(arr, initial=0.0) <= 1.0 + _UNIT_CLAMP_TOL
    ):
        raise DomainError(f"{what} outside [0, 1]")
    return arr


def _unit_interval(values, what: str) -> np.ndarray:
    """:func:`_require_unit` of ``values``, clipped into [0, 1] in a new array."""
    return np.clip(_require_unit(values, what), 0.0, 1.0)


def _require_finite(what: str, *values) -> tuple[np.ndarray, ...]:
    """``values`` as float64 arrays broadcast to one shape.

    Raises ``DomainError("<what> must be finite")`` unless each value is an
    array of finite real numbers (a string, None or rows of unequal length
    is not), and ``DomainError("arguments do not broadcast to one shape")``
    unless their shapes broadcast together.
    """
    arrays = [_numbers(v) for v in values]
    if not all(a is not None and np.isfinite(a).all() for a in arrays):
        raise DomainError(f"{what} must be finite")
    try:
        return np.broadcast_arrays(*arrays)
    except ValueError:
        raise DomainError("arguments do not broadcast to one shape") from None


def params_to_amplitudes(y, alpha, beta) -> np.ndarray:
    """Real amplitudes of the angle parametrization of a two-qubit state.

    (sqrt(y) cos(alpha), sqrt(y) sin(alpha), sqrt(1-y) cos(beta),
    sqrt(1-y) sin(beta)) has unit norm by construction.  Broadcasts y,
    alpha, beta and stacks the amplitudes on the last axis.  A y within
    1e-12 of [0, 1] is clipped into it; one further off, or NaN, raises
    ``DomainError``, as do an angle that is not finite and arguments that
    do not broadcast together.
    """
    y, alpha, beta = _require_finite("angles", _unit_interval(y, "y"), alpha, beta)
    shape = y.shape
    return _params_into(
        y, alpha, beta, np.empty(shape + (4,)), np.empty((4,) + shape), np.empty(shape)
    )


def _params_into(y, alpha, beta, out, trig, root):
    """:func:`params_to_amplitudes` of valid (y, alpha, beta), into ``out``.

    ``out`` has the angles' shape plus a last axis of 4; ``trig`` holds
    four float64 arrays and ``root`` is one, each of the angles' shape, and
    none of them overlaps the parameters.
    """
    cos_a, sin_a, cos_b, sin_b = (trig[k, ...] for k in range(4))  # arrays, even 0-d
    np.cos(alpha, out=cos_a)
    np.sin(alpha, out=sin_a)
    np.cos(beta, out=cos_b)
    np.sin(beta, out=sin_b)
    big = np.sqrt(y, out=root)
    np.multiply(big, cos_a, out=out[..., 0])
    np.multiply(big, sin_a, out=out[..., 1])
    small = np.sqrt(np.subtract(1.0, y, out=root), out=root)
    np.multiply(small, cos_b, out=out[..., 2])
    np.multiply(small, sin_b, out=out[..., 3])
    return out


def _require_unit_norm(norm2, what: str = "squared moduli") -> None:
    """Raise ``DomainError`` unless every squared norm is 1 within ``NORM_TOL``."""
    if not np.max(np.abs(norm2 - 1.0), initial=0.0) <= NORM_TOL:
        raise DomainError(f"{what} do not sum to 1 within tolerance")


def _four_finite(values, what: str = "amplitudes") -> np.ndarray:
    """``values`` as an array of finite ``what``, four on its last axis.

    Any other shape, rows of unequal length included, raises
    ``DomainError("expected four <what> on the last axis")``, and a value
    that is not a finite number ``DomainError("<what> must be finite")``.
    """
    try:
        arr = np.asarray(values)
        four = arr.ndim > 0 and arr.shape[-1] == 4
    except ValueError:  # rows of unequal length
        four = False
    if not four:
        raise DomainError(f"expected four {what} on the last axis")
    _require_finite(what, *((arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)))
    return arr


def _unit_probabilities(rows) -> np.ndarray:
    """The (4, n) squared moduli of the (n, 4) amplitude ``rows``, each summing to 1."""
    amps = rows.copy() if np.iscomplexobj(rows) else rows
    probs = _probabilities_into(amps, np.empty((4, len(rows))))
    _require_unit_norm(probs.sum(axis=0))
    return probs


def probabilities(state) -> np.ndarray:
    """Outcome distribution of a local product-basis measurement.

    Returns (|a|^2, |b|^2, |c|^2, |d|^2) on the last axis; the state must
    be finite and normalized, as for :func:`entanglement_entropy`.
    """
    amps = _four_finite(state)
    if not np.iscomplexobj(amps):
        amps = np.asarray(amps, dtype=np.float64)
    return _unit_probabilities(amps.reshape(-1, 4)).T.reshape(amps.shape)


def _xlog2_into(v, logs, mask):
    """Overwrite ``v`` with :func:`xlog2` of it, using the given buffers."""
    np.logical_not(np.greater(v, 0.0, out=mask), out=mask)
    np.copyto(v, 1.0, where=mask)
    v *= np.log2(v, out=logs)
    return v


def _mutual_information_into(rows, buffers, mask):
    """Mutual information (bits) of the distributions whose outcome k is ``rows[k]``.

    ``rows`` is a (4, n) float64 array and is overwritten; ``buffers`` is a
    (4, n) float64 array whose first row receives the result, and ``mask``
    a boolean array of length n.  Values below -1e-12 raise
    ``ConsistencyError``; the rest are clamped at 0.
    """
    p0, p1, p2, p3 = rows
    info, right, term, logs = buffers

    def xlog2_of_sum(x, y, out):
        return _xlog2_into(np.add(x, y, out=out), logs, mask)

    # The terms combine exactly as in
    #   (-x(p0+p1) - x(p2+p3)) + (-x(p0+p2) - x(p1+p3)) - -(x(p).sum(-1)),
    # a sum over 4 terms being ((t0 + t1) + t2) + t3, so every value is
    # bit-identical to that row-wise expression.
    np.negative(xlog2_of_sum(p0, p1, info), out=info)
    info -= xlog2_of_sum(p2, p3, term)
    np.negative(xlog2_of_sum(p0, p2, right), out=right)
    right -= xlog2_of_sum(p1, p3, term)
    info += right
    for row in rows:
        _xlog2_into(row, logs, mask)
    total = np.add(p0, p1, out=right)
    total += p2
    total += p3
    info -= np.negative(total, out=total)
    lowest = float(np.min(info, initial=0.0))
    if lowest < -_MI_ROUNDOFF_TOL:
        raise ConsistencyError(
            f"mutual information {lowest!r} below -{_MI_ROUNDOFF_TOL}; "
            "input is not a probability distribution"
        )
    return np.maximum(info, 0.0, out=info)


def mutual_information(probs):
    """Mutual information (bits) between the two measured qubits.

    Computed as H_left + H_right - H_total.  Round-off can produce values
    a few ulp below zero; those are clamped to 0.  Anything below
    -1e-12 means the input was not a distribution and raises
    ``ConsistencyError``.  A probability that is not a finite real number
    or is off [0, 1] by more than 1e-12, and four that do not sum to 1
    within ``NORM_TOL``, raise ``DomainError``; none is clipped.
    """
    p = _require_unit(_four_finite(probs, "probabilities"), "probabilities")
    rows = p.reshape(-1, 4).T.copy()
    _require_unit_norm(rows.sum(axis=0), "probabilities")
    info = _mutual_information_into(
        rows, np.empty_like(rows), np.empty(rows.shape[1], dtype=bool)
    )
    return _scalarize(info.reshape(p.shape[:-1]))


def _probabilities_into(amps, rows):
    """|amplitude k|^2 of each row of the (n, 4) ``amps`` into ``rows[k]``.

    ``amps`` is float64 or complex, ``rows`` a (4, n) float64 array.  A
    complex ``amps`` must be contiguous on its last axis and is
    overwritten: its real and imaginary parts are squared in place, and
    each pair of squares is added in float64.
    """
    if np.iscomplexobj(amps):
        parts = amps.view(amps.real.dtype)
        np.square(parts, out=parts)
        for k, row in enumerate(rows):
            np.add(parts[:, 2 * k], parts[:, 2 * k + 1], out=row, dtype=np.float64)
        return rows
    for k, row in enumerate(rows):
        col = amps[:, k]
        np.multiply(col, col, out=row)
    return rows


def _clamp_unit(values, what):
    values = np.asarray(values, dtype=np.float64)
    if not np.max(values, initial=0.0) <= 1.0 + _UNIT_CLAMP_TOL:
        raise ConsistencyError(
            f"{what} {float(np.max(values))!r} is NaN or exceeds 1 beyond round-off"
        )
    return np.minimum(values, 1.0, out=values)


def _concurrence_into(amps, out, scratch):
    """Concurrence 2|ad - bc| of each row of the (n, 4) ``amps``, into ``out``.

    ``out`` is a float64 array of length n and ``scratch`` a (2, n) array
    of the amplitudes' dtype.  Values above 1 beyond round-off raise
    ``ConsistencyError``; the rest are clamped.
    """
    a, b, c, d = amps.T
    ad = np.multiply(a, d, out=scratch[0])
    ad -= np.multiply(b, c, out=scratch[1])
    np.multiply(2.0, np.abs(ad, out=out), out=out)
    return _clamp_unit(out, "concurrence")


def concurrence(state):
    """Concurrence 2|ad - bc| of a finite, normalized pure state, in [0, 1]."""
    amps = _four_finite(state)
    rows = amps.reshape(-1, 4)
    _unit_probabilities(rows)
    value = _concurrence_into(
        rows, np.empty(len(rows)), np.empty((2, len(rows)), dtype=rows.dtype)
    )
    return _scalarize(value.reshape(amps.shape[:-1]))


def concurrence_polar(mod_a, mod_b, mod_c, mod_d, theta):
    """Concurrence from amplitude moduli and the combined phase.

    For amplitudes written in polar form, concurrence depends on the
    phases only through theta = theta_a + theta_d - theta_b - theta_c:

        2 * sqrt(|ad|^2 + |bc|^2 - 2 |abcd| cos(theta))

    Moduli or an angle that are not finite, or a negative modulus, raise
    ``DomainError``; the squared moduli must sum to 1 within ``NORM_TOL``.
    """
    _require_finite("angles", theta)
    mod_a, mod_b, mod_c, mod_d, theta = _require_finite(
        "moduli", mod_a, mod_b, mod_c, mod_d, theta
    )
    for moduli in (mod_a, mod_b, mod_c, mod_d):
        if np.any(moduli < 0.0):
            raise DomainError("moduli must be non-negative")
    _require_unit_norm(mod_a**2 + mod_b**2 + mod_c**2 + mod_d**2)
    ad = mod_a * mod_d
    bc = mod_b * mod_c
    radicand = ad * ad + bc * bc - 2.0 * ad * bc * np.cos(theta)
    value = 2.0 * np.sqrt(np.maximum(radicand, 0.0))
    return _scalarize(_clamp_unit(value, "concurrence"))


def entanglement_from_concurrence(c):
    """Entanglement entropy (bits) as a function of concurrence.

    E(C) is the binary entropy of x = (1 + sqrt(1 - C^2)) / 2; it rises
    monotonically from E(0) = 0 to E(1) = 1.  The complement 1 - x is
    evaluated as C^2 / (2 (1 + sqrt(1 - C^2))) to avoid cancellation for
    small C.  A ``c`` within 1e-12 of [0, 1] is clipped into it; one
    further off, or NaN, raises ``DomainError``.
    """
    c = _unit_interval(c, "concurrence")
    flat = c.reshape(-1)
    x, root = np.empty((2, flat.size))
    value = _entanglement_into(flat, (x, root, flat), np.empty(flat.size, dtype=bool))
    return _scalarize(value.reshape(c.shape))


def _entanglement_into(c, buffers, mask):
    """E(C) of the concurrences ``c``, each in [0, 1], into ``buffers[0]``.

    ``c`` is a float64 array; ``buffers`` holds three float64 arrays and
    ``mask`` is a boolean array, all as long as ``c``.  Only the buffers
    are written: ``c`` too, when it is ``buffers[2]``, which takes C^2.
    """
    x, root, c_sq = buffers
    np.multiply(c, c, out=c_sq)
    np.sqrt(np.subtract(1.0, c_sq, out=root), out=root)
    root += 1.0
    np.multiply(0.5, root, out=x)
    x_comp = np.divide(c_sq, np.multiply(2.0, root, out=root), out=c_sq)
    np.negative(_xlog2_into(x, root, mask), out=x)
    x -= _xlog2_into(x_comp, root, mask)
    return np.maximum(x, 0.0, out=x)


def entanglement_entropy(state):
    """Entanglement entropy (bits) via the reduced density matrix.

    Traces out the right qubit, takes the two eigenvalues of the
    resulting 2x2 Hermitian matrix in closed form (trace/determinant
    quadratic, no iterative solver), and returns their base-2 entropy.
    The small eigenvalue is recovered as det/lambda_max so near-product
    states do not lose precision to cancellation.  Amplitudes that are
    not finite, or squared moduli that do not sum to 1 within
    ``NORM_TOL``, raise ``DomainError``.
    """
    amps = np.asarray(_four_finite(state), dtype=np.complex128)
    a, b, c, d = (amps[..., k] for k in range(4))
    top = a.real**2 + a.imag**2 + b.real**2 + b.imag**2
    bottom = c.real**2 + c.imag**2 + d.real**2 + d.imag**2
    norm2 = top + bottom
    _require_unit_norm(norm2)
    # np.multiply, not ``*``: numpy reuses a large temporary in place, which
    # turns ``a * conj(c)`` into ``conj(c) * a``, and complex products are
    # not bit-identical in both orders, so a state's bits would depend on
    # the size of its batch.  ``x * x``, not ``x**2``, where ``x`` may be a
    # numpy scalar: numpy squares those with libm pow.
    off = np.multiply(a, np.conj(c)) + np.multiply(b, np.conj(d))
    det = np.maximum(top * bottom - (off.real * off.real + off.imag * off.imag), 0.0)
    half_trace = 0.5 * norm2
    lam_big = half_trace + np.sqrt(np.maximum(half_trace * half_trace - det, 0.0))
    lam_small = det / lam_big
    return _scalarize(np.maximum(-xlog2(lam_big) - xlog2(lam_small), 0.0))
