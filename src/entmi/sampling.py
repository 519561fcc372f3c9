"""Reproducible random ensembles of two-qubit pure states.

Every stream is owned by a (master_seed, stream_id) pair, fed to a
counter-based Philox generator as its 128-bit key.  Distinct stream ids
give statistically independent, non-overlapping streams; the same pair
always replays the identical sequence, regardless of how the draw is
split into chunks.  Parallel workers therefore never need to coordinate:
give each block of work its own stream id and merge the results.

Ensembles
---------
real-s3     four standard normals per state, normalized: the uniform
            measure on the unit sphere in R^4 (real amplitudes).
complex-s7  eight standard normals (re/im interleaved), normalized:
            uniform on the unit sphere in C^4.
param       (y, alpha, beta) with y ~ U[0,1] and both angles ~ U[0,2pi),
            the angle parametrization of a real-amplitude state.
zero-mi     states (pq, ps, rq, -rs) built from two normalized Gaussian
            pairs (p,r) and (q,s); they satisfy |ad| = |bc| exactly, so
            their post-measurement mutual information vanishes even
            though the concurrence 4|pqrs| is generically positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError
from .states import _params_into

# A drawn row counts as degenerate when every component of a group it
# normalizes is below this: it is too close to zero to normalize.  The
# norm test of ``finish`` flags about 8e-48 of real-s3 states, 2e-94 of
# complex-s7 states and 4e-24 of zero-mi states, so a flagged row is an
# error, not redrawn.
_DEGENERATE_TOL = 1e-12

_UINT64_LIMIT = 2**64


def _integer(value, what: str) -> int:
    """``value``, an ``int`` or ``np.integer`` but not a ``bool``, as an ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} {value!r} is not an integer")
    return int(value)


def _count(value, what: str) -> int:
    """``value``, an integer of at least 1, as an ``int``."""
    value = _integer(value, what)
    if value < 1:
        raise DomainError(f"{what} must be at least 1")
    return value


@dataclass(frozen=True)
class SeedSpec:
    """Identity of one reproducible stream.

    Both fields are integers in [0, 2**64): an ``int`` or ``np.integer``,
    not a ``bool``.  Multi-block operations (the parallel pipeline, the
    verification scans) treat ``stream_id`` as a base and use consecutive
    ids for consecutive blocks.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            if not 0 <= _integer(getattr(self, name), name) < _UINT64_LIMIT:
                raise DomainError(f"{name} must fit in an unsigned 64-bit integer")


class Ensemble(str, Enum):
    """Supported random-state ensembles."""

    REAL_S3 = "real-s3"
    COMPLEX_S7 = "complex-s7"
    PARAM = "param"
    ZERO_MI = "zero-mi"


def stream_generator(seed: SeedSpec) -> np.random.Generator:
    """Counter-based generator keyed by (master_seed, stream_id)."""
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Rows per tile: a block is drawn, normalized and finished this many rows
# at a time, so a tile's draws and the kernel's per-tile buffers stay in a
# core's L2 cache and a worker's buffers do not grow with the block.
_TILE_ROWS = 16_384


def _tiles(count: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of at most ``_TILE_ROWS`` covering ``count`` rows."""
    return [
        (start, min(start + _TILE_ROWS, count)) for start in range(0, count, _TILE_ROWS)
    ]


def _squared_norm(draws: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Row sums of squares, added in the order ``(draws * draws).sum(axis=1)`` uses.

    numpy adds a row of 4 in sequence, ((x0^2 + x1^2) + x2^2) + x3^2, and a
    row of 8 pairwise, ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)).
    Keeping that order keeps every normalized amplitude bit-identical to
    the row-wise reduction, without its per-row loop overhead.  ``out``
    has one entry per row and ``scratch`` three rows of that length.
    """
    cols = list(draws.T)
    if len(cols) == 4:
        np.multiply(cols[0], cols[0], out=out)
        for col in cols[1:]:
            out += np.multiply(col, col, out=scratch[0])
        return out
    return _pairwise_squares(cols, out, scratch)


def _pairwise_squares(cols, out, scratch):
    if len(cols) == 1:
        return np.multiply(cols[0], cols[0], out=out)
    half = len(cols) // 2
    _pairwise_squares(cols[:half], out, scratch)
    out += _pairwise_squares(cols[half:], scratch[0], scratch[1:])
    return out


def _require_normalizable(norm: np.ndarray, width: int, scratch: np.ndarray) -> None:
    """Raise ``ConsistencyError`` if a row's norm over ``width`` components lets it be degenerate.

    Every |x| < tol forces norm < sqrt(width) * tol; the extra factor
    sqrt(2) covers the rounding of the squares, their sum and the root.
    This flags a superset of the degenerate rows, cheap because the norm is
    needed anyway.  The flags go in the bytes of ``scratch``, a float64
    row as long as ``norm``.
    """
    flags = scratch.view(bool)[: len(norm)]
    if np.less(norm, np.sqrt(2.0 * width) * _DEGENERATE_TOL, out=flags).any():
        raise ConsistencyError(
            f"a drawn state lies within about {_DEGENERATE_TOL:g} of zero and "
            "cannot be normalized; use another seed"
        )


# Each ensemble is two row-wise steps, run on one tile at a time:
# ``fill(gen, draws)`` draws the rows with one generator call, and
# ``finish(draws, rows)`` turns them into the stream's values in place,
# raising ``ConsistencyError`` before it divides if a row may be
# degenerate.  ``rows`` are four float64 rows of the tile's length, norms
# first and then scratch: sphere-8 uses 1 + 3 of them, zero-mi 2 + 2,
# sphere-4 1 + 1 and param none.  Every step computes each row on its
# own, so the values do not depend on the tiling.


def _fill_normal(gen, draws):
    gen.standard_normal(out=draws)


def _fill_uniform(gen, draws):
    gen.random(out=draws)


def _finish_sphere(draws, rows):
    norm = rows[0]
    _squared_norm(draws, norm, rows[1:])
    np.sqrt(norm, out=norm)
    _require_normalizable(norm, draws.shape[1], rows[1])
    # Column by column: the same quotients as ``draws /= norm[:, None]``,
    # without the broadcast's per-row inner loop.
    for col in draws.T:
        col /= norm


def _finish_params(draws, rows):
    draws[:, 1] *= 2.0 * np.pi
    draws[:, 2] *= 2.0 * np.pi


def _finish_zero_mi(draws, rows):
    # Normalize (p, r) and (q, s), then overwrite the row with
    # (pq, ps, rq, -rs); the two cross products go through scratch.
    p, q, r, s = draws.T
    left, right = rows[:2]
    np.hypot(p, r, out=left)
    np.hypot(q, s, out=right)
    _require_normalizable(np.minimum(left, right, out=rows[2]), 2, rows[3])
    p /= left
    r /= left
    q /= right
    s /= right
    ps = np.multiply(p, s, out=rows[2])
    rq = np.multiply(r, q, out=rows[3])
    np.multiply(p, q, out=p)
    np.negative(np.multiply(r, s, out=s), out=s)
    q[...] = ps
    r[...] = rq


class _Layout(NamedTuple):
    """An ensemble's two steps, and the shape of its draws and values.

    ``width`` float64 columns are drawn per state; ``dtype`` is the
    values' dtype: complex-s7 draws (re, im) pairs, so its float64 rows
    view as 4 complex128.
    """

    fill: Callable
    finish: Callable
    width: int
    dtype: type


_LAYOUTS = {
    Ensemble.REAL_S3: _Layout(_fill_normal, _finish_sphere, 4, np.float64),
    Ensemble.COMPLEX_S7: _Layout(_fill_normal, _finish_sphere, 8, np.complex128),
    Ensemble.PARAM: _Layout(_fill_uniform, _finish_params, 3, np.float64),
    Ensemble.ZERO_MI: _Layout(_fill_normal, _finish_zero_mi, 4, np.float64),
}


def _as_amplitudes(kind: Ensemble, values: np.ndarray, buffers=None) -> np.ndarray:
    """Amplitudes of ensemble ``kind``'s (n, width) values.

    Parameter triples are mapped to their real amplitudes in ``buffers``,
    fresh ones when None: a flat float64 array of at least 4n floats for
    the amplitudes, then a (4, m) and an (m,) array, m >= n, of which
    :func:`_params_into` uses the first n columns as scratch.  Other values
    are their own amplitudes.
    """
    if kind is not Ensemble.PARAM:
        return values
    n = len(values)
    flat, trig, root = buffers or (np.empty(4 * n), np.empty((4, n)), np.empty(n))
    return _params_into(*values.T, flat[: 4 * n].reshape(n, 4), trig[:, :n], root[:n])


def _take(kind: Ensemble, gen: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` values of ``gen`` as ensemble ``kind``, filled tile by tile.

    ``gen`` is consumed exactly as by one ``standard_normal`` (or
    ``random``) call of shape (n, width): chunked draws of a Philox
    stream replay one whole draw.
    """
    layout = _LAYOUTS[kind]
    out = np.empty((n, layout.width))
    rows = np.empty((4, min(n, _TILE_ROWS)))
    for start, stop in _tiles(n):
        draws = out[start:stop]
        layout.fill(gen, draws)
        layout.finish(draws, rows[:, : stop - start])
    return out.view(layout.dtype)


def sample_amplitudes(kind: Ensemble, seed: SeedSpec, n: int) -> np.ndarray:
    """The first ``n`` states of ensemble ``kind`` on stream ``seed``, shape (n, 4).

    Parameter triples of ``param`` are mapped to their real amplitudes.
    """
    n = _count(n, "sample count")
    kind = Ensemble(kind)
    return _as_amplitudes(kind, _take(kind, stream_generator(seed), n))
