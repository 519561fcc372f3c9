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

from .errors import DomainError
from .states import params_to_amplitudes

# A draw counts as degenerate when every component is below this; the
# probability at double precision is effectively zero, but redrawing
# keeps the API total.
_DEGENERATE_TOL = 1e-12

_UINT64_LIMIT = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """Identity of one reproducible stream.

    Multi-block operations (the parallel pipeline, the verification
    scans) treat ``stream_id`` as a base and use consecutive ids for
    consecutive blocks.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= int(value) < _UINT64_LIMIT:
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


def _squared_norm(draws: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Row sums of squares, added in the order ``(draws * draws).sum(axis=1)`` uses.

    numpy adds a row of 4 in sequence, ((x0^2 + x1^2) + x2^2) + x3^2, and a
    row of 8 pairwise, ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)).
    Keeping that order keeps every normalized amplitude bit-identical to
    the row-wise reduction, without its per-row loop overhead.  ``out``
    has one entry per row and ``scratch`` three rows of that length.
    """
    if out is None:
        out = np.empty(len(draws))
    if scratch is None:
        scratch = np.empty((3, len(draws)))
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


def _may_be_degenerate(norm: np.ndarray, width: int) -> np.ndarray:
    """Rows whose norm over ``width`` components lets them be degenerate.

    Every |x| < tol forces norm < sqrt(width) * tol; the extra factor
    sqrt(2) covers the rounding of the squares, their sum and the root.
    This is a superset of the degenerate rows, cheap because the norm is
    needed anyway; :func:`_degenerate_rows` then applies the exact rule.
    """
    return np.flatnonzero(norm < np.sqrt(2.0 * width) * _DEGENERATE_TOL)


def _degenerate_rows(draws: np.ndarray, rows: np.ndarray, halves) -> np.ndarray:
    """Those of ``rows`` with every component of some half below tolerance.

    ``halves`` lists the column groups normalized separately: the whole
    row for the spheres, (p, r) and (q, s) for zero-mi.
    """
    bad = np.zeros(rows.size, dtype=bool)
    for cols in halves:
        bad |= np.abs(draws[np.ix_(rows, cols)]).max(axis=1) < _DEGENERATE_TOL
    return rows[bad]


def _redraw_degenerate(
    gen: np.random.Generator, draws: np.ndarray, rows: np.ndarray, halves
) -> np.ndarray:
    """Redraw degenerate rows until none is left; return the rows redrawn.

    Only ``rows`` (ascending, from :func:`_may_be_degenerate`) are tested,
    so they must include every degenerate row.  Each pass redraws the
    degenerate ones with one ``standard_normal((count, width))`` call and
    tests only those again, which consumes the generator exactly as a
    scan of every row per pass does.  Later passes redraw a subset of the
    first, so the first pass's rows are the ones whose norms are now
    stale.
    """
    redrawn = rows = _degenerate_rows(draws, rows, halves)
    while rows.size:
        draws[rows] = gen.standard_normal((rows.size, draws.shape[1]))
        rows = _degenerate_rows(draws, rows, halves)
    return redrawn


# Each ensemble is four row-wise steps, run on one tile at a time:
# ``fill(gen, draws)`` draws the rows with one generator call;
# ``screen(draws, norms, scratch)`` leaves in ``norms`` what ``finish``
# needs and returns the rows that may be degenerate; ``renorm(draws, norms,
# rows)`` recomputes the norms of redrawn rows; and ``finish(rows, norms,
# scratch)`` turns drawn rows into the stream's values in place.
# ``scratch`` holds three rows of one tile.  Every step computes each row
# on its own, so the values do not depend on the tiling.


def _fill_normal(gen, draws):
    gen.standard_normal(out=draws)


def _fill_uniform(gen, draws):
    gen.random(out=draws)


def _screen_sphere(draws, norms, scratch):
    norm = norms[0]
    _squared_norm(draws, norm, scratch)
    np.sqrt(norm, out=norm)
    return _may_be_degenerate(norm, draws.shape[1])


def _renorm_sphere(draws, norms, rows):
    norms[0, rows] = np.sqrt(_squared_norm(draws[rows]))


def _finish_sphere(rows, norms, scratch):
    # Column by column: the same quotients as ``rows /= norm[:, None]``,
    # without the broadcast's per-row inner loop.
    for col in rows.T:
        col /= norms[0]


_NO_ROWS = np.empty(0, dtype=np.intp)


def _screen_params(draws, norms, scratch):
    return _NO_ROWS


def _finish_params(rows, norms, scratch):
    rows[:, 1] *= 2.0 * np.pi
    rows[:, 2] *= 2.0 * np.pi


def _screen_zero_mi(draws, norms, scratch):
    left, right = norms
    np.hypot(draws[:, 0], draws[:, 2], out=left)
    np.hypot(draws[:, 1], draws[:, 3], out=right)
    return _may_be_degenerate(np.minimum(left, right, out=scratch[0]), 2)


def _renorm_zero_mi(draws, norms, rows):
    norms[0, rows] = np.hypot(draws[rows, 0], draws[rows, 2])
    norms[1, rows] = np.hypot(draws[rows, 1], draws[rows, 3])


def _finish_zero_mi(rows, norms, scratch):
    # Normalize (p, r) and (q, s), then overwrite the row with
    # (pq, ps, rq, -rs); the two cross products go through scratch.
    p, q, r, s = rows.T
    left, right = norms
    p /= left
    r /= left
    q /= right
    s /= right
    ps = np.multiply(p, s, out=scratch[0])
    rq = np.multiply(r, q, out=scratch[1])
    np.multiply(p, q, out=p)
    np.negative(np.multiply(r, s, out=s), out=s)
    q[...] = ps
    r[...] = rq


class _Layout(NamedTuple):
    """An ensemble's four steps, and the shape of its draws and values.

    ``width`` float64 columns are drawn per state and ``norms`` rows of
    norms kept; ``halves`` are the column groups normalized separately (see
    :func:`_degenerate_rows`), and ``dtype`` is the values' dtype: complex-s7
    draws (re, im) pairs, so its float64 rows view as 4 complex128.
    """

    fill: Callable
    screen: Callable
    renorm: Callable | None
    finish: Callable
    width: int
    norms: int
    halves: list
    dtype: type


_SPHERE = (_fill_normal, _screen_sphere, _renorm_sphere, _finish_sphere)
_LAYOUTS = {
    Ensemble.REAL_S3: _Layout(*_SPHERE, 4, 1, [[0, 1, 2, 3]], np.float64),
    Ensemble.COMPLEX_S7: _Layout(*_SPHERE, 8, 1, [list(range(8))], np.complex128),
    Ensemble.PARAM: _Layout(
        _fill_uniform, _screen_params, None, _finish_params, 3, 0, [], np.float64
    ),
    Ensemble.ZERO_MI: _Layout(
        _fill_normal, _screen_zero_mi, _renorm_zero_mi, _finish_zero_mi,
        4, 2, [[0, 2], [1, 3]], np.float64,
    ),
}


class SampleBlock:
    """Reusable one-tile buffers for drawing blocks of one ensemble.

    :meth:`tiles` draws a block of ``count <= capacity`` states from a
    generator and yields its rows one finished tile at a time.  The
    generator is consumed exactly as by one ``standard_normal`` (or
    ``random``) call of the block's shape followed by the degenerate-row
    redraws: chunked draws of a Philox stream replay one whole draw, and
    the redraws follow the whole block.  So when a tile holds a row that
    may be degenerate, the rest of the block is drawn at once, screened and
    redrawn as a whole, and the block's later tiles are yielded from that
    buffer; this is the only time more than one tile of draws is held.
    ``dtype`` is the dtype of the values, and ``tile_rows`` the most rows a
    tile has.
    """

    def __init__(self, kind: Ensemble, capacity: int):
        self.kind = Ensemble(kind)
        (self._fill, self._screen, self._renorm, self._finish,
         width, norms, self._halves, self.dtype) = _LAYOUTS[self.kind]
        self.capacity = capacity
        self.tile_rows = min(capacity, _TILE_ROWS)
        self._draws = np.empty((self.tile_rows, width))
        self._norms = np.empty((norms, self.tile_rows))
        self._scratch = np.empty((3, self.tile_rows))

    def tiles(self, gen: np.random.Generator, count: int):
        """Yield (start, stop, values) per tile of a block of ``count`` states.

        ``values`` holds the finished stream values of rows [start, stop):
        amplitudes for the sphere and zero-mi ensembles, (y, alpha, beta)
        triples for ``param``; it is a view of a buffer that later tiles reuse.
        """
        if not 1 <= count <= self.capacity:
            raise DomainError(f"block of {count} states outside [1, {self.capacity}]")
        for start, stop in _tiles(count):
            size = stop - start
            draws, norms = self._draws[:size], self._norms[:, :size]
            scratch = self._scratch[:, :size]
            self._fill(gen, draws)
            if self._screen(draws, norms, scratch).size:
                yield from self._draw_rest(gen, start, count, draws)
                return
            self._finish(draws, norms, scratch)
            yield start, stop, draws.view(self.dtype)

    def _draw_rest(self, gen: np.random.Generator, start: int, count: int, tile):
        """Yield rows [start, count) by tile: ``tile``, then the rest drawn at once.

        Rows before ``start`` had no candidate, so the redraws are those
        of the whole block.
        """
        draws = np.empty((count - start, tile.shape[1]))
        norms = np.empty((len(self._norms), len(draws)))
        draws[: len(tile)] = tile
        if len(tile) < len(draws):
            self._fill(gen, draws[len(tile) :])
        scratch = self._scratch
        screened = [
            lo + self._screen(draws[lo:hi], norms[:, lo:hi], scratch[:, : hi - lo])
            for lo, hi in _tiles(len(draws))
        ]
        redrawn = _redraw_degenerate(gen, draws, np.concatenate(screened), self._halves)
        self._renorm(draws, norms, redrawn)
        for lo, hi in _tiles(len(draws)):
            self._finish(draws[lo:hi], norms[:, lo:hi], scratch[:, : hi - lo])
            yield start + lo, start + hi, draws[lo:hi].view(self.dtype)


def _as_amplitudes(kind: Ensemble, values: np.ndarray) -> np.ndarray:
    """Amplitudes of ensemble ``kind``'s values, mapping parameter triples to states."""
    if kind is Ensemble.PARAM:
        return params_to_amplitudes(values[:, 0], values[:, 1], values[:, 2])
    return values


def _take(kind: Ensemble, gen: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` values of ``gen`` as ensemble ``kind``, filled tile by tile."""
    block = SampleBlock(kind, n)
    out = np.empty((n, block._draws.shape[1])).view(block.dtype)
    for start, stop, values in block.tiles(gen, n):
        out[start:stop] = values
    return out


def sample_amplitudes(kind: Ensemble, seed: SeedSpec, n: int) -> np.ndarray:
    """The first ``n`` states of ensemble ``kind`` on stream ``seed``, shape (n, 4).

    Parameter triples of ``param`` are mapped to their real amplitudes.
    """
    if n < 1:
        raise DomainError("sample count must be at least 1")
    kind = Ensemble(kind)
    return _as_amplitudes(kind, _take(kind, stream_generator(seed), int(n)))
