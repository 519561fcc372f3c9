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

    def with_stream(self, stream_id: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, stream_id)


class Ensemble(str, Enum):
    """Supported random-state ensembles."""

    REAL_S3 = "real-s3"
    COMPLEX_S7 = "complex-s7"
    PARAM = "param"
    ZERO_MI = "zero-mi"


@dataclass(frozen=True)
class EnsembleSpec:
    """A fully specified sampling run: what, how many, from which stream."""

    kind: Ensemble
    n: int
    seed: SeedSpec

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sample count must be at least 1")


def stream_generator(seed: SeedSpec) -> np.random.Generator:
    """Counter-based generator keyed by (master_seed, stream_id)."""
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Rows per tile: every pass after the whole-block draw works on this many
# rows at a time, so a tile's draws and the kernel's per-tile buffers stay
# in a core's L2 cache instead of streaming full-block temporaries.
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


# Each ensemble is a whole-block ``draw(gen, draws, norms, scratch)``, which
# fills ``draws`` with one generator call, redraws degenerate rows and
# leaves in ``norms`` what ``finish`` needs, and a row-wise
# ``finish(rows, norms, scratch)``, which turns drawn rows into the
# stream's values in place.  ``scratch`` holds three rows of one tile.
# Both work on the same rows, in the same order, as one pass over the
# whole block would, so the values do not depend on the tiling.


def _draw_sphere(gen, draws, norms, scratch):
    gen.standard_normal(out=draws)
    width = draws.shape[1]
    norm = norms[0]
    screened = []
    for start, stop in _tiles(len(draws)):
        tile = norm[start:stop]
        _squared_norm(draws[start:stop], tile, scratch[:, : stop - start])
        np.sqrt(tile, out=tile)
        screened.append(start + _may_be_degenerate(tile, width))
    redrawn = _redraw_degenerate(
        gen, draws, np.concatenate(screened), [list(range(width))]
    )
    norm[redrawn] = np.sqrt(_squared_norm(draws[redrawn]))


def _finish_sphere(rows, norms, scratch):
    # Column by column: the same quotients as ``rows /= norm[:, None]``,
    # without the broadcast's per-row inner loop.
    for col in rows.T:
        col /= norms[0]


def _draw_params(gen, draws, norms, scratch):
    gen.random(out=draws)


def _finish_params(rows, norms, scratch):
    rows[:, 1] *= 2.0 * np.pi
    rows[:, 2] *= 2.0 * np.pi


def _draw_zero_mi(gen, draws, norms, scratch):
    gen.standard_normal(out=draws)
    left, right = norms
    screened = []
    for start, stop in _tiles(len(draws)):
        tile = draws[start:stop]
        np.hypot(tile[:, 0], tile[:, 2], out=left[start:stop])
        np.hypot(tile[:, 1], tile[:, 3], out=right[start:stop])
        least = np.minimum(
            left[start:stop], right[start:stop], out=scratch[0, : stop - start]
        )
        screened.append(start + _may_be_degenerate(least, 2))
    redrawn = _redraw_degenerate(gen, draws, np.concatenate(screened), [[0, 2], [1, 3]])
    left[redrawn] = np.hypot(draws[redrawn, 0], draws[redrawn, 2])
    right[redrawn] = np.hypot(draws[redrawn, 1], draws[redrawn, 3])


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


# ensemble: (draw, finish, float64 columns drawn per state, norm rows kept,
# dtype of the values).  complex-s7 draws (re, im) pairs, so its float64
# rows view as 4 complex128.
_LAYOUTS = {
    Ensemble.REAL_S3: (_draw_sphere, _finish_sphere, 4, 1, np.float64),
    Ensemble.COMPLEX_S7: (_draw_sphere, _finish_sphere, 8, 1, np.complex128),
    Ensemble.PARAM: (_draw_params, _finish_params, 3, 0, np.float64),
    Ensemble.ZERO_MI: (_draw_zero_mi, _finish_zero_mi, 4, 2, np.float64),
}


class SampleBlock:
    """Reusable buffers for drawing blocks of one ensemble.

    :meth:`draw` consumes a generator for a whole block, exactly as one
    ``standard_normal`` (or ``random``) call of the block's shape followed
    by the degenerate-row redraws does.  :meth:`values` then finishes the
    drawn rows one range at a time, in place, so every pass after the draw
    can run on a cache-sized tile.  Each row is finished once per draw.
    Blocks hold at most ``capacity`` states; ``dtype`` is the dtype of the
    values and amplitudes, and ``tile_rows`` the length of the longest
    range :meth:`tiles` gives.
    """

    def __init__(self, kind: Ensemble, capacity: int):
        self.kind = Ensemble(kind)
        self._draw, self._finish, width, norms, self.dtype = _LAYOUTS[self.kind]
        self.tile_rows = min(capacity, _TILE_ROWS)
        self._draws = np.empty((capacity, width))
        self._norms = np.empty((norms, capacity))
        self._scratch = np.empty((3, self.tile_rows))
        self.count = 0

    def draw(self, gen: np.random.Generator, count: int) -> None:
        if not 1 <= count <= len(self._draws):
            raise DomainError(f"block of {count} states outside [1, {len(self._draws)}]")
        self.count = count
        self._draw(gen, self._draws[:count], self._norms[:, :count], self._scratch)

    def tiles(self) -> list[tuple[int, int]]:
        """(start, stop) ranges of at most one tile covering the drawn block."""
        return _tiles(self.count)

    def values(self, start: int, stop: int) -> np.ndarray:
        """Finished stream values of rows [start, stop), at most one tile.

        Amplitudes for the sphere and zero-mi ensembles, (y, alpha, beta)
        triples for ``param``; a view of the block's buffer.
        """
        rows = self._draws[start:stop]
        self._finish(rows, self._norms[:, start:stop], self._scratch[:, : stop - start])
        return rows.view(self.dtype)

    def amplitudes(self, start: int, stop: int) -> np.ndarray:
        """Amplitudes of rows [start, stop), mapping parameter triples to states."""
        values = self.values(start, stop)
        if self.kind is Ensemble.PARAM:
            return params_to_amplitudes(values[:, 0], values[:, 1], values[:, 2])
        return values


def _take(kind: Ensemble, gen: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` values of ``gen`` as ensemble ``kind``: draw, then finish."""
    block = SampleBlock(kind, n)
    block.draw(gen, n)
    for start, stop in block.tiles():
        block.values(start, stop)
    return block._draws.view(block.dtype)


class StateStream:
    """Incremental sampler over one (master_seed, stream_id) stream.

    A stream object is single-owner: share nothing, create one stream
    per worker.  Splitting a draw into several ``take`` calls returns
    exactly the same values as one combined call.
    """

    def __init__(self, kind: Ensemble, seed: SeedSpec):
        self.kind = Ensemble(kind)
        self.seed = seed
        self._gen = stream_generator(seed)

    def take(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("sample count must be at least 1")
        return _take(self.kind, self._gen, int(n))


def sample_real_sphere(seed: SeedSpec, n: int) -> np.ndarray:
    """n real-amplitude states uniform on the unit sphere in R^4, shape (n, 4)."""
    return StateStream(Ensemble.REAL_S3, seed).take(n)


def sample_complex_sphere(seed: SeedSpec, n: int) -> np.ndarray:
    """n complex-amplitude states uniform on the unit sphere in C^4, shape (n, 4)."""
    return StateStream(Ensemble.COMPLEX_S7, seed).take(n)


def sample_uniform_params(seed: SeedSpec, n: int) -> np.ndarray:
    """n parameter triples (y, alpha, beta), shape (n, 3)."""
    return StateStream(Ensemble.PARAM, seed).take(n)


def sample_zero_mi_family(seed: SeedSpec, n: int) -> np.ndarray:
    """n states with |ad| = |bc| (zero mutual information), shape (n, 4)."""
    return StateStream(Ensemble.ZERO_MI, seed).take(n)


def sample_amplitudes(kind: Ensemble, seed: SeedSpec, n: int) -> np.ndarray:
    """Amplitudes for any ensemble, mapping parameter triples to states."""
    kind = Ensemble(kind)
    draws = StateStream(kind, seed).take(n)
    if kind is Ensemble.PARAM:
        return params_to_amplitudes(draws[:, 0], draws[:, 1], draws[:, 2])
    return draws
