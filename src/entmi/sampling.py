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


def _squared_norm(draws: np.ndarray) -> np.ndarray:
    """Row sums of squares, added in the order ``(draws * draws).sum(axis=1)`` uses.

    numpy adds a row of 4 in sequence, ((x0^2 + x1^2) + x2^2) + x3^2, and a
    row of 8 pairwise, ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)).
    Keeping that order keeps every normalized amplitude bit-identical to
    the row-wise reduction, without its per-row loop overhead.
    """
    if draws.shape[1] == 4:
        cols = [draws[:, k] for k in range(4)]
        acc = np.multiply(cols[0], cols[0])
        scratch = np.empty_like(acc)
        for col in cols[1:]:
            acc += np.multiply(col, col, out=scratch)
        return acc
    squares = draws * draws
    while squares.shape[1] > 1:
        squares = squares[:, 0::2] + squares[:, 1::2]
    return squares[:, 0]


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


def _draw_sphere(gen: np.random.Generator, n: int, width: int) -> np.ndarray:
    draws = gen.standard_normal((n, width))
    norm = np.sqrt(_squared_norm(draws))
    redrawn = _redraw_degenerate(
        gen, draws, _may_be_degenerate(norm, width), [list(range(width))]
    )
    norm[redrawn] = np.sqrt(_squared_norm(draws[redrawn]))
    draws /= norm[:, None]
    return draws


def _draw_real_sphere(gen: np.random.Generator, n: int) -> np.ndarray:
    return _draw_sphere(gen, n, 4)


def _draw_complex_sphere(gen: np.random.Generator, n: int) -> np.ndarray:
    # Columns are (re, im) pairs, so the float64 rows view as 4 complex128.
    return _draw_sphere(gen, n, 8).view(np.complex128)


def _draw_params(gen: np.random.Generator, n: int) -> np.ndarray:
    u = gen.random((n, 3))
    u[:, 1] *= 2.0 * np.pi
    u[:, 2] *= 2.0 * np.pi
    return u


def _draw_zero_mi(gen: np.random.Generator, n: int) -> np.ndarray:
    draws = gen.standard_normal((n, 4))
    p, q, r, s = draws[:, 0], draws[:, 1], draws[:, 2], draws[:, 3]
    left_norm = np.hypot(p, r)
    right_norm = np.hypot(q, s)
    screened = _may_be_degenerate(np.minimum(left_norm, right_norm), 2)
    redrawn = _redraw_degenerate(gen, draws, screened, [[0, 2], [1, 3]])
    left_norm[redrawn] = np.hypot(p[redrawn], r[redrawn])
    right_norm[redrawn] = np.hypot(q[redrawn], s[redrawn])
    p /= left_norm
    r /= left_norm
    q /= right_norm
    s /= right_norm
    out = np.empty_like(draws)
    np.multiply(p, q, out=out[:, 0])
    np.multiply(p, s, out=out[:, 1])
    np.multiply(r, q, out=out[:, 2])
    np.negative(np.multiply(r, s, out=out[:, 3]), out=out[:, 3])
    return out


_DRAWERS = {
    Ensemble.REAL_S3: _draw_real_sphere,
    Ensemble.COMPLEX_S7: _draw_complex_sphere,
    Ensemble.PARAM: _draw_params,
    Ensemble.ZERO_MI: _draw_zero_mi,
}


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
        self._drawer = _DRAWERS[self.kind]

    def take(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("sample count must be at least 1")
        return self._drawer(self._gen, int(n))


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
