"""Parallel sampling jobs built from fixed-size RNG blocks.

Work is split into blocks of ``BLOCK_SIZE`` samples; block ``j`` of a
job is always drawn from stream ``base_stream + j`` of the job's master
seed.  The blocks are dealt round-robin into one share per worker, and
each worker reduces its share to one partial result per consumer before
sending it back.  Partials combine by integer sums and by maxima, which
do not depend on how blocks are grouped or ordered, so results are
bit-identical for any worker count, and a shorter run is a prefix of a
longer one with the same seed.

Every sampled job is one :func:`scan_checks`: one pool, one pass over the
block plan.  Each block is drawn, normalized and reduced one cache-sized
row tile at a time, in tile memory the worker's share allocates once,
and each tile's (C, I) pairs go to the scan's consumers.  A histogram
bins each tile and counts its bins straight into its grid; a check
tallies each tile's violations and worst excess into its result.
Consumers whose blocks come from the same stream share each tile's draw,
as wide as the widest of their ensembles, and the consumers of one
ensemble share its normalization and (C, I) pairs.  A drawn state too
close to zero to normalize raises ``ConsistencyError``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .histogram import JointHistogram
from .sampling import _LAYOUTS, _TILE_ROWS, Ensemble, SeedSpec, _Layout, _as_amplitudes
from .sampling import _screen_and_finish, _tiles, stream_generator
from .states import _concurrence_into, _mutual_information_into, _probabilities_into

BLOCK_SIZE = 250_000


def block_plan(n: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """(block_index, count) pairs covering ``n`` samples."""
    if n < 1:
        raise DomainError("sample count must be at least 1")
    if block_size < 1:
        raise DomainError("block size must be at least 1")
    starts = range(0, n, block_size)
    return [(index, min(block_size, n - start)) for index, start in enumerate(starts)]


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if workers < 1:
        raise DomainError("worker count must be at least 1")
    return int(workers)


def _block_seed(seed: SeedSpec, index: int) -> SeedSpec:
    """The stream of block ``index`` of a job whose block 0 uses ``seed``."""
    return SeedSpec(seed.master_seed, seed.stream_id + index)


def _run_shares(checks: list, plan: list[tuple[int, int]], workers: int):
    """Yield the partial results of each worker's share of a scan's blocks.

    Block j of ``plan`` goes to share j mod shares, so shares differ by at
    most one block.  The partials arrive in any order.
    """
    parts = min(workers, len(plan))
    shares = [(checks, plan[w::parts]) for w in range(parts)]
    if parts == 1:
        yield _scan_share(shares[0])
        return
    with multiprocessing.Pool(processes=parts) as pool:
        yield from pool.imap_unordered(_scan_share, shares)


class _Observables:
    """A worker share's tile memory, allocated once: every step of a tile works in it.

    ``fill`` takes a tile's draws and ``work`` a copy of the rows of an
    ensemble narrower than the fill's widest; ``c``, ``probs``, ``info``
    and ``mask`` take the tile's (C, I) pairs.  The other buffers of a tile
    borrow rows that are idle at their step: screen and finish keep their
    norms in ``probs`` and their three scratch rows in ``info``, both
    written only after finish; the concurrence's products are a (2, rows)
    view of ``info`` in the amplitudes' dtype, free until the MI.
    ``probs``, ``info`` and ``mask`` are free again once :meth:`pairs` has
    returned its ``i``, and every buffer is once a block's tiles have been
    fed: the scan then lends them to its :class:`StreamCheck` s.
    """

    def __init__(self, rows: int, fill: int, work: int):
        self.fill, self.work = np.empty(rows * fill), np.empty(rows * work)
        self.c = np.empty(rows)
        self.probs = np.empty((4, rows))
        self.info = np.empty((4, rows))
        self.mask = np.empty(rows, dtype=bool)

    def pairs(self, amplitudes: np.ndarray):
        """(c, i) of the (size, 4) ``amplitudes``, in these buffers.

        Computes, element for element, what the public ``concurrence``,
        ``probabilities`` and ``mutual_information`` compute.
        """
        size, rows = len(amplitudes), len(self.c)
        products = self.info.reshape(-1).view(amplitudes.dtype)[: 2 * rows].reshape(2, rows)
        c = _concurrence_into(amplitudes, self.c[:size], products[:, :size])
        probs = _probabilities_into(amplitudes, self.probs[:, :size], self.info[0, :size])
        return c, _mutual_information_into(probs, self.info[:, :size], self.mask[:size])


class TileCheck(NamedTuple):
    """A check on the (C, I) pairs of ensemble ``kind``, one tile at a time.

    ``excess_of_pairs(c, i, out, scratch, mask)`` writes the excess of
    each (C, I) pair of a tile into ``out``; it may overwrite ``c`` but not
    ``i``, and ``scratch`` and ``mask`` are a float64 and a boolean array
    of the tile's length.  All of them are buffers kept for the worker
    share.  A consumer of :func:`scan_checks`, the only way to run it.
    """

    kind: str
    excess_of_pairs: Callable


class TileHistogram(NamedTuple):
    """The joint histogram of ensemble ``kind``'s (C, I) pairs, for :func:`scan_checks`."""

    kind: str
    delta_c: float
    delta_i: float


# Floats per row of the fill and of the work tile that a StreamCheck may use.
_STREAM_WIDTH = 4


class StreamCheck(NamedTuple):
    """A check that draws its own samples, one tile at a time.

    ``make(rows, shared)`` is called once per worker share and returns
    ``excess_of(gen, out)``, which draws the next ``len(out) <= rows``
    samples from ``gen``, writes their excess into ``out`` and returns it.
    It may use any row of ``shared``, the share's :class:`_Observables`,
    all idle while the scan runs a block's stream checks: ``out`` is a
    view of its ``c``, and its ``fill`` and ``work`` hold at least
    ``_STREAM_WIDTH * rows`` floats each.  A consumer of :func:`scan_checks`.
    """

    make: Callable


def _tally(total: list, excess: np.ndarray) -> None:
    """Add the samples' ``excess`` to a check's [violations, worst].

    Every excess that is not ``<= 0``, NaN included, is a violation;
    ``worst`` stays the largest finite excess, and at least 0.0.
    """
    worst = float(excess.max())
    if not math.isfinite(worst):
        worst = float(np.max(excess, where=np.isfinite(excess), initial=0.0))
    total[0] += excess.size - int(np.count_nonzero(excess <= 0.0))
    total[1] = max(total[1], worst)


def _combine(total, part):
    """Two partial results of one consumer, combined: counts add, worst excesses max."""
    if not isinstance(total, JointHistogram):
        return total[0] + part[0], max(total[1], part[1])
    if not total.total:
        # The first partial becomes the grid, so a fine grid is not held twice.
        return part
    total.counts += part.counts
    total.total += part.total
    return total


# A consumer's share of a scan: ``tile(c, i, spare, mask)`` takes a tile's
# pairs, with three spare float64 rows and a mask, and may overwrite ``c``;
# the share's partial is ``result``.


class _Excess:
    """A check's [violations, worst] over the share.

    :meth:`tile` tallies a :class:`TileCheck`'s tiles; a
    :class:`StreamCheck`'s tiles are tallied by the scan.
    """

    def __init__(self, excess_of_pairs=None):
        self.excess_of_pairs = excess_of_pairs
        self.result = [0, 0.0]

    def tile(self, c, i, spare, mask) -> None:
        self.excess_of_pairs(c, i, spare[0], spare[1], mask)
        _tally(self.result, spare[0])


class _Bins:
    """A :class:`TileHistogram`'s share: its histogram, counted one tile at a time.

    A tile's flat bin indices are int64 views of two spare rows, counted
    straight into the grid, so the grid is the share's only histogram memory.
    """

    def __init__(self, spec: TileHistogram):
        self.result = JointHistogram(spec.delta_c, spec.delta_i)

    def tile(self, c, i, spare, mask) -> None:
        flat, scratch = spare[1].view(np.int64), spare[2].view(np.int64)
        self.result._add_flat(self.result._flat_bins(c, i, flat, scratch, spare[0]))


def _feed(shared: _Observables, parts: list, amplitudes) -> None:
    """Compute a tile's (C, I) pairs once and hand them to each of ``parts``.

    Every part but the last gets a copy of ``c``.  The spare rows are those
    of ``shared.probs``, free once the pairs are computed.
    """
    c, i = shared.pairs(amplitudes)
    spare, mask = shared.probs[:, : len(c)], shared.mask[: len(c)]
    for part in parts[:-1]:
        spare[3] = c
        part.tile(spare[3], i, spare[:3], mask)
    parts[-1].tile(c, i, spare[:3], mask)


class _Kind(NamedTuple):
    """The consumers of one ensemble on one stream."""

    kind: Ensemble
    layout: _Layout
    parts: list


class _ShareScan:
    """The consumers of one scan, on one worker share's :class:`_Observables`.

    Consumers of equal seeds and fill steps share a fill: a (rows, 8) fill
    holds the rows of two (rows, 4) tiles of the same stream.  Each
    ensemble but the widest, last, copies its rows into the work tile.  The
    fill and the work tile are as wide as the widest of these, and at least
    ``_STREAM_WIDTH`` when a :class:`StreamCheck` borrows them.
    """

    def __init__(self, checks, capacity: int):
        self.rows = min(capacity, _TILE_ROWS)
        self.seeds, self.parts, own, groups = [seed for _, seed in checks], [], {}, {}
        for check, seed in checks:
            if isinstance(check, StreamCheck):
                own[len(self.parts)] = check
                self.parts.append(_Excess())
                continue
            kind = Ensemble(check.kind)
            part = (_Bins(check) if isinstance(check, TileHistogram)
                    else _Excess(check.excess_of_pairs))
            self.parts.append(part)
            kinds = groups.setdefault((seed, _LAYOUTS[kind].fill), {})
            kinds.setdefault(kind, _Kind(kind, _LAYOUTS[kind], [])).parts.append(part)
        self.groups = {key: sorted(kinds.values(), key=lambda sub: sub.layout.width)
                       for key, kinds in groups.items()}
        borrowed = [_STREAM_WIDTH] if own else []
        widths = [sub.layout.width for kinds in self.groups.values() for sub in kinds]
        copied = [sub.layout.width for kinds in self.groups.values() for sub in kinds[:-1]]
        self.shared = _Observables(self.rows, max(widths + borrowed, default=0),
                                   max(copied + borrowed, default=0))
        self.own = {k: check.make(self.rows, self.shared) for k, check in own.items()}

    def block(self, index: int, count: int) -> None:
        """Add block ``index`` of ``count`` samples to each consumer's result."""
        for (seed, fill), kinds in self.groups.items():
            self._scan_group(fill, kinds, _block_seed(seed, index), count)
        for k, excess_of in self.own.items():
            gen = stream_generator(_block_seed(self.seeds[k], index))
            for start, stop in _tiles(count):
                _tally(self.parts[k].result, excess_of(gen, self.shared.c[: stop - start]))

    def _scan_group(self, fill, kinds: list, seed: SeedSpec, count: int) -> None:
        wide = kinds[-1].layout.width
        gen = stream_generator(seed)
        for start, stop in _tiles(count):
            drawn = self.shared.fill[: (stop - start) * wide].reshape(-1, wide)
            fill(gen, drawn)
            for sub in kinds:
                first = start * wide // sub.layout.width
                rows = drawn.reshape(-1, sub.layout.width)[: max(count - first, 0)]
                for lo in range(0, len(rows), self.rows):
                    self._tile(sub, rows[lo : lo + self.rows], sub is kinds[-1])

    def _tile(self, sub: _Kind, drawn: np.ndarray, in_place: bool) -> None:
        """Normalize one tile of drawn rows and feed its (C, I) pairs to ``sub``."""
        layout, size, shared = sub.layout, len(drawn), self.shared
        draws = drawn if in_place else shared.work[: drawn.size].reshape(drawn.shape)
        if not in_place:
            draws[...] = drawn
        norms, scratch = shared.probs[: layout.norms, :size], shared.info[:3, :size]
        _screen_and_finish(layout, draws, norms, scratch)
        amplitudes = _as_amplitudes(sub.kind, draws.view(layout.dtype))
        _feed(shared, sub.parts, amplitudes)


def _scan_share(args) -> list:
    checks, blocks = args
    scan = _ShareScan(checks, max(count for _, count in blocks))
    for index, count in blocks:
        scan.block(index, count)
    return [part.result for part in scan.parts]


def scan_checks(checks, n: int, workers: int | None = None, block_size: int = BLOCK_SIZE):
    """Run several ``n``-sample consumers in one pass over one block plan.

    ``checks`` are (consumer, seed) pairs, a consumer being a
    :class:`TileCheck`, a :class:`StreamCheck` or a :class:`TileHistogram`;
    block ``j`` of a consumer uses stream ``seed.stream_id + j``.  A scan is
    the only way to run a consumer; to run one alone, scan it alone.
    Consumers of equal seeds share their draws, and every result is the one
    a scan of its consumer alone gives.  A drawn state that may lie within
    about 1e-12 of zero raises ``ConsistencyError``.  With more than one
    worker, consumers are pickled: their functions must be module-level
    functions or ``functools.partial`` s of them.

    A check's result is (violations, max_excess): every excess that is not
    ``<= 0``, NaN included, is a violation, and max_excess is the largest
    finite excess, clipped at zero.  A histogram's is a
    :class:`JointHistogram`, whose grid is allocated before any pool starts.
    """
    checks, plan = list(checks), block_plan(n, block_size)
    workers = resolve_workers(workers)
    for _, seed in checks:
        _block_seed(seed, len(plan) - 1)  # the last block's stream must exist too
    results = [JointHistogram(check.delta_c, check.delta_i) if isinstance(check, TileHistogram)
               else (0, 0.0) for check, _ in checks]
    for share in _run_shares(checks, plan, workers) if checks else ():
        results = [_combine(total, part) for total, part in zip(results, share)]
    return results


def run_histogram_job(
    kind: Ensemble,
    n: int,
    master_seed: int,
    delta_c: float,
    delta_i: float,
    workers: int | None = None,
    base_stream: int = 0,
    block_size: int = BLOCK_SIZE,
) -> JointHistogram:
    """Sample ``n`` states and histogram their (C, I) pairs: a scan of one histogram.

    Deterministic in (kind, n, master_seed, deltas, base_stream,
    block_size); the worker count only affects wall time.  The sample
    count and every block's stream are checked before the grid or a pool
    exists.
    """
    histogram = TileHistogram(Ensemble(kind).value, delta_c, delta_i)
    seed = SeedSpec(master_seed, base_stream)
    return scan_checks([(histogram, seed)], n, workers, block_size)[0]
