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
row tile at a time, on buffers kept for the worker's share, and each
tile's (C, I) pairs go to the scan's consumers.  A histogram bins them
into an int64 array of bin indices for its block and counts it once per
block; a check reduces them to a violation count and the worst excess.
Consumers whose blocks come from the same stream share each tile's draw,
as wide as the widest of their ensembles, and the consumers of one
ensemble share its normalization and (C, I) pairs.  A block whose rows
may hold a degenerate state is recomputed alone for the consumers of that
ensemble, so every result is the one the consumer gives alone.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .histogram import JointHistogram
from .sampling import _LAYOUTS, _TILE_ROWS, Ensemble, SampleBlock, SeedSpec
from .sampling import _Layout, _as_amplitudes, _tiles, stream_generator
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
    """One tile's buffers for the (C, I) pairs of amplitude rows.

    ``dtype`` is that of the widest amplitudes taken: real rows use a
    float64 view of complex buffers.  ``probs``, ``info`` and ``mask`` are
    free again once :meth:`pairs` has returned its ``i``.
    """

    def __init__(self, rows: int, dtype):
        self._products = np.empty((2, rows), dtype=dtype)
        self._c = np.empty(rows)
        self.probs = np.empty((4, rows))
        self.info = np.empty((4, rows))
        self.mask = np.empty(rows, dtype=bool)

    def pairs(self, amplitudes: np.ndarray):
        """(c, i) of the (size, 4) ``amplitudes``, in these buffers.

        Computes, element for element, what the public ``concurrence``,
        ``probabilities`` and ``mutual_information`` compute.
        """
        size = len(amplitudes)
        products = self._products
        if products.dtype != amplitudes.dtype:
            products = products.view(amplitudes.dtype)
        c = _concurrence_into(amplitudes, self._c[:size], products[:, :size])
        probs = _probabilities_into(amplitudes, self.probs[:, :size], self.info[0, :size])
        return c, _mutual_information_into(probs, self.info[:, :size], self.mask[:size])


class TileCheck(NamedTuple):
    """A check on the (C, I) pairs of ensemble ``kind``, one tile at a time.

    ``excess_of_pairs(c, i, out, scratch, mask)`` writes the excess of
    each (C, I) pair of a tile into ``out``; it may overwrite ``c`` but not
    ``i``, and ``scratch`` and ``mask`` are a float64 and a boolean array
    of the tile's length.  All of them are buffers kept for the worker
    share.  Called with a capacity, it is the check's ``make_excess`` run
    alone; see :func:`tile_excess`.
    """

    kind: str
    excess_of_pairs: Callable

    def __call__(self, capacity: int):
        return tile_excess(self.kind, self.excess_of_pairs, capacity)


class TileHistogram(NamedTuple):
    """The joint histogram of ensemble ``kind``'s (C, I) pairs, for :func:`scan_checks`."""

    kind: str
    delta_c: float
    delta_i: float


class StreamCheck(NamedTuple):
    """A check that draws its own samples, one tile at a time.

    ``make(rows, shared)`` returns ``excess_of(gen, out)``, which draws the
    next ``len(out) <= rows`` samples from ``gen`` and writes their excess
    into ``out``; it may use the ``probs``, ``info`` and ``mask`` of
    ``shared``, the share's :class:`_Observables`.  Called with a capacity,
    it is the check's ``make_excess`` run alone.
    """

    make: Callable

    def __call__(self, capacity: int):
        rows = min(capacity, _TILE_ROWS)
        excess_of_tile = self.make(rows, _Observables(rows, np.float64))
        excess = np.empty(capacity)

        def excess_of(seed: SeedSpec, count: int) -> np.ndarray:
            gen = stream_generator(seed)
            for start, stop in _tiles(count):
                excess_of_tile(gen, excess[start:stop])
            return excess[:count]

        return excess_of


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


# A consumer's share of a scan: ``start(count)`` (re)starts a block of
# ``count`` states; ``tile(start, c, i, spare, mask)`` takes the pairs of its
# rows from ``start`` on, with three spare float64 rows and a mask, and may
# overwrite ``c``; ``end()`` adds the block to ``result``.


class _Excess:
    """A check's (violations, worst) over the share, and on one block.

    :meth:`tile` reduces a :class:`TileCheck`'s tiles, keeping their excess
    in ``record`` if given; a :class:`StreamCheck` tallies ``block`` itself.
    """

    def __init__(self, excess_of_pairs=None, record=None):
        self.excess_of_pairs, self.record = excess_of_pairs, record
        self.result, self.block = (0, 0.0), [0, 0.0]

    def start(self, count: int) -> None:
        self.block = [0, 0.0]

    def tile(self, start, c, i, spare, mask) -> None:
        out = spare[0] if self.record is None else self.record[start : start + len(c)]
        self.excess_of_pairs(c, i, out, spare[1], mask)
        _tally(self.block, out)

    def end(self) -> None:
        self.result = _combine(self.result, self.block)


class _Bins:
    """A :class:`TileHistogram`'s share: its histogram, and one block's flat bin indices.

    A block's indices are counted with one ``bincount``: on a fine grid,
    each call allocates an int64 array of the grid's size.
    """

    def __init__(self, spec: TileHistogram, capacity: int, rows: int):
        self.result = JointHistogram(spec.delta_c, spec.delta_i)
        self.flat = np.empty(capacity, dtype=np.int64)
        self.scratch = np.empty(rows, dtype=np.int64)

    def start(self, count: int) -> None:
        self.count = count

    def tile(self, start, c, i, spare, mask) -> None:
        flat = self.flat[start : start + len(c)]
        self.result._flat_bins(c, i, flat, self.scratch[: len(c)], spare[0])

    def end(self) -> None:
        self.result._add_flat(self.flat[: self.count])


def _feed(shared: _Observables, parts: list, start: int, amplitudes) -> None:
    """Compute a tile's (C, I) pairs once and hand them to each of ``parts``.

    Every part but the last gets a copy of ``c``.  The spare rows are those
    of ``shared.probs``, free once the pairs are computed.
    """
    c, i = shared.pairs(amplitudes)
    spare, mask = shared.probs[:, : len(c)], shared.mask[: len(c)]
    for part in parts[:-1]:
        spare[3] = c
        part.tile(start, spare[3], i, spare[:3], mask)
    parts[-1].tile(start, c, i, spare[:3], mask)


def _block_alone(block: SampleBlock, seed: SeedSpec, count: int, shared, parts) -> None:
    """Feed ``parts`` a block of ``count`` states drawn from ``seed`` alone."""
    for start, _, values in block.tiles(stream_generator(seed), count):
        _feed(shared, parts, start, _as_amplitudes(block.kind, values))


def tile_excess(kind: Ensemble, excess_of_pairs, capacity: int):
    """A :class:`TileCheck` run alone, as ``excess_of(seed, count)``.

    That returns the excess of each state of the block of ``count <=
    capacity`` drawn from ``seed``, in a buffer that the next block reuses.
    """
    block = SampleBlock(Ensemble(kind), capacity)
    shared = _Observables(block.tile_rows, block.dtype)
    part = _Excess(excess_of_pairs, np.empty(capacity))

    def excess_of(seed: SeedSpec, count: int) -> np.ndarray:
        _block_alone(block, seed, count, shared, [part])
        return part.record[:count]

    return excess_of


class _Kind(NamedTuple):
    """The consumers of one ensemble on one stream."""

    kind: Ensemble
    layout: _Layout
    parts: list


class _ShareScan:
    """The consumers of one scan, on one worker share's tile buffers.

    Consumers of equal seeds and fill steps share a fill: a (rows, 8) fill
    holds the rows of two (rows, 4) tiles of the same stream.  Each
    ensemble but the widest, last, copies its rows into one work tile.
    """

    def __init__(self, checks, capacity: int):
        self.rows = min(capacity, _TILE_ROWS)
        tiled = [c for c, _ in checks if not isinstance(c, StreamCheck)]
        dtypes = [_LAYOUTS[Ensemble(check.kind)].dtype for check in tiled]
        self.shared = _Observables(self.rows, np.result_type(np.float64, *dtypes))
        self.seeds, self.parts, self.own, groups = [seed for _, seed in checks], [], {}, {}
        for check, seed in checks:
            if isinstance(check, StreamCheck):
                self.own[len(self.parts)] = check.make(self.rows, self.shared)
                self.parts.append(_Excess())
                continue
            kind = Ensemble(check.kind)
            part = (_Bins(check, capacity, self.rows) if isinstance(check, TileHistogram)
                    else _Excess(check.excess_of_pairs))
            self.parts.append(part)
            kinds = groups.setdefault((seed, _LAYOUTS[kind].fill), {})
            kinds.setdefault(kind, _Kind(kind, _LAYOUTS[kind], [])).parts.append(part)
        self.groups = {key: sorted(kinds.values(), key=lambda sub: sub.layout.width)
                       for key, kinds in groups.items()}
        layouts = [sub.layout for kinds in self.groups.values() for sub in kinds]
        copied = [sub.layout.width for kinds in self.groups.values() for sub in kinds[:-1]]
        self.fill = np.empty(self.rows * max((lay.width for lay in layouts), default=0))
        self.work = np.empty(self.rows * max(copied, default=0))
        self.norms = np.empty((max((lay.norms for lay in layouts), default=0), self.rows))
        self.scratch, self.excess = np.empty((3, self.rows)), np.empty(self.rows)

    def block(self, index: int, count: int) -> None:
        """Add block ``index`` of ``count`` samples to each consumer's result."""
        for part in self.parts:
            part.start(count)
        for (seed, fill), kinds in self.groups.items():
            self._scan_group(fill, kinds, _block_seed(seed, index), count)
        for k, excess_of in self.own.items():
            gen = stream_generator(_block_seed(self.seeds[k], index))
            for start, stop in _tiles(count):
                _tally(self.parts[k].block, excess_of(gen, self.excess[: stop - start]))
        for part in self.parts:
            part.end()

    def _scan_group(self, fill, kinds: list, seed: SeedSpec, count: int) -> None:
        wide = kinds[-1].layout.width
        gen = stream_generator(seed)
        live = list(kinds)
        for start, stop in _tiles(count):
            drawn = self.fill[: (stop - start) * wide].reshape(-1, wide)
            fill(gen, drawn)
            for sub in list(live):
                first = start * wide // sub.layout.width
                rows = drawn.reshape(-1, sub.layout.width)[: max(count - first, 0)]
                for lo in range(0, len(rows), self.rows):
                    tile = rows[lo : lo + self.rows]
                    if not self._tile(sub, first + lo, tile, sub is kinds[-1]):
                        # Recompute the block as its consumers alone compute it.
                        live.remove(sub)
                        for part in sub.parts:
                            part.start(count)
                        block = SampleBlock(sub.kind, count)
                        _block_alone(block, seed, count, self.shared, sub.parts)
                        break

    def _tile(self, sub: _Kind, start: int, drawn: np.ndarray, in_place: bool) -> bool:
        """Feed one tile of drawn rows to ``sub``; False if one may be degenerate."""
        layout, size = sub.layout, len(drawn)
        draws = drawn if in_place else self.work[: drawn.size].reshape(drawn.shape)
        if not in_place:
            draws[...] = drawn
        # The ensemble's screen and finish steps, as SampleBlock.tiles runs them.
        norms, scratch = self.norms[:, :size], self.scratch[:, :size]
        if layout.screen(draws, norms, scratch).size:
            return False
        layout.finish(draws, norms, scratch)
        amplitudes = _as_amplitudes(sub.kind, draws.view(layout.dtype))
        _feed(self.shared, sub.parts, start, amplitudes)
        return True


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
    block ``j`` of a consumer uses stream ``seed.stream_id + j``.  Consumers
    of equal seeds share their draws, and a block whose rows may hold a
    degenerate state is recomputed as its consumers alone compute it, so
    every result is the one the consumer gives alone.  With more than one
    worker, consumers are pickled: their functions must be module-level
    functions or ``functools.partial`` s of them.

    A check's result is (violations, max_excess): every excess that is not
    ``<= 0``, NaN included, is a violation, and max_excess is the largest
    finite excess, clipped at zero.  A histogram's is a
    :class:`JointHistogram`, whose grid is allocated before any pool starts.
    """
    checks, plan = list(checks), block_plan(n, block_size)
    workers = resolve_workers(workers)
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
    count and the seed are checked before the grid or a pool exists.
    """
    histogram = TileHistogram(Ensemble(kind).value, delta_c, delta_i)
    seed = SeedSpec(master_seed, base_stream)
    return scan_checks([(histogram, seed)], n, workers, block_size)[0]
