"""Parallel sampling jobs built from fixed-size RNG blocks.

Work is split into blocks of ``BLOCK_SIZE`` samples; block ``j`` of a
job is always drawn from stream ``base_stream + j`` of the job's master
seed.  The blocks are dealt round-robin into one share per worker, and
each worker reduces its whole share to one partial result (a histogram,
or a violation count and the worst excess per check) before sending it
back, so the parent receives ``workers`` results however many blocks the
job has.  Partials combine by integer sums and by maxima, which do not
depend on how blocks are grouped or ordered.  Because the block
decomposition depends only on the sample count, results are bit-identical
for any worker count, and a shorter run is a prefix of a longer one with
the same seed.  Within a block, every step (draw, normalize, concurrence,
MI, binning or excess) runs on one cache-sized row tile at a time, on
buffers kept for the worker's share; a histogram also keeps one int64
array of bin indices per block.

:func:`scan_checks` runs several sampled checks as one job: one pool, one
pass over the block plan.  Checks whose blocks come from the same stream
share its draws: each tile is drawn once, as wide as the widest of their
ensembles, and every check reads its rows from it and reduces them to a
violation count and the worst excess.  A check whose rows may hold a
degenerate state gets that block recomputed alone, so every result is the
one the check gives alone.
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
from .sampling import _as_amplitudes, _tiles, stream_generator
from .states import _concurrence_into, _mutual_information_into, _probabilities_into

BLOCK_SIZE = 250_000


def block_plan(n: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """(block_index, count) pairs covering ``n`` samples."""
    if n < 1:
        raise DomainError("sample count must be at least 1")
    if block_size < 1:
        raise DomainError("block size must be at least 1")
    plan = []
    done = 0
    index = 0
    while done < n:
        take = min(block_size, n - done)
        plan.append((index, take))
        done += take
        index += 1
    return plan


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if workers < 1:
        raise DomainError("worker count must be at least 1")
    return int(workers)


def _block_seed(seed: SeedSpec, index: int) -> SeedSpec:
    """The stream of block ``index`` of a job whose block 0 uses ``seed``."""
    return SeedSpec(seed.master_seed, seed.stream_id + index)


def _run_tasks(task, head: tuple, plan: list[tuple[int, int]], workers: int):
    """Yield ``task((*head, share))`` for each worker's share of a job's blocks.

    A share is a list of (block_index, count) blocks from ``plan``; block
    j goes to share j mod shares, so shares differ by at most one block.
    Callers reduce the partials with commutative operations, in whatever
    order they arrive.
    """
    parts = min(workers, len(plan))
    args_list = [(*head, plan[w::parts]) for w in range(parts)]
    if parts == 1:
        yield task(args_list[0])
        return
    with multiprocessing.Pool(processes=parts) as pool:
        yield from pool.imap_unordered(task, args_list)


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


class _BlockKernel:
    """The (C, I) pairs of one ensemble's blocks, one tile at a time.

    Holds one worker share's buffers, one tile each: a :class:`SampleBlock`
    for the share's blocks and its :class:`_Observables`.  The block's tile
    generator draws and finishes each tile in turn, consuming the generator
    exactly as one ``sample_amplitudes`` call would.
    """

    def __init__(self, kind: Ensemble, capacity: int):
        self.block = SampleBlock(kind, capacity)
        self.observables = _Observables(self.block.tile_rows, self.block.dtype)

    def pairs(self, seed: SeedSpec, count: int):
        """Yield (start, stop, c, i) per tile of a block of ``count`` states.

        ``c`` and ``i`` hold the tile's rows [start, stop) of the block
        drawn from ``seed``; their buffers are reused by the next tile.
        """
        for start, stop, values in self.block.tiles(stream_generator(seed), count):
            amplitudes = _as_amplitudes(self.block.kind, values)
            yield start, stop, *self.observables.pairs(amplitudes)


def _histogram_share(args) -> np.ndarray:
    kind, master_seed, delta_c, delta_i, blocks = args
    local = JointHistogram(delta_c, delta_i)
    capacity = max(count for _, count in blocks)
    kernel = _BlockKernel(Ensemble(kind), capacity)
    flat = np.empty(capacity, dtype=np.int64)
    scratch = np.empty(kernel.block.tile_rows, dtype=np.int64)
    for stream_id, count in blocks:
        for start, stop, c, i in kernel.pairs(SeedSpec(master_seed, stream_id), count):
            local._flat_bins(c, i, flat[start:stop], scratch[: stop - start])
        local._add_flat(flat[:count])
    return local.counts


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
    """Sample ``n`` states and histogram their (C, I) pairs.

    Deterministic in (kind, n, master_seed, deltas, base_stream,
    block_size); the worker count only affects wall time.  The sample
    count and the seed are checked before the grid or a pool exists.
    """
    seed = SeedSpec(master_seed, base_stream)
    plan = [(seed.stream_id + j, count) for j, count in block_plan(n, block_size)]
    workers = resolve_workers(workers)
    kind = Ensemble(kind)
    out = JointHistogram(delta_c, delta_i)
    head = (kind.value, master_seed, delta_c, delta_i)
    # The first partial becomes the grid, so a fine grid is not held twice;
    # integer sums do not depend on the order.
    partials = _run_tasks(_histogram_share, head, plan, workers)
    out.counts = next(partials)
    for counts in partials:
        out.counts += counts
    out.total = n
    return out


def tile_excess(kind: Ensemble, excess_of_pairs, capacity: int):
    """A ``make_excess`` for :func:`scan_excess` over ensemble ``kind``.

    ``excess_of_pairs(c, i, out, scratch, mask)`` writes the excess of
    each (C, I) pair of a tile into ``out``; it may overwrite ``c``, and
    ``scratch`` and ``mask`` are a float64 and a boolean array of the
    tile's length.  All of them are buffers kept for the worker share.
    Bind ``kind`` and ``excess_of_pairs`` with ``functools.partial``, or
    use :class:`TileCheck`.
    """
    kernel = _BlockKernel(Ensemble(kind), capacity)
    excess = np.empty(capacity)
    scratch = np.empty(kernel.block.tile_rows)

    def excess_of(seed: SeedSpec, count: int) -> np.ndarray:
        for start, stop, c, i in kernel.pairs(seed, count):
            size = stop - start
            mask = kernel.observables.mask[:size]
            excess_of_pairs(c, i, excess[start:stop], scratch[:size], mask)
        return excess[:count]

    return excess_of


class TileCheck(NamedTuple):
    """A check on the (C, I) pairs of ensemble ``kind``; see :func:`tile_excess`.

    Called with a capacity, it is the check's ``make_excess`` run alone.
    """

    kind: str
    excess_of_pairs: Callable

    def __call__(self, capacity: int):
        return tile_excess(self.kind, self.excess_of_pairs, capacity)


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


def _merge(totals: list, tallies) -> None:
    """Add (violations, worst) pairs to running [violations, worst] totals."""
    for total, (violations, worst) in zip(totals, tallies):
        total[0] += violations
        total[1] = max(total[1], worst)


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


class _ShareScan:
    """The (check, seed) pairs of one scan, on one worker share's tile buffers.

    The :class:`TileCheck` s whose blocks come from equal seeds and the same
    fill step share one fill per tile, as wide as their widest ensemble (4
    or 8 normals): a (rows, 8) tile holds the rows of two (rows, 4) tiles
    of the same stream.  Each check copies its rows into one work tile, but
    the widest, last, uses the filled tile.  All use the same buffers in turn.
    """

    def __init__(self, checks, capacity: int):
        self.checks, self.rows = checks, min(capacity, _TILE_ROWS)
        # [violations, worst] of each check: over the share, and on one block.
        self.totals = [[0, 0.0] for _ in checks]
        self.tallies = [[0, 0.0] for _ in checks]
        self.layouts = {
            k: _LAYOUTS[Ensemble(check.kind)]
            for k, (check, _) in enumerate(checks)
            if isinstance(check, TileCheck)
        }
        self.groups = {}
        for k in sorted(self.layouts, key=lambda k: self.layouts[k].width):
            self.groups.setdefault((checks[k][1], self.layouts[k].fill), []).append(k)
        layouts = self.layouts.values()
        copied = [self.layouts[k].width for group in self.groups.values() for k in group[:-1]]
        self.fill = np.empty(self.rows * max((lay.width for lay in layouts), default=0))
        self.work = np.empty(self.rows * max(copied, default=0))
        self.norms = np.empty((max((lay.norms for lay in layouts), default=0), self.rows))
        self.scratch, self.excess = np.empty((3, self.rows)), np.empty(self.rows)
        dtypes = [layout.dtype for layout in layouts]
        self.shared = _Observables(self.rows, np.result_type(np.float64, *dtypes))
        self.own = {
            k: check.make(self.rows, self.shared) if isinstance(check, StreamCheck)
            else check(capacity)
            for k, (check, _) in enumerate(checks)
            if k not in self.layouts
        }

    def block(self, index: int, count: int) -> None:
        """Add each check's block ``index`` of ``count`` samples to its total."""
        self.tallies = [[0, 0.0] for _ in self.checks]
        for (seed, draw), group in self.groups.items():
            self._scan_group(draw, group, _block_seed(seed, index), count)
        for k, own in self.own.items():
            seed = _block_seed(self.checks[k][1], index)
            if not isinstance(self.checks[k][0], StreamCheck):
                _tally(self.tallies[k], own(seed, count))
                continue
            gen = stream_generator(seed)
            for start, stop in _tiles(count):
                _tally(self.tallies[k], own(gen, self.excess[: stop - start]))
        _merge(self.totals, self.tallies)

    def _scan_group(self, draw, group: list, seed: SeedSpec, count: int) -> None:
        wide = self.layouts[group[-1]].width
        gen = stream_generator(seed)
        live = list(group)
        for start, stop in _tiles(count):
            drawn = self.fill[: (stop - start) * wide].reshape(-1, wide)
            draw(gen, drawn)
            for k in list(live):
                width = self.layouts[k].width
                rows = drawn.reshape(-1, width)[: max(count - start * wide // width, 0)]
                for lo in range(0, len(rows), self.rows):
                    if not self._judge(k, rows[lo : lo + self.rows], k == group[-1]):
                        # Recompute the block as the check alone computes it.
                        live.remove(k)
                        self.tallies[k] = [0, 0.0]
                        _tally(self.tallies[k], self.checks[k][0](count)(seed, count))
                        break

    def _judge(self, k: int, drawn: np.ndarray, in_place: bool) -> bool:
        """Judge one tile of check ``k``'s drawn rows; False if one may be degenerate."""
        check, layout, size = self.checks[k][0], self.layouts[k], len(drawn)
        draws = drawn if in_place else self.work[: drawn.size].reshape(drawn.shape)
        if not in_place:
            draws[...] = drawn
        # The ensemble's screen and finish steps, as SampleBlock.tiles runs them.
        norms, scratch = self.norms[:, :size], self.scratch[:, :size]
        if layout.screen(draws, norms, scratch).size:
            return False
        layout.finish(draws, norms, scratch)
        amplitudes = _as_amplitudes(Ensemble(check.kind), draws.view(layout.dtype))
        c, i = self.shared.pairs(amplitudes)
        excess = self.excess[:size]
        check.excess_of_pairs(c, i, excess, scratch[0], self.shared.mask[:size])
        _tally(self.tallies[k], excess)
        return True


def _scan_share(args) -> list[list]:
    checks, blocks = args
    scan = _ShareScan(checks, max(count for _, count in blocks))
    for index, count in blocks:
        scan.block(index, count)
    return scan.totals


def scan_checks(
    checks, n: int, workers: int | None = None, block_size: int = BLOCK_SIZE
) -> list[tuple[int, float]]:
    """Scan several ``n``-sample checks in one pass over one block plan.

    ``checks`` are (check, seed) pairs, a check being a :class:`TileCheck`,
    a :class:`StreamCheck` or a ``make_excess`` (see :func:`scan_excess`);
    block ``j`` of a check uses stream ``seed.stream_id + j``.  Tile checks
    of equal seeds share their draws, and a block whose rows may hold a
    degenerate state is recomputed as the check alone computes it, so
    every result is that of :func:`scan_excess` on the check alone.
    """
    checks, plan = list(checks), block_plan(n, block_size)
    workers = resolve_workers(workers)
    totals = [[0, 0.0] for _ in checks]
    if checks:
        for share in _run_tasks(_scan_share, (checks,), plan, workers):
            _merge(totals, share)
    return [tuple(total) for total in totals]


def scan_excess(
    make_excess,
    n: int,
    seed: SeedSpec,
    workers: int | None = None,
    block_size: int = BLOCK_SIZE,
) -> tuple[int, float]:
    """Count the samples of an ``n``-sample check whose excess is positive.

    ``make_excess(capacity)`` is called once per worker share and returns
    ``excess_of(seed, count)``, which draws one block of ``count <=
    capacity`` samples from ``seed`` and returns each sample's excess over
    the check's tolerance.  Block ``j`` uses stream ``seed.stream_id + j``.
    With more than one worker ``make_excess`` is pickled, so it must be a
    module-level function or a ``functools.partial`` of one.

    Returns (violations, max_excess): every excess that is not ``<= 0``,
    NaN included, is a violation, and max_excess is the largest finite
    excess of any sample, clipped at zero.
    """
    return scan_checks([(make_excess, seed)], n, workers, block_size)[0]
