"""Parallel sampling jobs built from fixed-size RNG blocks.

Work is split into blocks of ``BLOCK_SIZE`` samples; block ``j`` of a
job is always drawn from stream ``base_stream + j`` of the job's master
seed.  The blocks are dealt round-robin into one share per worker, and
each worker reduces its whole share to one partial result (a histogram,
or a violation count and the worst excess) before sending it back, so
the parent receives ``workers`` results however many blocks the job has.
Partials combine by integer sums and by maxima, which do not depend on
how blocks are grouped or ordered.  Because the block decomposition
depends only on the sample count, results are bit-identical for any
worker count, and a shorter run is a prefix of a longer one with the
same seed.  Within a block, ``SampleBlock.tiles`` yields the states one
cache-sized row tile at a time, and every step (draw, normalize,
concurrence, MI, binning) runs on that tile, on buffers kept for the
worker's share.  A worker's buffers are one tile each, plus one int64 or
float64 array per block: the bin indices or the excess of each sample.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np

from .errors import DomainError
from .histogram import JointHistogram
from .sampling import Ensemble, SampleBlock, SeedSpec, _as_amplitudes, stream_generator
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


def _stream_plan(seed: SeedSpec, n: int, block_size: int) -> list[tuple[int, int]]:
    """The blocks of ``n`` samples as (stream_id, count); block j uses stream_id + j."""
    return [(seed.stream_id + j, count) for j, count in block_plan(n, block_size)]


def _run_tasks(task, head: tuple, plan: list[tuple[int, int]], workers: int):
    """Yield ``task((*head, share))`` for each worker's share of a job's blocks.

    A share is a list of (stream_id, count) blocks from ``plan``; block j
    goes to share j mod shares, so shares differ by at most one block.
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


class _BlockKernel:
    """The (C, I) pairs of one ensemble's blocks, one tile at a time.

    Holds one worker share's buffers, one tile each: a
    :class:`SampleBlock` for the share's blocks, and the probabilities and
    observables.  The block's tile generator draws and finishes each tile
    in turn, consuming the generator exactly as one ``sample_amplitudes``
    call would; every later step (concurrence, probabilities, MI) runs on
    the tile it yields and computes, element for element, what the public
    ``concurrence``, ``probabilities`` and ``mutual_information`` compute
    on the whole block.
    """

    def __init__(self, kind: Ensemble, capacity: int):
        self.block = SampleBlock(kind, capacity)
        tile = self.block.tile_rows
        self._products = np.empty((2, tile), dtype=self.block.dtype)
        self._c = np.empty(tile)
        self._probs = np.empty((4, tile))
        self._info = np.empty((4, tile))
        self._mask = np.empty(tile, dtype=bool)

    def pairs(self, seed: SeedSpec, count: int):
        """Yield (start, stop, c, i) per tile of a block of ``count`` states.

        ``c`` and ``i`` hold the tile's rows [start, stop) of the block
        drawn from ``seed``; their buffers are reused by the next tile.
        """
        for start, stop, values in self.block.tiles(stream_generator(seed), count):
            size = stop - start
            amplitudes = _as_amplitudes(self.block.kind, values)
            c = _concurrence_into(amplitudes, self._c[:size], self._products[:, :size])
            probs = _probabilities_into(
                amplitudes, self._probs[:, :size], self._info[0, :size]
            )
            i = _mutual_information_into(probs, self._info[:, :size], self._mask[:size])
            yield start, stop, c, i


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
    plan = _stream_plan(SeedSpec(master_seed, base_stream), n, block_size)
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


def _excess_share(args) -> tuple[int, float]:
    make_excess, master_seed, blocks = args
    excess_of = make_excess(max(count for _, count in blocks))
    violations = 0
    worst = 0.0
    for stream_id, count in blocks:
        excess = excess_of(SeedSpec(master_seed, stream_id), count)
        violations += int(np.count_nonzero(excess > 0.0))
        worst = max(worst, float(excess.max()))
    return violations, worst


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

    Returns (violations, max_excess) where max_excess is the largest
    excess of any sample, clipped at zero when there are no violations.
    """
    plan = _stream_plan(seed, n, block_size)
    workers = resolve_workers(workers)
    head = (make_excess, seed.master_seed)
    violations = 0
    max_excess = 0.0
    for bad, excess in _run_tasks(_excess_share, head, plan, workers):
        violations += bad
        max_excess = max(max_excess, excess)
    return violations, max_excess


def tile_excess(kind: Ensemble, excess_of_pairs, capacity: int):
    """A ``make_excess`` for :func:`scan_excess` over ensemble ``kind``.

    ``excess_of_pairs(c, i, out, scratch, mask)`` writes the excess of
    each (C, I) pair of a tile into ``out``; it may overwrite ``c``, and
    ``scratch`` and ``mask`` are a float64 and a boolean array of the
    tile's length.  All of them are buffers kept for the worker share.
    Bind ``kind`` and ``excess_of_pairs`` with ``functools.partial``.
    """
    kernel = _BlockKernel(Ensemble(kind), capacity)
    excess = np.empty(capacity)
    scratch = np.empty(kernel.block.tile_rows)
    mask = np.empty(kernel.block.tile_rows, dtype=bool)

    def excess_of(seed: SeedSpec, count: int) -> np.ndarray:
        for start, stop, c, i in kernel.pairs(seed, count):
            size = stop - start
            excess_of_pairs(c, i, excess[start:stop], scratch[:size], mask[:size])
        return excess[:count]

    return excess_of
