"""Parallel sampling jobs built from fixed-size RNG blocks.

Work is split into blocks of ``BLOCK_SIZE`` samples; block ``j`` of a
scan is always drawn from stream ``stream_id + j`` of its ``SeedSpec``,
and a histogram job starts at stream 0.  Every sampled job is one
:func:`scan_checks`: one pass over the block plan, whose blocks are
dealt round-robin into one share per worker, each run by a child
process forked for it.  Each block is drawn,
normalized and reduced one cache-sized row tile at a time, in tile memory
the worker's share allocates once.

A consumer spec owns its result: ``empty()`` makes one, ``tile(result,
c, i, spare, mask)`` adds a tile's (C, I) pairs to a share's, and
``merge(total, part)`` folds the shares' partials in the parent, in share
order; a worker that dies first raises ``ChildProcessError``, and a
worker whose parent dies exits before its next block.  Merges are exact
integer sums and maxima, which do not depend on how blocks are grouped
or ordered, so results are bit-identical for any worker count, and a
shorter run is a prefix of a longer one with the same seed.  A scan has
one seed: its consumers share each tile's draw, as wide as the widest of
their ensembles, and the consumers of one ensemble share its
normalization and read-only (C, I) pairs.  A check that needs a sample
of its own runs a scan of its own.  A drawn state too close to zero to
normalize raises ``ConsistencyError``.
"""

from __future__ import annotations

import math
import os
import pickle
from contextlib import closing
from functools import partial
from signal import SIGKILL
from typing import Callable, NamedTuple

import numpy as np

from .histogram import JointHistogram
from .sampling import _LAYOUTS, _TILE_ROWS, Ensemble, SeedSpec, _as_amplitudes
from .sampling import _count, _tiles, stream_generator
from .states import _concurrence_into, _mutual_information_into, _probabilities_into

BLOCK_SIZE = 250_000


def _block_count(n: int, block_size: int) -> int:
    """The number of blocks of ``block_size`` samples that cover ``n``."""
    return -(-_count(n, "sample count") // _count(block_size, "block size"))


def _block_length(n: int, block_size: int, index: int) -> int:
    return min(block_size, n - index * block_size)


def block_plan(n: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """(block_index, count) pairs covering ``n`` samples."""
    blocks = range(_block_count(n, block_size))
    return [(index, _block_length(n, block_size, index)) for index in blocks]


def resolve_workers(workers: int | None) -> int:
    """``workers``, or when None the number of CPUs this process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return max(os.cpu_count() or 1, 1)
    return _count(workers, "worker count")


def _block_seed(seed: SeedSpec, index: int) -> SeedSpec:
    """The stream of block ``index`` of a job whose block 0 uses ``seed``."""
    return SeedSpec(seed.master_seed, int(seed.stream_id) + index)


def _run_shares(scan: Callable, blocks: int, workers: int):
    """Yield ``scan(indices)`` for each worker's share of ``blocks``, in share order.

    Block j goes to share j mod shares, so shares differ by at most one
    block.  Two or more shares run in forked children, all reaped (killed
    first, if still running) when the generator ends or is closed.
    """
    parts = min(workers, blocks)
    shares = [range(w, blocks, parts) for w in range(parts)]
    if parts == 1 or not hasattr(os, "fork"):
        yield from map(scan, shares)
        return
    children = []
    try:
        for share in shares:
            children.append(_fork_share(scan, share))
        for pid, pipe in children:
            try:
                ok, part = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                children.remove((pid, pipe))
                pipe.close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"signal {-status}" if status < 0 else f"exit status {status}"
                raise ChildProcessError(f"worker {pid} died ({how})") from None
            if not ok:
                raise part
            yield part
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _fork_share(scan: Callable, share: range) -> tuple:
    """(pid, pipe) of a child that pickles (True, scan(share)) or (False, error) into ``pipe``."""
    parent, (read, write) = os.getpid(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    code = 1
    try:  # the child: never returns into the caller, nor flushes inherited stdio
        os.close(read)
        try:
            sent = (True, scan(share, parent=parent))
        except BaseException as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            sent = (False, exc)
        with open(write, "wb") as pipe:
            pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _tally(total: list, excess: np.ndarray, mask: np.ndarray) -> None:
    """Add the samples' ``excess`` to a check's [violations, worst].

    Every excess that is not ``<= 0``, NaN included, is a violation;
    ``worst`` stays the largest finite excess, and at least 0.0.  ``mask``
    is a boolean array as long as ``excess``.
    """
    worst = float(excess.max())
    if not math.isfinite(worst):
        worst = float(np.max(excess, where=np.isfinite(excess, out=mask), initial=0.0))
    total[0] += excess.size - int(np.count_nonzero(np.less_equal(excess, 0.0, out=mask)))
    total[1] = max(total[1], worst)


class TileCheck(NamedTuple):
    """A check on the (C, I) pairs of ensemble ``kind``, one tile at a time.

    ``excess_of_pairs(c, i, out, scratch, mask)`` writes the excess of
    each (C, I) pair of a tile, read-only arrays, into ``out``; ``scratch``
    is two float64 rows and ``mask`` a boolean array of the tile's length,
    all buffers kept for the worker share.  As a scan consumer,
    :meth:`tile` tallies excess into an :meth:`empty` [violations, worst],
    and :meth:`merge` adds the counts and takes the maximum.
    """

    kind: str
    excess_of_pairs: Callable

    def empty(self) -> list:
        return [0, 0.0]

    def tile(self, total: list, c, i, spare, mask) -> None:
        self.excess_of_pairs(c, i, spare[0], spare[1:3], mask)
        _tally(total, spare[0], mask)

    def merge(self, total, part) -> tuple:
        return total[0] + part[0], max(total[1], part[1])


class TileHistogram(NamedTuple):
    """The joint histogram of ensemble ``kind``'s (C, I) pairs, for :func:`scan_checks`.

    :meth:`tile` counts a tile's flat bin indices, int64 views of two spare
    rows, straight into an :meth:`empty` grid, a share's only histogram
    memory; :meth:`merge` adds two grids' integer counts.
    """

    kind: str
    delta_c: float
    delta_i: float

    def empty(self) -> JointHistogram:
        return JointHistogram(self.delta_c, self.delta_i)

    def tile(self, total: JointHistogram, c, i, spare, mask) -> None:
        flat, scratch = spare[1].view(np.int64), spare[2].view(np.int64)
        total._add_flat(total._flat_bins(c, i, flat, scratch, spare[0]))

    def merge(self, total: JointHistogram, part: JointHistogram) -> JointHistogram:
        if not total.total:  # the first partial becomes the grid: no fine grid twice
            return part
        total.counts += part.counts
        total.total += part.total
        return total


# Floats per tile row of the fill: a 4-wide ensemble draws a whole tile
# into it and complex-s7 half one.  A StreamCheck may use this many floats
# per row of the fill and of the work tile.
_FILL_WIDTH = 4


class StreamCheck(NamedTuple):
    """A check that draws its own samples, one tile at a time.

    ``make(rows, shared)`` is called once per worker share and returns
    ``excess_of(gen, out)``, which draws the next ``len(out) <= rows``
    samples from ``gen``, writes their excess into ``out`` and returns it.
    It may use any tile memory of ``shared``, its share's :class:`_ShareScan`,
    all idle while the scan runs a block's stream checks: ``out`` is a
    view of its ``c``, and besides its four ``probs`` rows and its
    ``mask``, its ``fill`` and ``work`` hold at least ``_FILL_WIDTH``
    rows of ``rows`` floats each.  A :func:`scan_checks` consumer whose
    tiles the scan tallies, with :class:`TileCheck`'s ``empty`` and ``merge``.
    """

    make: Callable

    empty = TileCheck.empty
    merge = TileCheck.merge


class _ShareScan:
    """The consumers of one scan, and one worker share's tile memory, allocated once.

    Every step of a tile works in that memory.  ``fill`` takes a tile's
    draws, and ``work`` a copy of the rows of an ensemble narrower than
    its group's widest, or param's amplitudes; ``c``, ``probs`` and
    ``mask`` take the tile's concurrences, outcome probabilities and MI
    mask.  Every other buffer of a tile borrows rows idle at its step
    (see :meth:`pairs`).  Every buffer is free once a block's tiles have
    been scanned: the scan then lends them to its :class:`StreamCheck` s.

    Consumers of equal fill steps share a fill.  The fill holds
    ``rows * min(widest, _FILL_WIDTH)`` floats, and at least one row of the
    widest ensemble: a group draws as many rows of its widest per tile as
    fit, at most ``rows``, so a complex-s7 tile is ``rows // 2`` states and
    its (rows // 2, 8) draw holds the rows of one (rows, 4) tile of the
    same stream.  Each ensemble but the widest, last, copies its rows into
    the work tile; param, the only uniform fill, is always its own group's
    widest, and maps its triples into a 4-wide work tile.  The work tile is
    as wide as the widest of these, and the fill and the work tile are at
    least ``_FILL_WIDTH`` wide when a :class:`StreamCheck` borrows them.
    """

    def __init__(self, consumers, seed: SeedSpec, capacity: int):
        self.rows, self.seed = min(capacity, _TILE_ROWS), seed
        self.results, own, groups = [consumer.empty() for consumer in consumers], [], {}
        for consumer, total in zip(consumers, self.results):
            if isinstance(consumer, StreamCheck):
                own.append((consumer, total))
                continue
            kind = Ensemble(consumer.kind)
            kinds = groups.setdefault(_LAYOUTS[kind].fill, {})
            kinds.setdefault(kind, []).append((consumer, total))
        self.groups = [sorted(kinds.items(), key=lambda sub: _LAYOUTS[sub[0]].width)
                       for kinds in groups.values()]
        borrowed = [_FILL_WIDTH] if own else []
        widths = [_LAYOUTS[kind].width for group in self.groups for kind, _ in group]
        copied = [_LAYOUTS[kind].width for group in self.groups for kind, _ in group[:-1]]
        mapped = [4 for group in self.groups for kind, _ in group if kind is Ensemble.PARAM]
        widest = max(widths + borrowed, default=0)
        self.fill = np.empty(max(self.rows * min(widest, _FILL_WIDTH), widest))
        self.work = np.empty(self.rows * max(copied + mapped + borrowed, default=0))
        self.c = np.empty(self.rows)
        self.probs = np.empty((4, self.rows))
        self.mask = np.empty(self.rows, dtype=bool)
        self.own = [(total, check.make(self.rows, self)) for check, total in own]

    def block(self, index: int, count: int) -> None:
        """Add block ``index`` of ``count`` samples to each consumer's result."""
        seed = _block_seed(self.seed, index)
        for group in self.groups:
            self._scan_group(group, seed, count)
        for total, excess_of in self.own:
            gen = stream_generator(seed)
            for start, stop in _tiles(count):
                size = stop - start
                _tally(total, excess_of(gen, self.c[:size]), self.mask[:size])

    def _scan_group(self, group: list, seed: SeedSpec, count: int) -> None:
        """Scan ``count`` states of each of ``group``'s kinds, one drawn tile at a time."""
        widest = _LAYOUTS[group[-1][0]]
        step = min(self.rows, len(self.fill) // widest.width)
        gen = stream_generator(seed)
        for start in range(0, count, step):
            drawn = self.fill[: (min(start + step, count) - start) * widest.width]
            widest.fill(gen, drawn.reshape(-1, widest.width))
            for kind, parts in group:
                layout = _LAYOUTS[kind]
                first = start * widest.width // layout.width
                if first < count:
                    rows = drawn.reshape(-1, layout.width)[: count - first]
                    self._tile(kind, parts, rows, layout is widest)

    def _tile(self, kind: Ensemble, parts: list, drawn: np.ndarray, in_place: bool) -> None:
        """Normalize one tile of drawn rows and hand its (C, I) pairs to ``kind``'s ``parts``."""
        layout, size = _LAYOUTS[kind], len(drawn)
        draws = drawn if in_place else self.work[: drawn.size].reshape(drawn.shape)
        if not in_place:
            draws[...] = drawn
        layout.finish(draws, self.probs[:, :size])
        buffers = self.work, self.probs, self.c
        c, i = self.pairs(_as_amplitudes(kind, draws.view(layout.dtype), buffers))
        spare, mask = self.probs[:, :size], self.mask[:size]
        for consumer, total in parts:
            consumer.tile(total, c, i, spare, mask)

    def pairs(self, amplitudes: np.ndarray):
        """Read-only (c, i) of the contiguous (size, 4) ``amplitudes``, which are overwritten.

        Computes, element for element, what the public ``concurrence``,
        ``probabilities`` and ``mutual_information`` compute; ``i`` is a
        view of the amplitudes' memory.  Until the probabilities are
        written, ``probs`` holds the norms and scratch of the layout's
        ``finish``, param's cos/sin rows (with its square roots in ``c``) and
        the concurrence's products, a (2, rows) view in the amplitudes'
        dtype.  Then the amplitudes are spent, and their memory holds
        MI's four rows, ``i`` among them.  ``probs`` and ``mask`` are free
        again once this returns: the tile's consumers get them as spare
        rows and mask.
        """
        size, rows = len(amplitudes), len(self.c)
        products = self.probs.reshape(-1).view(amplitudes.dtype)[: 2 * rows].reshape(2, rows)
        c = _concurrence_into(amplitudes, self.c[:size], products[:, :size]).view()
        probs = _probabilities_into(amplitudes, self.probs[:, :size])
        spent = amplitudes.reshape(-1).view(np.float64)[: 4 * size].reshape(4, size)
        i = _mutual_information_into(probs, spent, self.mask[:size]).view()
        c.flags.writeable = i.flags.writeable = False
        return c, i


def _scan_share(consumers, n: int, seed: SeedSpec, block_size: int, indices, parent=None):
    """The consumers' results of ``indices``, blocks of an ``n``-sample scan.

    A forked share exits before a block once ``parent``, its parent's pid, has died.
    """
    scan = _ShareScan(consumers, seed, _block_length(n, block_size, indices[0]))  # the longest
    for index in indices:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        scan.block(index, _block_length(n, block_size, index))
    return scan.results


def scan_checks(consumers, n: int, seed: SeedSpec, workers: int | None = None):
    """Run several ``n``-sample consumers in one pass over one block plan.

    Blocks are ``BLOCK_SIZE`` samples long, and block ``j`` of every
    consumer uses stream ``seed.stream_id + j``.  A
    consumer is a :class:`TileCheck`, a :class:`StreamCheck`, a
    :class:`TileHistogram` or any spec with their ``kind``, ``empty``,
    ``tile`` and ``merge``; ``tile`` reads its (C, I) pairs from read-only
    arrays, which every consumer of the ensemble shares.  Each share adds
    its tiles to an ``empty()`` result; the parent folds the shares with
    ``merge`` into an ``empty()`` made before any worker starts, so a grid
    that cannot be allocated fails first.  Merges must be exact (integer
    sums, maxima) for results not to depend on the worker count.  The
    consumers share their draws, and every result is the one a scan of its
    consumer alone gives.  A drawn state that may lie within about 1e-12
    of zero raises ``ConsistencyError``.  With more than one worker,
    each share runs in a forked child, which pickles only its partials; a
    child's error is raised again, and one that dies first raises
    ``ChildProcessError``.

    A check's result is (violations, max_excess): every excess that is not
    ``<= 0``, NaN included, is a violation, and max_excess is the largest
    finite excess, clipped at zero.  A histogram's is a :class:`JointHistogram`.
    """
    consumers, blocks = list(consumers), _block_count(n, BLOCK_SIZE)
    workers = resolve_workers(workers)
    _block_seed(seed, blocks - 1)  # the last block's stream must exist too
    results = [consumer.empty() for consumer in consumers]
    scan = partial(_scan_share, consumers, n, seed, BLOCK_SIZE)
    with closing(_run_shares(scan, blocks, workers)) as shares:
        for share in shares if consumers else ():
            results = [consumer.merge(total, part)
                       for consumer, total, part in zip(consumers, results, share)]
    return results


def run_histogram_job(
    kind: Ensemble,
    n: int,
    master_seed: int,
    delta_c: float,
    delta_i: float,
    workers: int | None = None,
) -> JointHistogram:
    """Sample ``n`` states and histogram their (C, I) pairs: a scan of one histogram.

    Deterministic in (kind, n, master_seed, deltas); the worker count only
    affects wall time.  The sample count and every block's stream are
    checked before the grid or a worker exists.
    """
    histogram = TileHistogram(Ensemble(kind).value, delta_c, delta_i)
    return scan_checks([histogram], n, SeedSpec(master_seed), workers)[0]
