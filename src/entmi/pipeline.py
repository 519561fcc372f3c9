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
same seed.
"""

from __future__ import annotations

import multiprocessing
import os
from functools import partial

import numpy as np

from .errors import DomainError
from .histogram import JointHistogram
from .sampling import Ensemble, SeedSpec, sample_amplitudes
from .states import (
    concurrence,
    entanglement_from_concurrence,
    mutual_information,
    probabilities,
)

BLOCK_SIZE = 250_000

# Excess of MI over the entanglement bound tolerated before a sample
# counts as a violation.
BOUND_TOL = 1e-9


def observables(amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """(concurrence, mutual information) arrays for a batch of states."""
    return (
        np.atleast_1d(concurrence(amplitudes)),
        np.atleast_1d(mutual_information(probabilities(amplitudes))),
    )


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


def _run_tasks(
    task, head: tuple, n: int, base_stream: int, block_size: int, workers: int
):
    """Yield ``task((*head, share))`` for each worker's share of a job's blocks.

    A share is a list of (stream_id, count) blocks; block j, drawn from
    stream ``base_stream + j``, goes to share j mod shares, so shares
    differ by at most one block.  Callers reduce the partials with
    commutative operations, in whatever order they arrive.
    """
    plan = [(base_stream + j, count) for j, count in block_plan(n, block_size)]
    parts = min(workers, len(plan))
    args_list = [(*head, plan[w::parts]) for w in range(parts)]
    if parts == 1:
        yield task(args_list[0])
        return
    with multiprocessing.Pool(processes=parts) as pool:
        yield from pool.imap_unordered(task, args_list)


def _histogram_share(args) -> np.ndarray:
    kind, master_seed, delta_c, delta_i, blocks = args
    local = JointHistogram(delta_c, delta_i)
    for stream_id, count in blocks:
        amplitudes = sample_amplitudes(
            Ensemble(kind), SeedSpec(master_seed, stream_id), count
        )
        local.accumulate_many(*observables(amplitudes))
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
    block_size); the worker count only affects wall time.
    """
    workers = resolve_workers(workers)
    kind = Ensemble(kind)
    out = JointHistogram(delta_c, delta_i)
    head = (kind.value, master_seed, delta_c, delta_i)
    for counts in _run_tasks(
        _histogram_share, head, n, base_stream, block_size, workers
    ):
        out.counts += counts
    out.total = n
    return out


def _excess_share(args) -> tuple[int, float]:
    excess_of, master_seed, blocks = args
    violations = 0
    worst = 0.0
    for stream_id, count in blocks:
        excess = excess_of(SeedSpec(master_seed, stream_id), count)
        violations += int(np.count_nonzero(excess > 0.0))
        worst = max(worst, float(excess.max()))
    return violations, worst


def scan_excess(
    excess_of,
    n: int,
    seed: SeedSpec,
    workers: int | None = None,
    block_size: int = BLOCK_SIZE,
) -> tuple[int, float]:
    """Count the samples of an ``n``-sample check whose excess is positive.

    ``excess_of(seed, count)`` draws one block of ``count`` samples from
    ``seed`` and returns each sample's excess over the check's tolerance.
    Block ``j`` uses stream ``seed.stream_id + j``.  With more than one
    worker ``excess_of`` is pickled, so it must be a module-level function
    or a ``functools.partial`` of one.

    Returns (violations, max_excess) where max_excess is the largest
    excess of any sample, clipped at zero when there are no violations.
    """
    workers = resolve_workers(workers)
    head = (excess_of, seed.master_seed)
    violations = 0
    max_excess = 0.0
    for bad, excess in _run_tasks(
        _excess_share, head, n, seed.stream_id, block_size, workers
    ):
        violations += bad
        max_excess = max(max_excess, excess)
    return violations, max_excess


def _bound_excess(kind: str, tol: float, seed: SeedSpec, count: int) -> np.ndarray:
    c, i = observables(sample_amplitudes(Ensemble(kind), seed, count))
    return i - entanglement_from_concurrence(c) - tol


def run_bound_scan(
    kind: Ensemble,
    n: int,
    master_seed: int,
    tol: float = BOUND_TOL,
    workers: int | None = None,
    base_stream: int = 0,
    block_size: int = BLOCK_SIZE,
) -> tuple[int, float]:
    """Count samples whose MI exceeds the entanglement bound plus ``tol``.

    Returns (violations, max_excess) where max_excess is the largest
    amount by which any sample exceeded the tolerated bound (clipped at
    zero when there are no violations).
    """
    return scan_excess(
        partial(_bound_excess, Ensemble(kind).value, tol),
        n,
        SeedSpec(master_seed, base_stream),
        workers,
        block_size,
    )
