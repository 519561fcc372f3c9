"""Unit tests for the block-parallel sampling jobs."""

import functools
import itertools
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import SRC, recorded_excess, run_isolated
from entmi import (
    ConsistencyError,
    DomainError,
    Ensemble,
    JointHistogram,
    SeedSpec,
    check_bound,
    concurrence,
    entanglement_from_concurrence,
    mutual_information,
    params_to_amplitudes,
    probabilities,
    run_histogram_job,
    sample_amplitudes,
)
from entmi import pipeline, sampling, verify
from entmi.histogram import bin_count
from entmi.pipeline import TileCheck, TileHistogram, block_plan, resolve_workers
from entmi.states import xlog2


def _observables(amps):
    """(C, I) arrays of a batch of states through the public functions."""
    return concurrence(amps), mutual_information(probabilities(amps))


def _bound_check(kind, tol=verify.BOUND_TOL):
    """The check that ``check_bound`` scans, with its tolerance exposed."""
    return TileCheck(kind.value, partial(verify._bound_excess, tol))


def _scan_one(check, n, seed, workers=1):
    """The result of ``check`` scanned alone: (violations, worst) or a histogram."""
    return pipeline.scan_checks([check], n, seed, workers)[0]


class TestBlockPlan:
    def test_exact_split(self):
        assert block_plan(1000, 250) == [(0, 250), (1, 250), (2, 250), (3, 250)]

    def test_ragged_tail(self):
        assert block_plan(600, 250) == [(0, 250), (1, 250), (2, 100)]

    def test_single_small_block(self):
        assert block_plan(10, 250) == [(0, 10)]

    def test_rejects_empty_job(self):
        with pytest.raises(DomainError):
            block_plan(0)

    @pytest.mark.parametrize("seed,n", [(-1, 100), (2**64, 100), (0, 0), (1.9, 100)])
    def test_job_rejects_bad_input_before_any_pool(self, no_fork, seed, n):
        # As many blocks as n samples make in blocks of 10: enough for a pool of two.
        with pytest.raises(DomainError):
            run_histogram_job(
                Ensemble.REAL_S3, n * pipeline.BLOCK_SIZE // 10, seed, 0.01, 0.01, workers=2
            )

    def test_last_block_stream_is_checked_before_any_pool(self, forks):
        # Three blocks from stream 2**64 - 2: the third stream does not exist.
        checks = [TileHistogram("real-s3", 0.1, 0.1), _bound_check(Ensemble.REAL_S3)]
        with pytest.raises(DomainError, match="unsigned 64-bit"):
            pipeline.scan_checks(checks, 600_000, SeedSpec(1, 2**64 - 2), workers=2)
        # A numpy stream id must not wrap around to stream 0.
        with pytest.raises(DomainError, match="unsigned 64-bit"):
            pipeline.scan_checks(checks, 600_000, SeedSpec(1, np.uint64(2**64 - 2)), workers=2)
        assert forks == []

    def test_last_stream_may_be_the_largest(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 1)
        job = _scan_one(TileHistogram("real-s3", 0.1, 0.1), 2, SeedSpec(1, 2**64 - 2), 1)
        assert job.total == 2

    @pytest.mark.parametrize("n", [2.5, np.float64(600_000.0), True, "10"])
    def test_job_rejects_a_count_that_is_not_an_integer(self, no_fork, n):
        with pytest.raises(DomainError, match="^sample count .* is not an integer$"):
            run_histogram_job(Ensemble.REAL_S3, n, 1, 0.01, 0.01, workers=2)

    @pytest.mark.parametrize("block_size,message", [(2.5, "is not an integer"),
                                                    (True, "is not an integer"),
                                                    (0, "must be at least 1")])
    def test_block_size_is_an_integer_of_at_least_1(self, block_size, message):
        with pytest.raises(DomainError, match=f"^block size .*{message}$"):
            block_plan(10, block_size)

    def test_resolve_workers(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(np.int64(3)) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(DomainError, match="^worker count must be at least 1$"):
            resolve_workers(0)

    @pytest.mark.parametrize("workers", [True, 1.5, np.float64(2.0)])
    def test_worker_count_must_be_an_integer(self, no_fork, workers):
        # Each of these ran as one worker.
        with pytest.raises(DomainError, match="^worker count .* is not an integer$"):
            resolve_workers(workers)
        with pytest.raises(DomainError, match="^worker count .* is not an integer$"):
            run_histogram_job(Ensemble.REAL_S3, 10, 1, 0.1, 0.1, workers=workers)

    def test_default_workers_are_the_cpus_of_the_affinity_mask(self, monkeypatch):
        # A process pinned to one CPU of a 64-CPU host forks no second worker.
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
        assert resolve_workers(None) == 1


class TestObservables:
    def test_matches_scalar_route(self):
        amps = sample_amplitudes(Ensemble.COMPLEX_S7, SeedSpec(3, 0), 50)
        c, i = _observables(amps)
        for k in range(50):
            assert c[k] == pytest.approx(concurrence(amps[k]), abs=1e-15)
            assert i[k] == pytest.approx(
                mutual_information(probabilities(amps[k])), abs=1e-15
            )


class TestHistogramJob:
    def test_worker_count_is_irrelevant(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 1000)
        histogram = TileHistogram("real-s3", 0.02, 0.02)
        serial = _scan_one(histogram, 10_000, SeedSpec(42), workers=1)
        parallel = _scan_one(histogram, 10_000, SeedSpec(42), workers=2)
        assert serial == parallel

    def test_repeat_runs_identical(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 1_000)
        first, second = (
            _scan_one(TileHistogram("complex-s7", 0.05, 0.05), 4_000, SeedSpec(7), workers=2)
            for _ in range(2)
        )
        assert first == second

    def test_matches_manual_accumulation(self, monkeypatch):
        n, block = 5_000, 1_024
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", block)
        job = _scan_one(TileHistogram("param", 0.05, 0.05), n, SeedSpec(11), 2)
        manual = JointHistogram(0.05, 0.05)
        for stream_id, count in block_plan(n, block):
            amps = sample_amplitudes(Ensemble.PARAM, SeedSpec(11, stream_id), count)
            c, i = _observables(amps)
            manual.accumulate_many(c, i)
        assert job == manual

    def test_prefix_property(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 1000)
        histogram = TileHistogram("real-s3", 0.1, 0.1)
        short, longer = (_scan_one(histogram, n, SeedSpec(5), 1) for n in (2_000, 3_000))
        tail = _scan_one(histogram, 1_000, SeedSpec(5, 2), 1)
        assert histogram.merge(short, tail) == longer

    def test_total_matches_request(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 1000)
        job = _scan_one(TileHistogram("zero-mi", 0.1, 0.1), 3_333, SeedSpec(1), 2)
        assert job.total == 3_333
        assert int(job.counts.sum()) == 3_333


class SmallMITally(NamedTuple):
    """A scan consumer defined here alone: the number of pairs with I < 1e-3."""

    kind: str

    def empty(self):
        return [0]

    def tile(self, total, c, i, spare, mask):
        total[0] += int(np.count_nonzero(i < 1e-3))

    def merge(self, total, part):
        return [total[0] + part[0]]


class TestConsumerProtocol:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [5_000, 4_321])
    def test_a_spec_with_empty_tile_and_merge_is_a_consumer(self, monkeypatch, n, workers):
        # Blocks of 1000 on 3 workers give shares of 2, 2 and 1 blocks.
        seed, block = SeedSpec(23, 4), 1_000
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", block)
        checks = [SmallMITally("real-s3"), TileHistogram("real-s3", 0.02, 0.02)]
        tally, hist = pipeline.scan_checks(checks, n, seed, workers)
        expected = sum(
            int(np.count_nonzero(mutual_information(probabilities(
                sample_amplitudes(Ensemble.REAL_S3, SeedSpec(23, 4 + j), count))) < 1e-3))
            for j, count in block_plan(n, block)
        )
        assert tally == [expected] and 0 < expected < n
        assert hist == _scan_one(TileHistogram("real-s3", 0.02, 0.02), n, seed, 1)


class TestBoundScan:
    def test_no_violations_on_real_ensemble(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 25_000)
        violations, excess = _scan_one(
            _bound_check(Ensemble.REAL_S3), 100_000, SeedSpec(13), workers=2
        )
        assert violations == 0
        assert excess == 0.0

    def test_no_violations_on_complex_ensemble(self):
        report = check_bound(100_000, SeedSpec(13), Ensemble.COMPLEX_S7, workers=1)
        assert report.violations == 0
        assert report.max_violation == 0.0

    def test_deterministic_across_workers(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 10_000)
        first, second = (
            _scan_one(_bound_check(Ensemble.REAL_S3), 50_000, SeedSpec(3), workers=workers)
            for workers in (1, 2)
        )
        assert first == second

    def test_worst_excess_is_the_block_maximum_for_any_worker_count(self, monkeypatch):
        # A negative tolerance turns every sample into a violation, so the
        # reported maximum is a genuine float that every grouping must keep.
        n, block = 50_000, 7_000
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", block)
        expected = -np.inf
        for stream_id, count in block_plan(n, block):
            amps = sample_amplitudes(Ensemble.COMPLEX_S7, SeedSpec(3, stream_id), count)
            c, i = _observables(amps)
            excess = i - entanglement_from_concurrence(c) + 1.0
            expected = max(expected, float(excess.max()))
        for workers in (1, 2, 3):
            assert _scan_one(
                _bound_check(Ensemble.COMPLEX_S7, tol=-1.0), n, SeedSpec(3), workers=workers
            ) == (n, expected)


# -- the tiled block kernel ----------------------------------------------------
#
# The kernel draws, normalizes, computes C and I and bins a block one tile at
# a time.  The references below are the whole-block path as it was first
# written: one generator call per block, row-wise norms, and C, I and bin
# indices over the whole block.

TILE = sampling._TILE_ROWS
DEGENERATE = "within about 1e-12 of zero"


def _reference_amplitudes(kind, gen, n):
    if kind is Ensemble.PARAM:
        u = gen.random((n, 3))
        u[:, 1] *= 2.0 * np.pi
        u[:, 2] *= 2.0 * np.pi
        return params_to_amplitudes(u[:, 0], u[:, 1], u[:, 2])
    width = 8 if kind is Ensemble.COMPLEX_S7 else 4
    draws = gen.standard_normal((n, width))
    if kind is Ensemble.ZERO_MI:
        p, q, r, s = draws.T
        left, right = np.hypot(p, r), np.hypot(q, s)
        p, r, q, s = p / left, r / left, q / right, s / right
        return np.stack([p * q, p * s, r * q, -(r * s)], axis=1)
    draws /= np.sqrt((draws * draws).sum(axis=1))[:, None]
    return draws[:, 0::2] + 1j * draws[:, 1::2] if width == 8 else draws


def _reference_observables(amps):
    a, b, c, d = (amps[:, k] for k in range(4))
    conc = np.minimum(2.0 * np.abs(a * d - b * c), 1.0)
    p = probabilities(amps)
    left = -xlog2(p[:, 0] + p[:, 1]) - xlog2(p[:, 2] + p[:, 3])
    right = -xlog2(p[:, 0] + p[:, 2]) - xlog2(p[:, 1] + p[:, 3])
    info = np.maximum(left + right - -xlog2(p).sum(axis=1), 0.0)
    return conc, info


def _reference_counts(c, i, delta):
    nbins = bin_count(delta)
    idx_c = np.minimum((np.clip(c, 0.0, 1.0) / delta).astype(np.int64), nbins - 1)
    idx_i = np.minimum((np.clip(i, 0.0, 1.0) / delta).astype(np.int64), nbins - 1)
    return np.bincount(idx_c * nbins + idx_i, minlength=nbins * nbins).reshape(
        nbins, nbins
    )


class ZeroedRow:
    """A generator whose drawn rows ``rows`` are zeroed: degenerate rows.

    Rows are counted across every draw, however the block is chunked, so
    row ``k`` is row ``k`` of the block.  ``cols`` picks the columns
    zeroed, the whole row by default.
    """

    def __init__(self, gen, row, cols=slice(None)):
        self._gen = gen
        self._rows = [] if row is None else [row] if np.isscalar(row) else list(row)
        self._cols = cols
        self._seen = 0

    @property
    def bit_generator(self):
        return self._gen.bit_generator

    def standard_normal(self, size=None, out=None):
        return self._zeroed(self._gen.standard_normal(size, out=out))

    def random(self, size=None, out=None):
        return self._zeroed(self._gen.random(size, out=out))

    def _zeroed(self, values):
        for row in self._rows:
            if self._seen <= row < self._seen + len(values):
                values[row - self._seen, self._cols] = 0.0
        self._seen += len(values)
        return values


def _tiled_observables(kind, seed, count, tiles=None):
    """The (C, I) pairs that a one-block scan hands a check, tile after tile, into ``tiles``.

    ``count`` is at most ``BLOCK_SIZE``, so the scan is one block.
    """
    tiles = [] if tiles is None else tiles

    def record(c, i, out, scratch, mask):
        tiles.append((c.copy(), i.copy()))
        out[...] = 0.0

    check = TileCheck(kind.value, record)
    pipeline.scan_checks([check], count, seed, workers=1)
    return tuple(np.concatenate(pairs) for pairs in zip(*tiles))


class TestTiledKernel:
    @pytest.mark.parametrize("kind", list(Ensemble))
    @pytest.mark.parametrize(
        "count,zeroed",
        [(1, None), (1_000, None), (TILE, None), (TILE // 2 + 1, None), (250_000, None),
         (TILE + 9, TILE + 3), (TILE, TILE // 2 + 5), (250_000, 7 * TILE + 11)],
    )
    def test_matches_whole_block_reference(self, monkeypatch, kind, count, zeroed):
        seed = SeedSpec(31, 4)
        monkeypatch.setattr(
            pipeline, "stream_generator",
            lambda s: ZeroedRow(sampling.stream_generator(s), zeroed),
        )
        if zeroed is not None and kind is not Ensemble.PARAM:
            # A zeroed row of normals is a degenerate state: an error at its
            # tile, once every earlier tile has been handed on.  A tile's
            # fill holds _FILL_WIDTH floats a row: complex-s7 draws half a tile.
            tiles = []
            with pytest.raises(ConsistencyError, match=DEGENERATE):
                _tiled_observables(kind, seed, count, tiles)
            rows = TILE * pipeline._FILL_WIDTH // sampling._LAYOUTS[kind].width
            assert sum(len(c) for c, _ in tiles) == zeroed // rows * rows
            return
        c, i = _tiled_observables(kind, seed, count)
        amps = _reference_amplitudes(
            kind, ZeroedRow(sampling.stream_generator(seed), zeroed), count
        )
        ref_c, ref_i = _reference_observables(amps)
        assert np.array_equal(c, ref_c) and np.array_equal(i, ref_i)

    @pytest.mark.parametrize("kind", list(Ensemble))
    @pytest.mark.parametrize("delta", [0.01, 0.001, 0.3])
    def test_histogram_share_matches_whole_block_reference(self, kind, delta):
        blocks = [(5, 250_000), (6, TILE + 1)]
        n = sum(count for _, count in blocks)
        counts = _scan_one(TileHistogram(kind.value, delta, delta), n, SeedSpec(8, 5)).counts
        expected = 0
        public = JointHistogram(delta, delta)
        for stream_id, count in blocks:
            amps = _reference_amplitudes(
                kind, sampling.stream_generator(SeedSpec(8, stream_id)), count
            )
            pairs = _reference_observables(amps)
            expected = expected + _reference_counts(*pairs, delta)
            public.accumulate_many(*pairs)
        assert counts.dtype == np.uint64
        assert np.array_equal(counts, expected)
        assert np.array_equal(public.counts, expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_bin_counts_every_repeated_index(self, workers):
        # Every pair of every tile falls in one bin: a count that drops
        # repeated indices within a tile would read one per tile.
        n = 500_000 + 3 * TILE + 5
        [hist] = pipeline.scan_checks(
            [TileHistogram("real-s3", 1.0, 1.0)], n, SeedSpec(13), workers
        )
        assert hist.counts.tolist() == [[n]] and hist.total == n

    @pytest.mark.parametrize(
        "row_values,error,message",
        [
            ([1.0, 0.0, 0.0, 1.0], ConsistencyError, "concurrence"),
            ([2.0, 0.0, 0.0, 0.0], ConsistencyError, "mutual information"),
            # MI of (1/e, 0, 0, 1/e) is 2 log2(e) / e = 1.06 bits.
            ([np.exp(-0.5), 0.0, 0.0, np.exp(-0.5)], DomainError,
             "mutual information outside \\[0, 1\\]"),
        ],
    )
    def test_bad_row_in_a_later_tile_raises(self, monkeypatch, row_values, error, message):
        # The finish step of real-s3 writes a bad state into one row of the block.
        row = 3 * TILE + 7
        layout = sampling._LAYOUTS[Ensemble.REAL_S3]
        finished = [0]

        def corrupted(draws, rows):
            layout.finish(draws, rows)
            if finished[0] <= row < finished[0] + len(draws):
                draws[row - finished[0]] = row_values
            finished[0] += len(draws)

        monkeypatch.setitem(
            sampling._LAYOUTS, Ensemble.REAL_S3, layout._replace(finish=corrupted)
        )
        with pytest.raises(error, match=message):
            run_histogram_job(Ensemble.REAL_S3, 250_000, 2, 0.01, 0.01, workers=1)


def _state(gen):
    """The bit generator's state with its arrays as lists, comparable with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(gen.bit_generator.state)


DRAWN = 5 * TILE + 9


class TestTileDraws:
    """A block drawn tile by tile consumes its generator as one whole-block draw.

    Zeroed rows of a Gaussian ensemble are degenerate states: the draw
    raises after the tile that holds the first of them, having consumed its
    generator as one whole draw of the rows up to that tile's end.  Rows
    from ``DRAWN`` on lie past the block and are never drawn.
    """

    @pytest.mark.parametrize("kind", list(Ensemble))
    @pytest.mark.parametrize(
        "rows",
        [[], [0], [2 * TILE], [DRAWN - 1], [TILE + 5, 3 * TILE + 1],
         [TILE, TILE + 1, DRAWN], [4 * TILE + 2, DRAWN, DRAWN + 1]],
    )
    def test_generator_state_matches_whole_block_reference(self, kind, rows):
        self._check(kind, rows, slice(None), kind is not Ensemble.PARAM and rows)

    @pytest.mark.parametrize("cols", [[0, 2], [1, 3]])
    @pytest.mark.parametrize("rows", [[3 * TILE + 7], [TILE - 1, 4 * TILE]])
    def test_zero_mi_half_degenerate(self, cols, rows):
        self._check(Ensemble.ZERO_MI, rows, cols, True)

    def _check(self, kind, rows, cols, degenerate):
        seed = SeedSpec(19, 3)
        tiled_gen = ZeroedRow(sampling.stream_generator(seed), rows, cols)
        ref_gen = ZeroedRow(sampling.stream_generator(seed), rows, cols)
        if degenerate:
            stop = min(DRAWN, (min(rows) // TILE + 1) * TILE)
            with pytest.raises(ConsistencyError, match=DEGENERATE):
                sampling._take(kind, tiled_gen, DRAWN)
            ref_gen.standard_normal((stop, sampling._LAYOUTS[kind].width))
        else:
            amps = sampling._as_amplitudes(kind, sampling._take(kind, tiled_gen, DRAWN))
            assert np.array_equal(amps, _reference_amplitudes(kind, ref_gen, DRAWN))
        assert _state(tiled_gen) == _state(ref_gen)
        assert _state(tiled_gen) != _state(sampling.stream_generator(seed))


# -- degenerate draws ----------------------------------------------------------
#
# A drawn state too close to zero to normalize is an error, not a redraw.  The
# zeroed row lies in a later tile, and in a scan in block 2 of 3; a sample
# also has one in its first and in the last row of its ragged last tile.

ROW = 3 * TILE + 7
_ZEROED = [(Ensemble.REAL_S3, slice(None)), (Ensemble.COMPLEX_S7, slice(None)),
           (Ensemble.ZERO_MI, [0, 2]), (Ensemble.ZERO_MI, [1, 3])]
_ZEROED_IDS = ["real-s3", "complex-s7", "zero-mi-pr", "zero-mi-qs"]


def _zero_block_2(monkeypatch, cols=slice(None)):
    """Zero row ``ROW`` (columns ``cols``) of the stream of every scan's block 2."""
    philox = sampling.stream_generator
    monkeypatch.setattr(
        pipeline, "stream_generator",
        lambda s: ZeroedRow(philox(s), ROW if s.stream_id == 2 else None, cols),
    )


class TestDegenerateDraws:
    @pytest.mark.parametrize("row", [0, ROW, DRAWN - 1])
    @pytest.mark.parametrize("kind,cols", _ZEROED, ids=_ZEROED_IDS)
    def test_sample_amplitudes_raises(self, monkeypatch, kind, cols, row):
        philox = sampling.stream_generator
        monkeypatch.setattr(
            sampling, "stream_generator", lambda s: ZeroedRow(philox(s), row, cols)
        )
        with pytest.raises(ConsistencyError, match=DEGENERATE):
            sample_amplitudes(kind, SeedSpec(19, 3), DRAWN)

    @pytest.mark.parametrize("kind,cols", _ZEROED, ids=_ZEROED_IDS)
    def test_run_histogram_job_raises(self, monkeypatch, kind, cols):
        _zero_block_2(monkeypatch, cols)
        with pytest.raises(ConsistencyError, match=DEGENERATE):
            run_histogram_job(kind, 600_000, 19, 0.01, 0.01, workers=1)

    @pytest.mark.parametrize("kind,cols", _ZEROED, ids=_ZEROED_IDS)
    def test_a_scan_of_a_check_and_a_histogram_raises(self, monkeypatch, kind, cols):
        _zero_block_2(monkeypatch, cols)
        checks = [TileHistogram(kind.value, 0.01, 0.01), _bound_check(kind)]
        with pytest.raises(ConsistencyError, match=DEGENERATE):
            pipeline.scan_checks(checks, 600_000, SeedSpec(19), workers=1)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "command", [["sample", "--ensemble", "real-s3"], ["verify", "--all"]],
        ids=["sample", "verify"],
    )
    def test_cli_exits_2_with_one_line(
        self, monkeypatch, run_cli, capsys, tmp_path, command, workers
    ):
        # With two workers the error is raised in the worker of blocks 0
        # and 2, and raised again, with its type, by the parent.
        _zero_block_2(monkeypatch)
        out = tmp_path / "out"
        argv = [*command, "--n", "600000", "--workers", workers, "--out", str(out)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert DEGENERATE in captured.err and "Traceback" not in captured.err
        assert not out.exists()


# -- forked workers ------------------------------------------------------------
#
# Each share of a scan with two or more workers runs in a forked child.  The
# scripts below run in a fresh interpreter, so that a scan that hangs fails
# its test, and so that ``os.waitpid(-1, WNOHANG)`` sees only the scan's
# children: it raises ``ChildProcessError`` once none is left.

_NO_CHILD_LEFT = """
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""

_DYING_WORKER = """
import os, signal, sys
from entmi import SeedSpec, cli, pipeline

scan = pipeline._scan_share

def dying(consumers, n, seed, indices, parent=None):
    if indices[0] == 1:  # the second of two shares dies before it sends its partials
        os._exit(9) if sys.argv[2] == "exit" else os.kill(os.getpid(), signal.SIGKILL)
    return scan(consumers, n, seed, indices, parent)

pipeline._scan_share = dying
histogram = pipeline.TileHistogram("real-s3", 0.1, 0.1)
try:
    pipeline.scan_checks([histogram], 600_000, SeedSpec(1), workers=2)
except ChildProcessError as exc:
    print("scan:", exc)
print("cli:", cli.main(["sample", "--n", "600000", "--workers", "2", "--out", sys.argv[1]]))
""" + _NO_CHILD_LEFT

_FAILING_SCAN = """
import os, sys
from typing import NamedTuple
from entmi import SeedSpec, pipeline

def excess(c, i, out, scratch, mask):
    class Local(Exception):  # a local class does not pickle
        pass

    if sys.argv[1] in ("raises", "unpicklable"):
        raise (LookupError if sys.argv[1] == "raises" else Local)("no tile")
    out[...] = -1.0

class Unmergeable(NamedTuple):
    kind: str
    def empty(self):
        return []
    def tile(self, total, c, i, spare, mask):
        total.append(len(c))
    def merge(self, total, part):
        if total:
            raise ArithmeticError("no merge")
        return part

def fork(real_fork=os.fork, started=[]):
    if started:
        raise BlockingIOError("no fork")
    started.append(True)
    return real_fork()

if sys.argv[1] == "fork":  # the second of three forks fails
    os.fork = fork
check = Unmergeable("real-s3") if sys.argv[1] == "merge" else pipeline.TileCheck("real-s3", excess)
try:
    print(pipeline.scan_checks([check], 600_000, SeedSpec(5), workers=3)[0])
except Exception as exc:
    print(type(exc).__name__, exc)
""" + _NO_CHILD_LEFT


_HUGE_SCAN = """
import os, resource, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # no per-thread BLAS buffers under the cap
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
from entmi import cli, pipeline

class Sentinel(Exception):
    pass

block = pipeline._ShareScan.block

def first_block_only(self, index, count):
    block(self, index, count)
    raise Sentinel(f"block {index}: {count} states")

pipeline._ShareScan.block = first_block_only
try:
    cli.main(["sample", "--n", str(10**15), "--workers", "2", "--out", sys.argv[1]])
except Sentinel as exc:
    print(exc)
""" + _NO_CHILD_LEFT


_ANNOUNCED_WORKERS = """
import os, sys
from entmi import cli

fork = os.fork

def announced_fork():  # the parent prints each worker's pid
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced_fork
cli.main(["sample", "--n", str(10**9), "--workers", "2", "--out", sys.argv[1]])
"""


def _running(pid):
    """Whether process ``pid`` exists and has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestForkedWorkers:
    @pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
                        reason="needs os.fork and /proc")
    def test_workers_exit_once_their_run_is_killed(self, tmp_path):
        # SIGKILL leaves the run no chance to kill its workers: they must
        # notice, before their next block, that their parent is gone.
        run = subprocess.Popen(
            [sys.executable, "-c", _ANNOUNCED_WORKERS, str(tmp_path / "out.csv")],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        workers = []
        try:
            workers = [int(run.stdout.readline()) for _ in range(2)]
            run.kill()
            run.wait()
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(_running, workers))
        finally:
            run.kill()
            run.wait()
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)
            run.stdout.close()

    @pytest.mark.parametrize("death,status", [("exit", "exit status 9"), ("kill", "signal 9")])
    def test_a_dead_worker_ends_the_run(self, tmp_path, death, status):
        out = tmp_path / "out.csv"
        run = run_isolated(_DYING_WORKER, str(out), death)
        lines = run.stdout.splitlines()
        assert run.returncode == 0, run.stderr
        assert re.fullmatch(rf"scan: worker \d+ died \({status}\)", lines[0])
        assert lines[1:] == ["cli: 3", "no child left"]
        assert re.fullmatch(rf"error: worker \d+ died \({status}\)\n", run.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("case,printed", [
        ("raises", "LookupError no tile"),
        ("unpicklable", "RuntimeError Local: no tile"),
        ("merge", "ArithmeticError no merge"),
        ("fork", "BlockingIOError no fork"),
        ("succeeds", "(0, 0.0)"),
    ])
    def test_no_worker_outlives_its_scan(self, case, printed):
        run = run_isolated(_FAILING_SCAN, case)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [printed, "no child left"]

    def test_a_huge_n_is_dealt_without_a_plan_in_memory(self, tmp_path):
        # 10**15 states are 4e9 blocks: as a list of (index, count) pairs, far
        # more than the 2 GiB address space each process of the run may use.
        run = run_isolated(_HUGE_SCAN, str(tmp_path / "out.csv"))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["block 0: 250000 states", "no child left"]

    def test_a_consumer_need_not_pickle(self, monkeypatch):
        # Only the partials cross the fork: a lambda, which cannot pickle, may check.
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 1000)
        check = TileCheck("real-s3", lambda c, i, out, scratch, mask: np.subtract(i, 0.1, out))
        serial, forked = (_scan_one(check, 5000, SeedSpec(4), w) for w in (1, 2))
        assert serial == forked and serial[0] > 0


def _scan_two_blocks(checks):
    pipeline._scan_share(checks, 2 * pipeline.BLOCK_SIZE, SeedSpec(7), range(2))


def _histogram_two_blocks(kind, delta=0.01):
    _scan_two_blocks([TileHistogram(kind, delta, delta)])


def _bound_and_histogram_two_blocks():
    _scan_two_blocks([TileHistogram("real-s3", 0.01, 0.01), _bound_check(Ensemble.REAL_S3)])


def _suite_two_blocks():
    _scan_two_blocks([check for _, check in _SUITE])


_SHARE_IDS = ["histogram-real-s3", "histogram-complex-s7", "histogram-param",
                "histogram-real-s3-fine", "bound-real-s3", "bound-complex-s7", "zero-mi",
                "mi-oracle", "suite", "bound-real-s3+histogram"]


class TestShareMemory:
    # tracemalloc peaks of one share of two 250k blocks.  A share allocates
    # its tile memory once: the fill, the work tile, c, four probability
    # rows and a mask.  Every other per-tile buffer borrows rows idle at
    # its step (norms and scratch of the finish step, param's cos/sin rows
    # and roots, the concurrence's products, MI's four rows in the spent
    # amplitudes, mi-oracle's uniforms, cos/sin rows, 1 + t^2 denominators,
    # MI rows and excess), so no case grows with the block, and a step that
    # allocates its own tile buffer again breaks these ceilings.  Measured:
    # 1.24 MiB for a real-s3 histogram, 1.15 for the real-s3 bound and for
    # zero-mi, 1.23 and 1.15 for complex-s7 (its fill is 4 floats a row,
    # half a tile of its 8-wide rows), 1.60 for param (a 3-wide fill and a
    # 4-wide work tile for its amplitudes), 1.65 for mi-oracle, and 1.65 for
    # the suite's four checks scanned together, which share one share's
    # memory; the fine histogram adds its 7.6 MiB grid (8.78 MiB).
    # What seeding Philox imports on first use (secrets, hmac: about 1 MiB)
    # is imported before tracing, so the peak is the share's alone.
    @pytest.mark.parametrize(
        "run,ceiling",
        [
            (partial(_histogram_two_blocks, "real-s3"), 1.5 * 2**20),
            (partial(_histogram_two_blocks, "complex-s7"), 1.5 * 2**20),
            (partial(_histogram_two_blocks, "param"), 2 * 2**20),
            (partial(_histogram_two_blocks, "real-s3", 0.001), 1000**2 * 8 + 1.5 * 2**20),
            (partial(_scan_two_blocks, [_bound_check(Ensemble.REAL_S3)]), 1.5 * 2**20),
            (partial(_scan_two_blocks, [_bound_check(Ensemble.COMPLEX_S7)]), 1.5 * 2**20),
            (partial(_scan_two_blocks, [verify.CHECKS["zero-mi"]]), 1.5 * 2**20),
            (partial(_scan_two_blocks, [verify.CHECKS["mi-oracle"]]), 2 * 2**20),
            (_suite_two_blocks, 2 * 2**20),
            (_bound_and_histogram_two_blocks, 1.5 * 2**20),
        ],
        ids=_SHARE_IDS,
    )
    def test_peak_is_under_its_ceiling(self, run, ceiling):
        sampling.stream_generator(SeedSpec(0))
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling

    # The floats of each share's fill and work tile at a 250k block: a fill
    # of 4 floats a row (3 for param's own), and a work tile only where rows
    # are copied, mapped to param's amplitudes or lent to a stream check.
    @pytest.mark.parametrize(
        "consumers,fill,work",
        [
            ([TileHistogram("real-s3", 0.01, 0.01)], 65536, 0),
            ([TileHistogram("complex-s7", 0.01, 0.01)], 65536, 0),
            ([TileHistogram("param", 0.01, 0.01)], 49152, 65536),
            ([TileHistogram("real-s3", 0.001, 0.001)], 65536, 0),
            ([_bound_check(Ensemble.REAL_S3)], 65536, 0),
            ([_bound_check(Ensemble.COMPLEX_S7)], 65536, 0),
            ([verify.CHECKS["zero-mi"]], 65536, 0),
            ([verify.CHECKS["mi-oracle"]], 65536, 65536),
            ([verify.CHECKS[name] for name in verify.SUITE], 65536, 65536),
            ([TileHistogram("real-s3", 0.01, 0.01), _bound_check(Ensemble.REAL_S3)], 65536, 0),
        ],
        ids=_SHARE_IDS,
    )
    def test_buffer_sizes(self, consumers, fill, work):
        scan = pipeline._ShareScan(consumers, SeedSpec(0), 250_000)
        assert (scan.fill.size, scan.work.size) == (fill, work)
        assert scan.c.size == scan.mask.size == TILE and scan.probs.shape == (4, TILE)


# -- several checks in one scan ------------------------------------------------
#
# A negative tolerance on the bound turns part of each block into violations,
# so the counts and the worst excess compared below are not all zero.  The
# bound's excess on zero-mi states depends on their concurrence, so it
# checks the zero-mi rows read from a shared tile too.

_SUITE = [(name, verify.CHECKS[name]) for name in verify.SUITE]

_SHARP = {
    "real-s3": pipeline.TileCheck("real-s3", partial(verify._bound_excess, -0.5)),
    "complex-s7": pipeline.TileCheck("complex-s7", partial(verify._bound_excess, -0.5)),
    "zero-mi": pipeline.TileCheck("zero-mi", partial(verify._bound_excess, -0.5)),
    "mi-oracle": verify.CHECKS["mi-oracle"],
}

_KINDS = [kind.value for kind in Ensemble]

_SELECTIONS = [
    names
    for size in range(1, len(_SHARP) + 1)
    for names in itertools.combinations(sorted(_SHARP), size)
]


def _alone(check, n, seed):
    """(violations, worst) of ``check``, tallied from the excess of its scan alone."""
    excess = recorded_excess(check, n, seed)
    return int(np.count_nonzero(~(excess <= 0.0))), max(0.0, float(excess.max()))


@functools.lru_cache(maxsize=None)
def _sharp_alone(name, n):
    return _alone(_SHARP[name], n, SeedSpec(21, 5))


def _nan_tiles(rows, shared):
    return _nan_excess_of


def _nan_excess_of(gen, out):
    out[...] = np.nan
    out[::3] = -1.0
    out[1] = 0.25
    return out


_NAN_CHECK = pipeline.StreamCheck(_nan_tiles)


class TestScanChecks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, TILE, TILE + 1])
    @pytest.mark.parametrize("names", _SELECTIONS, ids="+".join)
    def test_each_selection_matches_each_check_alone(self, names, n, workers):
        self._check(names, n, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [250_001, 600_000])
    @pytest.mark.parametrize(
        "names",
        [("complex-s7", "mi-oracle", "real-s3", "zero-mi"), ("real-s3", "zero-mi"),
         ("complex-s7", "zero-mi")],
        ids="+".join,
    )
    def test_large_selections_match_each_check_alone(self, names, n, workers):
        self._check(names, n, workers)

    @staticmethod
    def _check(names, n, workers):
        results = pipeline.scan_checks(
            [_SHARP[name] for name in names], n, SeedSpec(21, 5), workers
        )
        assert results == [_sharp_alone(name, n) for name in names]

    @pytest.mark.parametrize("name", ["complex-s7", "real-s3", "zero-mi"])
    def test_the_sharp_checks_are_not_vacuous(self, name):
        violations, worst = _sharp_alone(name, TILE + 1)
        assert 0 < violations < TILE + 1
        assert worst > 0.0

    def test_checks_of_one_ensemble_and_seed_share_a_tile(self):
        # Two real-s3 checks read one 4-column fill; param draws uniforms.
        param = pipeline.TileCheck("param", partial(verify._bound_excess, -0.5))
        checks = [_SHARP["real-s3"], param, dict(_SUITE)["bound[real-s3]"]]
        expected = [_alone(check, 300_000, SeedSpec(21, 5)) for check in checks]
        assert pipeline.scan_checks(checks, 300_000, SeedSpec(21, 5), workers=2) == expected
        assert expected[1][0] > 0

    def test_the_suite_matches_each_check_alone(self):
        checks = [check for _, check in _SUITE]
        expected = [_alone(check, 300_000, SeedSpec(11)) for check in checks]
        assert pipeline.scan_checks(checks, 300_000, SeedSpec(11), workers=2) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, TILE + 1, 250_001])
    def test_histograms_in_a_scan_match_each_job_alone(self, n, workers):
        # Histograms of each ensemble scanned with checks of the same seed.
        seed = SeedSpec(21, 5)
        hists = {kind: TileHistogram(kind, 0.02, 0.05) for kind in _KINDS}
        checks = [hists["real-s3"], _SHARP["real-s3"], hists["complex-s7"], _SHARP["zero-mi"],
                  hists["zero-mi"], _SHARP["mi-oracle"], hists["param"]]
        results = pipeline.scan_checks(checks, n, seed, workers)
        for check, result in zip(checks, results):
            if isinstance(check, TileHistogram):
                assert result == _scan_one(check, n, seed)
                assert result.total == n
            else:
                assert result == _alone(check, n, seed)

    def test_a_histogram_and_the_bound_draw_each_normal_once(self, monkeypatch):
        # The ridge check's histogram and bound[real-s3], as ``verify`` scans
        # them: 4 normals per state, where running them apart draws 8.
        n, seed = 300_000, SeedSpec(11)
        checks = [dict(_SUITE)["bound[real-s3]"], TileHistogram("real-s3", 0.01, 0.01)]
        expected = [_alone(checks[0], n, seed),
                    run_histogram_job(Ensemble.REAL_S3, n, 11, 0.01, 0.01, workers=1)]
        drawn = []
        fill = sampling._fill_normal

        def counted_fill(gen, draws):
            drawn.append(draws.size)
            fill(gen, draws)

        for kind, layout in list(sampling._LAYOUTS.items()):
            if layout.fill is fill:
                monkeypatch.setitem(sampling._LAYOUTS, kind, layout._replace(fill=counted_fill))
        assert pipeline.scan_checks(checks, n, seed, workers=1) == expected
        assert sum(drawn) == 4 * n

    @pytest.mark.parametrize("written", ["c", "i"])
    def test_a_check_that_writes_its_pairs_raises(self, written):
        # Every consumer of a tile reads the same (C, I) arrays: none may write them.
        def excess_of_pairs(c, i, out, scratch, mask):
            (c if written == "c" else i)[0] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            _scan_one(TileCheck("real-s3", excess_of_pairs), 1_000, SeedSpec(1))

    def test_nan_excess_is_a_violation(self, monkeypatch):
        # Every excess that is not <= 0 counts; the worst stays finite.
        assert _scan_one(_NAN_CHECK, 1000, SeedSpec(1), workers=1) == (666, 0.25)
        monkeypatch.setitem(verify.CHECKS, "nan", _NAN_CHECK)
        report = verify.run_checks(["nan"], 1000, SeedSpec(1))[0]
        assert not report.passed

    def test_infinite_excess_is_a_violation_but_not_the_worst(self):
        excess = np.array([-np.inf, -1.0, np.inf, 0.5, np.nan])
        total = [0, 0.0]
        pipeline._tally(total, excess, np.empty(excess.size, dtype=bool))
        assert total == [3, 0.5]
