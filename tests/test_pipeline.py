"""Unit tests for the block-parallel sampling jobs."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from entmi import (
    ConsistencyError,
    DomainError,
    Ensemble,
    JointHistogram,
    OutOfRangeError,
    SeedSpec,
    bin_count,
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
from entmi.pipeline import block_plan, resolve_workers, scan_excess, tile_excess
from entmi.states import xlog2


def _observables(amps):
    """(C, I) arrays of a batch of states through the public functions."""
    return concurrence(amps), mutual_information(probabilities(amps))


def _bound_excess(kind, tol=verify.BOUND_TOL):
    """The ``make_excess`` that ``check_bound`` scans, with its tolerance exposed."""
    return partial(tile_excess, kind.value, partial(verify._bound_excess, tol))


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

    @pytest.mark.parametrize("seed,n", [(-1, 100), (2**64, 100), (0, 0)])
    def test_job_rejects_bad_input_before_any_pool(self, monkeypatch, seed, n):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(pipeline.multiprocessing, "Pool", no_pool)
        with pytest.raises(DomainError):
            run_histogram_job(
                Ensemble.REAL_S3, n, seed, 0.01, 0.01, workers=2, block_size=10
            )

    def test_resolve_workers(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        with pytest.raises(DomainError):
            resolve_workers(0)


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
    def test_worker_count_is_irrelevant(self):
        serial = run_histogram_job(
            Ensemble.REAL_S3, 10_000, 42, 0.02, 0.02, workers=1, block_size=1000
        )
        parallel = run_histogram_job(
            Ensemble.REAL_S3, 10_000, 42, 0.02, 0.02, workers=2, block_size=1000
        )
        assert serial == parallel

    def test_repeat_runs_identical(self):
        first = run_histogram_job(
            Ensemble.COMPLEX_S7, 4_000, 7, 0.05, 0.05, workers=2, block_size=1_000
        )
        second = run_histogram_job(
            Ensemble.COMPLEX_S7, 4_000, 7, 0.05, 0.05, workers=2, block_size=1_000
        )
        assert first == second

    def test_matches_manual_accumulation(self):
        n, block = 5_000, 1_024
        job = run_histogram_job(
            Ensemble.PARAM, n, 11, 0.05, 0.05, workers=2, block_size=block
        )
        manual = JointHistogram(0.05, 0.05)
        for stream_id, count in block_plan(n, block):
            amps = sample_amplitudes(Ensemble.PARAM, SeedSpec(11, stream_id), count)
            c, i = _observables(amps)
            manual.accumulate_many(c, i)
        assert job == manual

    def test_prefix_property(self):
        short = run_histogram_job(
            Ensemble.REAL_S3, 2_000, 5, 0.1, 0.1, workers=1, block_size=1000
        )
        longer = run_histogram_job(
            Ensemble.REAL_S3, 3_000, 5, 0.1, 0.1, workers=1, block_size=1000
        )
        tail = run_histogram_job(
            Ensemble.REAL_S3, 1_000, 5, 0.1, 0.1, workers=1,
            block_size=1000, base_stream=2,
        )
        assert short.merge(tail) == longer

    def test_total_matches_request(self):
        job = run_histogram_job(
            Ensemble.ZERO_MI, 3_333, 1, 0.1, 0.1, workers=2, block_size=1000
        )
        assert job.total == 3_333
        assert int(job.counts.sum()) == 3_333


class TestBoundScan:
    def test_no_violations_on_real_ensemble(self):
        violations, excess = scan_excess(
            _bound_excess(Ensemble.REAL_S3), 100_000, SeedSpec(13),
            workers=2, block_size=25_000,
        )
        assert violations == 0
        assert excess == 0.0

    def test_no_violations_on_complex_ensemble(self):
        report = check_bound(100_000, SeedSpec(13), Ensemble.COMPLEX_S7, workers=1)
        assert report.violations == 0
        assert report.max_violation == 0.0

    def test_deterministic_across_workers(self):
        first, second = (
            scan_excess(
                _bound_excess(Ensemble.REAL_S3), 50_000, SeedSpec(3),
                workers=workers, block_size=10_000,
            )
            for workers in (1, 2)
        )
        assert first == second

    def test_worst_excess_is_the_block_maximum_for_any_worker_count(self):
        # A negative tolerance turns every sample into a violation, so the
        # reported maximum is a genuine float that every grouping must keep.
        n, block = 50_000, 7_000
        expected = -np.inf
        for stream_id, count in block_plan(n, block):
            amps = sample_amplitudes(Ensemble.COMPLEX_S7, SeedSpec(3, stream_id), count)
            c, i = _observables(amps)
            excess = i - entanglement_from_concurrence(c) + 1.0
            expected = max(expected, float(excess.max()))
        for workers in (1, 2, 3):
            assert scan_excess(
                _bound_excess(Ensemble.COMPLEX_S7, tol=-1.0), n, SeedSpec(3),
                workers=workers, block_size=block,
            ) == (n, expected)


# -- the tiled block kernel ----------------------------------------------------
#
# The kernel draws, normalizes, computes C and I and bins a block one tile at
# a time.  The references below are the whole-block path as it was first
# written: one generator call per block, a scan of every row per redraw
# pass, row-wise norms, and C, I and bin indices over the whole block.

TILE = sampling._TILE_ROWS
DEGENERATE_TOL = 1e-12


def _reference_amplitudes(kind, gen, n):
    if kind is Ensemble.PARAM:
        u = gen.random((n, 3))
        u[:, 1] *= 2.0 * np.pi
        u[:, 2] *= 2.0 * np.pi
        return params_to_amplitudes(u[:, 0], u[:, 1], u[:, 2])
    width = 8 if kind is Ensemble.COMPLEX_S7 else 4
    halves = [[0, 2], [1, 3]] if kind is Ensemble.ZERO_MI else [list(range(width))]
    draws = gen.standard_normal((n, width))
    while True:
        bad = np.unique(np.concatenate([
            np.flatnonzero(np.abs(draws[:, cols]).max(axis=1) < DEGENERATE_TOL)
            for cols in halves
        ]))
        if bad.size == 0:
            break
        draws[bad] = gen.standard_normal((bad.size, width))
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
    row ``k < count`` is row ``k`` of a block of ``count`` and row
    ``count + j`` is row ``j`` of the redraws that follow it.  ``cols``
    picks the columns zeroed, the whole row by default.
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


def _tiled_observables(kind, seed, count):
    kernel = pipeline._BlockKernel(kind, count)
    c_all, i_all = np.full(count, np.nan), np.full(count, np.nan)
    for start, stop, c, i in kernel.pairs(seed, count):
        c_all[start:stop] = c
        i_all[start:stop] = i
    return c_all, i_all


class TestTiledKernel:
    @pytest.mark.parametrize("kind", list(Ensemble))
    @pytest.mark.parametrize(
        "count,zeroed",
        [(1, None), (1_000, None), (TILE, None), (250_000, None),
         (TILE + 9, TILE + 3), (250_000, 7 * TILE + 11)],
    )
    def test_matches_whole_block_reference(self, monkeypatch, kind, count, zeroed):
        seed = SeedSpec(31, 4)
        monkeypatch.setattr(
            pipeline, "stream_generator",
            lambda s: ZeroedRow(sampling.stream_generator(s), zeroed),
        )
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
        counts = pipeline._histogram_share((kind.value, 8, delta, delta, blocks))
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

    @pytest.mark.parametrize(
        "row_values,error,message",
        [
            ([1.0, 0.0, 0.0, 1.0], ConsistencyError, "concurrence"),
            ([2.0, 0.0, 0.0, 0.0], ConsistencyError, "mutual information"),
            # MI of (1/e, 0, 0, 1/e) is 2 log2(e) / e = 1.06 bits.
            ([np.exp(-0.5), 0.0, 0.0, np.exp(-0.5)], OutOfRangeError, "mutual"),
        ],
    )
    def test_bad_row_in_a_later_tile_raises(self, monkeypatch, row_values, error, message):
        row = 3 * TILE + 7
        tiles = sampling.SampleBlock.tiles

        def corrupted(self, gen, count):
            for start, stop, values in tiles(self, gen, count):
                if start <= row < stop:
                    values[row - start] = row_values
                yield start, stop, values

        monkeypatch.setattr(sampling.SampleBlock, "tiles", corrupted)
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
    """A block drawn tile by tile consumes its generator as the whole-block reference.

    Zeroed rows make the block's first flagged tile draw the rest of the
    block at once and redraw over it; ``DRAWN`` and later rows belong to
    the redraws, so zeroing them makes a redraw degenerate again.
    """

    @staticmethod
    def _tiled(kind, gen, count):
        """The block's amplitudes, and whether it drew the rest of the block at once."""
        block = sampling.SampleBlock(kind, count)
        draw_rest = block._draw_rest
        calls = []

        def counted(*args):
            calls.append(args)
            return draw_rest(*args)

        block._draw_rest = counted
        tiles = [values.copy() for _, _, values in block.tiles(gen, count)]
        return sampling._as_amplitudes(block.kind, np.concatenate(tiles)), bool(calls)

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

    def _check(self, kind, rows, cols, falls_back):
        seed = SeedSpec(19, 3)
        tiled_gen = ZeroedRow(sampling.stream_generator(seed), rows, cols)
        amps, held = self._tiled(kind, tiled_gen, DRAWN)
        ref_gen = ZeroedRow(sampling.stream_generator(seed), rows, cols)
        ref = _reference_amplitudes(kind, ref_gen, DRAWN)
        assert held == bool(falls_back)
        assert np.array_equal(amps, ref)
        assert _state(tiled_gen) == _state(ref_gen)
        assert _state(tiled_gen) != _state(sampling.stream_generator(seed))

    def test_later_blocks_reuse_one_tile(self):
        block = sampling.SampleBlock(Ensemble.REAL_S3, DRAWN)
        gen = ZeroedRow(sampling.stream_generator(SeedSpec(19, 3)), [2 * TILE])
        for _ in block.tiles(gen, DRAWN):
            pass
        seed = SeedSpec(19, 4)
        later = [v.copy() for _, _, v in block.tiles(sampling.stream_generator(seed), DRAWN)]
        assert block._draws.shape == (TILE, 4)
        # The fallback's whole-block buffer does not leak into the next block.
        expected = sampling.sample_amplitudes(Ensemble.REAL_S3, seed, DRAWN)
        assert np.array_equal(np.concatenate(later), expected)


def _histogram_two_blocks(kind):
    pipeline._histogram_share((kind, 7, 0.01, 0.01, [(0, 250_000), (1, 250_000)]))


def _excess_two_blocks(make_excess):
    excess_of = make_excess(250_000)
    for stream_id in (0, 1):
        excess_of(SeedSpec(7, stream_id), 250_000)


class TestShareMemory:
    # tracemalloc peaks of one share of two 250k blocks.  When each block
    # was drawn whole they were, in MiB: 13.4 and 21.4 for the real-s3 and
    # complex-s7 histograms, 13.4 and 21.3 for their bound checks, 15.3 for
    # zero-mi and 7.7 for mi-oracle.  Drawn one tile at a time, a share
    # holds one tile of each buffer plus one int64 or float64 array per
    # block (2 MB), which stays under 6 MiB.
    @pytest.mark.parametrize(
        "run",
        [
            partial(_histogram_two_blocks, "real-s3"),
            partial(_histogram_two_blocks, "complex-s7"),
            partial(_excess_two_blocks, _bound_excess(Ensemble.REAL_S3)),
            partial(_excess_two_blocks, _bound_excess(Ensemble.COMPLEX_S7)),
            partial(
                _excess_two_blocks,
                partial(tile_excess, "zero-mi", verify._zero_mi_excess),
            ),
            partial(_excess_two_blocks, verify._angle_oracle_excess),
        ],
        ids=["histogram-real-s3", "histogram-complex-s7", "bound-real-s3",
             "bound-complex-s7", "zero-mi", "mi-oracle"],
    )
    def test_peak_is_at_most_6_mib(self, run):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20
