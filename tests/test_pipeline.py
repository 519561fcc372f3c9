"""Unit tests for the block-parallel sampling jobs."""

import functools
import itertools
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
from entmi.pipeline import TileCheck, TileHistogram, block_plan, resolve_workers, tile_excess
from entmi.states import xlog2


def _observables(amps):
    """(C, I) arrays of a batch of states through the public functions."""
    return concurrence(amps), mutual_information(probabilities(amps))


def _bound_check(kind, tol=verify.BOUND_TOL):
    """The check that ``check_bound`` scans, with its tolerance exposed."""
    return TileCheck(kind.value, partial(verify._bound_excess, tol))


def _scan_one(check, n, seed, workers=1, block_size=pipeline.BLOCK_SIZE):
    """(violations, worst) of ``check`` scanned alone."""
    return pipeline.scan_checks([(check, seed)], n, workers, block_size)[0]


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
        violations, excess = _scan_one(
            _bound_check(Ensemble.REAL_S3), 100_000, SeedSpec(13),
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
            _scan_one(
                _bound_check(Ensemble.REAL_S3), 50_000, SeedSpec(3),
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
            assert _scan_one(
                _bound_check(Ensemble.COMPLEX_S7, tol=-1.0), n, SeedSpec(3),
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
    """The (C, I) pairs that ``tile_excess`` hands a check, tile after tile."""
    tiles = []

    def record(c, i, out, scratch, mask):
        tiles.append((c.copy(), i.copy()))
        out[...] = 0.0

    tile_excess(kind.value, record, count)(seed, count)
    return tuple(np.concatenate(pairs) for pairs in zip(*tiles))


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
        n = sum(count for _, count in blocks)
        counts = run_histogram_job(kind, n, 8, delta, delta, base_stream=5, workers=1).counts
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
        # The finish step of real-s3 writes a bad state into one row of the block.
        row = 3 * TILE + 7
        layout = sampling._LAYOUTS[Ensemble.REAL_S3]
        finished = [0]

        def corrupted(rows, norms, scratch):
            layout.finish(rows, norms, scratch)
            if finished[0] <= row < finished[0] + len(rows):
                rows[row - finished[0]] = row_values
            finished[0] += len(rows)

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


def _scan_two_blocks(checks):
    checks = [(check, SeedSpec(7)) for check in checks]
    pipeline._scan_share((checks, [(0, 250_000), (1, 250_000)]))


def _histogram_two_blocks(kind):
    _scan_two_blocks([TileHistogram(kind, 0.01, 0.01)])


def _bound_and_histogram_two_blocks():
    _scan_two_blocks([TileHistogram("real-s3", 0.01, 0.01), _bound_check(Ensemble.REAL_S3)])


def _excess_two_blocks(make_excess):
    excess_of = make_excess(250_000)
    for stream_id in (0, 1):
        excess_of(SeedSpec(7, stream_id), 250_000)


def _suite_two_blocks():
    _scan_two_blocks([check for _, check in _SUITE])


class TestShareMemory:
    # tracemalloc peaks of one share of two 250k blocks.  When each block
    # was drawn whole they were, in MiB: 13.4 and 21.4 for the real-s3 and
    # complex-s7 histograms, 13.4 and 21.3 for their bound checks, 15.3 for
    # zero-mi and 7.7 for mi-oracle.  Drawn one tile at a time, a share
    # holds one tile of each buffer plus one int64 or float64 array per
    # block (2 MB), which stays under 6 MiB.  The suite's four checks scanned
    # together share their tile buffers and keep no per-block array; the
    # bound check scanned with a histogram shares the histogram's buffers.
    # What seeding Philox imports on first use (secrets, hmac: about 1 MiB)
    # is imported before tracing, so the peak is the share's alone.
    @pytest.mark.parametrize(
        "run",
        [
            partial(_histogram_two_blocks, "real-s3"),
            partial(_histogram_two_blocks, "complex-s7"),
            partial(_excess_two_blocks, _bound_check(Ensemble.REAL_S3)),
            partial(_excess_two_blocks, _bound_check(Ensemble.COMPLEX_S7)),
            partial(
                _excess_two_blocks,
                partial(tile_excess, "zero-mi", verify._zero_mi_excess),
            ),
            partial(_excess_two_blocks, verify._angle_oracle_excess),
            _suite_two_blocks,
            _bound_and_histogram_two_blocks,
        ],
        ids=["histogram-real-s3", "histogram-complex-s7", "bound-real-s3",
             "bound-complex-s7", "zero-mi", "mi-oracle", "suite",
             "bound-real-s3+histogram"],
    )
    def test_peak_is_at_most_6_mib(self, run):
        sampling.stream_generator(SeedSpec(0))
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


# -- several checks in one scan ------------------------------------------------
#
# A negative tolerance on the bound turns part of each block into violations,
# so the counts and the worst excess compared below are not all zero.  The
# bound's excess on zero-mi states depends on their concurrence, so it
# checks the zero-mi rows read from a shared tile too.

_SUITE = [
    verify.bound_check(Ensemble.REAL_S3),
    verify.bound_check(Ensemble.COMPLEX_S7),
    verify.ZERO_MI_CHECK,
    verify.ANGLE_ORACLE_CHECK,
]

_SHARP = {
    "real-s3": pipeline.TileCheck("real-s3", partial(verify._bound_excess, -0.5)),
    "complex-s7": pipeline.TileCheck("complex-s7", partial(verify._bound_excess, -0.5)),
    "zero-mi": pipeline.TileCheck("zero-mi", partial(verify._bound_excess, -0.5)),
    "mi-oracle": verify._angle_oracle_excess,
}

_KINDS = [kind.value for kind in Ensemble]

_SELECTIONS = [
    names
    for size in range(1, len(_SHARP) + 1)
    for names in itertools.combinations(sorted(_SHARP), size)
]


def _alone(check, n, seed):
    """(violations, worst) of ``check`` from its own make_excess, block by block."""
    violations, worst = 0, 0.0
    for index, count in block_plan(n):
        excess = check(count)(SeedSpec(seed.master_seed, seed.stream_id + index), count)
        violations += int(np.count_nonzero(~(excess <= 0.0)))
        worst = max(worst, float(excess.max()))
    return violations, worst


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


def _count_blocks_drawn_alone(monkeypatch):
    """The ensembles of the blocks the scan recomputes alone, as they start."""
    alone = []
    sample_block = pipeline.SampleBlock

    def counted(kind, capacity):
        alone.append(Ensemble(kind).value)
        return sample_block(kind, capacity)

    monkeypatch.setattr(pipeline, "SampleBlock", counted)
    return alone


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
            [(_SHARP[name], SeedSpec(21, 5)) for name in names], n, workers
        )
        assert results == [_sharp_alone(name, n) for name in names]

    @pytest.mark.parametrize("name", ["complex-s7", "real-s3", "zero-mi"])
    def test_the_sharp_checks_are_not_vacuous(self, name):
        violations, worst = _sharp_alone(name, TILE + 1)
        assert 0 < violations < TILE + 1
        assert worst > 0.0

    def test_checks_of_other_seeds_keep_their_streams(self):
        checks = [(_SHARP["real-s3"], SeedSpec(21, 5)), (_SHARP["real-s3"], SeedSpec(21, 6)),
                  (_SHARP["complex-s7"], SeedSpec(22, 5))]
        expected = [_alone(check, 300_000, seed) for check, seed in checks]
        assert pipeline.scan_checks(checks, 300_000, workers=1) == expected

    def test_checks_of_one_ensemble_and_seed_share_a_tile(self):
        # Two real-s3 checks read one 4-column fill; param draws uniforms.
        param = pipeline.TileCheck("param", partial(verify._bound_excess, -0.5))
        checks = [(_SHARP["real-s3"], SeedSpec(21, 5)), (param, SeedSpec(21, 5)),
                  (dict(_SUITE)["bound[real-s3]"], SeedSpec(21, 5))]
        expected = [_alone(check, 300_000, seed) for check, seed in checks]
        assert pipeline.scan_checks(checks, 300_000, workers=2) == expected
        assert expected[1][0] > 0

    def test_the_suite_matches_each_check_alone(self):
        checks = [(check, SeedSpec(11)) for _, check in _SUITE]
        expected = [_alone(check, 300_000, SeedSpec(11)) for check, _ in checks]
        assert pipeline.scan_checks(checks, 300_000, workers=2) == expected

    def test_a_flagged_tile_recomputes_that_block_alone(self, monkeypatch):
        # A screen that flags a row of every tile from the third on: the
        # exact test then finds nothing to redraw, so the values stay those
        # of the unpatched checks, but each block of zero-mi is recomputed.
        expected = [_sharp_alone(name, 600_000) for name in sorted(_SHARP)]
        layout = sampling._LAYOUTS[Ensemble.ZERO_MI]
        screen = layout.screen
        calls = []

        def flag_later_tiles(draws, norms, scratch):
            rows = screen(draws, norms, scratch)
            calls.append(len(draws))
            return np.array([len(draws) - 1]) if len(calls) > 2 else rows

        alone = _count_blocks_drawn_alone(monkeypatch)
        monkeypatch.setitem(
            sampling._LAYOUTS, Ensemble.ZERO_MI, layout._replace(screen=flag_later_tiles)
        )
        checks = [(_SHARP[name], SeedSpec(21, 5)) for name in sorted(_SHARP)]
        assert pipeline.scan_checks(checks, 600_000, workers=1) == expected
        assert alone == ["zero-mi"] * 3

    @pytest.mark.parametrize("row", [0, 3 * TILE + 5, 125_000 - 1])
    def test_degenerate_rows_are_redrawn_as_each_check_alone_redraws_them(
        self, monkeypatch, row
    ):
        # Zeroed rows of every block's stream are degenerate states: each
        # Gaussian check then redraws its block as it does alone.
        monkeypatch.setattr(
            pipeline, "stream_generator",
            lambda s: ZeroedRow(sampling.stream_generator(s), row),
        )
        checks = [(_SHARP[name], SeedSpec(21, 5)) for name in sorted(_SHARP)]
        expected = [_alone(check, 250_001, seed) for check, seed in checks]
        alone = _count_blocks_drawn_alone(monkeypatch)
        assert pipeline.scan_checks(checks, 250_001, workers=1) == expected
        assert {"complex-s7", "real-s3", "zero-mi"} == set(alone)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, TILE + 1, 250_001])
    def test_histograms_in_a_scan_match_each_job_alone(self, n, workers):
        # Histograms of each ensemble scanned with checks of the same seed.
        seed = SeedSpec(21, 5)
        hists = {kind: TileHistogram(kind, 0.02, 0.05) for kind in _KINDS}
        checks = [(hists["real-s3"], seed), (_SHARP["real-s3"], seed),
                  (hists["complex-s7"], seed), (_SHARP["zero-mi"], seed),
                  (hists["zero-mi"], seed), (_SHARP["mi-oracle"], seed), (hists["param"], seed)]
        results = pipeline.scan_checks(checks, n, workers)
        for (check, _), result in zip(checks, results):
            if isinstance(check, TileHistogram):
                alone = run_histogram_job(check.kind, n, 21, 0.02, 0.05, 1, base_stream=5)
                assert result == alone
                assert result.total == n
            else:
                assert result == _alone(check, n, seed)

    def test_a_histogram_and_the_bound_draw_each_normal_once(self, monkeypatch):
        # The ridge check's histogram and bound[real-s3], as ``verify`` scans
        # them: 4 normals per state, where running them apart draws 8.
        n, seed = 300_000, SeedSpec(11)
        checks = [(dict(_SUITE)["bound[real-s3]"], seed), (TileHistogram("real-s3", 0.01, 0.01), seed)]
        expected = [_alone(checks[0][0], n, seed),
                    run_histogram_job(Ensemble.REAL_S3, n, 11, 0.01, 0.01, workers=1)]
        drawn = []
        fill = sampling._fill_normal

        def counted_fill(gen, draws):
            drawn.append(draws.size)
            fill(gen, draws)

        for kind, layout in list(sampling._LAYOUTS.items()):
            if layout.fill is fill:
                monkeypatch.setitem(sampling._LAYOUTS, kind, layout._replace(fill=counted_fill))
        assert pipeline.scan_checks(checks, n, workers=1) == expected
        assert sum(drawn) == 4 * n

    @pytest.mark.parametrize("row", [0, 3 * TILE + 5])
    def test_degenerate_rows_are_redrawn_for_histograms_too(self, monkeypatch, row):
        # A flagged block is recomputed alone for every consumer of its
        # ensemble: the histograms match the whole-block reference.
        monkeypatch.setattr(
            pipeline, "stream_generator",
            lambda s: ZeroedRow(sampling.stream_generator(s), row),
        )
        n, seed = 250_001, SeedSpec(21, 5)
        checks = [(TileHistogram("real-s3", 0.01, 0.01), seed), (_SHARP["real-s3"], seed),
                  (TileHistogram("complex-s7", 0.01, 0.01), seed)]
        expected = {}
        for kind in (Ensemble.REAL_S3, Ensemble.COMPLEX_S7):
            expected[kind.value] = sum(
                _reference_counts(*_reference_observables(_reference_amplitudes(
                    kind, ZeroedRow(sampling.stream_generator(SeedSpec(21, 5 + j)), row), count
                )), 0.01)
                for j, count in block_plan(n)
            )
        check = _alone(_SHARP["real-s3"], n, seed)
        alone = _count_blocks_drawn_alone(monkeypatch)
        real, tally, complex_ = pipeline.scan_checks(checks, n, workers=1)
        assert np.array_equal(real.counts, expected["real-s3"])
        assert np.array_equal(complex_.counts, expected["complex-s7"])
        assert tally == check
        assert {"complex-s7", "real-s3"} == set(alone)

    def test_nan_excess_is_a_violation(self):
        # Every excess that is not <= 0 counts; the worst stays finite.
        assert _scan_one(_NAN_CHECK, 1000, SeedSpec(1), workers=1) == (666, 0.25)
        report = verify.run_checks([("nan", _NAN_CHECK)], 1000, SeedSpec(1))[0]
        assert not report.passed

    def test_infinite_excess_is_a_violation_but_not_the_worst(self):
        excess = np.array([-np.inf, -1.0, np.inf, 0.5, np.nan])
        total = [0, 0.0]
        pipeline._tally(total, excess)
        assert total == [3, 0.5]
