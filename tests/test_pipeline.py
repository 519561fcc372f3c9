"""Unit tests for the block-parallel sampling jobs."""

import numpy as np
import pytest

from entmi import (
    DomainError,
    Ensemble,
    JointHistogram,
    SeedSpec,
    concurrence,
    entanglement_from_concurrence,
    mutual_information,
    observables,
    probabilities,
    run_bound_scan,
    run_histogram_job,
    sample_amplitudes,
)
from entmi.pipeline import block_plan, resolve_workers


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

    def test_resolve_workers(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        with pytest.raises(DomainError):
            resolve_workers(0)


class TestObservables:
    def test_matches_scalar_route(self):
        amps = sample_amplitudes(Ensemble.COMPLEX_S7, SeedSpec(3, 0), 50)
        c, i = observables(amps)
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
            c, i = observables(amps)
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
        violations, excess = run_bound_scan(
            Ensemble.REAL_S3, 100_000, 13, workers=2, block_size=25_000
        )
        assert violations == 0
        assert excess == 0.0

    def test_no_violations_on_complex_ensemble(self):
        violations, excess = run_bound_scan(
            Ensemble.COMPLEX_S7, 100_000, 13, workers=1
        )
        assert violations == 0
        assert excess == 0.0

    def test_deterministic_across_workers(self):
        first = run_bound_scan(Ensemble.REAL_S3, 50_000, 3, workers=1, block_size=10_000)
        second = run_bound_scan(Ensemble.REAL_S3, 50_000, 3, workers=2, block_size=10_000)
        assert first == second

    def test_worst_excess_is_the_block_maximum_for_any_worker_count(self):
        # A negative tolerance turns every sample into a violation, so the
        # reported maximum is a genuine float that every grouping must keep.
        n, block = 50_000, 7_000
        expected = -np.inf
        for stream_id, count in block_plan(n, block):
            amps = sample_amplitudes(Ensemble.COMPLEX_S7, SeedSpec(3, stream_id), count)
            c, i = observables(amps)
            excess = i - entanglement_from_concurrence(c) + 1.0
            expected = max(expected, float(excess.max()))
        for workers in (1, 2, 3):
            assert run_bound_scan(
                Ensemble.COMPLEX_S7, n, 3, tol=-1.0, workers=workers, block_size=block
            ) == (n, expected)
