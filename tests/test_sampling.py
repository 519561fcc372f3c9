"""Unit tests for the reproducible ensemble samplers."""

import re

import numpy as np
import pytest
from scipy import stats as sps

from entmi import sampling
from entmi import (
    ConsistencyError,
    DomainError,
    Ensemble,
    SeedSpec,
    concurrence,
    concurrence_polar,
    entanglement_from_concurrence,
    mutual_information,
    probabilities,
    sample_amplitudes,
    stream_generator,
)

ALL_KINDS = list(Ensemble)


def _real(seed, n):
    return sample_amplitudes(Ensemble.REAL_S3, seed, n)


def _complex(seed, n):
    return sample_amplitudes(Ensemble.COMPLEX_S7, seed, n)


def _zero_mi(seed, n):
    return sample_amplitudes(Ensemble.ZERO_MI, seed, n)


def _params(seed, n):
    """Raw (y, alpha, beta) triples of the ``param`` stream."""
    return sampling._take(Ensemble.PARAM, stream_generator(seed), n)


class TestSeeding:
    def test_seed_spec_validates_range(self):
        with pytest.raises(DomainError):
            SeedSpec(-1, 0)
        with pytest.raises(DomainError):
            SeedSpec(0, 2**64)

    @pytest.mark.parametrize("value", [1.5, np.float64(2.7), 1.0, "5", True, None])
    def test_seed_spec_rejects_what_is_not_an_integer(self, value):
        # A float would key Philox as its truncation while comparing unequal to it.
        with pytest.raises(DomainError, match="master_seed .* is not an integer"):
            SeedSpec(value)
        with pytest.raises(DomainError, match="stream_id .* is not an integer"):
            SeedSpec(1, value)

    def test_seed_spec_takes_numpy_integers(self):
        seed = SeedSpec(np.int64(3), np.uint64(4))
        assert seed == SeedSpec(3, 4)
        assert np.array_equal(
            stream_generator(seed).random(8), stream_generator(SeedSpec(3, 4)).random(8)
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_repeat_runs_are_bit_identical(self, kind):
        seed = SeedSpec(123, 5)
        first = sample_amplitudes(kind, seed, 2048)
        second = sample_amplitudes(kind, seed, 2048)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_chunked_take_equals_single_take(self, kind):
        seed = SeedSpec(9, 2)
        whole = sampling._take(kind, stream_generator(seed), 5000)
        gen = stream_generator(seed)
        parts = np.concatenate(
            [sampling._take(kind, gen, count) for count in (1, 999, 2500, 1500)]
        )
        assert np.array_equal(whole, parts)

    def test_distinct_streams_share_no_draws(self):
        a = _real(SeedSpec(77, 0), 1_000_000)
        b = _real(SeedSpec(77, 1), 1_000_000)
        joined = np.ascontiguousarray(np.vstack([a, b]))
        rows = joined.view([("", joined.dtype)] * 4).ravel()
        assert len(np.unique(rows)) == len(rows)


class TestRealSphere:
    def test_unit_norm(self):
        amps = _real(SeedSpec(3, 0), 10_000)
        np.testing.assert_allclose((amps**2).sum(axis=1), 1.0, atol=1e-12)

    def test_real_dtype(self):
        amps = _real(SeedSpec(3, 0), 10)
        assert amps.dtype == np.float64

    def test_single_coordinate_marginals_match(self):
        # Rotation invariance proxy: every coordinate has the same law.
        amps = _real(SeedSpec(4, 0), 1_000_000)
        for other in range(1, 4):
            d = sps.ks_2samp(amps[:, 0], amps[:, other]).statistic
            assert d < 0.01

    def test_flat_concurrence_density(self):
        amps = _real(SeedSpec(6, 0), 1_000_000)
        c = concurrence(amps)
        counts, _ = np.histogram(c, bins=100, range=(0.0, 1.0))
        density = counts / (len(c) * 0.01)
        assert np.max(np.abs(density - 1.0)) < 0.05

    def test_bound_holds_on_every_sample(self):
        amps = _real(SeedSpec(8, 0), 1_000_000)
        info = mutual_information(probabilities(amps))
        limit = entanglement_from_concurrence(concurrence(amps))
        assert np.count_nonzero(info > limit + 1e-9) == 0


class TestComplexSphere:
    def test_unit_norm(self):
        amps = _complex(SeedSpec(3, 1), 10_000)
        assert amps.dtype == np.complex128
        np.testing.assert_allclose(
            (amps.real**2 + amps.imag**2).sum(axis=1), 1.0, atol=1e-12
        )

    def test_combined_phase_is_uniform(self):
        amps = _complex(SeedSpec(5, 0), 1_000_000)
        theta = (
            np.angle(amps[:, 0]) + np.angle(amps[:, 3])
            - np.angle(amps[:, 1]) - np.angle(amps[:, 2])
        ) % (2 * np.pi)
        d = sps.kstest(theta, "uniform", args=(0, 2 * np.pi)).statistic
        assert d < 0.01

    def test_polar_concurrence_matches(self):
        amps = _complex(SeedSpec(7, 0), 100_000)
        theta = (
            np.angle(amps[:, 0]) + np.angle(amps[:, 3])
            - np.angle(amps[:, 1]) - np.angle(amps[:, 2])
        )
        moduli = np.abs(amps)
        polar = concurrence_polar(
            moduli[:, 0], moduli[:, 1], moduli[:, 2], moduli[:, 3], theta
        )
        np.testing.assert_allclose(polar, concurrence(amps), atol=1e-12)


class TestParams:
    def test_ranges(self):
        draws = _params(SeedSpec(2, 0), 100_000)
        y, alpha, beta = draws[:, 0], draws[:, 1], draws[:, 2]
        assert y.min() >= 0 and y.max() <= 1
        assert alpha.min() >= 0 and alpha.max() < 2 * np.pi
        assert beta.min() >= 0 and beta.max() < 2 * np.pi

    def test_weight_histogram_is_uniform(self):
        draws = _params(SeedSpec(2, 1), 1_000_000)
        counts, _ = np.histogram(draws[:, 0], bins=50, range=(0, 1))
        expected = len(draws) / 50
        sigma = np.sqrt(expected * (1 - 1 / 50))
        assert np.max(np.abs(counts - expected)) < 5 * sigma

    def test_mapped_concurrence_density_is_flat(self):
        amps = sample_amplitudes(Ensemble.PARAM, SeedSpec(21, 0), 1_000_000)
        c = concurrence(amps)
        counts, _ = np.histogram(c, bins=100, range=(0.0, 1.0))
        density = counts / (len(c) * 0.01)
        assert np.max(np.abs(density - 1.0)) < 0.05


class TestZeroMIFamily:
    def test_hand_built_member(self):
        # (p, q, r, s) = (1, 1, 1, 1) normalized gives (1/2, 1/2, 1/2, -1/2).
        p = q = r = s = 1 / np.hypot(1.0, 1.0)
        amps = np.array([p * q, p * s, r * q, -r * s])
        np.testing.assert_allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=1e-15)
        assert mutual_information(probabilities(amps)) <= 1e-12
        assert concurrence(amps) == pytest.approx(1.0, abs=1e-12)

    def test_cross_products_match_exactly(self):
        amps = _zero_mi(SeedSpec(13, 0), 100_000)
        # |ad| = |bc| is what kills the mutual information.
        np.testing.assert_allclose(
            np.abs(amps[:, 0] * amps[:, 3]),
            np.abs(amps[:, 1] * amps[:, 2]),
            rtol=1e-12,
        )

    def test_information_vanishes(self):
        amps = _zero_mi(SeedSpec(13, 1), 100_000)
        info = mutual_information(probabilities(amps))
        assert info.max() <= 1e-12

    def test_concurrence_generically_positive(self):
        amps = _zero_mi(SeedSpec(13, 2), 100_000)
        assert np.all(concurrence(amps) > 0.0)

    def test_unit_norm(self):
        amps = _zero_mi(SeedSpec(13, 3), 10_000)
        np.testing.assert_allclose((amps**2).sum(axis=1), 1.0, atol=1e-12)


class TestDispatch:
    def test_param_kind_maps_to_amplitudes(self):
        amps = sample_amplitudes(Ensemble.PARAM, SeedSpec(1, 0), 100)
        assert amps.shape == (100, 4)
        np.testing.assert_allclose((amps**2).sum(axis=1), 1.0, atol=1e-12)

    def test_string_kind_accepted(self):
        amps = sample_amplitudes("real-s3", SeedSpec(1, 0), 10)
        assert amps.shape == (10, 4)

    def test_take_validates_count(self):
        with pytest.raises(DomainError, match="^sample count must be at least 1$"):
            sample_amplitudes(Ensemble.REAL_S3, SeedSpec(1, 0), 0)

    @pytest.mark.parametrize("n", [2.7, np.float64(3.0), True, "3"])
    def test_count_must_be_an_integer(self, n):
        # 2.7 drew 2 states, and True one.
        with pytest.raises(DomainError, match="^sample count .* is not an integer$"):
            sample_amplitudes(Ensemble.REAL_S3, SeedSpec(1, 0), n)

    def test_count_may_be_a_numpy_integer(self):
        amps = sample_amplitudes(Ensemble.REAL_S3, SeedSpec(1, 0), np.int64(3))
        assert np.array_equal(amps, sample_amplitudes(Ensemble.REAL_S3, SeedSpec(1, 0), 3))


# -- degenerate draws --------------------------------------------------------
#
# The finish steps test rows by the norm they compute anyway, and a flagged
# row is an error.  The reference below is the exact rule: every |x| below
# 1e-12.

DEGENERATE_TOL = 1e-12
DEGENERATE = (
    "a drawn state lies within about 1e-12 of zero and cannot be normalized; use another seed"
)


def _reference_degenerate(rows):
    return np.flatnonzero(np.abs(rows).max(axis=1) < DEGENERATE_TOL)


def _hand_built_rows(width, rng):
    """Degenerate and near-degenerate rows of ``width`` components.

    Degenerate: exact zeros; every |x| < 1e-12 with sum(x^2) = 1.5e-24;
    every |x| one ulp below 1e-12; subnormal components.  Not degenerate:
    one component one ulp above 1e-12 (either sign) with the rest tiny or
    zero; an ordinary Gaussian row.
    """
    below = np.nextafter(DEGENERATE_TOL, 0.0)
    above = np.nextafter(DEGENERATE_TOL, 1.0)
    small = np.sqrt(1.5e-24 / width)
    signs = np.where(np.arange(width) % 2, -1.0, 1.0)
    rows = [
        np.zeros(width),
        small * signs,
        below * signs,
        np.full(width, 5e-321),
        np.r_[above, np.full(width - 1, small)],
        np.r_[np.zeros(width - 1), -above],
        rng.standard_normal(width),
    ]
    return np.array(rows)


def _assert_each_row_raises(kind, rows, indices):
    """``kind``'s finish step, given each of ``rows[indices]`` as a tile of its own, raises."""
    finish = sampling._LAYOUTS[kind].finish
    for index in indices:
        with pytest.raises(ConsistencyError, match=f"^{re.escape(DEGENERATE)}$"):
            finish(rows[index : index + 1].copy(), np.empty((4, 1)))


class TestDegenerateRows:
    @pytest.mark.parametrize("width", [4, 8])
    def test_sphere_finish_rejects_reference_rows(self, width):
        kind = Ensemble.REAL_S3 if width == 4 else Ensemble.COMPLEX_S7
        rows = _hand_built_rows(width, np.random.default_rng(width))
        expected = _reference_degenerate(rows)
        assert expected.tolist() == [0, 1, 2, 3]
        _assert_each_row_raises(kind, rows, expected)

    @pytest.mark.parametrize("kind", ["left", "right"])
    def test_zero_mi_finish_rejects_reference_rows(self, kind):
        rng = np.random.default_rng(2)
        halves = _hand_built_rows(2, rng)
        other = rng.standard_normal((len(halves), 2))
        mine, theirs = ([0, 2], [1, 3]) if kind == "left" else ([1, 3], [0, 2])
        rows = np.empty((len(halves), 4))
        rows[:, mine] = halves
        rows[:, theirs] = other
        expected = _reference_degenerate(halves)
        assert expected.tolist() == [0, 1, 2, 3]
        _assert_each_row_raises(Ensemble.ZERO_MI, rows, expected)

    def test_squared_norm_matches_row_sums(self):
        rng = np.random.default_rng(3)
        for width in (4, 8):
            scale = rng.uniform(0.1, 10.0, (10_000, width))
            draws = rng.standard_normal((10_000, width)) * scale
            out, scratch = np.empty(len(draws)), np.empty((3, len(draws)))
            assert np.array_equal(
                sampling._squared_norm(draws, out, scratch), (draws * draws).sum(axis=1)
            )
