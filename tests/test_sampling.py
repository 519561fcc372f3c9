"""Unit tests for the reproducible ensemble samplers."""

import numpy as np
import pytest
from scipy import stats as sps

from entmi import sampling
from entmi import (
    DomainError,
    Ensemble,
    EnsembleSpec,
    SeedSpec,
    StateStream,
    concurrence,
    concurrence_polar,
    entanglement_from_concurrence,
    mutual_information,
    probabilities,
    sample_amplitudes,
    sample_complex_sphere,
    sample_real_sphere,
    sample_uniform_params,
    sample_zero_mi_family,
)

ALL_KINDS = list(Ensemble)


class TestSeeding:
    def test_seed_spec_validates_range(self):
        with pytest.raises(DomainError):
            SeedSpec(-1, 0)
        with pytest.raises(DomainError):
            SeedSpec(0, 2**64)

    def test_ensemble_spec_validates_count(self):
        with pytest.raises(DomainError):
            EnsembleSpec(Ensemble.REAL_S3, 0, SeedSpec(1))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_repeat_runs_are_bit_identical(self, kind):
        seed = SeedSpec(123, 5)
        first = StateStream(kind, seed).take(2048)
        second = StateStream(kind, seed).take(2048)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_chunked_take_equals_single_take(self, kind):
        seed = SeedSpec(9, 2)
        whole = StateStream(kind, seed).take(5000)
        stream = StateStream(kind, seed)
        parts = np.concatenate(
            [stream.take(1), stream.take(999), stream.take(2500), stream.take(1500)]
        )
        assert np.array_equal(whole, parts)

    def test_distinct_streams_share_no_draws(self):
        a = sample_real_sphere(SeedSpec(77, 0), 1_000_000)
        b = sample_real_sphere(SeedSpec(77, 1), 1_000_000)
        joined = np.ascontiguousarray(np.vstack([a, b]))
        rows = joined.view([("", joined.dtype)] * 4).ravel()
        assert len(np.unique(rows)) == len(rows)


class TestRealSphere:
    def test_unit_norm(self):
        amps = sample_real_sphere(SeedSpec(3, 0), 10_000)
        np.testing.assert_allclose((amps**2).sum(axis=1), 1.0, atol=1e-12)

    def test_real_dtype(self):
        amps = sample_real_sphere(SeedSpec(3, 0), 10)
        assert amps.dtype == np.float64

    def test_single_coordinate_marginals_match(self):
        # Rotation invariance proxy: every coordinate has the same law.
        amps = sample_real_sphere(SeedSpec(4, 0), 1_000_000)
        for other in range(1, 4):
            d = sps.ks_2samp(amps[:, 0], amps[:, other]).statistic
            assert d < 0.01

    def test_flat_concurrence_density(self):
        amps = sample_real_sphere(SeedSpec(6, 0), 1_000_000)
        c = concurrence(amps)
        counts, _ = np.histogram(c, bins=100, range=(0.0, 1.0))
        density = counts / (len(c) * 0.01)
        assert np.max(np.abs(density - 1.0)) < 0.05

    def test_bound_holds_on_every_sample(self):
        amps = sample_real_sphere(SeedSpec(8, 0), 1_000_000)
        info = mutual_information(probabilities(amps))
        limit = entanglement_from_concurrence(concurrence(amps))
        assert np.count_nonzero(info > limit + 1e-9) == 0


class TestComplexSphere:
    def test_unit_norm(self):
        amps = sample_complex_sphere(SeedSpec(3, 1), 10_000)
        assert amps.dtype == np.complex128
        np.testing.assert_allclose(
            (amps.real**2 + amps.imag**2).sum(axis=1), 1.0, atol=1e-12
        )

    def test_combined_phase_is_uniform(self):
        amps = sample_complex_sphere(SeedSpec(5, 0), 1_000_000)
        theta = (
            np.angle(amps[:, 0]) + np.angle(amps[:, 3])
            - np.angle(amps[:, 1]) - np.angle(amps[:, 2])
        ) % (2 * np.pi)
        d = sps.kstest(theta, "uniform", args=(0, 2 * np.pi)).statistic
        assert d < 0.01

    def test_polar_concurrence_matches(self):
        amps = sample_complex_sphere(SeedSpec(7, 0), 100_000)
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
        draws = sample_uniform_params(SeedSpec(2, 0), 100_000)
        y, alpha, beta = draws[:, 0], draws[:, 1], draws[:, 2]
        assert y.min() >= 0 and y.max() <= 1
        assert alpha.min() >= 0 and alpha.max() < 2 * np.pi
        assert beta.min() >= 0 and beta.max() < 2 * np.pi

    def test_weight_histogram_is_uniform(self):
        draws = sample_uniform_params(SeedSpec(2, 1), 1_000_000)
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
        amps = sample_zero_mi_family(SeedSpec(13, 0), 100_000)
        # |ad| = |bc| is what kills the mutual information.
        np.testing.assert_allclose(
            np.abs(amps[:, 0] * amps[:, 3]),
            np.abs(amps[:, 1] * amps[:, 2]),
            rtol=1e-12,
        )

    def test_information_vanishes(self):
        amps = sample_zero_mi_family(SeedSpec(13, 1), 100_000)
        info = mutual_information(probabilities(amps))
        assert info.max() <= 1e-12

    def test_concurrence_generically_positive(self):
        amps = sample_zero_mi_family(SeedSpec(13, 2), 100_000)
        assert np.all(concurrence(amps) > 0.0)

    def test_unit_norm(self):
        amps = sample_zero_mi_family(SeedSpec(13, 3), 10_000)
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
        with pytest.raises(DomainError):
            StateStream(Ensemble.REAL_S3, SeedSpec(1, 0)).take(0)


# -- degenerate draws --------------------------------------------------------
#
# The drawers screen rows by the norm they compute anyway and apply the
# exact "every |x| below 1e-12" rule to the screened rows only.  The
# references below are the rule and the drawers as first written: a scan
# of every row per pass, and the row-wise sums numpy reduces.

DEGENERATE_TOL = 1e-12


def _reference_degenerate(rows):
    return np.flatnonzero(np.abs(rows).max(axis=1) < DEGENERATE_TOL)


def _reference_redraw(gen, draws, halves):
    while True:
        bad = np.unique(
            np.concatenate([_reference_degenerate(draws[:, cols]) for cols in halves])
        )
        if bad.size == 0:
            return
        draws[bad] = gen.standard_normal((bad.size, draws.shape[1]))


def _reference_sphere(gen, n, width):
    draws = gen.standard_normal((n, width))
    _reference_redraw(gen, draws, [list(range(width))])
    draws /= np.sqrt((draws * draws).sum(axis=1))[:, None]
    return draws


def _reference_complex_sphere(gen, n):
    draws = _reference_sphere(gen, n, 8)
    return draws[:, 0::2] + 1j * draws[:, 1::2]


def _reference_zero_mi(gen, n):
    draws = gen.standard_normal((n, 4))
    _reference_redraw(gen, draws, [[0, 2], [1, 3]])
    p, q, r, s = draws[:, 0], draws[:, 1], draws[:, 2], draws[:, 3]
    left_norm = np.hypot(p, r)
    right_norm = np.hypot(q, s)
    p, r = p / left_norm, r / left_norm
    q, s = q / right_norm, s / right_norm
    return np.stack([p * q, p * s, r * q, -(r * s)], axis=1)


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


def _draw_real_sphere(gen, n):
    return sampling._take(Ensemble.REAL_S3, gen, n)


def _draw_complex_sphere(gen, n):
    return sampling._take(Ensemble.COMPLEX_S7, gen, n)


def _draw_zero_mi(gen, n):
    return sampling._take(Ensemble.ZERO_MI, gen, n)


class ScriptedGenerator:
    """Stands in for a Generator: ``standard_normal`` returns scripted blocks."""

    def __init__(self, blocks):
        self._blocks = [np.array(b, dtype=np.float64) for b in blocks]
        self.shapes = []

    def standard_normal(self, shape=None, out=None):
        shape = out.shape if out is not None else tuple(shape)
        self.shapes.append(shape)
        block = self._blocks.pop(0)
        assert block.shape == shape, "drawer asked for an unscripted shape"
        if out is None:
            return block.copy()
        out[...] = block
        return out


class TestDegenerateScreen:
    @pytest.mark.parametrize("width", [4, 8])
    def test_sphere_screen_flags_reference_rows(self, width):
        rows = _hand_built_rows(width, np.random.default_rng(width))
        norm = np.sqrt(sampling._squared_norm(rows))
        screened = sampling._may_be_degenerate(norm, width)
        flagged = sampling._degenerate_rows(rows, screened, [list(range(width))])
        expected = _reference_degenerate(rows)
        assert expected.tolist() == [0, 1, 2, 3]
        assert flagged.tolist() == expected.tolist()

    @pytest.mark.parametrize("kind", ["left", "right"])
    def test_zero_mi_screen_flags_reference_rows(self, kind):
        rng = np.random.default_rng(2)
        halves = _hand_built_rows(2, rng)
        other = rng.standard_normal((len(halves), 2))
        mine, theirs = ([0, 2], [1, 3]) if kind == "left" else ([1, 3], [0, 2])
        rows = np.empty((len(halves), 4))
        rows[:, mine] = halves
        rows[:, theirs] = other
        norm = np.hypot(rows[:, mine[0]], rows[:, mine[1]])
        screened = sampling._may_be_degenerate(norm, 2)
        flagged = sampling._degenerate_rows(rows, screened, [[0, 2], [1, 3]])
        expected = _reference_degenerate(halves)
        assert flagged.tolist() == expected.tolist() == [0, 1, 2, 3]

    def test_squared_norm_matches_row_sums(self):
        rng = np.random.default_rng(3)
        for width in (4, 8):
            scale = rng.uniform(0.1, 10.0, (10_000, width))
            draws = rng.standard_normal((10_000, width)) * scale
            assert np.array_equal(
                sampling._squared_norm(draws), (draws * draws).sum(axis=1)
            )

    @staticmethod
    def _script(width):
        """The hand-built rows, then redraws of which two are degenerate again."""
        rng = np.random.default_rng(0)
        first = _hand_built_rows(width, rng)
        again = rng.standard_normal((4, width))
        again[1] = 0.0
        again[3] = _hand_built_rows(width, rng)[1]
        return [first, again, rng.standard_normal((2, width))]

    @pytest.mark.parametrize(
        "drawer,reference,width",
        [
            (_draw_real_sphere, lambda g, n: _reference_sphere(g, n, 4), 4),
            (_draw_complex_sphere, _reference_complex_sphere, 8),
        ],
    )
    def test_sphere_redraw_matches_reference(self, drawer, reference, width):
        script = self._script(width)
        new_gen, old_gen = ScriptedGenerator(script), ScriptedGenerator(script)
        new = drawer(new_gen, 7)
        old = reference(old_gen, 7)
        assert new_gen.shapes == old_gen.shapes == [(7, width), (4, width), (2, width)]
        assert new.dtype == old.dtype and np.array_equal(new, old)

    def test_zero_mi_redraw_matches_reference(self):
        rng = np.random.default_rng(5)
        halves = _hand_built_rows(2, rng)
        first = rng.standard_normal((2 * len(halves), 4))
        first[: len(halves), [0, 2]] = halves
        first[len(halves):, [1, 3]] = halves
        again = rng.standard_normal((8, 4))
        again[2, [1, 3]] = 0.0
        again[5, [0, 2]] = 1e-13
        script = [first, again, rng.standard_normal((2, 4))]
        new_gen, old_gen = ScriptedGenerator(script), ScriptedGenerator(script)
        new = _draw_zero_mi(new_gen, len(first))
        old = _reference_zero_mi(old_gen, len(first))
        assert new_gen.shapes == old_gen.shapes == [(14, 4), (8, 4), (2, 4)]
        assert np.array_equal(new, old)
