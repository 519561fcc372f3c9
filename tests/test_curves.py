"""Unit tests for the closed-form curves and their inverses."""

import numpy as np
import pytest

from entmi import (
    ConvergenceError,
    DomainError,
    binary_entropy,
    entanglement_from_concurrence,
    mi_extrema,
    mi_from_angles,
    mutual_information,
    params_to_amplitudes,
    probabilities,
    ridge_concurrence,
    ridge_mi,
)
from entmi.states import xlog2

# 40-digit reference evaluations of the ridge curve and the bound.
RIDGE_AT_037 = 0.1011389629557098
RIDGE_AT_05 = 0.18872187554086714
BOUND_AT_05 = 0.35457890266526988
RIDGE_AT_SIN_02PI = 0.26602405867424207
RIDGE_AT_SIN_04PI = 0.8341394409029649

# True 2-dp roundings of the inverse ridge at evenly spaced MI levels.
INVERSE_2DP = {
    0.1: 0.37,
    0.2: 0.51,
    0.3: 0.62,
    0.4: 0.71,
    0.5: 0.78,
    0.6: 0.84,
    0.7: 0.89,
    0.8: 0.94,
    0.9: 0.97,
}


class TestRidge:
    def test_endpoints(self):
        assert ridge_mi(0.0) == 0.0
        assert ridge_mi(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_values(self):
        assert ridge_mi(0.37) == pytest.approx(RIDGE_AT_037, abs=1e-15)
        assert round(ridge_mi(0.37), 2) == 0.10
        assert ridge_mi(0.5) == pytest.approx(RIDGE_AT_05, abs=1e-15)
        assert entanglement_from_concurrence(0.5) == pytest.approx(
            BOUND_AT_05, abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            ridge_mi(-0.1)
        with pytest.raises(DomainError):
            ridge_mi(1.1)

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ridge_mi(np.nan)

    def test_strictly_increasing(self):
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        assert np.all(np.diff(ridge_mi(grid)) > 0)

    def test_sandwich_between_zero_and_bound(self):
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        ridge = ridge_mi(grid)
        bound = entanglement_from_concurrence(grid)
        assert np.all(ridge >= 0.0)
        assert np.all(ridge <= bound + 1e-15)
        interior = (grid > 0) & (grid < 1)
        assert np.all(ridge[interior] > 0.0)
        assert np.all(ridge[interior] < bound[interior])


class TestInverse:
    def test_trivial_endpoint(self):
        assert ridge_concurrence(0.0) == pytest.approx(0.0, abs=1e-5)
        assert ridge_mi(ridge_concurrence(0.0)) <= 1e-12

    def test_two_decimal_targets(self):
        for info, expected in INVERSE_2DP.items():
            assert round(ridge_concurrence(info), 2) == pytest.approx(expected)

    def test_round_trip(self):
        for info in np.linspace(0.0, 1.0, 201):
            c = ridge_concurrence(float(info))
            assert ridge_mi(c) == pytest.approx(float(info), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            ridge_concurrence(1.5)

    def test_iteration_cap_raises(self, monkeypatch):
        import entmi.curves as curves

        monkeypatch.setattr(curves, "_BISECT_MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            ridge_concurrence(0.5)


def _marginal_entropies(probs):
    """Entropies (bits) of the left outcome pair (0, 1 | 2, 3) and the right (0, 2 | 1, 3)."""
    return binary_entropy(probs[0] + probs[1]), binary_entropy(probs[0] + probs[2])


def _pipeline_mi(alpha, delta):
    amps = params_to_amplitudes(0.5, alpha, alpha - delta)
    return mutual_information(probabilities(amps))


class TestAngleFamily:
    @pytest.mark.parametrize(
        "alpha,delta",
        [(np.nan, 0.3), (0.3, np.inf), (-np.inf, 0.3), (0.3, np.nan),
         ([0.1, np.nan], 0.3), (0.3, [0.2, np.inf])],
        ids=["nan-alpha", "inf-delta", "minus-inf-alpha", "nan-delta",
             "nan-in-alpha-array", "inf-in-delta-array"],
    )
    def test_rejects_an_angle_that_is_not_finite(self, alpha, delta):
        # The closed form's xlog2 maps a NaN square to 0, which read as 0 bits.
        with pytest.raises(DomainError, match="finite"):
            mi_from_angles(alpha, delta)

    def test_zero_at_half_offset(self):
        for delta in np.linspace(0, 2 * np.pi, 17):
            assert mi_from_angles(delta / 2, delta) <= 1e-12

    def test_maximum_reaches_one_bit(self):
        extrema = mi_extrema(np.pi / 2, 0)
        assert extrema.alpha_max == pytest.approx(np.pi / 2)
        assert mi_from_angles(extrema.alpha_max, np.pi / 2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_maximum_matches_ridge_frozen(self):
        extrema = mi_extrema(0.2 * np.pi, 0)
        assert mi_from_angles(extrema.alpha_max, extrema.delta) == pytest.approx(
            RIDGE_AT_SIN_02PI, abs=1e-13
        )
        extrema = mi_extrema(0.4 * np.pi, 0)
        assert mi_from_angles(extrema.alpha_max, extrema.delta) == pytest.approx(
            RIDGE_AT_SIN_04PI, abs=1e-13
        )

    def test_extrema_formulas(self):
        extrema = mi_extrema(0.0, 0)
        assert extrema.alpha_max == pytest.approx(np.pi / 4)
        assert extrema.alpha_min == 0.0
        extrema = mi_extrema(np.pi / 2, 1)
        assert extrema.alpha_min == pytest.approx(3 * np.pi / 4)
        assert mi_from_angles(extrema.alpha_min, extrema.delta) <= 1e-12

    def test_matches_the_closed_form_bit_for_bit(self):
        # The expression the closed form was first written as; the buffered
        # form must reproduce it bit for bit, broadcast, strided and 0-d.
        def reference(alpha, delta):
            alpha = np.asarray(alpha, dtype=np.float64)
            beta = alpha - np.asarray(delta, dtype=np.float64)
            cos_a2 = np.cos(alpha) ** 2
            sin_a2 = np.sin(alpha) ** 2
            cos_b2 = np.cos(beta) ** 2
            sin_b2 = np.sin(beta) ** 2
            mean_cos = 0.5 * (cos_a2 + cos_b2)
            mean_sin = 0.5 * (sin_a2 + sin_b2)
            value = (
                -xlog2(mean_cos)
                - xlog2(mean_sin)
                + 0.5 * (xlog2(cos_a2) + xlog2(cos_b2) + xlog2(sin_a2) + xlog2(sin_b2))
            )
            return np.clip(value, 0.0, 1.0)

        quarters = np.arange(-8, 9) * (np.pi / 2)
        gen = np.random.default_rng(41)
        alpha = np.concatenate(
            [quarters, [0.0, 1.0, 5e-324], gen.uniform(0, 2 * np.pi, 20_000)]
        )
        delta = np.concatenate(
            [quarters[::-1], [0.0, 1.0, 1e-310], gen.uniform(0, 2 * np.pi, 20_000)]
        )
        pairs = np.stack([alpha, delta], axis=1)
        for a, d in [
            (alpha, delta),
            (alpha[:200, None], delta[None, :200]),
            (pairs[:, 0], pairs[:, 1]),
            (alpha[:500], 0.3),
        ]:
            assert np.array_equal(mi_from_angles(a, d), reference(a, d))
        # A 0-d cosine is squared by libm pow, not x * x; keep that value.
        for a, d in zip(alpha[:3_000], delta[:3_000]):
            value = mi_from_angles(float(a), float(d))
            assert type(value) is float
            assert value == float(reference(a, d))

    def test_periodicity(self):
        gen = np.random.default_rng(5)
        alpha = gen.uniform(0, 2 * np.pi, 500)
        delta = gen.uniform(0, 2 * np.pi, 500)
        np.testing.assert_allclose(
            mi_from_angles(alpha + np.pi, delta),
            mi_from_angles(alpha, delta),
            atol=1e-12,
        )

    def test_agrees_with_pipeline_on_random_pairs(self):
        gen = np.random.default_rng(17)
        alpha = gen.uniform(0, 2 * np.pi, 10_000)
        delta = gen.uniform(0, 2 * np.pi, 10_000)
        direct = mi_from_angles(alpha, delta)
        pipelined = _pipeline_mi(alpha, delta)
        np.testing.assert_allclose(direct, pipelined, atol=1e-12)

    def test_left_right_symmetry_at_maxima(self):
        gen = np.random.default_rng(29)
        for delta in gen.uniform(0, 2 * np.pi, 100):
            for index in range(-2, 3):
                extrema = mi_extrema(delta, index)
                probs = probabilities(
                    params_to_amplitudes(
                        0.5, extrema.alpha_max, extrema.alpha_max - delta
                    )
                )
                left, right = _marginal_entropies(probs)
                assert left == pytest.approx(1.0, abs=1e-12)
                assert right == pytest.approx(1.0, abs=1e-12)

    def test_right_marginal_reaches_bound_at_minima(self):
        gen = np.random.default_rng(31)
        for delta in gen.uniform(0, 2 * np.pi, 100):
            extrema = mi_extrema(delta, 0)
            amps = params_to_amplitudes(
                0.5, extrema.alpha_min, extrema.alpha_min - delta
            )
            _, right = _marginal_entropies(probabilities(amps))
            limit = entanglement_from_concurrence(abs(np.sin(delta)))
            assert right == pytest.approx(limit, abs=1e-10)
