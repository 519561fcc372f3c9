"""Unit tests for the closed-form curves and their inverses."""

import numpy as np
import pytest

from entmi import (
    DomainError,
    entanglement_from_concurrence,
    mi_from_angles,
    mutual_information,
    params_to_amplitudes,
    probabilities,
    ridge_concurrence,
    ridge_mi,
)
from entmi import curves
from entmi.states import _binary_entropy, xlog2

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

    def test_inverse_is_within_tolerance_everywhere(self):
        # A dense grid, both ends approached on a log scale, and the edge floats.
        tail = np.logspace(-300, -1, 150)
        infos = np.concatenate([
            np.linspace(0.0, 1.0, 501), tail, 1.0 - tail,
            [0.0, 5e-324, 1e-300, np.nextafter(1.0, 0.0), 1.0],
        ])
        for info in infos.tolist():
            assert abs(ridge_mi(ridge_concurrence(info)) - info) <= 1e-12, info

    def test_array_equals_scalar_calls_bit_for_bit(self):
        tail = np.logspace(-300, -1, 40)
        infos = np.concatenate([np.linspace(0.0, 1.0, 100), tail, 1.0 - tail]).reshape(2, -1, 3)
        values = ridge_concurrence(infos)
        assert values.shape == infos.shape
        scalars = np.array([ridge_concurrence(info) for info in infos.ravel().tolist()])
        assert np.array_equal(values.ravel().view(np.int64), scalars.view(np.int64))

    @pytest.mark.parametrize("info", [0.0, 5e-324, 0.5, 1.0])
    def test_stops_once_the_bracket_holds_no_further_float(self, monkeypatch, info):
        # With a tolerance no value meets, only the bracket's end stops the loop.
        monkeypatch.setattr(curves, "_BISECT_TOL", -1.0)
        c = ridge_concurrence(info)
        assert abs(ridge_mi(c) - info) <= 1e-12


# Each function whose argument must lie in [0, 1], with that argument alone.
UNIT_INTERVAL_INPUTS = {
    "ridge_mi": ridge_mi,
    "ridge_concurrence": ridge_concurrence,
    "entanglement_from_concurrence": entanglement_from_concurrence,
    "params_to_amplitudes-y": lambda y: params_to_amplitudes(y, 0.1, 0.2),
}


@pytest.mark.parametrize("call", UNIT_INTERVAL_INPUTS.values(), ids=UNIT_INTERVAL_INPUTS)
class TestUnitIntervalInputs:
    @pytest.mark.parametrize("edge,off", [(1.0, 1.0 + 5e-13), (1.0, np.nextafter(1.0, 2.0)),
                                          (0.0, -5e-13), (0.0, -5e-324)])
    def test_round_off_is_clipped(self, call, edge, off):
        assert np.array_equal(call(off), call(edge))

    @pytest.mark.parametrize("value", [1.0 + 2e-12, -2e-12, 2.0, -0.5, np.nan, np.inf])
    def test_what_is_further_off_raises(self, call, value):
        with pytest.raises(DomainError, match="outside \\[0, 1\\]"):
            call(value)


def _marginal_entropies(probs):
    """Entropies (bits) of the left outcome pair (0, 1 | 2, 3) and the right (0, 2 | 1, 3)."""
    return _binary_entropy(probs[0] + probs[1]), _binary_entropy(probs[0] + probs[2])


def _pipeline_mi(alpha, delta):
    amps = params_to_amplitudes(0.5, alpha, alpha - delta)
    return mutual_information(probabilities(amps))


def _alpha_max(delta, index=0):
    """Angle of the maximum on branch ``index``, where MI = ridge_mi(|sin delta|)."""
    return 0.5 * (delta + (index + 0.5) * np.pi)


def _alpha_min(delta, index=0):
    """Angle of the minimum on branch ``index``, where MI = 0."""
    return 0.5 * (delta + index * np.pi)


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
        assert mi_from_angles(_alpha_max(np.pi / 2), np.pi / 2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_maximum_matches_ridge_frozen(self):
        delta = 0.2 * np.pi
        assert mi_from_angles(_alpha_max(delta), delta) == pytest.approx(
            RIDGE_AT_SIN_02PI, abs=1e-13
        )
        delta = 0.4 * np.pi
        assert mi_from_angles(_alpha_max(delta), delta) == pytest.approx(
            RIDGE_AT_SIN_04PI, abs=1e-13
        )

    def test_minimum_on_another_branch(self):
        assert mi_from_angles(_alpha_min(np.pi / 2, 1), np.pi / 2) <= 1e-12

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
        # numpy squares a numpy scalar with libm pow, an array with x * x; a
        # 0-d call must give the bits of the same angles in 1-element arrays.
        for a, d in zip(alpha[:3_000], delta[:3_000]):
            value = mi_from_angles(float(a), float(d))
            assert type(value) is float
            assert value == float(reference([a], [d])[0])

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
                alpha = _alpha_max(delta, index)
                probs = probabilities(params_to_amplitudes(0.5, alpha, alpha - delta))
                left, right = _marginal_entropies(probs)
                assert left == pytest.approx(1.0, abs=1e-12)
                assert right == pytest.approx(1.0, abs=1e-12)

    def test_right_marginal_reaches_bound_at_minima(self):
        gen = np.random.default_rng(31)
        for delta in gen.uniform(0, 2 * np.pi, 100):
            alpha = _alpha_min(delta)
            amps = params_to_amplitudes(0.5, alpha, alpha - delta)
            _, right = _marginal_entropies(probabilities(amps))
            limit = entanglement_from_concurrence(abs(np.sin(delta)))
            assert right == pytest.approx(limit, abs=1e-10)
