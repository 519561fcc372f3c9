"""Unit tests for per-state observables."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entmi import (
    ConsistencyError,
    DomainError,
    NotNormalizedError,
    binary_entropy,
    concurrence,
    concurrence_polar,
    entanglement_entropy,
    entanglement_from_concurrence,
    mutual_information,
    params_to_amplitudes,
    probabilities,
)
from entmi import states
from entmi.states import xlog2

INV_SQRT2 = 2**-0.5

BELL_PLUS = np.array([INV_SQRT2, 0, 0, INV_SQRT2])          # (|00> + |11>)/sqrt(2)
SINGLET = np.array([0, INV_SQRT2, -INV_SQRT2, 0])           # (|01> - |10>)/sqrt(2)
SUPERPOSED = np.array([0.5, 0.5, -0.5, 0.5])                # uniform outcomes, C = 1
BASIS_00 = np.array([1.0, 0, 0, 0])                         # |00>

# Independently evaluated with 40-digit arithmetic: binary entropy of 0.8.
E_AT_C_08 = 0.7219280948873623


def _random_states(seed, n, complex_amps=True):
    gen = np.random.default_rng(seed)
    if complex_amps:
        raw = gen.standard_normal((n, 8))
        amps = raw[:, 0::2] + 1j * raw[:, 1::2]
    else:
        amps = gen.standard_normal((n, 4))
    return amps / np.linalg.norm(amps, axis=1)[:, None]


class TestConstruction:
    def test_norm_tolerance_is_tight(self):
        eps = 1e-6
        with pytest.raises(NotNormalizedError):
            concurrence_polar(1 + eps, 0, 0, 0, 0.0)

    def test_param_state_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            params_to_amplitudes(1.5, 0.0, 0.0)

    def test_from_params_matches_hand_evaluation(self):
        amps = params_to_amplitudes(0.5, np.pi / 4, 3 * np.pi / 4)
        np.testing.assert_allclose(amps, [0.5, 0.5, -0.5, 0.5], atol=1e-15)
        assert concurrence(amps) == pytest.approx(1.0, abs=1e-12)

    def test_from_params_degenerate_weight(self):
        amps = params_to_amplitudes(1.0, 0.0, 2.3)
        np.testing.assert_allclose(amps, [1, 0, 0, 0], atol=1e-15)

    def test_from_params_concurrence_is_sine_of_angle_gap(self):
        for gap in np.linspace(-3 * np.pi, 3 * np.pi, 61):
            amps = params_to_amplitudes(0.5, gap / 2, -gap / 2)
            assert concurrence(amps) == pytest.approx(abs(np.sin(gap)), abs=1e-12)

    def test_params_to_amplitudes_rejects_nan_weight(self):
        with pytest.raises(DomainError):
            params_to_amplitudes(np.nan, 0.0, 0.0)

    def test_params_to_amplitudes_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            params_to_amplitudes([0.2, 1.2], 0.0, 0.0)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0), ([0.1, np.nan], 0.0), (0.0, [0.2, np.inf])],
        ids=["nan-alpha", "inf-beta", "minus-inf-alpha", "nan-in-alpha-array",
             "inf-in-beta-array"],
    )
    def test_params_to_amplitudes_rejects_an_angle_that_is_not_finite(self, alpha, beta):
        # A NaN angle gave NaN amplitudes, which no later step rejected.
        with pytest.raises(DomainError, match="finite"):
            params_to_amplitudes(0.5, alpha, beta)


class TestMeasurement:
    def test_bell_outcomes(self):
        np.testing.assert_allclose(
            probabilities(BELL_PLUS), [0.5, 0, 0, 0.5], atol=1e-15
        )

    def test_basis_state_outcomes(self):
        np.testing.assert_allclose(
            probabilities(BASIS_00), [1, 0, 0, 0], atol=0
        )

    def test_superposed_outcomes_are_uniform(self):
        np.testing.assert_allclose(
            probabilities(SUPERPOSED), [0.25] * 4, atol=1e-15
        )

    def test_batch_input(self):
        batch = _random_states(7, 100)
        probs = probabilities(batch)
        assert probs.shape == (100, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestEntropies:
    def test_mutual_information_examples(self):
        assert mutual_information(probabilities(BELL_PLUS)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert mutual_information(probabilities(SUPERPOSED)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert mutual_information([1, 0, 0, 0]) == 0.0

    def test_mutual_information_guards_against_garbage(self):
        # Not a distribution: the guard should refuse rather than clamp.
        with pytest.raises(NotNormalizedError):
            mutual_information([0.9, 0.9, 0.9, 0.9])

    def test_mutual_information_matches_row_wise_reference(self):
        # The row-wise expression MI was first written as; the buffered
        # column form must reproduce it bit for bit, zeros and shapes included.
        def reference(p):
            p = np.asarray(p, dtype=np.float64)
            left = -xlog2(p[..., 0] + p[..., 1]) - xlog2(p[..., 2] + p[..., 3])
            right = -xlog2(p[..., 0] + p[..., 2]) - xlog2(p[..., 1] + p[..., 3])
            total = -xlog2(p).sum(axis=-1)
            return np.maximum(left + right - total, 0.0)

        real = probabilities(_random_states(21, 20_000, complex_amps=False))
        real[::7, 1] = 0.0
        real[::11, 3] = 0.0
        real /= real.sum(axis=-1, keepdims=True)
        batches = [
            real,
            probabilities(_random_states(22, 20_000)),
            probabilities(_random_states(23, 600)).reshape(20, 30, 4),
            probabilities(_random_states(24, 50))[::-2],
            np.array([[1.0, 0, 0, 0], [0.5, 0, 0, 0.5], [0.25] * 4]),
        ]
        for probs in batches:
            before = probs.copy()
            info = mutual_information(probs)
            assert info.shape == probs.shape[:-1]
            assert np.array_equal(info, reference(probs))
            assert np.array_equal(probs, before)

    def test_mutual_information_of_an_empty_batch(self):
        empty = np.zeros((0, 4))
        assert mutual_information(empty).shape == (0,)
        assert concurrence(empty).shape == (0,)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: states._clamp_unit(np.array([np.nan]), "concurrence"),
            lambda: states._mutual_information_into(
                np.full((4, 1), 0.9), np.empty((4, 1)), np.empty(1, dtype=bool)
            ),
        ],
        ids=["concurrence", "mutual_information"],
    )
    def test_consistency_messages_print_plain_floats(self, call):
        # The public functions reject such input before the kernels' guards.
        with pytest.raises(ConsistencyError) as error:
            call()
        assert "np.float64" not in str(error.value)

    def test_mutual_information_rejects_nan(self):
        with pytest.raises(DomainError):
            mutual_information(probabilities([np.nan, 0.0, 0.0, 1.0]))

    def test_mutual_information_needs_four_outcomes(self):
        with pytest.raises(ValueError):
            mutual_information([0.5, 0.5])
        with pytest.raises(ValueError):
            mutual_information(np.full((2, 8), 0.125))

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: entanglement_entropy([np.nan, 0.0, 0.0, 1.0]), DomainError),
            (lambda: entanglement_entropy([np.inf, 0.0, 0.0, 1.0]), DomainError),
            (lambda: entanglement_entropy([0.0, 1j * np.nan, 0.0, 1.0]), DomainError),
            (lambda: entanglement_entropy([1.0, 0.0, 0.0, 1.0]), NotNormalizedError),
            (lambda: entanglement_entropy([[1.0, 0, 0, 0], [0.5, 0, 0, 0.5]]),
             NotNormalizedError),
            (lambda: mutual_information([2.0, -1.0, 0.0, 0.0]), DomainError),
            (lambda: mutual_information([1.0, 0.0, 0.0, -1e-11]), DomainError),
            (lambda: mutual_information([np.inf, 0.0, 0.0, 0.0]), DomainError),
            (lambda: mutual_information([0.1, 0.0, 0.0, 0.1]), NotNormalizedError),
            (lambda: mutual_information([[0.5, 0, 0, 0.5], [0.6, 0, 0, 0.6]]),
             NotNormalizedError),
            (lambda: concurrence([0.5, 0.0, 0.0, 0.5]), NotNormalizedError),
            (lambda: concurrence([[1.0, 0, 0, 0], [1.0, 0, 0, 1.0]]), NotNormalizedError),
            (lambda: concurrence([np.inf, 0.0, 0.0, 1.0]), DomainError),
            (lambda: probabilities([2.0, 0.0, 0.0, 0.0]), NotNormalizedError),
            (lambda: probabilities([0.0, 0.6j, 0.0, 0.6]), NotNormalizedError),
            (lambda: probabilities([np.nan, 0.0, 0.0, 1.0]), DomainError),
            (lambda: probabilities([0.0, 1j * np.inf, 0.0, 1.0]), DomainError),
        ],
        ids=["entropy-nan", "entropy-inf", "entropy-complex-nan", "entropy-unnormalized",
             "entropy-unnormalized-row", "mi-negative", "mi-slightly-negative", "mi-inf",
             "mi-unnormalized", "mi-unnormalized-row", "concurrence-unnormalized",
             "concurrence-unnormalized-row", "concurrence-inf", "probabilities-unnormalized",
             "probabilities-complex-unnormalized", "probabilities-nan",
             "probabilities-complex-inf"],
    )
    def test_invalid_input_raises_instead_of_reading_zero(self, call, error):
        with pytest.raises(error):
            call()

    def test_entanglement_entropy_takes_round_off_in_the_norm(self):
        off = np.sqrt(1.0 + 1e-13)
        assert entanglement_entropy([off, 0.0, 0.0, 0.0]) == 0.0
        assert entanglement_entropy(SINGLET * off) == pytest.approx(1.0, abs=1e-12)

    def test_mutual_information_takes_a_round_off_negative(self):
        assert mutual_information([1.0, 0.0, 0.0, -1e-13]) == 0.0

    @pytest.mark.parametrize("p", [2.0, -0.5, np.nan, 1.0 + 1e-11, -1e-11, np.inf])
    def test_binary_entropy_rejects_what_is_not_a_probability(self, p):
        with pytest.raises(DomainError):
            binary_entropy(p)
        with pytest.raises(DomainError):
            binary_entropy([0.5, p])

    def test_binary_entropy_clips_round_off(self):
        assert binary_entropy(1.0 + 1e-13) == 0.0
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(np.nextafter(1.0, 2.0)) == 0.0

    def test_binary_entropy_symmetry(self):
        grid = np.linspace(0, 1, 101)
        np.testing.assert_allclose(
            binary_entropy(grid), binary_entropy(1 - grid), atol=1e-14
        )


class TestConcurrence:
    def test_examples(self):
        assert concurrence(BELL_PLUS) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(BASIS_00) == 0.0
        assert concurrence(SUPERPOSED) == pytest.approx(1.0, abs=1e-12)

    def test_polar_opposite_phases(self):
        moduli = np.array([0.6, 0.5, 0.4, 0.48]) / np.linalg.norm(
            [0.6, 0.5, 0.4, 0.48]
        )
        ma, mb, mc, md = moduli
        assert concurrence_polar(ma, mb, mc, md, np.pi) == pytest.approx(
            2 * (ma * md + mb * mc), abs=1e-12
        )
        assert concurrence_polar(ma, mb, mc, md, 0.0) == pytest.approx(
            2 * abs(ma * md - mb * mc), abs=1e-12
        )

    def test_polar_bell_moduli(self):
        assert concurrence_polar(INV_SQRT2, 0, 0, INV_SQRT2, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_polar_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            concurrence_polar(1.0, 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "args,error",
        [
            ((np.nan, 0.0, 0.0, 1.0, 0.0), NotNormalizedError),
            ((INV_SQRT2, 0.0, 0.0, INV_SQRT2, np.nan), ConsistencyError),
        ],
    )
    def test_polar_rejects_nan(self, args, error):
        with pytest.raises(error):
            concurrence_polar(*args)

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(DomainError):
            concurrence([np.nan, 0.0, 0.0, 1.0])

    def test_polar_rejects_negative_moduli(self):
        with pytest.raises(DomainError):
            concurrence_polar(-INV_SQRT2, 0.0, 0.0, INV_SQRT2, 0.0)

    def test_polar_matches_complex_route(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            raw = gen.standard_normal(8)
            amps = raw[0::2] + 1j * raw[1::2]
            amps /= np.linalg.norm(amps)
            moduli = np.abs(amps)
            theta = (
                np.angle(amps[0]) + np.angle(amps[3])
                - np.angle(amps[1]) - np.angle(amps[2])
            )
            assert concurrence_polar(*moduli, theta) == pytest.approx(
                concurrence(amps), abs=1e-12
            )


class TestEntanglement:
    def test_boundary_values(self):
        assert entanglement_from_concurrence(0.0) == 0.0
        assert entanglement_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        assert entanglement_from_concurrence(0.8) == pytest.approx(
            E_AT_C_08, abs=1e-14
        )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entanglement_from_concurrence(1.5)
        with pytest.raises(DomainError):
            entanglement_from_concurrence(-0.2)

    @pytest.mark.parametrize("c", [np.nan, np.array([0.5, np.nan])])
    def test_nan_is_a_domain_error(self, c):
        with pytest.raises(DomainError):
            entanglement_from_concurrence(c)

    def test_matches_the_closed_form_bit_for_bit(self):
        # The expression E(C) was first written as; the buffered form must
        # reproduce it bit for bit, for arrays of any layout and for 0-d input.
        def reference(c):
            c = np.clip(np.asarray(c, dtype=np.float64), 0.0, 1.0)
            root = np.sqrt(1.0 - c * c)
            x = 0.5 * (1.0 + root)
            x_comp = c * c / (2.0 * (1.0 + root))
            return np.maximum(-xlog2(x) - xlog2(x_comp), 0.0)

        grid = np.concatenate(
            [
                [0.0, 1.0, 5e-324, 1e-310, 1e-160, 1e-8, 1.0 + 1e-13, -1e-13],
                np.linspace(0.0, 1.0, 10_001),
                np.random.default_rng(31).random(20_000),
            ]
        )
        for c in (grid, grid[:10_000].reshape(100, 100).T, grid[::-3]):
            assert np.array_equal(entanglement_from_concurrence(c), reference(c))
        for c in grid[:3_000]:
            value = entanglement_from_concurrence(float(c))
            assert type(value) is float
            assert value == float(reference(c))

    def test_buffered_form_leaves_c_unless_c_takes_the_square(self):
        c = np.random.default_rng(37).random(1_000)
        kept, expected = c.copy(), entanglement_from_concurrence(c)
        mask = np.empty(c.size, dtype=bool)
        x, root, square = np.empty((3, c.size))
        assert np.array_equal(states._entanglement_into(c, (x, root, square), mask), expected)
        assert c.tobytes() == kept.tobytes()
        assert np.array_equal(states._entanglement_into(c, (x, root, c), mask), expected)
        assert not np.array_equal(c, kept)

    def test_strictly_increasing_on_grid(self):
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        values = entanglement_from_concurrence(grid)
        assert np.all(np.diff(values) > 0)

    def test_partial_trace_examples(self):
        assert entanglement_entropy(SINGLET) == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(BASIS_00) == 0.0
        assert entanglement_entropy(SUPERPOSED) == pytest.approx(1.0, abs=1e-12)

    def test_routes_agree_on_random_states(self):
        amps = _random_states(23, 20000)
        via_trace = entanglement_entropy(amps)
        via_curve = entanglement_from_concurrence(concurrence(amps))
        np.testing.assert_allclose(via_trace, via_curve, atol=1e-10)


AMPLITUDE_COMPONENT = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def random_amplitudes(draw):
    parts = np.array([draw(AMPLITUDE_COMPONENT) for _ in range(8)])
    norm = np.linalg.norm(parts)
    assume(norm > 1e-3)
    parts = parts / norm
    return parts[0::2] + 1j * parts[1::2]


class TestInvariants:
    @given(random_amplitudes())
    @settings(max_examples=200, deadline=None)
    def test_bound_holds(self, amps):
        info = mutual_information(probabilities(amps))
        limit = entanglement_from_concurrence(concurrence(amps))
        assert info <= limit + 1e-9

    @given(random_amplitudes())
    @settings(max_examples=200, deadline=None)
    def test_route_consistency(self, amps):
        assert entanglement_entropy(amps) == pytest.approx(
            entanglement_from_concurrence(concurrence(amps)), abs=1e-10
        )

    @given(random_amplitudes())
    @settings(max_examples=100, deadline=None)
    def test_observable_ranges(self, amps):
        probs = probabilities(amps)
        assert 0.0 <= mutual_information(probs) <= 1.0 + 1e-12
        assert 0.0 <= concurrence(amps) <= 1.0

    @given(random_amplitudes(), st.sampled_from([1j, -1.0, -1j]))
    @settings(max_examples=100, deadline=None)
    def test_axis_phase_leaves_probabilities_bit_identical(self, amps, phase):
        rotated = amps.copy()
        rotated[2] = rotated[2] * phase
        assert np.array_equal(probabilities(rotated), probabilities(amps))

    @given(random_amplitudes(), st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=100, deadline=None)
    def test_generic_phase_leaves_information_unchanged(self, amps, phase):
        rotated = amps.copy()
        rotated[1] = rotated[1] * np.exp(1j * phase)
        assert mutual_information(probabilities(rotated)) == pytest.approx(
            mutual_information(probabilities(amps)), abs=1e-12
        )
