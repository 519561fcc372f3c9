"""Unit tests for the verification checks and their reports."""

import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entmi import (
    DomainError,
    Ensemble,
    JointHistogram,
    SeedSpec,
    check_angle_oracle,
    check_bound,
    check_ridge,
    check_zero_mi_family,
    concurrence,
    entanglement_from_concurrence,
    mutual_information,
    probabilities,
    ridge_mi,
    sample_amplitudes,
    write_reports_jsonl,
)
from entmi import verify
from entmi.verify import off_zero_peaks


class TestBound:
    def test_real_ensemble_passes(self):
        report = check_bound(100_000, SeedSpec(303), Ensemble.REAL_S3, workers=2)
        assert report.passed
        assert report.violations == 0
        assert report.max_violation == 0.0
        assert report.samples == 100_000
        assert report.name == "bound[real-s3]"

    def test_complex_ensemble_passes(self):
        report = check_bound(100_000, SeedSpec(304), Ensemble.COMPLEX_S7, workers=2)
        assert report.passed

    @pytest.mark.parametrize("kind", [Ensemble.PARAM, Ensemble.ZERO_MI])
    def test_every_ensemble_has_a_bound(self, kind):
        report = check_bound(1000, SeedSpec(1), kind, workers=1)
        assert report.name == f"bound[{kind.value}]"
        assert report.violations == 0

    def test_deterministic(self):
        a = check_bound(50_000, SeedSpec(1), Ensemble.REAL_S3, workers=1)
        b = check_bound(50_000, SeedSpec(1), Ensemble.REAL_S3, workers=2)
        assert a == b

    def test_excess_leaves_its_pairs_bit_identical(self):
        # Every consumer of a tile reads the same c and i: the bound writes
        # only its output and its two scratch rows.
        amps = sample_amplitudes(Ensemble.COMPLEX_S7, SeedSpec(5), 1_000)
        c, i = concurrence(amps), mutual_information(probabilities(amps))
        kept = c.tobytes(), i.tobytes()
        out, scratch, mask = np.empty(c.size), np.empty((2, c.size)), np.empty(c.size, bool)
        verify._bound_excess(0.0, c, i, out, scratch, mask)
        assert (c.tobytes(), i.tobytes()) == kept
        assert np.array_equal(out, i - entanglement_from_concurrence(c))


class TestZeroMIFamily:
    def test_family_has_no_information(self):
        report = check_zero_mi_family(10_000, SeedSpec(505))
        assert report.passed
        assert report.name == "zero-mi"

    def test_deterministic(self):
        assert check_zero_mi_family(5_000, SeedSpec(2)) == check_zero_mi_family(
            5_000, SeedSpec(2)
        )


class TestAngleOracle:
    def test_routes_agree(self):
        report = check_angle_oracle(10_000, SeedSpec(606))
        assert report.passed
        assert report.max_violation == 0.0

    def test_name(self):
        assert check_angle_oracle(10, SeedSpec(0)).name == "mi-oracle"

    @pytest.mark.parametrize("route", ["closed-form", "amplitudes"])
    def test_a_perturbed_route_is_caught(self, monkeypatch, route):
        # Both routes start from the same cos/sin values; a fault in either
        # one alone must still show as violations.
        if route == "closed-form":
            exact = verify._mi_from_trig
            monkeypatch.setattr(
                verify, "_mi_from_trig", lambda *args: exact(*args) + 1e-9
            )
        else:
            exact = verify._probabilities_into
            monkeypatch.setattr(
                verify,
                "_probabilities_into",
                lambda amps, rows: exact(amps[:, [0, 1, 3, 2]], rows),
            )
        report = check_angle_oracle(10_000, SeedSpec(606), workers=1)
        assert report.violations > 0
        assert not report.passed

    @pytest.mark.parametrize(
        "near", [lambda cos_sq: cos_sq < 1e-3, lambda cos_sq: cos_sq > 1.0 - 1e-3],
        ids=["cos-alpha-near-0", "cos-alpha-near-1"],
    )
    def test_the_angles_reach_both_ends_of_the_half_turn(self, monkeypatch, near):
        # alpha = 2 atan(2u - 1) spans [-pi/2, pi/2): cos^2 alpha near 0 at
        # its ends and near 1 at its middle.  A closed-form fault confined to
        # either region must still show as violations.
        exact = verify._mi_from_trig

        def faulty(squares, buffers, mask):
            region = near(squares[0])  # cos^2 alpha, before the closed form overwrites it
            value = exact(squares, buffers, mask)
            value[region] += 1e-9
            return value

        monkeypatch.setattr(verify, "_mi_from_trig", faulty)
        assert check_angle_oracle(10_000, SeedSpec(606)).violations > 0


def _peak(column) -> int:
    return int(off_zero_peaks(np.array([column]))[0])


def _loop_peak(column) -> int:
    """The reference rule, bin by bin; 0 when no bin past the first is a peak."""
    best = 0
    for k in range(1, len(column)):
        left = column[k - 1]
        right = column[k + 1] if k + 1 < len(column) else 0
        if column[k] > 0 and column[k] >= left and column[k] >= right:
            if best == 0 or column[k] > column[best]:
                best = k
    return best


class TestPeakFinder:
    def test_finds_interior_bump(self):
        assert _peak([900, 40, 30, 20, 60, 90, 55, 10, 5, 1]) == 5

    def test_skips_zero_bin(self):
        assert _peak([900, 10, 0, 0, 0, 0, 0, 0, 0, 0]) == 0

    def test_largest_bump_wins(self):
        assert _peak([900, 10, 50, 10, 10, 300, 10, 0, 0, 0]) == 5

    def test_ties_resolve_low(self):
        assert _peak([0, 0, 70, 70, 0, 0, 0, 0, 0, 0]) == 2

    def test_edge_peak_allowed(self):
        assert _peak([900, 5, 4, 3, 2, 1, 1, 1, 2, 80]) == 9

    @given(
        st.integers(1, 12).flatmap(
            lambda bins: st.lists(
                st.lists(st.integers(0, 3), min_size=bins, max_size=bins), min_size=1, max_size=8
            )
        )
    )
    def test_matches_the_loop_on_every_column(self, columns):
        # Counts of 0 to 3 make ties and empty bins common; 1 bin has no peak.
        expected = [_loop_peak(column) for column in columns]
        assert off_zero_peaks(np.array(columns, dtype=np.int64)).tolist() == expected


def _ridge_synthetic(displace_bins: int = 0) -> JointHistogram:
    """Histogram whose off-zero column peaks sit on (or off) the curve."""
    h = JointHistogram(0.01, 0.01)
    centers_c = h.centers("c")
    centers_i = h.centers("i")
    for col, c in enumerate(centers_c):
        target = ridge_mi(float(c))
        peak = int(np.argmin(np.abs(centers_i - target)))
        peak = min(max(peak + displace_bins, 1), h.nbins_i - 1)
        h.counts[col, 0] = 200_000
        h.counts[col, peak] = 100_000
    h.total = int(h.counts.sum())
    return h


class TestRidge:
    def test_insufficient_data(self):
        message = "ridge check needs at least 10000000 samples, got 0"
        with pytest.raises(DomainError, match=message):
            check_ridge(JointHistogram(0.01, 0.01))

    def test_synthetic_peaks_on_curve_pass(self):
        report = check_ridge(_ridge_synthetic())
        assert report.passed

    def test_a_column_without_a_peak_is_a_violation_of_1(self):
        h = _ridge_synthetic()
        h.counts[50, 1:] = 0  # C = 0.505: every count in the zero bin
        h.total = int(h.counts.sum())
        report = check_ridge(h)
        assert (report.violations, report.max_violation) == (1, 1.0)

    def test_displaced_peaks_fail(self):
        report = check_ridge(_ridge_synthetic(displace_bins=5))
        assert not report.passed
        assert report.violations > 0
        assert report.max_violation > 0.0


class TestReports:
    def test_jsonl_round_trip(self):
        reports = [
            check_zero_mi_family(100, SeedSpec(1)),
            check_angle_oracle(100, SeedSpec(1)),
        ]
        buf = io.StringIO()
        write_reports_jsonl(reports, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 2
        payload = json.loads(lines[0])
        assert set(payload) == {"name", "samples", "violations", "max_violation", "pass"}
        assert payload["pass"] is True
        assert payload["violations"] == 0
