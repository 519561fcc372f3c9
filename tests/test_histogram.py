"""Unit tests for the mergeable 2D histogram and its serialized forms."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmi import (
    Density1D,
    DomainError,
    EmptyHistogramError,
    EmptySliceError,
    JointHistogram,
    OutOfRangeError,
    ShapeMismatchError,
    SliceStats,
    bin_count,
    write_density_csv,
    write_slice_stats_csv,
)
from entmi.histogram import load_histogram


class TestBinMath:
    @pytest.mark.parametrize(
        "delta,expected",
        [(0.01, 100), (0.0025, 400), (0.25, 4), (0.3, 4), (1.0, 1), (1 / 3, 3)],
    )
    def test_bin_count(self, delta, expected):
        assert bin_count(delta) == expected

    def test_bin_count_domain(self):
        with pytest.raises(DomainError):
            bin_count(0.0)
        with pytest.raises(DomainError):
            bin_count(1.5)


class TestAccumulate:
    def test_origin_goes_to_first_bin(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(0.0, 0.0)
        assert h.counts[0, 0] == 1
        assert h.total == 1

    def test_upper_corner_goes_to_last_closed_bin(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(1.0, 1.0)
        assert h.counts[99, 99] == 1

    def test_half_open_edges(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(0.01, 0.02)
        assert h.counts[1, 2] == 1

    def test_tiny_overshoot_is_clamped(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(1.0 + 5e-13, -5e-13)
        assert h.counts[99, 0] == 1

    def test_large_overshoot_raises(self):
        h = JointHistogram(0.01, 0.01)
        with pytest.raises(OutOfRangeError):
            h.accumulate(1.01, 0.0)
        with pytest.raises(OutOfRangeError):
            h.accumulate(0.5, -0.01)
        # Batches are binned in tiles; an overshoot in a later tile still
        # raises, and nothing of the batch is counted.
        c = np.full(60_000, 0.5)
        c[50_001] = 1.5
        with pytest.raises(OutOfRangeError):
            h.accumulate_many(c, np.zeros_like(c))
        assert h.total == 0 and not h.counts.any()

    def test_batch_lengths_must_match(self):
        h = JointHistogram(0.01, 0.01)
        with pytest.raises(ShapeMismatchError):
            h.accumulate_many([0.1, 0.2], [0.1])

    def test_total_counts_every_call(self):
        h = JointHistogram(0.1, 0.1)
        h.accumulate_many(np.full(1000, 0.55), np.full(1000, 0.15))
        assert h.total == 1000
        assert h.counts[5, 1] == 1000


class TestMerge:
    def _filled(self, seed, n=5000, delta=0.05):
        gen = np.random.default_rng(seed)
        h = JointHistogram(delta, delta)
        h.accumulate_many(gen.random(n), gen.random(n))
        return h

    def test_identity(self):
        h = self._filled(1)
        empty = JointHistogram(h.delta_c, h.delta_i)
        assert h.merge(empty) == h

    def test_commutative(self):
        a, b = self._filled(1), self._filled(2)
        assert a.merge(b) == b.merge(a)

    def test_associative(self):
        a, b, c = self._filled(1), self._filled(2), self._filled(3)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_conserves_total(self):
        a, b = self._filled(1), self._filled(2)
        assert a.merge(b).total == a.total + b.total

    def test_incompatible_bins_raise(self):
        with pytest.raises(ShapeMismatchError):
            JointHistogram(0.01, 0.01).merge(JointHistogram(0.02, 0.01))

    def test_sharded_equals_serial(self):
        gen = np.random.default_rng(9)
        c, i = gen.random(40_000), gen.random(40_000)
        serial = JointHistogram(0.01, 0.01)
        serial.accumulate_many(c, i)
        merged = JointHistogram(0.01, 0.01)
        for shard_c, shard_i in zip(np.array_split(c, 8), np.array_split(i, 8)):
            part = JointHistogram(0.01, 0.01)
            part.accumulate_many(shard_c, shard_i)
            merged = merged.merge(part)
        assert merged == serial

    def test_coarsen_preserves_counts(self):
        h = self._filled(4, delta=0.0125)
        coarse = h.coarsen(4, 4)
        assert coarse.nbins_c == 20
        assert coarse.total == h.total
        assert coarse.counts.sum() == h.counts.sum()
        with pytest.raises(ShapeMismatchError):
            h.coarsen(3, 3)


class TestDensities:
    def test_single_point_delta_density(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(0.505, 0.0)
        density = h.marginal("c")
        assert density.values[50] == pytest.approx(100.0)
        assert np.count_nonzero(density.values) == 1
        assert density.integral() == pytest.approx(1.0, abs=1e-9)

    def test_empty_histogram_raises(self):
        with pytest.raises(EmptyHistogramError):
            JointHistogram(0.01, 0.01).marginal("i")

    def test_marginals_integrate_to_one(self):
        gen = np.random.default_rng(12)
        h = JointHistogram(0.0025, 0.0025)
        h.accumulate_many(gen.random(100_000), gen.random(100_000))
        assert h.marginal("c").integral() == pytest.approx(1.0, abs=1e-9)
        assert h.marginal("i").integral() == pytest.approx(1.0, abs=1e-9)

    def test_narrow_last_bin_density_uses_its_true_width(self):
        # 0.3 gives 4 bins; the last is [0.9, 1.0], a third as wide as the others.
        h = JointHistogram(0.3, 0.3)
        h.accumulate_many([0.1, 0.95, 0.95, 0.5], [0.95, 0.95, 0.2, 0.95])
        widths = np.diff(np.array([0.0, 0.3, 0.6, 0.9, 1.0]))
        densities = [
            h.marginal("c"), h.marginal("i"),
            h.concurrence_slice(0.0, 1.0), h.mi_slice(0.8, 1.0),
        ]
        for density in densities:
            assert np.sum(density.values * widths) == pytest.approx(1.0, abs=1e-12)
            assert density.integral() == pytest.approx(1.0, abs=1e-12)
        assert h.marginal("c").values[3] == pytest.approx(0.5 / 0.1)
        assert h.marginal("c").values[0] == pytest.approx(0.25 / 0.3)

    def test_joint_density_integrates_to_one(self):
        gen = np.random.default_rng(12)
        h = JointHistogram(0.01, 0.02)
        h.accumulate_many(gen.random(50_000), gen.random(50_000))
        joint = h.counts.astype(float) / (h.total * h.delta_c * h.delta_i)
        assert joint.sum() * h.delta_c * h.delta_i == pytest.approx(1.0, abs=1e-9)

    def test_full_slice_equals_marginal(self):
        gen = np.random.default_rng(13)
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many(gen.random(30_000), gen.random(30_000))
        full = h.concurrence_slice(0.0, 1.0)
        np.testing.assert_allclose(full.values, h.marginal("c").values)
        full_i = h.mi_slice(0.0, 1.0)
        np.testing.assert_allclose(full_i.values, h.marginal("i").values)

    def test_slice_normalization(self):
        gen = np.random.default_rng(14)
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many(gen.random(30_000), gen.random(30_000))
        sliced = h.concurrence_slice(0.095, 0.105)
        assert sliced.integral() == pytest.approx(1.0, abs=1e-9)

    def test_slice_domain_and_emptiness(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(0.5, 0.5)
        with pytest.raises(DomainError):
            h.concurrence_slice(0.8, 0.2)
        with pytest.raises(EmptySliceError):
            h.concurrence_slice(0.0, 0.1)

    def test_selection_is_by_bin_center(self):
        h = JointHistogram(0.0025, 0.0025)
        h.accumulate(0.5, 0.09625)  # i-bin 38, first center inside [0.095, 0.105]
        h.accumulate(0.5, 0.10375)  # i-bin 41, last center inside
        h.accumulate(0.5, 0.10625)  # i-bin 42, center outside -> excluded
        sliced = h.concurrence_slice(0.095, 0.105)
        # Both in-slice points sit in the same C bin, so its density is 1/delta.
        assert sliced.values[200] == pytest.approx(1 / 0.0025)
        assert sliced.integral() == pytest.approx(1.0, abs=1e-12)


class TestSliceStats:
    def test_point_mass(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many(np.full(10, 0.205), np.full(10, 0.3))
        stats = h.slice_stats(0.3, 0.005)
        assert stats.count == 10
        assert stats.c_star == pytest.approx(0.205)
        assert stats.mean_c == pytest.approx(0.205)
        assert stats.std_c == 0.0

    def test_tie_resolves_to_lowest_bin(self):
        h = JointHistogram(0.1, 0.1)
        h.accumulate_many([0.35, 0.75], [0.0, 0.0])
        stats = h.slice_stats(0.0, 0.05)
        assert stats.c_star == pytest.approx(0.35)

    def test_negative_lower_edge_is_fine(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(0.4, 0.0)
        stats = h.slice_stats(0.0, 0.005)
        assert stats.count == 1

    def test_empty_slice_raises(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate(0.4, 0.9)
        with pytest.raises(EmptySliceError):
            h.slice_stats(0.2, 0.005)

    def test_moments_match_manual_computation(self):
        gen = np.random.default_rng(15)
        h = JointHistogram(0.01, 0.01)
        c = gen.random(20_000)
        h.accumulate_many(c, np.full(20_000, 0.42))
        stats = h.slice_stats(0.42, 0.005)
        binned = (np.minimum((c / 0.01).astype(int), 99) + 0.5) * 0.01
        assert stats.count == 20_000
        assert stats.mean_c == pytest.approx(binned.mean(), abs=1e-12)
        assert stats.std_c == pytest.approx(binned.std(), abs=1e-12)


class TestSerialization:
    def _example(self):
        h = JointHistogram(0.25, 0.5)
        h.accumulate_many([0.1, 0.1, 0.6, 1.0], [0.2, 0.2, 0.9, 0.0])
        return h

    def test_csv_round_trip(self):
        h = self._example()
        buf = io.StringIO()
        h.write_csv(buf, meta={"ensemble": "real-s3", "n": 4})
        text = buf.getvalue()
        assert text.startswith("# joint_histogram delta_c=0.25 delta_i=0.5 total=4\n")
        assert "# meta ensemble=real-s3 n=4\n" in text
        back = JointHistogram.read_csv(io.StringIO(text))
        assert back == h

    def test_csv_rows_only_nonzero_bins(self):
        buf = io.StringIO()
        self._example().write_csv(buf)
        rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert rows == ["0,0,2", "2,1,1", "3,0,1"]

    def test_csv_bytes_are_deterministic(self):
        first, second = io.StringIO(), io.StringIO()
        self._example().write_csv(first)
        self._example().write_csv(second)
        assert first.getvalue() == second.getvalue()

    def test_csv_rejects_corrupt_total(self):
        buf = io.StringIO()
        self._example().write_csv(buf)
        tampered = buf.getvalue().replace("total=4", "total=5")
        with pytest.raises(ValueError, match="corrupt"):
            JointHistogram.read_csv(io.StringIO(tampered))

    def test_csv_repeated_bins_add_and_counts_stay_exact(self):
        big = 2**63 + 1
        text = (
            f"# joint_histogram delta_c=0.5 delta_i=0.5 total={big + 3}\n"
            f"0,0,1\n1,1,{big}\n0,0,2\n"
        )
        hist = JointHistogram.read_csv(io.StringIO(text))
        assert int(hist.counts[0, 0]) == 3
        assert int(hist.counts[1, 1]) == big
        assert hist.total == big + 3

    def test_csv_rejects_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            JointHistogram.read_csv(io.StringIO("0,0,1\n"))

    def test_json_round_trip(self):
        h = self._example()
        buf = io.StringIO()
        h.write_json(buf, meta={"ensemble": "param"})
        payload = json.loads(buf.getvalue())
        assert payload["meta"]["ensemble"] == "param"
        back = JointHistogram.from_json_dict(payload)
        assert back == h

    def test_load_histogram_sniffs_format(self, tmp_path):
        h = self._example()
        csv_path = tmp_path / "h.csv"
        json_path = tmp_path / "h.json"
        with open(csv_path, "w") as fh:
            h.write_csv(fh)
        with open(json_path, "w") as fh:
            h.write_json(fh)
        assert load_histogram(csv_path) == h
        assert load_histogram(json_path) == h

    def test_density_csv_format(self):
        density = Density1D("C", 0.5, np.array([1.5, 0.5]))
        buf = io.StringIO()
        write_density_csv(density, buf)
        assert buf.getvalue() == "bin_center,density\n0.25,1.5\n0.75,0.5\n"

    def test_slice_stats_csv_format(self):
        row = SliceStats(0.5, 0.005, 0.78, 0.81, 0.09, 12345)
        buf = io.StringIO()
        write_slice_stats_csv([row], buf)
        assert buf.getvalue() == (
            "i_center,c_star,mean_c,std_c,count\n0.5,0.78,0.81,0.09,12345\n"
        )


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_sharding_never_changes_counts(self, points, shards):
        c = np.array([p[0] for p in points])
        i = np.array([p[1] for p in points])
        serial = JointHistogram(0.1, 0.1)
        serial.accumulate_many(c, i)
        merged = JointHistogram(0.1, 0.1)
        for shard_c, shard_i in zip(np.array_split(c, shards), np.array_split(i, shards)):
            part = JointHistogram(0.1, 0.1)
            if shard_c.size:
                part.accumulate_many(shard_c, shard_i)
            merged = merged.merge(part)
        assert merged == serial
        assert serial.total == len(points)
