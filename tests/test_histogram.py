"""Unit tests for the mergeable 2D histogram and its serialized forms."""

import copy
import io
import json
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entmi import (
    Density1D,
    DomainError,
    EmptyHistogramError,
    EmptySliceError,
    HistogramFormatError,
    JointHistogram,
    OutOfRangeError,
    ShapeMismatchError,
    write_density_csv,
)
from entmi.histogram import bin_count, bin_widths, load_histogram
from entmi.pipeline import TileHistogram


def _merge(*parts):
    """``parts`` combined as a scan combines its shares' partials, from an empty grid."""
    spec = TileHistogram("real-s3", parts[0].delta_c, parts[0].delta_i)
    total = spec.empty()
    for part in parts:
        total = spec.merge(total, copy.deepcopy(part))
    return total


class TestBinMath:
    @pytest.mark.parametrize(
        "delta,expected",
        [(0.01, 100), (0.0025, 400), (0.25, 4), (0.3, 4), (1.0, 1), (1 / 3, 3)],
    )
    def test_bin_count(self, delta, expected):
        assert bin_count(delta) == expected

    def test_bin_count_rejects_width_whose_inverse_overflows(self):
        # 5e-324 lies in (0, 1], but 1/5e-324 is inf, which has no bin count.
        with pytest.raises(DomainError, match="overflows"):
            bin_count(5e-324)
        with pytest.raises(DomainError):
            JointHistogram(5e-324, 0.5)

    def test_bin_count_domain(self):
        with pytest.raises(DomainError):
            bin_count(0.0)
        with pytest.raises(DomainError):
            bin_count(1.5)


class TestAccumulate:
    def test_origin_goes_to_first_bin(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([0.0], [0.0])
        assert h.counts[0, 0] == 1
        assert h.total == 1

    def test_upper_corner_goes_to_last_closed_bin(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([1.0], [1.0])
        assert h.counts[99, 99] == 1

    def test_half_open_edges(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([0.01], [0.02])
        assert h.counts[1, 2] == 1

    def test_tiny_overshoot_is_clamped(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([1.0 + 5e-13], [-5e-13])
        assert h.counts[99, 0] == 1

    def test_large_overshoot_raises(self):
        h = JointHistogram(0.01, 0.01)
        with pytest.raises(OutOfRangeError):
            h.accumulate_many([1.01], [0.0])
        with pytest.raises(OutOfRangeError):
            h.accumulate_many([0.5], [-0.01])
        # Batches are binned in tiles; an overshoot in a later tile still
        # raises, and nothing of the batch is counted.
        c = np.full(60_000, 0.5)
        c[50_001] = 1.5
        with pytest.raises(OutOfRangeError):
            h.accumulate_many(c, np.zeros_like(c))
        assert h.total == 0 and not h.counts.any()

    def test_nan_raises(self):
        # A NaN used to be cast to an arbitrary bin index and counted.
        h = JointHistogram(0.1, 0.1)
        with pytest.raises(OutOfRangeError):
            h.accumulate_many([float("nan")], [0.5])
        with pytest.raises(OutOfRangeError):
            h.accumulate_many([0.5, 0.5], [0.2, float("nan")])
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
        assert _merge(h, empty) == _merge(empty, h) == h

    def test_commutative(self):
        a, b = self._filled(1), self._filled(2)
        assert _merge(a, b) == _merge(b, a)

    def test_associative(self):
        a, b, c = self._filled(1), self._filled(2), self._filled(3)
        assert _merge(_merge(a, b), c) == _merge(a, _merge(b, c))

    def test_conserves_total(self):
        a, b = self._filled(1), self._filled(2)
        assert _merge(a, b).total == a.total + b.total

    def test_sharded_equals_serial(self):
        gen = np.random.default_rng(9)
        c, i = gen.random(40_000), gen.random(40_000)
        serial = JointHistogram(0.01, 0.01)
        serial.accumulate_many(c, i)
        parts = []
        for shard_c, shard_i in zip(np.array_split(c, 8), np.array_split(i, 8)):
            parts.append(JointHistogram(0.01, 0.01))
            parts[-1].accumulate_many(shard_c, shard_i)
        assert _merge(*parts) == serial


class TestDensities:
    def test_single_point_delta_density(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([0.505], [0.0])
        density = h.marginal("c")
        assert density.values[50] == pytest.approx(100.0)
        assert np.count_nonzero(density.values) == 1
        widths = bin_widths(density.delta, len(density.values))
        assert np.sum(density.values * widths) == pytest.approx(1.0, abs=1e-9)

    def test_empty_histogram_raises(self):
        with pytest.raises(EmptyHistogramError):
            JointHistogram(0.01, 0.01).marginal("i")

    def test_marginals_integrate_to_one(self):
        gen = np.random.default_rng(12)
        h = JointHistogram(0.0025, 0.0025)
        h.accumulate_many(gen.random(100_000), gen.random(100_000))
        for axis in ("c", "i"):
            density = h.marginal(axis)
            widths = bin_widths(density.delta, len(density.values))
            assert np.sum(density.values * widths) == pytest.approx(1.0, abs=1e-9)

    def test_narrow_last_bin_density_uses_its_true_width(self):
        # 0.3 gives 4 bins; the last is [0.9, 1.0], a third as wide as the others.
        h = JointHistogram(0.3, 0.3)
        h.accumulate_many([0.1, 0.95, 0.95, 0.5], [0.95, 0.95, 0.2, 0.95])
        widths = np.diff(np.array([0.0, 0.3, 0.6, 0.9, 1.0]))
        densities = [
            h.marginal("c"), h.marginal("i"),
            h.conditional("c", 0.0, 1.0), h.conditional("i", 0.8, 1.0),
        ]
        for density in densities:
            assert np.sum(density.values * widths) == pytest.approx(1.0, abs=1e-12)
            computed = bin_widths(density.delta, len(density.values))
            assert np.sum(density.values * computed) == pytest.approx(1.0, abs=1e-12)
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
        full = h.conditional("c", 0.0, 1.0)
        np.testing.assert_allclose(full.values, h.marginal("c").values)
        full_i = h.conditional("i", 0.0, 1.0)
        np.testing.assert_allclose(full_i.values, h.marginal("i").values)

    def test_slice_normalization(self):
        gen = np.random.default_rng(14)
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many(gen.random(30_000), gen.random(30_000))
        sliced = h.conditional("c", 0.095, 0.105)
        widths = bin_widths(sliced.delta, len(sliced.values))
        assert np.sum(sliced.values * widths) == pytest.approx(1.0, abs=1e-9)

    def test_slice_domain_and_emptiness(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([0.5], [0.5])
        with pytest.raises(DomainError):
            h.conditional("c", 0.8, 0.2)
        with pytest.raises(EmptySliceError):
            h.conditional("c", 0.0, 0.1)

    def test_selection_is_by_bin_center(self):
        h = JointHistogram(0.0025, 0.0025)
        # i-bins 38 and 41 hold the first and last centers inside [0.095, 0.105];
        # i-bin 42's center lies outside, so its point is excluded.
        h.accumulate_many([0.5, 0.5, 0.5], [0.09625, 0.10375, 0.10625])
        sliced = h.conditional("c", 0.095, 0.105)
        # Both in-slice points sit in the same C bin, so its density is 1/delta.
        assert sliced.values[200] == pytest.approx(1 / 0.0025)
        widths = bin_widths(sliced.delta, len(sliced.values))
        assert np.sum(sliced.values * widths) == pytest.approx(1.0, abs=1e-12)


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
        h.accumulate_many([0.4], [0.0])
        stats = h.slice_stats(0.0, 0.005)
        assert stats.count == 1

    def test_empty_slice_raises(self):
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([0.4], [0.9])
        with pytest.raises(EmptySliceError):
            h.slice_stats(0.2, 0.005)

    @pytest.mark.parametrize(
        "center,halfwidth,message",
        [(np.nan, 0.01, "slice center must be finite"),
         (np.inf, 0.01, "slice center must be finite"),
         (-np.inf, 0.01, "slice center must be finite"),
         (0.5, np.nan, "slice halfwidth must be positive and finite"),
         (0.5, np.inf, "slice halfwidth must be positive and finite"),
         (0.5, 0.0, "slice halfwidth must be positive and finite"),
         (0.5, -0.01, "slice halfwidth must be positive and finite")],
    )
    def test_bad_slice_raises_domain_error(self, center, halfwidth, message):
        # A NaN center or halfwidth raised EmptySliceError ("no i-bins with
        # centers in [nan, nan]"), and an infinite halfwidth ran.
        h = JointHistogram(0.01, 0.01)
        h.accumulate_many([0.4], [0.5])
        with pytest.raises(DomainError, match=f"^{message}$"):
            h.slice_stats(center, halfwidth)

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
        back = JointHistogram.read_json(io.StringIO(json.dumps(payload)))
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
        density = Density1D(0.5, np.array([1.5, 0.5]))
        buf = io.StringIO()
        write_density_csv(density, buf)
        assert buf.getvalue() == "bin_center,density\n0.25,1.5\n0.75,0.5\n"


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
        parts = []
        for shard_c, shard_i in zip(np.array_split(c, shards), np.array_split(i, shards)):
            parts.append(JointHistogram(0.1, 0.1))
            if shard_c.size:
                parts[-1].accumulate_many(shard_c, shard_i)
        assert _merge(*parts) == serial
        assert serial.total == len(points)


# -- reader fuzzing --------------------------------------------------------------
#
# A reader either returns a histogram whose counts sum to its total or raises
# HistogramFormatError, never anything else.  The texts are valid histograms
# with up to three fields made odd.  Bin widths come only from lists of widths
# that are rejected before any grid is allocated or that give at most
# 100 x 100 bins: a width such as 1e-5 asks np.zeros for 80 GB, which
# overcommit may grant, and counts.sum() would then scan all of it.

GOOD_WIDTHS = ["1.0", "0.5", "0.3", "0.25", "0.1", "0.01", repr(1 / 3)]
BAD_WIDTHS = ["nan", "inf", "-inf", "1e400", "5e-324", "1e-300", "0", "-0.5", "1.5", "x"]
# Odd values of a number field: non-finite, huge, subnormal, zero, negative,
# fractional and >= 2**64 values, and non-numbers.
ODD_NUMBERS = [
    "nan", "inf", "-inf", "1e400", "5e-324", "0", "-1", "1.7", "2.5e3",
    str(2**64), str(2**64 - 1), str(2**63), "", "x", "0x10",
]
JSON_BAD_WIDTHS = [
    "NaN", "Infinity", "-Infinity", "1e400", "5e-324", "1e-300", "0", "-0.5",
    "1.5", str(10**400), "true", "null", '"0.5"', "[]",
]
JSON_ODD = [
    "NaN", "Infinity", "-Infinity", "1e400", "5e-324", "-1", "1.7", "1.0",
    str(2**64), str(2**64 - 1), str(2**63), "true", "null", '"5"', "[]", "{}",
]
SMALL = st.integers(0, 2).map(str)


def _odd(values):
    return st.one_of(st.integers(-2, 2**64 + 2).map(str), st.sampled_from(values))


@st.composite
def _histogram_fields(draw, bad_widths, odd_values):
    """Header fields and bin rows of a small histogram, up to three made odd.

    Returns (fields, rows, odd_bins), where ``odd_bins`` asks the caller to
    write the bins in a shape the format does not have.
    """
    rows = draw(st.lists(st.lists(SMALL, min_size=3, max_size=3), max_size=6))
    fields = {
        "delta_c": draw(st.sampled_from(GOOD_WIDTHS)),
        "delta_i": draw(st.sampled_from(GOOD_WIDTHS)),
        "total": str(sum(int(row[2]) for row in rows)),
    }
    odd_bins = False
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["width", "total", "field", "row", "key", "bins"]))
        if where == "width":
            key = draw(st.sampled_from(["delta_c", "delta_i"]))
            fields[key] = draw(st.sampled_from(bad_widths))
        elif where == "total":
            fields["total"] = draw(_odd(odd_values))
        elif where == "field" and any(rows):
            row = draw(st.sampled_from([row for row in rows if row]))
            row[draw(st.integers(0, len(row) - 1))] = draw(_odd(odd_values))
        elif where == "row":
            rows.append(draw(st.lists(SMALL | _odd(odd_values), max_size=5)))
        elif where == "key":
            fields.pop(draw(st.sampled_from(sorted(fields))), None)
        elif where == "bins":
            odd_bins = True
    return fields, rows, odd_bins


@st.composite
def csv_texts(draw):
    fields, rows, odd_bins = draw(_histogram_fields(BAD_WIDTHS, ODD_NUMBERS))
    header = "# joint_histogram " + " ".join(f"{k}={v}" for k, v in fields.items())
    lines = [header, "# meta n=1"] + [",".join(row) for row in rows]
    if odd_bins:
        line = st.text(string.printable, max_size=8) | st.text(max_size=8)
        lines.insert(draw(st.integers(0, len(lines))), draw(line))
    return "\n".join(lines) + "\n"


@st.composite
def json_texts(draw):
    fields, rows, odd_bins = draw(_histogram_fields(JSON_BAD_WIDTHS, JSON_ODD))
    fields["bins"] = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    if odd_bins:
        fields["bins"] = draw(st.sampled_from(["{}", "5", "null", "[5]", "[[0,0]]"]))
    text = "{" + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}"
    return draw(st.sampled_from([text] * 8 + [text[:-1], f"[{text}]", "5"]))


def _outcome(read, source):
    """The histogram ``read(source)`` gives, or the message of its format error."""
    try:
        hist = read(source)
    except HistogramFormatError as exc:
        return str(exc).removeprefix(f"{source}: ")
    assert sum(hist.counts.ravel().tolist()) == hist.total
    return hist


def _read_every_route(text, tmp_path, pipe_path):
    """The one outcome of ``text`` read as a text stream, as a file and as a pipe.

    The stream reader is the one that ``load_histogram`` picks by the first
    character.
    """
    read = JointHistogram.read_json if text.startswith("{") else JointHistogram.read_csv
    path = tmp_path / "h"
    path.write_bytes(text.encode("utf-8"))
    outcomes = [_outcome(read, io.StringIO(text)), _outcome(load_histogram, path)]
    with pipe_path(text.encode("utf-8")) as pipe:
        outcomes.append(_outcome(load_histogram, pipe))
    assert outcomes[1:] == outcomes[:1] * 2
    return outcomes[0]


# The fixtures are only a directory and a pipe factory, right for any example.
FIXTURES_PER_TEST = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReaderFuzz:
    @given(csv_texts())
    @settings(FIXTURES_PER_TEST, max_examples=400, deadline=None)
    def test_read_csv_gives_consistent_histogram_or_format_error(self, tmp_path,
                                                                 pipe_path, text):
        _read_every_route(text, tmp_path, pipe_path)

    @given(json_texts())
    @settings(FIXTURES_PER_TEST, max_examples=400, deadline=None)
    def test_read_json_gives_consistent_histogram_or_format_error(self, tmp_path,
                                                                  pipe_path, text):
        _read_every_route(text, tmp_path, pipe_path)

    @pytest.mark.parametrize("end,read", [("\r\n", True), ("\r", False)], ids=["crlf", "cr"])
    def test_line_ends_read_alike_on_every_route(self, tmp_path, pipe_path, end, read):
        # Lines end at "\n" on every route; loadtxt drops a "\r" before it.
        header = "# joint_histogram delta_c=0.5 delta_i=0.5 total=2"
        for text in (f"{header}{end}0,0,1{end}1,1,1{end}", f"{header}\n0,0,1{end}1,1,1\n"):
            outcome = _read_every_route(text, tmp_path, pipe_path)
            assert isinstance(outcome, JointHistogram) == read, outcome

    def test_non_ascii_row_is_a_format_error(self):
        # loadtxt could crash the interpreter on this field instead of raising.
        text = "# joint_histogram delta_c=0.5 delta_i=0.5 total=1\n0,0,\U0010ffff\n"
        with pytest.raises(HistogramFormatError, match="ASCII"):
            JointHistogram.read_csv(io.StringIO(text))

    def test_counts_summing_past_2_64_are_rejected(self):
        # uint64 sums wrap: 2**63 + 2**63 would read back as total 0.
        rows = f"0,0,{2**63}\n0,1,{2**63}\n"
        bins = [[0, 0, 2**63], [0, 1, 2**63]]
        for total in (0, 2**64):
            header = f"# joint_histogram delta_c=0.5 delta_i=0.5 total={total}\n"
            with pytest.raises(HistogramFormatError):
                JointHistogram.read_csv(io.StringIO(header + rows))
            payload = {"delta_c": 0.5, "delta_i": 0.5, "total": total, "bins": bins}
            with pytest.raises(HistogramFormatError):
                JointHistogram.read_json(io.StringIO(json.dumps(payload)))

    @given(st.sampled_from(GOOD_WIDTHS), st.sampled_from(GOOD_WIDTHS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_small_histograms_round_trip(self, delta_c, delta_i, data):
        hist = JointHistogram(float(delta_c), float(delta_i))
        # At most 20 counts below 2**59 keep the total below 2**64.
        cells = data.draw(st.dictionaries(
            st.tuples(st.integers(0, hist.nbins_c - 1), st.integers(0, hist.nbins_i - 1)),
            st.integers(1, 2**59),
            max_size=20,
        ))
        for cell, count in cells.items():
            hist.counts[cell] = count
        hist.total = sum(cells.values())
        for write, read in (
            (hist.write_csv, JointHistogram.read_csv),
            (hist.write_json, JointHistogram.read_json),
        ):
            buf = io.StringIO()
            write(buf)
            buf.seek(0)
            assert read(buf) == hist
