"""End-to-end tests of the command-line interface (in-process)."""

import json

import numpy as np
import pytest

from entmi import JointHistogram, load_histogram, ridge_concurrence


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSample:
    def test_writes_histogram_with_metadata(self, run_cli, tmp_path):
        out = tmp_path / "h.csv"
        code = run_cli(
            [
                "sample", "--ensemble", "real-s3", "--n", "20000",
                "--seed", "42", "--bins", "0.01", "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("# joint_histogram delta_c=0.01 delta_i=0.01 total=20000\n")
        assert "# meta ensemble=real-s3 n=20000 master_seed=42\n" in text
        hist = load_histogram(out)
        assert hist.total == 20000

    def test_repeat_runs_byte_identical(self, run_cli, tmp_path):
        argv = [
            "sample", "--n", "20000", "--seed", "7", "--bins", "0.02",
            "--out", None,
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv[-1] = str(first)
        assert run_cli(list(argv)) == 0
        argv[-1] = str(second)
        assert run_cli(list(argv)) == 0
        assert _read(first) == _read(second)

    def test_worker_count_does_not_change_output(self, run_cli, tmp_path):
        base = [
            "sample", "--n", "600000", "--seed", "3", "--bins", "0.01",
        ]
        one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run_cli(base + ["--workers", "1", "--out", str(one)]) == 0
        assert run_cli(base + ["--workers", "2", "--out", str(two)]) == 0
        assert _read(one) == _read(two)
        assert load_histogram(one) == load_histogram(two)

    def test_env_var_sets_workers(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setenv("QES_WORKERS", "2")
        out = tmp_path / "h.csv"
        assert run_cli(["sample", "--n", "5000", "--out", str(out)]) == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_invalid_env_workers_exit_2(
        self, run_cli, tmp_path, monkeypatch, capsys, value
    ):
        monkeypatch.setenv("QES_WORKERS", value)
        out = tmp_path / "h.csv"
        assert run_cli(["sample", "--n", "5000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "QES_WORKERS" in err
        assert not out.exists()

    def test_json_format(self, run_cli, tmp_path):
        out = tmp_path / "h.json"
        code = run_cli(
            ["sample", "--n", "10000", "--seed", "1", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["total"] == 10000
        assert payload["meta"]["ensemble"] == "real-s3"
        assert load_histogram(out).total == 10000

    def test_invalid_arguments_exit_2(self, run_cli, tmp_path):
        out = str(tmp_path / "h.csv")
        assert run_cli(["sample", "--ensemble", "bogus", "--out", out]) == 2
        assert run_cli(["sample", "--n", "0", "--out", out]) == 2
        assert run_cli(["sample", "--bins", "0", "--out", out]) == 2
        assert run_cli(["sample", "--bins", "2", "--out", out]) == 2
        assert run_cli(["sample", "--workers", "0", "--out", out]) == 2

    def test_unwritable_path_exits_3(self, run_cli):
        assert run_cli(
            ["sample", "--n", "1000", "--out", "/nonexistent/dir/h.csv"]
        ) == 3


@pytest.fixture(scope="module")
def sampled_hist(tmp_path_factory):
    from entmi.cli import main

    path = tmp_path_factory.mktemp("hist") / "h.csv"
    code = main(
        ["sample", "--ensemble", "real-s3", "--n", "1000000", "--seed", "99",
         "--bins", "0.01", "--out", str(path)]
    )
    assert code == 0
    return path


class TestTable:
    def test_table_shape_and_inverse_column(self, run_cli, tmp_path, sampled_hist):
        out = tmp_path / "table.csv"
        code = run_cli(
            ["table", "--hist", str(sampled_hist), "--halfwidth", "0.01",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "i_center,c_star,ridge_c,mean_c,std_c,count"
        assert len(lines) == 11
        row = dict(zip(lines[0].split(","), lines[6].split(",")))
        assert float(row["i_center"]) == 0.5
        assert float(row["ridge_c"]) == pytest.approx(ridge_concurrence(0.5))
        assert int(row["count"]) > 0
        assert 0.0 <= float(row["c_star"]) <= 1.0

    def test_empty_slice_rows_are_flagged(self, run_cli, tmp_path):
        hist_path = tmp_path / "tiny.csv"
        h = JointHistogram(0.01, 0.01)
        h.accumulate(0.5, 0.5)
        with open(hist_path, "w") as fh:
            h.write_csv(fh)
        out = tmp_path / "table.csv"
        code = run_cli(
            ["table", "--hist", str(hist_path), "--centers", "0.9",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1].startswith("0.9,nan,")
        assert lines[1].endswith(",0")

    def test_missing_histogram_exits_3(self, run_cli, tmp_path):
        assert run_cli(
            ["table", "--hist", str(tmp_path / "absent.csv"), "--out", "-"]
        ) == 3

    def test_bad_centers_exit_2(self, run_cli, sampled_hist):
        assert run_cli(
            ["table", "--hist", str(sampled_hist), "--centers", "a,b"]
        ) == 2


class TestCurve:
    def test_grid_and_endpoints(self, run_cli, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(["curve", "--points", "101", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "c,ridge_i,bound_e"
        assert len(lines) == 102
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first == [0.0, 0.0, 0.0]
        assert last == [1.0, 1.0, 1.0]

    def test_ridge_below_bound_everywhere(self, run_cli, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(["curve", "--points", "201", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-15)

    def test_known_row(self, run_cli, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(["curve", "--points", "101", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        row = rows[np.isclose(rows[:, 0], 0.37)][0]
        assert round(row[1], 2) == 0.10

    def test_too_few_points_exit_2(self, run_cli):
        assert run_cli(["curve", "--points", "1", "--out", "-"]) == 2


class TestVerify:
    def test_selected_checks_pass(self, run_cli, tmp_path):
        out = tmp_path / "report.jsonl"
        code = run_cli(
            ["verify", "--check", "bound", "--check", "zero-mi",
             "--check", "mi-oracle", "--n", "50000", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            payload = json.loads(line)
            assert payload["pass"] is True

    def test_bound_on_complex_ensemble(self, run_cli, tmp_path):
        out = tmp_path / "report.jsonl"
        code = run_cli(
            ["verify", "--check", "bound", "--ensemble", "complex-s7",
             "--n", "50000", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text().strip())
        assert payload["name"] == "bound[complex-s7]"

    def test_all_suite(self, run_cli, tmp_path):
        out = tmp_path / "report.jsonl"
        code = run_cli(
            ["verify", "--all", "--n", "20000", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        names = [json.loads(l)["name"] for l in out.read_text().strip().split("\n")]
        assert names == ["bound[real-s3]", "bound[complex-s7]", "zero-mi", "mi-oracle"]

    def test_ridge_against_existing_histogram(self, run_cli, tmp_path):
        # Synthetic histogram with peaks exactly on the curve.
        from entmi import ridge_mi

        h = JointHistogram(0.01, 0.01)
        centers_i = h.centers("i")
        for col, c in enumerate(h.centers("c")):
            peak = int(np.argmin(np.abs(centers_i - ridge_mi(float(c)))))
            h.counts[col, 0] = 200_000
            h.counts[col, max(peak, 1)] = 100_000
        h.total = int(h.counts.sum())
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            h.write_csv(fh)
        out = tmp_path / "report.jsonl"
        code = run_cli(
            ["verify", "--check", "ridge", "--hist", str(path), "--out", str(out)]
        )
        assert code == 0

    def test_ridge_without_enough_samples_exit_2(self, run_cli, tmp_path):
        assert run_cli(["verify", "--check", "ridge", "--n", "1000"]) == 2

    def test_invalid_n_exit_2(self, run_cli):
        assert run_cli(["verify", "--check", "zero-mi", "--n", "0"]) == 2

    def test_no_selection_exit_2(self, run_cli):
        assert run_cli(["verify", "--n", "100"]) == 2

    def test_failed_check_exit_1(self, run_cli, tmp_path):
        # Peaks displaced well off the curve must fail the ridge check.
        from entmi import ridge_mi

        h = JointHistogram(0.01, 0.01)
        centers_i = h.centers("i")
        for col, c in enumerate(h.centers("c")):
            peak = int(np.argmin(np.abs(centers_i - ridge_mi(float(c)))))
            h.counts[col, 0] = 200_000
            h.counts[col, min(max(peak + 6, 1), 99)] = 100_000
        h.total = int(h.counts.sum())
        path = tmp_path / "off.csv"
        with open(path, "w") as fh:
            h.write_csv(fh)
        code = run_cli(
            ["verify", "--check", "ridge", "--hist", str(path), "--out", "-"]
        )
        assert code == 1


class TestDensityCommands:
    def test_marginal(self, run_cli, tmp_path, sampled_hist):
        out = tmp_path / "pc.csv"
        assert run_cli(
            ["marginal", "--hist", str(sampled_hist), "--axis", "c",
             "--out", str(out)]
        ) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (100, 2)
        assert rows[:, 1].sum() * 0.01 == pytest.approx(1.0, abs=1e-9)

    def test_conditional(self, run_cli, tmp_path, sampled_hist):
        out = tmp_path / "slice.csv"
        assert run_cli(
            ["conditional", "--hist", str(sampled_hist), "--axis", "c",
             "--lo", "0.495", "--hi", "0.505", "--out", str(out)]
        ) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, 1].sum() * 0.01 == pytest.approx(1.0, abs=1e-9)

    def test_conditional_bad_slice_exit_2(self, run_cli, sampled_hist):
        assert run_cli(
            ["conditional", "--hist", str(sampled_hist), "--axis", "c",
             "--lo", "0.9", "--hi", "0.1"]
        ) == 2


_HEADER = "# joint_histogram delta_c=0.5 delta_i=0.5 total=5\n"

_MALFORMED = [
    ("negative-index.csv", _HEADER + "-1,0,5\n"),
    ("index-out-of-range.csv", _HEADER + "2,0,5\n"),
    ("negative-count.csv", _HEADER + "0,0,-5\n"),
    ("missing-header.csv", "0,0,5\n"),
    ("two-field-row.csv", _HEADER + "0,5\n"),
    ("four-field-row.csv", _HEADER + "0,0,5,1\n"),
    ("non-integer-count.csv", _HEADER + "0,0,2.5\n"),
    ("malformed-header.csv", "# joint_histogram delta_c=x delta_i=0.5 total=5\n0,0,5\n"),
    ("wrong-total.csv", _HEADER + "0,0,4\n"),
    ("two-field-bin.json", '{"delta_c":0.5,"delta_i":0.5,"total":5,"bins":[[0,5]]}'),
    ("negative-count.json", '{"delta_c":0.5,"delta_i":0.5,"total":5,"bins":[[0,0,-5]]}'),
    ("index-out-of-range.json", '{"delta_c":0.5,"delta_i":0.5,"total":5,"bins":[[0,2,5]]}'),
    ("missing-key.json", '{"delta_c":0.5,"total":5,"bins":[]}'),
    ("truncated.json", '{"delta_c":0.5,'),
    # A 10^9 x 10^9 grid cannot be allocated (numpy asks for 6.94 EiB).
    ("unallocatable-grid.csv", "# joint_histogram delta_c=1e-9 delta_i=1e-9 total=0\n"),
    ("zero-bin-width.json", '{"delta_c":0.0,"delta_i":0.5,"total":0,"bins":[]}'),
]


class TestMalformedHistogram:
    """Every malformed histogram file ends in exit 2 and one line on stderr."""

    @pytest.mark.parametrize(
        "name,content", _MALFORMED, ids=[name for name, _ in _MALFORMED]
    )
    def test_exit_2_with_one_line(self, run_cli, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_text(content)
        assert run_cli(["marginal", "--hist", str(path), "--axis", "c"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_binary_file_exit_2(self, run_cli, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert run_cli(["table", "--hist", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_empty_histogram_reads_back(self, run_cli, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# joint_histogram delta_c=0.5 delta_i=0.5 total=0\n# meta n=0\n")
        hist = load_histogram(path)
        assert hist.total == 0 and hist.counts.shape == (2, 2)
