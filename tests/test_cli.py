"""End-to-end tests of the command-line interface (in-process)."""

import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from entmi import (
    Ensemble,
    JointHistogram,
    load_histogram,
    pipeline,
    ridge_concurrence,
    run_histogram_job,
    verify,
)
from conftest import SRC

# sha256 of the ``verify --check bound --check ridge --n 10000000 --seed 11``
# jsonl, taken when the ridge histogram was sampled by a job of its own.
BOUND_RIDGE_DIGEST = "591b6291a29a94b98b1d9b9147c151bcaa5dca224d8d4091f57487f61de959b6"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_is_the_file_bytes(self, run_cli, tmp_path, capsys, fmt):
        argv = ["sample", "--n", "1000", "--bins", "0.5", "--format", fmt, "--out"]
        path = tmp_path / f"h.{fmt}"
        assert run_cli(argv + [str(path)]) == 0
        capsys.readouterr()
        assert run_cli(argv + ["-"]) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert printed == path.read_bytes()
        captured = tmp_path / f"stdout.{fmt}"
        captured.write_bytes(printed)
        assert load_histogram(captured) == load_histogram(path)

    def test_separate_bin_widths(self, run_cli, tmp_path):
        # A non-square grid: the flat bin index is c_bin * nbins_i + i_bin.
        out, n = tmp_path / "h.csv", 300_000
        argv = ["sample", "--n", str(n), "--seed", "5", "--delta-c", "0.02",
                "--delta-i", "0.05", "--workers", "2", "--out", str(out)]
        assert run_cli(argv) == 0
        assert out.read_text().startswith("# joint_histogram delta_c=0.02 delta_i=0.05 ")
        hist = load_histogram(out)
        assert hist.counts.shape == (50, 20)
        assert hist.total == n and int(hist.counts.sum()) == n
        job = pipeline.run_histogram_job("real-s3", n, 5, 0.02, 0.05, workers=1)
        assert np.array_equal(hist.counts, job.counts)

    @pytest.mark.parametrize("kind", [kind.value for kind in Ensemble])
    def test_library_job_gives_the_cli_bytes(self, run_cli, tmp_path, kind):
        # A job's counts depend only on (ensemble, n, master seed, bin
        # widths), and the CLI takes each of them.
        out = tmp_path / "h.csv"
        argv = ["sample", "--ensemble", kind, "--n", "600000", "--seed", "11",
                "--bins", "0.01", "--out", str(out)]
        assert run_cli(argv) == 0
        text = io.StringIO()
        run_histogram_job(kind, 600_000, 11, 0.01, 0.01).write_csv(
            text, meta={"ensemble": kind, "n": 600_000, "master_seed": 11}
        )
        assert text.getvalue().encode("utf-8") == out.read_bytes()

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

    def test_invalid_arguments_exit_2(self, run_cli, tmp_path, capsys):
        out = str(tmp_path / "h.csv")
        assert run_cli(["sample", "--ensemble", "bogus", "--out", out]) == 2
        assert run_cli(["sample", "--n", "0", "--out", out]) == 2
        assert run_cli(["sample", "--bins", "0", "--out", out]) == 2
        assert run_cli(["sample", "--bins", "2", "--out", out]) == 2
        assert run_cli(["sample", "--workers", "0", "--out", out]) == 2
        capsys.readouterr()
        # A subnormal width passes the (0, 1] check, but 1/width overflows.
        assert run_cli(["sample", "--bins", "5e-324", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_path_exits_3(self, run_cli):
        assert run_cli(
            ["sample", "--n", "1000", "--out", "/nonexistent/dir/h.csv"]
        ) == 3

    @pytest.mark.parametrize("kept", ["kept\n", None])
    def test_the_early_out_check_neither_creates_nor_truncates(self, run_cli, tmp_path,
                                                               kept):
        # --n 0 fails after the --out check, before any write.
        out = tmp_path / "h.csv"
        if kept is not None:
            out.write_text(kept)
        assert run_cli(["sample", "--n", "0", "--out", str(out)]) == 2
        assert (out.read_text() if out.exists() else None) == kept


@pytest.mark.parametrize("out", ["missing/h.csv", ".", "file/h.csv", "dangling"])
@pytest.mark.parametrize("command", [["sample"], ["verify", "--all"]])
def test_unwritable_out_exits_3_before_sampling(run_cli, tmp_path, capsys, no_fork,
                                                command, out):
    # A missing directory, not a permission bit: the suite may run as root.
    (tmp_path / "file").write_text("")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing" / "h.csv")
    before = sorted(tmp_path.rglob("*"))
    path = tmp_path / out
    argv = command + ["--n", str(10**12), "--workers", "2", "--out", str(path)]
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


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


# Each command that reads --hist, with --out - so that it prints its result.
_HIST_COMMANDS = [
    ["table"],
    ["marginal", "--axis", "c"],
    ["conditional", "--axis", "c", "--lo", "0.1", "--hi", "0.2"],
    ["verify", "--check", "ridge"],
]


@pytest.fixture(scope="module")
def hist_bytes():
    """A 10^6-state histogram on a 200x200 grid, with ten times its counts to
    be enough for ``ridge``, as CSV and as JSON bytes: each is about 200 KB,
    larger than the 64 KiB pipe buffer."""
    hist = run_histogram_job("real-s3", 1_000_000, 99, 0.005, 0.005, workers=1)
    hist.counts *= np.uint64(10)
    hist.total *= 10
    texts = {"csv": io.StringIO(), "json": io.StringIO()}
    hist.write_csv(texts["csv"])
    hist.write_json(texts["json"])
    return {fmt: text.getvalue().encode("ascii") for fmt, text in texts.items()}


def _run_on_file(run_cli, capsys, tmp_path, argv, data):
    """(exit code, stdout, stderr) of ``argv`` with ``--hist`` a file of ``data``."""
    path = tmp_path / "h"
    path.write_bytes(data)
    code = run_cli(argv + ["--hist", str(path), "--out", "-"])
    out, err = capsys.readouterr()
    return code, out, err.replace(str(path), "<hist>")


@pytest.mark.parametrize("route", ["pipe", "fifo"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _HIST_COMMANDS, ids=lambda argv: argv[0])
def test_a_hist_on_a_pipe_reads_as_a_file(run_cli, capsys, tmp_path, pipe_path,
                                          hist_bytes, argv, fmt, route):
    data = hist_bytes[fmt]
    expected = _run_on_file(run_cli, capsys, tmp_path, argv, data)
    assert expected[0] in (0, 1) and expected[1]
    with pipe_path(data, fifo=route == "fifo") as path:
        code = run_cli(argv + ["--hist", path, "--out", "-"])
    out, err = capsys.readouterr()
    assert (code, out, err.replace(path, "<hist>")) == expected


def _run_process(argv, data=None, **kwargs):
    """The CLI run in a fresh interpreter on ``argv``, with ``data`` on its stdin."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "entmi.cli", *argv], input=data,
                          capture_output=True, timeout=60, env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _HIST_COMMANDS, ids=lambda argv: argv[0])
def test_a_hist_on_stdin_reads_as_a_file(run_cli, capsys, tmp_path, hist_bytes, argv, fmt):
    data = hist_bytes[fmt]
    expected = _run_on_file(run_cli, capsys, tmp_path, argv, data)
    run = _run_process(argv + ["--hist", "/dev/stdin", "--out", "-"], data)
    err = run.stderr.decode().replace("/dev/stdin", "<hist>")
    assert (run.returncode, run.stdout.decode(), err) == expected


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_sample_piped_into_marginal(run_cli, capsys, tmp_path):
    sample = ["sample", "--n", "100000", "--seed", "8", "--bins", "0.05"]
    path = tmp_path / "h.csv"
    assert run_cli(sample + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert run_cli(["marginal", "--hist", str(path), "--axis", "c"]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "entmi.cli"]
    with subprocess.Popen(command + sample + ["--out", "-"], stdout=subprocess.PIPE,
                          env=env) as producer:
        run = _run_process(["marginal", "--hist", "/dev/stdin", "--axis", "c"],
                           stdin=producer.stdout, text=True)
        producer.stdout.close()
    assert (producer.returncode, run.returncode, run.stderr) == (0, 0, "")
    assert run.stdout == expected


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
        h.accumulate_many([0.5], [0.5])
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_halfwidth_exit_2(self, run_cli, sampled_hist, capsys, value):
        assert run_cli(
            ["table", "--hist", str(sampled_hist), "--halfwidth", value]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: --halfwidth must be positive and finite"
        )

    @pytest.mark.parametrize("centers", ["nan,0.5", "0.5,inf", "0.1,-inf"])
    def test_non_finite_centers_exit_2(self, run_cli, sampled_hist, capsys, centers):
        assert run_cli(
            ["table", "--hist", str(sampled_hist), "--centers", centers]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: --centers must be finite numbers"
        )


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

    @pytest.mark.parametrize(
        "extra",
        [["--ensemble", "complex-s7"], ["--check", "bound"],
         ["--check", "bound", "--ensemble", "complex-s7"],
         ["--check", "mi-oracle", "--check", "zero-mi", "--check", "mi-oracle"]],
    )
    def test_all_runs_each_check_once(self, run_cli, tmp_path, extra):
        # --all runs both bound ensembles whatever --ensemble says, and a
        # check it already holds is not run again.
        out = tmp_path / "report.jsonl"
        code = run_cli(
            ["verify", "--all", "--n", "2000", "--seed", "5", "--out", str(out), *extra]
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

    def test_ridge_checks_n_before_any_pool(self, run_cli, capsys, no_fork):
        argv = ["verify", "--check", "bound", "--check", "ridge", "--n", "300000",
                "--workers", "2"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ridge check needs at least 10000000 samples, got 300000\n"

    def test_ridge_checks_its_hist_before_any_pool(self, run_cli, capsys, tmp_path, forks):
        small = tmp_path / "small.csv"
        hist = JointHistogram(0.01, 0.01)
        hist.accumulate_many([0.5], [0.5])
        with open(small, "w") as fh:
            hist.write_csv(fh)
        argv = ["verify", "--check", "bound", "--check", "ridge", "--hist", str(small),
                "--n", "300000", "--workers", "2"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            "error: ridge check needs at least 10000000 samples, got 1\n"
        )
        assert forks == []

    def test_bound_and_ridge_run_as_one_scan(self, run_cli, tmp_path, forks):
        # One scan of two workers; the jsonl is the one the ridge check gave
        # when its histogram was sampled by a job of its own.
        out = tmp_path / "report.jsonl"
        argv = ["verify", "--check", "bound", "--check", "ridge", "--n", "10000000",
                "--seed", "11", "--workers", "2", "--out", str(out)]
        assert run_cli(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BOUND_RIDGE_DIGEST
        assert len(forks) == 2

    def test_invalid_n_exit_2(self, run_cli):
        assert run_cli(["verify", "--check", "zero-mi", "--n", "0"]) == 2

    def test_no_selection_exit_2(self, run_cli):
        assert run_cli(["verify", "--n", "100"]) == 2

    @pytest.mark.parametrize("checks", [["--check", "zero-mi"], ["--all"]])
    def test_hist_without_ridge_exit_2(self, run_cli, capsys, checks):
        argv = ["verify", *checks, "--n", "1000", "--hist", "/nonexistent.csv"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --hist applies only to --check ridge\n"

    def test_a_check_added_to_the_catalogue_runs_by_name(self, run_cli, tmp_path, monkeypatch):
        # --check takes its names from verify.CHECKS: an entry needs no CLI edit.
        def excess_of_pairs(c, i, out, scratch, mask):
            out.fill(1.0)

        check = pipeline.TileCheck("real-s3", excess_of_pairs)
        monkeypatch.setitem(verify.CHECKS, "always-fails", check)
        out = tmp_path / "report.jsonl"
        argv = ["verify", "--check", "always-fails", "--n", "1000", "--workers", "1",
                "--out", str(out)]
        assert run_cli(argv) == 1
        assert json.loads(out.read_text()) == {
            "name": "always-fails", "samples": 1000, "violations": 1000,
            "max_violation": 1.0, "pass": False,
        }

    def test_a_hist_ridge_report_keeps_its_selection_place(self, run_cli, tmp_path):
        h = JointHistogram(0.01, 0.01)
        h.counts[50, 10] = h.total = 10_000_000
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            h.write_csv(fh)
        out = tmp_path / "report.jsonl"
        argv = ["verify", "--check", "zero-mi", "--check", "ridge", "--hist", str(path),
                "--check", "mi-oracle", "--n", "1000", "--out", str(out)]
        assert run_cli(argv) == 1
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["name"] for r in reports] == ["zero-mi", "ridge", "mi-oracle"]
        assert [r["samples"] for r in reports] == [1000, 10_000_000, 1000]

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


_EMPTY = "# joint_histogram delta_c=0.5 delta_i=0.5 total=0\n"

# Every failure, argparse's own included, is one "error: " line and an exit code.
_ONE_LINE_ERRORS = [
    (["sample", "--ensemble", "bogus", "--out", "{out}"], 2),
    (["sample", "--n", "abc", "--out", "{out}"], 2),
    (["sample"], 2),
    ([], 2),
    (["sample", "--n", "0", "--out", "{out}"], 2),
    (["sample", "--bins", "0", "--out", "{out}"], 2),
    (["sample", "--bins", "2", "--out", "{out}"], 2),
    (["sample", "--seed", "-1", "--out", "{out}"], 2),
    (["sample", "--n", "500000", "--seed", str(2**64), "--workers", "2",
      "--out", "{out}"], 2),
    (["sample", "--workers", "0", "--out", "{out}"], 2),
    (["curve", "--points", "1"], 2),
    (["verify", "--n", "100"], 2),
    (["verify", "--check", "ridge", "--n", "1000"], 2),
    (["marginal", "--hist", "{empty}", "--axis", "c"], 2),
    (["conditional", "--hist", "{empty}", "--axis", "c", "--lo", "0.9", "--hi", "0.1"],
     2),
    (["sample", "--n", "1000", "--out", "/nonexistent/dir/h.csv"], 3),
]


@pytest.mark.parametrize(
    "argv,code", _ONE_LINE_ERRORS, ids=[" ".join(a) for a, _ in _ONE_LINE_ERRORS]
)
def test_every_error_is_one_line(run_cli, tmp_path, capsys, argv, code):
    empty = tmp_path / "empty.csv"
    empty.write_text(_EMPTY)
    paths = {"out": str(tmp_path / "h.csv"), "empty": str(empty)}
    assert run_cli([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unallocatable_grid_message_is_short(run_cli, tmp_path, capsys):
    path = tmp_path / "tiny-width.csv"
    path.write_text("# joint_histogram delta_c=1e-300 delta_i=0.5 total=0\n")
    for argv in (
        ["sample", "--bins", "1e-300", "--out", str(tmp_path / "h.csv")],
        ["marginal", "--hist", str(path), "--axis", "c"],
    ):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200 and "1e+300x" in err


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
    # 1/5e-324 overflows to inf, so the width has no bin count.
    ("subnormal-bin-width.csv", "# joint_histogram delta_c=5e-324 delta_i=0.5 total=0\n"),
    ("infinite-total.json", '{"delta_c":0.5,"delta_i":0.5,"total":Infinity,"bins":[[0,0,5]]}'),
    ("overflowing-total.json", '{"delta_c":0.5,"delta_i":0.5,"total":1e400,"bins":[[0,0,5]]}'),
    ("fractional-total.json", '{"delta_c":0.5,"delta_i":0.5,"total":1.7,"bins":[[0,0,1]]}'),
    ("non-ascii-row.csv", _HEADER + "0,0,\U0010ffff\n"),
    # json.load raises RecursionError, not ValueError, on deep nesting.
    ("deeply-nested.json", '{"bins":' + "[" * 100_000),
]


@pytest.fixture
def ascii_loadtxt(monkeypatch):
    """Fail the test if numpy's loadtxt is handed a line that is not ASCII."""
    loadtxt = np.loadtxt

    def checked(rows, *args, **kwargs):
        def lines():
            for line in rows:
                assert line.isascii(), f"loadtxt was handed {line!r}"
                yield line

        return loadtxt(lines(), *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", checked)


class TestMalformedHistogram:
    """Every malformed histogram file ends in exit 2 and one line on stderr."""

    @pytest.mark.parametrize(
        "name,content", _MALFORMED, ids=[name for name, _ in _MALFORMED]
    )
    def test_exit_2_with_one_line(self, run_cli, tmp_path, capsys, ascii_loadtxt,
                                  name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        assert run_cli(["marginal", "--hist", str(path), "--axis", "c"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize(
        "name,content", _MALFORMED, ids=[name for name, _ in _MALFORMED]
    )
    def test_exit_2_with_one_line_on_a_pipe(self, run_cli, tmp_path, capsys, pipe_path,
                                            ascii_loadtxt, name, content):
        on_file = tmp_path / name
        on_file.write_text(content, encoding="utf-8")
        assert run_cli(["marginal", "--hist", str(on_file), "--axis", "c"]) == 2
        expected = capsys.readouterr().err.replace(str(on_file), "<hist>")
        with pipe_path(content.encode("utf-8")) as path:
            assert run_cli(["marginal", "--hist", path, "--axis", "c"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert err.replace(path, "<hist>") == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["table"],
            ["marginal", "--axis", "c"],
            ["conditional", "--axis", "c", "--lo", "0.1", "--hi", "0.2"],
            ["verify", "--check", "ridge"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unreadable_histogram_exit_3_with_one_line(
        self, run_cli, tmp_path, capsys, argv
    ):
        path = tmp_path / "absent.csv"
        assert run_cli(argv + ["--hist", str(path), "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize(
        "header,row,field",
        [
            ("delta_c=0.5 delta_i=0.5 total=1 total=2", "0,0,2", "total"),
            # Read with the last value, this header was a 4x2 grid.
            ("delta_c=0.5 delta_i=0.5 total=2 delta_c=0.25", "3,0,2", "delta_c"),
        ],
        ids=["total", "delta_c"],
    )
    def test_repeated_csv_header_field_exit_2(
        self, run_cli, tmp_path, capsys, header, row, field
    ):
        path = tmp_path / "repeated.csv"
        path.write_text(f"# joint_histogram {header}\n{row}\n")
        assert run_cli(["marginal", "--hist", str(path), "--axis", "c"]) == 2
        assert capsys.readouterr().err == f"error: {path}: repeated field '{field}'\n"

    def test_repeated_json_field_exit_2(self, run_cli, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(
            '{"delta_c": 0.5, "delta_i": 0.5, "total": 1, "total": 2, "bins": [[0,0,2]]}'
        )
        assert run_cli(["marginal", "--hist", str(path), "--axis", "c"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid histogram JSON: repeated field 'total'\n"
        )

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
