"""The public surface: ``entmi.__all__`` and the README's library quick start."""

import re
from pathlib import Path

import pytest

import entmi
from conftest import run_isolated

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# What the CLI, the README, the verify checks and the benchmark use, plus
# the exceptions, result types and independent reference routes.
PUBLIC = {
    "ConsistencyError", "Density1D", "DomainError", "EmptySliceError", "Ensemble",
    "EntmiError", "HistogramFormatError", "JointHistogram",
    "SeedSpec", "SliceStats", "VerificationReport", "check_angle_oracle", "check_bound",
    "check_ridge", "check_zero_mi_family",
    "concurrence", "concurrence_polar", "entanglement_entropy",
    "entanglement_from_concurrence", "load_histogram", "mi_from_angles",
    "mutual_information", "params_to_amplitudes", "probabilities", "ridge_concurrence",
    "ridge_mi", "run_histogram_job", "sample_amplitudes", "stream_generator",
    "write_density_csv", "write_reports_jsonl",
}


def test_public_surface_and_readme_quick_start(capsys):
    assert len(entmi.__all__) == len(PUBLIC)
    assert set(entmi.__all__) == PUBLIC

    namespace = {}
    exec(f"from entmi import {', '.join(entmi.__all__)}", namespace)
    assert all(namespace[name] is getattr(entmi, name) for name in PUBLIC)

    block = re.search(
        r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S
    ).group(1)
    exec(compile(block, str(README), "exec"), {})
    stats, inverse = capsys.readouterr().out.splitlines()
    assert stats.startswith("SliceStats(i_center=0.5,")
    assert float(inverse) == entmi.ridge_concurrence(0.5)


def _filled():
    hist = entmi.JointHistogram(0.01, 0.01)
    hist.accumulate_many([0.4], [0.5])
    return hist


# Arguments of the wrong type or shape, for which Python's or numpy's own
# TypeError or ValueError used to escape instead of an EntmiError, and
# strings of digits, which numpy used to convert.
MALFORMED_CALLS = {
    "concurrence-strings": lambda: entmi.concurrence(["a", "b", "c", "d"]),
    "params_to_amplitudes-shapes":
        lambda: entmi.params_to_amplitudes([0.1, 0.2], [0.1, 0.2, 0.3], 0),
    "slice_stats-halfwidth-string": lambda: _filled().slice_stats(0.5, "a"),
    "ridge_mi-string": lambda: entmi.ridge_mi("x"),
    "mutual_information-strings": lambda: entmi.mutual_information(["a"] * 4),
    "entanglement_from_concurrence-string": lambda: entmi.entanglement_from_concurrence("x"),
    "mi_from_angles-string": lambda: entmi.mi_from_angles("a", 0.1),
    "probabilities-ragged-rows": lambda: entmi.probabilities([[1, 0, 0, 0], [1, 0, 0]]),
    "JointHistogram-None": lambda: entmi.JointHistogram(None, 0.01),
    "JointHistogram-string": lambda: entmi.JointHistogram("x", 0.01),
    "accumulate_many-string": lambda: _filled().accumulate_many(["x"], [0.5]),
    "conditional-string-bound": lambda: _filled().conditional("c", "x", 0.5),
    "ridge_mi-digit-string": lambda: entmi.ridge_mi("0.5"),
    "entanglement_from_concurrence-digit-string":
        lambda: entmi.entanglement_from_concurrence("0.5"),
    "accumulate_many-ragged-rows":
        lambda: _filled().accumulate_many([[0.1], [0.2, 0.3]], [0.1, 0.2, 0.3]),
}


@pytest.mark.parametrize("call", MALFORMED_CALLS.values(), ids=MALFORMED_CALLS)
def test_malformed_arguments_raise_domain_error(call):
    with pytest.raises(entmi.DomainError):
        call()


def test_version_matches_the_project_metadata():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as stream:
        project = tomllib.load(stream)["project"]
    assert entmi.__version__ == project["version"]


def test_importing_the_cli_leaves_out_multiprocessing_and_numpy_random():
    # Forked workers inherit every module the CLI imports; numpy.random is
    # imported where a stream is first seeded.
    code = "import sys, entmi.cli; print({'multiprocessing', 'numpy.random'} & set(sys.modules))"
    run = run_isolated(code)
    assert (run.returncode, run.stdout) == (0, "set()\n"), run.stderr


def test_the_benchmark_traced_sweep_imports():
    # perfbench/traced.py imports entmi names and pipeline.block_plan for --trace 1.
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'perfbench')!r}); import traced"
    run = run_isolated(code)
    assert run.returncode == 0, run.stderr
