"""Shared pieces of the entmi benchmark: checkout layout, CLI runs, output checks.

Everything here runs in the benchmark's own process, which only starts
CLI subprocesses and waits for them; it never imports numpy or entmi.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
GOLDEN_PATH = BENCH_DIR / "golden.json"

# Workload sizes (see perfbench/README.md for why these).
N_SAMPLE = 20_000_000
N_VERIFY = 4_000_000
COARSE = 0.01
FINE = 0.001
SLICE = (0.495, 0.505)
WORKERS = os.cpu_count() or 1

# The defaults the golden digests were recorded at.
DEFAULT_SEEDS = {"coarse-real": 42, "fine-roundtrip": 42, "verify-suite": 7}

TABLE_HEADER = "i_center,c_star,ridge_c,mean_c,std_c,count"
TABLE_CENTERS = [k / 10 for k in range(10)]
DENSITY_HEADER = "bin_center,density"
VERIFY_NAMES = ["bound[real-s3]", "bound[complex-s7]", "zero-mi", "mi-oracle"]


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require_checkout() -> None:
    """Stop unless the entmi sources sit beside the benchmark."""
    if not (SRC / "entmi" / "cli.py").is_file():
        print(f"perfbench: no entmi sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def cli_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    # --workers is always passed; the variable must not second-guess it.
    env.pop("QES_WORKERS", None)
    return env


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def run_process(argv: list[str]) -> Invocation:
    """Run one child to completion; wall time and peak RSS of its process tree.

    ``os.wait4`` reports the larger of the child's own peak RSS and that
    of the descendants it waited for (the CLI's pool workers).
    """
    WORK.mkdir(parents=True, exist_ok=True)
    err_path = WORK / "stderr.txt"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=cli_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def run_cli(args: list[str]) -> Invocation:
    return run_process([sys.executable, "-m", "entmi.cli", *args])


def cold_import_s() -> float:
    """Wall time of a fresh interpreter importing ``entmi.cli``."""
    inv = run_process([sys.executable, "-c", "import entmi.cli"])
    if inv.returncode != 0:
        print(inv.stderr, file=sys.stderr)
        raise SystemExit("perfbench: importing entmi.cli failed")
    return inv.wall_s


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# -- output invariants that need no golden digest --------------------------


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_histogram(path: Path, n: int, delta: float) -> None:
    """Header and rows of a histogram CSV, parsed independently of entmi."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        _require(header[:2] == ["#", "joint_histogram"], f"{path.name}: bad header")
        fields = dict(token.split("=", 1) for token in header[2:])
        bins = {}
        for line in fh:
            if not line.startswith("#"):
                r, c, v = line.split(",")
                bins[int(r), int(c)] = int(v)
    _require(float(fields["delta_c"]) == delta and float(fields["delta_i"]) == delta,
             f"{path.name}: bin widths {fields}")
    _require(int(fields["total"]) == n, f"{path.name}: header total {fields['total']} != n {n}")
    _require(sum(bins.values()) == n, f"{path.name}: counts sum to {sum(bins.values())}, not {n}")
    nbins = round(1 / delta)
    _require(all(0 <= r < nbins and 0 <= c < nbins and v > 0 for (r, c), v in bins.items()),
             f"{path.name}: bin index or count out of range")


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines and lines[0] == header, f"{path.name}: header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def check_table(path: Path, n: int) -> None:
    rows = _csv_rows(path, TABLE_HEADER)
    _require([float(r[0]) for r in rows] == TABLE_CENTERS,
             f"{path.name}: rows {len(rows)} do not match the {len(TABLE_CENTERS)} centres")
    _require(all(0 < int(r[5]) <= n for r in rows), f"{path.name}: slice count out of range")


def check_density(path: Path, nbins: int, delta: float) -> None:
    rows = _csv_rows(path, DENSITY_HEADER)
    _require(len(rows) == nbins, f"{path.name}: {len(rows)} rows, expected {nbins}")
    values = [float(r[1]) for r in rows]
    _require(min(values) >= 0.0, f"{path.name}: negative density")
    _require(math.isclose(math.fsum(values) * delta, 1.0, rel_tol=1e-9),
             f"{path.name}: density integrates to {math.fsum(values) * delta}")


def check_verify_report(path: Path, n: int) -> None:
    reports = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    _require([r["name"] for r in reports] == VERIFY_NAMES, f"{path.name}: checks {reports}")
    _require(all(r["pass"] is True and r["samples"] == n for r in reports),
             f"{path.name}: a check failed: {reports}")


# -- environment record -----------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (-1, "unknown")
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    loc = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "entmi").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "git_commit": _git_commit(),
        "src_entmi_loc": loc,
    }
