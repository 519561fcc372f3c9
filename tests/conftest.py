import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entmi import pipeline
from entmi.cli import main as cli_main

SRC = Path(pipeline.__file__).resolve().parents[1]


def _run_cli(argv):
    """Invoke the CLI in-process, turning argparse exits into return codes."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


def run_isolated(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter that imports entmi from ``SRC``.

    A run that does not end within a minute fails the calling test instead
    of hanging it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, env=env)


def recorded_excess(check, n, seed):
    """The excess of each of ``n`` states, in order, from a scan of ``check`` alone.

    The scan runs with one worker, in this process, and visits blocks and
    tiles in order; a recording copy of ``check`` copies each tile's excess.
    """
    tiles = []
    if isinstance(check, pipeline.StreamCheck):
        def make(rows, shared):
            excess_of = check.make(rows, shared)

            def recorded(gen, out):
                excess = excess_of(gen, out)
                tiles.append(excess.copy())
                return excess

            return recorded

        recording = pipeline.StreamCheck(make)
    else:
        def excess_of_pairs(c, i, out, scratch, mask):
            check.excess_of_pairs(c, i, out, scratch, mask)
            tiles.append(out.copy())

        recording = pipeline.TileCheck(check.kind, excess_of_pairs)
    pipeline.scan_checks([(recording, seed)], n, workers=1)
    return np.concatenate(tiles)


@pytest.fixture
def run_cli():
    return _run_cli


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker the pipeline forks, in order."""
    started = []
    fork = pipeline.os.fork

    def counted_fork():
        pid = fork()
        started.append(pid)
        return pid

    monkeypatch.setattr(pipeline.os, "fork", counted_fork)
    return started


@pytest.fixture
def no_fork(monkeypatch):
    """Fail the test if the pipeline forks a worker."""
    def fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(pipeline.os, "fork", fork)
