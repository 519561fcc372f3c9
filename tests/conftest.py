import multiprocessing

import numpy as np
import pytest

from entmi import pipeline
from entmi.cli import main as cli_main


def _run_cli(argv):
    """Invoke the CLI in-process, turning argparse exits into return codes."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


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
def pools(monkeypatch):
    """The ``processes`` of every worker pool the pipeline starts, in order."""
    started = []
    pool = multiprocessing.Pool

    def counted_pool(*args, **kwargs):
        started.append(kwargs.get("processes"))
        return pool(*args, **kwargs)

    monkeypatch.setattr(pipeline.multiprocessing, "Pool", counted_pool)
    return started
