import multiprocessing

import pytest

from entmi import pipeline
from entmi.cli import main as cli_main


def _run_cli(argv):
    """Invoke the CLI in-process, turning argparse exits into return codes."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


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
