import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from entmi import pipeline
from entmi.cli import main as cli_main

SRC = Path(pipeline.__file__).resolve().parents[1]

# The message of a failed digest assert: the sampled counts depend on the
# numpy version, and the golden digests were pinned on numpy 2.4.6.
DIGEST_NUMPY = f"running numpy {np.__version__}; the digests were pinned on numpy 2.4.6"


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
    pipeline.scan_checks([recording], n, seed, workers=1)
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


def _feed(target, data: bytes) -> None:
    """Write ``data`` to the descriptor, or the FIFO path, ``target``; then close it."""
    # A FIFO's write end opens once a reader has opened it.
    write = target if isinstance(target, int) else os.open(target, os.O_WRONLY)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(write, view):]
    except BrokenPipeError:
        pass  # the reader closed its end before the last byte
    finally:
        os.close(write)


@pytest.fixture
def pipe_path(tmp_path):
    """``with pipe_path(data) as path`` serves ``data`` on a pipe named ``path``.

    ``path`` is ``/dev/fd/<n>`` of an anonymous pipe, or with ``fifo=True``
    a FIFO in ``tmp_path``.  A writer thread, not a process, writes ``data``
    and closes its end, so data past the 64 KiB pipe buffer needs no fork.
    Leaving the block closes the read end, which ends a writer still
    blocked, and joins the thread.
    """
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to name a pipe by")

    @contextlib.contextmanager
    def serve(data: bytes, fifo: bool = False):
        if fifo:
            path = str(tmp_path / "fifo")
            os.mkfifo(path)
            target = path
        else:
            read, target = os.pipe()
            path = f"/dev/fd/{read}"
        writer = threading.Thread(target=_feed, args=(target, data))
        writer.start()
        try:
            yield path
        finally:
            if fifo:
                # Opening a read end releases a writer still waiting in open;
                # closing it leaves that writer no reader, so its write ends.
                read = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
            os.close(read)
            writer.join(timeout=60)
            assert not writer.is_alive(), "the pipe writer did not finish"
            if fifo:
                os.unlink(path)

    return serve
