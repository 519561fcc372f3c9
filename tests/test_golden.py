"""Golden digests: the CLI's output bytes for fixed (ensemble, n, seed, bins).

Any change to sampling, the observables, binning, block reduction or the
writers that moves a single output byte fails here.  n = 600 000 is three
250k blocks with a ragged tail, so the block plan and the stream keying
are covered too.  Each case runs with one and with two workers, which must
give the same bytes.
"""

import hashlib

import pytest

N = 600_000
SEED = 11

SAMPLE_DIGESTS = {
    ("real-s3", 0.01): "df002522d4f4cdc8454aaa5c5714023b0360b665fca850826e7ff08e65dc5996",
    ("complex-s7", 0.01): "49a1a521f8d1164ef704bc88fd181d416cabab72cbbbe81a5d445563e37121b2",
    ("param", 0.01): "b38fb20d2500e398a20d89b41bcd0db8855d17e9870ec8bd7a1d996786a332a5",
    ("zero-mi", 0.01): "0d7545259b0727ef9ea0007fc90137e0807d0c9da5c19cd2ca399dd62d90dac6",
    ("real-s3", 0.001): "f8ace1f45e56fde42fd1892305163c3d717135cae98a53cae7fb18c562ceba9e",
}

VERIFY_DIGESTS = {
    "real-s3": "0531bef3062c2fafc1904d358484190bed3f68d821fc947c5e8a691ea0624949",
    "complex-s7": "540434b7803799ffc4362c40c0f8ff6e6937ebda3d9c651acdfc1b808befa0a5",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("ensemble,bins", sorted(SAMPLE_DIGESTS))
def test_sample_csv_digest(run_cli, tmp_path, ensemble, bins, workers):
    out = tmp_path / "h.csv"
    code = run_cli(
        [
            "sample", "--ensemble", ensemble, "--n", str(N), "--seed", str(SEED),
            "--bins", repr(bins), "--workers", workers, "--out", str(out),
        ]
    )
    assert code == 0
    assert _sha256(out) == SAMPLE_DIGESTS[(ensemble, bins)]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("ensemble", sorted(VERIFY_DIGESTS))
def test_verify_jsonl_digest(run_cli, tmp_path, ensemble, workers):
    out = tmp_path / "verify.jsonl"
    code = run_cli(
        [
            "verify", "--check", "bound", "--check", "zero-mi", "--check", "mi-oracle",
            "--ensemble", ensemble, "--n", str(N), "--seed", str(SEED),
            "--workers", workers, "--out", str(out),
        ]
    )
    assert code == 0
    assert _sha256(out) == VERIFY_DIGESTS[ensemble]
