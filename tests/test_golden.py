"""Golden digests: the CLI's output bytes for fixed (ensemble, n, seed, bins).

Any change to sampling, the observables, binning, block reduction or the
writers that moves a single output byte fails here.  n = 600 000 is three
250k blocks with a ragged tail, so the block plan and the stream keying
are covered too.  Each case runs with one and with two workers, which must
give the same bytes.  The verify reports read ``max_violation: 0.0`` for any
passing check, so the excess of every state, as the scan computes it for
each check, is pinned as well, and so are the bytes that ``table``,
``marginal`` and ``conditional`` read from one sample CSV.
"""

import hashlib

import numpy as np
import pytest

from conftest import DIGEST_NUMPY, recorded_excess
from entmi import SeedSpec, verify
from entmi.cli import main as cli_main

N = 600_000
SEED = 11

SAMPLE_DIGESTS = {
    ("real-s3", 0.01): "df002522d4f4cdc8454aaa5c5714023b0360b665fca850826e7ff08e65dc5996",
    ("complex-s7", 0.01): "49a1a521f8d1164ef704bc88fd181d416cabab72cbbbe81a5d445563e37121b2",
    ("param", 0.01): "b38fb20d2500e398a20d89b41bcd0db8855d17e9870ec8bd7a1d996786a332a5",
    ("zero-mi", 0.01): "0d7545259b0727ef9ea0007fc90137e0807d0c9da5c19cd2ca399dd62d90dac6",
    ("real-s3", 0.001): "f8ace1f45e56fde42fd1892305163c3d717135cae98a53cae7fb18c562ceba9e",
}

# sha256 of ``curve --points N``, keyed by N.
CURVE_DIGESTS = {
    101: "05b60f60adff76ff0200a867a826604e9c051e6f7afed65090d899bfb1a71c55",
    1001: "c61c9bd2a9e6d01e01c3adf6a6189001511b972f0614ede9abea5074099bae27",
}

VERIFY_DIGESTS = {
    "real-s3": "0531bef3062c2fafc1904d358484190bed3f68d821fc947c5e8a691ea0624949",
    "complex-s7": "540434b7803799ffc4362c40c0f8ff6e6937ebda3d9c651acdfc1b808befa0a5",
}

SAMPLE_JSON_DIGEST = "f8fce05fb2acdb183c818c2c95cec4346e750ecd5f4c6b11e6e10b9eed20c0ee"

# sha256 of the float64 excess of every state of the N-sample, SEED scan of
# each check alone, with one worker, concatenated in block and tile order.
EXCESS_DIGESTS = {
    "bound[real-s3]": "c7dde8b0dfb49c0379030869bcfda95e3fb097b3843f95b08a75f70cb07d7e86",
    "bound[complex-s7]": "2164871b56ca7d2cdd8876a90fe8d0be0041e11648fe688c2c9223093234b333",
    "zero-mi": "798f2bd5d75ab7c14cff5898cdcbcaa8573ffa6b632fb3e1ae1d55b51ea79f73",
    "mi-oracle": "2aabe75f1f283ba87493f2b86d4edc7f71c34515fb8c7bf453f47623c3dc70d2",
}

# sha256 of each density command's output, read from the (real-s3, 0.01)
# sample CSV above.
DENSITY_DIGESTS = {
    ("table",): "7f280f5ce59bd6d80c8929fd88331aaeedb7123535308d195b41fd67224daab0",
    ("marginal", "--axis", "c"):
        "669332d6ed237ae0f379ec8e759a7f4a91e57fb980c781c76e92810558cd87d9",
    ("marginal", "--axis", "i"):
        "268be42e8f23ca0e7a1b3d1872eb9539378be40cd11deef03970b58107e4d6ef",
    ("conditional", "--axis", "c", "--lo", "0.495", "--hi", "0.505"):
        "98e1c0e5362b76c6b82b5b8a898674d431c96258d0a8d5b7bd17e62f44c6c14f",
}

CHECKS = verify.CHECKS


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
    assert _sha256(out) == SAMPLE_DIGESTS[(ensemble, bins)], DIGEST_NUMPY


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
    assert _sha256(out) == VERIFY_DIGESTS[ensemble], DIGEST_NUMPY


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sample_json_digest(run_cli, tmp_path, workers):
    out = tmp_path / "h.json"
    code = run_cli(
        [
            "sample", "--ensemble", "real-s3", "--n", str(N), "--seed", str(SEED),
            "--bins", "0.01", "--workers", workers, "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    assert _sha256(out) == SAMPLE_JSON_DIGEST, DIGEST_NUMPY


@pytest.mark.parametrize("points", sorted(CURVE_DIGESTS))
def test_curve_csv_digest(run_cli, tmp_path, points):
    out = tmp_path / "curve.csv"
    assert run_cli(["curve", "--points", str(points), "--out", str(out)]) == 0
    assert _sha256(out) == CURVE_DIGESTS[points], DIGEST_NUMPY


@pytest.mark.parametrize("check", sorted(EXCESS_DIGESTS))
def test_excess_digest(check):
    excess = recorded_excess(CHECKS[check], N, SeedSpec(SEED))
    assert excess.size == N
    digest = hashlib.sha256(np.asarray(excess, dtype="<f8").tobytes())
    assert digest.hexdigest() == EXCESS_DIGESTS[check], DIGEST_NUMPY


@pytest.fixture(scope="module")
def real_s3_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "h.csv"
    argv = ["sample", "--ensemble", "real-s3", "--n", str(N), "--seed", str(SEED),
            "--bins", "0.01", "--workers", "1", "--out", str(path)]
    assert cli_main(argv) == 0
    assert _sha256(path) == SAMPLE_DIGESTS[("real-s3", 0.01)], DIGEST_NUMPY
    return path


@pytest.mark.parametrize("command", sorted(DENSITY_DIGESTS), ids=" ".join)
def test_density_csv_digest(run_cli, tmp_path, real_s3_csv, command):
    out = tmp_path / "out.csv"
    assert run_cli([*command, "--hist", str(real_s3_csv), "--out", str(out)]) == 0
    assert _sha256(out) == DENSITY_DIGESTS[command], DIGEST_NUMPY
