"""``verify --all`` as one scan: its bytes, its workers and its draws.

The digests were taken before the checks shared a scan, when each check
drew its own blocks through its own pool; the report bytes must not move.
The suite draws each block's normals once, as wide as complex-s7 needs
(8 per state), where running the three Gaussian checks one by one draws
4 + 8 + 4 per state.
"""

import hashlib

import pytest

from entmi import sampling

# sha256 of the ``verify --all --seed 11`` jsonl at each n.
SUITE_DIGESTS = {
    600_000: "aa55797bdf5506227250cbb18fce96b731e6d7fb9c3805ffb45ccb6165463553",
    1: "966fbe697f1582cf3fb819233444d3a1e4543108f38b3486db5096b766aaf73b",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("n", sorted(SUITE_DIGESTS))
def test_suite_jsonl_digest(run_cli, tmp_path, n, workers):
    out = tmp_path / "suite.jsonl"
    argv = ["verify", "--all", "--n", str(n), "--seed", "11", "--workers", workers,
            "--out", str(out)]
    assert run_cli(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUITE_DIGESTS[n]


def test_one_pool_per_run(run_cli, tmp_path, forks):
    # One scan of two forked workers for the whole suite.
    out = tmp_path / "suite.jsonl"
    argv = ["verify", "--all", "--n", "250001", "--workers", "2", "--out", str(out)]
    assert run_cli(argv) == 0
    assert len(forks) == 2


def test_each_normal_is_drawn_once(run_cli, tmp_path, monkeypatch):
    drawn = []
    fill = sampling._fill_normal

    def counted_fill(gen, draws):
        drawn.append(draws.size)
        fill(gen, draws)

    for kind, layout in list(sampling._LAYOUTS.items()):
        if layout.fill is fill:
            monkeypatch.setitem(sampling._LAYOUTS, kind, layout._replace(fill=counted_fill))
    out = tmp_path / "suite.jsonl"
    argv = ["verify", "--all", "--n", "250000", "--workers", "1", "--out", str(out)]
    assert run_cli(argv) == 0
    assert sum(drawn) == 8 * 250_000
