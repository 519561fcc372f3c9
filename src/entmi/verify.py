"""Executable cross-checks tying the samplers, observables, and curves together.

Each check draws its own streams, counts violations instead of aborting
on the first one, and returns a :class:`VerificationReport`.  Reports are
deterministic for a fixed (seed, n) and serialize to JSON lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import IO, Iterable

import numpy as np

from .curves import _mi_from_trig, ridge_mi
from .errors import InsufficientDataError
from .histogram import JointHistogram
from .pipeline import scan_excess, tile_excess
from .sampling import _TILE_ROWS, Ensemble, SeedSpec, _tiles, stream_generator
from .states import _entanglement_into, _mutual_information_into, _probabilities_into

# MI may exceed the entanglement bound by this much before a sample
# counts as a violation.
BOUND_TOL = 1e-9

# Zero-MI family states must have MI at most this.
ZERO_MI_TOL = 1e-12

# Closed-form and pipeline MI must agree to this.
ORACLE_TOL = 1e-12

# Histograms below this sample count are too noisy for the ridge check.
RIDGE_MIN_TOTAL = 10_000_000


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: passes exactly when no sample violated it."""

    name: str
    samples: int
    violations: int
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "violations": self.violations,
            "max_violation": self.max_violation,
            "pass": self.passed,
        }


def write_reports_jsonl(reports: Iterable[VerificationReport], stream: IO[str]) -> None:
    """One JSON object per line, in the order given."""
    for report in reports:
        json.dump(report.to_json_dict(), stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")


def _bound_excess(tol, c, i, out, scratch, mask):
    # The kernel's C already lies in [0, 1], so the range check and clip
    # of entanglement_from_concurrence would change no value.
    np.subtract(i, _entanglement_into(c, (out, scratch), mask), out=out)
    out -= tol


def check_bound(
    n: int,
    seed: SeedSpec,
    kind: Ensemble = Ensemble.REAL_S3,
    workers: int | None = None,
) -> VerificationReport:
    """MI never exceeds the entanglement bound E(C) + 1e-9."""
    kind = Ensemble(kind)
    violations, max_excess = scan_excess(
        partial(tile_excess, kind.value, partial(_bound_excess, BOUND_TOL)),
        n,
        seed,
        workers,
    )
    return VerificationReport(
        name=f"bound[{kind.value}]",
        samples=n,
        violations=violations,
        max_violation=max_excess,
    )


def _zero_mi_excess(c, i, out, scratch, mask):
    np.subtract(i, ZERO_MI_TOL, out=out)


def check_zero_mi_family(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """States with |ad| = |bc| have mutual information below 1e-12."""
    violations, worst = scan_excess(
        partial(tile_excess, Ensemble.ZERO_MI.value, _zero_mi_excess), n, seed, workers
    )
    return VerificationReport(
        name="zero-mi",
        samples=n,
        violations=violations,
        max_violation=worst,
    )


# Both amplitude weights of the equal-weight family, sqrt(0.5) = sqrt(1 - 0.5).
_HALF_ROOT = np.sqrt(0.5)


def _angle_oracle_excess(capacity: int):
    """A ``make_excess`` for :func:`scan_excess`: the oracle, one tile at a time.

    Each tile's angles are drawn with one ``random((size, 2))`` call, which
    replays the block's stream as one ``random((count, 2))`` call would.
    Per tile, cos and sin of alpha and of beta = alpha - delta are
    evaluated once; the closed form squares them, and the pipeline scales
    them into the amplitudes ``params_to_amplitudes(0.5, alpha, beta)``
    computes.  Every array is a buffer kept for the worker share: one tile
    each, and the block's excess.
    """
    excess = np.empty(capacity)
    tile = min(capacity, _TILE_ROWS)
    angles = np.empty((tile, 2))
    trig = np.empty((4, tile))
    rows = np.empty((4, tile))
    probs = np.empty((4, tile))
    info = np.empty((4, tile))
    mask = np.empty(tile, dtype=bool)

    def excess_of(seed: SeedSpec, count: int) -> np.ndarray:
        gen = stream_generator(seed)
        for start, stop in _tiles(count):
            size = stop - start
            drawn = gen.random(out=angles[:size])
            drawn *= 2.0 * np.pi
            alpha, delta = drawn[:, 0], drawn[:, 1]
            beta = np.subtract(alpha, delta, out=info[0, :size])
            cos_a, sin_a, cos_b, sin_b = trig[:, :size]
            np.cos(alpha, out=cos_a)
            np.sin(alpha, out=sin_a)
            np.cos(beta, out=cos_b)
            np.sin(beta, out=sin_b)
            amplitudes = np.multiply(_HALF_ROOT, trig[:, :size], out=rows[:, :size])
            outcomes = _probabilities_into(amplitudes.T, probs[:, :size], info[0, :size])
            pipelined = _mutual_information_into(outcomes, info[:, :size], mask[:size])
            squares = np.square(trig[:, :size], out=rows[:, :size])
            direct = _mi_from_trig(squares, info[1:, :size], mask[:size])
            gap = np.subtract(direct, pipelined, out=excess[start:stop])
            np.abs(gap, out=gap)
            gap -= ORACLE_TOL
        return excess[:count]

    return excess_of


def check_angle_oracle(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """Closed-form MI of the two-angle family matches the measurement pipeline.

    Draws random (alpha, delta) pairs and compares the closed form of
    ``mi_from_angles`` against MI computed from the assembled amplitudes.
    Both routes start from the same cos and sin values, evaluated once:
    they share elementary-function values, not formulas.
    """
    violations, worst = scan_excess(_angle_oracle_excess, n, seed, workers)
    return VerificationReport(
        name="mi-oracle",
        samples=n,
        violations=violations,
        max_violation=worst,
    )


def off_zero_peak_index(column: np.ndarray) -> int | None:
    """Index of the largest interior local maximum, skipping the first bin.

    A bin counts as a local maximum when it is at least as large as both
    neighbours; positions tied in height resolve to the lowest index.
    Returns None when the column has no such bin.
    """
    best = None
    for k in range(1, len(column)):
        left = column[k - 1]
        right = column[k + 1] if k + 1 < len(column) else 0
        if column[k] > 0 and column[k] >= left and column[k] >= right:
            if best is None or column[k] > column[best]:
                best = k
    return best


def check_ridge(
    hist: JointHistogram,
    c_lo: float = 0.3,
    c_hi: float = 0.95,
    min_total: int = RIDGE_MIN_TOTAL,
) -> VerificationReport:
    """The off-zero conditional MI peak tracks ridge_mi(C) within 2 bins.

    For every concurrence column whose center lies in [c_lo, c_hi], the
    largest local maximum of the MI distribution away from the zero bin
    must sit within two I-bins of the predicted curve.  Requires a
    histogram of at least ``min_total`` samples (from the uniform
    real-amplitude ensemble for the prediction to apply).
    """
    if hist.total < min_total:
        raise InsufficientDataError(
            f"ridge check needs at least {min_total} samples, got {hist.total}"
        )
    centers_c = hist.centers("c")
    centers_i = hist.centers("i")
    slack = 2.0 * hist.delta_i
    picked = np.flatnonzero((centers_c >= c_lo) & (centers_c <= c_hi))
    violations = 0
    worst = 0.0
    for idx in picked:
        column = hist.counts[idx]
        peak = off_zero_peak_index(column)
        if peak is None:
            violations += 1
            worst = max(worst, 1.0)
            continue
        gap = abs(centers_i[peak] - ridge_mi(float(centers_c[idx]))) - slack
        if gap > 0.0:
            violations += 1
        worst = max(worst, float(gap))
    return VerificationReport(
        name="ridge",
        samples=hist.total,
        violations=violations,
        max_violation=max(worst, 0.0),
    )
