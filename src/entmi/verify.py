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

from .curves import mi_from_angles, ridge_mi
from .errors import DomainError, InsufficientDataError
from .histogram import JointHistogram
from .pipeline import BOUND_TOL, run_bound_scan, scan_excess, tile_excess
from .sampling import Ensemble, SeedSpec, _tiles, stream_generator
from .states import mutual_information, params_to_amplitudes, probabilities

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


def check_bound(
    n: int,
    seed: SeedSpec,
    kind: Ensemble = Ensemble.REAL_S3,
    workers: int | None = None,
) -> VerificationReport:
    """MI never exceeds the entanglement bound E(C) + 1e-9."""
    if n < 1:
        raise DomainError("sample count must be at least 1")
    kind = Ensemble(kind)
    violations, max_excess = run_bound_scan(
        kind, n, seed.master_seed, tol=BOUND_TOL,
        workers=workers, base_stream=seed.stream_id,
    )
    return VerificationReport(
        name=f"bound[{kind.value}]",
        samples=n,
        violations=violations,
        max_violation=max_excess,
    )


def _zero_mi_excess(c: np.ndarray, i: np.ndarray) -> np.ndarray:
    return i - ZERO_MI_TOL


def check_zero_mi_family(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """States with |ad| = |bc| have mutual information below 1e-12."""
    if n < 1:
        raise DomainError("sample count must be at least 1")
    violations, worst = scan_excess(
        partial(tile_excess, Ensemble.ZERO_MI.value, _zero_mi_excess), n, seed, workers
    )
    return VerificationReport(
        name="zero-mi",
        samples=n,
        violations=violations,
        max_violation=worst,
    )


def _angle_oracle_excess(capacity: int):
    """A ``make_excess`` for :func:`scan_excess`: the oracle, one tile at a time.

    Each block's angles are drawn whole, as one ``random((count, 2))``
    call; both routes then run per tile, so their temporaries stay small.
    """
    angles = np.empty((capacity, 2))
    excess = np.empty(capacity)

    def excess_of(seed: SeedSpec, count: int) -> np.ndarray:
        block = stream_generator(seed).random(out=angles[:count])
        block *= 2.0 * np.pi
        for start, stop in _tiles(count):
            alpha, delta = block[start:stop, 0], block[start:stop, 1]
            direct = np.atleast_1d(mi_from_angles(alpha, delta))
            amplitudes = params_to_amplitudes(
                np.full(stop - start, 0.5), alpha, alpha - delta
            )
            pipelined = np.atleast_1d(mutual_information(probabilities(amplitudes)))
            np.subtract(np.abs(direct - pipelined), ORACLE_TOL, out=excess[start:stop])
        return excess[:count]

    return excess_of


def check_angle_oracle(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """Closed-form MI of the two-angle family matches the measurement pipeline.

    Draws random (alpha, delta) pairs and compares ``mi_from_angles``
    against MI computed from the assembled amplitudes; the two routes
    share no code beyond elementary functions.
    """
    if n < 1:
        raise DomainError("sample count must be at least 1")
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
