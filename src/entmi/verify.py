"""Executable cross-checks tying the samplers, observables, and curves together.

Each sampled check draws block ``j`` of its ``n`` samples from stream
``seed.stream_id + j``, so checks of one seed read the same streams.
:func:`run_checks` runs several as one scan, in which the Gaussian checks
(``bound``, ``zero-mi`` and the real-s3 histogram of ``ridge``) share each
tile's draw, and ``ridge`` and ``bound[real-s3]`` share its (C, I) pairs
too; ``mi-oracle`` draws uniform angles from its streams alone.  Every
check counts violations instead of aborting on the first one and returns
a :class:`VerificationReport`.  Reports are deterministic for a fixed
(seed, n), whichever checks share the scan and however many workers run
it, and serialize to JSON lines.
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
from .pipeline import StreamCheck, TileCheck, TileHistogram, scan_checks
from .sampling import Ensemble, SeedSpec
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


def run_checks(
    checks, n: int, seed: SeedSpec, workers: int | None = None
) -> list[VerificationReport]:
    """The reports of sampled checks, given as (name, check) pairs, from one scan.

    Every check draws block ``j`` of its ``n`` samples from stream
    ``seed.stream_id + j``; see :func:`scan_checks` for what they share.
    A :class:`TileHistogram` is the ridge check of its histogram; its ``n``
    is checked against ``RIDGE_MIN_TOTAL`` before any sampling.
    """
    if any(isinstance(check, TileHistogram) for _, check in checks):
        _require_ridge_total(n)
    results = scan_checks([(check, seed) for _, check in checks], n, workers)
    return [
        check_ridge(result) if isinstance(result, JointHistogram)
        else VerificationReport(name, n, *result)
        for (name, _), result in zip(checks, results)
    ]


def _bound_excess(tol, c, i, out, scratch, mask):
    # The kernel's C already lies in [0, 1], so the range check and clip
    # of entanglement_from_concurrence would change no value.
    np.subtract(i, _entanglement_into(c, (out, scratch), mask), out=out)
    out -= tol


def bound_check(kind: Ensemble) -> tuple[str, TileCheck]:
    """(name, check) of the bound on ensemble ``kind``, for :func:`run_checks`."""
    kind = Ensemble(kind)
    return f"bound[{kind.value}]", TileCheck(kind.value, partial(_bound_excess, BOUND_TOL))


def check_bound(
    n: int,
    seed: SeedSpec,
    kind: Ensemble = Ensemble.REAL_S3,
    workers: int | None = None,
) -> VerificationReport:
    """MI never exceeds the entanglement bound E(C) + 1e-9."""
    return run_checks([bound_check(kind)], n, seed, workers)[0]


def _zero_mi_excess(c, i, out, scratch, mask):
    np.subtract(i, ZERO_MI_TOL, out=out)


ZERO_MI_CHECK = ("zero-mi", TileCheck(Ensemble.ZERO_MI.value, _zero_mi_excess))


def check_zero_mi_family(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """States with |ad| = |bc| have mutual information below 1e-12."""
    return run_checks([ZERO_MI_CHECK], n, seed, workers)[0]


# Both amplitude weights of the equal-weight family, sqrt(0.5) = sqrt(1 - 0.5).
_HALF_ROOT = np.sqrt(0.5)


def _angle_oracle_tiles(rows: int, shared):
    """The oracle as a :class:`StreamCheck` makes it: one tile at a time.

    Each tile's angles are drawn with one ``random((size, 2))`` call, which
    replays the block's stream as one ``random((count, 2))`` call would.
    Per tile, cos and sin of alpha and of beta = alpha - delta are
    evaluated once; the closed form squares them, and the pipeline scales
    them into the amplitudes ``params_to_amplitudes(0.5, alpha, beta)``
    computes, in the rows that then hold their probabilities.  Every array
    is a buffer kept for the worker share: the angles and cos/sin rows
    here, and ``shared``'s probabilities, MI rows and mask.
    """
    angles = np.empty((rows, 2))
    trig = np.empty((4, rows))
    probs, info, mask = shared.probs, shared.info, shared.mask

    def excess_of(gen, out: np.ndarray) -> np.ndarray:
        size = len(out)
        drawn = gen.random(out=angles[:size])
        drawn *= 2.0 * np.pi
        alpha, delta = drawn[:, 0], drawn[:, 1]
        beta = np.subtract(alpha, delta, out=info[0, :size])
        cos_a, sin_a, cos_b, sin_b = trig[:, :size]
        np.cos(alpha, out=cos_a)
        np.sin(alpha, out=sin_a)
        np.cos(beta, out=cos_b)
        np.sin(beta, out=sin_b)
        amplitudes = np.multiply(_HALF_ROOT, trig[:, :size], out=probs[:, :size])
        outcomes = _probabilities_into(amplitudes.T, amplitudes, info[0, :size])
        pipelined = _mutual_information_into(outcomes, info[:, :size], mask[:size])
        squares = np.square(trig[:, :size], out=probs[:, :size])
        direct = _mi_from_trig(squares, info[1:, :size], mask[:size])
        gap = np.subtract(direct, pipelined, out=out)
        np.abs(gap, out=gap)
        gap -= ORACLE_TOL
        return gap

    return excess_of


_angle_oracle_excess = StreamCheck(_angle_oracle_tiles)
ANGLE_ORACLE_CHECK = ("mi-oracle", _angle_oracle_excess)


def check_angle_oracle(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """Closed-form MI of the two-angle family matches the measurement pipeline.

    Draws random (alpha, delta) pairs and compares the closed form of
    ``mi_from_angles`` against MI computed from the assembled amplitudes.
    Both routes start from the same cos and sin values, evaluated once:
    they share elementary-function values, not formulas.
    """
    return run_checks([ANGLE_ORACLE_CHECK], n, seed, workers)[0]


# The ridge check's histogram, sampled in the scan: real-s3 on a 0.01 grid.
RIDGE_CHECK = ("ridge", TileHistogram(Ensemble.REAL_S3.value, 0.01, 0.01))


def _require_ridge_total(total: int) -> None:
    if total < RIDGE_MIN_TOTAL:
        raise InsufficientDataError(
            f"ridge check needs at least {RIDGE_MIN_TOTAL} samples, got {total}"
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


def check_ridge(hist: JointHistogram) -> VerificationReport:
    """The off-zero conditional MI peak tracks ridge_mi(C) within 2 bins.

    For every concurrence column whose center lies in [0.3, 0.95], the
    largest local maximum of the MI distribution away from the zero bin
    must sit within two I-bins of the predicted curve.  Requires a
    histogram of at least ``RIDGE_MIN_TOTAL`` samples (from the uniform
    real-amplitude ensemble for the prediction to apply).
    """
    _require_ridge_total(hist.total)
    centers_c = hist.centers("c")
    centers_i = hist.centers("i")
    slack = 2.0 * hist.delta_i
    picked = np.flatnonzero((centers_c >= 0.3) & (centers_c <= 0.95))
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
