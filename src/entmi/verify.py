"""Executable cross-checks tying the samplers, observables, and curves together.

:data:`CHECKS`, the one catalogue of sampled checks, maps each report's
name to its scan consumer; :data:`SUITE` lists those of ``verify --all``
in report order.  Each check draws block ``j`` of its ``n`` samples from
stream ``seed.stream_id + j``.  :func:`run_checks` runs several, by name,
as one scan of one seed, in which the Gaussian checks (``bound``,
``zero-mi`` and the real-s3 histogram of ``ridge``) share each tile's
draw, and ``ridge`` and
``bound[real-s3]`` share its read-only (C, I) pairs too; ``mi-oracle``
draws two uniforms u per state from the same streams, each giving the
angle 2 atan(2u - 1) of a half turn, which covers the two-angle family
since its MI has period pi in each angle.  Every check counts
violations instead of aborting on the first one and returns a
:class:`VerificationReport`.  Reports are deterministic for a fixed
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
from .errors import DomainError
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

# Each amplitude of the two-angle family is a cos or sin scaled by this.
_SQRT_HALF = np.sqrt(0.5)

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
    np.subtract(i, _entanglement_into(c, (out, *scratch), mask), out=out)
    out -= tol


def check_bound(
    n: int,
    seed: SeedSpec,
    kind: Ensemble = Ensemble.REAL_S3,
    workers: int | None = None,
) -> VerificationReport:
    """MI never exceeds the entanglement bound E(C) + 1e-9."""
    return run_checks([f"bound[{Ensemble(kind).value}]"], n, seed, workers)[0]


def _zero_mi_excess(c, i, out, scratch, mask):
    np.subtract(i, ZERO_MI_TOL, out=out)


def check_zero_mi_family(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """States with |ad| = |bc| have mutual information below 1e-12."""
    return run_checks(["zero-mi"], n, seed, workers)[0]


def _angle_oracle_tiles(rows: int, shared):
    """The oracle as a :class:`StreamCheck` makes it: one tile at a time.

    Each tile's uniforms are drawn with one ``random((size, 2))`` call,
    which replays the block's stream as one ``random((count, 2))`` call
    would.  A state's two uniforms u give its angles alpha and beta as
    2 atan(2u - 1), a half turn [-pi/2, pi/2) each, through the rational
    parametrization of the circle: with t = 2u - 1, cos = (1 - t^2)/(1 + t^2)
    and sin = 2t/(1 + t^2), so no trigonometric function is evaluated.  The
    amplitudes enter both routes only through their squares, which have
    period pi, so a half turn per angle covers every state of the family.
    Per tile, the four cos/sin rows are evaluated once; the pipeline route
    scales them by sqrt(1/2) into the amplitudes in the rows that then hold
    their probabilities, and the closed form squares them.  Every array is
    a row of the tile memory of ``shared``, the worker share's scan, idle
    while it runs its stream checks: the cos/sin rows in its ``work``, the
    probabilities and then the squares in its ``probs``, and first the
    uniforms and the denominators 1 + t^2, then both routes' MI rows in its
    ``fill``.
    """
    uniforms = shared.fill[: 2 * rows].reshape(rows, 2)
    spent = shared.fill[: 4 * rows].reshape(4, rows)
    trig = shared.work[: 4 * rows].reshape(4, rows)
    probs, mask = shared.probs, shared.mask

    def excess_of(gen, out: np.ndarray) -> np.ndarray:
        size = len(out)
        drawn = gen.random(out=uniforms[:size])
        cos, sin = trig[0::2, :size], trig[1::2, :size]  # (alpha, beta) rows each
        t = np.multiply(drawn.T, 2.0, out=sin)
        t -= 1.0
        t_sq = np.multiply(t, t, out=cos)
        denominator = np.add(1.0, t_sq, out=spent[2:, :size])
        np.subtract(1.0, t_sq, out=cos)
        cos /= denominator
        sin += sin
        sin /= denominator
        amplitudes = np.multiply(trig[:, :size], _SQRT_HALF, out=probs[:, :size]).T
        outcomes = _probabilities_into(amplitudes, amplitudes.T)
        pipelined = _mutual_information_into(outcomes, spent[:, :size], mask[:size])
        squares = np.square(trig[:, :size], out=probs[:, :size])
        direct = _mi_from_trig(squares, spent[1:, :size], mask[:size])
        gap = np.subtract(direct, pipelined, out=out)
        np.abs(gap, out=gap)
        gap -= ORACLE_TOL
        return gap

    return excess_of


def check_angle_oracle(
    n: int, seed: SeedSpec, workers: int | None = None
) -> VerificationReport:
    """Closed-form MI of the two-angle family matches the measurement pipeline.

    Draws random states (cos a, sin a, cos b, sin b)/sqrt(2), the family of
    ``mi_from_angles`` with b = a - delta, and compares its closed form
    against MI computed from the assembled amplitudes.  Each state's a and
    b are 2 atan(2u - 1) of two uniforms u, each a half turn [-pi/2, pi/2):
    the amplitudes enter the MI only through their squares, which have
    period pi, so a half turn per angle covers every state of the family.
    Their cos and sin come from the rational parametrization of the circle,
    (1 - t^2, 2t)/(1 + t^2) with t = 2u - 1.  Both routes start from the
    same cos and sin values, evaluated once: they share those values, not
    formulas.
    """
    return run_checks(["mi-oracle"], n, seed, workers)[0]


def _require_ridge_total(total: int) -> None:
    if total < RIDGE_MIN_TOTAL:
        raise DomainError(f"ridge check needs at least {RIDGE_MIN_TOTAL} samples, got {total}")


def off_zero_peaks(columns: np.ndarray) -> np.ndarray:
    """Per row of ``columns``, the index of its largest local maximum past the first bin.

    A bin counts as a local maximum when it holds a count above 0 and at
    least as many as both neighbours, the one past the last bin counting
    as 0; maxima tied in height resolve to the lowest index.  A row with
    no such bin gets index 0, which is never a peak.
    """
    padded = np.pad(columns, ((0, 0), (0, 1)))
    inner = padded[:, 1:-1]
    is_peak = (inner >= padded[:, :-2]) & (inner >= padded[:, 2:])
    heights = np.zeros_like(columns)
    heights[:, 1:] = np.where(is_peak, inner, 0)
    return heights.argmax(axis=1)


def check_ridge(hist: JointHistogram) -> VerificationReport:
    """The off-zero conditional MI peak tracks ridge_mi(C) within 2 bins.

    For every concurrence column whose center lies in [0.3, 0.95], the
    largest local maximum of the MI distribution away from the zero bin
    must sit within two I-bins of the predicted curve; a column with no
    such maximum is a violation of 1.  Requires a histogram of at least
    ``RIDGE_MIN_TOTAL`` samples (from the uniform real-amplitude ensemble
    for the prediction to apply); a smaller one raises ``DomainError``.
    """
    _require_ridge_total(hist.total)
    centers_c = hist.centers("c")
    picked = np.flatnonzero((centers_c >= 0.3) & (centers_c <= 0.95))
    peaks = off_zero_peaks(hist.counts[picked])
    gaps = np.abs(hist.centers("i")[peaks] - ridge_mi(centers_c[picked])) - 2.0 * hist.delta_i
    gaps[peaks == 0] = 1.0
    return VerificationReport(
        name="ridge",
        samples=hist.total,
        violations=int(np.count_nonzero(gaps > 0.0)),
        max_violation=float(gaps.max(initial=0.0)),
    )


CHECKS = {
    **{
        f"bound[{kind.value}]": TileCheck(kind.value, partial(_bound_excess, BOUND_TOL))
        for kind in Ensemble
    },
    "zero-mi": TileCheck(Ensemble.ZERO_MI.value, _zero_mi_excess),
    "mi-oracle": StreamCheck(_angle_oracle_tiles),
    "ridge": TileHistogram(Ensemble.REAL_S3.value, 0.01, 0.01),
}

SUITE = ("bound[real-s3]", "bound[complex-s7]", "zero-mi", "mi-oracle")


def run_checks(
    names, n: int, seed: SeedSpec, workers: int | None = None
) -> list[VerificationReport]:
    """The reports of the :data:`CHECKS` named in ``names``, in order, from one scan.

    Every check draws block ``j`` of its ``n`` samples from stream
    ``seed.stream_id + j``; see :func:`scan_checks` for what they share.
    ``ridge`` reports :func:`check_ridge` of its histogram; its ``n`` is
    checked against ``RIDGE_MIN_TOTAL`` before any sampling.
    """
    if "ridge" in names:
        _require_ridge_total(n)
    results = scan_checks([CHECKS[name] for name in names], n, seed, workers)
    return [
        check_ridge(result) if name == "ridge" else VerificationReport(name, n, *result)
        for name, result in zip(names, results)
    ]
