"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy fixtures
(10^8 samples) are built once per session and shared; the whole suite
takes a few minutes on two cores.

One assertion is expected to fail and is left red on purpose; the
inline comment gives the analysis:

* criterion 6, concurrence fraction - in the zero-MI family the
  concurrence is a product of two arcsine-distributed factors, giving
  P(C > 0.01) = 0.97166 (quadrature), short of the required 0.99.

Criterion 2's inverse column holds closed-form inverses, so it differs
from criterion 1's empirical C* column at I=0.20.  There the empirical
0.52 is the center 0.515 of the peak bin [0.51, 0.52), while the closed
form brackets the inverse in [0.505, 0.515) (ridge_mi(0.505) = 0.19271 <
0.20 < ridge_mi(0.515) = 0.20083), which gives 0.51.  Criterion 1 still
checks the empirical 0.52, within C_STAR_TOL.
"""

import os

import numpy as np
import pytest

from entmi import (
    Ensemble,
    JointHistogram,
    SeedSpec,
    check_angle_oracle,
    check_bound,
    check_ridge,
    check_zero_mi_family,
    concurrence,
    entanglement_entropy,
    entanglement_from_concurrence,
    load_histogram,
    mi_extrema,
    mi_from_angles,
    mutual_information,
    probabilities,
    ridge_concurrence,
    ridge_mi,
    run_histogram_job,
    sample_amplitudes,
    stream_generator,
)

WORKERS = os.cpu_count() or 1

SEED_FINE = 101
SEED_SMALL = 202
SEED_BOUND_REAL = 303
SEED_BOUND_COMPLEX = 304
SEED_ZERO_MI = 505
SEED_ORACLE = 606
SEED_ROUTE_REAL = 707
SEED_ROUTE_COMPLEX = 708
SEED_CLI = 4242

# Reference slice statistics for the uniform real-amplitude ensemble:
# I -> (C*, <C>, sigma).  The first row is resolution-sensitive and is
# checked only loosely.
TABLE_ROWS = {
    0.00: (0.02, 0.23, 0.28),
    0.10: (0.37, 0.51, 0.19),
    0.20: (0.52, 0.62, 0.16),
    0.30: (0.62, 0.69, 0.13),
    0.40: (0.71, 0.76, 0.11),
    0.50: (0.78, 0.81, 0.09),
    0.60: (0.84, 0.86, 0.07),
    0.70: (0.89, 0.90, 0.05),
    0.80: (0.94, 0.94, 0.03),
    0.90: (0.97, 0.97, 0.02),
}

# Tabulated two-decimal inverses of the ridge curve at I = 0.1 .. 0.9.
INVERSE_COLUMN = (
    0.37,
    0.51,  # ridge_mi(0.505) = 0.19271 < 0.20 < ridge_mi(0.515) = 0.20083
    0.62, 0.71, 0.78, 0.84, 0.89, 0.94, 0.97,
)

C_STAR_TOL = 0.03
MOMENT_TOL = 0.02
LOOSE_TOL = 0.10


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name:<42} {status}  {detail}".rstrip(), flush=True)
    return ok


@pytest.fixture(scope="session")
def hist_fine():
    """10^8 real-ensemble samples on a 400x400 grid (deltas 2.5e-3)."""
    return run_histogram_job(
        Ensemble.REAL_S3, 100_000_000, SEED_FINE, 0.0025, 0.0025, workers=WORKERS
    )


@pytest.fixture(scope="session")
def hist_coarse(hist_fine):
    """The same 10^8 samples rebinned to the 100x100 grid: 4x4 fine bins per bin."""
    coarse = JointHistogram(hist_fine.delta_c * 4, hist_fine.delta_i * 4)
    coarse.counts = hist_fine.counts.reshape(
        coarse.nbins_c, 4, coarse.nbins_i, 4
    ).sum(axis=(1, 3), dtype=np.uint64)
    coarse.total = hist_fine.total
    return coarse


@pytest.fixture(scope="session")
def hist_small():
    """10^7 real-ensemble samples on the 100x100 grid."""
    return run_histogram_job(
        Ensemble.REAL_S3, 10_000_000, SEED_SMALL, 0.01, 0.01, workers=WORKERS
    )


def test_criterion_1_table_reproduction(hist_fine):
    failures = []
    for center, (c_star, mean, std) in TABLE_ROWS.items():
        stats = hist_fine.slice_stats(center, 0.005)
        tol_c = LOOSE_TOL if center == 0.0 else C_STAR_TOL
        tol_m = LOOSE_TOL if center == 0.0 else MOMENT_TOL
        for label, got, want, tol in (
            ("C*", stats.c_star, c_star, tol_c),
            ("mean", stats.mean_c, mean, tol_m),
            ("std", stats.std_c, std, tol_m),
        ):
            if abs(got - want) > tol:
                failures.append(
                    f"I={center:.2f} {label}={got:.4f} vs {want:.2f} (tol {tol})"
                )
    ok = _report(
        1, "slice statistics vs reference table", not failures,
        "; ".join(failures) or "all rows within tolerance",
    )
    assert ok, failures


def test_criterion_2_inverse_curve():
    mismatches = []
    for level, expected in zip(np.arange(0.1, 0.91, 0.1), INVERSE_COLUMN):
        got = round(ridge_concurrence(float(level)), 2)
        if got != pytest.approx(expected):
            mismatches.append(f"I={level:.1f}: inverse {got:.2f} != {expected:.2f}")
    ok = _report(
        2, "inverse ridge curve at two decimals", not mismatches,
        "; ".join(mismatches) or "all nine levels match",
    )
    # The I=0.20 entry is 0.51, not criterion 1's empirical C* of 0.52:
    # the closed form puts the inverse in [0.505, 0.515), since
    # ridge_mi(0.505) = 0.19271 < 0.20 < ridge_mi(0.515) = 0.20083.
    assert ok, mismatches


def test_criterion_3_flat_concurrence_marginal(hist_small, hist_coarse):
    dev_small = float(np.max(np.abs(hist_small.marginal("c").values - 1.0)))
    dev_large = float(np.max(np.abs(hist_coarse.marginal("c").values - 1.0)))
    ok = _report(
        3, "flat concurrence marginal",
        dev_small < 0.05 and dev_large <= 0.02 and dev_large < dev_small,
        f"max dev {dev_small:.4f} @1e7 (<0.05), {dev_large:.4f} @1e8 (<=0.02, shrinking)",
    )
    assert ok


def test_criterion_4_information_mode_at_zero(hist_small):
    mode_bin = int(np.argmax(hist_small.marginal("i").values))
    ok = _report(
        4, "information marginal peaks at zero", mode_bin == 0,
        f"argmax bin {mode_bin}",
    )
    assert ok


def test_criterion_5_information_bound():
    real = check_bound(
        10_000_000, SeedSpec(SEED_BOUND_REAL), Ensemble.REAL_S3, workers=WORKERS
    )
    cplx = check_bound(
        1_000_000, SeedSpec(SEED_BOUND_COMPLEX), Ensemble.COMPLEX_S7, workers=WORKERS
    )
    ok = _report(
        5, "MI bounded by entanglement entropy", real.passed and cplx.passed,
        f"violations: real {real.violations}/1e7, complex {cplx.violations}/1e6",
    )
    assert ok


def test_criterion_6_zero_mi_family():
    amps = sample_amplitudes(Ensemble.ZERO_MI, SeedSpec(SEED_ZERO_MI), 100_000)
    info = np.atleast_1d(mutual_information(probabilities(amps)))
    fraction = float(np.mean(concurrence(amps) > 0.01))
    identity_ok = float(info.max()) <= 1e-12
    fraction_ok = fraction >= 0.99
    ok = _report(
        6, "zero-MI family identity and spread", identity_ok and fraction_ok,
        f"max I {info.max():.2e} (<=1e-12: {identity_ok}); "
        f"frac C>0.01 {fraction:.4f} (>=0.99: {fraction_ok})",
    )
    # Known red: the family's concurrence is |sin(2u)||sin(2v)| with
    # arcsine-distributed factors, so P(C > 0.01) = 0.97166 by quadrature
    # (seed 505 samples 0.9714); the 0.99 requirement cannot be met by this
    # construction.
    assert ok


def test_criterion_7_analytic_oracle():
    oracle = check_angle_oracle(10_000, SeedSpec(SEED_ORACLE))
    gen = stream_generator(SeedSpec(SEED_ORACLE, 1_000))
    worst_min = 0.0
    worst_max = 0.0
    for delta in gen.uniform(0.0, 2.0 * np.pi, 100):
        target = ridge_mi(abs(np.sin(delta)))
        for index in range(-2, 3):
            ex = mi_extrema(delta, index)
            worst_min = max(worst_min, mi_from_angles(ex.alpha_min, delta))
            worst_max = max(
                worst_max, abs(mi_from_angles(ex.alpha_max, delta) - target)
            )
    ok = _report(
        7, "closed form matches measurement pipeline",
        oracle.passed and worst_min <= 1e-12 and worst_max <= 1e-12,
        f"pairs {oracle.violations} viol; minima <= {worst_min:.2e}; "
        f"maxima gap <= {worst_max:.2e}",
    )
    assert ok


def test_criterion_8_entropy_route_consistency():
    worst = 0.0
    for kind, seed in (
        (Ensemble.REAL_S3, SEED_ROUTE_REAL),
        (Ensemble.COMPLEX_S7, SEED_ROUTE_COMPLEX),
    ):
        for block in range(4):
            amps = sample_amplitudes(kind, SeedSpec(seed, block), 250_000)
            gap = np.abs(
                entanglement_entropy(amps)
                - entanglement_from_concurrence(concurrence(amps))
            )
            worst = max(worst, float(gap.max()))
    ok = _report(
        8, "partial trace vs concurrence route", worst <= 1e-10,
        f"max gap {worst:.2e} over 2x1e6 states",
    )
    assert ok


def test_criterion_9_ridge_in_joint_density(hist_coarse):
    report = check_ridge(hist_coarse)
    ok = _report(
        9, "off-zero conditional peak on ridge", report.passed,
        f"{report.violations} columns off by more than 2 bins",
    )
    assert ok


def test_support_respects_bound(hist_small):
    # Module invariant, not a numbered criterion: nonzero joint bins stay
    # below the entanglement bound up to binning slack.  A sample at the
    # top C edge of its bin can saturate I = E(C), so the I-bin center may
    # exceed E(C-bin center) by up to delta_i/2 + max|E'| * delta_c/2 with
    # max|E'| = 1/ln 2; the measured worst case is 1.14 * delta.
    centers_c = hist_small.centers("c")
    centers_i = hist_small.centers("i")
    bound = entanglement_from_concurrence(centers_c)
    rows, cols = np.nonzero(hist_small.counts)
    exceedance = centers_i[cols] - bound[rows]
    slack = 0.5 * (hist_small.delta_i + hist_small.delta_c / np.log(2.0))
    assert float(exceedance.max()) <= slack


def test_criterion_10_engineering_determinism(run_cli, tmp_path):
    base = ["sample", "--n", "600000", "--seed", str(SEED_CLI), "--bins", "0.01"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "w2.csv")]
    assert run_cli(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert run_cli(base + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert run_cli(base + ["--workers", "2", "--out", str(paths[2])]) == 0
    repeat_identical = paths[0].read_bytes() == paths[1].read_bytes()
    counts_identical = load_histogram(paths[0]) == load_histogram(paths[2])
    ok = _report(
        10, "deterministic outputs across runs/workers",
        repeat_identical and counts_identical,
        f"repeat bytes equal: {repeat_identical}; "
        f"counts equal across workers: {counts_identical}",
    )
    assert ok
