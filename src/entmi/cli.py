"""Command-line interface for sampling runs, statistics, curves, and checks.

Exit codes: 0 success, 1 failed verification, 2 invalid arguments or a
malformed histogram file, 3 I/O failure.  ``verify --check NAME`` runs the
``verify.CHECKS`` entry ``NAME[--ensemble]`` if there is one, else ``NAME``,
and ``--all`` runs ``verify.SUITE``.  :func:`main` alone maps errors
to exit codes (argument errors and ``EntmiError`` to 2, ``OSError`` to 3),
each with one ``error: ...`` line on stderr.  A run reads no environment
variable, so its command line alone sets it: identical command lines
produce byte-identical output files, and ``--workers`` never changes
results, only wall time.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .curves import ridge_concurrence, ridge_mi
from .errors import DomainError, EmptySliceError, EntmiError
from .histogram import load_histogram, write_density_csv
from .pipeline import run_histogram_job
from .sampling import Ensemble, SeedSpec
from .states import entanglement_from_concurrence
from .verify import CHECKS, SUITE, check_ridge, run_checks, write_reports_jsonl

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2
_EXIT_IO = 3

_DEFAULT_TABLE_CENTERS = "0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"


def _write_output(path: str, write) -> None:
    """Call ``write(stream)`` on ``path`` ('-' is stdout).

    An ``OSError`` from opening, writing or closing the file is raised
    again with a message that names the path.
    """
    try:
        if path == "-":
            write(sys.stdout)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as out:
                write(out)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` of :func:`_write_output` now if ``path`` cannot be written.

    With symlinks resolved, ``path`` must not be a directory; an existing
    file must be writable, and a new one's directory must exist and be
    writable.  The file itself is neither created nor truncated.
    """
    if path == "-":
        return
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise OSError(f"cannot write {path}: is a directory")
    if not os.path.exists(target):
        target = os.path.dirname(target)
        if not os.path.isdir(target):
            raise OSError(f"cannot write {path}: {target} is not a directory")
    if not os.access(target, os.W_OK):
        raise OSError(f"cannot write {path}: {target} is not writable")


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as ``DomainError``; subcommand parsers inherit it."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entmi",
        description=(
            "Monte Carlo statistics of concurrence and post-measurement "
            "mutual information for random two-qubit pure states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ensembles = [e.value for e in Ensemble]

    p_sample = sub.add_parser(
        "sample", help="sample an ensemble and write the joint (C, I) histogram"
    )
    p_sample.add_argument("--ensemble", choices=ensembles, default=Ensemble.REAL_S3.value)
    p_sample.add_argument("--n", type=int, default=10_000_000, help="sample count")
    p_sample.add_argument("--seed", type=int, default=0, help="master seed")
    p_sample.add_argument(
        "--bins", type=float, default=0.01, help="bin width for both axes"
    )
    p_sample.add_argument("--delta-c", type=float, default=None, help="override C bin width")
    p_sample.add_argument("--delta-i", type=float, default=None, help="override I bin width")
    p_sample.add_argument("--workers", type=int, default=None)
    p_sample.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sample.add_argument("--out", required=True, help="output histogram path ('-' = stdout)")

    p_table = sub.add_parser(
        "table", help="per-MI-slice concurrence statistics from a histogram"
    )
    p_table.add_argument("--hist", required=True, help="histogram file (csv or json)")
    p_table.add_argument(
        "--centers",
        default=_DEFAULT_TABLE_CENTERS,
        help="comma-separated MI slice centers",
    )
    p_table.add_argument(
        "--halfwidth", type=float, default=0.005, help="half-width of each MI slice"
    )
    p_table.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    p_curve = sub.add_parser(
        "curve", help="ridge curve and entanglement bound on a uniform C grid"
    )
    p_curve.add_argument("--points", type=int, default=101)
    p_curve.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--all", action="store_true", help="run the standard suite")
    p_verify.add_argument(
        "--check",
        action="append",
        choices=list(dict.fromkeys(name.partition("[")[0] for name in CHECKS)),
        default=None,
        help="run one named check (repeatable)",
    )
    p_verify.add_argument("--n", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--ensemble",
        choices=(Ensemble.REAL_S3.value, Ensemble.COMPLEX_S7.value),
        default=Ensemble.REAL_S3.value,
        help="ensemble for --check bound (--all runs both)",
    )
    p_verify.add_argument(
        "--hist", default=None, help="existing histogram for the ridge check"
    )
    p_verify.add_argument("--workers", type=int, default=None)
    p_verify.add_argument("--out", default="-", help="JSON-lines report path")

    p_marginal = sub.add_parser(
        "marginal", help="marginal density over C or I from a histogram"
    )
    p_marginal.add_argument("--hist", required=True)
    p_marginal.add_argument("--axis", choices=("c", "i"), required=True)
    p_marginal.add_argument("--out", default="-")

    p_cond = sub.add_parser(
        "conditional", help="conditional density within a slice of the other axis"
    )
    p_cond.add_argument("--hist", required=True)
    p_cond.add_argument(
        "--axis", choices=("c", "i"), required=True, help="axis of the emitted density"
    )
    p_cond.add_argument("--lo", type=float, required=True, help="slice lower bound")
    p_cond.add_argument("--hi", type=float, required=True, help="slice upper bound")
    p_cond.add_argument("--out", default="-")

    return parser


def _cmd_sample(args) -> int:
    delta_c = args.delta_c if args.delta_c is not None else args.bins
    delta_i = args.delta_i if args.delta_i is not None else args.bins
    _check_writable(args.out)
    hist = run_histogram_job(
        Ensemble(args.ensemble), args.n, args.seed, delta_c, delta_i, workers=args.workers
    )
    meta = {"ensemble": args.ensemble, "n": args.n, "master_seed": args.seed}
    writer = hist.write_json if args.format == "json" else hist.write_csv
    _write_output(args.out, lambda out: writer(out, meta=meta))
    if args.out != "-":
        print(f"wrote {args.out} (ensemble={args.ensemble} total={hist.total})")
    return _EXIT_OK


def _cmd_table(args) -> int:
    try:
        centers = [float(tok) for tok in args.centers.split(",") if tok.strip()]
    except ValueError:
        raise DomainError("--centers must be a comma-separated list of numbers") from None
    if not centers:
        raise DomainError("--centers is empty")
    if not all(math.isfinite(center) for center in centers):
        raise DomainError("--centers must be finite numbers")
    if not 0 < args.halfwidth < math.inf:
        raise DomainError("--halfwidth must be positive and finite")
    hist = load_histogram(args.hist)
    lines = ["i_center,c_star,ridge_c,mean_c,std_c,count"]
    # One bisection inverts every center in [0, 1]; the others have no inverse.
    inverses = iter(ridge_concurrence([c for c in centers if 0.0 <= c <= 1.0]).tolist())
    for center in centers:
        inverse = next(inverses) if 0.0 <= center <= 1.0 else float("nan")
        try:
            stats = hist.slice_stats(center, args.halfwidth)
            lines.append(
                f"{center!r},{stats.c_star!r},{inverse!r},"
                f"{stats.mean_c!r},{stats.std_c!r},{stats.count}"
            )
        except EmptySliceError:
            lines.append(f"{center!r},nan,{inverse!r},nan,nan,0")
    _write_output(args.out, lambda out: out.write("\n".join(lines) + "\n"))
    return _EXIT_OK


def _cmd_curve(args) -> int:
    if args.points < 2:
        raise DomainError("--points must be at least 2")
    grid = [k / (args.points - 1) for k in range(args.points)]
    columns = grid, ridge_mi(grid).tolist(), entanglement_from_concurrence(grid).tolist()
    rows = ["c,ridge_i,bound_e", *(f"{c!r},{i!r},{e!r}" for c, i, e in zip(*columns))]
    _write_output(args.out, lambda out: out.write("\n".join(rows) + "\n"))
    return _EXIT_OK


def _cmd_verify(args) -> int:
    if not args.all and not args.check:
        raise DomainError("select checks with --all or --check")

    names = list(SUITE) if args.all else []
    for name in args.check or []:
        keyed = f"{name}[{args.ensemble}]"
        name = keyed if keyed in CHECKS else name
        if name not in names:
            names.append(name)

    # A --hist file is checked before any sampling; the other checks, the
    # ridge histogram among them without --hist, run as one scan, reported
    # in selection order.
    if args.hist is not None:
        if "ridge" not in names:
            raise DomainError("--hist applies only to --check ridge")
        ridge = check_ridge(load_histogram(args.hist))
        at = names.index("ridge")
        del names[at]
    _check_writable(args.out)
    reports = run_checks(names, args.n, SeedSpec(args.seed), args.workers)
    if args.hist is not None:
        reports.insert(at, ridge)

    _write_output(args.out, lambda out: write_reports_jsonl(reports, out))
    return _EXIT_OK if all(r.passed for r in reports) else _EXIT_CHECK_FAILED


def _cmd_marginal(args) -> int:
    density = load_histogram(args.hist).marginal(args.axis)
    _write_output(args.out, lambda out: write_density_csv(density, out))
    return _EXIT_OK


def _cmd_conditional(args) -> int:
    density = load_histogram(args.hist).conditional(args.axis, args.lo, args.hi)
    _write_output(args.out, lambda out: write_density_csv(density, out))
    return _EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "table": _cmd_table,
    "curve": _cmd_curve,
    "verify": _cmd_verify,
    "marginal": _cmd_marginal,
    "conditional": _cmd_conditional,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except EntmiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        # An unreadable --hist or an unwritable --out, whose message names the
        # file, or a sampling worker that died (ChildProcessError).
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
