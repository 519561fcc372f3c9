"""Streaming, mergeable 2D histograms of (concurrence, mutual information).

Counts are exact 64-bit integers, so merging partial histograms from
parallel workers is associative, commutative, and bit-reproducible.
Both axes cover [0, 1] with half-open bins [k*delta, (k+1)*delta); the
final bin is closed so that values exactly equal to 1 are kept.

Serialized forms
----------------
Joint histogram CSV: a header line

    # joint_histogram delta_c=<v> delta_i=<v> total=<n>

optionally followed by further ``#`` comment lines (callers may add
self-describing metadata), then one ``c_bin_index,i_bin_index,count``
row per nonzero bin in row-major order.  Everything after the header
line is ASCII.  Densities serialize as ``bin_center,density`` rows.
A histogram is read once, front to back and never sought, so a pipe will do.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import DomainError, EmptySliceError, HistogramFormatError
from .states import _require_finite, _require_unit

_CSV_HEADER_PREFIX = "# joint_histogram "
_NON_ASCII = "non-ASCII text after the header line"

# Bin rows formatted per write by ``write_csv``: large enough to amortize
# the write, small enough that the formatted text stays a few megabytes.
_CSV_CHUNK_ROWS = 65_536


def _tiles_unit_interval(delta: float) -> bool:
    """Whether bins of width ``delta`` cover [0, 1] exactly, up to round-off."""
    inverse = 1.0 / delta
    return abs(inverse - round(inverse)) < 1e-9


def bin_count(delta: float) -> int:
    """Number of bins of width ``delta`` needed to cover [0, 1].

    A width that is not a real number in (0, 1] raises ``DomainError``.
    """
    if not (isinstance(delta, numbers.Real) and 0.0 < delta <= 1.0):
        raise DomainError(f"bin width {delta!r} outside (0, 1]")
    if not math.isfinite(1.0 / delta):
        raise DomainError(f"bin width {delta!r} too small: 1/width overflows")
    if _tiles_unit_interval(delta):
        return int(round(1.0 / delta))
    return int(math.ceil(1.0 / delta))


def bin_centers(delta: float, nbins: int) -> np.ndarray:
    """Bin centers over [0, 1]; the last bin's upper edge is pinned to 1.0."""
    edges = delta * np.arange(nbins + 1, dtype=np.float64)
    edges[-1] = 1.0
    return 0.5 * (edges[:-1] + edges[1:])


def bin_widths(delta: float, nbins: int) -> np.ndarray:
    """Width of each bin: ``delta``, except a narrower last bin.

    When ``delta`` does not tile [0, 1] (0.3 gives 4 bins), the last bin
    ends at 1 and is narrower than the others.
    """
    widths = np.full(nbins, float(delta))
    if not _tiles_unit_interval(delta):
        widths[-1] = 1.0 - delta * (nbins - 1)
    return widths


def _bin_indices_into(values: np.ndarray, delta: float, nbins: int, out, work) -> None:
    """Bin index of each of ``values`` into ``out``, through the float64 ``work``."""
    np.clip(values, 0.0, 1.0, out=work)
    np.divide(work, delta, out=work)
    np.copyto(out, work, casting="unsafe")  # truncates, as astype(np.int64)
    np.minimum(out, nbins - 1, out=out)


def _unique_fields(pairs) -> dict:
    """Dict of the (key, value) ``pairs``; a repeated key is a format error."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise HistogramFormatError(f"repeated field {key!r}")
        fields[key] = value
    return fields


def _csv_header(readline) -> tuple[float, float, int]:
    """(delta_c, delta_i, total) of the first line from ``readline`` that is not blank."""
    header = next(filter(None, map(str.strip, iter(readline, ""))), "")
    if not header.startswith(_CSV_HEADER_PREFIX):
        raise HistogramFormatError("missing '# joint_histogram' header line")
    tokens = header[len(_CSV_HEADER_PREFIX):].split()
    try:
        fields = _unique_fields(token.split("=", 1) for token in tokens)
        return float(fields["delta_c"]), float(fields["delta_i"]), int(fields["total"])
    except HistogramFormatError:
        raise
    except (KeyError, ValueError):
        raise HistogramFormatError(f"malformed header line {header!r}") from None


def _csv_bins(rows: IO[str]) -> np.ndarray:
    """(c_index, i_index, count) uint64 rows of the CSV body ``rows``."""
    # numpy's loadtxt can crash the interpreter on a field holding a code point
    # such as U+10FFFF, so ``rows`` gives only ASCII, checked or strictly decoded.
    try:
        with warnings.catch_warnings():
            # An empty histogram has no rows; loadtxt warns about that.
            warnings.simplefilter("ignore", UserWarning)
            bins = np.loadtxt(rows, dtype=np.uint64, delimiter=",", comments="#", ndmin=2)
    except UnicodeDecodeError:  # a ValueError too, but from the ASCII decoder
        raise HistogramFormatError(_NON_ASCII) from None
    except ValueError as exc:
        raise HistogramFormatError(f"malformed bin row: {exc}") from None
    if bins.size and bins.shape[1] != 3:
        raise HistogramFormatError(
            f"bin rows have {bins.shape[1]} fields, expected c_index,i_index,count"
        )
    return bins


@dataclass
class Density1D:
    """Binned probability density over [0, 1].

    ``values[k]`` is the density on bin k; the sum of values times bin
    widths is 1 for any non-empty source histogram.
    """

    delta: float
    values: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return bin_centers(self.delta, len(self.values))


@dataclass(frozen=True)
class SliceStats:
    """Summary of the concurrence distribution within one MI slice."""

    i_center: float
    i_halfwidth: float
    c_star: float
    mean_c: float
    std_c: float
    count: int


class JointHistogram:
    """Mergeable 2D histogram over [0, 1] x [0, 1].

    A histogram instance is single-writer; a scan builds one per worker
    share and adds their counts.  Reads on a finished histogram are safe
    from any number of threads.
    """

    def __init__(self, delta_c: float, delta_i: float):
        self.nbins_c = bin_count(delta_c)
        self.nbins_i = bin_count(delta_i)
        self.delta_c = float(delta_c)
        self.delta_i = float(delta_i)
        try:
            self.counts = np.zeros((self.nbins_c, self.nbins_i), dtype=np.uint64)
        except (MemoryError, ValueError):
            # numpy raises MemoryError, or ValueError beyond its size limit.
            raise DomainError(
                f"cannot allocate a {self.nbins_c:.3g}x{self.nbins_i:.3g} histogram "
                f"grid (delta_c={self.delta_c!r}, delta_i={self.delta_i!r})"
            ) from None
        self.total = 0

    # -- construction ------------------------------------------------

    def accumulate_many(self, c, i) -> None:
        """Add a batch of observations from two equal-length arrays.

        Values that :meth:`_flat_bins` rejects (ragged rows included) or
        batches of unequal length raise ``DomainError``, and nothing of the
        batch is counted.
        """
        c = np.ravel(_require_unit(c, "concurrence"))
        i = np.ravel(_require_unit(i, "mutual information"))
        if c.shape != i.shape:
            raise DomainError("c and i batches must have the same length")
        if c.size == 0:
            return
        flat = np.empty(c.size, dtype=np.int64)
        self._flat_bins(c, i, flat, np.empty_like(flat), np.empty(c.size))
        self._add_flat(flat)

    def _flat_bins(self, c, i, out, scratch, work) -> np.ndarray:
        """Row-major flat bin index of each (c, i) pair into ``out``.

        ``c`` and ``i`` are flat arrays and are left as they are; ``scratch``
        is an int64 and ``work`` a float64 array as long as ``out``.  Values
        that are not numbers within 1e-12 of [0, 1], NaN included, raise
        ``DomainError`` by the rule of ``states._require_unit``.
        """
        c = _require_unit(c, "concurrence")
        i = _require_unit(i, "mutual information")
        _bin_indices_into(c, self.delta_c, self.nbins_c, out, work)
        _bin_indices_into(i, self.delta_i, self.nbins_i, scratch, work)
        out *= self.nbins_i
        out += scratch
        return out

    def _add_flat(self, flat: np.ndarray) -> None:
        """Count one observation in each flat bin index of ``flat``."""
        # A uint64 one keeps ufunc.at on its fast loop; a Python int takes its
        # casting path.  Per 250k-state block on a shared 2-vCPU host: 24.9 ms
        # against 0.44 ms at delta 0.01, and 63.4 ms against 3.09 ms at 0.001.
        np.add.at(self.counts.reshape(-1), flat, np.uint64(1))
        self.total += int(flat.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointHistogram):
            return NotImplemented
        return (
            (self.delta_c, self.delta_i, self.total)
            == (other.delta_c, other.delta_i, other.total)
            and np.array_equal(self.counts, other.counts)
        )

    # -- bin geometry --------------------------------------------------

    def centers(self, axis: str) -> np.ndarray:
        _, delta, nbins = self._axis(axis)
        return bin_centers(delta, nbins)

    def _axis(self, axis: str) -> tuple[int, float, int]:
        """(axis of ``counts``, bin width, bin count) of ``axis``, 'c' or 'i' in either case.

        Any other axis, a non-string included, raises ``DomainError``.
        """
        name = axis.lower() if isinstance(axis, str) else None
        if name == "c":
            return 0, self.delta_c, self.nbins_c
        if name == "i":
            return 1, self.delta_i, self.nbins_i
        raise DomainError("axis must be 'c' or 'i'")

    # -- densities and statistics ---------------------------------------

    def marginal(self, axis: str) -> Density1D:
        """Marginal density over concurrence (axis='c') or MI (axis='i').

        An empty histogram raises ``EmptySliceError``.
        """
        k = self._axis(axis)[0]
        if self.total == 0:
            raise EmptySliceError("cannot normalize an empty histogram")
        return self._density(axis, self.counts.sum(axis=1 - k, dtype=np.float64), self.total)

    def _slice_sums(self, sliced: str, lo: float, hi: float) -> np.ndarray:
        """Counts along the other axis of the ``sliced`` bins centered in [lo, hi].

        Raises ``EmptySliceError`` when no bin center lies there or those
        bins hold no counts.
        """
        k, delta, nbins = self._axis(sliced)
        centers = bin_centers(delta, nbins)
        picked = np.flatnonzero((centers >= lo) & (centers <= hi))
        if picked.size == 0:
            raise EmptySliceError(f"no {sliced}-bins with centers in [{lo}, {hi}]")
        sums = self.counts.take(picked, axis=k).sum(axis=k, dtype=np.float64)
        if float(sums.sum()) == 0.0:
            raise EmptySliceError(f"slice [{lo}, {hi}] over {sliced} holds no counts")
        return sums

    def conditional(self, axis: str, lo: float, hi: float) -> Density1D:
        """Conditional density over ``axis`` given the other axis in [lo, hi].

        A bin of the other axis belongs to the slice when its center lies
        in the closed interval, which keeps the boundaries robust to 1-ulp
        edge effects.  Bounds that are not real numbers with
        0 <= lo < hi <= 1 raise ``DomainError``.
        """
        k = self._axis(axis)[0]
        if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)
                and 0.0 <= lo < hi <= 1.0):
            raise DomainError("slice bounds must satisfy 0 <= lo < hi <= 1")
        sums = self._slice_sums("ic"[k], lo, hi)  # the other axis
        return self._density(axis, sums, sums.sum())

    def _density(self, axis: str, sums: np.ndarray, total) -> Density1D:
        """Density over ``axis`` of the counts ``sums``: each over total x width."""
        _, delta, nbins = self._axis(axis)
        return Density1D(delta, sums / (float(total) * bin_widths(delta, nbins)))

    def slice_stats(self, i_center: float, i_halfwidth: float) -> SliceStats:
        """Peak position, mean, and spread of concurrence in one MI slice.

        The peak is the center of the highest bin of the sliced counts
        (ties resolve to the lowest bin); mean and standard deviation are
        taken over bin centers weighted by counts.  A center that is not
        finite, or a halfwidth that is not a number in (0, inf), raises
        ``DomainError``.
        """
        _require_finite("slice center", i_center)
        if not (isinstance(i_halfwidth, numbers.Real) and 0.0 < i_halfwidth < math.inf):
            raise DomainError("slice halfwidth must be positive and finite")
        sums = self._slice_sums("i", i_center - i_halfwidth, i_center + i_halfwidth)
        count = int(sums.sum())
        centers = self.centers("c")
        weights = sums / count
        mean = float(weights @ centers)
        second = float(weights @ (centers * centers))
        return SliceStats(
            i_center=float(i_center),
            i_halfwidth=float(i_halfwidth),
            c_star=float(centers[int(np.argmax(sums))]),
            mean_c=mean,
            std_c=math.sqrt(max(second - mean * mean, 0.0)),
            count=count,
        )

    # -- serialization ---------------------------------------------------

    def write_csv(self, stream: IO[str], meta: dict | None = None) -> None:
        stream.write(
            f"{_CSV_HEADER_PREFIX}delta_c={self.delta_c!r} "
            f"delta_i={self.delta_i!r} total={self.total}\n"
        )
        if meta:
            pairs = " ".join(f"{k}={v}" for k, v in meta.items())
            stream.write(f"# meta {pairs}\n")
        table = self._bin_table()
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            chunk = table[start:start + _CSV_CHUNK_ROWS]
            stream.write("%d,%d,%d\n" * len(chunk) % tuple(chunk.ravel().tolist()))

    def _bin_table(self) -> np.ndarray:
        """(c_index, i_index, count) of each nonzero bin; uint64 keeps 2**63 and up exact."""
        table = np.empty((np.count_nonzero(self.counts), 3), dtype=np.uint64)
        table[:, 0], table[:, 1] = np.nonzero(self.counts)
        table[:, 2] = self.counts[table[:, 0], table[:, 1]]
        return table

    def write_json(self, stream: IO[str], meta: dict | None = None) -> None:
        payload = {
            "delta_c": self.delta_c,
            "delta_i": self.delta_i,
            "total": self.total,
            "bins": self._bin_table().tolist(),
        }
        if meta:
            payload["meta"] = dict(meta)
        json.dump(payload, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")

    @classmethod
    def _from_bins(
        cls, delta_c: float, delta_i: float, declared_total: int, bins: np.ndarray
    ) -> "JointHistogram":
        """Histogram from (c_index, i_index, count) rows of a uint64 array.

        Repeated bins add up.  Raises ``HistogramFormatError`` when the
        declared total lies outside [0, 2**64), the bin widths give no grid
        that can be allocated, an index lies outside the grid or the counts
        do not sum to the declared total.
        """
        if not 0 <= declared_total < 2**64:
            raise HistogramFormatError(f"total {declared_total} outside [0, 2**64)")
        try:
            hist = cls(delta_c, delta_i)
        except DomainError as exc:
            raise HistogramFormatError(str(exc)) from None
        rows, cols, values = bins.reshape(-1, 3).T
        if rows.size and (rows.max() >= hist.nbins_c or cols.max() >= hist.nbins_i):
            raise HistogramFormatError(
                f"bin index outside the {hist.nbins_c}x{hist.nbins_i} grid"
            )
        # The exact sum, from 32-bit halves: a uint64 sum would wrap at 2**64.
        total = (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())
        if total != declared_total:
            raise HistogramFormatError(
                f"histogram corrupt: header total {declared_total} != "
                f"sum of counts {total}"
            )
        flat = (rows * hist.nbins_i + cols).astype(np.intp)
        np.add.at(hist.counts.reshape(-1), flat, values)
        hist.total = total
        return hist

    @classmethod
    def read_csv(cls, stream: IO[str]) -> "JointHistogram":
        header = _csv_header(stream.readline)
        body = stream.read()
        if not body.isascii():
            raise HistogramFormatError(_NON_ASCII)
        return cls._from_bins(*header, _csv_bins(io.StringIO(body)))

    @classmethod
    def read_json(cls, stream: IO[str]) -> "JointHistogram":
        try:
            payload = json.load(stream, object_pairs_hook=_unique_fields)
        except (ValueError, RecursionError) as exc:
            raise HistogramFormatError(f"invalid histogram JSON: {exc}") from None
        try:
            delta_c, delta_i, declared_total, bins = (
                payload[key] for key in ("delta_c", "delta_i", "total", "bins")
            )
        except (KeyError, TypeError):
            raise HistogramFormatError(
                "histogram JSON needs delta_c, delta_i, total and bins"
            ) from None
        # Comparing before any float() keeps NaN, infinities and integers too
        # large for a float out; bool is not a number here.
        if not all(
            type(delta) in (int, float) and 0 < delta <= 1
            for delta in (delta_c, delta_i)
        ):
            raise HistogramFormatError(
                "histogram JSON delta_c and delta_i must be numbers in (0, 1]"
            )
        if type(declared_total) is not int:
            raise HistogramFormatError("histogram JSON total must be an integer")
        if not isinstance(bins, list) or not all(
            isinstance(row, list)
            and len(row) == 3
            and all(type(v) is int for v in row)
            for row in bins
        ):
            raise HistogramFormatError(
                "histogram JSON bins must be [c_index, i_index, count] integer triples"
            )
        try:
            bins = np.array(bins, dtype=np.uint64)
        except OverflowError:
            raise HistogramFormatError(
                "histogram JSON bin values must lie in [0, 2**64)"
            ) from None
        return cls._from_bins(float(delta_c), float(delta_i), declared_total, bins)


def load_histogram(path) -> JointHistogram:
    """Read a histogram file once: JSON if its first byte is ``{``, else CSV.

    Raises ``OSError`` (unreadable) or ``HistogramFormatError`` (malformed), naming the file.
    """
    try:
        with open(path, "rb") as fh:
            if fh.peek(1)[:1] == b"{":
                with io.TextIOWrapper(fh, encoding="utf-8") as text:
                    return JointHistogram.read_json(text)
            header = _csv_header(lambda: fh.readline().decode("utf-8"))
            with io.TextIOWrapper(fh, encoding="ascii", newline="\n") as rows:
                return JointHistogram._from_bins(*header, _csv_bins(rows))
    except UnicodeDecodeError:
        raise HistogramFormatError(f"{path}: not a UTF-8 text file") from None
    except HistogramFormatError as exc:
        raise HistogramFormatError(f"{path}: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def write_density_csv(density: Density1D, stream: IO[str]) -> None:
    """Emit ``bin_center,density`` rows for a 1D density."""
    stream.write("bin_center,density\n")
    for center, value in zip(density.centers.tolist(), density.values.tolist()):
        stream.write(f"{center!r},{value!r}\n")
