"""Event-log ingestion: parse request traces, window them, fit exponential gaps.

A trace is a CSV of request timestamps (header ``timestamp_s`` with an
optional ``source_id`` column).  The pipeline turns it into a sorted
EventStream, partitions time into fixed-length windows, fits an
exponential inter-arrival model per window by maximum likelihood
(lambda_hat = (n-1) / sum of within-window gaps), scores each fit with the
Kolmogorov-Smirnov statistic, and exports an ordered rate series that the
capacity-scaling loop can replay.
"""

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arrivals import exponential_cdf, ks_distance, ks_verdict
from .csvio import write_csv
from .errors import ConfigurationError, TraceFormatError
from .traffic import EventStream, poisson_arrivals

DIURNAL_SHAPE_DEFAULT = (0.2, 0.35, 0.6, 1.0, 1.5, 2.0, 1.7, 1.2)

# the known header lines, mapped to whether rows carry a source id
_HEADERS = {("timestamp_s",): False, ("timestamp_s", "source_id"): True}
# source ids are stored as int64
_ID_MIN, _ID_MAX = -2**63, 2**63 - 1
# every window of a span becomes a TraceWindow, so a tiny window length
# over a long trace is refused rather than left to exhaust memory
MAX_WINDOWS = 100_000


@dataclass(frozen=True)
class TraceParseReport:
    """Row accounting for one parsed trace file."""

    n_rows: int
    n_valid: int
    n_malformed: int
    n_duplicate_timestamps: int

    def text(self):
        return (
            f"rows={self.n_rows} valid={self.n_valid} "
            f"malformed_rejected={self.n_malformed} "
            f"duplicate_timestamps_kept={self.n_duplicate_timestamps}"
        )


@dataclass(frozen=True)
class TraceWindow:
    """One fixed-length time window with its exponential gap fit.

    ``rate_hat`` is the maximum-likelihood exponential rate fitted to the
    inter-arrival gaps inside the window (None below 2 events),
    ``ks_statistic`` the KS distance of those gaps against Exp(rate_hat)
    (None below 3 events, where the distance is meaningless).
    ``ks_pass`` is the statistic's KS verdict, None below KS_MIN_SAMPLES
    gaps, where the window is low-confidence.
    """

    start_s: float
    end_s: float
    timestamps: np.ndarray
    rate_hat: Optional[float]
    ks_statistic: Optional[float]

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ValueError("window start must precede its end")
        ts = np.asarray(self.timestamps, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        if ts.size and (ts.min() < self.start_s or ts.max() >= self.end_s):
            raise ValueError("window timestamps must lie in [start_s, end_s)")
        if ts.size >= 2 and self.rate_hat is not None and not self.rate_hat > 0.0:
            raise ValueError("fitted rate must be positive")

    @property
    def n_events(self):
        return int(self.timestamps.size)

    @property
    def ks_pass(self):
        """arrivals.ks_verdict of the window's gaps; None without a statistic."""
        return None if self.ks_statistic is None else ks_verdict(
            self.ks_statistic, self.n_events - 1)


def parse_trace(path):
    """Read a request-trace CSV into a sorted EventStream.

    The file must start with a header line ``timestamp_s`` or
    ``timestamp_s,source_id``.  Rows out of order are allowed (output is
    sorted, stable on ties).  Malformed rows (wrong field count,
    non-numeric or negative or non-finite timestamps, source ids that are
    not integers in the int64 range) are rejected and counted; duplicate
    timestamps are kept and counted.  Returns ``(stream, report)``.

    A clean file is read by one ``np.loadtxt`` call.  Where that call
    raises, or yields a negative or non-finite timestamp, the file is read
    again row by row with :mod:`csv`, which decides and counts every row,
    so both reads give the same stream and report.

    Raises TraceFormatError if the file is unreadable, the header is
    unknown, or no valid rows remain.
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path!r}: {exc}") from exc
    with fh:
        parsed = _parse_bulk(fh)
        if parsed is None:
            fh.seek(0)
            parsed = _parse_rows(fh, path)
    times, ids, n_rows, n_malformed = parsed
    if not times.size:
        raise TraceFormatError(f"trace {path!r} contains no valid rows")
    # a stable sort of rows already in order would leave them as they are
    if np.any(times[1:] < times[:-1]):
        order = np.argsort(times, kind="stable")
        times = times[order]
        ids = None if ids is None else ids[order]
    n_dup = _duplicate_count(times)
    stream = EventStream(times, ids)
    report = TraceParseReport(
        n_rows=n_rows,
        n_valid=int(times.size),
        n_malformed=n_malformed,
        n_duplicate_timestamps=n_dup,
    )
    return stream, report


def _duplicate_count(sorted_times):
    """Values equal to their predecessor in a sorted array, the count
    ``size - np.unique(...).size`` gives for finite values (-0.0 == 0.0)
    without the ``numpy.ma`` import ``np.unique`` makes."""
    return int(np.count_nonzero(sorted_times[1:] == sorted_times[:-1]))


def _parse_bulk(fh):
    """``(times, ids, n_rows, 0)`` of a clean trace, else None.

    A header line with a quote, which the csv module may read across
    lines, is left to the row loop, and so is any file ``np.loadtxt``
    cannot read whole: a malformed field, a field-count mismatch, a row
    of blanks or no data rows.  Its empty-line skipping matches the row
    loop's, and its number parsers accept a subset of ``float`` and
    ``int`` with the same values.
    """
    line = fh.readline()
    if '"' in line:
        return None
    with_ids = _HEADERS.get(tuple(h.strip() for h in line.split(",")))
    if with_ids is None:
        return None
    dtype = [("t", "f8"), ("id", "i8")] if with_ids else [("t", "f8")]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    times = rows["t"]
    if not (np.isfinite(times).all() and (times >= 0.0).all()):
        return None
    return times, rows["id"] if with_ids else None, rows.size, 0


def _parse_rows(fh, path):
    """``(times, ids, n_rows, n_malformed)`` of any trace, one row at a time."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError(f"trace {path!r} is empty") from None
    header = [h.strip() for h in header]
    with_ids = _HEADERS.get(tuple(header))
    if with_ids is None:
        raise TraceFormatError(
            f"trace {path!r}: header must be 'timestamp_s[,source_id]', "
            f"got {','.join(header)!r}"
        )
    times = []
    ids = []
    n_rows = 0
    n_malformed = 0
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        n_rows += 1
        if len(row) != len(header):
            n_malformed += 1
            continue
        try:
            t = float(row[0])
        except ValueError:
            n_malformed += 1
            continue
        if not math.isfinite(t) or t < 0.0:
            n_malformed += 1
            continue
        if with_ids:
            try:
                sid = int(row[1])
            except ValueError:
                n_malformed += 1
                continue
            if not _ID_MIN <= sid <= _ID_MAX:
                n_malformed += 1
                continue
            ids.append(sid)
        times.append(t)
    return (np.asarray(times, dtype=float),
            np.asarray(ids, dtype=np.int64) if with_ids else None,
            n_rows, n_malformed)


def _fit_window(start, end, ts):
    rate = None
    ks = None
    if ts.size >= 2:
        gaps = np.diff(ts)
        total = float(gaps.sum())
        if total > 0.0:
            rate = (ts.size - 1) / total
            if gaps.size >= 2:
                ks = ks_distance(gaps, lambda x: exponential_cdf(rate, x))
    return TraceWindow(
        start_s=float(start),
        end_s=float(end),
        timestamps=ts,
        rate_hat=rate,
        ks_statistic=ks,
    )


def window_and_fit(stream, window_length_s):
    """Partition a stream into fixed windows and fit Exp gaps per window.

    Windows are [k*L, (k+1)*L) for the integer range covering the stream,
    so per-window event counts sum to the stream length.  Per window the
    exponential rate is fitted by maximum likelihood on the within-window
    gaps (no cross-window gap) and scored with the KS statistic and its
    verdict.  A span of more than MAX_WINDOWS windows raises
    ConfigurationError before any is built.
    """
    if not 0.0 < window_length_s < math.inf:
        raise ValueError(
            f"window_length_s must be positive and finite, got {window_length_s!r}")
    ts = np.asarray(stream.timestamps, dtype=float)
    if ts.size == 0:
        return []
    length = float(window_length_s)
    first = float(ts[0]) / length
    last = float(ts[-1]) / length
    if not math.isfinite(last) or math.floor(last) - math.floor(first) >= MAX_WINDOWS:
        raise ConfigurationError(
            f"window length {length!r} s splits the trace span "
            f"[{float(ts[0])!r}, {float(ts[-1])!r}] s into more than {MAX_WINDOWS} windows"
        )
    k0 = math.floor(first)
    k1 = math.floor(last)
    windows = []
    for k in range(k0, k1 + 1):
        start = k * length
        end = (k + 1) * length
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side="left")
        windows.append(_fit_window(start, end, ts[lo:hi]))
    return windows


def replay_rate_series(windows):
    """Ordered (window_start_s, rate_hat) pairs for the scaling loop.

    Windows without a fitted rate (fewer than 2 events) are skipped.
    """
    if not windows:
        raise ValueError("need at least one window")
    series = []
    for w in sorted(windows, key=lambda w: w.start_s):
        if w.rate_hat is not None:
            series.append((w.start_s, w.rate_hat))
    return series


def save_window_report(path, windows):
    """Write the per-window fit report CSV.

    Columns: window_start_s, n_events, lambda_hat, ks_stat, ks_pass_1pct.
    The pass column is empty for windows without a KS verdict (the
    asymptotic critical value is not trustworthy there).
    """
    write_csv(path, ["window_start_s", "n_events", "lambda_hat", "ks_stat", "ks_pass_1pct"],
              [win.start_s for win in windows],
              [win.n_events for win in windows],
              ["" if win.rate_hat is None else win.rate_hat for win in windows],
              ["" if win.ks_statistic is None else win.ks_statistic for win in windows],
              ["" if win.ks_pass is None else int(win.ks_pass) for win in windows])


def make_diurnal_trace(base_rate_per_s, shape=DIURNAL_SHAPE_DEFAULT,
                       window_length_s=3600.0, seed=0):
    """Generate a synthetic piecewise-constant-rate Poisson trace.

    ``shape`` gives one relative rate per window; window k has Poisson
    arrivals at base_rate_per_s * shape[k] over [k*L, (k+1)*L).  The
    default 8-window shape ramps up through the morning and eases off, the
    texture of an urban sensor log.  A zero entry leaves its window empty.
    Deterministic for a fixed seed.
    """
    if not 0.0 < base_rate_per_s < math.inf:
        raise ValueError(f"base_rate_per_s must be positive and finite, got {base_rate_per_s!r}")
    length = float(window_length_s)
    if not 0.0 < length < math.inf:
        raise ValueError(f"window_length_s must be positive and finite, got {length!r}")
    if not shape:
        raise ValueError("shape must be non-empty")
    if not all(0.0 <= float(rel) < math.inf for rel in shape):
        raise ValueError(f"shape entries must be non-negative and finite, got {shape!r}")
    rng = np.random.default_rng(seed)
    times = [poisson_arrivals(base_rate_per_s * float(rel), k * length,
                              (k + 1) * length, rng)
             for k, rel in enumerate(shape) if rel > 0.0]
    return EventStream(np.concatenate(times) if times else np.empty(0), None)
