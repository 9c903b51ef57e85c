"""Trace ingestion: CSV parsing, windowed exponential fits, rate replay."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miotcore import trace
from miotcore.arrivals import KS_MIN_SAMPLES, ks_critical_value
from miotcore.errors import ConfigurationError, TraceFormatError
from miotcore.trace import (
    TraceWindow,
    _duplicate_count,
    make_diurnal_trace,
    parse_trace,
    replay_rate_series,
    save_window_report,
    window_and_fit,
)
from miotcore.traffic import EventStream


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_trace_sorted_with_ids(tmp_path):
    path = write(tmp_path, "timestamp_s,source_id\n3.5,2\n1.25,7\n2.0,1\n")
    stream, report = parse_trace(path)
    assert np.array_equal(stream.timestamps, [1.25, 2.0, 3.5])
    assert np.array_equal(stream.source_ids, [7, 1, 2])
    assert (report.n_rows, report.n_valid, report.n_malformed,
            report.n_duplicate_timestamps) == (3, 3, 0, 0)
    assert "valid=3" in report.text()


@pytest.mark.parametrize("malformed", [False, True])
def test_parse_trace_of_shuffled_rows_equals_the_sorted_trace(tmp_path, malformed):
    # rows in order are not re-sorted, rows out of order are, and both
    # give the same stream and report; tied timestamps, which carry
    # different source ids, keep their file order either way.  A malformed
    # row sends both files through the row-by-row reader instead.
    rng = np.random.default_rng(21)
    times = np.sort(np.round(rng.uniform(0.0, 50.0, 400), 1))  # many ties
    ids = rng.permutation(400)
    assert _duplicate_count(times) > 50
    perm = rng.permutation(400)
    for t in np.unique(times[1:][times[1:] == times[:-1]]):
        tied = np.flatnonzero(times[perm] == t)
        perm[tied] = np.sort(perm[tied])
    assert not np.all(np.diff(times[perm]) >= 0.0)
    tail = ["oops,3"] if malformed else []
    parsed = []
    for name, order in (("sorted.csv", np.arange(400)), ("shuffled.csv", perm)):
        rows = [f"{float(times[i])!r},{int(ids[i])}" for i in order]
        path = write(tmp_path, "\n".join(["timestamp_s,source_id"] + rows + tail) + "\n", name)
        parsed.append(parse_trace(path))
    (ordered, ordered_report), (shuffled, shuffled_report) = parsed
    assert ordered.timestamps.tobytes() == shuffled.timestamps.tobytes() == times.tobytes()
    assert ordered.source_ids.tobytes() == shuffled.source_ids.tobytes() == ids.tobytes()
    assert ordered_report == shuffled_report
    assert ordered_report.n_malformed == int(malformed)
    assert ordered_report.n_duplicate_timestamps == _duplicate_count(times)


def test_parse_trace_counts_malformed_and_duplicates(tmp_path):
    path = write(tmp_path, "\n".join([
        "timestamp_s,source_id",
        "1.0,3",
        "oops,1",        # non-numeric timestamp
        "-2.0,1",        # negative timestamp
        "inf,1",         # non-finite timestamp
        "2.0,1.5",       # non-integer source id
        "3.0",           # wrong field count
        "1.0,9",         # duplicate timestamp: kept
        "",              # blank line: ignored entirely
        "4.0,0",
    ]) + "\n")
    stream, report = parse_trace(path)
    assert np.array_equal(stream.timestamps, [1.0, 1.0, 4.0])
    # ties keep file order (stable sort)
    assert np.array_equal(stream.source_ids, [3, 9, 0])
    assert report.n_rows == 8
    assert report.n_valid == 3
    assert report.n_malformed == 5
    assert report.n_duplicate_timestamps == 1


def test_parse_trace_errors(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read"):
        parse_trace(tmp_path / "missing.csv")
    with pytest.raises(TraceFormatError, match="empty"):
        parse_trace(write(tmp_path, "", name="empty.csv"))
    with pytest.raises(TraceFormatError, match="header"):
        parse_trace(write(tmp_path, "time,id\n1.0,2\n", name="hdr.csv"))
    with pytest.raises(TraceFormatError, match="no valid rows"):
        parse_trace(write(tmp_path, "timestamp_s\nnope\n", name="bad.csv"))


def test_parse_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(8)
    stream = EventStream(np.sort(rng.uniform(0.0, 100.0, size=500)),
                         rng.integers(0, 50, size=500))
    path = tmp_path / "events.csv"
    stream.save_csv(path)
    again, report = parse_trace(path)
    assert np.array_equal(again.timestamps, stream.timestamps)
    assert np.array_equal(again.source_ids, stream.source_ids)
    assert report.n_malformed == 0


def test_parse_trace_rejects_source_ids_outside_int64(tmp_path):
    ids = [-2**63, 2**63 - 1, 2**63, -2**63 - 1, 99999999999999999999]
    path = write(tmp_path, "timestamp_s,source_id\n" + "".join(
        f"{k}.5,{sid}\n" for k, sid in enumerate(ids)))
    stream, report = parse_trace(path)
    assert stream.source_ids.tolist() == ids[:2]
    assert (report.n_rows, report.n_valid, report.n_malformed) == (5, 2, 3)


# Field texts by what the bulk read does with them: reads them as the row
# loop does, reads them but must then refuse the value, or cannot read them.
_TIMESTAMPS = {
    "clean": ("0", "0.0", "1.5", "2.25", "1e-3", "7", " 3.5 ", "+4", "-0.0", "1e2"),
    "refused": ("nan", "inf", "-inf", "-1", "1e400"),
    "unreadable": ("1_000", "\u0661\u0662", '"2.0"', "#1.0", "", "abc"),
}
_IDS = {
    "clean": ("3", "0", "-5", "+3", " 7 ", "007", str(2**63 - 1), str(-2**63)),
    "unreadable": ("3.0", "1_000", "\u0663", str(2**63), str(-2**63 - 1), '"4"', "", "x"),
}


@st.composite
def _trace_text(draw):
    with_ids = draw(st.booleans())
    n_fields = 2 if with_ids else 1
    # clean files are read in bulk; files with refused timestamps are read
    # in bulk and then re-read; dirty ones hold anything the row loop meets
    mode = draw(st.sampled_from(["clean", "refused", "dirty"]))
    stamps = _TIMESTAMPS["clean"]
    ids = _IDS["clean"]
    kinds = ["row", "row", "row", "blank"]
    if mode != "clean":
        stamps += _TIMESTAMPS["refused"]
    if mode == "dirty":
        stamps += _TIMESTAMPS["unreadable"]
        ids += _IDS["unreadable"]
        kinds += ["spaces", "comment", "fields"]
    lines = [draw(st.sampled_from(
        ["timestamp_s,source_id", " timestamp_s , source_id"] if with_ids
        else ["timestamp_s", "timestamp_s "]))]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "row":
            fields = [draw(st.sampled_from(stamps))]
            if with_ids:
                fields.append(draw(st.sampled_from(ids)))
            lines.append(",".join(fields))
        elif kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t "])))
        elif kind == "comment":
            lines.append("# " + draw(st.sampled_from(stamps)))
        else:  # a field too many or too few
            lines.append(",".join(draw(st.sampled_from(stamps))
                                  for _ in range(draw(st.sampled_from(
                                      [n_fields - 1, n_fields + 1])))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _parse_outcome(path):
    try:
        stream, report = parse_trace(path)
    except TraceFormatError as exc:
        return str(exc)
    ids = None if stream.source_ids is None else stream.source_ids.tobytes()
    return stream.timestamps.tobytes(), ids, report


@settings(max_examples=300)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.5, 1e300]),
                                 st.floats(0.0, 1e6)), max_size=60))
def test_duplicate_count_is_the_np_unique_count(values):
    # parse_trace counts duplicates on the sorted times by comparing
    # neighbours, where np.unique would import numpy.ma; -0.0 == 0.0 in both
    times = np.sort(np.array(values, dtype=float), kind="stable")
    assert _duplicate_count(times) == times.size - np.unique(times).size


def test_parse_trace_counts_signed_zeros_as_one_timestamp(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("timestamp_s\n0.0\n-0.0\n1.5\n0.0\n1.5\n")
    _, report = parse_trace(path)
    assert (report.n_valid, report.n_duplicate_timestamps) == (5, 3)


@settings(max_examples=300)
@given(text=_trace_text())
def test_bulk_parse_and_row_loop_agree(tmp_path_factory, text):
    # the bulk read may hand a file to the row loop, but never decide it
    # differently: timestamps bit for bit, ids and every report count
    path = tmp_path_factory.mktemp("fuzz") / "trace.csv"
    path.write_bytes(text.encode())
    outcome = _parse_outcome(path)
    with mock.patch.object(trace, "_parse_bulk", return_value=None):
        assert _parse_outcome(path) == outcome


@pytest.mark.parametrize("with_ids", [True, False])
def test_clean_trace_never_reaches_the_row_loop(tmp_path, with_ids):
    rng = np.random.default_rng(5)
    stream = EventStream(np.sort(rng.uniform(0.0, 50.0, size=300)),
                         rng.integers(0, 40, size=300) if with_ids else None)
    path = tmp_path / "clean.csv"
    stream.save_csv(path)
    with mock.patch.object(trace, "_parse_rows", side_effect=AssertionError("row loop")):
        again, report = parse_trace(path)
    assert np.array_equal(again.timestamps, stream.timestamps)
    if with_ids:
        assert np.array_equal(again.source_ids, stream.source_ids)
    else:
        assert again.source_ids is None
    assert (report.n_rows, report.n_valid, report.n_malformed) == (300, 300, 0)


def test_trace_without_data_rows_is_refused_without_a_warning(tmp_path, recwarn):
    # np.loadtxt warns on a file with no data rows; that file is the row
    # loop's to refuse
    with pytest.raises(TraceFormatError, match="no valid rows"):
        parse_trace(write(tmp_path, "timestamp_s,source_id\n\n"))
    assert not recwarn.list


def test_trace_window_validation():
    with pytest.raises(ValueError):
        TraceWindow(1.0, 1.0, np.array([]), None, None)
    with pytest.raises(ValueError):
        TraceWindow(0.0, 1.0, np.array([1.0]), None, None)  # t >= end
    with pytest.raises(ValueError):
        TraceWindow(0.0, 1.0, np.array([0.1, 0.2]), -1.0, 0.1)


def test_window_and_fit_exact_rate_on_lattice():
    # gaps of exactly 0.125 s: the ML rate is exactly 8/s in every window
    ts = np.arange(512) * 0.125
    windows = window_and_fit(EventStream(ts), 16.0)
    assert len(windows) == 4
    assert [w.n_events for w in windows] == [128, 128, 128, 128]
    assert sum(w.n_events for w in windows) == len(ts)
    for w in windows:
        assert w.rate_hat == 8.0
        # deterministic gaps are nothing like exponential
        assert w.ks_pass is False
        assert w.ks_statistic > ks_critical_value(w.n_events - 1)
    assert windows[0].start_s == 0.0 and windows[0].end_s == 16.0
    assert windows[-1].start_s == 48.0


def test_window_and_fit_poisson_recovers_rate():
    rng = np.random.default_rng(42)
    rate = 5.0
    ts = np.cumsum(rng.exponential(1.0 / rate, size=18_000))
    windows = window_and_fit(EventStream(ts), 3600.0)
    fitted = windows[0]
    assert fitted.rate_hat == pytest.approx(rate, rel=0.02)
    assert fitted.ks_statistic <= ks_critical_value(fitted.n_events - 1)
    assert fitted.ks_pass is True


def test_window_and_fit_flags_and_gaps():
    # events only in windows 0 and 2; the empty middle window is kept
    ts = np.array([0.5, 1.0, 1.5, 25.1, 25.2])
    windows = window_and_fit(EventStream(ts), 10.0)
    assert len(windows) == 3
    assert [w.n_events for w in windows] == [3, 0, 2]
    assert windows[1].rate_hat is None and windows[1].ks_statistic is None
    assert all(w.ks_pass is None for w in windows)  # all below 50 events
    assert windows[2].rate_hat == pytest.approx(1.0 / 0.1, rel=1e-9)
    with pytest.raises(ValueError):
        window_and_fit(EventStream(ts), 0.0)
    assert window_and_fit(EventStream(np.array([])), 10.0) == []


def test_window_and_fit_refuses_more_than_max_windows(monkeypatch):
    monkeypatch.setattr(trace, "MAX_WINDOWS", 4)
    assert len(window_and_fit(EventStream(np.array([0.5, 3.5])), 1.0)) == 4
    with pytest.raises(ConfigurationError, match="more than 4 windows"):
        window_and_fit(EventStream(np.array([0.5, 4.5])), 1.0)
    # 1e308 s in 1 ms windows: the count itself overflows to inf
    with pytest.raises(ConfigurationError):
        window_and_fit(EventStream(np.array([1.0, 1e308])), 1e-3)


def test_rate_fit_is_exactly_scale_equivariant():
    # doubling every timestamp (an exact binary operation) halves each
    # fitted rate bit-for-bit and leaves the KS statistic untouched
    rng = np.random.default_rng(9)
    ts = np.cumsum(rng.exponential(0.2, size=4000))
    base = window_and_fit(EventStream(ts), 100.0)
    scaled = window_and_fit(EventStream(2.0 * ts), 200.0)
    assert len(base) == len(scaled)
    for a, b in zip(base, scaled):
        assert a.n_events == b.n_events
        if a.rate_hat is None:
            assert b.rate_hat is None
            continue
        assert b.rate_hat == a.rate_hat / 2.0  # exact, not approx
        assert b.ks_statistic == a.ks_statistic


def test_replay_rate_series_orders_and_skips():
    w = [
        TraceWindow(10.0, 20.0, np.array([11.0, 12.0]), 1.0, 0.5),
        TraceWindow(0.0, 10.0, np.array([1.0, 3.0]), 0.5, 0.5),
        TraceWindow(20.0, 30.0, np.array([]), None, None),
    ]
    series = replay_rate_series(w)
    assert series == [(0.0, 0.5), (10.0, 1.0)]
    with pytest.raises(ValueError):
        replay_rate_series([])


def test_save_window_report_columns(tmp_path):
    rng = np.random.default_rng(4)
    ts = np.cumsum(rng.exponential(0.01, size=400))  # ~100/s, ~4s of data
    windows = window_and_fit(EventStream(ts), 1.0)
    path = tmp_path / "windows.csv"
    save_window_report(path, windows)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_start_s,n_events,lambda_hat,ks_stat,ks_pass_1pct"
    assert len(lines) == 1 + len(windows)
    first = lines[1].split(",")
    assert float(first[0]) == windows[0].start_s
    assert int(first[1]) == windows[0].n_events
    assert first[4] in ("0", "1")  # confident window gets a verdict
    # a low-confidence window leaves the verdict blank
    tiny = window_and_fit(EventStream(np.array([0.1, 0.2, 0.3])), 1.0)
    save_window_report(path, tiny)
    assert path.read_text().splitlines()[1].endswith(",")


def test_ks_verdict_needs_min_samples_gaps(tmp_path):
    # 50 events are 49 gaps: flagged, no verdict; 51 events get one
    rng = np.random.default_rng(8)
    ts = np.concatenate([np.sort(rng.uniform(0.0, 10.0, KS_MIN_SAMPLES)),
                         np.sort(rng.uniform(10.0, 20.0, KS_MIN_SAMPLES + 1))])
    windows = window_and_fit(EventStream(ts), 10.0)
    assert [w.n_events for w in windows] == [KS_MIN_SAMPLES, KS_MIN_SAMPLES + 1]
    assert windows[0].ks_pass is None and windows[1].ks_pass is not None
    path = tmp_path / "windows.csv"
    save_window_report(path, windows)
    rows = path.read_text().splitlines()[1:]
    assert rows[0].endswith(",")
    assert rows[1].split(",")[4] in ("0", "1")


def test_make_diurnal_trace_follows_shape():
    shape = (0.5, 1.0, 2.0)
    stream = make_diurnal_trace(10.0, shape=shape, window_length_s=500.0, seed=3)
    windows = window_and_fit(stream, 500.0)
    assert len(windows) == 3
    rates = [w.rate_hat for w in windows]
    assert rates[0] == pytest.approx(5.0, rel=0.1)
    assert rates[1] == pytest.approx(10.0, rel=0.1)
    assert rates[2] == pytest.approx(20.0, rel=0.1)
    again = make_diurnal_trace(10.0, shape=shape, window_length_s=500.0, seed=3)
    assert np.array_equal(stream.timestamps, again.timestamps)
    with pytest.raises(ValueError):
        make_diurnal_trace(0.0)
    with pytest.raises(ValueError):
        make_diurnal_trace(10.0, shape=())


def test_make_diurnal_trace_refuses_bad_shape_entries():
    # such an entry used to drop its window with no error: (1, -1, nan, 1)
    # over 10 s windows gave rows in two windows
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="shape entries must be non-negative and finite"):
            make_diurnal_trace(100.0, shape=(1.0, bad, 1.0), window_length_s=10.0)
    # so are a base rate and a window length that are not positive and
    # finite, which used to fail in the draw with OverflowError, "math
    # domain error" or "cannot convert float NaN to integer"
    for rate in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="base_rate_per_s must be positive and finite"):
            make_diurnal_trace(rate, shape=(1.0,), window_length_s=10.0)
    for length in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="window_length_s must be positive and finite"):
            make_diurnal_trace(100.0, shape=(1.0,), window_length_s=length)
    # a zero entry is a quiet window
    stream = make_diurnal_trace(100.0, shape=(1.0, 0.0, 1.0), window_length_s=10.0, seed=1)
    counts = np.histogram(stream.timestamps, bins=[0.0, 10.0, 20.0, 30.0])[0]
    assert counts[0] > 0 and counts[1] == 0 and counts[2] > 0
