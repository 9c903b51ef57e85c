"""The artifact CSV format, pinned byte for byte against a row-by-row writer."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from miotcore.csvio import _CHUNK_ROWS, write_csv

FLOATS = [0.1 + 0.2, -0.0, 1e-05, 1e16, 5e-324, float("nan"), float("inf")]


def reference_bytes(path, header, *columns):
    """csv.writer fed one row at a time, each number through repr(float(x))
    or int(x): the way every artifact writer formatted its cells."""

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return int(value)
        return repr(float(value))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([cell(v) for v in row])
    return path.read_bytes()


def test_special_floats_ids_and_blank_cells(tmp_path):
    n = len(FLOATS)
    header = ["id", "value", "scalar", "maybe"]
    columns = (
        np.arange(n, dtype=np.int64) * 10**12,
        np.array(FLOATS),
        list(np.array(FLOATS)),  # numpy float64 scalars
        ["" if i % 2 else v for i, v in enumerate(FLOATS)],
    )
    write_csv(tmp_path / "got.csv", header, *columns)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == reference_bytes(tmp_path / "want.csv", header, *columns)
    assert got.splitlines(keepends=True)[:3] == [
        b"id,value,scalar,maybe\r\n",
        b"0,0.30000000000000004,0.30000000000000004,0.30000000000000004\r\n",
        b"1000000000000,-0.0,-0.0,\r\n",
    ]
    assert got.endswith(b"6000000000000,inf,inf,inf\r\n")


def test_rows_past_one_chunk(tmp_path):
    n = 2 * _CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    header = ["request_id", "arrival_s", "delay_s"]
    columns = (np.arange(n, dtype=np.int64),
               np.cumsum(rng.exponential(1e-3, n)),
               rng.exponential(1e-2, n))
    write_csv(tmp_path / "got.csv", header, *columns)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == reference_bytes(tmp_path / "want.csv", header, *columns)
    assert got.count(b"\r\n") == n + 1


def test_header_only_and_misaligned_columns(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["tau_s", "cdf_value"], np.array([]), [])
    assert path.read_bytes() == b"tau_s,cdf_value\r\n"
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, ["tau_s", "cdf_value"], [0.0, 0.5], np.array([0.0]))
    assert not path.exists()


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], ([1.0, 2.0], ["x", "y,z"])),
    (["a", "b"], ([1.0, 2.0], ['say "hi"', ""])),
    (["a", "b"], (np.array([1.0]), ["line\nbreak"])),
    (["a", "b"], (np.array([1.0]), ["carriage\rreturn"])),
    (["a,b", "c"], ([1.0], [2.0])),
    (["note"], (["ok", ""],)),
    ([""], ([1.0],)),
], ids=["comma", "quote", "lf", "cr", "header-comma", "lone-blank", "lone-blank-header"])
def test_cells_csv_writer_would_quote_are_refused(tmp_path, header, columns):
    # a bare template would split the row or, for a one-column blank,
    # write an empty line that readers drop
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="quoting"):
        write_csv(path, header, *columns)
    assert not path.exists()


_INT64 = np.iinfo(np.int64)
_FLOAT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, float("nan"), float("inf"),
                     float("-inf"), 1e16, 1e-05, 0.1 + 0.2]))
_INT_VALUES = st.one_of(st.integers(int(_INT64.min), int(_INT64.max)),
                        st.sampled_from([int(_INT64.min), int(_INT64.max), 0, -1]))


@st.composite
def _column(draw, n_rows, blanks):
    """One column of n_rows cells, tiled from a few drawn values, in one of
    the forms the artifact writers pass."""
    kind = draw(st.sampled_from(
        ["float array", "int array", "float scalars", "int scalars", "floats", "ints"]
        + (["blanks"] if blanks else [])))
    if kind in ("int array", "int scalars", "ints"):
        values = np.array(draw(st.lists(_INT_VALUES, min_size=1, max_size=8)), dtype=np.int64)
    else:
        values = np.array(draw(st.lists(_FLOAT_VALUES, min_size=1, max_size=8)))
    column = np.resize(values, n_rows)
    if kind.endswith("array"):
        return column
    if kind.endswith("scalars"):
        return list(column)  # numpy float64 and int64 scalars
    if kind == "blanks":
        return ["" if i % 3 == 1 else v for i, v in enumerate(column.tolist())]
    return column.tolist()


@given(data=st.data(),
       n_rows=st.sampled_from([0, 1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                               _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]),
       n_cols=st.integers(1, 4))
def test_write_csv_equals_the_row_by_row_writer(tmp_path_factory, data, n_rows, n_cols):
    columns = [data.draw(_column(n_rows, blanks=n_cols > 1)) for _ in range(n_cols)]
    header = [f"c{i}" for i in range(n_cols)]
    tmp = tmp_path_factory.mktemp("csv")
    write_csv(tmp / "got.csv", header, *columns)
    assert (tmp / "got.csv").read_bytes() == reference_bytes(tmp / "want.csv", header, *columns)


def test_delays_sized_write_traced_peak_is_bounded(tmp_path):
    # io_scale's delays.csv: 190k rows of an id and three floats.  1024-row
    # chunks peak at 0.26 MiB traced, 2048-row ones at 0.48 MiB and
    # 4096-row ones at 0.93 MiB; csv.writer fed 4096-row chunks at 0.69 MiB.
    n = 190_000
    rng = np.random.default_rng(1)
    arrivals = np.cumsum(rng.exponential(1e-3, n))
    delays = rng.exponential(1e-2, n)
    columns = (np.arange(n), arrivals, arrivals + delays, delays)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        write_csv(tmp_path / "delays.csv",
                  ["request_id", "arrival_s", "completion_s", "delay_s"], *columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 0.4 * 2**20
