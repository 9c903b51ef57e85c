"""The artifact CSV format, pinned byte for byte against a row-by-row writer."""

import csv

import numpy as np
import pytest

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
