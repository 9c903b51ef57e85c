"""The CSV format of every artifact the package writes.

A cell's text follows its type: a float is its shortest round-trip text
(``repr``), an int is an int and a str is written unchanged.  Rows end
in CRLF, as ``csv.writer`` ends them by default.
"""

import csv

import numpy as np

# rows turned into Python objects at a time: a whole 190k-row delay
# column as a list of floats would raise a command's peak memory by ~10 MiB
_CHUNK_ROWS = 4096


def write_csv(path, header, *columns):
    """Write a header row, then row i of the columns for every index i.

    A column is a numpy array of a float or int dtype, or a sequence of
    floats, ints and strs (numpy float64 and integer scalars included).
    Raises ValueError, before the file is opened, when the columns differ
    in length.
    """
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, n_rows, _CHUNK_ROWS):
            chunks = (col[lo:lo + _CHUNK_ROWS] for col in columns)
            writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                   for c in chunks)))
