"""The CSV format of every artifact the package writes.

A cell's text follows its type: a float is its shortest round-trip text
(``repr``), an int is an int and a str is written unchanged.  Rows end
in CRLF.  These are the bytes ``csv.writer`` writes for such cells, but
every row goes through one ``%s`` template, which never quotes: a str
cell that ``csv.writer`` would quote -- one holding a comma, a double
quote, CR or LF, or an empty str as the only cell of its row -- is
refused, so no artifact can lose or split a row.
"""

import re

import numpy as np

# rows turned into Python objects at a time: 1024 rows of a 4-column file
# hold about 0.25 MiB of numbers traced, and 4096 rows about 0.9 MiB, which
# raised a 190k-row delay file's share of a command's peak RSS
_CHUNK_ROWS = 1024

_QUOTED = re.compile('[,"\r\n]')


def _check_cells(cells, n_cols, what):
    for value in cells:
        if isinstance(value, str) and (_QUOTED.search(value) or (n_cols == 1 and not value)):
            raise ValueError(f"{what} cell {value!r} would need CSV quoting")


def write_csv(path, header, *columns):
    """Write a header row, then row i of the columns for every index i.

    A column is a numpy array of a float or int dtype, a range, or a
    sequence of floats, ints and strs (numpy float64 and integer scalars
    included).
    Raises ValueError, before the file is opened, when the columns differ
    in length or when a header or str cell would need quoting (see the
    module docstring).
    """
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    _check_cells(header, len(header), "header")
    for col in columns:
        if isinstance(col, range):
            continue  # ints only
        if not isinstance(col, np.ndarray) or col.dtype.kind not in "biuf":
            _check_cells(col, len(columns), "column")
    line = ",".join(["%s"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, _CHUNK_ROWS):
            chunks = (col[lo:lo + _CHUNK_ROWS] for col in columns)
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunks))
            fh.writelines(map(line.__mod__, rows))
