"""Point file formats: CSV (one point per row) and the TEPT binary layout.

TEPT layout: 16-byte header = magic b"TEPT", u32 n, u32 d, u32 reserved(0),
all little-endian, followed by n*d IEEE-754 doubles, row-major, little-endian.
The payload moves without intermediate copies: read_points_bin checks the
file's length against the header, then reads the payload into the (n, d)
array it returns, and write_points_bin writes from the array's buffer. The
reader only converts; the point checks (shape, finiteness, MAX_NORM,
duplicates) are geometry.PointSet's, whose duplicate check is a screened
scan (see there).
CSV floats are written with Python's shortest round-trip repr, so a
write/read cycle is bit-exact in both formats.

A CSV file is read by np.loadtxt, numpy's C parser. Its fields go through
CPython's correctly rounded string-to-double routine, the one float() uses,
so every file it reads gives the array float() would. The line parser
(_read_csv_lines) defines what is accepted and how a bad file is reported
(a FormatError naming path:line). np.loadtxt rejects some inputs the line
parser accepts (whitespace-only lines, a 1_0 token) and names errors by row
and column, so any file it rejects or finds no rows in is read again by the
line parser, which returns its array or raises its FormatError.
"""
from __future__ import annotations

import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"TEPT"
_HEADER = struct.Struct("<4sIII")


def write_points_bin(path, arr: np.ndarray) -> None:
    """Write an (n, d) array as TEPT. The payload goes out from the array's
    own buffer; only an array that is not C-contiguous little-endian float64
    is converted first."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.ndim != 2:
        raise FormatError(f"expected an (n, d) array, got ndim={arr.ndim}")
    n, d = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, d, 0))
        fh.write(arr)


def read_points_bin(path) -> np.ndarray:
    """The (n, d) float64 array of a TEPT file. A regular file of the length
    its header gives is read straight into the array; any other (a pipe, or
    a file of the wrong length, which is a FormatError) is read whole first,
    so a corrupt header never sizes an allocation."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, n, d, _reserved = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
        expected = _HEADER.size + 8 * n * d
        arr, got = None, 0
        if os.fstat(fh.fileno()).st_size == expected:
            arr = np.empty((n, d), dtype="<f8")
            got = fh.readinto(arr)
        rest = fh.read()
    length = _HEADER.size + got + len(rest)
    if length != expected:
        raise FormatError(
            f"{path}: payload length {length} != expected {expected} "
            f"for n={n}, d={d} (offset {_HEADER.size})"
        )
    if arr is None:
        arr = np.frombuffer(rest, dtype="<f8").reshape(n, d).copy()
    return arr.astype(np.float64, copy=False)


def write_points_csv(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def read_points_csv(path) -> np.ndarray:
    """(n, d) float64 rows of a CSV point file, (0, 0) when it holds none;
    raises FormatError (path:line) on a bad token or a ragged row."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            arr = np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None, dtype=np.float64, encoding="utf-8"
            )
    except (ValueError, OSError):
        arr = None
    if arr is None or not arr.shape[0]:
        return _read_csv_lines(path)
    return arr


def _read_csv_lines(path) -> np.ndarray:
    """The reference CSV reader: one line at a time, blank and
    whitespace-only lines skipped, tokens parsed by float(). A file that is
    not UTF-8 is a FormatError naming the path."""
    rows = []
    d = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        toks = line.split(",")
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if d is None:
            d = len(vals)
        elif len(vals) != d:
            raise FormatError(
                f"{path}:{lineno}: row has {len(vals)} columns, expected {d}"
            )
        rows.append(vals)
    if not rows:
        return np.zeros((0, 0))
    return np.array(rows, dtype=np.float64)


def detect_format(path, override: str | None = None) -> str:
    """Pick "csv" or "bin" from an explicit override or the file extension."""
    if override:
        if override not in ("csv", "bin"):
            raise FormatError(f"unknown format {override!r} (use csv or bin)")
        return override
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".bin":
        return "bin"
    raise FormatError(f"{path}: cannot infer format from extension {suffix!r}")


def read_points(path, fmt: str | None = None) -> np.ndarray:
    fmt = detect_format(path, fmt)
    return read_points_csv(path) if fmt == "csv" else read_points_bin(path)


def write_points(path, arr: np.ndarray, fmt: str | None = None) -> None:
    fmt = detect_format(path, fmt)
    if fmt == "csv":
        write_points_csv(path, arr)
    else:
        write_points_bin(path, arr)
