"""Point file formats: CSV (one point per row) and the TEPT binary layout.

TEPT layout: 16-byte header = magic b"TEPT", u32 n, u32 d, u32 reserved(0),
all little-endian, followed by n*d IEEE-754 doubles, row-major, little-endian.
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

import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"TEPT"
_HEADER = struct.Struct("<4sIII")


def write_points_bin(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
    if arr.ndim != 2:
        raise FormatError(f"expected an (n, d) array, got ndim={arr.ndim}")
    n, d = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, d, 0))
        fh.write(arr.tobytes(order="C"))


def read_points_bin(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, n, d, _reserved = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    expected = _HEADER.size + 8 * n * d
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload length {len(blob)} != expected {expected} "
            f"for n={n}, d={d} (offset {_HEADER.size})"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    return data.reshape(n, d).astype(np.float64)


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
