import os
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termembed import FormatError, pointio
from termembed.pointio import (
    detect_format,
    read_points,
    read_points_bin,
    read_points_csv,
    write_points_bin,
    write_points_csv,
)


@pytest.fixture
def arr():
    return np.random.default_rng(0).standard_normal((5, 3))


def test_csv_round_trip_bit_exact(tmp_path, arr):
    path = tmp_path / "p.csv"
    write_points_csv(path, arr)
    back = read_points_csv(path)
    assert np.array_equal(back, arr)


def test_bin_round_trip_bit_exact(tmp_path, arr):
    path = tmp_path / "p.bin"
    write_points_bin(path, arr)
    back = read_points_bin(path)
    assert np.array_equal(back, arr)


def test_bin_header_is_16_bytes(tmp_path, arr):
    path = tmp_path / "p.bin"
    write_points_bin(path, arr)
    blob = path.read_bytes()
    assert len(blob) == 16 + 8 * arr.size
    magic, n, d, reserved = struct.unpack_from("<4sIII", blob, 0)
    assert magic == b"TEPT" and (n, d) == arr.shape and reserved == 0


def test_bin_bad_magic(tmp_path):
    path = tmp_path / "p.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError, match="magic"):
        read_points_bin(path)


def test_bin_truncated_payload(tmp_path):
    path = tmp_path / "p.bin"
    path.write_bytes(struct.pack("<4sIII", b"TEPT", 2, 2, 0) + b"\x00" * 8)
    with pytest.raises(FormatError, match="payload"):
        read_points_bin(path)


def _tept(n, d, payload=b""):
    return struct.pack("<4sIII", b"TEPT", n, d, 0) + payload


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"", "truncated header (0 bytes)"),
        (b"TEPT\x02\x00\x00\x00\x02\x00", "truncated header (10 bytes)"),
        (_tept(2, 2, b"\x00" * 8), "payload length 24 != expected 48 for n=2, d=2 (offset 16)"),
        (_tept(2, 2, b"\x00" * 35), "payload length 51 != expected 48 for n=2, d=2 (offset 16)"),
        (_tept(0, 3, b"\x00"), "payload length 17 != expected 16 for n=0, d=3 (offset 16)"),
        # A header that promises about 1.5e20 bytes is refused by its length,
        # before anything of that size is allocated.
        (_tept(2**32 - 1, 2**32 - 1), "payload length 16 != expected 147573952520956936216 for "
         "n=4294967295, d=4294967295 (offset 16)"),
    ],
    ids=["empty", "short_header", "short_payload", "trailing_bytes", "zero_rows_trailing",
         "huge_header"],
)
def test_bin_length_errors_name_the_lengths(tmp_path, blob, message):
    path = tmp_path / "p.bin"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_points_bin(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("d", [1, 7])
def test_bin_zero_rows(tmp_path, d):
    path = tmp_path / "p.bin"
    write_points_bin(path, np.zeros((0, d)))
    assert path.read_bytes() == _tept(0, d)
    back = read_points_bin(path)
    assert back.shape == (0, d) and back.dtype == np.float64


def test_bin_writes_read_only_and_strided_arrays(tmp_path):
    base = np.random.default_rng(3).standard_normal((6, 8))
    ro = base.copy()
    ro.setflags(write=False)
    views = {
        "read_only": ro,
        "columns": base[:, ::3],
        "transposed": base.T,
        "rows": base[::2],
        "big_endian": base.astype(">f8"),
        "float32": base.astype(np.float32),
    }
    for name, arr in views.items():
        path = tmp_path / f"{name}.bin"
        write_points_bin(path, arr)
        want = np.ascontiguousarray(arr, dtype="<f8")
        assert path.read_bytes() == _tept(*want.shape, want.tobytes()), name
        assert np.array_equal(read_points_bin(path), want), name


def test_bin_round_trip_keeps_every_bit(tmp_path):
    # NaN payloads and signs, signed zeros, subnormals and the extremes.
    rng = np.random.default_rng(4)
    arr = rng.integers(0, 2**63, size=(33, 5), dtype=np.uint64).view(np.float64).copy()
    arr.flat[:8] = [-0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.7976931348623157e308, 2.2e-308, np.nan]
    arr.flat[8] = np.uint64(0x7FF0000000000001).view(np.float64)  # a signalling NaN payload
    path = tmp_path / "p.bin"
    write_points_bin(path, arr)
    back = read_points_bin(path)
    assert back.tobytes() == arr.tobytes()
    # An owned, writable, C-contiguous native array, as callers may modify it.
    assert back.flags.owndata and back.flags.writeable and back.flags.c_contiguous
    assert back.dtype == np.float64


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_bin_reads_from_a_pipe(tmp_path, arr):
    # A pipe has no length to check up front: it is read whole, then checked.
    src, fifo = tmp_path / "p.bin", tmp_path / "fifo"
    write_points_bin(src, arr)
    for blob in (src.read_bytes(), src.read_bytes() + b"\x00"):
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(blob))
        writer.start()
        try:
            if len(blob) == 16 + 8 * arr.size:
                assert np.array_equal(read_points_bin(fifo), arr)
            else:
                with pytest.raises(FormatError, match="payload length 137 != expected 136"):
                    read_points_bin(fifo)
        finally:
            writer.join()
            fifo.unlink()


def test_csv_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(FormatError, match=":2:"):
        read_points_csv(path)


def test_csv_ragged_row_reported(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="columns"):
        read_points_csv(path)


def test_empty_csv_gives_zero_points(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert read_points_csv(path).shape == (0, 0)


def test_detect_format(tmp_path):
    assert detect_format("x.csv") == "csv"
    assert detect_format("x.bin") == "bin"
    assert detect_format("x.dat", "csv") == "csv"
    with pytest.raises(FormatError):
        detect_format("x.dat")


def test_read_points_dispatch(tmp_path, arr):
    c, b = tmp_path / "p.csv", tmp_path / "p.bin"
    write_points_csv(c, arr)
    write_points_bin(b, arr)
    assert np.array_equal(read_points(c), read_points(b))


# Tokens the line parser accepts (float() strips surrounding whitespace and
# takes underscores between digits) and tokens it rejects.
_TOKENS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from([" 1.5 ", "+2e-3", "nan", "-inf", "1_0", "", "#c", '"1"']),
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "blank", "spaces"]))
        if kind == "blank":
            text = ""
        elif kind == "spaces":
            text = draw(st.sampled_from([" ", "\t", " \t  "]))
        else:
            cols = width if kind == "row" else draw(st.integers(1, 4))
            text = ",".join(draw(st.lists(_TOKENS, min_size=cols, max_size=cols)))
        lines.append(text + draw(_LINE_ENDS))
    return "".join(lines)


def _outcome(reader, path):
    try:
        arr = reader(path)
    except FormatError as exc:
        return "error", str(exc)
    return "array", arr.shape, arr.tobytes()


@settings(max_examples=200, deadline=None)
@given(text=_csv_texts())
def test_csv_reader_matches_line_parser(tmp_path_factory, text):
    # Same bits (NaN payloads and signed zeros included), or the same
    # FormatError message, as the reference line parser.
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_points_csv, path) == _outcome(pointio._read_csv_lines, path)


def test_well_formed_csv_skips_line_parser(tmp_path, arr, monkeypatch):
    path = tmp_path / "p.csv"
    write_points_csv(path, arr)

    def refuse(path):
        raise AssertionError("line parser called on a well-formed file")

    monkeypatch.setattr(pointio, "_read_csv_lines", refuse)
    assert np.array_equal(read_points_csv(path), arr)


@pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\r\n", " "])
def test_blank_csv_gives_zero_points_without_warning(tmp_path, text):
    path = tmp_path / "blank.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_points_csv(path).shape == (0, 0)


def test_missing_csv_error_matches_line_parser(tmp_path):
    # The CLI prints an OSError's text (exit 2): it must not change with the reader.
    path = tmp_path / "missing.csv"
    with pytest.raises(FileNotFoundError) as new:
        read_points_csv(path)
    with pytest.raises(FileNotFoundError) as ref:
        pointio._read_csv_lines(path)
    assert str(new.value) == str(ref.value)


def test_non_utf8_csv_is_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff1.0,2.0\n")
    with pytest.raises(FormatError, match="bad.csv"):
        read_points_csv(path)


@pytest.mark.parametrize("command", ["query", "build"])
def test_cli_non_utf8_csv_exits_2(tmp_path, capsys, command):
    from termembed.cli import main

    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff1.0,2.0\n")
    if command == "query":
        pts = tmp_path / "pts.csv"
        write_points_csv(pts, np.random.default_rng(0).standard_normal((12, 2)))
        assert main(["build", str(pts), "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        argv, out = ["query", str(tmp_path / "b"), str(bad), str(tmp_path / "out.csv")], "out.csv"
    else:
        argv, out = ["build", str(bad), "--out", str(tmp_path / "new")], "new"
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and "bad.csv" in err and "Traceback" not in err
    assert not (tmp_path / out).exists()


def test_csv_write_bytes_are_shortest_repr(tmp_path):
    # Each value is written as Python's shortest round-trip repr of the
    # float, specials included.
    rng = np.random.default_rng(9)
    arr = rng.standard_normal((200, 228)) * 10.0 ** rng.integers(-300, 300, size=(200, 228))
    specials = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 3.0, np.nan, np.inf, -np.inf,
                -5e-324, -1.7976931348623157e308, 1e16, 1e-05]
    arr[:, : len(specials)] = specials
    path = tmp_path / "p.csv"
    write_points_csv(path, arr)
    text = path.read_bytes().decode("utf-8")
    assert text.startswith(
        "-0.0,5e-324,1.7976931348623157e+308,0.1,3.0,nan,inf,-inf,"
        "-5e-324,-1.7976931348623157e+308,1e+16,1e-05,"
    )
    assert text == "".join(",".join(repr(float(v)) for v in row) + "\n" for row in arr)
