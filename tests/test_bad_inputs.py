"""Property tests: bad query files and corrupt bundles end in a typed error
and exit 2 (an empty query file in exit 0), never in a traceback or a NaN."""
import io
import json
import shutil
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termembed.cli import load_bundle, main
from termembed.errors import DimensionMismatch, FormatError, NonFinitePoint
from termembed.geometry import MAX_NORM, build_point_set
from termembed.pointio import read_points, write_points

D = 12
MODES = ("sketch", "exact_small")
FORMATS = ("csv", "bin")
SETTINGS = settings(max_examples=25, deadline=None)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run(argv):
    """main(argv) -> (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def assert_input_error(argv, needle):
    rc, _, err = run(argv)
    assert rc == 2
    assert err.startswith("error:") and needle in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """One 12-point bundle in R^12 per mode (m=10 < 12 for the sketch)."""
    root = tmp_path_factory.mktemp("bundles")
    pts = root / "pts.csv"
    write_points(pts, np.random.default_rng(0).standard_normal((12, D)))
    flags = {"sketch": ["--epsilon", "0.5", "--const-C", "0.5"], "exact_small": []}
    for mode in MODES:
        assert run(["build", pts, "--out", root / mode, "--seed", "3", *flags[mode]])[0] == 0
        assert json.loads((root / mode / "config.json").read_text())["mode"] == mode
    return root


@contextmanager
def fresh_dir():
    """A new empty directory per generated example."""
    with tempfile.TemporaryDirectory() as path:
        yield Path(path)


def query_argvs(bundle, qpath, work):
    return [
        ["query", bundle, qpath, work / f"out{qpath.suffix}"],
        ["eval", bundle, "--queries-file", qpath, "--report", work / "eval.json"],
    ]


@st.composite
def non_finite_queries(draw):
    q = draw(st.integers(1, 6))
    Q = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((q, D))
    cells = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, D - 1)), min_size=1))
    for i, j in cells:
        Q[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return Q


@SETTINGS
@given(Q=non_finite_queries(), mode=st.sampled_from(MODES), fmt=st.sampled_from(FORMATS))
def test_non_finite_query_rows(bundles, Q, mode, fmt):
    with fresh_dir() as workdir:
        bundle, qpath = bundles / mode, workdir / f"q.{fmt}"
        write_points(qpath, Q)
        with pytest.raises(NonFinitePoint):
            load_bundle(bundle)[0].embed_batch(read_points(qpath))
        for argv in query_argvs(bundle, qpath, workdir):
            assert_input_error(argv, "finite")
        assert sorted(p.name for p in workdir.iterdir()) == [qpath.name]


@SETTINGS
@given(
    width=st.integers(1, 3 * D).filter(lambda w: w != D),
    rows=st.integers(1, 5),
    mode=st.sampled_from(MODES),
    fmt=st.sampled_from(FORMATS),
)
def test_wrong_width_query_file(bundles, width, rows, mode, fmt):
    with fresh_dir() as workdir:
        bundle, qpath = bundles / mode, workdir / f"q.{fmt}"
        write_points(qpath, np.ones((rows, width)))
        with pytest.raises(DimensionMismatch):
            load_bundle(bundle)[0].embed_batch(read_points(qpath))
        for argv in query_argvs(bundle, qpath, workdir):
            assert_input_error(argv, f"expected (*, {D})")
        assert sorted(p.name for p in workdir.iterdir()) == [qpath.name]


@SETTINGS
@given(
    blank=st.text(alphabet=" \t\n", max_size=6),
    width=st.integers(0, 3 * D),
    mode=st.sampled_from(MODES),
    fmt=st.sampled_from(FORMATS),
)
def test_empty_query_file(bundles, blank, width, mode, fmt):
    with fresh_dir() as workdir:
        bundle, qpath = bundles / mode, workdir / f"q.{fmt}"
        if fmt == "csv":
            qpath.write_text(blank)
        else:
            write_points(qpath, np.zeros((0, width)))
        query, evaluate = query_argvs(bundle, qpath, workdir)
        assert run(query)[0] == 0
        assert read_points(query[-1]).shape[0] == 0
        assert run(evaluate)[0] == 0
        report = json.loads(evaluate[-1].read_text(), parse_constant=_reject_constant)
        assert report["query_count"] == 0 and report["distortion"] is None


@SETTINGS
@given(
    data=st.data(),
    mode=st.sampled_from(MODES),
    name=st.sampled_from(["config.json", "sketch.json"]),
)
def test_truncated_header(bundles, data, mode, name):
    with fresh_dir() as workdir:
        if mode == "exact_small" and name == "sketch.json":
            name = "config.json"  # the exact path has no sketch header
        bundle = workdir / "bundle"
        shutil.copytree(bundles / mode, bundle)
        header = bundle / name
        text = header.read_text()
        # Any proper prefix of the JSON object, up to and excluding its "}".
        header.write_text(text[: data.draw(st.integers(0, len(text.rstrip()) - 1))])
        with pytest.raises(FormatError, match=name):
            load_bundle(bundle)
        qpath = workdir / "q.csv"
        write_points(qpath, np.zeros((1, D)))
        verify = ["verify-chd", bundle, "--samples", "50"]
        for argv in [*query_argvs(bundle, qpath, workdir), verify]:
            assert_input_error(argv, name)
        assert not (workdir / "out.csv").exists() and not (workdir / "eval.json").exists()


def _scaled_to(norm, shape, seed):
    """Gaussian rows scaled so that the largest norm is `norm`."""
    A = np.random.default_rng(seed).standard_normal(shape)
    return A * (norm / np.sqrt(np.einsum("ij,ij->i", A, A)).max())


def test_points_above_max_norm_exit_2(tmp_path):
    pts = np.random.default_rng(5).standard_normal((40, D)) * 1e155
    with pytest.raises(NonFinitePoint, match="MAX_NORM"):
        build_point_set(pts)
    path = tmp_path / "big.csv"
    write_points(path, pts)
    scaling = ["scaling", path, "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
               "--out", tmp_path / "s.json"]
    for argv in (["build", path, "--out", tmp_path / "bundle"], scaling):
        assert_input_error(argv, "2**500")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


@pytest.mark.parametrize("mode", MODES)
def test_queries_above_max_norm_exit_2(bundles, tmp_path, mode):
    Q = np.random.default_rng(6).standard_normal((4, D))
    Q[2] *= 1e155
    with pytest.raises(NonFinitePoint, match="query 2 .* MAX_NORM"):
        load_bundle(bundles / mode)[0].embed_batch(Q)
    qpath = tmp_path / "q.csv"
    write_points(qpath, Q)
    for argv in query_argvs(bundles / mode, qpath, tmp_path):
        assert_input_error(argv, "2**500")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv"]


@pytest.mark.parametrize("mode", MODES)
def test_just_inside_max_norm_stays_finite(tmp_path, mode):
    # Points and queries with norms up to 0.9 MAX_NORM: every image, record
    # and report is finite and strict JSON.
    bound = 0.9 * MAX_NORM
    pts, qpath = tmp_path / "pts.csv", tmp_path / "q.csv"
    write_points(pts, _scaled_to(bound, (40, 16), 7))
    write_points(qpath, _scaled_to(bound, (6, 16), 8))
    flags = ["--epsilon", "0.5", "--const-C", "0.5"] if mode == "sketch" else []
    bundle = tmp_path / "bundle"
    assert run(["build", pts, "--out", bundle, *flags])[0] == 0
    E, meta = load_bundle(bundle)
    assert meta["mode"] == mode
    assert run(["query", bundle, qpath, tmp_path / "out.csv"])[0] == 0
    assert np.all(np.isfinite(read_points(tmp_path / "out.csv")))
    diag = json.loads((tmp_path / "out.csv.diag.json").read_text(), parse_constant=_reject_constant)
    assert all(np.isfinite(rec["residual"]) for rec in diag["per_query"])
    chd, ev = tmp_path / "chd.json", tmp_path / "eval.json"
    assert run(["verify-chd", bundle, "--samples", "200", "--report", chd])[0] == 0
    assert run(["eval", bundle, "--queries-file", qpath, "--report", ev])[0] == 0
    chd = json.loads(chd.read_text(), parse_constant=_reject_constant)
    report = json.loads(ev.read_text(), parse_constant=_reject_constant)
    assert (chd["max_violation"] > 0.0) == (mode == "sketch")
    assert report["pair_count"] == 6 * 40 and report["distortion"] is not None
    if mode == "exact_small":
        assert report["max_abs_ratio_dev"] < 1e-9
    # The sampled suite reaches past the points (box and far queries), so
    # near the bound eval can refuse its own queries, with the same error.
    assert_input_error(["eval", bundle, "--report", tmp_path / "suite.json"], "2**500")
    assert not (tmp_path / "suite.json").exists()
    # The error names the refused row's sampler: the box reaches past the points.
    assert run(["eval", bundle, "--report", tmp_path / "suite.json"])[2].endswith(
        "; its sampler label is box\n"
    )


@pytest.mark.parametrize("escape", ["absolute", "parent"])
def test_sketch_data_must_name_a_file_in_the_bundle(bundles, tmp_path, escape):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles / "sketch", bundle)
    outside = tmp_path / "elsewhere.bin"
    shutil.copy(bundle / "sketch.bin", outside)
    header = json.loads((bundle / "sketch.json").read_text())
    header["data"] = str(outside) if escape == "absolute" else "../elsewhere.bin"
    (bundle / "sketch.json").write_text(json.dumps(header))
    with pytest.raises(FormatError, match="not a file name"):
        load_bundle(bundle)
    qpath = tmp_path / "q.csv"
    write_points(qpath, np.zeros((1, D)))
    assert_input_error(["query", bundle, qpath, tmp_path / "out.csv"], "sketch.json")
    assert not (tmp_path / "out.csv").exists()


def test_non_finite_sketch_entry_is_format_error(bundles, tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles / "sketch", bundle)
    blob = bytearray((bundle / "sketch.bin").read_bytes())
    blob[8:16] = np.array([np.inf], dtype="<f8").tobytes()
    (bundle / "sketch.bin").write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="finite"):
        load_bundle(bundle)
    assert_input_error(["verify-chd", bundle, "--samples", "50"], "sketch.bin")
