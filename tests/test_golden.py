"""Golden verify-chd reports: build each point file under tests/data on the
sketch path, audit it, and compare the report with the committed one byte
for byte.

The committed reports pin the audit's witness rule, tier maxima and chunk
values (through the witness they pick) on five small sets: a 12 x 8
Gaussian set, the 8 corners of the unit cube (exact ties among vertices
and midpoints, signed zeros in the directions), a 10 x 6 set with one pair
of points 1e-9 apart, and two Gaussian sets shifted by 1e6 (far from the
origin, where the audit's point basis is centred): 16 x 6, and 12 x 32,
whose n < d sends the random tier's squared norms through the basis Gram
G. The CI workflow runs
the same commands through the installed console script and compares with
cmp.

Golden eval reports pin evaluate on the same bundles: the default suite at
5 queries per mode, each report without its config echo (which holds the
source path) and its --raw-dump CSV. They cover the Gram-screened path,
the exact passes (shifted_12x32, where the screen rules out too little),
and ties among the ratios (cube_corners)."""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from termembed.cli import _dump_json, main

DATA = Path(__file__).parent / "data"

# name: (epsilon, C) for `build`; every set lands on the sketch path.
GOLDEN = {
    "gaussian_12x8": ("0.5", "0.25"),
    "cube_corners": ("0.9", "0.4"),
    "near_duplicate": ("0.5", "0.25"),
    "shifted_16x6": ("0.5", "0.2"),
    "shifted_12x32": ("0.5", "0.25"),
}


def _build(tmp_path, name):
    eps, C = GOLDEN[name]
    bundle = tmp_path / "bundle"
    with redirect_stdout(io.StringIO()) as out:
        assert main(["build", str(DATA / f"{name}.csv"), "--out", str(bundle),
                     "--epsilon", eps, "--const-C", C, "--seed", "1"]) == 0
    assert '"mode":"sketch"' in out.getvalue()
    return bundle


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_chd_report_is_golden(tmp_path, name):
    bundle, report = _build(tmp_path, name), tmp_path / "chd.json"
    assert main(["verify-chd", str(bundle), "--samples", "300", "--seed", "1",
                 "--report", str(report)]) == 0
    assert report.read_bytes() == (DATA / f"{name}.chd.json").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_eval_report_and_raw_dump_are_golden(tmp_path, name):
    bundle, report, raw = _build(tmp_path, name), tmp_path / "eval.json", tmp_path / "raw.csv"
    assert main(["eval", str(bundle), "--queries-per-mode", "5", "--seed", "1",
                 "--raw-dump", str(raw), "--report", str(report)]) == 0
    got = json.loads(report.read_text(encoding="utf-8"))
    del got["config"]
    assert _dump_json(got).encode() == (DATA / f"{name}.eval.json").read_bytes()
    assert raw.read_bytes() == (DATA / f"{name}.eval.csv").read_bytes()
