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
cmp."""
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from termembed.cli import main

DATA = Path(__file__).parent / "data"

# name: (epsilon, C) for `build`; every set lands on the sketch path.
GOLDEN = {
    "gaussian_12x8": ("0.5", "0.25"),
    "cube_corners": ("0.9", "0.4"),
    "near_duplicate": ("0.5", "0.25"),
    "shifted_16x6": ("0.5", "0.2"),
    "shifted_12x32": ("0.5", "0.25"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_chd_report_is_golden(tmp_path, name):
    eps, C = GOLDEN[name]
    bundle, report = tmp_path / "bundle", tmp_path / "chd.json"
    with redirect_stdout(io.StringIO()) as out:
        assert main(["build", str(DATA / f"{name}.csv"), "--out", str(bundle),
                     "--epsilon", eps, "--const-C", C, "--seed", "1"]) == 0
    assert '"mode":"sketch"' in out.getvalue()
    assert main(["verify-chd", str(bundle), "--samples", "300", "--seed", "1",
                 "--report", str(report)]) == 0
    assert report.read_bytes() == (DATA / f"{name}.chd.json").read_bytes()
