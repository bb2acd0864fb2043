import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import termembed
from termembed import chd, cli
from termembed.cli import load_bundle, main
from termembed.errors import FormatError, TooManyDirections
from termembed.extension import SolverConfig
from termembed.pointio import read_points_bin, read_points_csv, write_points_bin, write_points_csv
from termembed.sketch import plan_dimension


def write_csv(path, arr):
    write_points_csv(path, np.asarray(arr, dtype=float))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def bundle_bytes(bundle_dir):
    return {p.name: p.read_bytes() for p in sorted(bundle_dir.iterdir())}


@pytest.fixture
def points_csv(tmp_path):
    rng = np.random.default_rng(0)
    return write_csv(tmp_path / "pts.csv", rng.standard_normal((12, 12)))


class TestBuild:
    def test_exact_small_announced(self, tmp_path, capsys):
        path = write_csv(tmp_path / "three.csv", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rc = main(["build", path, "--out", str(tmp_path / "b"), "--epsilon", "0.1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "exact_small"

    def test_sketch_mode_announced(self, tmp_path, capsys, points_csv):
        rc = main(["build", points_csv, "--out", str(tmp_path / "b"),
                   "--epsilon", "0.5", "--const-C", "0.5"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "sketch" and out["out_dim"] == out["m"] + 1

    def test_plan_uses_dimension(self, tmp_path, capsys):
        # n=300, d=6, eps=0.5, C=0.5: m=23 < n but >= d, so the exact path
        path = write_csv(tmp_path / "wide.csv", np.random.default_rng(1).standard_normal((300, 6)))
        rc = main(["build", path, "--out", str(tmp_path / "b"),
                   "--epsilon", "0.5", "--const-C", "0.5"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "exact_small" and out["m"] == 23
        assert out["out_dim"] <= 6 + 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["build", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_duplicate_points_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "dup.csv", [[1.0, 1.0], [1.0, 1.0]])
        rc = main(["build", path, "--out", str(tmp_path / "b")])
        assert rc == 2

    def test_rebuild_is_byte_identical(self, tmp_path, points_csv):
        args = ["build", points_csv, "--out", str(tmp_path / "b"),
                "--epsilon", "0.5", "--const-C", "0.5", "--seed", "7"]
        assert main(args) == 0
        first = bundle_bytes(tmp_path / "b")
        assert main(args) == 0
        second = bundle_bytes(tmp_path / "b")
        assert first == second

    def test_usage_error_exits_1(self, tmp_path, capsys, points_csv):
        rc = main(["build", points_csv])  # missing --out
        assert rc == 1


class TestQuery:
    @pytest.fixture
    def bundle(self, tmp_path, points_csv):
        out = tmp_path / "bundle"
        assert main(["build", points_csv, "--out", str(out),
                     "--epsilon", "0.5", "--const-C", "0.5", "--seed", "3"]) == 0
        return out

    def test_members_get_zero_tail(self, tmp_path, bundle, points_csv):
        qpath = tmp_path / "q.csv"
        qpath.write_bytes((tmp_path / "pts.csv").read_bytes())
        rc = main(["query", str(bundle), str(qpath), str(tmp_path / "out.csv")])
        assert rc == 0
        out = read_points_csv(tmp_path / "out.csv")
        assert np.all(out[:, -1] == 0.0)

    def test_exact_bundle_members_get_zero_tail(self, tmp_path, points_csv):
        bundle = tmp_path / "exact"
        assert main(["build", points_csv, "--out", str(bundle), "--seed", "3"]) == 0
        assert json.loads((bundle / "config.json").read_text())["mode"] == "exact_small"
        out = tmp_path / "out.csv"
        assert main(["query", str(bundle), points_csv, str(out)]) == 0
        assert np.all(read_points_csv(out)[:, -1] == 0.0)
        diag = json.loads((tmp_path / "out.csv.diag.json").read_text())
        assert [rec["anchor_index"] for rec in diag["per_query"]] == list(range(12))

    def test_empty_query_file(self, tmp_path, bundle):
        qpath = tmp_path / "empty.csv"
        qpath.write_text("")
        rc = main(["query", str(bundle), str(qpath), str(tmp_path / "out.csv")])
        assert rc == 0
        assert read_points_csv(tmp_path / "out.csv").shape == (0, 0)

    def test_round_trip_bit_exact(self, tmp_path, bundle):
        rng = np.random.default_rng(5)
        qpath = tmp_path / "q.bin"
        write_points_bin(qpath, rng.standard_normal((4, 12)))
        out = tmp_path / "out.bin"
        assert main(["query", str(bundle), str(qpath), str(out)]) == 0
        first = read_points_bin(out)
        write_points_bin(tmp_path / "again.bin", first)
        assert (tmp_path / "again.bin").read_bytes() == out.read_bytes()

    def test_dimension_mismatch_exit_2(self, tmp_path, bundle, capsys):
        qpath = write_csv(tmp_path / "bad.csv", np.zeros((2, 3)))
        rc = main(["query", str(bundle), qpath, str(tmp_path / "out.csv")])
        assert rc == 2

    def test_diagnostics_sidecar(self, tmp_path, bundle):
        qpath = write_csv(tmp_path / "q.csv", np.random.default_rng(6).standard_normal((3, 12)))
        assert main(["query", str(bundle), qpath, str(tmp_path / "out.csv")]) == 0
        text = (tmp_path / "out.csv.diag.json").read_text()
        diag = json.loads(text, parse_constant=_reject_constant)
        assert diag["queries"] == 3
        for entry in diag["per_query"]:
            assert set(entry) == {"residual", "iterations", "anchor_index", "converged",
                                  "lower_bound", "status"}
            assert entry["status"] in ("feasible", "infeasible", "undecided")

    def test_query_determinism(self, tmp_path, bundle):
        qpath = write_csv(tmp_path / "q.csv", np.random.default_rng(7).standard_normal((3, 12)))
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["query", str(bundle), qpath, str(out1)]) == 0
        assert main(["query", str(bundle), qpath, str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyAndEval:
    @pytest.fixture
    def bundle(self, tmp_path, points_csv):
        out = tmp_path / "bundle"
        assert main(["build", points_csv, "--out", str(out),
                     "--epsilon", "0.5", "--const-C", "0.5", "--seed", "11"]) == 0
        return out

    def test_verify_report_and_pass(self, tmp_path, bundle):
        report = tmp_path / "chd.json"
        rc = main(["verify-chd", str(bundle), "--samples", "500",
                   "--report", str(report), "--assert", "max_violation=2.0"])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert rep["method"] == "sampled"
        assert 0.0 <= rep["max_violation"] <= 2.0
        assert len(rep["witness_weights"]) == 12 * 11

    def test_verify_report_names_witness_tier(self, tmp_path, bundle):
        report = tmp_path / "chd.json"
        assert main(["verify-chd", str(bundle), "--samples", "500", "--report", str(report)]) == 0
        rep = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert set(rep["tier_max"]) == {"vertex", "midpoint", "random"}
        assert rep["witness_tier"] in rep["tier_max"]
        assert rep["tier_max"][rep["witness_tier"]] == max(rep["tier_max"].values())
        assert abs(max(rep["tier_max"].values()) - rep["max_violation"]) <= 1e-12

    def test_verify_assert_failure_exits_3_report_written(self, tmp_path, bundle, capsys):
        report = tmp_path / "chd.json"
        rc = main(["verify-chd", str(bundle), "--samples", "500",
                   "--report", str(report), "--assert", "max_violation=0.0"])
        assert rc == 3
        assert report.exists()
        assert "assert failed" in capsys.readouterr().err

    def test_verify_unknown_assert_key_is_usage_error(self, bundle):
        rc = main(["verify-chd", str(bundle), "--samples", "100",
                   "--assert", "bogus_key=1"])
        assert rc == 1

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["verify-chd", "--samples", "100", "--assert", "max_violation=abc"],
                     "--assert value must be numeric, got 'max_violation=abc'", id="verify-value"),
        pytest.param(["verify-chd", "--samples", "100", "--assert", "max_violation"],
                     "--assert expects KEY=VALUE, got 'max_violation'", id="verify-form"),
        pytest.param(["verify-chd", "--samples", "100", "--assert", "m=5", "--assert", "max_ratio_dev=1"],
                     "unknown assert key 'max_ratio_dev'; known: epsilon, m, max_violation, seed",
                     id="verify-key"),
        pytest.param(["eval", "--queries-per-mode", "2", "--assert", "nope=1"],
                     "unknown assert key 'nope'; known: distortion, max_anchor_rel_error, "
                     "max_ratio_dev, max_residual, ratio_max", id="eval-key"),
        pytest.param(["eval", "--queries-per-mode", "2", "--assert", "distortion=x"],
                     "--assert value must be numeric, got 'distortion=x'", id="eval-value"),
    ])
    def test_bad_assert_is_refused_before_any_work(self, tmp_path, bundle, capsys, argv, message):
        # A usage error (exit 1) before the bundle is read: no report is
        # written, and a missing bundle reads as the same usage error.
        report = tmp_path / "r.json"
        command, *flags = argv
        for target in (bundle, tmp_path / "missing"):
            rc = main([command, str(target), *flags, "--report", str(report)])
            assert rc == 1 and not report.exists()
            assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("mode,key", [
        *(pytest.param("sketch", key, id=key) for key in ("witness_weights", "witness_tier", "tier_max")),
        # The exact path reports witness_tier as None: no number either.
        *(pytest.param("exact_small", key, id=f"exact_small-{key}")
          for key in ("witness_weights", "witness_tier", "tier_max")),
    ])
    def test_verify_assert_on_non_number_is_usage_error(self, tmp_path, bundle, capsys, mode, key):
        if mode == "exact_small":
            # 300 points in R^6 (the CI "wide" set): d <= m < n, so the exact path.
            path = write_csv(tmp_path / "wide.csv", np.random.default_rng(0).standard_normal((300, 6)))
            bundle = tmp_path / "wide"
            assert main(["build", path, "--out", str(bundle), "--epsilon", "0.5",
                         "--const-C", "0.5", "--seed", "1"]) == 0
            assert json.loads((bundle / "config.json").read_text())["mode"] == mode
        rc = main(["verify-chd", str(bundle), "--samples", "100", "--assert", f"{key}=1"])
        assert rc == 1 and capsys.readouterr().err.startswith("usage error:")

    def test_eval_report(self, tmp_path, bundle):
        report = tmp_path / "eval.json"
        rc = main(["eval", str(bundle), "--queries-per-mode", "4",
                   "--report", str(report), "--assert", "max_ratio_dev=2.0"])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert rep["pair_count"] > 0
        assert rep["ratios"]["min"] > 0.0

    def test_eval_efn_baseline_reproduces_sqrt10(self, tmp_path):
        pts = write_csv(tmp_path / "efn.csv", [[-1.0], [0.0], [2.0]])
        bundle = tmp_path / "efnb"
        assert main(["build", pts, "--out", str(bundle), "--epsilon", "0.1"]) == 0
        qpath = write_csv(tmp_path / "q1.csv", [[1.0]])
        report = tmp_path / "efn_eval.json"
        rc = main(["eval", str(bundle), "--baseline", "efn",
                   "--queries-file", qpath, "--report", str(report)])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert abs(rep["distortion"] - math.sqrt(10)) <= 1e-9

    def test_eval_raw_dump(self, tmp_path, bundle):
        dump = tmp_path / "raw.csv"
        rc = main(["eval", str(bundle), "--queries-per-mode", "2",
                   "--raw-dump", str(dump), "--report", str(tmp_path / "r.json")])
        assert rc == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "query_index,point_index,ratio,abs_sq_error"
        assert len(lines) > 1

    def test_eval_custom_samplers_and_dash_assert_key(self, tmp_path, bundle):
        report = tmp_path / "eval.json"
        rc = main(["eval", str(bundle), "--queries-per-mode", "3",
                   "--samplers", "member,shell:0.5,far:2",
                   "--report", str(report), "--assert", "max-ratio-dev=5.0"])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert set(rep["samplers"]) == {"member", "shell:0.5", "far:2"}

    @pytest.mark.parametrize("to_report", [True, False])
    def test_eval_empty_queries_file_is_strict_json(self, tmp_path, bundle, capsys, to_report):
        qpath = tmp_path / "empty.csv"
        qpath.write_text("")
        report = tmp_path / "eval.json"
        rc = main(["eval", str(bundle), "--queries-file", str(qpath),
                   *(["--report", str(report)] if to_report else [])])
        assert rc == 0
        text = report.read_text() if to_report else capsys.readouterr().out
        rep = json.loads(text, parse_constant=_reject_constant)
        assert rep["pair_count"] == 0 and rep["query_count"] == 0
        assert rep["distortion"] is None and rep["ratios"]["min"] is None
        assert rep["status_counts"] == {"feasible": 0, "infeasible": 0, "undecided": 0}

    def test_eval_assert_on_undefined_statistic_exits_3(self, tmp_path, bundle, capsys):
        qpath = tmp_path / "empty.csv"
        qpath.write_text("")
        report = tmp_path / "eval.json"
        rc = main(["eval", str(bundle), "--queries-file", str(qpath), "--report", str(report),
                   "--assert", "distortion=2", "--assert", "max_ratio_dev=1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "assert failed: distortion=None" in err and "max_ratio_dev" not in err
        assert report.exists()

    def test_eval_zero_ratio_distortion_null_exits_3(self, tmp_path, points_csv, capsys):
        bundle = tmp_path / "zero"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        sketch = bundle / "sketch.bin"
        sketch.write_bytes(bytes(len(sketch.read_bytes())))  # Pi = 0: every image coincides
        report = tmp_path / "eval.json"
        rc = main(["eval", str(bundle), "--samplers", "member", "--queries-per-mode", "3",
                   "--report", str(report), "--assert", "distortion=1e9"])
        assert rc == 3
        assert "assert failed: distortion=None" in capsys.readouterr().err
        rep = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert rep["ratios"]["min"] == 0.0 and rep["distortion"] is None

    def test_verify_on_exact_bundle(self, tmp_path):
        pts = write_csv(tmp_path / "tiny.csv", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        bundle = tmp_path / "tinyb"
        assert main(["build", pts, "--out", str(bundle), "--epsilon", "0.1"]) == 0
        report = tmp_path / "chd.json"
        rc = main(["verify-chd", str(bundle), "--report", str(report),
                   "--assert", "max_violation=0.1"])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert rep["method"] == "exact_small" and rep["max_violation"] == 0.0

    def test_verify_grid_flag_is_gone(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        pts = write_csv(tmp_path / "p.csv", rng.standard_normal((32, 16)))
        bundle = tmp_path / "b"
        assert main(["build", pts, "--out", str(bundle), "--epsilon", "0.5",
                     "--const-C", "0.5", "--seed", "2"]) == 0
        report = tmp_path / "chd.json"
        rc = main(["verify-chd", str(bundle), "--samples", "300",
                   "--grid", "0.05", "--report", str(report)])
        assert rc == 1 and "--grid" in capsys.readouterr().err
        assert not report.exists()


class TestBadInputs:
    @pytest.fixture(params=["sketch", "exact_small"])
    def bundle(self, request, tmp_path, points_csv):
        out = tmp_path / "bundle"
        flags = ["--const-C", "0.5", "--epsilon", "0.5"] if request.param == "sketch" else []
        assert main(["build", points_csv, "--out", str(out), "--seed", "3", *flags]) == 0
        assert json.loads((out / "config.json").read_text())["mode"] == request.param
        return out

    @pytest.fixture
    def nan_queries(self, tmp_path):
        q = np.random.default_rng(9).standard_normal((3, 12))
        q[1, 4] = np.nan
        return write_csv(tmp_path / "nan.csv", q)

    def test_nan_query_exits_2_and_writes_nothing(self, tmp_path, bundle, nan_queries, capsys):
        out = tmp_path / "out.csv"
        rc = main(["query", str(bundle), nan_queries, str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.csv.diag.json").exists()

    def test_nan_eval_queries_file_exits_2(self, tmp_path, bundle, nan_queries, capsys):
        report = tmp_path / "eval.json"
        rc = main(["eval", str(bundle), "--queries-file", nan_queries, "--report", str(report)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not report.exists()

    def _query(self, tmp_path, bundle, capsys):
        qpath = write_csv(tmp_path / "q.csv", np.zeros((1, 12)))
        rc = main(["query", str(bundle), qpath, str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        return rc, err

    def test_truncated_config_exits_2(self, tmp_path, bundle, capsys):
        cfg = bundle / "config.json"
        text = cfg.read_text()
        cfg.write_text(text[: len(text) // 2])
        with pytest.raises(FormatError, match="config.json"):
            load_bundle(bundle)
        rc, err = self._query(tmp_path, bundle, capsys)
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("key", ["mode", "seed", "epsilon"])
    def test_missing_key_exits_2(self, tmp_path, bundle, capsys, key):
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        del meta[key]
        cfg.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=key):
            load_bundle(bundle)
        rc, err = self._query(tmp_path, bundle, capsys)
        assert rc == 2 and err.startswith("error:")

    def test_retired_step_rule_exits_2(self, tmp_path, bundle, capsys):
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        meta["solver"]["step_rule"] = "diminishing"
        cfg.write_text(json.dumps(meta))
        rc, err = self._query(tmp_path, bundle, capsys)
        assert rc == 2 and err.startswith("error:") and "'diminishing'" in err

    def test_missing_solver_exits_2(self, tmp_path, points_csv, capsys):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        del meta["solver"]
        cfg.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="solver"):
            load_bundle(bundle)
        rc = main(["verify-chd", str(bundle), "--samples", "50"])
        assert rc == 2 and capsys.readouterr().err.startswith("error:")

    def test_solver_config_round_trip(self, tmp_path, points_csv):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle), "--epsilon", "0.5",
                     "--const-C", "0.5", "--solver-iters", "77"]) == 0
        meta = json.loads((bundle / "config.json").read_text())
        assert meta["solver"] == {"max_iters": 77}
        embedder, _ = load_bundle(bundle)
        assert embedder.solver == SolverConfig(77)

    def test_stored_polyak_step_rule_loads_as_fresh(self, tmp_path, points_csv):
        # Bundles written while the solver had two step rules store
        # "step_rule": "polyak"; it names the one step left and is dropped.
        fresh, legacy = tmp_path / "fresh", tmp_path / "legacy"
        for bundle in (fresh, legacy):
            assert main(["build", points_csv, "--out", str(bundle), "--epsilon", "0.5",
                         "--const-C", "0.5", "--seed", "3"]) == 0
        cfg = legacy / "config.json"
        meta = json.loads(cfg.read_text())
        meta["solver"]["step_rule"] = "polyak"
        cfg.write_text(json.dumps(meta))
        (E_fresh, _), (E_legacy, legacy_meta) = load_bundle(fresh), load_bundle(legacy)
        assert legacy_meta["solver"]["step_rule"] == "polyak"  # echoed as stored
        assert E_legacy.solver == E_fresh.solver == SolverConfig()
        assert E_legacy.epsilon == E_fresh.epsilon
        assert np.array_equal(E_legacy.Pi.entries, E_fresh.Pi.entries)
        assert np.array_equal(E_legacy.base_images, E_fresh.base_images)
        qpath = write_csv(tmp_path / "q.csv", np.random.default_rng(4).standard_normal((6, 12)))
        for bundle in (fresh, legacy):
            assert main(["query", str(bundle), qpath, str(tmp_path / f"{bundle.name}.csv")]) == 0
        assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "legacy.csv").read_bytes()

    def test_stored_default_tol_loads_as_fresh(self, tmp_path, points_csv):
        # Bundles written while the target's slack was a flag store "tol";
        # the default 0.001 is the constant extension.TOL, and is dropped.
        fresh, legacy = tmp_path / "fresh", tmp_path / "legacy"
        for bundle in (fresh, legacy):
            assert main(["build", points_csv, "--out", str(bundle), "--epsilon", "0.5",
                         "--const-C", "0.5", "--seed", "3"]) == 0
        assert "tol" not in json.loads((fresh / "config.json").read_text())["solver"]
        cfg = legacy / "config.json"
        meta = json.loads(cfg.read_text())
        meta["solver"]["tol"] = 0.001
        cfg.write_text(json.dumps(meta))
        (E_fresh, _), (E_legacy, _) = load_bundle(fresh), load_bundle(legacy)
        assert E_legacy.solver == E_fresh.solver == SolverConfig()
        qpath = write_csv(tmp_path / "q.csv", np.random.default_rng(5).standard_normal((6, 12)))
        for bundle in (fresh, legacy):
            assert main(["query", str(bundle), qpath, str(tmp_path / f"{bundle.name}.csv")]) == 0
        assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "legacy.csv").read_bytes()

    @pytest.mark.parametrize("value", [0.01, -0.5, "0.001", False])
    def test_stored_other_tol_exits_2(self, tmp_path, points_csv, capsys, value):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        meta["solver"]["tol"] = value
        cfg.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"tol {value!r}"):
            load_bundle(bundle)
        rc = main(["query", str(bundle), points_csv, str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and f"tol {value!r}" in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["build", "scaling"])
    def test_step_rule_flag_is_gone(self, tmp_path, points_csv, capsys, command):
        grid = ["--epsilons", "0.5", "--consts", "0.5", "--seeds", "1"] if command == "scaling" else []
        rc = main([command, points_csv, "--out", str(tmp_path / "out"), *grid,
                   "--solver-step-rule", "polyak"])
        assert rc == 1 and capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build", "scaling"])
    def test_tol_flag_is_gone(self, tmp_path, points_csv, capsys, command):
        grid = ["--epsilons", "0.5", "--consts", "0.5", "--seeds", "1"] if command == "scaling" else []
        rc = main([command, points_csv, "--out", str(tmp_path / "out"), *grid,
                   "--solver-tol", "0.01"])
        assert rc == 1 and capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit",
        ["missing", "extra", "step_rule=diminishing", "step_rule=bogus", "max_iters=-1",
         "tol=-0.5", "tol=inf", "tol=nan",
         # a JSON value of the wrong type is rejected, never coerced
         "max_iters=2.5", "max_iters=true", 'max_iters="7"', 'tol="0.001"', "tol=false",
         "step_rule=7", "seed=2.5", "seed=true", 'seed="7"'],
    )
    def test_solver_key_missing_or_extra_exits_2(self, tmp_path, points_csv, capsys, edit):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        if edit == "missing":
            del meta["solver"]["max_iters"]
        elif edit == "extra":
            meta["solver"]["threads"] = 1
        else:
            key, text = edit.split("=")
            try:
                value = json.loads(text)
            except ValueError:  # bogus, inf, nan
                value = text if key == "step_rule" else float(text)
            (meta if key == "seed" else meta["solver"])[key] = value
        cfg.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="corrupt bundle config"):
            load_bundle(bundle)
        rc = main(["verify-chd", str(bundle), "--samples", "50"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err
        if edit.startswith("step_rule="):
            assert f"step_rule {value!r}" in err  # the retired rule is named

    @pytest.mark.parametrize(
        "key, literal",
        [("epsilon", "NaN"), ("epsilon", "-Infinity"), ("C", "Infinity"), ("C", "1e400"),
         ("epsilon", "-0.5"), ("epsilon", "0.0"), ("epsilon", "1.0")],
    )
    def test_non_strict_or_out_of_range_config_exits_2(self, tmp_path, points_csv, capsys,
                                                         key, literal):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        cfg = bundle / "config.json"
        text, count = re.subn(rf'"{key}":[^,}}]+', f'"{key}":{literal}', cfg.read_text())
        assert count == 1
        cfg.write_text(text)
        with pytest.raises(FormatError, match="config.json"):
            load_bundle(bundle)
        for argv in (["eval", str(bundle), "--queries-per-mode", "2"],
                     ["verify-chd", str(bundle), "--samples", "50"]):
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "header",
        [{"magic": "TESK", "m": 3}, ["TESK"], {"magic": "TESK", "d": "six"},
         {"magic": "TESK", "d": float("inf")}],
    )
    def test_corrupt_sketch_header_exits_2(self, tmp_path, points_csv, capsys, header):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        path = bundle / "sketch.json"
        if isinstance(header, dict) and "d" in header:
            header = {**json.loads(path.read_text()), **header}
        path.write_text(json.dumps(header))
        with pytest.raises(FormatError, match="sketch.json"):
            load_bundle(bundle)
        qpath = write_csv(tmp_path / "q.csv", np.zeros((1, 12)))
        for argv in (["query", str(bundle), qpath, str(tmp_path / "out.csv")],
                     ["eval", str(bundle), "--queries-per-mode", "2"],
                     ["verify-chd", str(bundle), "--samples", "50"]):
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error:") and "Traceback" not in err

    def test_exact_basis_of_wrong_width_exits_2(self, tmp_path, capsys):
        # A basis of the wrong width, and the built basis times 1e150 or 1e300
        # (rows not orthonormal, which would give non-finite images).
        pts = write_csv(tmp_path / "wide.csv", np.random.default_rng(1).standard_normal((300, 6)))
        built = tmp_path / "wide"
        assert main(["build", pts, "--out", str(built), "--epsilon", "0.5",
                     "--const-C", "0.5"]) == 0
        basis = read_points_bin(built / "basis.bin")
        for name, bad, needle in (("width", np.eye(3, 5), "basis width 5, expected 6"),
                                  ("1e150", basis * 1e150, "not orthonormal"),
                                  ("1e300", basis * 1e300, "not orthonormal")):
            work = tmp_path / name
            bundle = work / "bundle"
            shutil.copytree(built, bundle)
            write_points_bin(bundle / "basis.bin", bad)
            with pytest.raises(FormatError, match="basis.bin"):
                load_bundle(bundle)
            for argv in (["query", str(bundle), pts, str(work / "out.csv")],
                         ["eval", str(bundle), "--queries-per-mode", "2",
                          "--report", str(work / "eval.json")],
                         ["eval", str(bundle), "--queries-per-mode", "2", "--baseline", "efn",
                          "--report", str(work / "efn.json")],
                         ["verify-chd", str(bundle), "--samples", "50",
                          "--report", str(work / "chd.json")]):
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc == 2 and err.startswith("error:") and "Traceback" not in err
                assert "basis.bin" in err and needle in err
            assert [p.name for p in work.iterdir()] == ["bundle"]

    def test_config_not_an_object_exits_2(self, tmp_path, bundle, capsys):
        (bundle / "config.json").write_text("[1, 2]\n")
        rc, err = self._query(tmp_path, bundle, capsys)
        assert rc == 2 and err.startswith("error:")

    @pytest.mark.parametrize("mode", ["exact", "Sketch", "", 3, None])
    def test_unknown_mode_exits_2(self, tmp_path, bundle, capsys, mode):
        # Only "sketch" and "exact_small" load; any other mode is named in
        # the error, not taken for the exact path (which would die on a
        # missing basis.bin).
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        meta["mode"] = mode
        cfg.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="unknown mode"):
            load_bundle(bundle)
        for argv in (["eval", str(bundle), "--queries-per-mode", "2"],
                     ["verify-chd", str(bundle), "--samples", "50"]):
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error:") and "Traceback" not in err
            assert f"unknown mode {mode!r}" in err and "basis.bin" not in err

    @pytest.mark.parametrize("m_plan", [7, 0, 7.0, "7", True, None, "missing"])
    def test_m_plan_not_the_sketch_m_exits_2(self, tmp_path, points_csv, capsys, m_plan):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        m = json.loads((bundle / "sketch.json").read_text())["m"]
        assert meta["m_plan"] == m and m != 7
        if m_plan == "missing":
            del meta["m_plan"]
        else:
            meta["m_plan"] = m_plan
        cfg.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="m_plan"):
            load_bundle(bundle)
        rc = main(["verify-chd", str(bundle), "--samples", "50"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err

    def test_m_plan_not_an_integer_exits_2(self, tmp_path, bundle, capsys):
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        meta["m_plan"] = "banana"
        cfg.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="m_plan"):
            load_bundle(bundle)
        rc = main(["verify-chd", str(bundle), "--samples", "50"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err

    def test_verify_chd_reports_the_sketch_m(self, tmp_path, points_csv):
        bundle = tmp_path / "sk"
        assert main(["build", points_csv, "--out", str(bundle),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        report = tmp_path / "chd.json"
        assert main(["verify-chd", str(bundle), "--samples", "50", "--report", str(report)]) == 0
        m = json.loads((bundle / "sketch.json").read_text())["m"]
        assert json.loads(report.read_text())["m"] == m

    def test_bundle_with_threads_key_still_loads(self, tmp_path, bundle, capsys):
        qpath = write_csv(tmp_path / "q.csv", np.random.default_rng(4).standard_normal((3, 12)))
        assert main(["query", str(bundle), qpath, str(tmp_path / "new.csv")]) == 0
        cfg = bundle / "config.json"
        meta = json.loads(cfg.read_text())
        assert "threads" not in meta
        meta["threads"] = 1
        cfg.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
        assert main(["query", str(bundle), qpath, str(tmp_path / "old.csv")]) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()

    def test_threads_flag_is_gone(self, tmp_path, points_csv):
        assert main(["build", points_csv, "--out", str(tmp_path / "b"), "--threads", "2"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["verify-chd", "{bundle}", "--samples", "0", "--report", "{out}"],
            ["verify-chd", "{bundle}", "--samples", "-3", "--report", "{out}"],
            ["eval", "{bundle}", "--queries-per-mode", "0", "--report", "{out}"],
            ["eval", "{bundle}", "--samplers", "bogus", "--report", "{out}"],
            ["eval", "{bundle}", "--samplers", "shell", "--report", "{out}"],
            ["eval", "{bundle}", "--samplers", "box,shell:nan", "--report", "{out}"],
            ["eval", "{bundle}", "--samplers", "shell:0.1,shell:0.1", "--report", "{out}"],
            ["eval", "{bundle}", "--samplers", "box,box", "--report", "{out}"],
            ["scaling", "{points}", "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
             "--chd-samples", "0", "--out", "{out}"],
            ["scaling", "{points}", "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
             "--queries-per-mode", "0", "--out", "{out}"],
            ["scaling", "{points}", "--epsilons", "half", "--consts", "0.5", "--seeds", "0",
             "--out", "{out}"],
            ["build", "{points}", "--out", "{out}", "--solver-iters", "2.5"],
            ["build", "{points}", "--out", "{out}", "--solver-iters", "nan"],
            ["scaling", "{points}", "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
             "--solver-iters", "-1", "--out", "{out}"],
            ["build", "{points}", "--out", "{out}", "--solver-iters", "-5"],
            # build's plan flags; scaling takes its grid from --epsilons, --consts, --seeds
            ["scaling", "{points}", "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
             "--epsilon", "0.1", "--out", "{out}"],
            ["scaling", "{points}", "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
             "--const-C", "99", "--out", "{out}"],
            ["scaling", "{points}", "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
             "--seed", "5", "--out", "{out}"],
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, bundle, points_csv, capsys, flags):
        subs = {"{bundle}": str(bundle), "{points}": points_csv, "{out}": str(tmp_path / "new")}
        before = sorted(tmp_path.rglob("*"))
        rc = main([subs.get(f, f) for f in flags])
        out, err = capsys.readouterr()
        assert rc == 1 and err.startswith("usage error:") and out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("const", ["nan", "inf", "1e308"])  # 1e308: m overflows
    def test_bad_plan_constant_exits_2(self, tmp_path, points_csv, capsys, const):
        before = sorted(tmp_path.rglob("*"))
        rc = main(["build", points_csv, "--out", str(tmp_path / "new"), "--const-C", const])
        out, err = capsys.readouterr()
        assert rc == 2 and err.startswith("error:") and "C" in err and out == ""
        assert sorted(tmp_path.rglob("*")) == before


def _scaling_rows(tmp_path, points, epsilons, consts, seeds, *flags):
    out = tmp_path / "scaling.json"
    assert main(["scaling", points, "--epsilons", epsilons, "--consts", consts,
                 "--seeds", seeds, *flags, "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestScalingCommand:
    def test_csv_output(self, tmp_path, points_csv):
        out = tmp_path / "table.csv"
        rc = main(["scaling", points_csv, "--epsilons", "0.5", "--consts", "0.5,1.0",
                   "--seeds", "0,1", "--queries-per-mode", "2",
                   "--chd-samples", "100", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 2x2 factorial

    def test_json_output(self, tmp_path, points_csv):
        out = tmp_path / "table.json"
        rc = main(["scaling", points_csv, "--epsilons", "0.5", "--consts", "1.0",
                   "--seeds", "0", "--queries-per-mode", "2",
                   "--chd-samples", "100", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert rows[0]["epsilon"] == 0.5

    def test_json_suffix_in_any_case(self, tmp_path, points_csv):
        # pointio reads suffixes case-insensitively; so does scaling's --out.
        for name in ("t.json", "t.JSON", "t.Json"):
            out = tmp_path / name
            assert main(["scaling", points_csv, "--epsilons", "0.5", "--consts", "1.0",
                         "--seeds", "0", "--queries-per-mode", "2",
                         "--chd-samples", "100", "--out", str(out)]) == 0
            assert json.loads(out.read_text())[0]["epsilon"] == 0.5

    def test_rows_echo_grid_and_plan_m(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", np.random.default_rng(1).standard_normal((12, 12)))
        rows = _scaling_rows(tmp_path, path, "0.5", "0.5,1.0", "0,1",
                             "--queries-per-mode", "3", "--chd-samples", "100")
        assert [(r["epsilon"], r["C"], r["seed"]) for r in rows] == [
            (0.5, 0.5, 0), (0.5, 0.5, 1), (0.5, 1.0, 0), (0.5, 1.0, 1)
        ]
        for row in rows:
            plan = plan_dimension(12, row["epsilon"], row["C"], 12)
            assert row["m"] == plan.m and row["mode"] == plan.mode

    def test_doubling_C_median_violation_not_worse(self, tmp_path):
        # sketch mode for both C values: n=32, d=32, eps=0.5 (m=14, 28)
        path = write_csv(tmp_path / "p.csv", np.random.default_rng(2).standard_normal((32, 32)))
        rows = _scaling_rows(tmp_path, path, "0.5", "0.5,1.0", "0,1,2,3,4",
                             "--queries-per-mode", "2", "--chd-samples", "400")
        by_c = {}
        for row in rows:
            assert row["mode"] == "sketch"
            by_c.setdefault(row["C"], []).append(row["chd_max_violation"])
        assert np.median(by_c[1.0]) <= np.median(by_c[0.5])

    def test_plan_uses_dimension(self, tmp_path):
        # n=12, d=6, eps=0.5: m=10 (C=0.5) is < n but >= d, so the exact path
        path = write_csv(tmp_path / "p.csv", np.random.default_rng(1).standard_normal((12, 6)))
        rows = _scaling_rows(tmp_path, path, "0.5", "0.5", "0",
                             "--queries-per-mode", "2", "--chd-samples", "50")
        assert plan_dimension(12, 0.5, 0.5).mode == "sketch"
        assert rows[0]["m"] == 10 and rows[0]["mode"] == "exact_small"
        assert rows[0]["chd_max_violation"] == 0.0

    def test_csv_table_shape(self, tmp_path, capsys):
        path = write_csv(tmp_path / "p.csv", np.random.default_rng(3).standard_normal((6, 4)))
        assert main(["scaling", path, "--epsilons", "0.5", "--consts", "1.0", "--seeds", "0",
                     "--queries-per-mode", "2", "--chd-samples", "50"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "epsilon,C,seed,m,mode,chd_max_violation,max_ratio_dev"
        assert len(lines) == 2 and lines[1].startswith("0.5,1.0,0,")

    def test_direction_set_built_once_per_call(self, tmp_path, monkeypatch):
        pts = np.random.default_rng(1).standard_normal((12, 12))
        path = write_csv(tmp_path / "p.csv", pts)
        built = []
        original = cli.direction_set
        monkeypatch.setattr(cli, "direction_set", lambda P: built.append(P) or original(P))
        rows = _scaling_rows(tmp_path, path, "0.5,0.9", "0.5,1.0", "0,1",
                             "--queries-per-mode", "2", "--chd-samples", "50")
        assert sum(row["mode"] == "sketch" for row in rows) == 6
        assert len(built) == 1 and np.array_equal(built[0].points, pts)
        built.clear()
        _scaling_rows(tmp_path, path, "0.5", "1.0", "0", "--queries-per-mode", "2")
        assert built == []  # exact path only: no direction set

    def test_empty_grid_is_usage_error(self, tmp_path, points_csv, capsys):
        grid = {"--epsilons": "0.5", "--consts": "0.5", "--seeds": "0"}
        for flag in grid:
            argv = [f for pair in {**grid, flag: ""}.items() for f in pair]
            before = sorted(tmp_path.rglob("*"))
            rc = main(["scaling", points_csv, *argv, "--out", str(tmp_path / "s.json")])
            out, err = capsys.readouterr()
            assert rc == 1 and err.startswith("usage error:") and out == ""
            assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "shape, eps, dist, tier",
        [((60, 40), "0.5", "gaussian", "midpoint"), ((8, 8), "0.9", "gaussian", "random"),
         ((12, 6), "0.5", "rademacher", None)],
        ids=["sketch", "random_witness", "exact_small"],
    )
    def test_row_equals_verify_chd_and_eval(self, tmp_path, shape, eps, dist, tier):
        # A scaling cell is what build, verify-chd and eval report on a bundle
        # built with the same epsilon, C, seed and --dist. The 8-point set's
        # witness comes from the random tier, so it depends on the seed.
        path = write_csv(tmp_path / "p.csv", np.random.default_rng(5).standard_normal(shape))
        plan = ["--dist", dist, "--solver-iters", "300"]
        [row] = _scaling_rows(tmp_path, path, eps, "0.5", "3", "--queries-per-mode", "3",
                              "--chd-samples", "3000", *plan)
        bundle = str(tmp_path / "b")
        assert main(["build", path, "--out", bundle, "--epsilon", eps, "--const-C", "0.5",
                     "--seed", "3", *plan]) == 0
        chd, ev = tmp_path / "chd.json", tmp_path / "eval.json"
        assert main(["verify-chd", bundle, "--samples", "3000", "--seed", "3",
                     "--report", str(chd)]) == 0
        assert main(["eval", bundle, "--queries-per-mode", "3", "--seed", "3",
                     "--report", str(ev)]) == 0
        chd, ev = json.loads(chd.read_text()), json.loads(ev.read_text())
        assert chd["witness_tier"] == tier and row["mode"] == ev["config"]["mode"]
        assert row["m"] == ev["config"]["m_plan"]
        assert row["chd_max_violation"] == chd["max_violation"]
        assert row["max_ratio_dev"] == ev["max_abs_ratio_dev"]


class TestAuditBudget:
    """verify-chd and scaling check the direction set's size against
    chd.MAX_DIRECTION_BYTES and chd.MAX_MIDPOINTS before building it."""

    @pytest.fixture
    def audit_bundle(self, tmp_path):
        # The benchmark's audit shape: n=64, d=256, eps=0.5, C=1 gives m=34,
        # 4032 directions (8.9 MiB with their images).
        path = write_csv(tmp_path / "p.csv", np.random.default_rng(8).standard_normal((64, 256)))
        out = tmp_path / "bundle"
        assert main(["build", path, "--out", str(out), "--epsilon", "0.5", "--const-C", "1",
                     "--seed", "1"]) == 0
        return out

    def test_serve_shape_is_refused(self):
        # n=1200, d=256, m=227: 2.95 GB of directions and 2.61 GB of images.
        with pytest.raises(TooManyDirections) as info:
            chd.check_audit_size(1200, 256, 227)
        msg = str(info.value)
        assert "n=1200" in msg and "5302.0 MiB" in msg and "517536360000 pair midpoints" in msg
        assert "256 MiB" in msg and str(chd.MAX_MIDPOINTS) in msg

    @pytest.mark.parametrize("n, d, m", [(64, 256, 34), (40, 16, 15), (60, 40, 32),
                                         (256, 256, 34), (1, 256, 34), (8, 524287, 1)])
    def test_audit_ci_and_golden_shapes_fit(self, n, d, m):
        chd.check_audit_size(n, d, m)

    @pytest.mark.parametrize("n, d, m", [(257, 256, 34), (9, 524287, 1)])
    def test_just_over_either_budget_is_refused(self, n, d, m):
        with pytest.raises(TooManyDirections):
            chd.check_audit_size(n, d, m)

    @pytest.mark.parametrize("budget", ["MAX_DIRECTION_BYTES", "MAX_MIDPOINTS"])
    def test_verify_chd_over_budget_exits_2_before_allocating(
        self, tmp_path, audit_bundle, monkeypatch, capsys, budget
    ):
        monkeypatch.setattr(chd, budget, getattr(chd, budget) // 1024)
        report = tmp_path / "chd.json"
        tracemalloc.start()
        try:
            rc = main(["verify-chd", str(audit_bundle), "--samples", "100",
                       "--report", str(report)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and not report.exists()
        assert err.startswith("error:") and "n=64" in err and "8.9 MiB" in err
        assert "4064256 pair midpoints" in err
        # The refusal comes before the 8.9 MiB direction set is built.
        assert peak < 2**20

    def test_scaling_over_budget_exits_2_without_a_table(self, tmp_path, monkeypatch, capsys):
        path = write_csv(tmp_path / "p.csv", np.random.default_rng(1).standard_normal((12, 12)))
        monkeypatch.setattr(chd, "MAX_MIDPOINTS", 100)
        built = []
        monkeypatch.setattr(cli, "direction_set", built.append)
        out = tmp_path / "s.json"
        rc = main(["scaling", path, "--epsilons", "0.5", "--consts", "0.5", "--seeds", "0",
                   "--queries-per-mode", "2", "--chd-samples", "50", "--out", str(out)])
        assert rc == 2 and "n=12" in capsys.readouterr().err
        assert built == [] and not out.exists()


class TestSeedFallback:
    def test_te_seed_env(self, tmp_path, points_csv, monkeypatch):
        monkeypatch.setenv("TE_SEED", "99")
        out1 = tmp_path / "b1"
        assert main(["build", points_csv, "--out", str(out1),
                     "--epsilon", "0.5", "--const-C", "0.5"]) == 0
        cfg = json.loads((out1 / "config.json").read_text())
        assert cfg["seed"] == 99

    def test_explicit_seed_beats_env(self, tmp_path, points_csv, monkeypatch):
        monkeypatch.setenv("TE_SEED", "99")
        out1 = tmp_path / "b1"
        assert main(["build", points_csv, "--out", str(out1),
                     "--epsilon", "0.5", "--const-C", "0.5", "--seed", "5"]) == 0
        cfg = json.loads((out1 / "config.json").read_text())
        assert cfg["seed"] == 5

    def test_bad_te_seed_is_usage_error(self, tmp_path, points_csv, monkeypatch, capsys):
        monkeypatch.setenv("TE_SEED", "abc")
        out = tmp_path / "b1"
        rc = main(["build", points_csv, "--out", str(out), "--epsilon", "0.5", "--const-C", "0.5"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("usage error:") and "TE_SEED" in err
        assert not out.exists()


def _coincident_points():
    """6 x 8 Gaussian rows whose rows 0 and 1 differ only by 1e-200 in
    coordinate 0: distinct, but their squared distance underflows."""
    pts = np.random.default_rng(58).standard_normal((6, 8))
    pts[0, 0] = 0.0
    pts[1] = pts[0]
    pts[1, 0] = 1e-200
    return pts


class TestCoincidentTerminals:
    """Terminals closer than geometry.MIN_DISTANCE: build accepts the set
    (refusing it would need a near-pair search), and every command that
    forms a direction between them exits 2 naming the pair."""

    @pytest.fixture
    def points(self, tmp_path):
        return write_csv(tmp_path / "near.csv", _coincident_points())

    @pytest.fixture
    def bundle(self, tmp_path, points, capsys):
        out = tmp_path / "bundle"
        assert main(["build", points, "--out", str(out), "--epsilon", "0.5", "--const-C", "0.1",
                     "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "sketch"
        return out

    @pytest.mark.parametrize("command", ["query@0", "query@1", "eval", "verify-chd", "scaling"])
    def test_exits_2_naming_the_pair(self, tmp_path, points, bundle, capsys, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if command.startswith("query"):
            anchor = int(command[-1])
            q = write_csv(tmp_path / "q.csv", _coincident_points()[anchor : anchor + 1] + 0.01)
            argv = ["query", str(bundle), q, str(out_dir / "q_out.csv")]
        elif command == "eval":
            argv = ["eval", str(bundle), "--queries-per-mode", "3",
                    "--report", str(out_dir / "e.json")]
        elif command == "verify-chd":
            argv = ["verify-chd", str(bundle), "--samples", "50", "--report", str(out_dir / "c.json")]
        else:
            argv = ["scaling", points, "--epsilons", "0.5", "--consts", "0.1", "--seeds", "1",
                    "--queries-per-mode", "2", "--chd-samples", "50", "--out", str(out_dir / "s.json")]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: points 0 and 1 are 1e-200 apart, closer than MIN_DISTANCE")
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_query_anchored_elsewhere_embeds(self, tmp_path, bundle):
        q = write_csv(tmp_path / "q.csv", _coincident_points()[3:5] + 0.01)
        out = tmp_path / "q_out.csv"
        assert main(["query", str(bundle), q, str(out)]) == 0
        images = read_points_csv(out)
        assert images.shape == (2, 3) and np.all(np.isfinite(images))
        diag = json.loads((tmp_path / "q_out.csv.diag.json").read_text())
        assert [rec["anchor_index"] for rec in diag["per_query"]] == [3, 4]


class TestQueryNearATerminal:
    @pytest.mark.parametrize("command", ["query", "eval"])
    @pytest.mark.parametrize("mode,C", [("sketch", "0.25"), ("exact_small", "4")])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, mode, C, command):
        # Query 1 is 1e-170 from terminal 0: closer than MIN_DISTANCE, not equal.
        pts = np.random.default_rng(62).standard_normal((30, 8))
        pts[0, 0] = 0.0
        q = np.vstack([pts[3] + 0.5, pts[0]])
        q[1, 0] = 1e-170
        q, bundle, out = write_csv(tmp_path / "q.csv", q), str(tmp_path / "b"), tmp_path / "out"
        assert main(["build", write_csv(tmp_path / "pts.csv", pts), "--out", bundle,
                     "--epsilon", "0.5", "--const-C", C, "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == mode
        out.mkdir()
        argv = (["query", bundle, q, str(out / "q.csv")] if command == "query" else
                ["eval", bundle, "--queries-file", q, "--report", str(out / "e.json")])
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "Traceback" not in err
        assert err.startswith("error: query 1 is 1e-170 from point 0, closer than MIN_DISTANCE")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("per_mode", ["3", "25"])
    def test_default_suite_draws_no_query_that_close(self, tmp_path, capsys, per_mode):
        # Every pair of these terminals is farther apart than MIN_DISTANCE, but
        # a hundredth of the spacing, and a segment end, can fall below it.
        pts = np.random.default_rng(62).standard_normal((30, 8)) * 1e-153
        bundle, report = str(tmp_path / "b"), tmp_path / "e.json"
        assert main(["build", write_csv(tmp_path / "pts.csv", pts), "--out", bundle,
                     "--epsilon", "0.5", "--const-C", "0.25", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["eval", bundle, "--queries-per-mode", per_mode, "--report", str(report)]) == 0
        assert capsys.readouterr().err == ""
        rep = json.loads(report.read_text())
        assert rep["query_count"] == 8 * int(per_mode)
        assert rep["pair_count"] == rep["query_count"] * 30 - int(per_mode)


class TestOneProcess:
    """main builds its argument parser once per process: commands run one
    after another in one process give the exit codes, stdout, stderr and
    files that fresh processes give."""

    COMMANDS = [
        ["build", "pts.csv", "--out", "b", "--epsilon", "0.5", "--const-C", "0.5", "--seed", "4"],
        ["build", "pts.csv", "--epsilon", "0.5"],  # no --out: a usage error
        ["query", "b", "q.csv", "out.csv"],
        ["eval", "b", "--queries-per-mode", "3", "--report", "eval.json"],
        ["verify-chd", "b", "--samples", "200"],
        ["verify-chd", "b", "--samples", "0"],  # out of range: a usage error
        ["query", "b", "q.bin", "out.bin"],
        ["query", "b", "missing.csv", "none.csv"],  # no such file: an input error
    ]

    def _inputs(self, path):
        path.mkdir()
        rng = np.random.default_rng(21)
        write_csv(path / "pts.csv", rng.standard_normal((30, 12)))
        write_csv(path / "q.csv", rng.standard_normal((6, 12)))
        write_points_bin(path / "q.bin", rng.standard_normal((4, 12)))

    def _files(self, path):
        files = sorted(p for p in path.rglob("*") if p.is_file())
        return {str(p.relative_to(path)): p.read_bytes() for p in files}

    def test_same_results_as_fresh_processes(self, tmp_path, monkeypatch, capsys):
        self._inputs(tmp_path / "one")
        monkeypatch.chdir(tmp_path / "one")
        capsys.readouterr()
        one = []
        for argv in self.COMMANDS:
            rc = main(argv)
            one.append((rc, *capsys.readouterr()))
        assert cli.build_parser() is cli.build_parser()

        self._inputs(tmp_path / "fresh")
        package_root = str(Path(termembed.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "TE_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        fresh = []
        for argv in self.COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "termembed.cli", *argv],
                                  cwd=tmp_path / "fresh", env=env, capture_output=True, text=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))

        assert [r[0] for r in one] == [0, 1, 0, 0, 0, 1, 0, 2]
        assert one == fresh
        assert self._files(tmp_path / "one") == self._files(tmp_path / "fresh")


class TestOneCopyOfTheTerminals:
    """build, load_bundle (query, verify-chd, eval) and scaling make the
    reader's fresh terminal array the point set's points, with no copy."""

    @pytest.mark.parametrize("command", ["build", "eval", "scaling"])
    def test_point_set_wraps_the_read_array(self, tmp_path, monkeypatch, command):
        rng = np.random.default_rng(5)
        pts = write_csv(tmp_path / "pts.csv", rng.standard_normal((20, 8)))
        bundle = str(tmp_path / "b")
        assert main(["build", pts, "--out", bundle, "--epsilon", "0.5", "--const-C", "0.25"]) == 0
        read, built = [], []
        for reader in ("read_points", "read_points_bin"):
            original = getattr(cli.pointio, reader)
            monkeypatch.setattr(
                cli.pointio, reader, lambda *a, _f=original: read.append(_f(*a)) or read[-1]
            )
        build_point_set = cli.build_point_set
        monkeypatch.setattr(
            cli, "build_point_set", lambda *a, **k: built.append(build_point_set(*a, **k)) or built[-1]
        )
        argv = {
            "build": ["build", pts, "--out", bundle, "--epsilon", "0.5", "--const-C", "0.25"],
            "eval": ["eval", bundle, "--queries-per-mode", "2", "--report", str(tmp_path / "r.json")],
            "scaling": ["scaling", pts, "--epsilons", "0.5", "--consts", "0.25", "--seeds", "1",
                        "--queries-per-mode", "2", "--chd-samples", "50", "--out", str(tmp_path / "s.json")],
        }[command]
        assert main(argv) == 0
        assert len(built) == 1 and built[0].points is read[0]
