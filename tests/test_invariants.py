"""Metamorphic invariants.

Scaling the terminals and the queries by a power of 2 scales every distance
exactly, so the images scale by the same factor bit for bit, and the ratios
eval reports and the hull estimate do not change at all, in the library and
through the CLI's files. Powers far above and below 1 keep every constant
that is not relative to the data (the solver's 1e-300 floor, MIN_DISTANCE,
the underflow terms of the rounding bounds) from deciding anything.

Permuting the terminals permutes the anchors and keeps every solve's status
and iteration count, but row order enters the solve's sums, so images agree
only within a stated bound where the solves iterate long."""
import json

import numpy as np
import pytest

from termembed import (
    build_embedder,
    build_point_set,
    direction_set,
    estimate_sampled,
    evaluate,
    exact_small_embedding,
    generate_sketch,
    plan_dimension,
    sample_suite,
)
from termembed import harness
from termembed.cli import main
from termembed.pointio import read_points_csv, write_points_csv

SCALES = (7, -9, 40, -60)


def _queries(pts, count, seed):
    """Gaussian queries around the terminals' spread, then five terminals
    (R = 0)."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((count, pts.shape[1])), pts[:5]])


def _sketch_embedder(pts, epsilon, C, seed):
    X = build_point_set(pts)
    plan = plan_dimension(X.n, epsilon, C, X.d)
    assert plan.mode == "sketch"
    return build_embedder(X, generate_sketch(plan.m, X.d, "gaussian", seed), epsilon)


# name: (n, d, epsilon, C, m). The first a tight sketch, where the solver
# iterates; the second tighter, where most solves end certified infeasible
# and some run to max_iters.
EMBED_CASES = {"tight": (200, 64, 0.25, 0.25, 43), "small": (30, 16, 0.1, 0.02, 14)}


@pytest.mark.parametrize("name", sorted(EMBED_CASES))
@pytest.mark.parametrize("k", SCALES)
def test_embed_batch_images_scale_exactly(name, k):
    n, d, epsilon, C, m = EMBED_CASES[name]
    pts = np.random.default_rng(n).standard_normal((n, d))
    Q = _queries(pts, 40, n + 1)
    base = _sketch_embedder(pts, epsilon, C, 1)
    scaled = _sketch_embedder(np.ldexp(pts, k), epsilon, C, 1)
    assert base.m == scaled.m == m
    images, records = base.embed_batch(Q)
    s_images, s_records = scaled.embed_batch(np.ldexp(Q, k))
    assert np.array_equal(s_images, np.ldexp(images, k))
    for key in ("status", "iterations", "anchor_index"):
        assert [r[key] for r in s_records] == [r[key] for r in records], key
    assert any(r["iterations"] > 0 for r in records)


def _eval_case(name):
    """(embedder factory over points, points): a 300 x 6 set on the exact
    path and on an m = 4 sketch, each unshifted and shifted by 1e8."""
    path, shift = name.split("-")
    pts = np.random.default_rng(6).standard_normal((300, 6))
    if shift == "shifted":
        pts = pts + 1e8
    if path == "exact":
        return (lambda P: exact_small_embedding(build_point_set(P))), pts
    return (lambda P: build_embedder(build_point_set(P), generate_sketch(4, 6, "gaussian", 1), 0.5)), pts


EVAL_CASES = ("exact-plain", "exact-shifted", "sketch-plain", "sketch-shifted")


def test_eval_cases_cover_the_exact_passes(monkeypatch):
    # Three of the four cases fill the ratio table by the exact passes: the
    # exact path (every ratio 1 to a few ulps) and the 1e8 offset.
    original, taken = harness._PairRatios._exact, []

    def spy(self):
        taken.append(name)
        original(self)

    monkeypatch.setattr(harness._PairRatios, "_exact", spy)
    for name in EVAL_CASES:
        make, pts = _eval_case(name)
        evaluate(make(pts), *sample_suite(build_point_set(pts), 5, 3))
    assert set(taken) == {"exact-plain", "exact-shifted", "sketch-shifted"}


@pytest.mark.parametrize("name", EVAL_CASES)
@pytest.mark.parametrize("k", SCALES)
def test_eval_report_is_scale_free(name, k):
    make, pts = _eval_case(name)
    Q, labels = sample_suite(build_point_set(pts), 5, 3)
    base = evaluate(make(pts), Q, labels).to_dict()
    scaled = evaluate(make(np.ldexp(pts, k)), np.ldexp(Q, k), labels).to_dict()
    base.pop("config")
    scaled.pop("config")
    assert scaled == base
    assert base["pair_count"] > 0


@pytest.mark.parametrize("k", (7, -9, 30, -30))
def test_hull_estimate_is_scale_free(k):
    pts = np.random.default_rng(24).standard_normal((24, 10))
    pi = generate_sketch(5, 10, "gaussian", 24)
    base = estimate_sampled(pi, direction_set(build_point_set(pts)), 400, seed=2)
    scaled = estimate_sampled(pi, direction_set(build_point_set(np.ldexp(pts, k))), 400, seed=2)
    assert scaled.max_violation == base.max_violation
    assert np.array_equal(scaled.witness.weights, base.witness.weights)
    assert scaled.witness_tier == base.witness_tier
    assert scaled.tier_max == base.tier_max


# name: (epsilon, C, m, mode) of the CLI runs on a 60 x 24 set: the exact
# path (m >= d) and a sketch where the solver iterates and verify-chd audits.
CLI_CASES = {"exact": (0.25, 0.25, 33, "exact_small"), "sketch": (0.25, 0.1, 14, "sketch")}


def _cli_outputs(tmp, pts, Q, epsilon, C):
    """build, query, eval and verify-chd on the terminals pts (one --seed for
    all): the query images, the diagnostics' per-query records, the eval
    report without its config echo (which holds paths) and the verify-chd
    report's bytes."""
    tmp.mkdir()
    write_points_csv(tmp / "x.csv", pts)
    write_points_csv(tmp / "q.csv", Q)
    bundle = str(tmp / "bundle")
    assert main(["build", str(tmp / "x.csv"), "--out", bundle, "--epsilon", str(epsilon),
                 "--const-C", str(C), "--seed", "5"]) == 0
    assert main(["query", bundle, str(tmp / "q.csv"), str(tmp / "out.csv")]) == 0
    assert main(["eval", bundle, "--queries-per-mode", "5",
                 "--report", str(tmp / "eval.json")]) == 0
    assert main(["verify-chd", bundle, "--samples", "2000",
                 "--report", str(tmp / "chd.json")]) == 0
    report = json.loads((tmp / "eval.json").read_text())
    config = report.pop("config")
    return {
        "mode": (config["m_plan"], config["mode"]),
        "images": read_points_csv(tmp / "out.csv"),
        "per_query": json.loads((tmp / "out.csv.diag.json").read_text())["per_query"],
        "eval": report,
        "chd": (tmp / "chd.json").read_bytes(),
    }


def _cli_inputs():
    """A 60 x 24 Gaussian set and 30 queries drawn as 1.5 N(0, I), every
    fifth one a terminal (R = 0)."""
    rng = np.random.default_rng(60)
    pts = rng.standard_normal((60, 24))
    Q = 1.5 * rng.standard_normal((30, 24))
    Q[::5] = pts[:6]
    return pts, Q


@pytest.fixture(scope="module")
def cli_base(tmp_path_factory):
    pts, Q = _cli_inputs()
    root = tmp_path_factory.mktemp("cli_base")
    return {name: _cli_outputs(root / name, pts, Q, eps, C)
            for name, (eps, C, _, _) in CLI_CASES.items()}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
@pytest.mark.parametrize("k", SCALES)
def test_cli_outputs_scale_exactly(cli_base, tmp_path, name, k):
    epsilon, C, m, mode = CLI_CASES[name]
    pts, Q = _cli_inputs()
    base = cli_base[name]
    scaled = _cli_outputs(tmp_path / "scaled", np.ldexp(pts, k), np.ldexp(Q, k), epsilon, C)
    assert base["mode"] == scaled["mode"] == (m, mode)
    assert np.array_equal(scaled["images"], np.ldexp(base["images"], k))
    assert scaled["per_query"] == base["per_query"]
    assert scaled["eval"] == base["eval"]
    assert scaled["chd"] == base["chd"]
    if mode == "sketch":
        assert any(r["iterations"] > 0 for r in base["per_query"])


# EMBED_CASES and an m = 8 set, with queries 2 N(0, I): on "tight" every
# solve meets its target, on the other two most end certified infeasible or
# undecided after many iterations.
PERMUTE_CASES = {**EMBED_CASES, "m8": (40, 16, 0.1, 0.01, 8)}
# Where images are not bit-equal under a permutation ("small": 61 of 80 rows
# differ), they stay within IMAGE_SPREAD * R of each other, R the query's
# anchor distance: 5 times the largest spread measured (2.3e-8 R over three
# draws of that shape). Relative residuals measured within 3.1e-16.
IMAGE_SPREAD = 1e-7
RESIDUAL_SPREAD = 1e-14


def _permuted(name):
    n, d, epsilon, C, m = PERMUTE_CASES[name]
    rng = np.random.default_rng([n, 0])
    pts = rng.standard_normal((n, d))
    Q = 2.0 * rng.standard_normal((80, d))
    perm = rng.permutation(n)
    assert plan_dimension(n, epsilon, C, d).m == m
    pi = generate_sketch(m, d, "gaussian", 1)
    return pi, build_point_set(pts), build_point_set(pts[perm]), perm, Q, epsilon


@pytest.mark.parametrize("name", sorted(PERMUTE_CASES))
def test_permuted_terminals_keep_every_solve(name):
    pi, X, X_perm, perm, Q, epsilon = _permuted(name)
    images, records = build_embedder(X, pi, epsilon).embed_batch(Q)
    p_images, p_records = build_embedder(X_perm, pi, epsilon).embed_batch(Q)
    assert [r["anchor_index"] for r in records] == [perm[r["anchor_index"]] for r in p_records]
    for key in ("status", "iterations"):
        assert [r[key] for r in p_records] == [r[key] for r in records], key
    R = np.array([np.linalg.norm(u - X.points[r["anchor_index"]]) for u, r in zip(Q, records)])
    if name == "small":
        assert np.all(np.abs(p_images - images) <= IMAGE_SPREAD * R[:, None])
        gaps = [abs(r["residual"] - p["residual"]) for r, p in zip(records, p_records)]
        assert max(gaps) <= RESIDUAL_SPREAD
    else:
        assert np.array_equal(p_images, images)
        assert p_records == [{**r, "anchor_index": p["anchor_index"]}
                             for r, p in zip(records, p_records)]


@pytest.mark.parametrize("name", ["m8", "small"])
def test_permuted_terminals_keep_vertex_and_midpoint_maxima(name):
    # The random tier's samples index the direction set's order, so only the
    # two exhaustive tiers are compared.
    pi, X, X_perm, _, _, _ = _permuted(name)
    base = estimate_sampled(pi, direction_set(X), 2000, seed=3).tier_max
    permuted = estimate_sampled(pi, direction_set(X_perm), 2000, seed=3).tier_max
    for tier in ("vertex", "midpoint"):
        assert permuted[tier] == base[tier], tier
