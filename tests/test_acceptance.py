"""Acceptance suite: one test per criterion, each timed against its stated
budget and printing a PASS line (run with `pytest tests/test_acceptance.py -v -s`).
"""
import json
import math
import time

import numpy as np

import termembed as te
from termembed.cli import main as cli_main
from termembed.pointio import write_points_csv
from termembed.sketch import SketchMatrix
from chd_oracles import certify_grid, refine_local, sampled_violations


def _report(num, label, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"[acceptance {num}] PASS {label} ({elapsed:.2f}s < {budget}s)", flush=True)


def test_criterion_1_efn_sharpness():
    """Snap-to-nearest on X={-1,0,2} with the identity base map and query
    u=1 gives distances sqrt(2), sqrt(5) and terminal distortion sqrt(10)."""
    t0 = time.time()
    X = te.build_point_set([(-1.0,), (0.0,), (2.0,)])
    f = te.EfnEmbedder(X, X.points).embed((1.0,))
    d_minus1 = np.linalg.norm(f - np.array([-1.0, 0.0]))
    d_plus2 = np.linalg.norm(f - np.array([2.0, 0.0]))
    assert abs(d_minus1 - math.sqrt(2)) <= 1e-9
    assert abs(d_plus2 - math.sqrt(5)) <= 1e-9
    stretch = d_plus2 / 1.0          # true distance |1-2| = 1
    shrink = 2.0 / d_minus1          # true distance |1-(-1)| = 2
    assert abs(stretch * shrink - math.sqrt(10)) <= 1e-9
    _report(1, "EFN sharpness sqrt(10)", t0, 1.0)


def test_criterion_2_anchor_isometry():
    """1000 random queries on random X (n=64, d=128, eps=0.25): the anchor
    distance survives the lift to within 1e-6 * (1 + distance)."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    X = te.build_point_set(rng.standard_normal((64, 128)))
    plan = te.plan_dimension(64, 0.25, 4.0)
    pi = te.generate_sketch(plan.m, 128, "rademacher", te.derive_seed(202, "sketch"))
    E = te.build_embedder(X, pi, 0.25)
    queries, _ = te.sample_suite(X, 125, te.derive_seed(202, "samplers"))
    assert queries.shape[0] == 1000
    for u in queries:
        f, sol = E.embed_with_info(u)
        k = sol.anchor_index
        d_true = np.linalg.norm(u - X.points[k])
        d_emb = np.linalg.norm(f - E.terminal_images[k])
        assert abs(d_emb - d_true) <= 1e-6 * (1.0 + d_true)
    _report(2, "anchor isometry over 1000 queries", t0, 60.0)


def test_criterion_3_exact_regime_oracle():
    """m=d with an orthogonal sketch (zero hull violation): the solver must
    recover exact feasibility, distortion <= 1 + 1e-6 over 10^3 queries."""
    t0 = time.time()
    rng = np.random.default_rng(303)
    d = 32
    X = te.build_point_set(rng.standard_normal((32, d)))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    pi = SketchMatrix(entries=Q, distribution="gaussian", seed=0)
    E = te.build_embedder(X, pi, 1e-9)
    queries, labels = te.sample_suite(X, 125, te.derive_seed(303, "samplers"))
    rep = te.evaluate(E, queries, labels)
    distortion = max(rep.ratio_max, 1.0 / rep.ratio_min)
    assert distortion <= 1.0 + 1e-6
    _report(3, f"exact-regime distortion 1 + {distortion - 1.0:.2e}", t0, 60.0)


def test_criterion_4_squared_distance_bound_end_to_end():
    """Random X (n=64, d=256), eps=0.25, m from the dimension plan at C=4:
    over >= 10^4 (u, x_i) pairs from all five samplers, squared distances
    deviate by at most 20 * eps_hat * ||u - x_i||^2, with eps_hat the
    measured sampled hull violation plus the query's solver residual."""
    t0 = time.time()
    rng = np.random.default_rng(404)
    X = te.build_point_set(rng.standard_normal((64, 256)))
    plan = te.plan_dimension(64, 0.25, 4.0)
    pi = te.generate_sketch(plan.m, 256, "rademacher", te.derive_seed(404, "sketch"))
    E = te.build_embedder(X, pi, 0.25)
    Y = te.direction_set(X)
    chd_hat = te.estimate_sampled(pi, Y, 20000, te.derive_seed(404, "chd")).max_violation
    assert 0.0 < chd_hat < 1.0

    queries, _ = te.sample_suite(X, 25, te.derive_seed(404, "samplers"))
    pairs = 0
    for u in queries:
        f, sol = E.embed_with_info(u)
        eps_hat = chd_hat + sol.residual
        d2_true = np.einsum("ij,ij->i", X.points - u, X.points - u)
        diff = E.terminal_images - f
        d2_emb = np.einsum("ij,ij->i", diff, diff)
        assert np.all(np.abs(d2_emb - d2_true) <= 20.0 * eps_hat * d2_true)
        pairs += d2_true.size
    assert pairs >= 10**4
    _report(4, f"20*eps_hat bound, zero violations over {pairs} pairs", t0, 600.0)


def test_criterion_5_chd_concentration():
    """32 random unit directions with negations (|T| = 64), eps = 0.25,
    m = ceil(4 eps^-2 ln|T|): sampled max violation over 10^5 hull points is
    <= eps in at least 4 of 5 seeds, and the median violation strictly drops
    when m doubles."""
    t0 = time.time()
    d = 64
    rng = np.random.default_rng(505)
    half = rng.standard_normal((32, d))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    T = np.vstack([half, -half])
    m = math.ceil(4.0 * 0.25**-2 * math.log(T.shape[0]))
    assert m == 267

    passes = 0
    medians_m, medians_2m = [], []
    for s in range(5):
        pi1 = te.generate_sketch(m, d, "rademacher", te.derive_seed(s, "sketch-m"))
        pi2 = te.generate_sketch(2 * m, d, "rademacher", te.derive_seed(s, "sketch-2m"))
        est = te.estimate_sampled(pi1, T, 10**5, te.derive_seed(s, "chd"))
        if est.max_violation <= 0.25:
            passes += 1
        medians_m.append(np.median(sampled_violations(pi1, T, 10**5, te.derive_seed(s, "chd"))))
        medians_2m.append(np.median(sampled_violations(pi2, T, 10**5, te.derive_seed(s, "chd"))))
    assert passes >= 4
    for a, b in zip(medians_m, medians_2m):
        assert b < a
    _report(5, f"max <= eps in {passes}/5 seeds, medians strictly drop at 2m", t0, 600.0)


def test_criterion_6_grid_oracle_agreement():
    """On |T| <= 4, d <= 4 instances the sampled + local-ascent estimate
    lands in the Lipschitz-certified window [grid_max, grid_max + L*h] of
    certify_grid at h = 1e-3 (1e-9 slack for evaluation-order rounding)."""
    t0 = time.time()
    rng = np.random.default_rng(606)
    instances = []
    T2 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    pi2 = SketchMatrix(entries=np.diag([1.1, 1.0]), distribution="gaussian", seed=0)
    instances.append((T2, pi2))
    T3 = rng.standard_normal((3, 3))
    T3 /= np.linalg.norm(T3, axis=1, keepdims=True)
    instances.append((T3, te.generate_sketch(2, 3, "gaussian", 17)))
    T4 = rng.standard_normal((4, 4))
    T4 /= np.linalg.norm(T4, axis=1, keepdims=True)
    instances.append((T4, te.generate_sketch(3, 4, "gaussian", 42)))

    for T, pi in instances:
        grid = certify_grid(pi, T, 1e-3)
        sampled = te.estimate_sampled(pi, T, 20000, seed=1)
        refined = refine_local(pi, T, sampled.witness, iters=40)
        value = max(sampled.max_violation, refined.max_violation)
        assert value >= grid.max_violation - 1e-9
        assert value <= grid.max_violation + grid.lipschitz * grid.step + 1e-9
    _report(6, "sampled+ascent inside certified window on 3 instances", t0, 120.0)


def test_criterion_7_exact_small_path():
    """For n <= 6, d = 32 the exact embedding is an isometry to the
    terminals: max |ratio - 1| <= 1e-9 over 10^3 queries per instance."""
    t0 = time.time()
    rng = np.random.default_rng(707)
    for n in range(1, 7):
        X = te.build_point_set(rng.standard_normal((n, 32)))
        E = te.exact_small_embedding(X)
        queries, labels = te.sample_suite(X, 125, te.derive_seed(700 + n, "samplers"))
        assert queries.shape[0] == 1000
        rep = te.evaluate(E, queries, labels)
        if rep.pair_count:
            assert rep.max_abs_ratio_dev <= 1e-9
    _report(7, "exact small-n isometry for n=1..6", t0, 10.0)


def test_criterion_8_scalar_proof_fact():
    """max(1, (x-1)^2) >= (x^2 + 1)/5 on a 10^6-point grid over [0, 100]."""
    t0 = time.time()
    x = np.linspace(0.0, 100.0, 10**6)
    assert np.all(np.maximum(1.0, (x - 1.0) ** 2) >= (x * x + 1.0) / 5.0)
    _report(8, "scalar fact on 10^6 grid", t0, 10.0)


def test_criterion_9_reproducibility(tmp_path, capsys):
    """build + query twice with an identical RunConfig produce byte-identical
    bundles, outputs, and diagnostics."""
    t0 = time.time()
    rng = np.random.default_rng(909)
    pts_path = tmp_path / "pts.csv"
    write_points_csv(pts_path, rng.standard_normal((24, 10)))
    q_path = tmp_path / "q.csv"
    write_points_csv(q_path, rng.standard_normal((15, 10)))
    bundle = tmp_path / "bundle"
    out = tmp_path / "out.csv"
    build_args = ["build", str(pts_path), "--out", str(bundle),
                  "--epsilon", "0.5", "--const-C", "0.25", "--seed", "13"]
    query_args = ["query", str(bundle), str(q_path), str(out)]

    def run_once():
        assert cli_main(build_args) == 0
        assert cli_main(query_args) == 0
        blobs = {p.name: p.read_bytes() for p in sorted(bundle.iterdir())}
        blobs["out"] = out.read_bytes()
        blobs["diag"] = (tmp_path / "out.csv.diag.json").read_bytes()
        return blobs

    first = run_once()
    second = run_once()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    cfg = json.loads((bundle / "config.json").read_text())
    assert cfg["mode"] == "sketch"
    _report(9, "byte-identical build+query artifacts", t0, 60.0)
