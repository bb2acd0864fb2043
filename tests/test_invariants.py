"""Metamorphic invariants: scaling the terminals and the queries by a power
of 2 scales every distance exactly, so the images scale by the same factor
bit for bit, and the ratios eval reports and the hull estimate do not
change at all. Powers far above and below 1 keep every constant that is not
relative to the data (the solver's 1e-300 floor, MIN_DISTANCE, the
underflow terms of the rounding bounds) from deciding anything."""
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
