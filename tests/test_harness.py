import dataclasses
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termembed import (
    SolverConfig,
    build_embedder,
    build_point_set,
    evaluate,
    exact_small_embedding,
    generate_sketch,
    plan_dimension,
    sample_queries,
    sample_suite,
)
from termembed.extension import EfnEmbedder
from termembed import geometry, harness
from termembed.cli import _dump_json
from termembed.geometry import distances_to
from termembed.seeding import derive_seed
from termembed.sketch import SketchMatrix


@pytest.fixture
def X():
    return build_point_set(np.random.default_rng(0).standard_normal((8, 5)))


class TestSamplers:
    def test_member_returns_terminals(self, X):
        q = sample_queries(X, "member", 20, seed=1)
        for row in q:
            assert any(np.array_equal(row, p) for p in X.points)

    def test_shell_radius_exact(self, X):
        r = 0.37
        q = sample_queries(X, f"shell:{r}", 50, seed=2)
        for row in q:
            dists = np.linalg.norm(X.points - row, axis=1)
            assert abs(dists.min() - r) <= 1e-12

    def test_deterministic_per_seed(self, X):
        for mode in ("box", "segment", "shell:0.5", "far:2", "member", "shell_rel:0.1"):
            a = sample_queries(X, mode, 10, seed=9)
            b = sample_queries(X, mode, 10, seed=9)
            assert np.array_equal(a, b)

    def test_box_bounds(self, X):
        q = sample_queries(X, "box", 200, seed=3)
        lo, hi = X.points.min(axis=0), X.points.max(axis=0)
        c, half = (lo + hi) / 2, (hi - lo) / 2
        assert np.all(q >= c - 2 * half - 1e-12)
        assert np.all(q <= c + 2 * half + 1e-12)

    def test_segment_points_are_convex_combinations(self, X):
        q = sample_queries(X, "segment", 30, seed=4)
        for row in q:
            best = np.inf
            for i in range(X.n):
                for j in range(X.n):
                    if i == j:
                        continue
                    a, b = X.points[i], X.points[j]
                    t = np.clip((row - b) @ (a - b) / ((a - b) @ (a - b)), 0, 1)
                    best = min(best, np.linalg.norm(row - (t * a + (1 - t) * b)))
            assert best <= 1e-9

    @pytest.mark.parametrize("mode", ["segment", "shell_rel:0.1", "shell_rel:0.01"])
    def test_draws_keep_twice_min_distance_from_the_terminals(self, mode):
        # Every pair is farther apart than MIN_DISTANCE, but a tenth of the
        # spacing, and a segment end, can fall below it.
        Y = build_point_set(np.random.default_rng(62).standard_normal((30, 8)) * 1e-153)
        q = sample_queries(Y, mode, 100, seed=0)
        # math.hypot takes no square that could underflow.
        gap = min(math.hypot(*(u - p).tolist()) for u in q for p in Y.points)
        assert gap >= (2.0 - 1e-9) * geometry.MIN_DISTANCE

    def test_far_distance(self, X):
        s = 2.5
        q = sample_queries(X, f"far:{s}", 20, seed=5)
        centroid = X.points.mean(axis=0)
        diam = max(
            np.linalg.norm(a - b) for a in X.points for b in X.points
        )
        for row in q:
            assert abs(np.linalg.norm(row - centroid) - s * diam) <= 1e-9

    def test_unknown_mode(self, X):
        with pytest.raises(ValueError):
            sample_queries(X, "warp", 5, seed=0)

    @pytest.mark.parametrize("mode", ["shell", "shell:", "far:x", "shell_rel:nan", "box:1"])
    def test_bad_mode_parameter(self, X, mode):
        with pytest.raises(ValueError, match="mode"):
            sample_queries(X, mode, 5, seed=0)

    def test_tuple_mode(self, X):
        # "kind:param" is the one form of a parameterized mode.
        with pytest.raises(ValueError, match="mode"):
            sample_queries(X, ("shell", 0.5), 5, seed=2)
        with pytest.raises(ValueError, match="mode"):
            sample_suite(X, 2, seed=0, modes=[("shell", 0.5)])

    def test_suite_labels_align(self, X):
        q, labels = sample_suite(X, 4, seed=6)
        assert q.shape[0] == len(labels) == 4 * 8

    def test_string_modes_are_their_own_labels(self, X):
        q, labels = sample_suite(X, 3, seed=6)
        modes = harness.default_suite_modes()
        assert labels == [m for m in modes for _ in range(3)]
        want = [sample_queries(X, m, 3, derive_seed(6, m)) for m in modes]
        assert np.array_equal(q, np.vstack(want))

    def test_one_kind_two_parameters_draw_from_two_sub_seeds(self, X):
        modes = ["shell:0.1", "shell:1.0", "box"]
        q, labels = sample_suite(X, 3, seed=7, modes=modes)
        assert labels == ["shell:0.1"] * 3 + ["shell:1.0"] * 3 + ["box"] * 3
        want = [sample_queries(X, m, 3, derive_seed(7, m)) for m in modes]
        assert np.array_equal(q, np.vstack(want))

    @pytest.mark.parametrize(
        "modes", [["box", "box"], ["shell:0.1", "box", "shell:0.1"], ["far:3", "far:3"]]
    )
    def test_equal_labels_rejected(self, X, modes):
        with pytest.raises(ValueError, match="twice"):
            sample_suite(X, 2, seed=0, modes=modes)


def _broadcast_nearest_neighbor_dists(pts):
    # The full (n, n, d) broadcast the row-block helpers replaced.
    if pts.shape[0] == 1:
        return np.ones(1)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def _broadcast_diameter(pts):
    if pts.shape[0] == 1:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).max())


def _per_query_distances(A, B):
    # The per-query 2-D einsum distances_to and evaluate used before the
    # blocked kernel.
    rows = []
    for u in A:
        diff = B - u
        rows.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    return np.array(rows).reshape(A.shape[0], B.shape[0])


class TestDistanceBlocks:
    # (130, 256) takes 18 blocks of 7 rows and one of 4 at the default size.
    SHAPES = [(130, 256), (65, 7), (2, 3), (1, 5)]

    @pytest.mark.parametrize("block_elements", [None, 1, 3 * 65 * 7])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_to_broadcast(self, monkeypatch, shape, block_elements):
        if block_elements is not None:
            monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", block_elements)
        pts = np.random.default_rng(shape[0]).standard_normal(shape)
        nn, diameter = build_point_set(pts).neighbor_scales
        assert np.array_equal(nn, _broadcast_nearest_neighbor_dists(pts))
        assert diameter == _broadcast_diameter(pts)

    def test_blocks_tile_rows_within_budget(self, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", 4 * 2**20)
        n, d = 200, 300
        pts = np.random.default_rng(1).standard_normal((n, d))
        for A, starts in ((pts, [0, 69, 138]), (pts[:150:2], [0, 69])):
            blocks = [(start, dist.shape) for start, dist in geometry.distance_row_blocks(A, pts)]
            assert [start for start, _ in blocks] == starts
            assert sum(shape[0] for _, shape in blocks) == A.shape[0]
            for _, (rows, cols) in blocks:
                assert cols == n and rows * n * d <= geometry.BLOCK_ELEMENTS
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", n * d - 1)
        assert [dist.shape for _, dist in geometry.distance_row_blocks(pts[:3], pts)] == [(1, n)] * 3

    @pytest.mark.parametrize("block_elements", [None, 1, 3 * 65 * 7])
    @pytest.mark.parametrize(
        "rows, shape", [(0, (65, 7)), (1, (65, 7)), (11, (65, 7)), (200, (130, 256)), (5, (2, 3)), (3, (1, 5))]
    )
    def test_cross_distances_match_per_query_einsum(self, monkeypatch, rows, shape, block_elements):
        if block_elements is not None:
            monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(rows + shape[0])
        X = build_point_set(rng.standard_normal(shape))
        A = rng.standard_normal((rows, shape[1]))
        got = geometry.distance_matrix(A, X.points)
        assert got.shape == (rows, shape[0])
        assert np.array_equal(got, _per_query_distances(A, X.points))
        for u, row in zip(A, got):
            assert np.array_equal(distances_to(u, X), row)

    def test_default_suite_makes_no_full_distance_pass(self, monkeypatch):
        X = build_point_set(np.random.default_rng(0).standard_normal((60, 5)))
        passes, screens = [], []
        original_blocks, original_screen = geometry.distance_row_blocks, geometry._gram_screen

        def counting_blocks(A, B):
            passes.append((A is X.points, B is X.points))
            return original_blocks(A, B)

        def counting_screen(A, sq_a, B, sq_b, rows, step):
            screens.append((A, B))
            return original_screen(A, sq_a, B, sq_b, rows, step)

        monkeypatch.setattr(geometry, "distance_row_blocks", counting_blocks)
        monkeypatch.setattr(geometry, "_gram_screen", counting_screen)
        first = sample_suite(X, 4, seed=6)[0]
        assert (True, True) not in passes
        assert screens and all(A is B is X.points for A, B in screens)
        count = len(screens)
        sample_suite(X, 4, seed=7)
        assert (True, True) not in passes and len(screens) == count
        monkeypatch.undo()
        fresh = build_point_set(X.points.copy())
        assert np.array_equal(sample_suite(fresh, 4, seed=6)[0], first)


def _loop_evaluate(E, queries, labels=None, keep_raw=False):
    # The per-query loop evaluate ran before its array rewrite, for parity
    # checks on batches with at least one pair at positive distance.
    queries = np.asarray(queries, dtype=np.float64)
    pts, imgs = E.X.points, E.terminal_images
    images, per_query = E.embed_batch(queries)
    ratios, q_idx, p_idx, sq_err = [], [], [], []
    max_anchor_err = 0.0
    per_label = {}
    for qi, (u, fu) in enumerate(zip(queries, images)):
        diff = pts - u
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ediff = imgs - fu
        edists = np.sqrt(np.einsum("ij,ij->i", ediff, ediff))
        mask = dists > 0.0
        if not np.any(mask):
            continue
        r = edists[mask] / dists[mask]
        k = int(np.argmin(dists))
        if dists[k] > 0.0:
            max_anchor_err = max(max_anchor_err, abs(edists[k] - dists[k]) / dists[k])
        ratios.append(r)
        if keep_raw:
            idx = np.nonzero(mask)[0]
            q_idx.append(np.full(idx.shape[0], qi))
            p_idx.append(idx)
            sq_err.append(np.abs(edists[mask] ** 2 - dists[mask] ** 2))
        if labels is not None:
            per_label.setdefault(labels[qi], []).append(r)
    allr = np.concatenate(ratios)
    lo, hi = float(allr.min()), float(allr.max())
    if hi - lo > harness.HISTOGRAM_BINS * np.spacing(max(abs(lo), abs(hi), 1.0)):
        hist = np.histogram(allr, bins=harness.HISTOGRAM_BINS, range=(lo, hi))[0].astype(int).tolist()
    else:
        hist = [int(allr.size)]
    report = harness.DistortionReport(
        query_count=int(queries.shape[0]),
        pair_count=int(allr.size),
        ratio_min=lo,
        ratio_max=hi,
        ratio_mean=float(allr.mean()),
        histogram_counts=hist,
        max_abs_ratio_dev=float(np.max(np.abs(allr - 1.0))),
        distortion=hi / lo if lo else None,
        max_residual=float(max((rec["residual"] for rec in per_query), default=0.0)),
        status_counts={
            status: sum(1 for rec in per_query if rec["status"] == status)
            for status in ("feasible", "infeasible", "undecided")
        },
        max_anchor_rel_error=float(max_anchor_err),
        samplers={
            lab: {
                "count": int(sum(x.size for x in rs)),
                "min": float(min(x.min() for x in rs)),
                "max": float(max(x.max() for x in rs)),
                "mean": float(np.concatenate(rs).mean()),
            }
            for lab, rs in sorted(per_label.items())
        },
    )
    if keep_raw:
        report.raw_query_index = np.concatenate(q_idx)
        report.raw_point_index = np.concatenate(p_idx)
        report.raw_ratio = allr
        report.raw_sq_error = np.concatenate(sq_err)
    return report


def _assert_reports_identical(got, want, skip=()):
    for f in dataclasses.fields(harness.DistortionReport):
        if f.name in skip:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


_EPS = float(np.finfo(np.float64).eps)
# The fields evaluate computes from screened values (see its docstring).
_SCREENED = {"ratio_mean", "samplers", "raw_ratio", "raw_sq_error"}


def _screen_tolerances(E, queries):
    """Per-pair bounds on evaluate's screened ratio and |e^2 - d^2|, from the
    exact squared distances D, E2 and geometry._gram_bound, as derived in
    evaluate's docstring: a pair with D <= 2 b_d must be exact."""
    images = E.embed_batch(queries)[0]
    terminals = E.terminal_images
    D = geometry.distance_matrix(queries, E.X.points) ** 2
    E2 = geometry.distance_matrix(images, terminals) ** 2
    norms = [np.sqrt(np.einsum("ij,ij->i", A, A)) for A in (queries, E.X.points, images, terminals)]
    b_d = geometry._gram_bound(queries.shape[1], norms[0][:, None], norms[1])
    b_e = geometry._gram_bound(images.shape[1], norms[2][:, None], norms[3])
    screened = D > 2 * b_d
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.sqrt(E2 + 2 * b_e) / np.sqrt(D - 2 * b_d)
        lower = np.sqrt(np.maximum(E2 - 2 * b_e, 0.0)) / np.sqrt(D + 2 * b_d)
        w = np.where(screened, (upper - lower) + 8 * _EPS * upper, 0.0)
    sq = np.where(screened, 2 * (b_d + b_e) + 4 * _EPS * (D + E2), 0.0)
    mask = D > 0.0
    return w[mask], sq[mask], np.nonzero(mask)[0]


def _assert_reports_match(got, want, E, queries, labels=None):
    """Every field of got equals want's, except the screened ones, which
    agree within evaluate's documented bounds."""
    _assert_reports_identical(got, want, skip=_SCREENED)
    w, sq, q_idx = _screen_tolerances(E, np.asarray(queries, dtype=np.float64))

    def mean_tol(w, r):
        return w.max(initial=0.0) + 2 * (np.log2(max(r.size, 1)) + 16) * _EPS * r.max(initial=0.0)

    if want.raw_ratio is not None:
        assert np.all(np.abs(got.raw_ratio - want.raw_ratio) <= w)
        assert np.all(np.abs(got.raw_sq_error - want.raw_sq_error) <= sq)
        assert abs(got.ratio_mean - want.ratio_mean) <= mean_tol(w, want.raw_ratio)
    else:
        assert abs(got.ratio_mean - want.ratio_mean) <= mean_tol(w, np.full(w.size, want.ratio_max))
    assert got.samplers.keys() == want.samplers.keys()
    for lab, stats in want.samplers.items():
        mine = np.array([labels[i] == lab for i in q_idx], dtype=bool)
        for key in ("count", "min", "max"):
            assert type(got.samplers[lab][key]) is type(stats[key]) and got.samplers[lab][key] == stats[key]
        tol = mean_tol(w[mine], np.full(int(mine.sum()), stats["max"]))
        assert abs(got.samplers[lab]["mean"] - stats["mean"]) <= tol, lab


class TestEvaluateParity:
    @pytest.fixture(params=["sketch", "exact", "efn"])
    def embedder(self, request):
        X = build_point_set(np.random.default_rng(21).standard_normal((23, 9)))
        if request.param == "exact":
            return exact_small_embedding(X)
        E = build_embedder(X, generate_sketch(6, 9, "rademacher", 4), 0.25, SolverConfig(max_iters=50))
        if request.param == "efn":
            return EfnEmbedder(X=X, base_images=E.terminal_images[:, :-1])
        return E

    @pytest.mark.parametrize("with_labels", [True, False])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_matches_per_query_loop(self, monkeypatch, embedder, with_labels, ragged):
        X = embedder.X
        if ragged:
            # 4 query rows per block against X: the 46 queries end on a
            # 2-row block.
            monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", 5 * X.n * X.d - 1)
        q, labels = sample_suite(X, 5, seed=3, modes=["box", "member", "segment", "shell_rel:0.1", "far:3"])
        # A terminal and repeated queries: zero-distance pairs, repeated rows.
        q = np.vstack([q, X.points[:1], q[:20]])
        labels = labels + ["member"] + labels[:20] if with_labels else None
        for keep_raw in (False, True):
            got = evaluate(embedder, q, labels, keep_raw=keep_raw)
            _assert_reports_match(got, _loop_evaluate(embedder, q, labels, keep_raw), embedder, q, labels)

    def test_no_pair_at_positive_distance(self):
        X = build_point_set([[0.5, -1.0]])
        E = exact_small_embedding(X)
        for q, labels in ((np.zeros((0, 2)), []), (X.points.copy(), ["member"])):
            for keep_raw in (False, True):
                rep = evaluate(E, q, labels, keep_raw=keep_raw)
                assert rep.pair_count == 0 and rep.samplers == {} and rep.histogram_counts == []
                assert rep.ratio_min is rep.ratio_max is rep.ratio_mean is rep.distortion is None
                hist = rep.to_dict()["ratios"]["histogram"]
                assert hist == {"lo": None, "hi": None, "counts": []}
                assert rep.max_abs_ratio_dev == 0.0 and rep.max_anchor_rel_error == 0.0
                assert (rep.raw_ratio is not None) == keep_raw
                parsed = json.loads(_dump_json(rep.to_dict()), parse_constant=_reject_constant)
                assert parsed["distortion"] is None and parsed["ratios"]["min"] is None


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestEvaluate:
    def test_identity_sketch_near_exact(self, X):
        pi = SketchMatrix(entries=np.eye(5), distribution="gaussian", seed=0)
        E = build_embedder(X, pi, 1e-9)
        q, labels = sample_suite(X, 10, seed=7)
        rep = evaluate(E, q, labels)
        assert rep.max_abs_ratio_dev <= 1e-6

    def test_exact_small_path(self, X):
        E = exact_small_embedding(X)
        q, labels = sample_suite(X, 10, seed=8)
        rep = evaluate(E, q, labels)
        assert rep.max_abs_ratio_dev <= 1e-9

    def test_zero_ratio_leaves_distortion_undefined(self):
        X = build_point_set(np.random.default_rng(6).standard_normal((5, 3)))
        rep = evaluate(EfnEmbedder(X, np.zeros((5, 2))), X.points[:2])
        assert rep.ratio_min == 0.0 and rep.ratio_max == 0.0 and rep.distortion is None
        parsed = json.loads(_dump_json(rep.to_dict()), parse_constant=_reject_constant)
        assert parsed["distortion"] is None

    def test_efn_instance_ratios(self):
        X = build_point_set([(-1.0,), (0.0,), (2.0,)])
        E = EfnEmbedder(X=X, base_images=X.points)
        rep = evaluate(E, np.array([[1.0]]))
        assert abs(rep.ratio_max - np.sqrt(5)) <= 1e-9
        assert abs(rep.ratio_min - 1 / np.sqrt(2)) <= 1e-9
        assert abs(rep.distortion - np.sqrt(10)) <= 1e-9

    def test_max_residual_is_worst_solver_residual(self, X):
        pi = generate_sketch(3, 5, "rademacher", 12)
        E = build_embedder(X, pi, 0.01, SolverConfig(max_iters=20))
        q, labels = sample_suite(X, 4, seed=9)
        rep = evaluate(E, q, labels)
        worst = max(E.embed_with_info(u)[1].residual for u in q)
        assert worst > 0.0 and rep.max_residual == worst
        assert evaluate(exact_small_embedding(X), q, labels).max_residual == 0.0

    def test_status_counts_sum_to_query_count(self, X):
        # m=2 at eps=0.01: the three statuses all occur (4, 10 and 18 of 32)
        E = build_embedder(X, generate_sketch(2, 5, "rademacher", 12), 0.01, SolverConfig(max_iters=200))
        q, labels = sample_suite(X, 4, seed=9)
        counts = evaluate(E, q, labels).status_counts
        statuses = [E.embed_with_info(u)[1].status for u in q]
        assert counts == {s: statuses.count(s) for s in ("feasible", "infeasible", "undecided")}
        assert sum(counts.values()) == len(q) and min(counts.values()) > 0
        exact = evaluate(exact_small_embedding(X), q, labels).status_counts
        assert exact == {"feasible": len(q), "infeasible": 0, "undecided": 0}

    def test_ratios_finite_and_positive(self, X):
        pi = generate_sketch(24, 5, "rademacher", 12)
        E = build_embedder(X, pi, 0.25)
        q, labels = sample_suite(X, 8, seed=9)
        rep = evaluate(E, q, labels, keep_raw=True)
        assert np.all(np.isfinite(rep.raw_ratio))
        assert np.all(rep.raw_ratio > 0.0)

    def test_report_reproducible_bytes(self, X):
        pi = generate_sketch(16, 5, "rademacher", 3)
        E = build_embedder(X, pi, 0.25)
        q, labels = sample_suite(X, 5, seed=10)
        a = _dump_json(evaluate(E, q, labels, config_echo={"seed": 10}).to_dict())
        b = _dump_json(evaluate(E, q, labels, config_echo={"seed": 10}).to_dict())
        assert a == b

    def test_histogram_bins(self, X):
        pi = generate_sketch(16, 5, "rademacher", 4)
        E = build_embedder(X, pi, 0.25)
        q, labels = sample_suite(X, 6, seed=11)
        rep = evaluate(E, q, labels)
        assert sum(rep.histogram_counts) == rep.pair_count
        assert len(rep.histogram_counts) in (1, 64)

    def test_anchor_error_consistency(self, X):
        pi = generate_sketch(16, 5, "rademacher", 5)
        E = build_embedder(X, pi, 0.25)
        q, labels = sample_suite(X, 6, seed=12)
        rep = evaluate(E, q, labels)
        assert rep.max_abs_ratio_dev >= rep.max_anchor_rel_error - 1e-15

    def test_member_only_queries_give_no_anchor_pairs(self, X):
        pi = generate_sketch(16, 5, "rademacher", 6)
        E = build_embedder(X, pi, 0.25)
        q = sample_queries(X, "member", 8, seed=13)
        rep = evaluate(E, q)
        # ratios exist only against the other terminals
        assert rep.pair_count == 8 * (X.n - 1)

    def test_json_round_trip(self, X):
        pi = generate_sketch(16, 5, "rademacher", 7)
        E = build_embedder(X, pi, 0.25)
        q, labels = sample_suite(X, 4, seed=14)
        rep = evaluate(E, q, labels, config_echo={"epsilon": 0.25})
        parsed = json.loads(_dump_json(rep.to_dict()))
        assert parsed["config"]["epsilon"] == 0.25
        assert parsed["pair_count"] == rep.pair_count
        assert set(parsed["samplers"]) == set(labels)


def _sketch_embedder(X, m, seed=4):
    return build_embedder(X, generate_sketch(m, X.d, "rademacher", seed), 0.25, SolverConfig(max_iters=50))


@pytest.fixture
def screen_calls(monkeypatch):
    """Counts evaluate's exact recomputes (pairs against the terminals) and
    its exact full passes, two per blocked fill of the table (_exact): the
    distances and the image distances."""
    calls = {"recomputed": 0, "exact_passes": 0}
    pair_distances, exact = harness._pair_distances, harness._PairRatios._exact

    def counting_pairs(A, B, i, j):
        # One call for the distances, one for the image distances.
        calls["recomputed"] += i.size / 2
        return pair_distances(A, B, i, j)

    def counting_exact(table):
        calls["exact_passes"] += 2
        return exact(table)

    monkeypatch.setattr(harness, "_pair_distances", counting_pairs)
    monkeypatch.setattr(harness._PairRatios, "_exact", counting_exact)
    return calls


class TestEvaluateScreen:
    """evaluate against the exact per-query loop on inputs that stress the
    Gram screen: every key outside the two means is bit-identical, and the
    means agree within the documented bound."""

    MODES = ["box", "segment", "member", "shell_rel:0.01", "shell_rel:1.0", "far:3"]

    def _check(self, E, q, labels):
        for keep_raw in (False, True):
            got = evaluate(E, q, labels, keep_raw=keep_raw)
            _assert_reports_match(got, _loop_evaluate(E, q, labels, keep_raw), E, q, labels)

    def test_terminals_and_repeated_queries(self, screen_calls):
        X = build_point_set(np.random.default_rng(31).standard_normal((40, 8)))
        E = _sketch_embedder(X, 5)
        q, labels = sample_suite(X, 4, seed=2, modes=self.MODES)
        # Zero-distance pairs (each terminal), and repeated rows of both kinds.
        q = np.vstack([X.points, q, X.points[:10], q[:15]])
        labels = ["member"] * 40 + labels + ["member"] * 10 + labels[:15]
        self._check(E, q, labels)
        assert screen_calls["exact_passes"] == 0

    def test_near_duplicate_terminals(self, screen_calls):
        rng = np.random.default_rng(32)
        base = rng.standard_normal((20, 8))
        X = build_point_set(np.vstack([base, base + 1e-9 * rng.standard_normal(base.shape)]))
        E = _sketch_embedder(X, 5)
        q, labels = sample_suite(X, 4, seed=3, modes=self.MODES)
        q = np.vstack([q, X.points, base + 5e-10 * rng.standard_normal(base.shape)])
        labels = labels + ["member"] * 40 + ["twin"] * 20
        self._check(E, q, labels)
        assert screen_calls["exact_passes"] == 0

    def test_shifted_set_takes_the_exact_passes(self, screen_calls):
        # Far from the origin against its spread, the screen rules out
        # nothing: evaluate takes the exact passes, and every key is exact.
        X = build_point_set(np.random.default_rng(33).standard_normal((30, 8)) + 1e8)
        E = _sketch_embedder(X, 5)
        q, labels = sample_suite(X, 4, seed=4, modes=self.MODES)
        for keep_raw in (False, True):
            got = evaluate(E, q, labels, keep_raw=keep_raw)
            _assert_reports_identical(got, _loop_evaluate(E, q, labels, keep_raw))
        assert screen_calls["exact_passes"] == 4

    def test_image_overflow_takes_the_exact_passes(self, screen_calls, monkeypatch):
        # Base images of norm 5e153: a Gram screen of the images could
        # overflow (geometry._gram_overflows), so evaluate runs no screen and
        # fills the table from the exact passes, and every key is exact.
        rng = np.random.default_rng(34)
        X = build_point_set(rng.standard_normal((25, 6)))
        base = rng.standard_normal((25, 4))
        base *= 5e153 / np.linalg.norm(base, axis=1, keepdims=True)
        E = EfnEmbedder(X=X, base_images=base)

        def no_screen(*args):
            raise AssertionError("evaluate ran a Gram screen")

        monkeypatch.setattr(harness, "_gram_screen", no_screen)
        q, labels = sample_suite(X, 4, seed=5, modes=self.MODES)
        for keep_raw in (False, True):
            got = evaluate(E, q, labels, keep_raw=keep_raw)
            _assert_reports_identical(got, _loop_evaluate(E, q, labels, keep_raw))
            assert got.ratio_max > 1e150
        assert screen_calls["exact_passes"] == 4

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        d=st.integers(1, 5),
        grid=st.booleans(),
        kind=st.sampled_from(["sketch", "exact", "efn"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_small_sets(self, seed, n, d, grid, kind):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d))
        if grid:
            # Coordinates on a half-integer grid: ties between distances.
            pts = np.round(2 * pts) / 2
        X = build_point_set(np.unique(pts, axis=0))
        if kind == "exact":
            E = exact_small_embedding(X)
        else:
            E = _sketch_embedder(X, max(1, d - 1), seed % 1000)
            if kind == "efn":
                E = EfnEmbedder(X=X, base_images=E.terminal_images[:, :-1])
        q = rng.standard_normal((int(rng.integers(1, 15)), X.d))
        if grid:
            q = np.round(2 * q) / 2
        q = np.vstack([q, X.points[rng.integers(0, X.n, size=3)], rng.standard_normal((1, X.d)) + 0.5])
        labels = [str(v) for v in rng.integers(0, 3, size=q.shape[0])]
        self._check(E, q, labels)

    def test_interval_on_a_histogram_edge_is_recomputed(self, monkeypatch):
        # Ratios 0.5 and 2.5 set the histogram range, so its edges are
        # 0.5 + k / 32. The pair (query 2, terminal 0) has ratio 14 / 14 =
        # 1.0, on edge 16, and is neither an anchor nor an extreme: only the
        # edge rule recomputes it.
        X = build_point_set([[0.0], [10.0]])
        queries = np.array([[4.0], [-2.0], [14.0]])
        images = np.array([[2.0], [-5.0], [14.0]])
        records = [{"residual": 0.0, "status": "feasible", "anchor_index": k} for k in (0, 0, 1)]
        E = SimpleNamespace(X=X, terminal_images=X.points, embed_batch=lambda Q: (images, records))
        recomputed = []
        pair_distances = harness._pair_distances

        def recording(A, B, i, j):
            if B is X.points:
                recomputed.extend(zip(i.tolist(), j.tolist()))
            return pair_distances(A, B, i, j)

        monkeypatch.setattr(harness, "_pair_distances", recording)
        rep = evaluate(E, queries)
        assert (rep.ratio_min, rep.ratio_max) == (0.5, 2.5) and rep.histogram_counts[16] == 2
        assert (2, 0) in recomputed
        monkeypatch.setattr(harness, "_pair_distances", pair_distances)
        _assert_reports_identical(evaluate(E, queries), _loop_evaluate(E, queries))

    def test_anchor_error_is_taken_at_the_records_anchor(self, monkeypatch):
        # The record names terminal 1 (distance 6, image distance 3) as the
        # anchor of query 0, not its nearest terminal 0 (distance 4, image
        # distance 7): evaluate reads the anchor, it does not search again.
        X = build_point_set([[0.0], [10.0]])
        queries, images = np.array([[4.0]]), np.array([[7.0]])
        record = {"residual": 0.0, "status": "feasible", "anchor_index": 1}
        E = SimpleNamespace(X=X, terminal_images=X.points, embed_batch=lambda Q: (images, [record]))
        recomputed = []
        pair_distances = harness._pair_distances

        def recording(A, B, i, j):
            if B is X.points:
                recomputed.extend(zip(i.tolist(), j.tolist()))
            return pair_distances(A, B, i, j)

        monkeypatch.setattr(harness, "_pair_distances", recording)
        rep = evaluate(E, queries)
        assert rep.max_anchor_rel_error == 0.5 and (0, 1) in recomputed

    def test_tie_heavy_grid_recomputes_no_more(self, screen_calls):
        # Half-integer coordinates: many queries tie between terminals. The
        # anchor comes from the records, so no tied candidate is recomputed
        # for the anchor search (113 pairs here when evaluate searched for
        # the anchors itself).
        rng = np.random.default_rng(35)
        X = build_point_set(np.unique(np.round(2 * rng.standard_normal((60, 4))) / 2, axis=0))
        E = _sketch_embedder(X, 3)
        q = np.vstack([np.round(2 * rng.standard_normal((80, 4))) / 2, X.points[:10]])
        labels = ["grid"] * 80 + ["member"] * 10
        evaluate(E, q, labels)
        assert screen_calls["exact_passes"] == 0
        assert 0 < screen_calls["recomputed"] <= 113
        self._check(E, q, labels)

    def test_screen_recomputes_few_entries(self, screen_calls):
        # The tight workload's shape: 200 default-suite queries against a
        # 600 x 256 Gaussian set at m = 52.
        X = build_point_set(np.random.default_rng(34).standard_normal((600, 256)))
        plan = plan_dimension(X.n, 0.25, 0.25, X.d)
        E = build_embedder(X, generate_sketch(plan.m, X.d, "rademacher", 5), 0.25)
        q, labels = sample_suite(X, 25, seed=6)
        rep = evaluate(E, q, labels)
        assert q.shape[0] == 200 and rep.pair_count == 200 * 600 - 25
        assert screen_calls["exact_passes"] == 0
        assert 0 < screen_calls["recomputed"] < 0.02 * 200 * 600


def _odd_blocks(rows, row_values):
    # 7 values a block for the histogram's pass over the pairs, 3 rows for
    # every pass over the table and for the exact passes.
    step = 7 if row_values == 1 else 3
    return [slice(start, start + step) for start in range(0, rows, step)]


class TestEvaluateBlocks:
    """evaluate's passes run one block of harness._row_blocks at a time; the
    seams between blocks change no value, and no pass holds more than the
    (q, n) interval arrays and block temporaries."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(41)
        X = build_point_set(rng.standard_normal((16, 6)))
        shifted = build_point_set(rng.standard_normal((16, 6)) + 1e8)
        modes = ["box", "segment", "member", "shell_rel:0.1", "far:3"]
        sketch = _sketch_embedder(X, 4)
        return {
            # Screened intervals, settled at the extremes and the bin edges.
            "binned": (sketch, X),
            # The exact path: every ratio 1 to a few ulps, one bin, the
            # extremes take the exact passes.
            "exact_one_bin": (exact_small_embedding(X), X),
            # Far from the origin the screen gives up: the exact passes.
            "shifted": (_sketch_embedder(shifted, 4), shifted),
            "efn": (EfnEmbedder(X=X, base_images=sketch.terminal_images[:, :-1]), X),
        }, modes

    @pytest.mark.parametrize("case", ["binned", "exact_one_bin", "shifted", "efn"])
    def test_odd_block_seams_change_no_report(self, monkeypatch, case):
        cases, modes = self._cases()
        E, X = cases[case]
        q, labels = sample_suite(X, 5, seed=8, modes=modes)
        # Labels out of row order, and repeated queries.
        q, labels = np.vstack([q, q[::3]]), labels + labels[::3]
        want = evaluate(E, q, labels, keep_raw=True)
        assert (len(want.histogram_counts) == 1) == (case == "exact_one_bin")
        exact, original = [], harness._PairRatios._exact
        monkeypatch.setattr(harness._PairRatios, "_exact", lambda t: exact.append(1) or original(t))
        monkeypatch.setattr(harness, "_row_blocks", _odd_blocks)
        got = evaluate(E, q, labels, keep_raw=True)
        assert bool(exact) == (case in ("exact_one_bin", "shifted"))
        assert got.to_dict() == want.to_dict()
        _assert_reports_identical(got, want)

    @staticmethod
    def _stub(shift):
        # 400 queries x 1000 terminals in R^16: the (q, n) table is 1.5
        # BLOCK_ELEMENTS values. The images come from a fixed linear map,
        # made before tracing, so the trace sees evaluate's own arrays.
        rng = np.random.default_rng(42)
        X = build_point_set(rng.standard_normal((1000, 16)) + shift)
        G = rng.standard_normal((16, 8)) / np.sqrt(8)
        Q = 1.3 * rng.standard_normal((400, 16)) + shift
        images = (Q - shift) @ G + 1e-3 * rng.standard_normal((400, 8))
        k, _ = geometry.nearest_batch(Q, X)
        records = [{"residual": 0.0, "status": "feasible", "anchor_index": int(a)} for a in k]
        E = SimpleNamespace(
            X=X, terminal_images=(X.points - shift) @ G, embed_batch=lambda _: (images, records)
        )
        return E, Q

    @pytest.mark.parametrize("shift", [0.0, 1e8])
    @pytest.mark.parametrize("keep_raw", [False, True])
    def test_traced_peak_is_the_tables_and_blocks(self, monkeypatch, shift, keep_raw):
        # Beyond its inputs, evaluate holds the two interval arrays and
        # temporaries of about BLOCK_ELEMENTS values; ratio, the pairs'
        # midpoints, takes lo's place. With keep_raw it also holds sq_error,
        # and the report's four per-pair arrays are made before hi and
        # sq_error are freed: five tables at most.
        E, Q = self._stub(shift)
        exact = []
        original = harness._PairRatios._exact
        monkeypatch.setattr(harness._PairRatios, "_exact", lambda t: exact.append(1) or original(t))
        labels = [f"L{i % 3}" for i in range(Q.shape[0])]
        table = 8 * Q.shape[0] * E.X.n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = evaluate(E, Q, labels, keep_raw=keep_raw)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.pair_count == Q.shape[0] * E.X.n
        assert bool(exact) == (shift > 0.0)
        tables = 5 if keep_raw else 2
        assert peak <= tables * table + 1.5 * 8 * geometry.BLOCK_ELEMENTS
