import json
import math

import numpy as np
import pytest

from termembed import (
    DimensionMismatch,
    FormatError,
    InvalidConstant,
    InvalidEpsilon,
    InvalidMatrix,
    build_point_set,
    exact_small_embedding,
    generate_sketch,
    load_sketch,
    plan_dimension,
    save_sketch,
    sketch_points,
)
from termembed.geometry import distance_matrix
from termembed.sketch import MAX_FROBENIUS, SketchMatrix


class TestPlanDimension:
    def test_small_n_takes_exact_path(self):
        # n=16, eps=0.5, C=4, |Y|=240: ceil(16 ln 240) = 88 >= 16
        plan = plan_dimension(16, 0.5, 4)
        assert plan.m == 88
        assert plan.mode == "exact_small"

    def test_large_n_sketches(self):
        plan = plan_dimension(10**6, 0.25, 4)
        assert plan.m == 1769
        assert plan.mode == "sketch"

    def test_epsilon_out_of_range(self):
        with pytest.raises(InvalidEpsilon):
            plan_dimension(10, 1.5, 4)
        with pytest.raises(InvalidEpsilon):
            plan_dimension(10, 0.0, 4)

    def test_nonpositive_constant(self):
        with pytest.raises(InvalidConstant):
            plan_dimension(10, 0.5, 0.0)

    def test_non_finite_constant(self):
        for C in (math.nan, math.inf):
            with pytest.raises(InvalidConstant, match="finite"):
                plan_dimension(10, 0.5, C)
        # finite C and eps whose m overflows
        with pytest.raises(InvalidConstant, match="overflows"):
            plan_dimension(10, 0.5, 1e308)
        with pytest.raises(InvalidConstant, match="overflows"):
            plan_dimension(10, 1e-200, 4.0)

    def test_formula_matches_definition(self):
        for n, eps, C in [(50, 0.3, 2.0), (400, 0.1, 4.0), (1, 0.5, 4.0)]:
            plan = plan_dimension(n, eps, C)
            expect = math.ceil(C * eps**-2 * math.log(max(n * (n - 1), 2)))
            assert plan.m == expect
            assert plan.mode == ("exact_small" if expect >= n else "sketch")

    def test_dimension_caps_sketch_width(self):
        # m=973 >= d=128: the exact path is at most 129 wide, the sketch 974
        assert plan_dimension(2000, 0.25, 4).mode == "sketch"
        plan = plan_dimension(2000, 0.25, 4, d=128)
        assert plan.m == 973 and plan.mode == "exact_small"

    def test_m_equal_to_d_boundary(self):
        assert plan_dimension(2000, 0.25, 4, d=973).mode == "exact_small"
        assert plan_dimension(2000, 0.25, 4, d=974).mode == "sketch"
        assert plan_dimension(2000, 0.25, 4, d=974).m == 973

    def test_large_d_keeps_n_rule(self):
        for n, eps, C in [(16, 0.5, 4.0), (10**6, 0.25, 4.0), (1, 0.5, 4.0)]:
            assert plan_dimension(n, eps, C, d=10**7) == plan_dimension(n, eps, C)

    def test_single_point_always_exact(self):
        # m >= 1 = min(1, d) for every valid (eps, C, d), so n = 1 never
        # sketches: a sketch-path plan always has a nonempty direction set.
        for eps in (1e-3, 0.1, 0.5, 0.999):
            for C in (1e-12, 0.25, 1.0, 4.0, 1e6):
                for d in (None, 1, 2, 256, 10**7):
                    plan = plan_dimension(1, eps, C, d)
                    assert plan.mode == "exact_small" and plan.m >= 1

    def test_nonpositive_d(self):
        with pytest.raises(ValueError):
            plan_dimension(10, 0.5, 4, d=0)


class TestGenerateSketch:
    def test_rademacher_magnitudes(self):
        pi = generate_sketch(4, 1, "rademacher", 7)
        assert np.all(np.abs(pi.entries) == 0.5)

    def test_deterministic_per_seed(self):
        a = generate_sketch(13, 9, "rademacher", 21)
        b = generate_sketch(13, 9, "rademacher", 21)
        assert np.array_equal(a.entries, b.entries)
        c = generate_sketch(13, 9, "gaussian", 21)
        d = generate_sketch(13, 9, "gaussian", 21)
        assert np.array_equal(c.entries, d.entries)

    def test_seeds_differ(self):
        a = generate_sketch(13, 9, "rademacher", 21)
        b = generate_sketch(13, 9, "rademacher", 22)
        assert not np.array_equal(a.entries, b.entries)

    def test_gaussian_raw_moments(self):
        # raw entries (before 1/sqrt(m)) should look standard normal
        pi = generate_sketch(1000, 1, "gaussian", 3)
        raw = pi.entries * math.sqrt(1000)
        assert abs(raw.mean()) < 0.1
        assert abs(raw.var() - 1.0) < 0.1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_sketch(0, 3)
        with pytest.raises(ValueError):
            generate_sketch(3, 3, "cauchy")

    def test_frobenius_limit(self):
        # A Rademacher sketch has ||Pi||_F = sqrt(d): at d = 2**20 it meets
        # MAX_FROBENIUS = 2**10 exactly, and one more column is refused.
        pi = generate_sketch(1, 2**20, "rademacher", 0)
        assert float(np.linalg.norm(pi.entries)) == MAX_FROBENIUS == 2.0**10
        with pytest.raises(InvalidMatrix, match=r"above MAX_FROBENIUS = 2\*\*10"):
            generate_sketch(1, 2**20 + 1, "rademacher", 0)

    @pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("m,d", [(15, 16), (43, 64), (53, 64), (227, 256), (52, 256), (34, 256)])
    def test_drawn_sketches_load(self, tmp_path, dist, m, d):
        # The CLI, test and benchmark shapes: each drawn sketch loads back.
        pi = generate_sketch(m, d, dist, 5)
        save_sketch(pi, tmp_path / "pi.json")
        assert np.array_equal(load_sketch(tmp_path / "pi.json").entries, pi.entries)

    @pytest.mark.parametrize("bad", ["nan", "inf", "scale"])
    def test_sketch_matrix_checks_its_entries(self, bad):
        entries = generate_sketch(4, 6, "gaussian", 1).entries.copy()
        if bad == "scale":
            entries *= 1e150
        else:
            entries[2, 3] = float(bad)
        message = "MAX_FROBENIUS" if bad == "scale" else "sketch entries must be finite"
        with pytest.raises(InvalidMatrix, match=message):
            SketchMatrix(entries=entries, distribution="gaussian", seed=1)


class TestApplySketch:
    def test_zero_maps_to_zero(self):
        pi = generate_sketch(6, 4, "rademacher", 0)
        assert np.array_equal(sketch_points(pi, np.zeros((3, 4))), np.zeros((3, 6)))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        pi = generate_sketch(8, 5, "gaussian", 1)
        for _ in range(20):
            a, b = rng.standard_normal(2)
            x, y = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
            lhs = sketch_points(pi, a * x + b * y)
            rhs = a * sketch_points(pi, x) + b * sketch_points(pi, y)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(lhs))

    def test_identity_case(self):
        pi = SketchMatrix(entries=np.eye(2), distribution="gaussian", seed=0)
        assert np.array_equal(sketch_points(pi, [(1.0, 2.0)]), [[1.0, 2.0]])

    def test_dimension_mismatch(self):
        pi = generate_sketch(6, 4, "rademacher", 0)
        for shape in [(1, 5), (2, 3), (4,)]:
            with pytest.raises(DimensionMismatch):
                sketch_points(pi, np.zeros(shape))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(9)
        pi = generate_sketch(7, 3, "gaussian", 2)
        xs = rng.standard_normal((11, 3))
        batch = sketch_points(pi, xs)
        for i in range(11):
            assert np.allclose(batch[i], sketch_points(pi, xs[i : i + 1])[0], atol=1e-14)

    def test_unbiased_norm_across_seeds(self):
        # average ||Pi x||^2 over 200 seeds within 10% of ||x||^2
        rng = np.random.default_rng(123)
        x = rng.standard_normal(32)
        vals = [
            np.linalg.norm(generate_sketch(16, 32, "rademacher", s).entries @ x) ** 2
            for s in range(200)
        ]
        assert abs(np.mean(vals) / (x @ x) - 1.0) < 0.1


class TestExactSmallEmbedding:
    def test_two_points_orthogonal_query(self):
        X = build_point_set([(0, 0, 0), (1, 0, 0)])
        ex = exact_small_embedding(X)
        fu = ex.embed((0, 0, 5))
        assert np.allclose(fu, [0.0, 5.0], atol=1e-12)
        # brute-force distance comparison in the original space
        assert abs(np.linalg.norm(fu - ex.terminal_images[0]) - 5.0) <= 1e-12
        assert abs(np.linalg.norm(fu - ex.terminal_images[1]) - math.sqrt(26)) <= 1e-12

    def test_query_in_span_has_zero_tail(self):
        rng = np.random.default_rng(2)
        X = build_point_set(rng.standard_normal((4, 6)))
        ex = exact_small_embedding(X)
        coeffs = rng.standard_normal(4)
        u = X.points[0] + coeffs @ (X.points - X.points[0])
        assert abs(ex.embed(u)[-1]) <= 1e-12 * (1 + np.linalg.norm(u))

    def test_single_point(self):
        X = build_point_set([(2.0, 3.0)])
        ex = exact_small_embedding(X)
        assert ex.rank == 0 and ex.out_dim == 1
        u = np.array([5.0, 7.0])
        assert np.allclose(ex.embed(u), [np.linalg.norm(u - X.points[0])])

    def test_terminal_images_have_exact_zero_tail(self):
        rng = np.random.default_rng(8)
        X = build_point_set(rng.standard_normal((5, 7)))
        ex = exact_small_embedding(X)
        assert np.all(ex.terminal_images[:, -1] == 0.0)

    def test_terminals_embed_to_their_images(self):
        rng = np.random.default_rng(9)
        X = build_point_set(rng.standard_normal((40, 6)) + 5.0)
        ex = exact_small_embedding(X)
        images, per_query = ex.embed_batch(X.points)
        assert np.array_equal(images, ex.terminal_images)
        assert np.array_equal(ex.embed(X.points[7]), ex.terminal_images[7])
        assert [rec["anchor_index"] for rec in per_query] == list(range(X.n))

    def test_distance_preservation_random(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(max(2, n), 9))
            X = build_point_set(rng.standard_normal((n, d)))
            ex = exact_small_embedding(X)
            for _ in range(100):
                u = 3.0 * rng.standard_normal(d)
                fu = ex.embed(u)
                for i in range(n):
                    dev = abs(
                        np.linalg.norm(fu - ex.terminal_images[i])
                        - np.linalg.norm(u - X.points[i])
                    )
                    worst = max(worst, dev)
        assert worst <= 1e-9

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            X = build_point_set(rng.standard_normal((6, 8)))
            ex = exact_small_embedding(X)
            gram = ex.basis @ ex.basis.T
            assert np.abs(gram - np.eye(ex.rank)).max() <= 1e-10

    def test_rank_drops_for_collinear_points(self):
        X = build_point_set([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert exact_small_embedding(X).rank == 1

    @pytest.mark.parametrize("scale", [1e-11, 1.0, 1e11])
    def test_rank_and_distances_independent_of_scale(self, scale):
        rng = np.random.default_rng(5)
        X = build_point_set(rng.standard_normal((6, 4)) * scale)
        ex = exact_small_embedding(X)
        assert ex.rank == 4
        Q = X.points[0] + scale * rng.standard_normal((20, 4))
        images, _ = ex.embed_batch(Q)
        ratio = distance_matrix(images, ex.terminal_images) / distance_matrix(Q, X.points)
        assert np.abs(ratio - 1.0).max() <= 1e-9


class TestSerialization:
    def test_save_load_bit_exact(self, tmp_path):
        pi = generate_sketch(9, 5, "gaussian", 77)
        save_sketch(pi, tmp_path / "pi.json")
        back = load_sketch(tmp_path / "pi.json")
        assert np.array_equal(back.entries, pi.entries)
        assert back.distribution == pi.distribution and back.seed == pi.seed

        x = np.random.default_rng(4).standard_normal((1, 5))
        assert np.array_equal(sketch_points(back, x), sketch_points(pi, x))

    def test_header_keys(self, tmp_path):
        pi = generate_sketch(4, 3, "rademacher", 1)
        save_sketch(pi, tmp_path / "pi.json")
        header = json.loads((tmp_path / "pi.json").read_text())
        assert header == {"magic": "TESK", "m": 4, "d": 3, "distribution": "rademacher",
                          "seed": 1, "data": "pi.bin"}
        # Older headers also carry the plan constant C; it is ignored.
        (tmp_path / "pi.json").write_text(json.dumps({**header, "C": 4.0}))
        assert np.array_equal(load_sketch(tmp_path / "pi.json").entries, pi.entries)

    def test_save_is_deterministic(self, tmp_path):
        pi = generate_sketch(4, 3, "rademacher", 1)
        save_sketch(pi, tmp_path / "a.json", tmp_path / "a.bin")
        save_sketch(pi, tmp_path / "b.json", tmp_path / "b.bin")
        a = (tmp_path / "a.json").read_text().replace("a.bin", "x.bin")
        b = (tmp_path / "b.json").read_text().replace("b.bin", "x.bin")
        assert a == b
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize(
        "header",
        [
            {"magic": "TESK", "m": 3},
            ["TESK", 3],
            {"magic": "TESK", "m": 3, "d": 2, "data": "pi.bin", "distribution": "gaussian"},
            {"magic": "TESK", "m": 3, "d": None, "data": "pi.bin", "distribution": "gaussian", "seed": 1},
            {"magic": "TESK", "m": 3, "d": 2, "data": 7, "distribution": "gaussian", "seed": 1},
            {"magic": "TESK", "m": -3, "d": -2, "data": "pi.bin", "distribution": "gaussian", "seed": 1},
        ],
    )
    def test_corrupt_header_is_format_error(self, tmp_path, header):
        (tmp_path / "pi.bin").write_bytes(bytes(48))
        (tmp_path / "pi.json").write_text(json.dumps(header))
        with pytest.raises(FormatError, match="pi.json"):
            load_sketch(tmp_path / "pi.json")
