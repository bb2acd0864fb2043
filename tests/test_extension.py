import dataclasses
import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termembed import (
    DimensionMismatch,
    DuplicatePoint,
    NonFinitePoint,
    SolverConfig,
    TerminalEmbedder,
    build_embedder,
    build_point_set,
    direction_set,
    estimate_sampled,
    evaluate,
    exact_small_embedding,
    generate_sketch,
    lift,
    nearest_point,
    plan_dimension,
    sample_queries,
    sample_suite,
    sketch_points,
    solve_extension,
)
from termembed import extension, geometry
from termembed.chd import HullPoint
from termembed.extension import EfnEmbedder, ExtensionSolution
from termembed.sketch import SketchMatrix
from test_geometry import _nearest, _record_exact_work


def identity_embedder(pts, epsilon=1e-9):
    X = build_point_set(pts)
    pi = SketchMatrix(entries=np.eye(X.d), distribution="gaussian", seed=0)
    return build_embedder(X, pi, epsilon)


def random_embedder(rng, n=10, d=8, m=40, epsilon=0.25, **solver_kw):
    X = build_point_set(rng.standard_normal((n, d)))
    pi = generate_sketch(m, d, "rademacher", int(rng.integers(0, 2**31)))
    return build_embedder(X, pi, epsilon, SolverConfig(**solver_kw) if solver_kw else None)


class TestSolveExtension:
    def test_query_on_terminal(self):
        E = identity_embedder([(0.0, 0.0), (3.0, 4.0)])
        sol = solve_extension((3.0, 4.0), E)
        assert sol.radius == 0.0
        assert np.array_equal(sol.u_prime, np.zeros(2))
        assert sol.residual == 0.0 and sol.iterations == 0 and sol.converged

    def test_single_point_no_constraints(self):
        E = identity_embedder([(1.0, 2.0)])
        sol = solve_extension((4.0, 6.0), E)
        assert np.array_equal(sol.u_prime, np.zeros(2))
        assert sol.residual == 0.0 and sol.converged

    def test_identity_sketch_reaches_exact_feasibility(self):
        rng = np.random.default_rng(0)
        E = identity_embedder(rng.standard_normal((8, 5)))
        for _ in range(20):
            u = rng.standard_normal(5)
            sol = solve_extension(u, E)
            assert sol.residual <= 1e-8

    def test_ball_constraint_honored(self):
        rng = np.random.default_rng(1)
        E = random_embedder(rng, n=12, d=6, m=10)
        for _ in range(20):
            u = 2.0 * rng.standard_normal(6)
            sol = solve_extension(u, E)
            assert np.linalg.norm(sol.u_prime) <= sol.radius + 1e-12

    def test_residual_recompute_matches(self):
        rng = np.random.default_rng(2)
        E = random_embedder(rng, n=9, d=5, m=8)
        u = rng.standard_normal(5)
        sol = solve_extension(u, E)
        k = sol.anchor_index
        others = np.arange(E.X.n) != k
        diff = E.X.points[others] - E.X.points[k]
        norms = np.linalg.norm(diff, axis=1)
        V = diff / norms[:, None]
        W = V @ E.Pi.entries.T
        t = V @ (np.asarray(u) - E.X.points[k])
        resid = np.max(np.abs(W @ sol.u_prime - t)) / sol.radius
        assert abs(resid - sol.residual) <= 1e-10

    def test_not_converged_is_diagnostic(self):
        rng = np.random.default_rng(3)
        # m=2 with 19 constraints and a 1-iteration cap cannot converge
        E = random_embedder(rng, n=20, d=16, m=2, max_iters=1)
        u = rng.standard_normal(16)
        sol = solve_extension(u, E)
        assert not sol.converged
        assert sol.residual > 0.0
        f = lift(sol, E)
        assert np.all(np.isfinite(f))

    def test_dimension_mismatch(self):
        E = identity_embedder([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(DimensionMismatch):
            solve_extension((1.0, 2.0, 3.0), E)

    def test_level_step_caps_fewer_tight_segment_solves(self):
        # A tight shape: n=600, d=256, eps=0.25, C=0.25 (m=52), 25 segment
        # queries; data, sketch and sampler seed 5. A Polyak step aimed at
        # residual 0 overshoots the optimum (well above 0 here) and capped 2
        # of these 25 solves at max_iters; the level step caps 1.
        rng = np.random.default_rng(5)
        X = build_point_set(rng.standard_normal((600, 256)))
        plan = plan_dimension(X.n, 0.25, 0.25, X.d)
        assert plan.m == 52
        E = build_embedder(X, generate_sketch(plan.m, X.d, "rademacher", 5), 0.25)
        Q = sample_queries(X, "segment", 25, 5)
        sols = [solve_extension(u, E) for u in Q]
        assert sum(sol.iterations == E.solver.max_iters for sol in sols) < 2
        for u, sol in zip(Q, sols):
            assert (sol.anchor_index, sol.radius) == _nearest(u, X)


def _constraints(u, E, k):
    """Materialized rows W and targets t of the solve anchored at k."""
    mask = np.arange(E.X.n) != k
    diff = E.X.points[mask] - E.X.points[k]
    norms = np.linalg.norm(diff, axis=1)
    W = (E.base_images[mask] - E.base_images[k]) / norms[:, None]
    return W, (diff / norms[:, None]) @ (np.asarray(u) - E.X.points[k])


def _exact_optimum_m1(W, t, R):
    """min over |z| <= R of max_i |w_i z - t_i| for m = 1: the objective is
    convex and piecewise linear, so the minimum is at an end of [-R, R], a
    root w_i z = t_i, or a crossing w_i z - t_i = +-(w_j z - t_j)."""
    w, cand = W[:, 0], [-R, R]
    for i in range(len(w)):
        for j in range(len(w)):
            for sgn in (1.0, -1.0):
                den = w[i] - sgn * w[j]
                if den != 0.0:
                    cand.append((t[i] - sgn * t[j]) / den)
    z = np.clip(np.array(cand), -R, R)
    return float(np.min(np.max(np.abs(np.outer(z, w) - t), axis=1)))


class TestCoincidentTerminals:
    """A terminal closer than geometry.MIN_DISTANCE to the anchor has no
    direction: the solve raises DuplicatePoint naming the pair."""

    def _embedder(self, pts):
        X = build_point_set(pts)
        return build_embedder(X, generate_sketch(3, X.d, "gaussian", 1), 0.5)

    def test_anchor_at_either_end_is_refused(self):
        pts = np.random.default_rng(58).standard_normal((6, 8))
        pts[0, 0] = 0.0
        pts[1] = pts[0]
        pts[1, 0] = 1e-200
        E = self._embedder(pts)
        for k in (0, 1):
            with pytest.raises(DuplicatePoint, match="^points 0 and 1 are 1e-200 apart"):
                solve_extension(pts[k] + 0.01, E)
        # Anchored elsewhere, the pair's rows come from the Gram identity at
        # distance about 1 from the anchor: the query embeds.
        images, records = E.embed_batch(pts[2:] + 0.01)
        assert np.all(np.isfinite(images))
        assert [rec["anchor_index"] for rec in records] == [2, 3, 4, 5]

    def test_tiny_data_takes_the_exact_distances(self):
        # Every squared distance is about 1e-319, subnormal: the Gram values
        # are sent to the exact recompute, which finds the anchor's nearest
        # terminal closer than MIN_DISTANCE.
        pts = np.random.default_rng(60).standard_normal((12, 4)) * 1e-160
        E = self._embedder(pts)
        with pytest.raises(DuplicatePoint, match="closer than MIN_DISTANCE"):
            E.embed(pts[0] + 3e-161)
        # At 1e-150 every distance is far above MIN_DISTANCE.
        E = self._embedder(pts * 1e10)
        assert np.all(np.isfinite(E.embed(pts[0] * 1e10 + 3e-151)))

    def test_tiny_data_query_off_the_points_reaches_the_solve(self):
        # 2e-150 from every terminal, the query is not refused as one near a
        # terminal; the solve then finds terminals closer than MIN_DISTANCE
        # to its anchor.
        pts = np.random.default_rng(60).standard_normal((12, 4)) * 1e-160
        E = self._embedder(pts)
        with pytest.raises(DuplicatePoint, match="^points .* apart, closer than MIN_DISTANCE"):
            E.embed(pts[0] + 1e-150)


class TestQueryNearATerminal:
    """u = x_0 but 1e-170 in coordinate 0 (x_0[0] = 0): nearest_batch reads
    R = 0, and every embedder and solve_extension refuse u; x_0 with -0.0
    there still maps to row 0."""

    def _setup(self, u0):
        pts = np.random.default_rng(62).standard_normal((30, 8))
        pts[0, 0] = 0.0
        X = build_point_set(pts)
        u = pts[0].copy()
        u[0] = u0
        sketch = build_embedder(X, generate_sketch(5, X.d, "gaussian", 1), 0.5)
        return pts, u, [sketch, exact_small_embedding(X), EfnEmbedder(X, pts[:, :3])]

    def test_refused_in_embed_and_embed_batch(self):
        pts, u, embedders = self._setup(1e-170)
        assert _nearest(u, embedders[0].X) == (0, 0.0)
        message = "^query {} is 1e-170 from point 0, closer than MIN_DISTANCE"
        for E in embedders:
            with pytest.raises(DuplicatePoint, match=message.format(0)):
                E.embed(u)
            with pytest.raises(DuplicatePoint, match=message.format(2)):
                E.embed_batch(np.vstack([pts[3] + 0.5, pts[4], u]))
        with pytest.raises(DuplicatePoint, match=message.format(0)):
            solve_extension(u, embedders[0])

    def test_terminals_map_to_their_rows(self):
        pts, u, embedders = self._setup(-0.0)
        for E in embedders:
            images, records = E.embed_batch(np.vstack([u, pts[7]]))
            assert [rec["anchor_index"] for rec in records] == [0, 7]
            assert np.array_equal(images, E.terminal_images[[0, 7]])
            assert np.array_equal(E.embed(u), E.terminal_images[0])


class TestDualCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 10),
        d=st.integers(1, 5),
        m=st.integers(1, 3),
        epsilon=st.sampled_from([0.01, 0.05, 0.2]),
        max_iters=st.integers(extension.FW_AFTER, 200),
    )
    def test_lower_bound_below_every_point(self, seed, n, d, m, epsilon, max_iters):
        rng = np.random.default_rng(seed)
        X = build_point_set(rng.standard_normal((n, d)))
        pi = generate_sketch(m, d, "gaussian", seed)
        E = build_embedder(X, pi, epsilon, SolverConfig(max_iters=max_iters))
        u = 2.0 * rng.standard_normal(d)
        sol = solve_extension(u, E)
        assert sol.status in extension.STATUSES
        assert (sol.status == "feasible") == sol.converged
        if sol.lower_bound is None:
            assert sol.status != "infeasible"
            return
        assert 0.0 <= sol.lower_bound <= sol.residual
        if sol.radius == 0.0:
            return
        # independent of the solver: no point of the ball beats the bound
        R = sol.radius
        W, t = _constraints(u, E, sol.anchor_index)
        Z = rng.standard_normal((256, m))
        Z *= R * rng.uniform(size=(256, 1)) ** (1.0 / m) / np.linalg.norm(Z, axis=1, keepdims=True)
        tol = 1e-12 * (R + float(np.abs(t).max()))
        assert sol.lower_bound * R <= np.min(np.max(np.abs(Z @ W.T - t), axis=1)) + tol
        if m == 1:
            assert sol.lower_bound * R <= _exact_optimum_m1(W, t, R) + tol
        if sol.status == "infeasible":
            assert sol.lower_bound > epsilon * (1.0 + extension.TOL)
            assert sol.residual - sol.lower_bound <= extension.GAP_TOL

    def test_small_m_certified_infeasible_early(self):
        # m=3 against 24 constraints at eps=0.02: no query reaches the target,
        # and the certificate ends some solves long before max_iters. The
        # others have their optimum inside the ball, where the dual stalls.
        rng = np.random.default_rng(4)
        E = random_embedder(rng, n=25, d=8, m=3, epsilon=0.02, max_iters=1000)
        sols = [solve_extension(u, E) for u in 2.0 * rng.standard_normal((20, 8))]
        infeasible = [sol for sol in sols if sol.status == "infeasible"]
        assert len(infeasible) >= 2
        for sol in infeasible:
            assert sol.iterations < E.solver.max_iters and not sol.converged
            assert sol.lower_bound > E.epsilon * (1.0 + extension.TOL)
            assert sol.residual - sol.lower_bound <= extension.GAP_TOL
        for sol in sols:
            assert sol.status == "infeasible" or sol.iterations == E.solver.max_iters

    def test_dual_points_stay_in_the_ball(self, monkeypatch):
        # Frank-Wolfe's recovered points are kept when they beat the loop's;
        # they lie on the sphere ||z|| = R, and the lift keeps the anchor
        # distance exact.
        recovered = []
        frank_wolfe = extension._frank_wolfe

        def spy(*args):
            for item in frank_wolfe(*args):
                recovered.append(item[1])
                yield item

        monkeypatch.setattr(extension, "_frank_wolfe", spy)
        rng = np.random.default_rng(3)
        E = random_embedder(rng, n=40, d=16, m=2, epsilon=0.05, max_iters=1000)
        kept = 0
        for u in 2.0 * rng.standard_normal((20, 16)):
            recovered.clear()
            f, sol = E.embed_with_info(u)
            if not any(np.array_equal(sol.u_prime, z) for z in recovered):
                continue
            kept += 1
            R = sol.radius
            assert np.linalg.norm(sol.u_prime) <= R * (1.0 + 4 * np.finfo(float).eps)
            d_emb = np.linalg.norm(f - E.terminal_images[sol.anchor_index])
            assert abs(d_emb - R) <= 1e-12 * max(1.0, R)
        assert kept >= 1

    def test_null_row_fixes_the_bound(self):
        # Pi kills the direction of x_1 - x_0, so the constraint along it
        # stays at |t_1| = 0.3 = R whatever u' is: the optimum is 1.0.
        X = build_point_set([(0.0, 0.0), (1.0, 0.0), (0.0, 5.0)])
        pi = SketchMatrix(entries=np.array([[0.0, 1.0]]), distribution="gaussian", seed=0)
        E = build_embedder(X, pi, 0.25)
        sol = solve_extension((0.3, 0.0), E)
        assert (sol.anchor_index, sol.radius) == (0, 0.3)
        assert sol.lower_bound == 1.0 and sol.residual == 1.0
        assert sol.status == "infeasible" and not sol.converged and sol.iterations == 0

    def test_record_carries_the_certificate(self):
        with pytest.raises(ValueError, match="status"):
            ExtensionSolution(np.zeros(2), 1.0, 0.5, 3, 0, None, "capped")
        with pytest.raises(ValueError, match="status"):
            ExtensionSolution(np.zeros(2), 1.0, 0.5, 3, 0, None, None)

    def test_converged_reads_the_status(self):
        # status is the one stored outcome: converged is a read-only view
        # of it, not a field.
        assert "converged" not in {f.name for f in dataclasses.fields(ExtensionSolution)}
        for status in extension.STATUSES:
            sol = ExtensionSolution(np.zeros(2), 1.0, 0.5, 3, 0, None, status)
            assert sol.converged is (status == "feasible")
            with pytest.raises(AttributeError):
                sol.converged = True
        with pytest.raises(TypeError):
            ExtensionSolution(np.zeros(2), 1.0, 0.0, 3, 0, converged=True)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kw", [{"max_iters": 2.5}, {"max_iters": True}, {"max_iters": np.bool_(True)},
               {"max_iters": "5"}, {"max_iters": 5.0}],
    )
    def test_wrong_type_rejected(self, kw):
        with pytest.raises(TypeError, match=next(iter(kw))):
            SolverConfig(**kw)

    def test_numpy_scalars_accepted(self):
        assert SolverConfig(max_iters=np.int64(5)) == SolverConfig(5)
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["max_iters"]


class TestLift:
    def _embedder(self):
        return identity_embedder([(0.0, 0.0), (5.0, 0.0)])

    def test_zero_solution(self):
        E = self._embedder()
        sol = ExtensionSolution(
            u_prime=np.zeros(2), radius=2.0, residual=0.0, iterations=0,
            anchor_index=0,
        )
        f = lift(sol, E)
        assert np.allclose(f, [0.0, 0.0, 2.0])

    def test_full_radius_gives_zero_tail(self):
        E = self._embedder()
        sol = ExtensionSolution(
            u_prime=np.array([2.0, 0.0]), radius=2.0, residual=0.0,
            iterations=0, anchor_index=0,
        )
        assert lift(sol, E)[-1] == 0.0

    def test_float_excess_clamped(self):
        E = self._embedder()
        r = 2.0
        excess = r * math.sqrt(1 + 1e-14)
        sol = ExtensionSolution(
            u_prime=np.array([excess, 0.0]), radius=r, residual=0.0,
            iterations=0, anchor_index=0,
        )
        f = lift(sol, E)
        assert f[-1] == 0.0 and not np.any(np.isnan(f))


class TestDerivedBaseImages:
    """TerminalEmbedder is fixed by (X, Pi, epsilon, solver): it computes its
    rows Pi X itself and takes no images from its caller."""

    def _setup(self):
        X = build_point_set(np.random.default_rng(33).standard_normal((50, 16)))
        return X, generate_sketch(8, X.d, "gaussian", 1)

    def test_base_images_are_the_read_only_sketch_of_X(self):
        X, Pi = self._setup()
        E = TerminalEmbedder(X, Pi, 0.25)
        assert np.array_equal(E.base_images, sketch_points(Pi, X.points))
        assert not E.base_images.flags.writeable
        assert E.solver == SolverConfig() and E.out_dim == 9

    def test_sketch_of_another_width_raises(self):
        X, _ = self._setup()
        Pi = generate_sketch(8, X.d - 1, "gaussian", 1)
        message = "^sketch expects dimension 15, points have 16$"
        for make in (TerminalEmbedder, build_embedder):
            with pytest.raises(DimensionMismatch, match=message):
                make(X, Pi, 0.25)

    @pytest.mark.parametrize("name", ["embedded_X", "base_images"])
    def test_images_are_not_an_argument(self, name):
        X, Pi = self._setup()
        with pytest.raises(TypeError):
            TerminalEmbedder(X, Pi, epsilon=0.25, **{name: np.zeros((X.n, Pi.m))})


class TestEmbedTerminal:
    def test_membership_maps_to_padded_sketch(self):
        rng = np.random.default_rng(4)
        E = random_embedder(rng, n=6, d=4, m=9)
        u = E.X.points[3]
        f = E.embed(u)
        assert np.array_equal(f[:-1], E.base_images[3])
        assert f[-1] == 0.0

    def test_anchor_isometry(self):
        rng = np.random.default_rng(5)
        E = random_embedder(rng, n=10, d=6, m=12)
        for _ in range(50):
            u = 3.0 * rng.standard_normal(6)
            f, sol = E.embed_with_info(u)
            k = sol.anchor_index
            d_true = np.linalg.norm(u - E.X.points[k])
            d_emb = np.linalg.norm(f - E.terminal_images[k])
            assert abs(d_emb - d_true) <= 1e-8 * (1.0 + d_true)

    def test_outer_extension_shape(self):
        rng = np.random.default_rng(6)
        E = random_embedder(rng, n=5, d=4, m=7)
        imgs = E.terminal_images
        assert imgs.shape == (5, 8)
        assert np.array_equal(imgs[:, :-1], E.base_images)
        assert np.all(imgs[:, -1] == 0.0)

    def test_identity_sketch_distances_exact(self):
        rng = np.random.default_rng(7)
        E = identity_embedder(rng.standard_normal((7, 5)))
        for _ in range(30):
            u = rng.standard_normal(5)
            f = E.embed(u)
            for i in range(E.X.n):
                d_true = np.linalg.norm(u - E.X.points[i])
                d_emb = np.linalg.norm(f - E.terminal_images[i])
                assert abs(d_emb - d_true) <= 1e-6 * (1.0 + d_true)

    def test_twenty_eps_hat_bound_small(self):
        # whenever chd-hat bounds the hull violation and the solver residual
        # is folded in, squared distances deviate by at most 20 * eps-hat
        rng = np.random.default_rng(8)
        X = build_point_set(rng.standard_normal((12, 10)))
        pi = generate_sketch(64, 10, "rademacher", 99)
        E = build_embedder(X, pi, 0.25)
        Y = direction_set(X)
        chd_hat = estimate_sampled(pi, Y, 4000, seed=2).max_violation
        for _ in range(40):
            u = 2.0 * rng.standard_normal(10)
            f, sol = E.embed_with_info(u)
            eps_hat = chd_hat + sol.residual
            for i in range(X.n):
                d2_true = np.linalg.norm(u - X.points[i]) ** 2
                d2_emb = np.linalg.norm(f - E.terminal_images[i]) ** 2
                assert abs(d2_emb - d2_true) <= 20.0 * eps_hat * d2_true + 1e-8

    def test_translation_equivariance_of_ratios(self):
        rng = np.random.default_rng(9)
        X_pts = rng.standard_normal((8, 5))
        shift = 10.0 * rng.standard_normal(5)
        pi = generate_sketch(20, 5, "rademacher", 55)
        E1 = build_embedder(build_point_set(X_pts), pi, 0.25)
        E2 = build_embedder(build_point_set(X_pts + shift), pi, 0.25)
        for _ in range(10):
            u = rng.standard_normal(5)
            f1, f2 = E1.embed(u), E2.embed(u + shift)
            for i in range(8):
                r1 = np.linalg.norm(f1 - E1.terminal_images[i]) / np.linalg.norm(u - X_pts[i])
                r2 = np.linalg.norm(f2 - E2.terminal_images[i]) / np.linalg.norm(u - X_pts[i])
                assert abs(r1 - r2) <= 1e-9


class TestScalarFact:
    def test_dense_grid(self):
        # max(1, (x-1)^2) >= (x^2 + 1) / 5 for x >= 0
        x = np.linspace(0.0, 100.0, 10**6)
        lhs = np.maximum(1.0, (x - 1.0) ** 2)
        rhs = (x**2 + 1.0) / 5.0
        assert np.all(lhs >= rhs)


class TestEfnExtend:
    def test_sharpness_instance(self):
        X = build_point_set([(-1.0,), (0.0,), (2.0,)])
        f = EfnEmbedder(X, X.points).embed((1.0,))
        assert np.allclose(f, [0.0, 1.0], atol=1e-15)
        d_minus1 = np.linalg.norm(f - np.array([-1.0, 0.0]))
        d_plus2 = np.linalg.norm(f - np.array([2.0, 0.0]))
        assert abs(d_minus1 - math.sqrt(2)) <= 1e-9
        assert abs(d_plus2 - math.sqrt(5)) <= 1e-9
        # distortion: stretch sqrt(5) (true distance 1) times shrink sqrt(2)
        stretch = d_plus2 / 1.0
        shrink = 2.0 / d_minus1
        assert abs(stretch * shrink - math.sqrt(10)) <= 1e-9

    def test_membership(self):
        rng = np.random.default_rng(10)
        X = build_point_set(rng.standard_normal((5, 3)))
        imgs = rng.standard_normal((5, 4))
        f = EfnEmbedder(X, imgs).embed(X.points[2])
        assert np.array_equal(f[:-1], imgs[2]) and f[-1] == 0.0

    def test_single_point_exact(self):
        X = build_point_set([(0.0, 0.0)])
        u = (3.0, 4.0)
        f = EfnEmbedder(X, np.zeros((1, 2))).embed(u)
        assert np.allclose(f, [0.0, 0.0, 5.0])

    def test_embedder_adapter(self):
        X = build_point_set([(-1.0,), (0.0,), (2.0,)])
        E = EfnEmbedder(X=X, base_images=X.points)
        assert np.allclose(E.embed((1.0,)), [0.0, 1.0])
        assert E.terminal_images.shape == (3, 2)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_base_images_without_n_rows_raise_on_construction(self, rows):
        X = build_point_set([(-1.0,), (0.0,), (2.0,)])
        with pytest.raises(DimensionMismatch):
            EfnEmbedder(X=X, base_images=np.zeros((rows, 2)))
        with pytest.raises(DimensionMismatch):
            EfnEmbedder(X=X, base_images=np.zeros(3))

    def test_caller_array_stays_writable(self):
        X = build_point_set([(-1.0,), (0.0,), (2.0,)])
        imgs = np.arange(6.0).reshape(3, 2)
        E = EfnEmbedder(X=X, base_images=imgs)
        assert np.array_equal(E.embed((1.5,)), [4.0, 5.0, 0.5])
        assert imgs.flags.writeable
        imgs[0, 0] = 7.0
        assert imgs.flags.writeable and E.base_images[0, 0] == 7.0
        assert not E.base_images.flags.writeable


def _three_embedders():
    rng = np.random.default_rng(11)
    E = random_embedder(rng, n=9, d=5, m=12)
    exact = exact_small_embedding(E.X)
    efn = EfnEmbedder(X=E.X, base_images=E.base_images)
    return {"sketch": E, "exact": exact, "efn": efn}


@pytest.fixture(params=["sketch", "exact", "efn"])
def any_embedder(request):
    return _three_embedders()[request.param]


class TestEmbedBatch:
    @staticmethod
    def queries(E, count=12):
        rng = np.random.default_rng(12)
        # off-set queries plus two terminals, so R = 0 is covered
        return np.vstack([2.0 * rng.standard_normal((count, E.X.d)), E.X.points[[0, 4]]])

    def test_images_equal_stacked_embed(self, any_embedder):
        E = any_embedder
        Q = self.queries(E)
        images, _ = E.embed_batch(Q)
        assert images.shape == (Q.shape[0], E.out_dim)
        assert np.array_equal(images, np.vstack([E.embed(u) for u in Q]))

    @pytest.mark.parametrize("shift", [0.0, 1e8])
    def test_batch_anchors_equal_stacked_embed(self, shift):
        # At 1e8 from the origin every terminal is an anchor candidate of every
        # row; the batch anchor search must still hand each row nearest's anchor.
        sketch = _three_embedders()["sketch"]
        X = build_point_set(sketch.X.points + shift)
        E = build_embedder(X, sketch.Pi, sketch.epsilon)
        rng = np.random.default_rng(27)
        Q = np.vstack([shift + 2.0 * rng.standard_normal((30, X.d)), X.points])
        for emb in (E, exact_small_embedding(X), EfnEmbedder(X, E.base_images)):
            images, per_query = emb.embed_batch(Q)
            assert np.array_equal(images, np.vstack([emb.embed(u) for u in Q]))
            assert [rec["anchor_index"] for rec in per_query] == [nearest_point(u, X) for u in Q]

    def test_per_query_records(self, any_embedder):
        E = any_embedder
        Q = self.queries(E)
        _, per_query = E.embed_batch(Q)
        assert len(per_query) == Q.shape[0]
        for u, rec in zip(Q, per_query):
            if isinstance(E, TerminalEmbedder):
                _, sol = E.embed_with_info(u)
                expected = {
                    "residual": sol.residual,
                    "iterations": sol.iterations,
                    "anchor_index": sol.anchor_index,
                    "converged": sol.converged,
                    "lower_bound": sol.lower_bound,
                    "status": sol.status,
                }
            else:
                expected = {
                    "residual": 0.0,
                    "iterations": 0,
                    "anchor_index": nearest_point(u, E.X),
                    "converged": True,
                    "lower_bound": 0.0,
                    "status": "feasible",
                }
            assert rec == expected
            assert type(rec["anchor_index"]) is int

    @pytest.mark.parametrize("width", [0, 5, 3])
    def test_empty_batch(self, any_embedder, width):
        images, per_query = any_embedder.embed_batch(np.zeros((0, width)))
        assert images.shape == (0, any_embedder.out_dim)
        assert per_query == []

    @pytest.mark.parametrize("shape", [(2, 4), (2, 6), (5,), (1, 2, 5)])
    def test_wrong_shape_raises(self, any_embedder, shape):
        with pytest.raises(DimensionMismatch):
            any_embedder.embed_batch(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, any_embedder, bad):
        Q = self.queries(any_embedder, count=3)
        Q[1, 2] = bad
        with pytest.raises(NonFinitePoint):
            any_embedder.embed_batch(Q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_single_query_raises(self, any_embedder, bad):
        u = self.queries(any_embedder, count=1)[0]
        u[2] = bad
        with pytest.raises(NonFinitePoint):
            any_embedder.embed(u)

    def test_terminal_images_read_only(self, any_embedder):
        images = any_embedder.terminal_images
        assert images.shape == (any_embedder.X.n, any_embedder.out_dim)
        assert not images.flags.writeable and np.all(images[:, -1] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_raises_in_every_per_query_function(bad):
    E = _three_embedders()["sketch"]
    u = E.X.points[3] + 0.5
    u[1] = bad
    for call in (
        lambda: solve_extension(u, E),
        lambda: EfnEmbedder(E.X, E.base_images).embed(u),
        lambda: nearest_point(u, E.X),
    ):
        with pytest.raises(NonFinitePoint):
            call()


def _materialized_solve(u, E):
    """The solver as it was with the (n-1) x d direction matrix V and the
    (n-1) x m matrix W built explicitly per query, with its Frank-Wolfe dual
    on that W and t: the reference the factored solve_extension is held to."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    X = E.X
    dists = np.sqrt(np.einsum("ij,ij->i", X.points - u, X.points - u))
    k = int(np.argmin(dists))
    R = float(dists[k])
    if R == 0.0 or X.n == 1:
        return ExtensionSolution(np.zeros(E.m), R, 0.0, 0, k, 0.0, "feasible")
    mask = np.arange(X.n) != k
    diff = X.points[mask] - X.points[k]
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    V = diff / norms[:, None]
    W = (E.base_images[mask] - E.base_images[k]) / norms[:, None]
    P = u - X.points[k]
    t = V @ P
    row_sq = np.einsum("ij,ij->i", W, W)
    pip = E.Pi.entries @ P
    z = R * pip / max(float(np.linalg.norm(pip)), 1e-300)
    nz = float(np.linalg.norm(z))
    if nz > R:
        z *= R / nz
    cfg = E.solver
    target = E.epsilon * R * (1.0 + extension.TOL)
    gap = extension.GAP_TOL * R
    r = W @ z - t
    g = float(np.max(np.abs(r)))
    best_z, best_g, it = z.copy(), g, 0
    lb, fw = -math.inf, None  # fw = [W^T mu, t^T mu] once the dual starts
    while best_g > target and it < cfg.max_iters:
        a = int(np.argmax(np.abs(r)))
        denom = row_sq[a]
        if denom <= 1e-300:
            lb = max(lb, abs(t[a]))
            break
        sign = 1.0 if r[a] >= 0.0 else -1.0
        step = sign * (g - max(extension.LEVEL * E.epsilon * R, lb)) / denom
        z = z - step * W[a]
        nz = float(np.linalg.norm(z))
        if nz > R:
            z *= R / nz
        r = W @ z - t
        g = float(np.max(np.abs(r)))
        if g < best_g:
            best_g, best_z = g, z.copy()
        it += 1
        if best_g <= target or it < extension.FW_AFTER:
            continue
        if fw is None:
            j = int(np.argmax(np.abs(t) - R * np.sqrt(row_sq)))
            fw = [-np.sign(t[j]) * W[j], -abs(t[j])]
        fa, fc = fw
        norm_a = float(np.linalg.norm(fa))
        lb = max(lb, -R * norm_a - fc)
        z_fw = -R * fa / norm_a if norm_a > 0.0 else np.zeros(E.m)
        nz = float(np.linalg.norm(z_fw))
        if nz > R:
            z_fw *= R / nz
        grad = W @ z_fw - t
        i = int(np.argmax(np.abs(grad)))
        if abs(grad[i]) < best_g:
            best_g, best_z = float(abs(grad[i])), z_fw
        if lb > target and best_g - lb <= gap:
            break
        # exact line search of R ||fa + s d|| + s delta over s in [0, 1]
        d = np.sign(grad[i]) * W[i] - fa
        delta = np.sign(grad[i]) * t[i] - fc
        aa, ad, dd = fa @ fa, fa @ d, d @ d
        q = R * R * dd - delta * delta
        if q <= 0.0:
            s = 1.0 if delta < 0.0 else 0.0
        else:
            s = min(max((-ad - delta * np.sqrt(max(aa * dd - ad * ad, 0.0) / q)) / dd, 0.0), 1.0)
        fw = [fa + s * d, fc + s * delta]
    final = float(np.max(np.abs(W @ best_z - t)))
    if final <= target:
        status = "feasible"
    elif lb > target and final - lb <= gap:
        status = "infeasible"
    else:
        status = "undecided"
    lower = None if lb == -math.inf else min(max(0.0, lb), final) / R
    return ExtensionSolution(best_z, R, final / R, it, k, lower, status)


def _shell_queries(rng, pts, count, rel):
    """Queries at rel times the nearest-neighbour distance from a terminal."""
    X = build_point_set(pts)
    nn, _ = X.neighbor_scales
    idx = rng.integers(0, X.n, size=count)
    dirs = rng.standard_normal((count, X.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return pts[idx] + rel * nn[idx, None] * dirs


class TestFactoredSolver:
    """solve_extension (factored over X and Pi X, cancellation-guarded) against
    the materialized-V/W reference."""

    @staticmethod
    def embedder(pts, m, epsilon=0.05, seed=1, **solver_kw):
        X = build_point_set(pts)
        pi = generate_sketch(m, X.d, "rademacher", seed)
        return build_embedder(X, pi, epsilon, SolverConfig(**{"max_iters": 150, **solver_kw}))

    @staticmethod
    def assert_matches(E, Q):
        for u in Q:
            new, ref = solve_extension(u, E), _materialized_solve(u, E)
            assert new.anchor_index == ref.anchor_index
            assert new.radius == ref.radius
            assert new.iterations == ref.iterations
            assert new.converged == ref.converged
            assert new.status == ref.status
            if ref.lower_bound is None:
                assert new.lower_bound is None
            else:
                assert abs(new.lower_bound - ref.lower_bound) <= 1e-12
            gap = np.max(np.abs(new.u_prime - ref.u_prime), initial=0.0)
            assert gap <= 1e-12 * max(1.0, ref.radius)
            assert abs(new.residual - ref.residual) <= 1e-12

    @pytest.mark.parametrize(
        "n,d,m,epsilon",
        [(30, 12, 6, 0.05), (15, 40, 25, 0.05), (40, 8, 3, 0.05), (9, 5, 12, 0.05),
         (60, 30, 40, 0.25)],
    )
    def test_random_shapes(self, n, d, m, epsilon):
        rng = np.random.default_rng(n * d + m)
        pts = rng.standard_normal((n, d))
        E = self.embedder(pts, m, epsilon, seed=n)
        self.assert_matches(E, 2.0 * rng.standard_normal((12, d)))

    def test_shell_queries(self):
        rng = np.random.default_rng(20)
        pts = rng.standard_normal((25, 10))
        E = self.embedder(pts, 5)
        self.assert_matches(E, _shell_queries(rng, pts, 15, 0.01))

    def test_close_terminals(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((20, 10))
        pts[1:4] = pts[0] + 1e-9 * rng.standard_normal((3, 10))
        E = self.embedder(pts, 6)
        Q = np.vstack([pts[0] + 1e-3 * rng.standard_normal((8, 10)), rng.standard_normal((4, 10))])
        self.assert_matches(E, Q)

    def test_far_from_origin(self):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((20, 10))
        E = self.embedder(pts + 1e6, 6)
        self.assert_matches(E, 1e6 + 1.5 * rng.standard_normal((10, 10)))

    def test_two_points_and_terminal_queries(self):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((2, 3))
        E = self.embedder(pts, 2)
        self.assert_matches(E, np.vstack([pts, rng.standard_normal((6, 3))]))

    @pytest.mark.parametrize("on_terminal", [False, True])
    def test_no_full_distance_pass_per_solve(self, monkeypatch, on_terminal):
        # Gaussian data: one anchor candidate, no row in the cancellation zone.
        rng = np.random.default_rng(25)
        E = random_embedder(rng, n=200, d=16, m=5)
        seen = _record_exact_work(monkeypatch)
        u = E.X.points[3] if on_terminal else rng.standard_normal(16)
        sol = solve_extension(u, E)
        assert (sol.radius == 0.0) == on_terminal
        assert seen == [("anchor", [(0, sol.anchor_index)])]

    def test_guarded_rows_take_exact_norms(self, monkeypatch):
        rng = np.random.default_rng(26)
        pts = rng.standard_normal((30, 8))
        pts[1:4] = pts[0] + 1e-3 * rng.standard_normal((3, 8))
        E = self.embedder(pts, 5)
        seen = _record_exact_work(monkeypatch)
        sol = solve_extension(pts[0] + 1e-4 * rng.standard_normal(8), E)
        assert sol.anchor_index in (0, 1, 2, 3)
        guarded = [i for i in range(4) if i != sol.anchor_index]
        assert seen == [("anchor", [(0, sol.anchor_index)]), ("guarded", guarded),
                        ("blocks", 1, 3)]

    @staticmethod
    def solve_locals(E, u):
        """(solve_extension(u, E), the names bound in its frame when it
        returns): a name the solve never assigned is absent."""
        code, names = solve_extension.__code__, set()

        def local(frame, event, arg):
            if event == "return":
                names.update(frame.f_locals)
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            sol = solve_extension(u, E)
        finally:
            sys.settrace(previous)
        return sol, names

    def test_unguarded_solve_skips_guarded_rows(self, monkeypatch):
        # Gaussian data: no row in the cancellation zone, so no exact norms
        # and no guarded constraint rows.
        rng = np.random.default_rng(27)
        E = self.embedder(rng.standard_normal((200, 16)), 5)
        seen = _record_exact_work(monkeypatch)
        sol, names = self.solve_locals(E, rng.standard_normal(16))
        assert sol.radius > 0.0
        assert seen == [("anchor", [(0, sol.anchor_index)])]
        assert "W_close" not in names

    @pytest.mark.parametrize("case", ["near_duplicates", "shifted"])
    def test_guarded_solve_builds_guarded_rows(self, monkeypatch, case):
        rng = np.random.default_rng(28)
        pts = rng.standard_normal((30, 8))
        if case == "near_duplicates":
            pts[1:4] = pts[0] + 1e-9 * rng.standard_normal((3, 8))
            u = pts[0] + 1e-3 * rng.standard_normal(8)
        else:
            pts += 1e8
            u = pts[5] + 0.5 * rng.standard_normal(8)
        E = self.embedder(pts, 5)
        seen = _record_exact_work(monkeypatch)
        sol, names = self.solve_locals(E, u)
        assert sol.radius > 0.0
        assert any(entry[0] == "guarded" for entry in seen)
        assert "W_close" in names


def test_efn_embed_batch_no_full_distance_pass(monkeypatch):
    # One anchor search for the whole batch; each row recomputes only its
    # anchor, and no blocked pass runs.
    E = _three_embedders()["efn"]
    Q = TestEmbedBatch.queries(E, count=5)
    seen = _record_exact_work(monkeypatch)
    _, per_query = E.embed_batch(Q)
    assert seen == [("anchor", [(i, rec["anchor_index"]) for i, rec in enumerate(per_query)])]


class TestQueryGroups:
    """embed_batch takes each query group's warm-start products over row
    blocks of X and Pi X. At 8-row blocks and 3-query groups every seam is
    crossed, and each row still equals its single-query calls bit for bit."""

    @staticmethod
    def small_seams(monkeypatch):
        monkeypatch.setattr(extension, "_block_rows", lambda d, m: 8)
        monkeypatch.setattr(extension, "_group_rows", lambda n, d, m: 3)

    @staticmethod
    def check_rows(E, Q):
        """embed_batch(Q), after checking that its images equal the stacked
        embed(u) and embed_with_info(u) images and its records the
        embed_with_info records."""
        images, per_query = E.embed_batch(Q)
        singles = [E.embed_with_info(u) for u in Q]
        assert np.array_equal(images, np.vstack([f for f, _ in singles]))
        assert np.array_equal(images, np.vstack([E.embed(u) for u in Q]))
        assert per_query == [
            {key: getattr(sol, key) for key in extension.RECORD_KEYS} for _, sol in singles
        ]
        return images, per_query

    @staticmethod
    def batch(rng, pts, count=11):
        """count queries near pts, with terminals (R = 0) at rows 1, 4 and 7,
        the middle of three 3-query groups."""
        n, d = pts.shape
        scale = np.ptp(pts, axis=0).max() if n > 1 else 1.0
        Q = pts.mean(axis=0) + scale * rng.standard_normal((count, d))
        Q[[1, 4, 7]] = pts[[0, n - 1, n // 2]]
        return Q

    @pytest.mark.parametrize("n", [1, 2, 9, 17, 30])
    def test_rows_equal_single_queries(self, monkeypatch, n):
        rng = np.random.default_rng(100 + n)
        pts = rng.standard_normal((n, 6))
        pi = generate_sketch(5, 6, "rademacher", 3)
        self.small_seams(monkeypatch)
        E = build_embedder(build_point_set(pts), pi, 0.25)
        Q = self.batch(rng, pts)
        _, per_query = self.check_rows(E, Q)
        for i in (1, 4, 7):
            assert per_query[i]["iterations"] == 0 and per_query[i]["residual"] == 0.0

    def test_guarded_rows_at_a_large_shift(self, monkeypatch):
        # At 1e8 from the origin every constraint row is guarded (exact norms
        # and the direct difference form).
        rng = np.random.default_rng(120)
        pts = 1e8 + rng.standard_normal((21, 6))
        pi = generate_sketch(5, 6, "rademacher", 4)
        self.small_seams(monkeypatch)
        E = build_embedder(build_point_set(pts), pi, 0.25)
        seen = _record_exact_work(monkeypatch)
        self.check_rows(E, self.batch(rng, pts))
        assert any(entry[0] == "guarded" and len(entry[1]) == 20 for entry in seen)

    def test_permuted_batch(self, monkeypatch):
        rng = np.random.default_rng(121)
        pts = rng.standard_normal((30, 6))
        self.small_seams(monkeypatch)
        E = build_embedder(build_point_set(pts), generate_sketch(5, 6, "rademacher", 5), 0.25)
        Q = self.batch(rng, pts, count=13)
        images, per_query = E.embed_batch(Q)
        perm = rng.permutation(Q.shape[0])
        images_p, per_query_p = E.embed_batch(Q[perm])
        assert np.array_equal(images_p, images[perm])
        assert per_query_p == [per_query[i] for i in perm]

    @pytest.mark.parametrize("n", [9, 30, 41])
    def test_block_size_keeps_bits(self, monkeypatch, n):
        # Blocks of a multiple of 8 rows, with no 1-row tail, give the same
        # products as one block over all of X and Pi X.
        rng = np.random.default_rng(130 + n)
        pts = rng.standard_normal((n, 16))
        X, pi = build_point_set(pts), generate_sketch(12, 16, "rademacher", 6)
        Q = self.batch(rng, pts)
        monkeypatch.setattr(extension, "_block_rows", lambda d, m: 1 << 20)
        whole = build_embedder(X, pi, 0.25).embed_batch(Q)
        self.small_seams(monkeypatch)
        E = build_embedder(X, pi, 0.25)
        assert [s.stop - s.start for s, _, _ in E._row_blocks][0] in (8, 9, n % 8)
        blocked = E.embed_batch(Q)
        assert np.array_equal(blocked[0], whole[0]) and blocked[1] == whole[1]

    @pytest.mark.parametrize("n", [1, 100, 5000, 10**6])
    def test_sizes_from_block_elements(self, n):
        d, m = 256, 227
        rows = extension._block_rows(d, m)
        assert rows % 8 == 0 and rows * (d + m) <= geometry.BLOCK_ELEMENTS // 2
        g = extension._group_rows(n, d, m)
        assert g >= 1
        assert g * (3 * n + 3 * d + m) <= max(geometry.BLOCK_ELEMENTS, 3 * n + 3 * d + m)


class TestTerminalImagesOnAccess:
    """terminal_images is built from base_images on every access and not
    kept: an embedder holds X, its map and base_images, not a second copy of
    them with a zero column."""

    def test_each_access_is_a_fresh_equal_array(self, any_embedder):
        E = any_embedder
        first, second = E.terminal_images, E.terminal_images
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        assert np.array_equal(first[:, :-1], E.base_images)
        assert np.all(first[:, -1] == 0.0) and not np.signbit(first[:, -1]).any()
        assert "terminal_images" not in vars(E)
        # every terminal embeds to its row, trailing coordinate +0.0
        images, _ = E.embed_batch(E.X.points)
        assert np.array_equal(images, first) and not np.signbit(images[:, -1]).any()

    def test_library_pass_leaves_no_copy_of_the_images(self):
        # The README library path on the serve shape (n = 1200, d = 256, m = 227):
        # what the embedder keeps past its calls is O(n), far below one
        # n x out_dim table (2.2 MB).
        rng = np.random.default_rng(68)
        X = build_point_set(rng.standard_normal((1200, 256)))
        plan = plan_dimension(X.n, 0.25, 1.0, X.d)
        assert (plan.mode, plan.m) == ("sketch", 227)
        pi = generate_sketch(plan.m, X.d, "rademacher", 1)
        Q = 1.5 * rng.standard_normal((12, X.d))
        tracemalloc.start()
        try:
            E = build_embedder(X, pi, 0.25)
            gc.collect()
            built = tracemalloc.get_traced_memory()[0]
            results = [E.embed_batch(Q), E.embed(Q[0])]
            queries, labels = sample_suite(X, 2, seed=3)
            results.append(evaluate(E, queries, labels))
            del results, queries, labels
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - built
        finally:
            tracemalloc.stop()
        assert held < X.n * E.out_dim * 8 / 4


class TestIdentityEquality:
    """The dataclasses that hold arrays compare and hash by identity; the
    value-only ones (SolverConfig, DimensionPlan) keep ==."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(73)
        pts = rng.standard_normal((6, 4))
        X1, X2 = build_point_set(pts), build_point_set(pts)
        pi = generate_sketch(3, 4, "rademacher", 2)
        E1, E2 = build_embedder(X1, pi, 0.25), build_embedder(X1, pi, 0.25)
        Y = direction_set(X1)
        u = 2.0 * rng.standard_normal(4)
        Q = rng.standard_normal((3, 4))
        return {
            "PointSet": (X1, X2),
            "DirectionSet": (Y, direction_set(X1)),
            "SketchMatrix": (pi, generate_sketch(3, 4, "rademacher", 2)),
            "TerminalEmbedder": (E1, E2),
            "EfnEmbedder": (EfnEmbedder(X1, E1.base_images), EfnEmbedder(X1, E1.base_images)),
            "ExactEmbedding": (exact_small_embedding(X1), exact_small_embedding(X1)),
            "ExtensionSolution": (solve_extension(u, E1), solve_extension(u, E1)),
            "HullPoint": (HullPoint(np.full(2, 0.5), np.zeros(4)), HullPoint(np.full(2, 0.5), np.zeros(4))),
            "ChdEstimate": (estimate_sampled(pi, Y, 10, 1), estimate_sampled(pi, Y, 10, 1)),
            "DistortionReport": (evaluate(E1, Q), evaluate(E1, Q)),
        }

    def test_array_holders_compare_and_hash_by_identity(self):
        pairs = self._pairs()
        for name, (a, b) in pairs.items():
            assert type(a).__name__ == name
            assert (a == b) is False and (a != b) is True, name
            assert a == a and hash(a) == hash(a), name
            assert len({a, b, a}) == 2, name

    def test_value_dataclasses_keep_equality(self):
        assert SolverConfig(7) == SolverConfig(7) and hash(SolverConfig(7)) == hash(SolverConfig(7))
        assert plan_dimension(50, 0.5, 1.0) == plan_dimension(50, 0.5, 1.0)
        assert len({plan_dimension(50, 0.5, 1.0), plan_dimension(50, 0.5, 1.0)}) == 1


class TestLineSearch:
    """_line_search minimizes h(s) = R ||a + s d|| + s delta over [0, 1]."""

    @staticmethod
    def _grid_min(a, d, delta, R):
        s = np.linspace(0.0, 1.0, 10001)
        h = R * np.linalg.norm(a[None] + s[:, None] * d[None], axis=1) + s * delta
        return float(h.min())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("slack", [1.0, 1.5, 4.0])
    def test_monotone_slope_takes_an_end(self, seed, slack):
        # delta^2 >= R^2 ||d||^2 (q <= 0): h never changes slope sign, so the
        # minimum sits at s = 1 when delta < 0 and at s = 0 otherwise.
        rng = np.random.default_rng(seed)
        a, d = rng.standard_normal(5), rng.standard_normal(5)
        R = float(rng.uniform(0.5, 2.0))
        for sign in (-1.0, 1.0):
            delta = sign * slack * R * float(np.linalg.norm(d))
            s = extension._line_search(float(a @ a), float(a @ d), float(d @ d), delta, R)
            assert s == (1.0 if delta < 0.0 else 0.0)
            h = R * float(np.linalg.norm(a + s * d)) + s * delta
            assert h <= self._grid_min(a, d, delta, R) + 1e-12 * (R * float(np.linalg.norm(a)) + abs(delta))

    def test_zero_q_exactly(self):
        # q = R^2 dd - delta^2 is exactly 0 at these values.
        a, d, R = np.array([1.0, 2.0]), np.array([3.0, 4.0]), 2.0
        for delta in (-10.0, 10.0):
            assert R * R * float(d @ d) - delta * delta == 0.0
            s = extension._line_search(float(a @ a), float(a @ d), float(d @ d), delta, R)
            assert s == (1.0 if delta < 0.0 else 0.0)
            h = R * float(np.linalg.norm(a + s * d)) + s * delta
            assert h <= self._grid_min(a, d, delta, R) + 1e-12
