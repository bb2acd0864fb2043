import numpy as np
import pytest

from termembed import (
    DimensionMismatch,
    TooManyDirections,
    build_point_set,
    certify_grid,
    direction_set,
    estimate_sampled,
    generate_sketch,
    make_hull_point,
    refine_local,
    sampled_violations,
    violation,
)
from termembed import chd
from termembed.sketch import SketchMatrix


def identity_sketch(d):
    return SketchMatrix(entries=np.eye(d), distribution="gaussian", seed=0)


def brute_force_grid_max(pi, T, steps):
    """Independent oracle: scan the 1-simplex for |T|=2 by direct looping."""
    assert T.shape[0] == 2
    best = -1.0
    for i in range(steps + 1):
        lam = i / steps
        x = lam * T[0] + (1 - lam) * T[1]
        v = abs(np.linalg.norm(pi.entries @ x) - np.linalg.norm(x))
        best = max(best, v)
    return best


class TestViolation:
    def test_identity_is_isometry(self):
        rng = np.random.default_rng(0)
        T = rng.standard_normal((4, 5))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = identity_sketch(5)
        for w in np.random.default_rng(1).dirichlet(np.ones(4), size=10):
            assert violation(pi, make_hull_point(T, w)) <= 1e-14

    def test_zero_matrix_unit_vertex(self):
        T = np.array([[1.0, 0.0]])
        pi = SketchMatrix(entries=np.zeros((3, 2)), distribution="gaussian", seed=0)
        assert violation(pi, make_hull_point(T, [1.0])) == 1.0

    def test_cancelling_weights_give_zero(self):
        T = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pi = generate_sketch(3, 2, "gaussian", 9)
        p = make_hull_point(T, [0.5, 0.5])
        assert np.allclose(p.vector, 0.0)
        assert violation(pi, p) == 0.0

    def test_dimension_mismatch(self):
        pi = generate_sketch(3, 2, "gaussian", 0)
        with pytest.raises(DimensionMismatch):
            violation(pi, np.zeros(5))

    def test_scale_covariance(self):
        rng = np.random.default_rng(12)
        T = rng.standard_normal((3, 4))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        p = make_hull_point(T, [0.2, 0.3, 0.5])
        pi = generate_sketch(5, 4, "gaussian", 3)
        for c in (0.5, 2.0, 7.0):
            scaled = SketchMatrix(entries=c * pi.entries, distribution="gaussian", seed=0)
            direct = np.linalg.norm(scaled.entries @ p.vector)
            assert abs(direct - c * np.linalg.norm(pi.entries @ p.vector)) <= 1e-10


class TestCertifyGrid:
    def test_stretched_diagonal_example(self):
        # Pi = diag(1.1, 1) on T = {e1, -e1}: violation is 0.1|2*lam - 1|,
        # maximized at the vertices.
        T = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pi = SketchMatrix(entries=np.diag([1.1, 1.0]), distribution="gaussian", seed=0)
        est = certify_grid(pi, T, 0.01)
        assert abs(est.max_violation - 0.1) <= 1e-12
        assert abs(est.lipschitz - 2.1) <= 1e-12
        assert abs(est.certified_bound - (est.max_violation + 2.1 * 0.01)) <= 1e-15
        # independent oracle agrees
        assert abs(est.max_violation - brute_force_grid_max(pi, T, 100)) <= 1e-12

    def test_identity_grid(self):
        T = np.array([[1.0, 0.0], [-1.0, 0.0]])
        est = certify_grid(identity_sketch(2), T, 0.01)
        assert est.max_violation <= 1e-14
        assert abs(est.certified_bound - est.lipschitz * 0.01) <= 1e-14

    def test_invalid_step(self):
        T = np.array([[1.0], [-1.0]])
        pi = generate_sketch(2, 1, "gaussian", 0)
        with pytest.raises(ValueError):
            certify_grid(pi, T, 0.0)
        with pytest.raises(ValueError):
            certify_grid(pi, T, 1.5)

    def test_too_many_directions(self):
        rng = np.random.default_rng(1)
        T = rng.standard_normal((7, 3))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        with pytest.raises(TooManyDirections):
            certify_grid(generate_sketch(2, 3, "gaussian", 0), T, 0.1)

    def test_witness_violation_matches(self):
        rng = np.random.default_rng(6)
        T = rng.standard_normal((4, 4))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(2, 4, "gaussian", 5)
        est = certify_grid(pi, T, 0.05)
        assert abs(violation(pi, est.witness) - est.max_violation) <= 1e-10

    def test_coarse_vs_fine_sandwich(self):
        # certified_bound >= true sup >= grid max, probed by grid refinement
        rng = np.random.default_rng(21)
        T = rng.standard_normal((3, 3))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(2, 3, "gaussian", 8)
        coarse = certify_grid(pi, T, 1e-1)
        fine = certify_grid(pi, T, 1e-3)
        assert fine.max_violation >= coarse.max_violation - 1e-12
        assert coarse.certified_bound >= fine.max_violation - 1e-12
        assert fine.certified_bound >= coarse.max_violation - 1e-12


class TestEstimateSampled:
    def test_includes_vertices(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((6, 4))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(3, 4, "gaussian", 13)
        est = estimate_sampled(pi, T, 50, seed=0)
        vertex_worst = max(violation(pi, t) for t in T)
        assert est.max_violation >= vertex_worst - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        T = rng.standard_normal((5, 3))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(2, 3, "gaussian", 1)
        a = estimate_sampled(pi, T, 500, seed=42)
        b = estimate_sampled(pi, T, 500, seed=42)
        assert a.max_violation == b.max_violation
        assert np.array_equal(a.witness.weights, b.witness.weights)

    def test_sandwich_against_grid(self):
        rng = np.random.default_rng(15)
        T = rng.standard_normal((3, 3))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(2, 3, "gaussian", 77)
        grid = certify_grid(pi, T, 1e-2)
        est = estimate_sampled(pi, T, 5000, seed=3)
        assert est.max_violation <= grid.certified_bound + 1e-9
        assert est.max_violation >= grid.max_violation - grid.lipschitz * grid.step - 1e-9

    def test_witness_recompute_matches(self):
        rng = np.random.default_rng(30)
        T = rng.standard_normal((8, 5))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(3, 5, "gaussian", 2)
        est = estimate_sampled(pi, T, 2000, seed=5)
        assert abs(violation(pi, est.witness) - est.max_violation) <= 1e-10

    def test_accepts_direction_set(self):
        X = build_point_set(np.random.default_rng(5).standard_normal((5, 4)))
        Y = direction_set(X)
        pi = generate_sketch(6, 4, "rademacher", 3)
        est = estimate_sampled(pi, Y, 200, seed=1)
        assert est.max_violation >= 0.0

    def test_mirrored_weights_same_violation(self):
        # T closed under negation: swapping the weights of t and -t mirrors
        # the hull point to its negation, leaving the violation unchanged.
        rng = np.random.default_rng(9)
        half = rng.standard_normal((4, 5))
        half /= np.linalg.norm(half, axis=1, keepdims=True)
        T = np.vstack([half, -half])
        pi = generate_sketch(3, 5, "gaussian", 11)
        w = rng.dirichlet(np.ones(8))
        mirrored = np.concatenate([w[4:], w[:4]])
        v1 = violation(pi, make_hull_point(T, w))
        v2 = violation(pi, make_hull_point(T, mirrored))
        assert abs(v1 - v2) <= 1e-12

    def test_concentration_median_nonincreasing_in_m(self):
        # median (over 5 seeds) of the sampled max violation should not grow
        # when m doubles
        rng = np.random.default_rng(14)
        half = rng.standard_normal((8, 16))
        half /= np.linalg.norm(half, axis=1, keepdims=True)
        T = np.vstack([half, -half])
        medians = []
        for m in (32, 64, 128):
            vals = [
                estimate_sampled(
                    generate_sketch(m, 16, "rademacher", 100 + s), T, 2000, seed=s
                ).max_violation
                for s in range(5)
            ]
            medians.append(float(np.median(vals)))
        assert medians[0] >= medians[1] >= medians[2]


def reference_midpoints(pi, T):
    """Direct per-pair scan: one chunk of midpoint violations per first index."""
    D = np.asarray(T, dtype=np.float64)
    PD = D @ pi.entries.T
    for i in range(D.shape[0] - 1):
        px = 0.5 * (PD[i] + PD[i + 1 :])
        x = 0.5 * (D[i] + D[i + 1 :])
        yield np.abs(
            np.sqrt(np.einsum("ij,ij->i", px, px))
            - np.sqrt(np.einsum("ij,ij->i", x, x))
        )


def reference_population(pi, T, samples, seed):
    """The stream's chunks with the midpoint tier taken from the reference scan."""
    chunks = list(chd._violation_stream(pi, T, samples, seed))
    for i, v in enumerate(reference_midpoints(pi, T)):
        chunks[1 + i] = (v, chunks[1 + i][1])
    return chunks


def midpoint_instances():
    rng = np.random.default_rng(40)
    # |Y| = 17 * 16 = 272: |Y| - 1 = 271 is not a multiple of the block size,
    # and y_ij = -y_ji gives |Y| / 2 antipodal (cancelling) pairs.
    for seed in range(3):
        X = build_point_set(rng.standard_normal((17, 24)))
        yield direction_set(X).directions, generate_sketch(6, 24, "rademacher", seed)
    # {+-e_k} under a diagonal sketch: exact ties inside a chunk (e1+e2 and
    # e1-e2 have equal norms and image norms) and exact cancellation.
    E = np.eye(5)
    yield np.vstack([E, -E]), SketchMatrix(
        entries=np.diag([0.8, 0.9, 1.0, 1.1, 1.2]), distribution="gaussian", seed=0
    )
    # Near-antipodal pairs: ||a+b|| ~ 1e-6, where the Gram identity alone
    # would be off by far more than 1e-12.
    half = rng.standard_normal((5, 8))
    near = -half + 1e-6 * rng.standard_normal((5, 8))
    T = np.vstack([half, near])
    yield T / np.linalg.norm(T, axis=1, keepdims=True), generate_sketch(4, 8, "gaussian", 3)
    # Cancellation on one side only. Pi drops e3, so Pi(a+b) ~ 1e-6 for the
    # pairs near (+-e1 + e3/10), (+-e2 + e3/10) while a+b does not cancel;
    # the pairs with e3 violate more, so no row max rescues those midpoints.
    T = np.array([[1, 0, 0.1], [-1, 0, 0.1], [0, 1, 0.1], [0, -1, 0.1], [0, 0, 1], [1, -1, 1]])
    T[:, :2] += 1e-6 * rng.standard_normal((6, 2))
    yield T / np.linalg.norm(T, axis=1, keepdims=True), SketchMatrix(
        entries=np.eye(3)[:2], distribution="gaussian", seed=0
    )
    # ... and the reverse: a+b ~ 1e-6 e3, which Pi stretches by 1e6.
    half = np.column_stack([rng.standard_normal((4, 2)), np.zeros(4)])
    near = -half + 1e-6 * np.outer(rng.standard_normal(4), [0.0, 0.0, 1.0])
    T = np.vstack([half, near])
    yield T / np.linalg.norm(T, axis=1, keepdims=True), SketchMatrix(
        entries=np.diag([1.0, 1.0, 1e6]), distribution="gaussian", seed=0
    )


@pytest.fixture(params=["default", "small_blocks"])
def blocks(request, monkeypatch):
    if request.param == "small_blocks":
        # Many Gram blocks and several direct-recompute batches per block.
        monkeypatch.setattr(chd, "_MIDPOINT_BLOCK", 7)
        monkeypatch.setattr(chd, "_MIDPOINT_DIRECT", 5)
    return request.param


class TestMidpointTier:
    def test_chunk_max_and_argmax_match_reference(self, blocks):
        for T, pi in midpoint_instances():
            stream = chd._violation_stream(pi, T, 10, 0)
            next(stream)
            for i, ref in enumerate(reference_midpoints(pi, T)):
                v, builder = next(stream)
                r = int(np.argmax(v))
                assert r == int(np.argmax(ref))
                assert v[r] == ref[r]
                w = np.zeros(len(T))
                w[[i, i + 1 + r]] = 0.5
                assert np.array_equal(builder(r), w)

    def test_estimate_matches_reference(self, blocks):
        for T, pi in midpoint_instances():
            for seed in (0, 1, 2):
                est = estimate_sampled(pi, T, 300, seed=seed)
                best_v, best_w = -1.0, None
                for v, builder in reference_population(pi, T, 300, seed):
                    r = int(np.argmax(v))
                    if v[r] > best_v:
                        best_v, best_w = float(v[r]), builder(r)
                assert np.array_equal(est.witness.weights, best_w)
                assert est.max_violation == violation(pi, make_hull_point(T, best_w))

    def test_sampled_violations_match_reference(self, blocks):
        for T, pi in midpoint_instances():
            got = sampled_violations(pi, T, 300, seed=4)
            ref = np.concatenate([v for v, _ in reference_population(pi, T, 300, 4)])
            assert got.shape == ref.shape
            assert float(np.max(np.abs(got - ref))) <= 1e-12

    def test_stream_layout(self):
        # perfbench splits the tiers by this layout: one vertex chunk, then
        # |T| - 1 midpoint chunks of lengths |T| - 1 - i, then random chunks.
        X = build_point_set(np.random.default_rng(41).standard_normal((6, 5)))
        Y = direction_set(X)
        k = len(Y)
        pi = generate_sketch(3, 5, "gaussian", 2)
        lengths = [v.shape[0] for v, _ in chd._violation_stream(pi, Y, 700, 3)]
        assert lengths[0] == k
        assert lengths[1:k] == [k - 1 - i for i in range(k - 1)]
        assert sum(lengths[k:]) == 700
        # |T| = 30: supports 2, 3 and 6 share 700 = 3 * 233 + 1 points
        assert lengths[k:] == [234, 233, 233]


class TestRandomTier:
    # (support size, points) per size, in stream order, for 1031 samples:
    # 1031 = 2 * 515 + 1 = 3 * 343 + 2; ceil(sqrt(272)) = 17.
    SPLITS = {
        1: [(1, 1031)],
        2: [(2, 1031)],
        3: [(2, 516), (3, 515)],
        272: [(2, 344), (3, 344), (17, 343)],
    }

    @pytest.mark.parametrize("k", sorted(SPLITS))
    def test_sizes_counts_and_weights(self, k):
        rng = np.random.default_rng(50 + k)
        T = rng.standard_normal((k, 7))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(4, 7, "gaussian", k)
        # one vertex chunk and |T| - 1 midpoint chunks come first
        chunks = list(chd._violation_stream(pi, T, 1031, seed=k))[k:]
        for size, count in self.SPLITS[k]:
            supports = []
            while count:
                v, builder = chunks.pop(0)
                assert 1 <= v.shape[0] <= min(count, chd._CHUNK_SPARSE)
                count -= v.shape[0]
                for r in range(v.shape[0]):
                    w = builder(r)
                    supports.append(np.count_nonzero(w))
                    assert w.shape == (k,) and w.min() >= 0.0
                    assert abs(w.sum() - 1.0) <= 1e-12
                    assert abs(violation(pi, make_hull_point(T, w)) - v[r]) <= 1e-12
            assert max(supports) == size
        assert chunks == []


class TestRefineLocal:
    def _instance(self):
        rng = np.random.default_rng(18)
        T = rng.standard_normal((4, 4))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        pi = generate_sketch(2, 4, "gaussian", 4)
        return T, pi

    def test_fixed_point_at_vertex_max(self):
        T = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pi = SketchMatrix(entries=np.diag([1.1, 1.0]), distribution="gaussian", seed=0)
        start = make_hull_point(T, [1.0, 0.0])
        est = refine_local(pi, T, start, iters=10)
        assert abs(est.max_violation - 0.1) <= 1e-12
        assert np.allclose(est.witness.weights, [1.0, 0.0], atol=1e-12)

    def test_trace_nondecreasing(self):
        T, pi = self._instance()
        start = make_hull_point(T, np.full(4, 0.25))
        est = refine_local(pi, T, start, iters=15)
        assert all(a <= b + 1e-15 for a, b in zip(est.trace, est.trace[1:]))
        assert est.max_violation >= violation(pi, start) - 1e-12

    def test_reaches_grid_window(self):
        T, pi = self._instance()
        grid = certify_grid(pi, T, 1e-2)
        sampled = estimate_sampled(pi, T, 4000, seed=6)
        refined = refine_local(pi, T, sampled.witness, iters=40)
        assert refined.max_violation >= grid.max_violation - grid.lipschitz * grid.step - 1e-9
        assert refined.max_violation <= grid.certified_bound + 1e-9

    def test_witness_recompute_matches(self):
        T, pi = self._instance()
        start = make_hull_point(T, [0.7, 0.1, 0.1, 0.1])
        est = refine_local(pi, T, start, iters=10)
        assert abs(violation(pi, est.witness) - est.max_violation) <= 1e-10
