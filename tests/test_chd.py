import dataclasses
import math

import numpy as np
import pytest

from termembed import (
    DimensionMismatch,
    DirectionSet,
    build_point_set,
    direction_set,
    estimate_sampled,
    generate_sketch,
    make_hull_point,
    violation,
)
from termembed import chd
from termembed.sketch import SketchMatrix
from chd_oracles import certify_grid, refine_local, sampled_violations


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


class TestPublicSurface:
    def test_exports(self):
        import termembed

        assert len(termembed.__all__) == len(set(termembed.__all__))
        assert all(getattr(termembed, name) is not None for name in termembed.__all__)
        for name in ("certify_grid", "refine_local", "sampled_violations"):
            assert not hasattr(termembed, name) and not hasattr(chd, name)

    def test_estimate_sets_every_field(self):
        Y = direction_set(build_point_set(np.random.default_rng(29).standard_normal((5, 4))))
        pi = generate_sketch(3, 4, "gaussian", 29)
        for T in (Y, Y.directions):
            est = estimate_sampled(pi, T, 100, seed=1)
            assert [f.name for f in dataclasses.fields(est)] == [
                "max_violation", "witness", "witness_tier", "tier_max"]
            assert type(est.max_violation) is float and est.max_violation >= 0.0
            assert est.witness.weights.shape == (len(Y),)
            assert list(est.tier_max) == ["vertex", "midpoint", "random"]
            assert max(est.tier_max.values()) == est.tier_max[est.witness_tier]


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
    """Direct per-pair scan in the stream's layout: for an array, one chunk
    of midpoint violations per first index; for a DirectionSet, with R its
    rows i < j, the minus chunk (R_p - R_q)/2, q >= p, then the plus chunk
    (R_p + R_q)/2, q > p, for each p."""
    if isinstance(T, DirectionSet):
        R = T.directions[T.half]
        chunks = [(p, lo, sign) for p in range(len(R)) for lo, sign in ((p, -1), (p + 1, 1))]
    else:
        R = np.asarray(T, dtype=np.float64)
        chunks = [(p, p + 1, 1) for p in range(len(R))]
    PR = R @ pi.entries.T
    for p, lo, sign in chunks:
        if lo == len(R):
            continue
        px = 0.5 * (PR[p] + sign * PR[lo:])
        x = 0.5 * (R[p] + sign * R[lo:])
        yield np.abs(
            np.sqrt(np.einsum("ij,ij->i", px, px))
            - np.sqrt(np.einsum("ij,ij->i", x, x))
        )


def midpoint_tolerance(T):
    """How far a midpoint entry off its chunk's max may sit from the direct
    formula: 1e-12, times the largest (||x_i|| + ||x_j||) / ||x_i - x_j||
    over the centred points of a DirectionSet, which the rounding bound of
    chd._midpoint_violations carries."""
    if not isinstance(T, DirectionSet):
        return 1e-12
    B = T.points - T.points.mean(axis=0)
    norms = np.linalg.norm(B, axis=1)
    i, j = T.pairs.T
    return 1e-12 * max(1.0, float(np.max((norms[i] + norms[j]) / T.distances)))


def _direction_set(points, m, seed):
    X = build_point_set(points)
    return direction_set(X), generate_sketch(m, X.d, "gaussian", seed)


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
    # ... and the reverse: a+b ~ 1e-6 e3, which Pi stretches 1e6 times more
    # than the e1-e2 plane (scaled so that ||Pi||_F ~ 1e3 stays within
    # sketch.MAX_FROBENIUS).
    half = np.column_stack([rng.standard_normal((4, 2)), np.zeros(4)])
    near = -half + 1e-6 * np.outer(rng.standard_normal(4), [0.0, 0.0, 1.0])
    T = np.vstack([half, near])
    yield T / np.linalg.norm(T, axis=1, keepdims=True), SketchMatrix(
        entries=np.diag([1e-3, 1e-3, 1e3]), distribution="gaussian", seed=0
    )
    # DirectionSets over n < d points, whose midpoint tier takes its Gram
    # blocks over the point coordinates: Gaussian, shifted by 1e6, with a
    # pair of points 1e-9 apart, and the smallest sets, n = 2 and n = 3.
    yield _direction_set(rng.standard_normal((12, 20)), 6, 1)
    yield _direction_set(rng.standard_normal((10, 16)) + 1e6, 5, 2)
    pts = rng.standard_normal((9, 16))
    pts[4] = pts[2]
    pts[4, 0] += 1e-9
    yield _direction_set(pts, 5, 3)
    yield _direction_set(rng.standard_normal((2, 5)), 3, 4)
    yield _direction_set(rng.standard_normal((3, 4)), 2, 5)
    # The last pair (4, 5), 1e-9 apart, gives the direction -e1 through a
    # point basis whose coordinates are some 1e9 times its length, so that
    # column's Gram values are off by about 1e-7. The pair (3, 4) gives
    # -e1 + 7e-9 e2, and a sketch that stretches e1 four-fold puts both
    # columns at the top of most rows, closer than that error: without the
    # column's rounding bound the blocks would miss the argmax.
    pts = rng.standard_normal((6, 8))
    pts[5] = pts[4]
    pts[5, 0] += 1e-9
    pts[3] = pts[4]
    pts[3, 0] -= 0.7
    pts[3, 1] += 5e-9
    P = generate_sketch(4, 8, "gaussian", 6).entries.copy()
    P[:, 0] *= 4.0
    yield direction_set(build_point_set(pts)), SketchMatrix(entries=P, distribution="gaussian", seed=0)


@pytest.fixture(params=["default", "small_blocks"])
def blocks(request, monkeypatch):
    if request.param == "small_blocks":
        # Many Gram blocks and several direct-recompute batches per block.
        monkeypatch.setattr(chd, "_MIDPOINT_BLOCK", 7)
        monkeypatch.setattr(chd, "_MIDPOINT_DIRECT", 5)
    return request.param


# name: (n, d, seed). A DirectionSet over n Gaussian points in R^d, with
# n >= d and with n < d, and an array of n rows, its own basis.
FRAME_INSTANCES = {"n_ge_d": (64, 32, 28), "n_lt_d": (40, 96, 29), "array": (300, 48, 30)}


def _held_arrays(gen, inputs):
    """The arrays held by a suspended generator's locals, down through lists,
    tuples and dicts, each by its base (a view holds its whole base), leaving
    out the objects in inputs and everything inside them."""
    skip = {id(a) for a in inputs}
    found, todo = [], list(gen.gi_frame.f_locals.values())
    while todo:
        obj = todo.pop()
        if id(obj) in skip:
            continue
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in skip:
                found.append(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return found


class TestMidpointFrame:
    @pytest.mark.parametrize("name", sorted(FRAME_INSTANCES))
    def test_frame_holds_no_pair_by_coordinate_operand(self, monkeypatch, name):
        # The midpoint tier's frame, what _midpoint_violations holds between
        # blocks: beside D and the basis points, O(h (q + m)) values and the
        # current block of rows. No h x n, n x h or h x d operand, whichever
        # of n and d is smaller (both at least 32 here).
        monkeypatch.setattr(chd, "_MIDPOINT_BLOCK", 8)
        n, d, seed = FRAME_INSTANCES[name]
        pts = np.random.default_rng(seed).standard_normal((n, d))
        T = pts if name == "array" else direction_set(build_point_set(pts))
        pi = generate_sketch(3, d, "gaussian", seed)
        D = chd._as_direction_matrix(T, d)
        basis = chd._hull_basis(pi, T, D)
        h, q = basis.half.size, basis.ends.shape[1]
        assert min(n, d) >= 32
        gen = chd._midpoint_violations(D, basis)
        next(gen)
        held = _held_arrays(gen, (D, basis, basis.B))
        gen.close()
        assert held
        assert max(a.size for a in held) <= max(h * (q + pi.m), 8 * h)


class TestMidpointTier:
    def test_chunk_max_and_argmax_match_reference(self, blocks):
        for T, pi in midpoint_instances():
            D = chd._as_direction_matrix(T)
            PD = reference_images(pi, T, D)
            stream = chd._violation_stream(pi, T, 10, 0)
            next(stream)
            for i, ref in enumerate(reference_midpoints(pi, T)):
                v, builder = next(stream)
                r = int(np.argmax(v))
                assert r == int(np.argmax(ref))
                assert v[r] == ref[r]
                if isinstance(T, DirectionSet):
                    # The weights name a pair whose direct value is the max.
                    a, b = np.flatnonzero(builder(r))
                    assert direct_pair_midpoints(D, PD, [a], [b])[0] == v[r]
                else:
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
            assert float(np.max(np.abs(got - ref))) <= midpoint_tolerance(T)

    def test_kept_chunks_equal_chunks_as_yielded(self, blocks):
        # Every chunk is a view of its own block's array: no later block may
        # write into an earlier chunk, which sampled_violations keeps.
        for T, pi in midpoint_instances():
            seen = [v.copy() for v, _ in chd._violation_stream(pi, T, 300, 2)]
            kept = [v for v, _ in list(chd._violation_stream(pi, T, 300, 2))]
            assert len(kept) == len(seen)
            assert all(np.array_equal(a, b) for a, b in zip(kept, seen))

    def test_stream_layout(self):
        # perfbench splits the tiers by this layout: one vertex chunk, then
        # |T| - 1 midpoint chunks, then random chunks. Over a DirectionSet
        # (mirror-closed, h = |T| / 2 rows t_ij with i < j) the midpoint
        # chunks alternate minus (length h - p) and plus (length h - 1 - p);
        # an array T keeps one chunk per first index, of length |T| - 1 - i.
        X = build_point_set(np.random.default_rng(41).standard_normal((6, 5)))
        Y = direction_set(X)
        k, h = len(Y), len(Y) // 2
        pi = generate_sketch(3, 5, "gaussian", 2)
        signed = [h - p - s for p in range(h) for s in (0, 1) if h - p - s > 0]
        for T, midpoints in ((Y, signed), (Y.directions, [k - 1 - i for i in range(k - 1)])):
            lengths = [v.shape[0] for v, _ in chd._violation_stream(pi, T, 700, 3)]
            assert lengths[0] == k
            assert len(midpoints) == k - 1
            assert lengths[1:k] == midpoints
            assert sum(lengths[k:]) == 700
            # |T| = 30: supports 2, 3 and 6 share 700 = 3 * 233 + 1 points
            assert lengths[k:] == [234, 233, 233]
        assert signed[:4] == [15, 14, 14, 13] and sum(signed) == h * h


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


def reference_images(pi, T, D):
    """D Pi^T, the images the stream must use bit for bit. A DirectionSet
    over two points is the one exception: the stream takes its images from
    a one-row product over its row i < j, which may round differently from
    the two-row D Pi^T, and that row's exact negation, so the reference is
    formed here the same way."""
    PD = D @ pi.entries.T
    if isinstance(T, DirectionSet) and len(T) == 2:
        i = int(np.flatnonzero(T.pairs[:, 0] < T.pairs[:, 1])[0])
        PD[i] = (D[i : i + 1] @ pi.entries.T)[0]
        PD[1 - i] = -PD[i]
    return PD


def reference_random_chunks(pi, T, samples, seed):
    """The random tier as a direct gather in 64-row sub-blocks: (v, idx, w) per
    chunk, drawing idx then w from one rng as the stream does."""
    D = np.asarray(T.directions if isinstance(T, DirectionSet) else T, dtype=np.float64)
    PD = reference_images(pi, T, D)
    k = D.shape[0]
    rng = np.random.default_rng(seed)
    sizes = list(dict.fromkeys(min(s, k) for s in (2, 3, math.isqrt(k - 1) + 1)))
    n_each, extra = divmod(samples, len(sizes))
    for j, s in enumerate(sizes):
        left = n_each + (j < extra)
        while left:
            c = min(512, left)
            idx = rng.integers(0, k, size=(c, s))
            w = rng.dirichlet(np.ones(s), size=c)
            x = np.empty((c, D.shape[1]))
            px = np.empty((c, PD.shape[1]))
            for lo in range(0, c, 64):
                rows = slice(lo, lo + 64)
                x[rows] = np.einsum("cs,csd->cd", w[rows], D[idx[rows]])
                px[rows] = np.einsum("cs,csd->cd", w[rows], PD[idx[rows]])
            v = np.abs(
                np.sqrt(np.einsum("ij,ij->i", px, px)) - np.sqrt(np.einsum("ij,ij->i", x, x))
            )
            yield v, idx, w
            left -= c


def near_duplicate_instance():
    """Three points, two of them 1e-9 apart along e1, under a sketch that
    stretches e1 four-fold: the hull points built from that pair's directions
    hold each chunk's max, many of them equal up to rounding, while the
    screen's error on them is about 1e-7."""
    rng = np.random.default_rng(60)
    pts = rng.standard_normal((3, 5))
    pts[2] = pts[1]
    pts[2, 0] += 1e-9
    P = generate_sketch(4, 5, "gaussian", 6).entries.copy()
    P[:, 0] *= 4.0
    return direction_set(build_point_set(pts)), SketchMatrix(
        entries=P, distribution="gaussian", seed=0
    )


def _gaussian_set(n, d, m, seed, shift=0.0, scale=1.0):
    def make():
        X = np.random.default_rng(seed).standard_normal((n, d)) * scale + shift
        return direction_set(build_point_set(X)), generate_sketch(m, d, "gaussian", seed)

    return make


def _near_duplicate_set(n, d, m, seed):
    # The close pair (4, 5) is a late column of the signed midpoint tier, so
    # its large (||B_4|| + ||B_5||)/d_45 weight meets many rows.
    def make():
        X = np.random.default_rng(seed).standard_normal((n, d))
        X[5] = X[4]
        X[5, 0] += 1e-9
        return direction_set(build_point_set(X)), generate_sketch(m, d, "gaussian", seed)

    return make


def _unit_array(k):
    def make():
        T = np.random.default_rng(70 + k).standard_normal((k, 7))
        return T / np.linalg.norm(T, axis=1, keepdims=True), generate_sketch(4, 7, "gaussian", k)

    return make


RANDOM_INSTANCES = {
    "gaussian_9x12": _gaussian_set(9, 12, 5, 61),
    "gaussian_17x24": _gaussian_set(17, 24, 6, 62),
    "near_duplicate": near_duplicate_instance,
    "shift_1e6": _gaussian_set(8, 6, 4, 63, shift=1e6),
    "shift_1e8": _gaussian_set(8, 6, 4, 64, shift=1e8),
    "scale_1e-150": _gaussian_set(8, 6, 4, 65, scale=1e-150),
    # n < d: the random tier takes ||x||^2 from the basis Gram G.
    "gaussian_12x20": _gaussian_set(12, 20, 6, 67),
    "shift_1e6_10x16": _gaussian_set(10, 16, 5, 68, shift=1e6),
    "near_duplicate_9x16": _near_duplicate_set(9, 16, 5, 69),
    "two_points": _gaussian_set(2, 5, 3, 70),
    "three_points": _gaussian_set(3, 4, 2, 71),
    **{f"array_{k}": _unit_array(k) for k in (1, 2, 3, 272)},
}


class TestRandomTierScreen:
    @pytest.mark.parametrize("name", sorted(RANDOM_INSTANCES))
    def test_chunks_match_gather(self, name):
        T, pi = RANDOM_INSTANCES[name]()
        D = chd._as_direction_matrix(T, pi.d)
        PD = reference_images(pi, T, D)
        basis = chd._hull_basis(pi, T, D)
        assert np.array_equal(basis.PD, PD)
        for seed in (0, 1):
            got = list(chd._violation_stream(pi, T, 1600, seed))[len(D):]
            ref = list(reference_random_chunks(pi, T, 1600, seed))
            assert len(got) == len(ref)
            for (v, _), (v_ref, idx, w) in zip(got, ref):
                r = int(np.argmax(v_ref))
                assert int(np.argmax(v)) == r and v[r] == v_ref[r]
                again, b = chd._sparse_violations(D, basis, idx, w)
                assert np.array_equal(again, v)
                assert np.all(np.abs(v - v_ref) <= b)

    def test_screen_alone_misses_the_argmax(self):
        # Without the guard the GEMM screen would pick another row: the
        # fixture above exercises the bound, not just the screen.
        Y, pi = near_duplicate_instance()
        B = Y.points - Y.points.mean(axis=0)
        misses = 0
        for v_ref, idx, w in reference_random_chunks(pi, Y, 1600, 0):
            i, j = Y.pairs[idx, 0], Y.pairs[idx, 1]
            coef = w / Y.distances[idx]
            rows = np.arange(w.shape[0])[:, None]
            C = np.zeros((w.shape[0], B.shape[0]))
            np.add.at(C, (rows, i), coef)
            np.add.at(C, (rows, j), -coef)
            x = C @ B
            screen = chd._norm_gap(x, x @ pi.entries.T)
            misses += int(np.argmax(screen)) != int(np.argmax(v_ref))
        assert misses > 0

    def test_bound_does_not_grow_with_a_shift(self):
        # Centring keeps a common offset out of the basis, so the bound (and
        # the number of rows recomputed) is that of the unshifted set.
        X = np.random.default_rng(66).standard_normal((8, 6))
        pi = generate_sketch(4, 6, "gaussian", 66)
        rng = np.random.default_rng(67)
        idx = rng.integers(0, 56, size=(300, 8))
        w = rng.dirichlet(np.ones(8), size=300)
        bounds = []
        for shift in (0.0, 1e8):
            Y = direction_set(build_point_set(X + shift))
            basis = chd._hull_basis(pi, Y, Y.directions)
            bounds.append(chd._sparse_violations(Y.directions, basis, idx, w)[1])
        assert np.all(bounds[1] <= 2.0 * bounds[0])


class TestTierReport:
    @pytest.mark.parametrize("name", ["gaussian_9x12", "near_duplicate", "array_1", "array_272"])
    def test_witness_tier_holds_the_max(self, name):
        T, pi = RANDOM_INSTANCES[name]()
        k = len(T)
        for seed in (0, 1, 2):
            est = estimate_sampled(pi, T, 700, seed=seed)
            chunks = [v for v, _ in chd._violation_stream(pi, T, 700, seed)]
            expect = {"vertex": float(chunks[0].max()),
                      "random": float(max(v.max() for v in chunks[k:]))}
            if k > 1:
                expect["midpoint"] = float(max(v.max() for v in chunks[1:k]))
            assert est.tier_max == expect
            assert est.tier_max[est.witness_tier] == max(est.tier_max.values())
            assert abs(est.tier_max[est.witness_tier] - est.max_violation) <= 1e-12


def mirror_index(Y):
    """Row of (j, i) for each row (i, j) of Y.pairs, found by lookup."""
    row = {pair: r for r, pair in enumerate(map(tuple, Y.pairs.tolist()))}
    return np.array([row[(j, i)] for i, j in Y.pairs.tolist()], dtype=np.int64)


def direct_pair_midpoints(D, PD, a, b):
    """The per-pair formula at 0.5 * (t_a + t_b), as a per-pair scan evaluates it."""
    x = 0.5 * (D[a] + D[b])
    px = 0.5 * (PD[a] + PD[b])
    return np.abs(np.sqrt(np.einsum("ij,ij->i", px, px)) - np.sqrt(np.einsum("ij,ij->i", x, x)))


def midpoint_chunks(pi, T):
    """(v, pairs) per midpoint chunk of the stream: pairs[r] = (a, b), a < b,
    the two directions its builder gives weight 1/2."""
    k = len(T)
    stream = chd._violation_stream(pi, T, 1, 0)
    next(stream)
    for _ in range(k - 1):
        v, builder = next(stream)
        pairs = np.empty((v.size, 2), dtype=np.int64)
        for r in range(v.size):
            w = builder(r)
            pairs[r] = np.flatnonzero(w)
            assert np.array_equal(w[pairs[r]], [0.5, 0.5])
        yield v, pairs


def mirror_sets():
    rng = np.random.default_rng(80)
    for n, d in ((2, 3), (5, 4), (13, 9)):
        yield direction_set(build_point_set(rng.standard_normal((n, d))))
    yield direction_set(build_point_set(rng.standard_normal((9, 6)) + 1e6))
    yield direction_set(build_point_set(rng.standard_normal((1, 3))))  # empty
    # Cube corners: x_i - x_j has exact zeros, +0.0 in both orders, so the
    # mirror of a row is -D only up to the sign of zero.
    corners = np.array([[(c >> b) & 1 for b in range(3)] for c in range(8)], dtype=np.float64)
    yield direction_set(build_point_set(corners))


# The array scan of test_estimate_matches_full_scan matches a DirectionSet
# bit for bit only where their images do: over two points the stream's
# images come from a one-row product, which may round differently from the
# array's D Pi^T (by 1e-16 here), so two_points is left out.
MIRROR_INSTANCES = {
    n: make for n, make in RANDOM_INSTANCES.items()
    if not n.startswith("array_") and n != "two_points"
}


class TestMirrorGuard:
    def test_direction_set_is_mirror_closed(self):
        for Y in mirror_sets():
            neg = mirror_index(Y)
            assert np.array_equal(Y.mirror, neg)
            assert np.array_equal(Y.half, np.flatnonzero(Y.pairs[:, 0] < Y.pairs[:, 1]))
            assert np.array_equal(Y.pairs[neg], Y.pairs[:, ::-1])
            assert np.array_equal(Y.directions[neg], -Y.directions)
            assert Y.half.size * 2 == len(Y) == Y.mirror.size

    def test_stream_images_are_exact_negations(self):
        for Y in mirror_sets():
            if len(Y) == 0:
                continue
            pi = generate_sketch(2, Y.points.shape[1], "gaussian", len(Y))
            PD = chd._hull_basis(pi, Y, Y.directions).PD
            assert np.array_equal(PD[Y.mirror], -PD)
            assert np.array_equal(np.signbit(PD[Y.mirror]), ~np.signbit(PD))
            v = next(chd._violation_stream(pi, Y, 1, 0))[0]
            assert np.array_equal(v[Y.mirror], v)

    def test_derived_fields_are_not_arguments(self):
        Y = list(mirror_sets())[1]
        for name in ("directions", "pairs", "distances", "half", "mirror"):
            with pytest.raises(TypeError):
                DirectionSet(points=np.array(Y.points), **{name: getattr(Y, name)})
        again = DirectionSet(points=np.array(Y.points))
        for name in ("directions", "pairs", "distances", "half", "mirror"):
            assert np.array_equal(getattr(again, name), getattr(Y, name))
            assert not getattr(again, name).flags.writeable

    def test_cube_corners_take_the_signed_path(self):
        # The exact zeros make D[mirror] and -D differ in the sign of zero
        # only; no norm sees that sign.
        Y = list(mirror_sets())[-1]
        D = Y.directions
        assert np.any(np.signbit(D[Y.mirror]) != np.signbit(-D))
        pi = generate_sketch(2, 3, "gaussian", 81)
        for v, pairs in midpoint_chunks(pi, Y):
            ref = direct_pair_midpoints(D, D @ pi.entries.T, pairs[:, 0], pairs[:, 1])
            r = int(np.argmax(ref))
            assert int(np.argmax(v)) == r and v[r] == ref[r]


class TestSignedMidpointTier:
    @pytest.mark.parametrize("name", sorted(MIRROR_INSTANCES))
    def test_chunks_match_the_pairs_they_name(self, name, blocks):
        Y, pi = MIRROR_INSTANCES[name]()
        D, k, h = Y.directions, len(Y), len(Y) // 2
        PD = D @ pi.entries.T
        neg = mirror_index(Y)
        # Off a chunk's max, an entry whose column holds the late pair 1e-9
        # apart carries the basis frame's rounding, which midpoint_tolerance
        # bounds (52 entries exceed 1e-12, the largest by 2.2e-7); every
        # other instance keeps 1e-12.
        tol = midpoint_tolerance(Y) if name == "near_duplicate_9x16" else 1e-12
        named = []
        for v, pairs in midpoint_chunks(pi, Y):
            ref = direct_pair_midpoints(D, PD, pairs[:, 0], pairs[:, 1])
            r = int(np.argmax(ref))
            assert int(np.argmax(v)) == r and v[r] == ref[r]
            assert float(np.max(np.abs(v - ref))) <= tol
            named += map(tuple, pairs.tolist())
        # One midpoint per mirror pair {(a, b), (-a, -b)}, named by the
        # member that comes first in the per-pair order.
        mirrors = [tuple(sorted((neg[a], neg[b]))) for a, b in named]
        assert len(named) == h * h
        assert all(p <= q for p, q in zip(named, mirrors))
        assert len(set(named) | set(mirrors)) == k * (k - 1) // 2

    @pytest.mark.parametrize("name", sorted(MIRROR_INSTANCES))
    def test_estimate_matches_full_scan(self, name, blocks):
        Y, pi = MIRROR_INSTANCES[name]()
        for seed in (0, 1, 2):
            signed = estimate_sampled(pi, Y, 700, seed=seed)
            full = estimate_sampled(pi, Y.directions, 700, seed=seed)
            assert signed.max_violation == full.max_violation
            assert np.array_equal(signed.witness.weights, full.witness.weights)
            assert signed.witness_tier == full.witness_tier
            assert signed.tier_max == full.tier_max

    def test_two_points(self, blocks):
        Y = direction_set(build_point_set(np.array([[0.3, -1.0, 2.0], [1.5, 0.25, -0.5]])))
        pi = generate_sketch(2, 3, "gaussian", 85)
        chunks = list(chd._violation_stream(pi, Y, 5, 0))
        assert [v.shape[0] for v, _ in chunks[:2]] == [2, 1]
        v, builder = chunks[1]
        assert v[0] == 0.0
        assert np.array_equal(builder(0), [0.5, 0.5])


def reference_estimate(pi, T, samples, seed):
    """The witness loop of estimate_sampled as written before its loop did
    O(1) work per chunk, kept as the reference for its witness rule."""
    D = chd._as_direction_matrix(T, pi.d)
    best_v = -1.0
    best_weights = None
    best_tier = None
    tier_max: dict = {}
    for chunk, (v, builder) in enumerate(chd._violation_stream(pi, T, samples, seed)):
        tier = "vertex" if chunk == 0 else "midpoint" if chunk < D.shape[0] else "random"
        r = int(np.argmax(v))
        tier_max[tier] = max(tier_max.get(tier, -1.0), float(v[r]))
        if v[r] > best_v:
            best_v = float(v[r])
            best_weights = builder(r)
            best_tier = tier
    witness = make_hull_point(D, best_weights)
    return chd.ChdEstimate(
        max_violation=violation(pi, witness),
        witness=witness,
        witness_tier=best_tier,
        tier_max=tier_max,
    )


def assert_same_estimate(pi, T, samples, seed):
    est = estimate_sampled(pi, T, samples, seed=seed)
    ref = reference_estimate(pi, T, samples, seed)
    assert est.max_violation == ref.max_violation
    assert np.array_equal(est.witness.weights, ref.witness.weights)
    assert est.witness_tier == ref.witness_tier
    assert est.tier_max == ref.tier_max
    assert list(est.tier_max) == list(ref.tier_max)
    assert all(type(x) is float for x in est.tier_max.values())
    return est


class TestWitnessRule:
    def test_midpoint_instances(self, blocks):
        for T, pi in midpoint_instances():
            for seed in (0, 1):
                assert_same_estimate(pi, T, 300, seed)

    @pytest.mark.parametrize("name", sorted(RANDOM_INSTANCES))
    def test_random_instances(self, name):
        T, pi = RANDOM_INSTANCES[name]()
        for seed in (0, 1):
            assert_same_estimate(pi, T, 700, seed)

    def test_mirror_sets(self, blocks):
        for Y in mirror_sets():
            if len(Y) == 0:
                continue
            pi = generate_sketch(2, Y.points.shape[1], "gaussian", len(Y))
            for seed in (0, 1):
                assert_same_estimate(pi, Y, 300, seed)

    def test_first_occurrence_wins_a_tie(self):
        # T = [a, a, b]: the midpoint (a + a)/2 is a, so the midpoint chunk
        # ties the vertex a exactly at the max; the vertex chunk comes first.
        # Pi = diag(2, 1) gives a = e1 the largest violation, 1. At these
        # seeds no random point exceeds it (a point on a alone may round to
        # (1 + ulp) a, which would), and some tie it.
        T = np.array([[1.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
        pi = SketchMatrix(entries=np.diag([2.0, 1.0]), distribution="gaussian", seed=0)
        for seed in (0, 1, 2):
            est = assert_same_estimate(pi, T, 20, seed)
            assert est.tier_max["vertex"] == est.tier_max["midpoint"] == 1.0
            assert est.tier_max["random"] <= 1.0
            assert est.witness_tier == "vertex"
            assert np.array_equal(est.witness.weights, [1.0, 0.0, 0.0])


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
