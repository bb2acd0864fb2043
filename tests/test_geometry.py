import warnings

import numpy as np
import pytest

from termembed import (
    DimensionMismatch,
    DuplicatePoint,
    EmptyInput,
    NonFinitePoint,
    build_point_set,
    direction_set,
    distances_to,
    nearest_point,
)
from termembed import geometry
from termembed.geometry import distance_matrix, nearest, nearest_batch
from test_harness import _broadcast_diameter, _broadcast_nearest_neighbor_dists


class TestBuildPointSet:
    def test_basic_construction(self):
        X = build_point_set([(0, 0), (3, 0)])
        assert X.n == 2 and X.d == 2
        assert np.array_equal(X.points, [[0, 0], [3, 0]])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePoint):
            build_point_set([(1, 1), (1, 1)])

    def test_negative_zero_is_duplicate(self):
        with pytest.raises(DuplicatePoint):
            build_point_set([(0.0,), (-0.0,)])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_point_set([(1,), (2, 3)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            build_point_set([])

    def test_nan_rejected(self):
        with pytest.raises(NonFinitePoint):
            build_point_set([(0.0, np.nan)])

    def test_order_preserved(self):
        pts = np.random.default_rng(0).standard_normal((7, 3))
        X = build_point_set(pts)
        assert np.array_equal(X.points, pts)

    def test_points_are_read_only(self):
        X = build_point_set([(0, 0), (3, 0)])
        with pytest.raises(ValueError):
            X.points[0, 0] = 5.0

    def test_keeps_the_checked_squared_norms(self):
        pts = np.random.default_rng(2).standard_normal((9, 4)) * 1e100
        X = geometry.PointSet(points=pts)
        assert X.points is pts
        assert X.sq_norms.tobytes() == np.einsum("ij,ij->i", pts, pts).tobytes()

    @pytest.mark.parametrize("n", [1, 5])
    def test_cached_arrays_are_read_only(self, n):
        X = build_point_set(np.random.default_rng(n).standard_normal((n, 3)))
        for arr in (X.sq_norms, X.norms, X.neighbor_scales[0]):
            with pytest.raises(ValueError):
                arr[0] = 0.0


_ABOVE = (
    "point 1 has norm 6.547e+150, above the bound MAX_NORM = 2**500 (about 3.273e+150) "
    "within which float64 holds every squared distance"
)
_NAN = (NonFinitePoint, "point 1 has a non-finite coordinate")
_EMPTY = (EmptyInput, "point set must contain at least one point")
_NO_DIM = (DimensionMismatch, "points must have dimension >= 1")
_ONE_D = (DimensionMismatch, "expected 2-D point array, got ndim=1")


# (input, build_point_set's error, PointSet's error); None where both agree.
_BAD_POINTS = {
    "nan": ([(0.0, 1.0), (0.0, np.nan)], _NAN, None),
    "inf": ([(0.0, 1.0), (-np.inf, 0.0)], _NAN, None),
    "above_max_norm": (
        [(0.0, 1.0), (2.0 * geometry.MAX_NORM, 0.0)], (NonFinitePoint, _ABOVE), None
    ),
    "duplicate": (
        [(1.0, 1.0), (0.0, 0.0), (1.0, 1.0)], (DuplicatePoint, "points 0 and 2 are identical"), None
    ),
    "negative_zero": ([(0.0,), (-0.0,)], (DuplicatePoint, "points 0 and 1 are identical"), None),
    # Shape first, then finiteness, then duplicates.
    "nan_and_duplicate": ([(0.0, 0.0), (np.nan, 0.0), (0.0, 0.0)], _NAN, None),
    "(0, 3)": (np.zeros((0, 3)), _EMPTY, None),
    # build_point_set calls any empty array empty; PointSet names the shape.
    "(3, 0)": (np.zeros((3, 0)), _EMPTY, _NO_DIM),
    "array([])": (np.array([]), _EMPTY, _ONE_D),
    "[]": ([], _EMPTY, _ONE_D),
    "[[]]": ([[]], _NO_DIM, None),
}


class TestPointSetInvariant:
    """PointSet checks its own invariant; build_point_set only converts, so
    both raise the same type and message, in the same order."""

    @pytest.mark.parametrize("case", list(_BAD_POINTS))
    def test_bad_points(self, case):
        raw, build_error, direct_error = _BAD_POINTS[case]
        for make, (error, message) in (
            (build_point_set, build_error),
            (lambda r: geometry.PointSet(points=r), direct_error or build_error),
        ):
            with pytest.raises(error) as info:
                make(raw)
            assert str(info.value) == message

    @pytest.mark.parametrize("d", [2, 4, 256])
    def test_bit_identical_at_the_bound(self, monkeypatch, d):
        # 12 unit rows and 5 of their negatives just inside MAX_NORM, queried
        # at the negated rows: the screens run with no fallback and no
        # floating-point warning, and every anchor, radius, nearest-neighbour
        # distance and the diameter equal the exact pass bit for bit.
        units = np.random.default_rng(d).standard_normal((12, d))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        pts = np.vstack([units, -units[:5]]) * (geometry.MAX_NORM * (1.0 - 2.0**-50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = build_point_set(pts)
            monkeypatch.setattr(geometry, "distance_row_blocks", None)  # no exact pass
            screened = geometry._screened_neighbor_scales(X)
            k, R = nearest_batch(-pts, X)
            monkeypatch.undo()
            full = [_full_pass(u, X) for u in -pts]
            assert k.tolist() == [kk for kk, _ in full]
            assert np.array_equal(R, [r for _, r in full])
            assert screened is not None
            assert np.array_equal(screened[0], _broadcast_nearest_neighbor_dists(pts))
            assert screened[1] == _broadcast_diameter(pts)


class TestNearestPoint:
    def test_simple(self):
        X = build_point_set([(0, 0), (3, 0)])
        assert nearest_point((1, 0), X) == 0

    def test_exact_tie_lowest_index(self):
        X = build_point_set([(0, 0), (3, 0)])
        assert nearest_point((1.5, 0), X) == 0

    def test_membership(self):
        X = build_point_set([(0, 0), (3, 0)])
        assert nearest_point((3, 0), X) == 1

    def test_dimension_mismatch(self):
        X = build_point_set([(0, 0), (3, 0)])
        with pytest.raises(DimensionMismatch):
            nearest_point((1, 0, 0), X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_raises(self, bad):
        X = build_point_set([(0, 0), (3, 0)])
        with pytest.raises(NonFinitePoint):
            nearest_point((1.0, bad), X)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            pts = rng.standard_normal((10, 4))
            X = build_point_set(pts)
            u = rng.standard_normal(4)
            k = nearest_point(u, X)
            dists = [np.linalg.norm(u - p) for p in pts]
            assert dists[k] <= min(dists) + 0.0

    def test_invariant_under_appending_far_points(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((6, 3))
        X = build_point_set(pts)
        u = rng.standard_normal(3)
        k = nearest_point(u, X)
        far = u + 1e6 * rng.standard_normal((3, 3))
        X2 = build_point_set(np.vstack([pts, far]))
        assert nearest_point(u, X2) == k


def _full_pass(u, X):
    dists = distances_to(u, X)
    k = int(np.argmin(dists))
    return k, float(dists[k])


def _ties(rng):
    """Terminals at the same exact nearest distance, among farther ones:
    ±e_i and ±3e_i around 0, and the corners of the unit cube and of a 3x
    larger one around their centre."""
    axes = np.vstack([np.eye(5), -np.eye(5)])
    cube = np.array([[a, b, c] for a in (-0.5, 0.5) for b in (-0.5, 0.5) for c in (-0.5, 0.5)])
    return [
        (np.vstack([3 * axes[::2], axes, 3 * axes[1::2]]), np.zeros((1, 5))),
        (np.vstack([3 * cube[:4], cube, 3 * cube[4:]]) + 0.5, np.full((1, 3), 0.5)),
    ]


def _sphere(rng):
    """Terminals at radius 1 ± up to 3 ulps around each query, among others
    at radius 2."""
    Q = rng.standard_normal((4, 8))
    cases = []
    for u in Q:
        v = rng.standard_normal((90, 8))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = 1.0 + np.finfo(float).eps * rng.integers(-3, 4, size=90)
        r[::3] = 2.0
        cases.append((u + r[:, None] * v, u[None]))
    return cases


def _shells(rng):
    """Queries at 0.01 times a terminal's nearest-neighbour distance."""
    pts = rng.standard_normal((50, 12))
    nn, _ = build_point_set(pts).neighbor_scales
    idx = rng.integers(0, 50, size=20)
    dirs = rng.standard_normal((20, 12))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return [(pts, pts[idx] + 0.01 * nn[idx, None] * dirs)]


def _small(rng):
    """d = 1 (with a midpoint tie), n = 1 and n = 2 (with its midpoint)."""
    line = rng.standard_normal((9, 1))
    pair = rng.standard_normal((2, 4))
    return [
        (line, np.vstack([rng.standard_normal((6, 1)), [[(line[0, 0] + line[1, 0]) / 2]]])),
        (np.array([[1.0, 2.0, 3.0]]), rng.standard_normal((3, 3))),
        (pair, np.vstack([rng.standard_normal((3, 4)), pair.mean(axis=0), pair])),
    ]


def _above_max_norm(pts):
    return np.sqrt(np.einsum("ij,ij->i", pts, pts)).max() > geometry.MAX_NORM


def _assert_nearest_matches(Q, X):
    """nearest_batch(Q, X) and nearest(u, X) for each row u both give the
    argmin and min of the full exact pass."""
    k, R = nearest_batch(Q, X)
    assert k.dtype == np.int64 and R.dtype == np.float64
    full = [_full_pass(u, X) for u in Q]
    assert k.tolist() == [kk for kk, _ in full]
    assert np.array_equal(R, [r for _, r in full])
    assert [nearest(u, X) for u in Q] == full


class TestNearest:
    """geometry.nearest and nearest_batch (Gram screen plus exact recompute
    of the candidates) give exactly the argmin and min of the full exact
    pass."""

    @pytest.mark.parametrize("family", [_ties, _sphere, _shells, _small])
    @pytest.mark.parametrize(
        "shift,scale", [(0.0, 1.0), (1e6, 1.0), (1e8, 1.0), (0.0, 1e-160), (0.0, 1e160)]
    )
    def test_matches_full_pass(self, family, shift, scale):
        # Each family's queries, then its terminals as queries (R = 0).
        rng = np.random.default_rng(13)
        for pts, Q in family(rng):
            pts, Q = (pts + shift) * scale, (np.vstack([Q, pts]) + shift) * scale
            if _above_max_norm(pts):
                # Squared distances would overflow: PointSet refuses the
                # points, and nearest_batch the queries against a valid set.
                for make in (build_point_set, lambda p: geometry.PointSet(points=p)):
                    with pytest.raises(NonFinitePoint, match="point .* MAX_NORM"):
                        make(pts)
                with pytest.raises(NonFinitePoint, match="query .* MAX_NORM"):
                    nearest_batch(Q, build_point_set(pts / scale))
                continue
            _assert_nearest_matches(Q, build_point_set(pts))

    @pytest.mark.parametrize("n,d", [(1, 1), (40, 1), (40, 7), (300, 64), (30, 257)])
    def test_row_subset_bit_identical(self, n, d):
        rng = np.random.default_rng(n + d)
        X = build_point_set(rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1)))
        u = rng.standard_normal(d)
        full = distances_to(u, X)
        for rows in (np.arange(n), [n - 1], rng.permutation(n)[: max(1, n // 3)], [0, 0]):
            rows = np.asarray(rows)
            assert np.array_equal(distances_to(u, X, rows), full[rows])


def _record_exact_work(monkeypatch):
    """Patch the exact kernel's entry points and return what they are asked
    for, in call order: ("anchor", [(query row, terminal), ...]) for each
    recompute of the anchor search's candidates (geometry._pair_distances),
    ("guarded", rows) for solve_extension's exact norms (distances_to), and
    ("blocks", rows of A, rows of B) for each blocked pass
    (geometry.distance_row_blocks, which distances_to runs too)."""
    from termembed import extension

    seen = []
    pairs, rows = geometry._pair_distances, extension.distances_to
    blocks = geometry.distance_row_blocks
    monkeypatch.setattr(
        geometry, "_pair_distances",
        lambda A, B, i, j: seen.append(("anchor", list(zip(i.tolist(), j.tolist()))))
        or pairs(A, B, i, j),
    )
    monkeypatch.setattr(
        extension, "distances_to",
        lambda u, X, r: seen.append(("guarded", [int(i) for i in r])) or rows(u, X, r),
    )
    monkeypatch.setattr(
        geometry, "distance_row_blocks",
        lambda A, B: seen.append(("blocks", A.shape[0], B.shape[0])) or blocks(A, B),
    )
    return seen


class TestNearestBatch:
    """geometry.nearest_batch: which exact work it does, and the cases the
    families above leave out."""

    def test_exact_ties_take_lowest_index(self):
        rng = np.random.default_rng(14)
        for pts, Q in _ties(rng):
            X = build_point_set(pts)
            k, R = nearest_batch(np.vstack([Q, Q]), X)
            dists = distances_to(Q[0], X)
            assert np.sum(dists == dists.min()) > 1
            assert k.tolist() == [int(np.flatnonzero(dists == dists.min())[0])] * 2

    def test_close_terminals(self):
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((30, 6))
        pts[1:4] = pts[0] + 1e-9 * rng.standard_normal((3, 6))
        Q = np.vstack([pts[0] + 1e-10 * rng.standard_normal((10, 6)), pts[:4]])
        _assert_nearest_matches(Q, build_point_set(pts))

    def test_shifted_set_recomputes_every_entry(self, monkeypatch):
        # 1e8 from the origin the bound exceeds every gap: all n entries of
        # every row are candidates, and the result is still exact.
        rng = np.random.default_rng(16)
        pts = rng.standard_normal((40, 16)) + 1e8
        Q = 1e8 + rng.standard_normal((12, 16))
        X = build_point_set(pts)
        seen = _record_exact_work(monkeypatch)
        nearest_batch(Q, X)
        assert seen == [("anchor", [(i, j) for i in range(12) for j in range(40)])]
        monkeypatch.undo()
        _assert_nearest_matches(Q, X)

    def test_gaussian_recomputes_one_entry_per_row(self, monkeypatch):
        rng = np.random.default_rng(18)
        X = build_point_set(rng.standard_normal((200, 16)))
        seen = _record_exact_work(monkeypatch)
        k, _ = nearest_batch(rng.standard_normal((50, 16)), X)
        assert seen == [("anchor", list(enumerate(k.tolist())))]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "width"])
    def test_single_query_and_one_row_batch_fail_alike(self, monkeypatch, bad):
        # nearest holds no checks of its own: the one-row nearest_batch call
        # raises for both.
        X = build_point_set([(0.0, 0.0), (3.0, 0.0)])
        u = np.array([1.0, 0.0, 0.0]) if bad == "width" else np.array([1.0, float(bad)])
        error = DimensionMismatch if bad == "width" else NonFinitePoint
        calls = []
        batch = geometry.nearest_batch
        monkeypatch.setattr(geometry, "nearest_batch", lambda Q, X: calls.append(Q) or batch(Q, X))
        with pytest.raises(error):
            nearest(u, X)
        assert len(calls) == 1 and calls[0].shape == (1, u.size)
        with pytest.raises(error):
            batch(u[None], X)

    def test_checks_any_array_like(self):
        X = build_point_set([(0.0, 0.0), (3.0, 0.0)])
        k, R = nearest_batch([[1, 0], [3, 1]], X)
        assert k.tolist() == [0, 1] and R.tolist() == [1.0, 1.0]
        for shape in [(2,), (1, 1, 2), (2, 3), (1, 0)]:
            with pytest.raises(DimensionMismatch):
                nearest_batch(np.zeros(shape), X)
        with pytest.raises(NonFinitePoint):
            nearest_batch([[0.0, 1.0], [np.inf, 0.0]], X)

    @pytest.mark.parametrize("d", [1, 7])
    def test_empty_batch(self, d):
        X = build_point_set(np.arange(3.0 * d).reshape(3, d))
        k, R = nearest_batch(np.zeros((0, d)), X)
        assert k.shape == R.shape == (0,)
        assert k.dtype == np.int64 and R.dtype == np.float64

    def test_batch_spans_several_screen_blocks(self):
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((300, 64))
        X = build_point_set(pts)
        step = geometry._screen_rows(X.n, X.d)
        Q = np.vstack([rng.standard_normal((2 * step, 64)), pts[: step + 7]])
        assert Q.shape[0] > 3 * step
        _assert_nearest_matches(Q, X)


def _equidistant(rng):
    """Point sets where every nearest-neighbour distance is one value (the
    regular simplex e_1..e_6 and the corners of the unit cube, at n = 2
    too), and 40 antipodal pairs whose lengths 2 differ by a few ulps, so
    the diameter is among near-ties."""
    cube = np.array([[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)])
    v = rng.standard_normal((40, 8))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = 1.0 + np.finfo(float).eps * rng.integers(-3, 4, size=(2, 40, 1))
    return [np.eye(6), cube, cube[:2], np.vstack([r[0] * v, -r[1] * v])]


def _distinct(pts):
    return len(np.unique(pts, axis=0)) == len(pts)


def _neighbor_families():
    """The point sets of the nearest families, with the queries added as
    points where that keeps the set distinct, and a pair 1e-9 apart."""
    rng = np.random.default_rng(17)
    sets = []
    for family in (_ties, _sphere, _shells, _small):
        for pts, Q in family(rng):
            sets.append(pts)
            if _distinct(np.vstack([pts, Q])):
                sets.append(np.vstack([pts, Q]))
    close = rng.standard_normal((30, 4))
    close[1] = close[0] + np.array([1e-9, 0.0, 0.0, 0.0])
    return sets + _equidistant(rng) + [close, rng.standard_normal((1, 3)), rng.standard_normal((40, 1))]


class TestNeighborScales:
    """PointSet.neighbor_scales (Gram screen plus exact recompute of the
    candidates) equals the full broadcast pass bit for bit."""

    @pytest.mark.parametrize("block_elements", [None, 1, 97])
    @pytest.mark.parametrize(
        "shift,scale", [(0.0, 1.0), (1e6, 1.0), (1e8, 1.0), (0.0, 1e-160), (0.0, 1e160)]
    )
    def test_matches_broadcast(self, monkeypatch, shift, scale, block_elements):
        if block_elements is not None:
            monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", block_elements)
        for pts in _neighbor_families():
            pts = (pts + shift) * scale
            if not _distinct(pts):  # the 1e-9 pair at shift 1e8
                continue
            if _above_max_norm(pts):
                # Squares would overflow: PointSet refuses the set.
                with pytest.raises(NonFinitePoint, match="point .* MAX_NORM"):
                    geometry.PointSet(points=pts)
                continue
            nn, diameter = build_point_set(pts).neighbor_scales
            assert np.array_equal(nn, _broadcast_nearest_neighbor_dists(pts))
            assert diameter == _broadcast_diameter(pts)

    @pytest.mark.parametrize("block_elements", [None, 1000])
    @pytest.mark.parametrize("n,d", [(2, 5), (200, 1), (300, 64), (64, 256)])
    def test_gaussian_takes_the_screen(self, monkeypatch, n, d, block_elements):
        if block_elements is not None:
            monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", block_elements)
        pts = np.random.default_rng(n * d).standard_normal((n, d))
        X = build_point_set(pts)
        screened = geometry._screened_neighbor_scales(X)
        # n = 2 has one entry per row, always a candidate: the exact pass.
        assert (screened is None) == (n == 2)
        nn, diameter = X.neighbor_scales
        assert np.array_equal(nn, _broadcast_nearest_neighbor_dists(pts))
        assert diameter == _broadcast_diameter(pts)
        if screened is not None:
            assert np.array_equal(screened[0], nn) and screened[1] == diameter

    def test_shifted_and_tiny_data_take_the_exact_pass(self):
        pts = np.random.default_rng(5).standard_normal((50, 12))
        for data in (pts + 1e8, pts * 1e-160):
            assert geometry._screened_neighbor_scales(build_point_set(data)) is None


class TestDirectionSet:
    def test_two_points_on_line(self):
        X = build_point_set([(0.0,), (1.0,)])
        Y = direction_set(X)
        assert len(Y) == 2
        assert sorted(Y.directions.ravel().tolist()) == [-1.0, 1.0]

    def test_axis_aligned_triangle(self):
        X = build_point_set([(0, 0), (0, 2), (2, 0)])
        Y = direction_set(X)
        assert len(Y) == 6
        rows = {tuple(np.round(v, 12)) for v in Y.directions}
        assert (0.0, 1.0) in rows and (0.0, -1.0) in rows

    def test_single_point_empty(self):
        X = build_point_set([(5.0, 5.0)])
        assert len(direction_set(X)) == 0

    def test_unit_norm_and_negation_closure(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            X = build_point_set(rng.standard_normal((n, 6)))
            Y = direction_set(X)
            assert len(Y) == n * (n - 1)
            norms = np.linalg.norm(Y.directions, axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-12
            rows = {tuple(v) for v in Y.directions}
            for v in Y.directions:
                assert tuple(-v) in rows

    def test_pair_index_consistency(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((4, 3))
        X = build_point_set(pts)
        Y = direction_set(X)
        for r in range(len(Y)):
            i, j = Y.pairs[r]
            expect = (pts[i] - pts[j]) / np.linalg.norm(pts[i] - pts[j])
            assert np.allclose(Y.directions[r], expect, atol=1e-15)

    def test_points_and_distances_read_only(self):
        X = build_point_set(np.random.default_rng(12).standard_normal((7, 5)) + 1e6)
        Y = direction_set(X)
        assert np.array_equal(Y.points, X.points)
        dist = distance_matrix(X.points, X.points)
        assert Y.distances.tobytes() == dist[Y.pairs[:, 0], Y.pairs[:, 1]].tobytes()
        for arr in (Y.directions, Y.pairs, Y.points, Y.distances):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("n, d, shift", [(2, 1, 0.0), (9, 6, 1e6), (64, 256, 0.0), (17, 300, 3.0)])
    def test_distances_equal_distance_matrix(self, n, d, shift):
        X = build_point_set(np.random.default_rng(n + d).standard_normal((n, d)) + shift)
        Y = direction_set(X)
        dist = distance_matrix(X.points, X.points)
        assert np.array_equal(Y.distances, dist[Y.pairs[:, 0], Y.pairs[:, 1]])

    def test_close_pair_flagged(self):
        X = build_point_set([(0.0, 0.0), (1e-11, 0.0), (1.0, 0.0)])
        Y = direction_set(X)
        # directions stay unit even for the near-duplicate pair (0, 1)
        assert np.abs(np.linalg.norm(Y.directions, axis=1) - 1.0).max() <= 1e-12
