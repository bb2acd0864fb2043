"""Outer extensions: the three embedders and the query-time solve they share.

Every map here is an outer extension (Mahabadi, Makarychev, Makarychev &
Razenshteyn, STOC 2018): terminal x_i goes to (g(x_i), 0) for a base map g,
and a query u to a head in g's space plus one tail coordinate.
OuterExtension writes that contract once (out_dim, terminal_images,
embed_batch, and embed, its one-row call); the three frozen dataclasses
below supply only the terminal set X, their base map's terminal rows
(base_images) and one per-row step:

  * TerminalEmbedder, the sketch path: g = Pi, and the head comes from a
    per-query feasibility solve (below). It is fixed by X, Pi and epsilon,
    so it computes its rows Pi X itself;
  * ExactEmbedding, the small-n path: g = coordinates in an orthonormal basis
    of span{x_i - x_1}, zero distortion;
  * EfnEmbedder, the snap-to-nearest baseline: (g(x_k), ||u - x_k||).

Embedding a query u against a sketched terminal set works in two steps.
First find u' in the radius-R ball of R^m (R = distance from u to its
nearest terminal, the anchor x_k) that approximately matches the inner
products <u', Pi v_i> = <u - x_k, v_i> along every unit direction
v_i = (x_i - x_k)/||x_i - x_k||. Then lift to R^{m+1}:

    f(u) = (Pi x_k + u', sqrt(R^2 - ||u'||^2))

which preserves the anchor distance exactly and every other terminal
distance up to the constraint residual plus the sketch's hull distortion.

The feasibility step is a projected subgradient method rather than the
semidefinite program the existence argument suggests; it is dependency-free
and ample at desk scale, and a non-converged solve is still embeddable (the
achieved residual is an honest distortion certificate). Its one step rule is
Polyak's, with the optimal value estimated as LEVEL * epsilon * R rather
than 0: at m = O(eps^-2 log n) the problem is feasible at residual
epsilon * R, but its optimum sits well above 0 (near 0.2 R on tight
sketches), so a step aimed at 0 overshoots every time and the iterates
zigzag instead of settling below the target.

The solve also certifies itself. By minimax duality (Narayanan-Nelson,
arXiv 1810.09250) the best worst residual equals the maximum over mu in the
l1 unit ball of phi(mu) = -R ||W^T mu|| - t^T mu, for constraint rows W and
targets t, so every mu bounds it from below. A solve that has not met its
target after FW_AFTER iterations runs Frank-Wolfe on phi beside the loop
(_frank_wolfe); once the bound exceeds the target and the loop's best point
is within GAP_TOL * R of it, the solve stops as certified infeasible instead
of running to max_iters. The bound also sharpens the loop: a lower bound
above LEVEL * epsilon * R is a better estimate of the optimum, so the step
aims at it instead. Frank-Wolfe stays the bound's solver: as a primal solver
its recovered points (each on the sphere ||z|| = R) trail the loop's, and
are kept only when they beat it. Where the optimum lies inside the ball
(small m), the dual's maximizer has W^T mu = 0, where phi has no gradient,
and Frank-Wolfe can stall below it; such a solve runs on to max_iters.

A solve meets its target when its worst residual is at most
epsilon * R * (1 + TOL); its status (STATUSES) is the one stored outcome, and
converged reads it.

Every row's anchor (k, R) comes from geometry.nearest_batch, one blocked
screen per batch (a single query is a batch of one), which also holds the
query checks: a query of the wrong width raises DimensionMismatch, one with
a non-finite coordinate NonFinitePoint. A query closer than
geometry.MIN_DISTANCE to its anchor but not equal to it raises
DuplicatePoint (geometry._refuse_near_query) before its row is embedded.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import DimensionMismatch, InvalidMatrix
from .geometry import (
    MIN_DISTANCE,
    PointSet,
    _refuse_coincident,
    _refuse_near_query,
    distances_to,
    nearest_batch,
)
from .sketch import SketchMatrix, sketch_points

_TINY = 1e-300
# Constraint row i takes the exact norm ||x_i - x_k|| and the direct
# difference x_i - x_k when its Gram norm^2, ||x_i||^2 - 2<x_i, x_k> +
# ||x_k||^2, is < _CANCEL * (||x_i|| + ||x_k||)^2: there the factored forms
# would lose more than log10(1/_CANCEL) digits (near-duplicate terminals,
# data far from the origin).
_CANCEL = 1e-2
# The largest entry of |B B^T - I| an exact-path basis B may have. SVD bases
# measured at most about 4e-15, on data scaled by 1e-11 or 1e140 or shifted by
# 1e8 too; a basis.bin off by a scale factor is far above it.
BASIS_TOL = 1e-9

# Keys of the per-query diagnostics record every embed_batch returns.
RECORD_KEYS = ("residual", "iterations", "anchor_index", "converged", "lower_bound", "status")
# How a solve ended: its target met; the target proven out of reach, with the
# returned point within GAP_TOL * R of the optimum; or max_iters ran out first.
STATUSES = ("feasible", "infeasible", "undecided")

# The solver steps toward the level LEVEL * epsilon * R, not toward 0, or
# toward the dual lower bound lb once that is higher. LEVEL must stay below
# 1: the loop runs only while the worst residual g exceeds
# epsilon * R * (1 + TOL), so g - level stays positive and no step points
# the wrong way; at LEVEL >= 1 a step just above the target would vanish or
# reverse. g >= lb always, and a solve with g - lb within rounding of 0 has
# stopped on the certificate before it steps.
LEVEL = 0.8

# The dual bound starts once the loop has run FW_AFTER iterations without
# meeting its target, so every solve that ends sooner (nearly all of them)
# costs and returns exactly what the loop alone gives. From then on each
# iteration adds one Frank-Wolfe step, one more residual evaluation.
FW_AFTER = 16
# A solve whose dual bound lb exceeds the target stops as infeasible once its
# best worst residual g is within GAP_TOL * R of lb: the returned point is then
# within GAP_TOL * R of the best any point in the ball can do.
GAP_TOL = 0.02
# The target's relative slack: a solve is feasible once its worst residual is
# at most epsilon * R * (1 + TOL). The slack absorbs rounding at epsilon * R,
# so a residual that meets the target up to a few ulps is not chased further.
TOL = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the feasibility solve. max_iters must be an integral
    number, not a bool (numpy integers pass), else TypeError; a negative one
    raises ValueError."""

    max_iters: int = 5000

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise TypeError(f"max_iters must be Integral, got {self.max_iters!r}")
        if not self.max_iters >= 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters!r}")


@dataclass(frozen=True, eq=False)
class ExtensionSolution:
    """One query's feasibility solve.

    residual is the max constraint violation at the returned point,
    normalized by radius: the solver's own evaluation of that point, so it
    can be trusted even when the target was missed (the lift is still valid,
    the distortion bound just degrades to the residual level).

    lower_bound is a certified lower bound on the best residual any point of
    the ball reaches, normalized by radius, with 0 <= lower_bound <= residual.
    It is None when the solve computed no bound (it met its target before
    the dual started), and 0.0 for a trivial solve (R = 0 or one terminal).
    status is how the solve ended, one of STATUSES, else ValueError.
    """

    u_prime: np.ndarray  # (m,)
    radius: float  # ||u - x_k||
    residual: float
    iterations: int
    anchor_index: int
    lower_bound: float | None = None
    status: str = "feasible"

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}; expected one of {STATUSES}")
        self.u_prime.setflags(write=False)

    @property
    def converged(self) -> bool:
        """Whether the solve met its target: status "feasible"."""
        return self.status == "feasible"


def _block_rows(d: int, m: int) -> int:
    """Rows per block of X and Pi X in the warm-start products: together
    about BLOCK_ELEMENTS / 2 values (1 MB, so a block stays in one core's L2
    while a whole query group reads it; 2 MB blocks measured slower), rounded
    down to a multiple of 8 and at least 8. Over such blocks, with no 1-row
    tail, the row-blocked products measured equal to the full products bit
    for bit; 7-row blocks and 1-row tails did not."""
    return max(8, geometry.BLOCK_ELEMENTS // (2 * (d + m)) // 8 * 8)


def _group_rows(n: int, d: int, m: int) -> int:
    """Queries per embed_batch group: at least 1, and at most as many as
    keep the group's warm-start buffers (3n + 3d + m values per solved
    query, see _warm_starts) within BLOCK_ELEMENTS. So they hold at most
    max(BLOCK_ELEMENTS, 3n + 3d + m) values, the larger term being what one
    query's solve allocates anyway. embed_batch frees a group's buffers
    before it builds the next, so only one group's are live at a time."""
    return max(1, geometry.BLOCK_ELEMENTS // (3 * n + 3 * d + m))


class _WarmStart(NamedTuple):
    """What solve_extension starts from: P = u - x_k, the warm start z,
    X @ [x_k, P] (n, 2) and Pi X @ z (n,). The solve consumes PXz (its first
    residual is computed in place)."""

    P: np.ndarray
    z: np.ndarray
    dots: np.ndarray
    PXz: np.ndarray


class OuterExtension:
    """The embedder contract, written once for the three embedders.

    A subclass is a frozen dataclass with a field X (the PointSet of
    terminals) that supplies base_images, the (n, out_dim - 1) rows g(x_i) of
    its base map (given for EfnEmbedder, derived from the other fields for
    TerminalEmbedder and ExactEmbedding), and _embed_one(u, anchor,
    warm=None) -> (image of u, record with RECORD_KEYS), where anchor =
    (k, R) is u's row of geometry.nearest_batch and warm is u's entry of
    _warm_starts. Instances are immutable and every query is independent,
    so concurrent readers are safe. They compare and hash by identity.

    terminal_images is built from base_images on every access, not cached:
    a long-lived embedder's footprint is X, its map (Pi or the basis) and
    base_images (Pi X), plus O(n) caches such as PointSet.norms.
    """

    @property
    def out_dim(self) -> int:
        return self.base_images.shape[1] + 1

    @property
    def terminal_images(self) -> np.ndarray:
        """(n, out_dim) read-only images (g(x_i), 0) of the terminals, the
        trailing coordinate exactly 0. Built on every access and not kept; a
        caller that reads it often keeps one."""
        images = np.hstack([self.base_images, np.zeros((self.X.n, 1))])
        images.setflags(write=False)
        return images

    def embed(self, u) -> np.ndarray:
        """(out_dim,) image of the query u: embed_batch on u as one row, so
        it raises what embed_batch raises for that row."""
        return self.embed_batch(np.reshape(np.asarray(u, dtype=np.float64), (1, -1)))[0][0]

    def embed_batch(self, Q) -> tuple[np.ndarray, list[dict]]:
        """((q, out_dim) images of the rows of Q, one record per query).

        One geometry.nearest_batch call checks Q (DimensionMismatch,
        NonFinitePoint) and finds every row's anchor, bit-identical to the
        same row's on its own. The rows then go in groups of _group_rows
        queries: _warm_starts takes what each row's step needs from the whole
        group at once (for the sketch path, the products over X and Pi X,
        read once per group instead of once per query), and _embed_one
        finishes each row. Every row's values are computed by the same calls
        as for a group of one, so each image and record equals those of the
        row alone (embed(u)) bit for bit. A row closer than MIN_DISTANCE to
        a terminal but not equal to it raises DuplicatePoint, in row order.

        Memory: beside the outputs, one group's warm-start buffers are live
        at a time. The references to a group's warm list, and to its last
        entry, are dropped before _warm_starts builds the next group.
        """
        Q = np.asarray(Q, dtype=np.float64)
        ks, Rs = nearest_batch(Q, self.X)
        images = np.empty((Q.shape[0], self.out_dim))
        per_query = []
        step = _group_rows(self.X.n, self.X.d, self.out_dim - 1)
        for g in range(0, Q.shape[0], step):
            rows = slice(g, g + step)
            warm = self._warm_starts(Q[rows], ks[rows], Rs[rows])
            for i, w in enumerate(warm, start=g):
                anchor = (int(ks[i]), float(Rs[i]))
                _refuse_near_query(Q[i], self.X, *anchor, i)
                images[i], record = self._embed_one(Q[i], anchor, w)
                per_query.append(record)
            del warm, w
        return images, per_query

    def _warm_starts(self, Q, ks, Rs) -> list:
        """One group's per-row input to _embed_one (its warm argument): None
        for a map without a solve."""
        return [None] * len(ks)

    @staticmethod
    def _solver_free(image: np.ndarray, k: int) -> tuple[np.ndarray, dict]:
        """(image, record) of a map with no solve: residual 0, 0 iterations,
        anchor k, converged, lower bound 0, feasible."""
        return image, dict(zip(RECORD_KEYS, (0.0, 0, k, True, 0.0, "feasible")))


@dataclass(frozen=True, eq=False)
class TerminalEmbedder(OuterExtension):
    """The sketch path, fixed by the terminals X, the sketch Pi and epsilon
    (and the solver's settings): base_images is Pi X, the (n, m) read-only
    rows Pi x_i, computed here from X and Pi (sketch_points). A Pi whose
    input dimension is not X.d raises DimensionMismatch."""

    X: PointSet
    Pi: SketchMatrix
    epsilon: float
    solver: SolverConfig = field(default_factory=SolverConfig)
    base_images: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.Pi.d != self.X.d:
            raise DimensionMismatch(f"sketch expects dimension {self.Pi.d}, points have {self.X.d}")
        images = sketch_points(self.Pi, self.X.points)
        images.setflags(write=False)
        object.__setattr__(self, "base_images", images)

    @property
    def m(self) -> int:
        return self.Pi.m

    def embed_with_info(self, u, anchor=None, warm=None):
        sol = solve_extension(u, self, anchor, warm)
        return lift(sol, self), sol

    def _embed_one(self, u, anchor, warm=None):
        f, sol = self.embed_with_info(u, anchor, warm)
        return f, {key: getattr(sol, key) for key in RECORD_KEYS}

    def _warm_starts(self, U, ks, Rs) -> list[_WarmStart | None]:
        """The warm starts of one query group (rows U, anchors ks, radii Rs):
        None for a row with nothing to solve (R = 0 or a single terminal).

        Each row first takes its own P = u - x_k and
        z = R * Pi P / max(||Pi P||, 1e-300), scaled back into the ball if
        rounding put it outside. Then, for each row block of X and Pi X
        (_row_blocks) in turn, every row of the group takes its
        X[rows] @ [x_k, P] and Pi X[rows] @ z: the group reads X and Pi X
        from memory once, where a per-query loop reads them once per query.
        Each product is one BLAS call per block whatever the group, so a
        row's values do not depend on the rows around it; solve_extension
        (u, E) runs this as a group of one.
        """
        X, n = self.X.points, self.X.n
        live = [j for j, R in enumerate(Rs) if R != 0.0] if n > 1 else []
        # One pair of buffers per group, not per row: large arrays go back to
        # the system when freed, where many small ones stay on the heap. On
        # the tight eval workload, per-row buffers raised peak RSS by 1.6 MB
        # over unblocked per-query products, these by about 0.5 MB.
        dots, PXz = np.empty((len(live), n, 2)), np.empty((len(live), n))
        warm, work = [None] * len(ks), []
        for i, j in enumerate(live):
            x_k, R = X[ks[j]], float(Rs[j])
            P = U[j] - x_k
            pip = self.Pi.entries @ P
            # math.sqrt(v @ v) is what np.linalg.norm(v) computes, without its overhead.
            z = R * pip / max(math.sqrt(float(pip @ pip)), _TINY)
            nz = math.sqrt(float(z @ z))
            if nz > R:
                z *= R / nz
            warm[j] = _WarmStart(P, z, dots[i], PXz[i])
            work.append((np.column_stack([x_k, P]), warm[j]))
        # np.dot with out= makes the same BLAS calls as np.matmul without its
        # ufunc overhead.
        for s, X_s, PX_s in self._row_blocks:
            for xP, w in work:
                np.dot(X_s, xP, out=w.dots[s])
                np.dot(PX_s, w.z, out=w.PXz[s])
        return warm

    @cached_property
    def _row_blocks(self) -> list:
        """(rows, X[rows], Pi X[rows]) per block of the warm-start products:
        _block_rows rows each, except that a 1-row tail joins the block
        before it. The last block comes first: a single query's anchor
        search has just read X front to back, so its end is still in
        cache."""
        n, step = self.X.n, _block_rows(self.X.d, self.m)
        starts = list(range(0, n, step))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        ends = starts[1:] + [n]
        return [
            (s, self.X.points[s], self.base_images[s])
            for s in (slice(a, b) for a, b in zip(starts[::-1], ends[::-1]))
        ]


def build_embedder(
    X: PointSet,
    pi: SketchMatrix,
    epsilon: float,
    solver: SolverConfig | None = None,
) -> TerminalEmbedder:
    """The TerminalEmbedder of X under pi at epsilon (a float), with the
    default SolverConfig when solver is None."""
    return TerminalEmbedder(X, pi, float(epsilon), solver or SolverConfig())


def solve_extension(u, E: TerminalEmbedder, anchor=None, warm=None) -> ExtensionSolution:
    """Projected-subgradient feasibility solve for one query, with a dual
    certificate.

    With anchor k = nearest terminal and R = ||u - x_k|| (anchor = (k, R) as
    geometry.nearest_batch gives it for u as one row, which is called when
    anchor is None), and warm = u's E._warm_starts entry (taken for a group
    of one when None), minimizes
    g(z) = max_i |<z, Pi v_i> - <u - x_k, v_i>| over the ball ||z|| <= R:

      * start at z0 = R * Pi(u - x_k) / max(||Pi(u - x_k)||, 1e-300), the
        minimax witness direction, which is typically near-feasible
      * Polyak step, the one step rule, on the active constraint a toward
        the level l = max(LEVEL * epsilon * R, lb), not toward 0 (the
        optimum sits well above 0; see the module docstring): step
        (g - l)/||w_a||^2, with g the current residual and w_a row a of the
        constraint matrix, then radial projection back onto the ball
      * from iteration FW_AFTER on, one Frank-Wolfe step on the dual as well
        (_frank_wolfe): it raises the lower bound lb (until then -inf) and
        offers its own primal point, kept when it beats the best iterate
      * track the best iterate g*; stop with status "feasible" once
        g* <= epsilon * R * (1 + TOL), "infeasible" once lb exceeds that
        target and g* - lb <= GAP_TOL * R, or "undecided" when max_iters
        runs out first. An active constraint with a null row is fixed at
        |t_a| whatever z is; that value is then the optimum and lb, and the
        solve stops there under the same rules.

    Degenerate cases short-circuit: R = 0 (u is a terminal) and n = 1 (no
    constraints) both return z = 0 with residual 0 and lower bound 0. A
    terminal closer to x_k than geometry.MIN_DISTANCE has no direction
    v_i: the guarded rows' exact distances find it, and the solve raises
    DuplicatePoint naming the pair.

    Cost per query: the warm start's one n x 2 product over X, which gives
    both the Gram direction norms and the targets, and its matvec over Pi X
    (both from E._warm_starts, which in embed_batch reads each row block of X
    and Pi X once per query group rather than once per query); exact
    distances and guarded constraint rows only for the rows the
    cancellation guard sends to the direct formula (none on well-spread
    data); and one more matvec over Pi X per residual evaluation after the
    first (each iteration, and each Frank-Wolfe step after FW_AFTER
    iterations, so two per iteration there, until Frank-Wolfe reaches a
    fixed point). A solve that reaches the dual also takes two O(n m) passes
    over Pi X (Gram row norms) to pick its starting vertex; the dual holds
    O(m) state. The anchor search costs one matvec over X plus an exact
    recompute of its candidates (usually one row) when solve_extension finds
    it; embed_batch finds every row's anchor up front with a blocked GEMM
    screen instead. No (n-1) x d or (n-1) x m temporary is built, except for
    the guarded rows.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    X = E.X
    if anchor is None:
        ks, Rs = nearest_batch(u[None], X)
        anchor = int(ks[0]), float(Rs[0])
        _refuse_near_query(u, X, *anchor)
    k, R = anchor
    m = E.m
    if R == 0.0 or X.n == 1:
        return ExtensionSolution(
            u_prime=np.zeros(m),
            radius=R,
            residual=0.0,
            iterations=0,
            anchor_index=k,
            lower_bound=0.0,
        )

    # Constraint system in unit directions v_i = (x_i - x_k)/||x_i - x_k||,
    # kept factored over X and Pi X: t_i = (<x_i, P> - <x_k, P>)/norms_i and
    # row i of W is (Pi x_i - Pi x_k)/norms_i, with norms_i^2 from the Gram
    # identity. Entry k is a dummy row (norm 1) whose residual is forced to 0.
    # Rows in the cancellation zone take exact norms and the direct
    # difference form instead, and so do rows whose Gram value is within
    # (8d + 2) tiny of it (tiny = MIN_DISTANCE^2, the smallest normal): its
    # error is at most (d + 4) eps (||x_i|| + ||x_k||)^2 + 4d tiny
    # (geometry._gram_bound), so every row left on the Gram identity is at
    # least MIN_DISTANCE from x_k, and the exact distances of the rest find
    # any terminal closer than that.
    if warm is None:
        [warm] = E._warm_starts(u[None], (k,), (R,))
    P, z, dots, PXz = warm
    pts, PX = X.points, E.base_images
    x_k, PX_k = pts[k], PX[k]
    # Column 0 of dots is <x_i, x_k>, column 1 <x_i, P>.
    sq_dist = X.sq_norms - 2.0 * dots[:, 0] + X.sq_norms[k]
    floor = (8 * X.d + 2) * MIN_DISTANCE**2
    close = np.flatnonzero(~(sq_dist >= _CANCEL * (X.norms + X.norms[k]) ** 2 + floor))
    close = close[close != k]
    sq_dist[k] = 1.0
    if close.size:
        sq_dist[close] = 1.0
    norms = np.sqrt(sq_dist)
    t = (dots[:, 1] - x_k @ P) / norms
    if close.size:
        norms[close] = distances_to(x_k, X, close)
        _refuse_coincident(pts, k, close, norms[close])
        W_close = (PX[close] - PX_k) / norms[close, None]
        t[close] = ((pts[close] - x_k) / norms[close, None]) @ P

    def residual(z, PXz=None):
        r = PX @ z if PXz is None else PXz
        r -= PX_k @ z
        r /= norms
        r -= t
        if close.size:
            r[close] = W_close @ z - t[close]
        r[k] = 0.0
        return r

    def row(i):
        return (PX[i] - PX_k) / norms[i]

    def vertex():
        """Row maximizing the dual at a vertex, |t_j| - R ||w_j||. Row norms
        come from the Gram identity over Pi X, the guarded rows' from W_close;
        row k is the dummy."""
        sq = np.einsum("ij,ij->i", PX, PX) - 2.0 * (PX @ PX_k) + float(PX_k @ PX_k)
        w_sq = np.maximum(sq, 0.0) / (norms * norms)
        if close.size:
            w_sq[close] = np.einsum("ij,ij->i", W_close, W_close)
        score = np.abs(t) - R * np.sqrt(w_sq)
        score[k] = -math.inf
        return int(score.argmax())

    target = E.epsilon * R * (1.0 + TOL)
    level = LEVEL * E.epsilon * R
    gap = GAP_TOL * R

    r = residual(z, PXz)
    abs_r = np.abs(r)
    a = int(abs_r.argmax())  # the active constraint; g is its |residual|
    g = float(abs_r[a])
    best_z = z.copy()
    best_g = g
    lb = -math.inf  # best lower bound on the optimal g so far
    dual = None
    it = 0
    while best_g > target and it < E.solver.max_iters:
        w_a = row(a)
        denom = float(w_a @ w_a)
        if denom <= _TINY:
            lb = max(lb, abs(float(t[a])))  # a null row fixes constraint a at |t_a|
            break
        sign = 1.0 if r[a] >= 0.0 else -1.0
        step = sign * (g - max(level, lb)) / denom
        z = z - step * w_a
        nz = math.sqrt(float(z @ z))
        if nz > R:
            z *= R / nz
        r = residual(z)
        abs_r = np.abs(r)
        a = int(abs_r.argmax())
        g = float(abs_r[a])
        if g < best_g:
            best_g = g
            best_z = z.copy()
        it += 1
        if best_g > target and it >= FW_AFTER:
            if dual is None:
                dual = _frank_wolfe(residual, row, t, vertex(), R)
            phi, z_fw, g_fw = next(dual)
            lb = max(lb, phi)
            if g_fw < best_g:
                best_g = g_fw
                best_z = z_fw
            if lb > target and best_g - lb <= gap:
                break

    if best_g <= target:
        status = "feasible"
    elif lb > target and best_g - lb <= gap:
        status = "infeasible"
    else:
        status = "undecided"
    return ExtensionSolution(
        u_prime=best_z,
        radius=R,
        residual=best_g / R,
        iterations=it,
        anchor_index=k,
        # Both 0 and best_g bound the optimum; a bound beyond them is rounding.
        lower_bound=None if lb == -math.inf else min(max(0.0, lb), best_g) / R,
        status=status,
    )


def _frank_wolfe(residual, row, t, j, R):
    """Frank-Wolfe ascent on the dual phi(mu) = -R ||a|| - c over the l1 unit
    ball, a = W^T mu and c = t^T mu, from the vertex -sign(t_j) e_j.

    Only a (m,) and c are kept. At z = -R a / ||a|| (0 when a = 0, scaled
    into the ball), residual(z) is the gradient of phi at mu, and its largest
    magnitude is both the worst residual of z and the Frank-Wolfe upper bound
    on max phi. Each next() yields (phi(mu), z, max |residual(z)|) and then,
    on the following next(), moves mu toward the vertex sign(r_i) e_i of the
    largest |r_i| by the exact line search: minimizing R ||a + s d|| + s delta
    over s in [0, 1] is a quadratic in s. A step of length 0 leaves mu a fixed
    point, so from then on the last item repeats without another residual.
    """
    sign = -1.0 if t[j] >= 0.0 else 1.0
    a = sign * row(j)
    c = sign * float(t[j])
    while True:
        norm_a = math.sqrt(float(a @ a))
        z = a * (-R / norm_a) if norm_a > 0.0 else np.zeros_like(a)
        nz = math.sqrt(float(z @ z))
        if nz > R:
            z *= R / nz
        r = residual(z)
        abs_r = np.abs(r)
        i = int(abs_r.argmax())
        item = (-R * norm_a - c, z, float(abs_r[i]))
        yield item
        sign = 1.0 if r[i] >= 0.0 else -1.0
        d = sign * row(i) - a
        delta = sign * float(t[i]) - c
        s = _line_search(norm_a * norm_a, float(a @ d), float(d @ d), delta, R)
        if s == 0.0:
            yield from itertools.repeat(item)
        a = a + s * d
        c = c + s * delta


def _line_search(aa, ad, dd, delta, R):
    """argmin over s in [0, 1] of h(s) = R ||a + s d|| + s delta, given
    aa = ||a||^2, ad = <a, d>, dd = ||d||^2. h is convex; where |delta| >=
    R ||d|| its slope never changes sign, else its stationary point solves
    R (ad + s dd) = -delta ||a + s d||, squared a quadratic in s."""
    q = R * R * dd - delta * delta
    if q <= 0.0:
        return 1.0 if delta < 0.0 else 0.0
    s = (-ad - delta * math.sqrt(max(aa * dd - ad * ad, 0.0) / q)) / dd
    return min(max(s, 0.0), 1.0)


def lift(solution: ExtensionSolution, E: TerminalEmbedder) -> np.ndarray:
    """Assemble the (m+1)-dim image (Pi x_k + u', sqrt(R^2 - ||u'||^2)) of a
    solve's query from its anchor k, radius R and point u' alone.

    The radicand is clamped at 0: ||u'|| can exceed R by a few ulps after
    projection, and the clamp keeps the lift NaN-free.
    """
    R = solution.radius
    head = E.base_images[solution.anchor_index] + solution.u_prime
    sq = R * R - float(solution.u_prime @ solution.u_prime)
    return np.concatenate([head, [np.sqrt(max(sq, 0.0))]])


@dataclass(frozen=True, eq=False)
class EfnEmbedder(OuterExtension):
    """The snap-to-nearest baseline u -> (f(x_k), ||u - x_k||) over a base map
    f given by its terminal rows. Simple and fast, but its terminal distortion
    is bounded away from 1 (sqrt(10) in the worst case), which is exactly what
    the solver-based extension improves on. base_images is kept as a
    read-only float64 view, so the caller's array stays writable; one
    without n rows raises DimensionMismatch."""

    X: PointSet
    base_images: np.ndarray  # (n, m)

    def __post_init__(self):
        images = np.asarray(self.base_images, dtype=np.float64).view()
        if images.ndim != 2 or images.shape[0] != self.X.n:
            raise DimensionMismatch(
                f"base images have shape {images.shape}, expected ({self.X.n}, m)"
            )
        images.setflags(write=False)
        object.__setattr__(self, "base_images", images)

    def _embed_one(self, u, anchor, warm=None):
        k, R = anchor
        return self._solver_free(np.concatenate([self.base_images[k], [R]]), k)


@dataclass(frozen=True, eq=False)
class ExactEmbedding(OuterExtension):
    """Zero-distortion terminal embedding for the small-n regime.

    Holds an orthonormal basis (rows) of E = span{x_i - x_1}. The induced
    map is u -> (coords of proj_E(u - x_1) in the basis, ||proj to E-perp||),
    which preserves every distance to the terminal set exactly: terminals
    live in E, so the perpendicular part of u - x_i never depends on i.
    A basis without X.d columns raises DimensionMismatch, and one whose rows
    are not orthonormal (an entry of |B B^T - I| above BASIS_TOL, or not
    finite) raises InvalidMatrix.
    """

    X: PointSet
    basis: np.ndarray  # (r, d), orthonormal rows

    def __post_init__(self):
        B = self.basis
        if B.shape[1] != self.X.d:
            raise DimensionMismatch(f"basis width {B.shape[1]}, expected {self.X.d}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test
            err = float(np.abs(B @ B.T - np.eye(B.shape[0])).max(initial=0.0))
        if not err <= BASIS_TOL:
            raise InvalidMatrix(f"basis rows are not orthonormal: max |B B^T - I| = {err:.3g}")
        B.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def base_images(self) -> np.ndarray:
        """Basis coordinates of the terminals, shape (n, rank)."""
        return (self.X.points - self.X.points[0]) @ self.basis.T

    def _embed_one(self, u, anchor, warm=None):
        """A terminal (R = 0) maps to its row of terminal_images, (base_images
        row, 0) with the trailing coordinate exactly 0; recomputing its
        perpendicular part would leave rounding there."""
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        k, R = anchor
        if R == 0.0:
            return self._solver_free(np.concatenate([self.base_images[k], [0.0]]), k)
        w = u - self.X.points[0]
        coords = self.basis @ w
        perp = w - self.basis.T @ coords
        return self._solver_free(np.concatenate([coords, [float(np.linalg.norm(perp))]]), k)


def exact_small_embedding(X: PointSet) -> ExactEmbedding:
    """Orthonormal basis of span{x_i - x_1}: the right singular vectors of
    the (n, d) matrix of rows x_i - x_1 whose singular values exceed
    s_max * max(n, d) * eps, numpy's matrix_rank rule. The rule is relative,
    so the rank does not depend on the data's scale. Rank 0 (n = 1) is legal:
    the map degenerates to u -> (||u - x_1||,).
    """
    _, s, vt = np.linalg.svd(X.points - X.points[0], full_matrices=False)
    keep = s > s.max() * max(X.n, X.d) * np.finfo(np.float64).eps
    return ExactEmbedding(X=X, basis=vt[keep])
