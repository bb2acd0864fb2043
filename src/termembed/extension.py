"""Outer extensions: the three embedders and the query-time solve they share.

Every map here is an outer extension (Mahabadi, Makarychev, Makarychev &
Razenshteyn, STOC 2018): terminal x_i goes to (g(x_i), 0) for a base map g,
and a query u to a head in g's space plus one tail coordinate.
OuterExtension writes that contract once (out_dim, terminal_images, embed,
embed_batch); the three frozen dataclasses below supply only the terminal
set X, their base map's terminal rows and one per-row step:

  * TerminalEmbedder, the sketch path: g = Pi, and the head comes from a
    per-query feasibility solve (below);
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
screen per batch (a single query goes through geometry.nearest, its one-row
call), which also holds the query checks: a query of the wrong width raises
DimensionMismatch, one with a non-finite coordinate NonFinitePoint.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix
from .geometry import PointSet, distances_to, nearest, nearest_batch
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


@dataclass(frozen=True)
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


class OuterExtension:
    """The embedder contract, written once for the three embedders.

    A subclass is a frozen dataclass with a field X (the PointSet of
    terminals) that supplies base_images, the (n, out_dim - 1) rows g(x_i) of
    its base map, and _embed_one(u, anchor) -> (image of u, record with
    RECORD_KEYS), where anchor = (k, R) is geometry.nearest(u, X). Instances
    are immutable and every query is independent, so concurrent readers are
    safe.
    """

    @property
    def out_dim(self) -> int:
        return self.base_images.shape[1] + 1

    @cached_property
    def terminal_images(self) -> np.ndarray:
        """(n, out_dim) read-only images (g(x_i), 0) of the terminals, the
        trailing coordinate exactly 0."""
        images = np.hstack([self.base_images, np.zeros((self.X.n, 1))])
        images.setflags(write=False)
        return images

    def embed(self, u) -> np.ndarray:
        """(out_dim,) image of the query u; raises DimensionMismatch or
        NonFinitePoint (geometry.nearest checks u)."""
        return self._embed_one(u, nearest(u, self.X))[0]

    def embed_batch(self, Q) -> tuple[np.ndarray, list[dict]]:
        """((q, out_dim) images of the rows of Q, one record per query).

        One geometry.nearest_batch call checks Q and finds every row's
        anchor, the same (k, R) that embed finds row by row, so each image
        equals embed(u) bit for bit."""
        Q = np.asarray(Q, dtype=np.float64)
        anchors = nearest_batch(Q, self.X)
        images = np.empty((Q.shape[0], self.out_dim))
        per_query = []
        for i, (u, k, R) in enumerate(zip(Q, *anchors)):
            images[i], record = self._embed_one(u, (int(k), float(R)))
            per_query.append(record)
        return images, per_query

    @staticmethod
    def _solver_free(image: np.ndarray, k: int) -> tuple[np.ndarray, dict]:
        """(image, record) of a map with no solve: residual 0, 0 iterations,
        anchor k, converged, lower bound 0, feasible."""
        return image, dict(zip(RECORD_KEYS, (0.0, 0, k, True, 0.0, "feasible")))


@dataclass(frozen=True)
class TerminalEmbedder(OuterExtension):
    """Frozen bundle answering embedding queries against a fixed sketch."""

    X: PointSet
    Pi: SketchMatrix
    embedded_X: np.ndarray  # (n, m) = Pi applied to each terminal
    epsilon: float
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        self.embedded_X.setflags(write=False)

    @property
    def m(self) -> int:
        return self.Pi.m

    @property
    def base_images(self) -> np.ndarray:
        return self.embedded_X

    def embed_with_info(self, u, anchor=None):
        sol = solve_extension(u, self, anchor)
        return lift(u, sol, self), sol

    def _embed_one(self, u, anchor):
        f, sol = self.embed_with_info(u, anchor)
        return f, {key: getattr(sol, key) for key in RECORD_KEYS}


def build_embedder(
    X: PointSet,
    pi: SketchMatrix,
    epsilon: float,
    solver: SolverConfig | None = None,
) -> TerminalEmbedder:
    if pi.d != X.d:
        raise DimensionMismatch(f"sketch expects dimension {pi.d}, points have {X.d}")
    return TerminalEmbedder(
        X=X,
        Pi=pi,
        embedded_X=sketch_points(pi, X.points),
        epsilon=float(epsilon),
        solver=solver or SolverConfig(),
    )


def solve_extension(u, E: TerminalEmbedder, anchor=None) -> ExtensionSolution:
    """Projected-subgradient feasibility solve for one query, with a dual
    certificate.

    With anchor k = nearest terminal and R = ||u - x_k|| (anchor = (k, R) as
    geometry.nearest(u, E.X) gives it, which is called when anchor is None),
    minimizes
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
    constraints) both return z = 0 with residual 0 and lower bound 0.

    Cost per query: one n x 2 product over X, a single pass that gives both
    the Gram direction norms and the targets; exact distances and guarded
    constraint rows only for the rows the cancellation guard sends to the
    direct formula (none on well-spread data); and one matvec over Pi X per
    residual evaluation (warm start, each iteration, and each Frank-Wolfe step after
    FW_AFTER iterations, so two per iteration there, until Frank-Wolfe
    reaches a fixed point). A solve that reaches the dual also takes two
    O(n m) passes over Pi X (Gram row norms) to pick its starting vertex;
    the dual holds O(m) state. The anchor search costs one matvec over X
    plus an exact recompute of its candidates (usually one row) when
    solve_extension finds it; embed_batch finds every row's anchor up front
    with a blocked GEMM screen instead. No (n-1) x d or (n-1) x m temporary
    is built, except for the guarded rows.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    X = E.X
    k, R = nearest(u, X) if anchor is None else anchor
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
    # difference form instead.
    pts, PX = X.points, E.embedded_X
    x_k, PX_k = pts[k], PX[k]
    P = u - x_k
    # One pass over X for both <x_i, x_k> and <x_i, P>: an n x 2 product
    # reads X once where two matvecs read it twice.
    dots = pts @ np.column_stack([x_k, P])
    sq_dist = X.sq_norms - 2.0 * dots[:, 0] + X.sq_norms[k]
    close = np.flatnonzero(~(sq_dist >= _CANCEL * (X.norms + X.norms[k]) ** 2))
    close = close[close != k]
    sq_dist[k] = 1.0
    if close.size:
        sq_dist[close] = 1.0
    norms = np.sqrt(sq_dist)
    t = (dots[:, 1] - x_k @ P) / norms
    if close.size:
        norms[close] = distances_to(x_k, X, close)
        W_close = (PX[close] - PX_k) / norms[close, None]
        t[close] = ((pts[close] - x_k) / norms[close, None]) @ P

    def residual(z):
        r = PX @ z
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

    pip = E.Pi.entries @ P
    # math.sqrt(v @ v) is what np.linalg.norm(v) computes, without its overhead.
    z = R * pip / max(math.sqrt(float(pip @ pip)), _TINY)
    nz = math.sqrt(float(z @ z))
    if nz > R:
        z *= R / nz

    target = E.epsilon * R * (1.0 + TOL)
    level = LEVEL * E.epsilon * R
    gap = GAP_TOL * R

    r = residual(z)
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


def lift(u, solution: ExtensionSolution, E: TerminalEmbedder) -> np.ndarray:
    """Assemble the (m+1)-dim image (Pi x_k + u', sqrt(R^2 - ||u'||^2)).

    The radicand is clamped at 0: ||u'|| can exceed R by a few ulps after
    projection, and the clamp keeps the lift NaN-free.
    """
    R = solution.radius
    head = E.embedded_X[solution.anchor_index] + solution.u_prime
    sq = R * R - float(solution.u_prime @ solution.u_prime)
    return np.concatenate([head, [np.sqrt(max(sq, 0.0))]])


@dataclass(frozen=True)
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

    def _embed_one(self, u, anchor):
        k, R = anchor
        return self._solver_free(np.concatenate([self.base_images[k], [R]]), k)


@dataclass(frozen=True)
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

    def _embed_one(self, u, anchor):
        """A terminal (R = 0) maps to its row of terminal_images, trailing
        coordinate exactly 0; recomputing its perpendicular part would leave
        rounding there."""
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        k, R = anchor
        if R == 0.0:
            return self._solver_free(self.terminal_images[k].copy(), k)
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
