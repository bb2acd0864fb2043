"""Reference oracles for chd.estimate_sampled in test_chd and test_acceptance:
an exhaustive simplex grid with its Lipschitz window (grid max <= sup <=
certified_bound), a coordinate-pair ascent whose trace never decreases, and
the whole population of chd._violation_stream."""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations

import numpy as np

from termembed import chd

_ASCENT_COARSE = 33
_ASCENT_ZOOM = 17

GridResult = namedtuple("GridResult", "max_violation witness certified_bound step lipschitz")
AscentResult = namedtuple("AscentResult", "max_violation witness trace")


def _compositions(k: int, N: int):
    """Yield every nonnegative integer k-tuple (k >= 2) summing to N, in
    blocks of at most 2^18 rows (larger ones run slower) whose last two
    (k = 2) or three coordinates are vectorized, so k = 4 at N = 1000 takes
    about 1000 Python iterations."""
    # Every (b, c) with b + c <= N in order of s = b + c: the rows with
    # s <= M are the first (M + 1)(M + 2) / 2, those with s = N the last N + 1.
    s = np.repeat(np.arange(N + 1), np.arange(1, N + 2))
    b = np.arange(s.size) - s * (s + 1) // 2
    pairs = np.column_stack([b, s - b])
    if k == 2:
        yield pairs[-(N + 1) :]
        return
    for prefix in np.ndindex(*(N + 1,) * (k - 3)):
        M = N - sum(prefix)
        if M < 0:
            continue
        tri = pairs[: (M + 1) * (M + 2) // 2]
        block = np.empty((tri.shape[0], k), dtype=np.int64)
        block[:, : k - 3] = prefix
        block[:, k - 3] = tri[:, 0]
        block[:, k - 2] = tri[:, 1]
        block[:, k - 1] = M - tri[:, 0] - tri[:, 1]
        for lo in range(0, block.shape[0], 1 << 18):
            yield block[lo : lo + (1 << 18)]


def certify_grid(pi, T, h: float) -> GridResult:
    """The largest violation over the simplex grid {weights in (1/N)Z},
    N = ceil(1/h), so the step 1/N never exceeds h. certified_bound = grid
    max + L * step, with L = max_i(||Pi t_i|| + ||t_i||), a crude
    l1-Lipschitz constant: moving h of simplex mass moves the hull point by
    at most h max ||t_i|| and its image by at most h max ||Pi t_i||."""
    D = np.asarray(T, dtype=np.float64)
    PD = D @ pi.entries.T
    N = max(1, math.ceil(1.0 / h))
    best_v, best_counts = -1.0, None
    for counts in _compositions(D.shape[0], N):
        lam = counts / N
        v = chd._norm_gap(lam @ D, lam @ PD)
        j = int(np.argmax(v))
        if v[j] > best_v:
            best_v, best_counts = float(v[j]), counts[j].copy()
    L = float(np.max(np.linalg.norm(PD, axis=1) + np.linalg.norm(D, axis=1)))
    step = 1.0 / N
    witness = chd.make_hull_point(D, best_counts / N)
    return GridResult(best_v, witness, best_v + L * step, step, L)


def refine_local(pi, T, start, iters: int = 20) -> AscentResult:
    """Coordinate-pair ascent from the hull point start. Each sweep
    line-searches the mass moved between every pair of coordinates (a coarse
    scan, then two zoom rounds) and applies only strict improvements, so the
    trace never decreases; it stops after a sweep with none."""
    D = np.asarray(T, dtype=np.float64)
    PD = D @ pi.entries.T
    lam = np.array(start.weights, dtype=np.float64)
    x, px = lam @ D, lam @ PD
    cur = float(chd._norm_gap(x[None], px[None])[0])
    trace = [cur]
    for _ in range(iters):
        improved = False
        for i, j in combinations(range(lam.shape[0]), 2):
            lo, hi = -lam[j], lam[i]
            if hi - lo <= 0.0:
                continue
            delta, val = _line_search(x, px, D[j] - D[i], PD[j] - PD[i], lo, hi)
            if val > cur:
                lam[i] = max(lam[i] - delta, 0.0)
                lam[j] = max(lam[j] + delta, 0.0)
                x = x + delta * (D[j] - D[i])
                px = px + delta * (PD[j] - PD[i])
                cur = val
                trace.append(cur)
                improved = True
        # Squash float drift before the next sweep.
        lam = np.maximum(lam, 0.0)
        lam /= lam.sum()
        x, px = lam @ D, lam @ PD
        if not improved:
            break
    witness = chd.make_hull_point(D, lam)
    final = chd.violation(pi, witness)
    trace[-1] = max(trace[-1], final)
    return AscentResult(final, witness, tuple(trace))


def _line_search(x, px, dx, dpx, lo, hi):
    """(delta, violation) at the best delta of a coarse scan over [lo, hi],
    refined by two zoom rounds around it."""

    def best(deltas):
        vals = chd._norm_gap(x + deltas[:, None] * dx, px + deltas[:, None] * dpx)
        b = int(np.argmax(vals))
        return float(deltas[b]), float(vals[b])

    delta, val = best(np.linspace(lo, hi, _ASCENT_COARSE))
    span = (hi - lo) / (_ASCENT_COARSE - 1)
    for _ in range(2):
        zlo, zhi = max(lo, delta - span), min(hi, delta + span)
        delta, val = best(np.linspace(zlo, zhi, _ASCENT_ZOOM))
        span = (zhi - zlo) / (_ASCENT_ZOOM - 1)
    return delta, val


def sampled_violations(pi, T, samples: int, seed: int = 0) -> np.ndarray:
    """Every value of estimate_sampled's violation stream, in stream order:
    the vertices, the pair midpoints, then the random hull points."""
    return np.concatenate([v for v, _ in chd._violation_stream(pi, T, samples, seed)])
