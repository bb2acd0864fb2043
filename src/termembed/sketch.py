"""Scaled subgaussian sketch matrices, dimension planning, and sketch I/O.

The sketch is a dense m x d matrix with i.i.d. mean-0 variance-1 entries
(Rademacher by default, Gaussian optional) scaled by 1/sqrt(m), so that
E||Pi x||^2 = ||x||^2. The target dimension follows
m = ceil(C * eps^-2 * ln(max(|Y|, 2))) with |Y| = n(n-1), the size of the
direction set the guarantee must cover. When that formula meets or exceeds
min(n, d), a rank-based exact embedding into at most min(n - 1, d) + 1
dimensions is no wider and has zero distortion, so planning switches to the
exact path (extension.exact_small_embedding).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    InvalidConstant,
    InvalidEpsilon,
    InvalidMatrix,
)

RADEMACHER = "rademacher"
GAUSSIAN = "gaussian"
DEFAULT_C = 4.0

SKETCH_MAGIC = "TESK"
# The largest Frobenius norm ||Pi||_F accepted. With norms within
# geometry.MAX_NORM = 2^500, ||Pi (u - x_k)||^2 <= ||Pi||_F^2 ||u - x_k||^2
# is then at most 2^20 * 2^1002 = 2^1022, below float64's 2^1024. A drawn
# Rademacher sketch has ||Pi||_F = sqrt(d) up to the rounding of 1/sqrt(m),
# so the sketch path takes d < 2^20 = 1,048,576 (d = 2^20 only where
# 1/sqrt(m) is exact, as at m = 1 or 4). A Gaussian one has ||Pi||_F near
# sqrt(d): at d = 2^20, 4 of 10 seeds measured above the bound.
MAX_FROBENIUS = 2.0**10


@dataclass(frozen=True)
class SketchMatrix:
    """Dense scaled sketch Pi in R^{m x d}; entries already include 1/sqrt(m).

    Every entry must be finite and ||Pi||_F at most MAX_FROBENIUS, else
    InvalidMatrix."""

    entries: np.ndarray  # (m, d)
    distribution: str
    seed: int

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow to inf fails the test
            fro = float(np.linalg.norm(self.entries))  # one dot; NaN fails too
        if not fro <= MAX_FROBENIUS:
            # min and max reach any NaN or infinity with no (m, d) temporary.
            if not (math.isfinite(self.entries.min()) and math.isfinite(self.entries.max())):
                raise InvalidMatrix("sketch entries must be finite")
            scale = float(np.abs(self.entries).max())  # ||Pi||_F without overflow
            raise InvalidMatrix(
                f"sketch Frobenius norm {scale * np.linalg.norm(self.entries / scale)!r} "
                f"is above MAX_FROBENIUS = 2**10; a drawn sketch needs d < 2**20"
            )
        self.entries.setflags(write=False)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class DimensionPlan:
    """Planned target dimension and which construction to use.

    m always carries the formula value ceil(C * eps^-2 * ln(max(n(n-1), 2)));
    in exact_small mode the real output width is rank-determined later.
    The caller keeps epsilon and C (the CLI writes both to config.json).
    """

    m: int
    mode: str  # "sketch" | "exact_small"


def plan_dimension(
    n: int, epsilon: float, C: float = DEFAULT_C, d: int | None = None
) -> DimensionPlan:
    """Choose the target dimension for n terminals, in R^d when d is given.

    The exact path is taken when m >= n, or m >= d for a given d: its output
    is then never wider than the sketch's m + 1. A C that is not positive
    and finite, or an m that overflows, raises InvalidConstant.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidEpsilon(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (0.0 < C < math.inf):
        raise InvalidConstant(f"C must be positive and finite, got {C}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d is not None and d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    size_y = n * (n - 1)
    try:
        m = math.ceil(C * epsilon**-2 * math.log(max(size_y, 2)))
    except OverflowError:
        raise InvalidConstant(f"m = C eps^-2 ln|Y| overflows at C={C}, eps={epsilon}") from None
    mode = "exact_small" if m >= min(n, d or n) else "sketch"
    return DimensionPlan(m=m, mode=mode)


def generate_sketch(
    m: int, d: int, distribution: str = RADEMACHER, seed: int = 0
) -> SketchMatrix:
    """Draw an m x d sketch with i.i.d. entries scaled by 1/sqrt(m).

    Entries are drawn row-major from numpy's PCG64 stream, so identical
    (m, d, distribution, seed) reproduce the matrix bit-exactly. A sketch
    above MAX_FROBENIUS raises InvalidMatrix (see there for the limit on d).
    """
    if m < 1 or d < 1:
        raise ValueError(f"m and d must be >= 1, got m={m}, d={d}")
    rng = np.random.default_rng(seed)
    if distribution == RADEMACHER:
        raw = rng.integers(0, 2, size=(m, d)).astype(np.float64) * 2.0 - 1.0
    elif distribution == GAUSSIAN:
        raw = rng.standard_normal((m, d))
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return SketchMatrix(
        entries=raw / math.sqrt(m), distribution=distribution, seed=int(seed)
    )


def sketch_points(pi: SketchMatrix, xs: np.ndarray) -> np.ndarray:
    """Apply the sketch to the rows of an (n, d) array, giving (n, m)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != pi.d:
        raise DimensionMismatch(
            f"points have shape {xs.shape}, expected (*, {pi.d})"
        )
    return xs @ pi.entries.T


def save_sketch(pi: SketchMatrix, header_path, data_path=None) -> None:
    """Serialize a sketch as a JSON header plus a binary double sidecar.

    The header holds magic, m, d, distribution, seed and the sidecar's file
    name (data_path, default header_path with suffix .bin), and nothing else:
    the plan constant C lives in a bundle's config.json."""
    header_path = Path(header_path)
    if data_path is None:
        data_path = header_path.with_suffix(".bin")
    data_path = Path(data_path)
    header = {
        "magic": SKETCH_MAGIC,
        "m": pi.m,
        "d": pi.d,
        "distribution": pi.distribution,
        "seed": pi.seed,
        "data": data_path.name,
    }
    header_path.write_text(
        json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    data_path.write_bytes(np.ascontiguousarray(pi.entries, dtype="<f8"))


def _typed(obj, key, types):
    """obj[key] if it is an instance of types and not a bool (JSON true and
    false load as bools, a subclass of int); raises KeyError or TypeError, so
    a value of the wrong JSON type is never coerced."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key} must be a JSON {names}, got {value!r}")
    return value


def load_sketch(header_path) -> SketchMatrix:
    """Load a serialized sketch, bit-exact to the one save_sketch wrote.

    A header that is not a JSON object, has a bad magic, or lacks a valid
    m, d, data, distribution or seed raises FormatError (m, d and seed must
    be JSON integers and distribution a string, never coerced); other keys
    (such as the "C" that older headers carry) are ignored. data must be a bare file
    name, as save_sketch writes it, so the sidecar lies beside the header,
    and a sidecar that SketchMatrix refuses (a NaN or infinite entry, or a
    Frobenius norm above MAX_FROBENIUS) is a FormatError naming it too."""
    header_path = Path(header_path)
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{header_path}: invalid JSON header: {exc}") from exc
    magic = header.get("magic") if isinstance(header, dict) else None
    if magic != SKETCH_MAGIC:
        raise FormatError(f"{header_path}: bad magic {magic!r}")
    try:
        m, d, seed = (_typed(header, key, (int,)) for key in ("m", "d", "seed"))
        data, distribution = header["data"], _typed(header, "distribution", (str,))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{header_path}: corrupt sketch header: {exc!r}") from exc
    if m < 1 or d < 1:
        raise FormatError(f"{header_path}: sketch shape ({m}, {d}) is not positive")
    # save_sketch writes a bare file name: anything else could name a file
    # outside the header's directory.
    if not isinstance(data, str) or data in ("", "..") or Path(data).name != data:
        raise FormatError(f"{header_path}: data {data!r} is not a file name beside the header")
    data_path = header_path.parent / data
    blob = data_path.read_bytes()
    if len(blob) != 8 * m * d:
        raise FormatError(
            f"{data_path}: payload length {len(blob)} != expected {8 * m * d}"
        )
    entries = np.frombuffer(blob, dtype="<f8").reshape(m, d).astype(np.float64)
    try:
        return SketchMatrix(entries=entries, distribution=distribution, seed=seed)
    except InvalidMatrix as exc:
        raise FormatError(f"{data_path}: {exc}") from None
