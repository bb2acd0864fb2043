"""termembed: terminal dimensionality reduction.

Sketch a finite point set X in R^d down to m = O(eps^-2 log n) dimensions,
then embed arbitrary query points so that every distance from a query to X
is preserved within a 1 +/- O(eps) factor. Includes a hull-distortion
estimator, the snap-to-nearest baseline, an evaluation harness, and a CLI.
"""

from .chd import (
    ChdEstimate,
    HullPoint,
    estimate_sampled,
    make_hull_point,
    violation,
)
from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    EmbeddingError,
    EmptyInput,
    FormatError,
    InvalidConstant,
    InvalidEpsilon,
    InvalidMatrix,
    NonFinitePoint,
    TooManyDirections,
)
from .extension import (
    EfnEmbedder,
    ExactEmbedding,
    ExtensionSolution,
    SolverConfig,
    TerminalEmbedder,
    build_embedder,
    exact_small_embedding,
    lift,
    solve_extension,
)
from .geometry import (
    DirectionSet,
    PointSet,
    build_point_set,
    direction_set,
    distances_to,
    nearest_point,
)
from .harness import (
    DistortionReport,
    evaluate,
    sample_queries,
    sample_suite,
)
from .seeding import derive_seed
from .sketch import (
    DimensionPlan,
    SketchMatrix,
    generate_sketch,
    load_sketch,
    plan_dimension,
    save_sketch,
    sketch_points,
)

__version__ = "0.1.0"

__all__ = [
    "ChdEstimate",
    "DimensionMismatch",
    "DimensionPlan",
    "DirectionSet",
    "DistortionReport",
    "DuplicatePoint",
    "EfnEmbedder",
    "EmbeddingError",
    "EmptyInput",
    "ExactEmbedding",
    "ExtensionSolution",
    "FormatError",
    "HullPoint",
    "InvalidConstant",
    "InvalidEpsilon",
    "InvalidMatrix",
    "NonFinitePoint",
    "PointSet",
    "SketchMatrix",
    "SolverConfig",
    "TerminalEmbedder",
    "TooManyDirections",
    "build_embedder",
    "build_point_set",
    "derive_seed",
    "direction_set",
    "distances_to",
    "estimate_sampled",
    "evaluate",
    "exact_small_embedding",
    "generate_sketch",
    "lift",
    "load_sketch",
    "make_hull_point",
    "nearest_point",
    "plan_dimension",
    "sample_queries",
    "sample_suite",
    "save_sketch",
    "sketch_points",
    "solve_extension",
    "violation",
]
