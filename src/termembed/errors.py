"""Exception types shared across the package."""


class EmbeddingError(Exception):
    """Base class for all termembed errors."""


class EmptyInput(EmbeddingError):
    """A point list or file contained no points."""


class DimensionMismatch(EmbeddingError):
    """Vectors of incompatible dimension were combined."""


class DuplicatePoint(EmbeddingError):
    """Two identical points in a terminal set, or two distinct ones closer
    than geometry.MIN_DISTANCE = 2**-511 (about 1.5e-154): the direction
    between them is undefined. PointSet refuses identical rows. A pair that
    close is refused where a direction between them is formed, by
    geometry.DirectionSet (verify-chd, scaling) and by the query solve for a
    query anchored at one of them (query, eval, scaling); build accepts such
    a set, since refusing it there would need a search for near pairs. A
    query closer than MIN_DISTANCE to its nearest terminal but not equal to
    it is refused too, before it is embedded (geometry._refuse_near_query)."""


class NonFinitePoint(EmbeddingError):
    """A coordinate was NaN or infinite, or a point's norm exceeded
    geometry.MAX_NORM. row is the index of the refused row, when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class InvalidEpsilon(EmbeddingError):
    """Distortion parameter outside (0, 1)."""


class InvalidConstant(EmbeddingError):
    """Dimension constant C must be positive."""


class TooManyDirections(EmbeddingError):
    """A terminal set whose audit (verify-chd, scaling) is beyond the budget
    of chd.check_audit_size: chd.MAX_DIRECTION_BYTES of directions and
    images, chd.MAX_MIDPOINTS pair midpoints. It is checked before the
    direction set is built."""


class InvalidMatrix(EmbeddingError):
    """A sketch or exact-path basis outside the rules that keep every square
    finite: a non-finite sketch entry, a sketch Frobenius norm above
    sketch.MAX_FROBENIUS, or basis rows that are not orthonormal."""


class FormatError(EmbeddingError):
    """Malformed point file or serialized artifact."""
