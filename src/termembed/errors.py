"""Exception types shared across the package."""


class EmbeddingError(Exception):
    """Base class for all termembed errors."""


class EmptyInput(EmbeddingError):
    """A point list or file contained no points."""


class DimensionMismatch(EmbeddingError):
    """Vectors of incompatible dimension were combined."""


class DuplicatePoint(EmbeddingError):
    """Two identical points in a terminal set; the direction set is undefined."""


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
    """Grid certification is limited to very small direction sets."""


class InvalidMatrix(EmbeddingError):
    """A sketch or exact-path basis outside the rules that keep every square
    finite: a non-finite sketch entry, a sketch Frobenius norm above
    sketch.MAX_FROBENIUS, or basis rows that are not orthonormal."""


class FormatError(EmbeddingError):
    """Malformed point file or serialized artifact."""
