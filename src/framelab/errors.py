"""Error taxonomy shared across the package.

Every domain failure raises a subclass of ``FrameLabError`` so callers (and
the command line driver) can separate bad mathematics from bad usage.
"""


class FrameLabError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeMismatch(FrameLabError):
    """Operands have incompatible dimensions."""


class AsymmetricInput(FrameLabError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class SingularOperator(FrameLabError):
    """An operator that must be invertible is numerically singular."""


class ZeroVector(FrameLabError):
    """A vector that must be nonzero is (numerically) zero."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"vector {index} is numerically zero")


class NotParseval(FrameLabError):
    """The frame is not Parseval within the stated tolerance."""


class NoComplement(FrameLabError):
    """No complement exists (the ambient and frame dimensions coincide)."""


class UnsupportedShape(FrameLabError):
    """The requested construction needs n >= d."""


class NotUnitNorm(FrameLabError):
    """A family required to be unit-norm is not, within tolerance."""


class StepTooLarge(FrameLabError):
    """The flow step size violates 0 < t < 1/(2n)."""


class IndivisibleRepeat(FrameLabError):
    """repeated_basis needs the number of vectors to be a multiple of d."""


class UnsupportedExponent(FrameLabError):
    """The operation requires a smooth norm (1 < p < inf)."""


class Infeasible(FrameLabError):
    """The requested instance cannot be generated for these parameters."""


class NotIdempotent(FrameLabError):
    """The matrix is not a projection within tolerance."""


class RankMismatch(FrameLabError):
    """Chordal distance needs two projections of equal rank."""


class ZeroRank(FrameLabError):
    """The projection has rank zero."""


class NegativeChordal(FrameLabError):
    """m - trace(PQ) is negative beyond tolerance (oblique pair)."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"m - trace(PQ) = {value} is negative")


class InvalidSystem(FrameLabError):
    """A reference system violates its normalization or biorthogonality."""


class BoundViolation(FrameLabError):
    """A certified record exceeded a ceiling it must satisfy."""


class DocumentError(FrameLabError):
    """A JSON or CSV document is malformed or violates numeric rules."""
