"""Exception types shared across the package.

Everything derives from OrthofitError so callers can catch one base class,
but the CLI maps the concrete types to distinct exit codes, so code that
raises should pick the most specific type that applies.
"""


class OrthofitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(OrthofitError):
    """Operands have incompatible dimensions (point vs. line, vector vs. matrix)."""


class ZeroVector(OrthofitError):
    """A direction or axis vector has zero (or effectively zero) length."""


class NotUnit(OrthofitError):
    """A vector that must be unit length is not."""


class NonFinite(OrthofitError, ValueError):
    """An input or an intermediate result holds an infinity or a NaN.

    Also a ValueError, so code that catches ValueError for bad values keeps
    working.
    """


class NotCentered(OrthofitError):
    """Unused: nothing in the package raises it; kept for code that imports it."""


class DegenerateInput(OrthofitError):
    """The data admits no meaningful answer (all points coincident, too few points)."""


class NotSymmetric(OrthofitError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NoConvergence(OrthofitError):
    """An iterative solver exhausted its iteration budget before reaching tolerance."""


class RankDeficient(OrthofitError):
    """A linear system is singular or too ill-conditioned to solve reliably."""


class UnsupportedDimension(OrthofitError):
    """The requested operation is only defined for specific dimensions."""


class ParseError(OrthofitError):
    """Input text could not be parsed into points."""


class InvariantViolation(OrthofitError):
    """A result broke a guaranteed property of the fit: a defect, not bad data."""
