"""Exception types shared across the package.

Each class names the condition it reports; call sites raise them with a
message carrying the offending values.
"""


class SaddleflowError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SaddleflowError, ValueError):
    """Caller-supplied input is malformed or does not fit the problem, such
    as a certificate variant for another constraint kind."""


class ProblemFileError(InvalidInputError):
    """A problem file is malformed: no magic line of the format version, a
    header key or section its kind and objective do not hold, one given
    twice or missing, a non-numeric or non-finite entry, or a matrix of
    the wrong size."""


class DimensionMismatchError(SaddleflowError, ValueError):
    """Array shapes are inconsistent with the declared problem dimensions."""


class RankDeficientError(SaddleflowError, ValueError):
    """Constraint matrix is not full row rank (smallest eigenvalue of A A^T
    is below the rank tolerance)."""


class NotSymmetricError(SaddleflowError, ValueError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class InvalidBandError(SaddleflowError, ValueError):
    """Two-sided bounds do not satisfy lower < upper."""


class NoSlackError(SaddleflowError, ValueError):
    """An inactive constraint has nonpositive slack, so no valid slack
    margin exists."""


class InfeasibleError(SaddleflowError, ValueError):
    """No admissible value exists for the requested quantity."""


class DivergedError(SaddleflowError, RuntimeError):
    """The simulated state left the trust region (norm above 1e12).

    Every Euler step is checked: step is the first one beyond it and, in a
    stacked run, column the stack column it is in (otherwise None).
    """

    def __init__(self, message, step=None, column=None):
        super().__init__(message)
        self.step = step
        self.column = column


class CsvWriteError(SaddleflowError, OSError):
    """A CSV file could not be written: the process that formatted the
    back half of its table (fileio.write_csv's split) exited with a
    nonzero code."""


class MaxIterationsError(SaddleflowError, RuntimeError):
    """An iterative solve hit its step budget before reaching tolerance."""
