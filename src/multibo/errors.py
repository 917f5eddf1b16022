"""Exception types raised by multibo."""


class MultiboError(Exception):
    """Base class for all multibo errors."""


class NotSymmetric(MultiboError):
    """Matrix asymmetry exceeds tolerance where symmetry is required."""


class NotPositiveDefinite(MultiboError):
    """Cholesky factorization failed for every jitter in the schedule."""


class DimensionMismatch(MultiboError):
    """Operands have incompatible shapes."""


class NonFinite(MultiboError):
    """A value that must be finite is NaN or infinite."""


class EmptyData(MultiboError):
    """An operation requires at least one sample."""


class GridTooLarge(MultiboError):
    """Candidate or search grid exceeds the configured size limit."""


class Exhausted(MultiboError):
    """No candidate satisfies the minimum sampling distance constraint."""


class NoGroundTruth(MultiboError):
    """Benchmark has no registered ground-truth optima."""


class ParseError(MultiboError):
    """A file failed to parse; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OutOfBounds(MultiboError):
    """Query point lies outside the supported domain."""


class ConfigError(MultiboError):
    """Experiment configuration is invalid."""
