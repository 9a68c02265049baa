"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed arguments (bad alpha, bad rank,
mismatched array lengths).  The classes below mark conditions that callers
are expected to catch and route — the command-line front end maps them to
distinct exit codes.
"""

from __future__ import annotations


class RankciError(Exception):
    """Base class for all package-specific errors."""


class InsufficientDataError(RankciError):
    """Too few observations to produce an estimate (e.g. fewer than 2 values)."""


class EmptyQuerySetError(RankciError):
    """An operation that averages over queries received an empty query set."""


class UnlabeledQueryError(RankciError):
    """A true-label utility was requested for a query that is not fully judged."""


class MissingDistributionError(RankciError):
    """A ranked document has no predicted label distribution."""


class ParseError(RankciError):
    """A corpus file could not be parsed.

    Carries the 1-based line number of the offending line so command-line
    users can find it.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CalibrationInfeasibleError(RankciError):
    """No perturbation strength within the open unit interval satisfies the
    calibration risk bound; the method explicitly declines to produce an
    interval rather than returning an unsound one."""


class TooFewBatchesError(CalibrationInfeasibleError):
    """The calibration risk threshold is non-positive for this batch count,
    so no achieved loss could ever satisfy it."""


class CalibrationMismatchError(RankciError):
    """A calibration record is applied to another metric or label scale than
    the one it was calibrated for, or carries no record of either."""
