"""Exception hierarchy, the process exit codes attached to it, and the
input checks that several entry points share.

The CLI maps any raised ``BnSparsityError`` to its ``exit_code``:
0 success, 2 input error, 3 numerical error, 4 insufficient sample.
"""


class BnSparsityError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(BnSparsityError):
    """Invalid parameters, malformed files, or shape mismatches."""

    exit_code = 2


class CsvParseError(InputError):
    """CSV cell that cannot be parsed; carries 1-based row/column."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        if row is not None and column is not None:
            message = f"row {row}, column {column}: {message}"
        elif row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class NumericalError(BnSparsityError):
    """Numerical failure: singular matrices, non-convergence, zero variance."""

    exit_code = 3


class SingularityError(NumericalError):
    """Matrix is singular or too ill-conditioned to invert reliably."""


class ConvergenceError(NumericalError):
    """Iterative routine exhausted its iteration budget."""


class DegenerateVarianceError(NumericalError):
    """Estimated test-statistic variance is zero; no test is possible."""


class InsufficientSampleError(BnSparsityError):
    """Sample size too small for the requested computation (needs n > p)."""

    exit_code = 4


def check_alpha(alpha: float) -> None:
    """Refuse a test level outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")


def check_seed(seed: int | None) -> None:
    """Refuse a negative seed; ``None`` stands for a fresh one."""
    if seed is not None and seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
