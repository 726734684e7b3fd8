"""Datasets, the covariance pipeline and the symmetric eigensolver.

Turns an n x p sample matrix into the sample covariance, its inverse (the
precision matrix), the precision diagonal, and the unit-diagonal normalized
precision whose top eigenvalue the sparsity test examines, and takes that
matrix's eigensystem from LAPACK with a fixed order and sign rule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

from .errors import (
    ConvergenceError,
    CsvParseError,
    InputError,
    InsufficientSampleError,
    SingularityError,
)

# Correlation-matrix condition estimates above this are treated as singular.
CONDITION_LIMIT = 1e12


@dataclass
class Dataset:
    """n x p sample matrix; rows are observations, columns are variables."""

    values: np.ndarray
    variable_names: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InputError(f"dataset must be 2-D, got shape {self.values.shape}")
        n, p = self.values.shape
        if n < 1 or p < 1:
            raise InputError(f"dataset must be non-empty, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise InputError("dataset contains non-finite values")
        if self.variable_names is not None and len(self.variable_names) != p:
            raise InputError(
                f"got {len(self.variable_names)} variable names for {p} columns"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def names(self) -> list[str]:
        if self.variable_names is not None:
            return list(self.variable_names)
        return default_names(self.p)


def default_names(p: int) -> list[str]:
    """Names ``x1 ... xp`` for unnamed variables."""
    return [f"x{i + 1}" for i in range(p)]


def read_csv(path) -> Dataset:
    """Read a dataset CSV: header row of names, then numeric rows.

    Comma separated, '.' decimal, UTF-8; a cell may be double-quoted. A cell
    is read as Python's ``float()`` reads it, to the same bits: any spelling
    ``float()`` accepts, with surrounding whitespace, exponents, ``1_000``
    and non-ASCII digits included (``nan`` and ``inf`` parse, then
    :class:`Dataset` refuses them). The body is parsed in one call to
    numpy's C tokenizer, which converts each field with the correctly
    rounded routine ``float()`` uses. Only when that call fails (a bad cell,
    a ragged row, a byte that is not UTF-8, no data rows, a spelling that
    only ``float()`` accepts) or could read the body otherwise than
    ``float()`` does is the file read again with one ``float()`` call per
    cell. Parse failures raise :class:`CsvParseError` with the 1-based row
    and column where known.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvParseError("file is empty") from None
            names = [name.strip() for name in header]
            if not names or any(not name for name in names):
                raise CsvParseError("header row has empty variable names", row=1)
            values = _tokenized_body(handle, len(names))
            if values is None:
                handle.seek(0)
                reader = csv.reader(handle)
                next(reader)
                values = _float_rows(reader, len(names))
    except UnicodeDecodeError as err:
        raise CsvParseError(f"file is not UTF-8 text: {err.reason}") from None
    except csv.Error as err:
        raise CsvParseError(str(err), row=reader.line_num) from None
    return Dataset(values=values, variable_names=names)


def _tokenized_body(handle, p: int) -> np.ndarray | None:
    """The rest of ``handle`` as a p-column array from numpy's C tokenizer,
    or None where the per-cell ``float()`` reading must decide.

    The tokenizer converts a field with ``PyOS_string_to_double``, the
    routine ``float()`` uses, so a parse that succeeds has ``float()``'s
    bits, and it fails on the spellings only ``float()`` reads. Three
    bodies it would read differently go to the per-cell reading unparsed:
    one without data rows (``np.loadtxt`` warns), one with the separators
    \\x1c-\\x1f (the tokenizer strips them from a field as whitespace,
    ``float()`` refuses them), and one with a line over the csv module's
    field limit (``csv.reader`` refuses it).
    """
    try:
        lines = handle.readlines()
    except UnicodeDecodeError:
        return None
    body = "".join(lines)
    if (
        not body.strip("\r\n")
        or any(sep in body for sep in "\x1c\x1d\x1e\x1f")
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == p else None


def _float_rows(reader, p: int) -> np.ndarray:
    """The rows after the header, one ``float()`` call per cell; a failure
    names its row and column."""
    rows = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != p:
            raise CsvParseError(f"expected {p} fields, got {len(record)}", row=lineno)
        parsed = []
        for colno, cell in enumerate(record, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise CsvParseError(
                    f"cannot parse {cell!r} as a number", row=lineno, column=colno
                ) from None
        rows.append(parsed)
    if not rows:
        raise CsvParseError("no data rows after the header")
    return np.array(rows, dtype=float)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the same CSV format ``read_csv`` accepts."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.names())
        for row in dataset.values:
            writer.writerow([repr(float(x)) for x in row])


def sample_covariance(data: Dataset) -> np.ndarray:
    """Sample covariance with divisor n (not n-1)."""
    if data.n < 2:
        raise InputError(f"covariance needs at least 2 samples, got n={data.n}")
    centered = center_columns(data.values)
    with np.errstate(over="ignore"):
        cov = representable_second_moments(centered, centered.T @ centered / data.n)
    return 0.5 * (cov + cov.T)


def center_columns(values: np.ndarray) -> np.ndarray:
    """Columns minus their means, with constant columns exactly zero.

    A constant whose mean rounds (0.1 at n = 60) would centre to a column of
    rounding noise (about 1e-17) that looks like an uncorrelated variable;
    constant columns are found by exact comparison instead.
    """
    centered = values - values.mean(axis=0)
    centered[:, (values == values[0]).all(axis=0)] = 0.0
    return centered


def finite_second_moments(moments: np.ndarray) -> np.ndarray:
    """Pass through second moments of centered data, or raise
    :class:`InputError` when they overflowed double precision."""
    if not np.isfinite(moments).all():
        raise InputError("data too large: its second moments overflow double precision")
    return moments


def representable_second_moments(centered: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Check ``moments``, the second moments of ``centered`` data (a vector,
    or a matrix with them on its diagonal), with ``finite_second_moments``,
    and also raise :class:`InputError` when a column that is not constant
    has a second moment below the smallest normal double: that moment has
    lost its precision, and the reciprocal scale taken from it would
    overflow. A constant column, exactly zero after ``center_columns``,
    keeps its zero moment."""
    second = np.diagonal(moments) if moments.ndim == 2 else moments
    if (second[centered.any(axis=0)] < np.finfo(float).tiny).any():
        raise InputError("data too small: its second moments underflow double precision")
    return finite_second_moments(moments)


@dataclass(frozen=True)
class CovarianceSuite:
    """Sample covariance, precision, precision diagonal, normalized precision."""

    covariance: np.ndarray
    precision: np.ndarray
    precision_diag: np.ndarray
    normalized_precision: np.ndarray

    @property
    def p(self) -> int:
        return self.covariance.shape[0]


def suite_from_covariance(sigma: np.ndarray) -> CovarianceSuite:
    """Build the suite from a covariance matrix directly.

    Inversion goes through a symmetric positive-definite factorization; a
    failed factorization, or a condition estimate of the correlation matrix
    above ``CONDITION_LIMIT``, raises :class:`SingularityError`.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma = 0.5 * (sigma + sigma.T)
    p = sigma.shape[0]
    try:
        factor = cho_factor(sigma, lower=True)
    except LinAlgError:
        raise SingularityError("covariance matrix is not positive definite") from None
    # The test does not change when columns are rescaled, so the estimate is
    # of the correlation matrix R = D S D, d = diag(S)^-1/2, whose Cholesky
    # factor is D L: no second factorization.
    d = 1.0 / np.sqrt(np.diag(sigma))
    anorm = float(np.abs(sigma * np.outer(d, d)).sum(axis=0).max())
    rcond, info = dpocon(factor[0] * d[:, None], anorm, uplo="L")
    if info != 0:
        raise SingularityError("condition estimation failed")
    cond = np.inf if rcond == 0 else 1.0 / float(rcond)
    if cond > CONDITION_LIMIT:
        raise SingularityError(
            f"correlation condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    precision, diag, normalized = normalize_precision(cho_solve(factor, np.eye(p)))
    return CovarianceSuite(
        covariance=sigma,
        precision=precision,
        precision_diag=diag,
        normalized_precision=normalized,
    )


def normalize_precision(precision: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrized precision, its diagonal, and the unit-diagonal normalized
    precision ``D^-1/2 precision D^-1/2``."""
    precision = 0.5 * (precision + precision.T)
    diag = np.diag(precision).copy()
    scale = 1.0 / np.sqrt(diag)
    normalized = precision * np.outer(scale, scale)
    return precision, diag, 0.5 * (normalized + normalized.T)


def build_suite(data: Dataset) -> CovarianceSuite:
    """Covariance pipeline for a dataset; requires n > p."""
    if data.n <= data.p:
        raise InsufficientSampleError(
            f"need more samples than variables, got n={data.n}, p={data.p}"
        )
    return suite_from_covariance(sample_covariance(data))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    ``vectors[:, i]`` is the unit eigenvector for ``values[i]``; the sign is
    fixed so the largest-magnitude entry of each eigenvector is positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def p(self) -> int:
        return self.values.size


def symmetric_eigen(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    The input must be square, finite and symmetric within 1e-10 relative to
    its largest entry; it is symmetrized before the call. Eigenvalues come in
    descending order (ties keep LAPACK's order), and each eigenvector's sign
    follows :class:`EigenSystem`. Raises :class:`ConvergenceError` when LAPACK
    reports no convergence. Output is deterministic for a fixed input and
    BLAS thread count.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"eigensolver needs a square matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("eigensolver input has non-finite entries")
    p = a.shape[0]
    amax = float(np.abs(a).max()) if a.size else 0.0
    if amax > 0 and float(np.abs(a - a.T).max()) > 1e-10 * amax:
        raise InputError("matrix is not symmetric within 1e-10 relative tolerance")

    try:
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"LAPACK symmetric eigensolver did not converge: {err}") from err
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    if p:
        peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(p)]
        vectors = vectors * np.where(peaks < 0.0, -1.0, 1.0)
    return EigenSystem(values=values, vectors=vectors)


def normalized_precision_eigen(suite: CovarianceSuite) -> EigenSystem:
    """Descending eigenvalues and eigenvectors of the normalized precision."""
    return symmetric_eigen(suite.normalized_precision)
