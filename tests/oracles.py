"""Dense oracles for the test path.

The test uses a handful of scalars: the trace of the plug-in covariance C
of the vectorized normalized precision, the variance of the top eigenvalue
and p - 1 quadratic forms for the bias term. ``build_asymptotics`` computes
them without forming C. This module builds the p^2 x p^2 objects they come
from, so the tests and acceptance criteria can check the scalars against
them: the vec and commutation identities, the full-width propagation
factor G, ``V = (I + K)(S (x) S)``, ``C = G.T V G / divisor``, the
eigenvalue covariance and the dense bias term.

All vectorized objects use column-major stacking, so that
``vec(A @ B @ C) == np.kron(C.T, A) @ vec(B)`` holds. The delta-method
functions default to ``form="exact"``, the covariance their names promise;
``form="conservative"`` gives the test pipeline's inflated matrix, which is
not that covariance (see ``bnsparsity.asymptotics.PROPAGATOR_FORMS``).

``float_csv`` is the reference reading of the CSV format: one ``float()``
call per cell, against which ``read_csv``'s tokenizer path is checked.
``mutual_information_matrix`` is the tree fit's weight matrix, for the
spanning-tree oracles.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.linalg import cho_solve

from bnsparsity.asymptotics import (
    _check_dimension,
    _exact_scale_exponent,
    _factor_kron,
    _form_suite,
    check_form,
    divisor_value,
)
from bnsparsity.correction import _gap_weighted_sum
from bnsparsity.covariance import CovarianceSuite, Dataset
from bnsparsity.errors import CsvParseError, InputError
from bnsparsity.kernels import EigenSystem
from bnsparsity.trees import _R_SQUARED_CAP, _centered_and_std, _mi_from_centered


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of ``a`` into one vector (column-major)."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def commutation_indices(p: int) -> np.ndarray:
    """Row permutation ``idx`` with ``K @ v == v[idx]`` for the p^2 x p^2
    commutation matrix K, so that ``K @ M == M[idx]`` and
    ``M @ K == M[:, idx]``."""
    p = _check_dimension(p)
    # position r + p*c of vec(A.T) holds A[c, r] = vec(A)[c + p*r]
    cols, rows = np.divmod(np.arange(p * p), p)
    return cols + p * rows


def commutation_matrix(p: int) -> np.ndarray:
    """Permutation matrix K with ``K @ vec(A) == vec(A.T)`` for p x p A."""
    idx = commutation_indices(p)
    k = np.zeros((p * p, p * p))
    k[np.arange(p * p), idx] = 1.0
    return k


def diagonal_indices(p: int) -> np.ndarray:
    """Positions of the diagonal entries of a p x p matrix inside vec."""
    p = _check_dimension(p)
    return np.arange(p) * (p + 1)


def diagonalization_matrix(p: int) -> np.ndarray:
    """Projector D with ``D @ vec(A) == vec(dg(A))`` (off-diagonal zeroed)."""
    d = np.zeros((p * p, p * p))
    idx = diagonal_indices(p)
    d[idx, idx] = 1.0
    return d


def selector_matrix(p: int) -> np.ndarray:
    """p^2 x p matrix whose i-th column is ``e_i (x) e_i``."""
    j = np.zeros((p * p, p))
    j[diagonal_indices(p), np.arange(p)] = 1.0
    return j


def normalization_jacobian(suite: CovarianceSuite, transpose: bool = False) -> np.ndarray:
    """Jacobian J of the unit-diagonal normalization map at the suite's
    precision, d vec(normalized) = J d vec(precision), or J.T: the diagonal
    ``d (x) d`` (d = diag(precision)^-1/2) with the curvature term in the
    diagonal-position columns, built column by column."""
    p = suite.p
    pd = suite.precision_diag
    inv_sqrt = 1.0 / np.sqrt(pd)
    scaled = suite.normalized_precision * (1.0 / pd)[None, :]
    m = np.zeros((p * p, p))
    for i in range(p):
        m[i * p : (i + 1) * p, i] = scaled[:, i]
    m = m + m[commutation_indices(p), :]
    jac = np.diag(np.kron(inv_sqrt, inv_sqrt))
    jac[:, diagonal_indices(p)] -= 0.5 * m
    return jac.T if transpose else jac


def normalization_propagator(suite: CovarianceSuite, form: str) -> np.ndarray:
    """Delta-method factor G mapping covariance uncertainty to the
    normalized precision: ``Cov(vec of normalized precision) ~ G.T V G``.

    With ``form="exact"``, G solves ``(S (x) S) G = J.T`` where J is the
    Jacobian of the normalization map; it enters the sandwich
    transposed because the covariance propagates as ``J_total V J_total.T``
    and the inverse-map Jacobian ``-(S (x) S)^{-1}`` is symmetric with a sign
    that cancels, so ``-G.T`` is the derivative of the map covariance ->
    normalized precision. ``form="conservative"`` solves against J
    untransposed, at the correlation scale; it is not that derivative (see
    ``PROPAGATOR_FORMS``). Both forms coincide at a diagonal covariance.
    The matching V is ``propagation_vec_cov``.

    This is the oracle of ``build_asymptotics``, which builds G in place in
    the inverse of the same factor, from the sparse parts of the same
    Jacobian. It has no default form; its callers name one.
    """
    _check_dimension(suite.p)
    work = _form_suite(suite, check_form(form))
    factor = _factor_kron(work)
    rhs = normalization_jacobian(work, transpose=form == "exact")
    g = cho_solve(factor, rhs, overwrite_b=True, check_finite=False)
    if form == "exact":
        # the plug-in S / 4**k gives 4**k G, exactly
        np.ldexp(g, -2 * _exact_scale_exponent(suite), out=g)
    return g


def gaussian_vec_cov(sigma: np.ndarray) -> np.ndarray:
    """Asymptotic covariance of the vectorized sample covariance, Gaussian
    case: ``(I + K)(S (x) S)``. Symmetric, and commutes with K."""
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    s2 = np.kron(sigma, sigma)
    v = s2 + s2[commutation_indices(p), :]
    return 0.5 * (v + v.T)


def propagation_vec_cov(suite: CovarianceSuite, form: str = "exact") -> np.ndarray:
    """The vec-covariance plug-in matching ``normalization_propagator``:
    ``V`` at the suite's covariance for the exact form (default), at the
    correlation scale for the conservative form."""
    check_form(form)
    if form == "exact":
        return gaussian_vec_cov(suite.covariance)
    return gaussian_vec_cov(_form_suite(suite, form).covariance)


def normalized_precision_cov(
    suite: CovarianceSuite, n: int, divisor: str = "nminusp", form: str = "exact"
) -> np.ndarray:
    """Plug-in covariance of the vectorized normalized precision,
    ``G.T V G / (n - p)`` by default."""
    div = divisor_value(n, suite.p, divisor)
    g = normalization_propagator(suite, form)
    s = g.T @ propagation_vec_cov(suite, form) @ g / div
    return 0.5 * (s + s.T)


def eigenvalue_gradients(eig: EigenSystem) -> np.ndarray:
    """p^2 x p matrix whose i-th column, ``w_i (x) w_i``, is the gradient of
    the i-th eigenvalue with respect to the vectorized matrix."""
    p = eig.p
    grads = np.empty((p * p, p))
    for i in range(p):
        grads[:, i] = np.kron(eig.vectors[:, i], eig.vectors[:, i])
    return grads


def eigenvalue_cov(
    suite: CovarianceSuite,
    eig: EigenSystem,
    n: int,
    divisor: str = "nminusp",
    form: str = "exact",
) -> np.ndarray:
    """Plug-in covariance of the normalized-precision eigenvalues: the
    projection of ``normalized_precision_cov`` of the same form onto the
    eigenvalue gradients."""
    cov = normalized_precision_cov(suite, n, divisor, form)
    grads = eigenvalue_gradients(eig)
    out = grads.T @ cov @ grads
    return 0.5 * (out + out.T)


def bias_term(
    eig: EigenSystem,
    cov: np.ndarray,
    target_index: int = 1,
    gap_tolerance: float | None = None,
) -> tuple[float, bool]:
    """Second-order bias of the ``target_index``-th (1-based) eigenvalue,
    from the dense plug-in covariance ``cov`` of the vectorized matrix.

    Returns ``(value, gap_warning)``; the warning is set when any pairwise
    gap fell below the tolerance and that term was skipped. For the top
    eigenvalue every kept denominator is positive, so the value is
    non-negative whenever ``cov`` is positive semi-definite.
    """
    p = eig.p
    if not 1 <= target_index <= p:
        raise InputError(f"target index must be in [1, {p}], got {target_index}")
    i = target_index - 1
    w_i = eig.vectors[:, i]
    cross = []
    for j in range(p):
        if j != i:
            w = np.kron(eig.vectors[:, j], w_i)
            cross.append(float(w @ (cov @ w)))
    return _gap_weighted_sum(eig, cross, target_index, gap_tolerance)


def gaussian_mutual_information(r: float) -> float:
    """Mutual information of a bivariate Gaussian with correlation r, with
    r^2 capped below 1 as in the tree fit's batched weights."""
    r2 = min(float(r) * float(r), _R_SQUARED_CAP)
    return -0.5 * float(np.log1p(-r2))


def mutual_information_matrix(values: np.ndarray) -> np.ndarray:
    """Pairwise mutual-information weights of the columns of ``values``, as
    ``chow_liu`` computes them."""
    return _mi_from_centered(*_centered_and_std(values))


def float_csv(path) -> Dataset:
    """``read_csv`` as a loop of ``float()`` calls over ``csv.reader``
    records, with the same errors, rows and columns."""
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
            rows = []
            for lineno, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != len(names):
                    raise CsvParseError(
                        f"expected {len(names)} fields, got {len(record)}", row=lineno
                    )
                parsed = []
                for colno, cell in enumerate(record, start=1):
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise CsvParseError(
                            f"cannot parse {cell!r} as a number", row=lineno, column=colno
                        ) from None
                rows.append(parsed)
    except UnicodeDecodeError as err:
        raise CsvParseError(f"file is not UTF-8 text: {err.reason}") from None
    except csv.Error as err:
        raise CsvParseError(str(err), row=reader.line_num) from None
    if not rows:
        raise CsvParseError("no data rows after the header")
    return Dataset(values=np.array(rows, dtype=float), variable_names=names)
