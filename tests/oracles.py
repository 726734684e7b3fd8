"""Dense oracles for the test path.

The test uses a handful of scalars: the trace of the plug-in covariance C
of the vectorized normalized precision, the variance of the top eigenvalue
and p - 1 quadratic forms for the bias term. ``build_asymptotics`` computes
them without forming C. This module builds the p^2 x p^2 objects they come
from, so the tests and acceptance criteria can check the scalars against
them: the vec and commutation identities, ``V = (I + K)(S (x) S)``,
``C = G.T V G / divisor``, the eigenvalue covariance and the dense bias term.

All vectorized objects use column-major stacking, so that
``vec(A @ B @ C) == np.kron(C.T, A) @ vec(B)`` holds. The delta-method
functions default to ``form="exact"``, the covariance their names promise;
``form="conservative"`` gives the test pipeline's inflated matrix, which is
not that covariance (see ``bnsparsity.asymptotics.PROPAGATOR_FORMS``).
"""

from __future__ import annotations

import numpy as np

from bnsparsity.asymptotics import (
    _check_form,
    _form_suite,
    divisor_value,
    normalization_propagator,
)
from bnsparsity.correction import _gap_weighted_sum
from bnsparsity.covariance import CovarianceSuite
from bnsparsity.errors import InputError
from bnsparsity.kernels import EigenSystem, _check_dimension, commutation_indices
from bnsparsity.trees import _R_SQUARED_CAP


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of ``a`` into one vector (column-major)."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


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
    _check_form(form)
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
