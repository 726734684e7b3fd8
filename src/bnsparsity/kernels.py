"""The symmetric eigensolver (LAPACK, with a fixed order and sign rule) and
the commutation permutation with its dimension cap.

Matrices are plain 2-D float64 numpy arrays. All vectorized (p^2-dimensional)
objects in this package use column-major stacking: ``vec(A)`` stacks the
columns of A, and the commutation matrix K maps ``vec(A)`` to ``vec(A.T)``.
The dense vec, K, D and selector matrices are test oracles
(``tests/oracles.py``); the test path applies K as a row permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError

# The asymptotics factor the p^2 x p^2 matrix S (x) S densely, one p^4
# array (2.1 GB at this cap) next to a 16 MB block of G's columns; the
# dimension is capped here.
MAX_DIMENSION = 128


def _check_dimension(p: int) -> int:
    p = int(p)
    if p < 1:
        raise InputError(f"dimension must be >= 1, got {p}")
    if p > MAX_DIMENSION:
        raise InputError(
            f"dimension {p} exceeds the dense-construction cap {MAX_DIMENSION}"
        )
    return p


def commutation_indices(p: int) -> np.ndarray:
    """Row permutation ``idx`` with ``K @ v == v[idx]`` for the p^2 x p^2
    commutation matrix K.

    Lets callers apply K to large matrices without a p^2 x p^2 product:
    ``K @ M == M[idx]`` and ``M @ K == M[:, idx]``.
    """
    p = _check_dimension(p)
    # position r + p*c of vec(A.T) holds A[c, r] = vec(A)[c + p*r]
    cols, rows = np.divmod(np.arange(p * p), p)
    return cols + p * rows


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
