"""The symmetric eigensolver: LAPACK, with a fixed order and sign rule.

Matrices are plain 2-D float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError


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
