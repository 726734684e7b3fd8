"""Stein-type shrinkage of the normalized precision toward the identity.

The intensity minimizing the expected scaled Frobenius loss is estimable as
``tr C / (tr C + sum(lambda^2) - p)``, where C is the plug-in covariance of
the vectorized normalized precision; ``build_asymptotics`` computes its
trace without forming C (``AsymptoticScalars.cov_trace``). Shrinking the
matrix shrinks its eigenvalues by the same affine map and keeps the
eigenvectors, so only the shrunk eigenvalues are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticScalars
from .errors import InputError
from .kernels import EigenSystem

# Floating-point noise can push the mathematically-(0, 1] intensity
# infinitesimally outside; clamping keeps downstream formulas finite.
INTENSITY_FLOOR = 1e-12


def shrinkage_intensity(cov_trace: float, eigenvalues: np.ndarray) -> float:
    """Optimal identity-target shrinkage weight, clamped into (0, 1].

    ``eigenvalues`` must come from a unit-diagonal matrix (sum to p within
    1e-6). Equals 1 exactly when the eigenvalues are all 1; a zero trace
    clamps to the floor (effectively no shrinkage).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    p = lam.size
    if abs(float(lam.sum()) - p) > 1e-6:
        raise InputError(
            f"eigenvalues must sum to p={p} (unit-diagonal source), got {lam.sum()!r}"
        )
    cov_trace = float(cov_trace)
    if cov_trace < 0:
        raise InputError(f"covariance trace must be non-negative, got {cov_trace!r}")
    spread = float(np.sum(lam * lam)) - p
    denominator = cov_trace + spread
    if denominator <= 0.0:
        # Both terms are non-negative up to rounding; this is the identity
        # limit where any intensity gives the same matrix.
        return 1.0
    return float(min(max(cov_trace / denominator, INTENSITY_FLOOR), 1.0))


@dataclass(frozen=True)
class ShrinkageEstimate:
    """Shrinkage intensity and the shrunk eigenvalues."""

    intensity: float
    shrunk_eigenvalues: np.ndarray


def shrink(eig: EigenSystem, asym: AsymptoticScalars) -> ShrinkageEstimate:
    """Shrink the normalized precision toward the identity:
    ``(1 - rho) * R + rho * I``, with rho from ``asym.cov_trace``.

    Only the eigenvalues are returned. They are ``(1 - rho) * lambda + rho``
    with the same eigenvectors; their sum stays p and their ordering is
    preserved.
    """
    rho = shrinkage_intensity(asym.cov_trace, eig.values)
    return ShrinkageEstimate(intensity=rho, shrunk_eigenvalues=(1.0 - rho) * eig.values + rho)
