"""Second-order perturbation correction for eigenvalues of the normalized
precision, and the combined shrinkage-plus-correction estimator.

The sample top eigenvalue is biased upward by roughly
``sum_j (w_j (x) w_i).T C (w_j (x) w_i) / (lambda_i - lambda_j)`` where C is
the plug-in covariance of the vectorized matrix; subtracting the plug-in sum
removes the second-order bias. Terms whose eigenvalue gap falls below a
tolerance are skipped and flagged instead of amplifying noise; that rule
lives in ``_gap_weighted_sum``.

The test path never forms C: ``corrected_top_eigenvalue`` takes the
numerators from ``AsymptoticScalars.cross_terms``. Its oracle, the bias
term of any target eigenvalue from a dense C, is ``bias_term`` in
``tests/oracles.py``, which shares ``_gap_weighted_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticScalars
from .errors import InputError
from .kernels import EigenSystem
from .shrinkage import ShrinkageEstimate


def default_gap_tolerance(p: int) -> float:
    return 1e-6 * p


def check_gap_tolerance(gap_tolerance: float | None) -> None:
    """Refuse a gap tolerance that is not finite and non-negative (``None``
    stands for ``default_gap_tolerance``)."""
    if gap_tolerance is not None and not 0.0 <= gap_tolerance < np.inf:
        raise InputError(f"gap tolerance must be finite and >= 0, got {gap_tolerance}")


def _gap_weighted_sum(
    eig: EigenSystem,
    cross_terms: np.ndarray | list[float],
    target_index: int,
    gap_tolerance: float | None,
) -> tuple[float, bool]:
    """``sum_j cross_terms[j] / (lambda_i - lambda_j)`` over j != i in
    increasing order, i the 1-based ``target_index``; ``cross_terms`` holds
    the p - 1 quadratic forms ``(w_j (x) w_i).T C (w_j (x) w_i)`` in that
    order. Terms whose gap is below the tolerance are skipped, and the
    returned flag says whether any was. The tolerance must be finite and
    non-negative; ``None`` takes ``default_gap_tolerance``.
    """
    p = eig.p
    check_gap_tolerance(gap_tolerance)
    if gap_tolerance is None:
        gap_tolerance = default_gap_tolerance(p)
    i = target_index - 1
    total = 0.0
    warned = False
    others = (j for j in range(p) if j != i)
    for j, form in zip(others, cross_terms):
        gap = eig.values[i] - eig.values[j]
        if abs(gap) < gap_tolerance:
            warned = True
            continue
        total += float(form) / gap
    return total, warned


@dataclass(frozen=True)
class CorrectedEigenvalue:
    """Bias term and the two corrected forms of one eigenvalue.

    ``corrected_shrunk`` always equals
    ``(1 - rho) * corrected + rho`` (affine consistency).
    """

    target_index: int
    bias: float
    corrected: float
    corrected_shrunk: float
    gap_warning: bool


def corrected_top_eigenvalue(
    eig: EigenSystem,
    shrinkage_est: ShrinkageEstimate,
    asym: AsymptoticScalars,
    gap_tolerance: float | None = None,
) -> CorrectedEigenvalue:
    """Combine the shrunk top eigenvalue with its second-order correction,
    whose numerators are ``asym.cross_terms``.
    """
    if eig.p < 2:
        raise InputError("correction needs p >= 2 (no cross terms exist at p = 1)")
    bias, warned = _gap_weighted_sum(eig, asym.cross_terms, 1, gap_tolerance)
    rho = shrinkage_est.intensity
    lam = float(eig.values[0])
    lam_shrunk = float(shrinkage_est.shrunk_eigenvalues[0])
    return CorrectedEigenvalue(
        target_index=1,
        bias=bias,
        corrected=lam - bias,
        corrected_shrunk=lam_shrunk - (1.0 - rho) * bias,
        gap_warning=warned,
    )
