"""The max-in-degree hypothesis test and its statistic.

Null: the top eigenvalue of the normalized precision R is at most 2, which
holds whenever the network's moral graph is a tree or forest (max in-degree
at most 1). Failing to reject never certifies a tree: networks with
non-tree moral graphs can still satisfy the null.

The statistic takes R's eigenvalues lambda_1 >= ... >= lambda_p, its
eigenvectors w_j, and from ``build_asymptotics`` tr C, Var lambda_1 and the
forms q_j = (w_j (x) w_1).T C (w_j (x) w_1), C being the plug-in covariance
of vec R. Two stages:

- Shrinkage toward the identity with intensity
  rho = tr C / (tr C + sum_j lambda_j^2 - p), clamped into (0, 1]. The map
  x -> (1 - rho) x + rho shrinks R and each eigenvalue alike (``shrink``).
- Second-order bias correction: lambda_1 is biased upward by about
  c = sum_{j > 1} q_j / (lambda_1 - lambda_j). Terms with a gap below
  1e-6 p are skipped and flagged instead of amplifying noise
  (``corrected_top_eigenvalue``).

Then t = ((1 - rho)(lambda_1 - c) + rho - 2) / ((1 - rho) sqrt(Var
lambda_1)) is referred to a Student t distribution with n - p degrees of
freedom, the divisor of C; the test is one-sided (reject for large t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, stdtrit

from .asymptotics import AsymptoticScalars, build_asymptotics, check_form
from .covariance import Dataset, EigenSystem, build_suite, normalized_precision_eigen
from .errors import DegenerateVarianceError, InputError, check_alpha
from .records import Record

# Floating-point noise can push the mathematically-(0, 1] intensity
# infinitesimally outside; clamping keeps downstream formulas finite.
INTENSITY_FLOOR = 1e-12
# A bias term whose eigenvalue gap is below this times p is skipped.
_GAP_TOLERANCE_PER_VARIABLE = 1e-6


def student_t_sf(t: float, df: int) -> float:
    """Upper-tail probability P(T > t) for Student t with ``df`` degrees of
    freedom, via the regularized incomplete beta function."""
    df = int(df)
    if df < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {df}")
    t = float(t)
    if np.isnan(t):
        raise InputError("t statistic is NaN")
    if np.isinf(t):
        return 0.0 if t > 0 else 1.0
    tt = t * t
    if tt >= df:
        tail = 0.5 * float(betainc(0.5 * df, 0.5, df / (df + tt)))
    else:
        # complementary argument t^2/(df + t^2) avoids the precision
        # plateau of df/(df + t^2) rounding to 1 near t = 0
        tail = 0.5 * (1.0 - float(betainc(0.5, 0.5 * df, tt / (df + tt))))
    return tail if t >= 0.0 else 1.0 - tail


def student_t_quantile(prob: float, df: int) -> float:
    """Quantile of Student t with ``df`` degrees of freedom (``stdtrit``)."""
    if not 0.0 < prob < 1.0:
        raise InputError(f"quantile probability must be in (0, 1), got {prob}")
    df = int(df)
    if df < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {df}")
    return float(stdtrit(df, prob))


def check_test_options(alpha: float, form: str) -> None:
    """Refuse a test level outside (0, 1), or a propagation form the
    asymptotics do not know, before any work is done."""
    check_alpha(alpha)
    check_form(form)


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
    """Shrink the normalized precision toward the identity, with rho from
    ``asym.cov_trace``. Only the eigenvalues are returned; their sum stays p
    and their ordering is preserved.
    """
    rho = shrinkage_intensity(asym.cov_trace, eig.values)
    return ShrinkageEstimate(intensity=rho, shrunk_eigenvalues=(1.0 - rho) * eig.values + rho)


@dataclass(frozen=True)
class CorrectedEigenvalue:
    """Bias term and the two corrected forms of the top eigenvalue.

    ``corrected_shrunk`` always equals
    ``(1 - rho) * corrected + rho`` (affine consistency).
    """

    bias: float
    corrected: float
    corrected_shrunk: float
    gap_warning: bool


def corrected_top_eigenvalue(
    eig: EigenSystem,
    shrinkage_est: ShrinkageEstimate,
    asym: AsymptoticScalars,
) -> CorrectedEigenvalue:
    """Combine the shrunk top eigenvalue with its second-order correction
    c = sum_{j > 1} q_j / (lambda_1 - lambda_j), whose numerators q_j are
    ``asym.cross_terms``. A term whose gap is below 1e-6 p is skipped, and
    ``gap_warning`` says whether any was.
    """
    if eig.p < 2:
        raise InputError("correction needs p >= 2 (no cross terms exist at p = 1)")
    tolerance = _GAP_TOLERANCE_PER_VARIABLE * eig.p
    bias = 0.0
    warned = False
    for lam_j, form in zip(eig.values[1:], asym.cross_terms):
        gap = eig.values[0] - lam_j
        if abs(gap) < tolerance:
            warned = True
            continue
        bias += float(form) / gap
    rho = shrinkage_est.intensity
    lam = float(eig.values[0])
    lam_shrunk = float(shrinkage_est.shrunk_eigenvalues[0])
    return CorrectedEigenvalue(
        bias=bias,
        corrected=lam - bias,
        corrected_shrunk=lam_shrunk - (1.0 - rho) * bias,
        gap_warning=warned,
    )


@dataclass(frozen=True)
class SparsityTestResult(Record):
    """Everything the test computed, in the stable JSON field order."""

    lambda1_cstar: float
    lambda1_sample: float
    rho_hat: float
    c_hat: float
    sigma_hat: float
    t_stat: float
    df: int
    p_value: float
    alpha: float
    reject: bool
    gap_warning: bool
    n: int
    p: int


def max_parents_test(
    data: Dataset,
    alpha: float = 0.05,
    *,
    form: str = "conservative",
) -> SparsityTestResult:
    """Run the full pipeline on a dataset and test the max-in-degree null.

    The plug-in covariances are divided by n - p, bias terms at eigenvalue
    gaps below 1e-6 p are skipped (``gap_warning``), and t has n - p
    degrees of freedom. ``form`` selects the covariance propagation factor
    (the "conservative" default shrinks harder and holds the nominal level
    when n is close to p; "exact" is the delta-method-exact covariance,
    which is anticonservative in that regime). Deterministic given the
    data.
    """
    check_test_options(alpha, form)
    if data.p < 2:
        raise InputError(f"test needs p >= 2 variables, got p={data.p}")
    suite = build_suite(data)
    eig = normalized_precision_eigen(suite)
    asym = build_asymptotics(suite, eig, data.n, form)
    shrunk = shrink(eig, asym)
    corrected = corrected_top_eigenvalue(eig, shrunk, asym)
    top_var = asym.top_variance
    sigma = (1.0 - shrunk.intensity) * float(np.sqrt(max(top_var, 0.0)))
    if sigma <= 0.0:
        raise DegenerateVarianceError(
            "estimated variance of the corrected eigenvalue is zero"
        )
    df = data.n - data.p
    t_stat = (corrected.corrected_shrunk - 2.0) / sigma
    p_value = student_t_sf(t_stat, df)
    return SparsityTestResult(
        lambda1_cstar=float(corrected.corrected_shrunk),
        lambda1_sample=float(eig.values[0]),
        rho_hat=float(shrunk.intensity),
        c_hat=float(corrected.bias),
        sigma_hat=float(sigma),
        t_stat=float(t_stat),
        df=df,
        p_value=float(p_value),
        alpha=float(alpha),
        reject=bool(p_value < alpha),
        gap_warning=bool(corrected.gap_warning),
        n=data.n,
        p=data.p,
    )
