"""The max-in-degree hypothesis test.

Null: the top eigenvalue of the normalized precision is at most 2, which
holds whenever the network's moral graph is a tree or forest (max in-degree
at most 1). The statistic ``t = (corrected top eigenvalue - 2) / sigma`` is
referred to a Student t distribution with n - p degrees of freedom; the test
is one-sided (reject for large t). Failing to reject never certifies a tree:
networks with non-tree moral graphs can still satisfy the null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, stdtrit

from .asymptotics import build_asymptotics, check_divisor_mode, check_form
from .correction import check_gap_tolerance, corrected_top_eigenvalue
from .covariance import Dataset, build_suite, normalized_precision_eigen
from .errors import DegenerateVarianceError, InputError
from .records import Record
from .shrinkage import shrink


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


def check_test_options(alpha: float, divisor: str, form: str) -> None:
    """Refuse a test level outside (0, 1), or a divisor mode or propagation
    form the asymptotics do not know, before any work is done."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
    check_divisor_mode(divisor)
    check_form(form)


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
    divisor: str = "nminusp",
    gap_tolerance: float | None = None,
    form: str = "conservative",
) -> SparsityTestResult:
    """Run the full pipeline on a dataset and test the max-in-degree null.

    ``divisor`` switches the plug-in covariance denominator between n - p
    (default) and n; ``gap_tolerance`` passes through to the bias
    correction; ``form`` selects the covariance propagation factor (the
    "conservative" default shrinks harder and holds the nominal level when
    n is close to p; "exact" is the delta-method-exact covariance, which is
    anticonservative in that regime). Deterministic given the data.
    """
    check_test_options(alpha, divisor, form)
    if data.p < 2:
        raise InputError(f"test needs p >= 2 variables, got p={data.p}")
    check_gap_tolerance(gap_tolerance)
    suite = build_suite(data)
    eig = normalized_precision_eigen(suite)
    asym = build_asymptotics(suite, eig, data.n, divisor, form)
    shrunk = shrink(eig, asym)
    corrected = corrected_top_eigenvalue(eig, shrunk, asym, gap_tolerance)
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
