"""The test's plug-in scalars from the asymptotic covariance of the
normalized precision, under Gaussian sampling.

The chain is: the vectorized sample covariance has asymptotic covariance
``V = (I + K)(S (x) S)``; the delta method carries it through matrix
inversion and diagonal normalization via a propagation factor ``G`` so that
``Cov(vec of normalized precision) ~ C = G.T V G / divisor``.

The test needs only a few numbers from C: its trace, the variance of the
top eigenvalue and p - 1 quadratic forms for the bias term.
``build_asymptotics`` computes G by the dense Cholesky solve and then those
numbers from p x p products (``_vec_cov_forms``), never forming V, V G or
C. The dense V, C and eigenvalue covariance are its oracles, in
``tests/oracles.py``.

``normalization_propagator`` has no default form. The test pipeline
(``build_asymptotics`` and its callers) defaults to ``form="conservative"``,
whose C is not the covariance named above; see ``PROPAGATOR_FORMS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .covariance import CovarianceSuite
from .errors import InputError, InsufficientSampleError, SingularityError
from .kernels import EigenSystem, _check_dimension, commutation_indices

# The first entry of DIVISOR_MODES and of PROPAGATOR_FORMS is the test
# pipeline's default.
DIVISOR_MODES = ("nminusp", "n")

# Propagation-factor forms. "exact" is the true gradient-layout
# delta-method factor (finite-difference validated), giving the actual
# asymptotic covariance of the vectorized normalized precision.
# "conservative" (the test pipeline's default) applies the
# normalization-map Jacobian untransposed, with every plug-in slot evaluated
# at the sample correlation matrix so the result is invariant to column
# rescaling. It is not Cov(vec of normalized precision) and does not
# converge to it: it puts sampling variance on the unit diagonal, which
# cannot vary, and over-weights the normalization curvature, inflating the
# covariance trace and with it the shrinkage intensity. That inflation
# cancels the positive small-sample bias of the top sample eigenvalue and
# holds the test's nominal level when n is close to p, where the exact form
# over-rejects.
PROPAGATOR_FORMS = ("conservative", "exact")


def _check_form(form: str) -> str:
    if form not in PROPAGATOR_FORMS:
        raise InputError(f"form must be one of {PROPAGATOR_FORMS}, got {form!r}")
    return form


def _form_suite(suite: CovarianceSuite, form: str) -> CovarianceSuite:
    """Plug-in suite for the chosen form.

    The conservative composition is not scale-equivariant, so its plug-ins
    are taken at the correlation scale (the normalized precision itself is
    unchanged). The exact form is scale-invariant and uses the suite as is.
    """
    if form == "exact":
        return suite
    scale = np.sqrt(np.diag(suite.covariance))
    inv = 1.0 / scale
    return CovarianceSuite(
        covariance=suite.covariance * np.outer(inv, inv),
        precision=suite.precision * np.outer(scale, scale),
        precision_diag=suite.precision_diag * scale * scale,
        normalized_precision=suite.normalized_precision,
    )


def divisor_value(n: int, p: int, mode: str = "nminusp") -> int:
    """Degrees-of-freedom divisor: n - p (default, conservative) or n."""
    if mode not in DIVISOR_MODES:
        raise InputError(f"divisor mode must be one of {DIVISOR_MODES}, got {mode!r}")
    if n <= p:
        raise InsufficientSampleError(
            f"need more samples than variables, got n={n}, p={p}"
        )
    return n - p if mode == "nminusp" else n


def _normalization_jacobian(suite: CovarianceSuite, transpose: bool = False) -> np.ndarray:
    """Standard Jacobian of the unit-diagonal normalization map at the
    sample precision: d vec(normalized) = J d vec(precision). With
    ``transpose``, J.T, built in C order."""
    p = suite.p
    pd = suite.precision_diag
    inv_sqrt = 1.0 / np.sqrt(pd)
    scaled = suite.normalized_precision * (1.0 / pd)[None, :]
    # (I (x) scaled) D, and with it the curvature term, is nonzero only in
    # the diagonal-position columns, so it is built as their p^2 x p block.
    diag_cols = np.arange(p) * (p + 1)
    m = np.zeros((p * p, p))
    for i in range(p):
        m[i * p : (i + 1) * p, i] = scaled[:, i]
    m = m + m[commutation_indices(p), :]
    jac = np.diag(np.kron(inv_sqrt, inv_sqrt))
    if transpose:
        jac[diag_cols, :] = jac[diag_cols, :] - 0.5 * m.T
    else:
        jac[:, diag_cols] = jac[:, diag_cols] - 0.5 * m
    return jac


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
    The matching V is taken at the same form's plug-in covariance
    (``_form_suite``).
    """
    # refuse p over the cap before S (x) S (p^4 doubles) is built
    _check_dimension(suite.p)
    _check_form(form)
    work = _form_suite(suite, form)
    # the largest entry of S (x) S is the square of S's largest entry
    largest = float(np.abs(work.covariance).max())
    if not np.isfinite(largest * largest):
        raise InputError("data too large: S (x) S overflows double precision")
    # Factor and solve in place: LAPACK works on Fortran-ordered arrays, and
    # kron(S.T, S.T).T holds the products of kron(S, S) in that order. The
    # right-hand side J.T (exact) or J (conservative) is the transpose of a
    # C-ordered J or J.T. Two p^4 arrays are alive at a time rather than
    # three (at p = 60, peak RSS 387 -> 287 MB), with the same bits.
    sigma_t = work.covariance.T
    try:
        factor = cho_factor(np.kron(sigma_t, sigma_t).T, lower=True, overwrite_a=True)
    except LinAlgError:
        raise SingularityError("S (x) S is not positive definite") from None
    rhs = _normalization_jacobian(work, transpose=form == "conservative").T
    return cho_solve(factor, rhs, overwrite_b=True)


# The trace takes G's columns in batches of about 2**16 entries (512 KB),
# which keeps the temporaries in cache: at p = 60 this was 2x faster than
# one batch of all p^2 columns.
_TRACE_BATCH_ENTRIES = 1 << 16


def _vec_cov_forms(sigma: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``u.T @ V @ u`` for each column u of ``cols``, with
    ``V = (I + K)(S (x) S)`` at ``S = sigma``, from p x p products instead of
    the p^2 x p^2 matrix.

    With U the p x p matrix whose vec is u and Y = U + U.T, ``(I + K)(S (x) S) u = vec(S Y S)``,
    so the form is ``tr(U.T S Y S) = tr(Y S Y S) / 2``, and ``Y S`` is one
    row-stacked product for the whole batch. The vec order does not matter:
    both sides are invariant under U -> U.T.
    """
    p = sigma.shape[0]
    y = cols.T.reshape(-1, p, p)
    y = y + y.transpose(0, 2, 1)
    ys = (y.reshape(-1, p) @ sigma).reshape(-1, p, p)
    return 0.5 * np.einsum("kij,kji->k", ys, ys)


@dataclass(frozen=True)
class AsymptoticScalars:
    """The numbers the test uses from the plug-in covariance
    ``C = G.T V G / divisor`` of the vectorized normalized precision.

    ``cov_trace`` is tr C (shrinkage intensity), ``top_variance`` is
    ``(w_1 (x) w_1).T C (w_1 (x) w_1)``, the plug-in variance of the top
    eigenvalue, and ``cross_terms[j - 2]`` is ``(w_j (x) w_1).T C
    (w_j (x) w_1)`` for j = 2..p, the numerators of the top eigenvalue's
    bias term.
    """

    cov_trace: float
    top_variance: float
    cross_terms: np.ndarray
    divisor: int


def build_asymptotics(
    suite: CovarianceSuite,
    eig: EigenSystem,
    n: int,
    divisor: str = "nminusp",
    form: str = "conservative",
) -> AsymptoticScalars:
    """The test's plug-in scalars, without forming C or V.

    G comes from ``normalization_propagator`` (a dense Cholesky solve
    against ``S (x) S``). Each needed quadratic form of C is a form of V at
    a column of G, or at G applied to an eigenvector product, which
    ``_vec_cov_forms`` reduces to p x p products.

    This is the test pipeline's entry point, so ``form`` defaults to
    "conservative", the first of ``PROPAGATOR_FORMS``.
    """
    div = divisor_value(n, suite.p, divisor)
    g = normalization_propagator(suite, form)
    sigma = _form_suite(suite, form).covariance
    p2 = g.shape[1]
    batch = max(1, _TRACE_BATCH_ENTRIES // p2)
    trace = sum(
        float(_vec_cov_forms(sigma, g[:, k : k + batch]).sum())
        for k in range(0, p2, batch)
    )
    # column j is w_j (x) w_1
    directions = np.kron(eig.vectors, eig.vectors[:, :1])
    forms = _vec_cov_forms(sigma, g @ directions) / div
    return AsymptoticScalars(
        cov_trace=trace / div,
        top_variance=float(forms[0]),
        cross_terms=forms[1:],
        divisor=div,
    )
