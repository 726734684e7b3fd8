"""The test's plug-in scalars from the asymptotic covariance of the
normalized precision, under Gaussian sampling.

The chain is: the vectorized sample covariance has asymptotic covariance
``V = (I + K)(S (x) S)``; the delta method carries it through matrix
inversion and diagonal normalization via a propagation factor ``G`` so that
``Cov(vec of normalized precision) ~ C = G.T V G / (n - p)``. Vectorization
stacks columns: ``vec(A)`` holds ``A[b, a]`` at position ``a p + b``, and K
maps ``vec(A)`` to ``vec(A.T)``.

The test needs only a few numbers from C: its trace, the variance of the
top eigenvalue and p - 1 quadratic forms for the bias term.
``build_asymptotics`` factors S (x) S and inverts it from the factor, in
one p^4 array (2.1 GB at the p = 128 cap), builds G in that same array from
the sparse Jacobian of the normalization map, and takes those numbers from
G with p x p products (``_vec_cov_forms``), never forming V, V G or C. G
solved for with ``cho_solve``, dense V, C and the eigenvalue covariance are
the oracles, in ``tests/oracles.py``.

The test pipeline (``build_asymptotics`` and its callers) defaults to
``form="conservative"``, whose C is not the covariance named above; see
``PROPAGATOR_FORMS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotri

from .covariance import CovarianceSuite, EigenSystem
from .errors import InputError, InsufficientSampleError, SingularityError

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


def check_form(form: str) -> str:
    """``form``, or ``InputError`` if it is not one of ``PROPAGATOR_FORMS``."""
    if form not in PROPAGATOR_FORMS:
        raise InputError(f"form must be one of {PROPAGATOR_FORMS}, got {form!r}")
    return form


def _exact_scale_exponent(suite: CovarianceSuite) -> int:
    """k with the largest entry of S / 4**k in [0.5, 2)."""
    return int(np.frexp(np.abs(suite.covariance).max())[1]) // 2


def _form_suite(suite: CovarianceSuite, form: str) -> CovarianceSuite:
    """Plug-in suite for the chosen form.

    The conservative composition is not scale-equivariant, so its plug-ins
    are taken at the correlation scale (the normalized precision itself is
    unchanged). The exact form is scale-invariant; its covariance is divided
    by 4**k, and its precision and diagonal multiplied by 4**k, with k chosen
    so that the largest entry of S is in [0.5, 2). A power of four changes
    no rounding, square roots included, so the form's scalars have the same
    bits as at the suite's own scale, and S (x) S neither overflows nor
    underflows however the data is scaled.
    """
    if form == "exact":
        k = _exact_scale_exponent(suite)
        return CovarianceSuite(
            covariance=np.ldexp(suite.covariance, -2 * k),
            precision=np.ldexp(suite.precision, 2 * k),
            precision_diag=np.ldexp(suite.precision_diag, 2 * k),
            normalized_precision=suite.normalized_precision,
        )
    scale = np.sqrt(np.diag(suite.covariance))
    inv = 1.0 / scale
    return CovarianceSuite(
        covariance=suite.covariance * np.outer(inv, inv),
        precision=suite.precision * np.outer(scale, scale),
        precision_diag=suite.precision_diag * scale * scale,
        normalized_precision=suite.normalized_precision,
    )


def divisor_value(n: int, p: int) -> int:
    """The plug-in covariances' divisor, n - p, the degrees of freedom of
    the test's reference t distribution."""
    if n <= p:
        raise InsufficientSampleError(
            f"need more samples than variables, got n={n}, p={p}"
        )
    return n - p


# S (x) S is one dense p^4 array, 2.1 GB at this cap, which its factor, its
# inverse and G then overwrite, so larger p is refused before it is built.
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


def _factor_kron(work: CovarianceSuite):
    """``cho_factor`` of S (x) S at the plug-in covariance, built and factored
    in place in one Fortran-ordered p^2 x p^2 array.

    Its entries are finite and at most 4: the form's plug-in S is at the
    correlation scale or has its largest entry in [0.5, 2) (``_form_suite``),
    so the p^4 array is not scanned for non-finite values.
    """
    p = work.p
    s_t = work.covariance.T
    kron = np.empty((p * p, p * p), order="F")
    # kron.T is C-ordered; kron(S.T, S.T) written there is kron(S, S)
    np.multiply(s_t[:, None, :, None], s_t[None, :, None, :], out=kron.T.reshape(p, p, p, p))
    try:
        return cho_factor(kron, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError:
        raise SingularityError("S (x) S is not positive definite") from None


# The trace takes G's columns in batches of about 2**16 entries (512 KB),
# which keeps the temporaries in cache: at p = 60 this was 2x faster than
# one batch of all p^2 columns.
_TRACE_BATCH_ENTRIES = 1 << 16
# The inverse's lower triangle is copied onto its upper one in square tiles
# of this width (128 KB), so that no temporary is larger than a tile; at
# p = 60 this took 33 ms, against 44 ms with tiles of 64.
_TILE = 128


def _invert_kron(work: CovarianceSuite) -> np.ndarray:
    """(S (x) S)^-1 at the plug-in covariance, in the array of its factor:
    LAPACK's ``dpotri`` turns the Cholesky factor into the inverse's lower
    triangle in place, which is then copied onto the upper one tile by tile.
    """
    factor, _ = _factor_kron(work)
    inv, info = dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularityError("S (x) S is not positive definite")
    n = inv.shape[0]
    upper = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)
    for j in range(0, n, _TILE):
        k = min(j + _TILE, n)
        tile = inv[j:k, j:k]
        np.copyto(tile, tile.T, where=upper[: k - j, : k - j])
        for i in range(k, n, _TILE):
            inv[j:k, i : i + _TILE] = inv[i : i + _TILE, j:k].T
    return inv


def _jacobian_parts(work: CovarianceSuite) -> tuple[np.ndarray, np.ndarray]:
    """The standard Jacobian J of the unit-diagonal normalization map at the
    plug-in precision, d vec(normalized) = J d vec(precision), in two sparse
    parts: its diagonal ``d (x) d`` (d = diag(precision)^-1/2) and the p^2 x p
    matrix ``mc`` whose column i is added to J's diagonal-position column
    i (p + 1).

    Column i of ``mc`` is -m_i / 2, where m_i = vec(s_i e_i' + e_i s_i') and
    s_i is column i of the normalized precision divided by precision[i, i].
    """
    p = work.p
    pd = work.precision_diag
    inv_sqrt = 1.0 / np.sqrt(pd)
    scaled = work.normalized_precision * (1.0 / pd)[None, :]
    # m[a, b, i] is entry (b, a) of m_i, at vec position a p + b
    m = np.zeros((p, p, p))
    i = np.arange(p)
    m[i, :, i] = scaled.T
    m[:, i, i] += scaled
    return np.kron(inv_sqrt, inv_sqrt), -0.5 * m.reshape(p * p, p)


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
    ``C = G.T V G / (n - p)`` of the vectorized normalized precision.

    ``cov_trace`` is tr C (shrinkage intensity), ``top_variance`` is
    ``(w_1 (x) w_1).T C (w_1 (x) w_1)``, the plug-in variance of the top
    eigenvalue, and ``cross_terms[j - 2]`` is ``(w_j (x) w_1).T C
    (w_j (x) w_1)`` for j = 2..p, the numerators of the top eigenvalue's
    bias term.
    """

    cov_trace: float
    top_variance: float
    cross_terms: np.ndarray


def _propagator(work: CovarianceSuite, form: str) -> np.ndarray:
    """G at the plug-ins ``work``: ``(S (x) S)^-1 J.T`` (exact) or
    ``(S (x) S)^-1 J`` (conservative), with J the Jacobian of the
    normalization map; see ``PROPAGATOR_FORMS``.

    G is built in the array of the inverse from J's two sparse parts
    (``_jacobian_parts``): the curvature part, a rank-p term, is taken with
    the inverse first, then the inverse's columns are scaled by J's diagonal
    and that term is added. Besides the p^4 array only p^2 x p arrays are
    made.
    """
    p = work.p
    g = _invert_kron(work)
    diagonal, mc = _jacobian_parts(work)
    at_diagonal = np.arange(p) * (p + 1)
    if form == "exact":
        # J.T holds column i of mc in its row i (p + 1)
        inv_at_diagonal = g[:, at_diagonal]
        g *= diagonal
        # mc is C-ordered, so mc.T goes to BLAS without a copy
        return dgemm(1.0, inv_at_diagonal, mc.T, beta=1.0, c=g, overwrite_c=1)
    curvature = g @ mc
    g *= diagonal
    g[:, at_diagonal] += curvature
    return g


def _propagator_sums(suite: CovarianceSuite, form: str, vectors: np.ndarray):
    """G (``_propagator``) reduced to what the test needs: the forms of V at
    its columns summed (the trace of G.T V G) and ``G @ kron(W, w_1)``,
    whose column j is ``G (w_j (x) w_1)``, with W the eigenvectors
    ``vectors``. Also returns the form's plug-in covariance, at which V is
    taken.
    """
    # refuse p over the cap before S (x) S (p^4 doubles) is built
    p = _check_dimension(suite.p)
    work = _form_suite(suite, check_form(form))
    g = _propagator(work, form)
    sigma = work.covariance
    p2 = p * p
    batch = max(1, _TRACE_BATCH_ENTRIES // p2)
    trace = 0.0
    for k in range(0, p2, batch):
        trace += float(_vec_cov_forms(sigma, g[:, k : k + batch]).sum())
    # row a p + b of kron(W, w_1) is W[a] w_1[b]
    a, b = np.divmod(np.arange(p2), p)
    return trace, g @ (vectors[a] * vectors[b, :1]), sigma


def build_asymptotics(
    suite: CovarianceSuite,
    eig: EigenSystem,
    n: int,
    form: str = "conservative",
) -> AsymptoticScalars:
    """The test's plug-in scalars, divided by n - p, without forming C or V.

    Each needed quadratic form of C is a form of V at a column of G, or at
    G applied to an eigenvector product, which ``_vec_cov_forms`` reduces to
    p x p products. G is built in place in the inverse of ``S (x) S``,
    which LAPACK forms from its Cholesky factor (``_propagator_sums``):
    p^6 / 3 flops for the factor and 2 p^6 / 3 for the inverse, in one p^4
    array. p above ``MAX_DIMENSION`` is refused with ``InputError`` before
    S (x) S is built.

    This is the test pipeline's entry point, so ``form`` defaults to
    "conservative", the first of ``PROPAGATOR_FORMS``.
    """
    div = divisor_value(n, suite.p)
    trace, g_dirs, sigma = _propagator_sums(suite, form, eig.vectors)
    forms = _vec_cov_forms(sigma, g_dirs) / div
    return AsymptoticScalars(
        cov_trace=trace / div,
        top_variance=float(forms[0]),
        cross_terms=forms[1:],
    )
