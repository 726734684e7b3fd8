"""The test's plug-in scalars from the asymptotic covariance of the
normalized precision, under Gaussian sampling.

The chain is: the vectorized sample covariance has asymptotic covariance
``V = (I + K)(S (x) S)``; the delta method carries it through matrix
inversion and diagonal normalization via a propagation factor ``G`` so that
``Cov(vec of normalized precision) ~ C = G.T V G / divisor``.

The test needs only a few numbers from C: its trace, the variance of the
top eigenvalue and p - 1 quadratic forms for the bias term.
``build_asymptotics`` factors S (x) S (one p^4 array, 2.1 GB at the p = 128
cap), solves for G in column blocks of about 16 MB, and takes those numbers
from each block with p x p products (``_vec_cov_forms``), never forming V,
V G, C or the whole of G. ``normalization_propagator`` is the full-width G.
The dense V, C and eigenvalue covariance are the oracles, in
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
from .kernels import EigenSystem, _check_dimension

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


def divisor_value(n: int, p: int, mode: str = "nminusp") -> int:
    """Degrees-of-freedom divisor: n - p (default, conservative) or n."""
    if mode not in DIVISOR_MODES:
        raise InputError(f"divisor mode must be one of {DIVISOR_MODES}, got {mode!r}")
    if n <= p:
        raise InsufficientSampleError(
            f"need more samples than variables, got n={n}, p={p}"
        )
    return n - p if mode == "nminusp" else n


def _normalization_jacobian(
    suite: CovarianceSuite,
    transpose: bool = False,
    start: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Columns ``start, start + 1, ...`` of the standard Jacobian J of the
    unit-diagonal normalization map at the sample precision,
    d vec(normalized) = J d vec(precision), or with ``transpose`` of J.T.

    They fill ``out`` (p^2 rows, Fortran-ordered; by default a new array of
    all p^2 columns), which is returned.
    """
    p = suite.p
    if out is None:
        out = np.empty((p * p, p * p), order="F")
    cols = np.arange(start, start + out.shape[1])
    pd = suite.precision_diag
    inv_sqrt = 1.0 / np.sqrt(pd)
    scaled = suite.normalized_precision * (1.0 / pd)[None, :]
    out.fill(0.0)
    out[cols, cols - start] = np.kron(inv_sqrt, inv_sqrt)[cols]
    # J is diag(d (x) d), d = diag(precision)^-1/2, with -m_i / 2 added to
    # its diagonal-position column i (p + 1), where m_i = vec(s_i e_i' +
    # e_i s_i') and s_i is column i of scaled. The m_i have 2p^2 - p
    # nonzeros in all, listed here as (position, column, value).
    a, b = np.divmod(np.arange(p * p), p)  # vec position a p + b holds entry (b, a)
    off = a != b
    position = np.concatenate([np.arange(p * p), np.flatnonzero(off)])
    diag = np.concatenate([a, b[off]]) * (p + 1)
    m = np.concatenate([np.where(off, 1.0, 2.0) * scaled[b, a], scaled[a[off], b[off]]])
    rows, col = (diag, position) if transpose else (position, diag)
    inside = (col >= start) & (col < start + out.shape[1])
    out[rows[inside], col[inside] - start] -= 0.5 * m[inside]
    return out


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


def _propagator_columns(work: CovarianceSuite, factor, form: str, start: int, out: np.ndarray):
    """Columns ``start, start + 1, ...`` of G into ``out``, in place: the
    right-hand side J.T (exact) or J (conservative) is written there and
    solved against the factor of S (x) S."""
    _normalization_jacobian(work, transpose=form == "exact", start=start, out=out)
    return cho_solve(factor, out, overwrite_b=True, check_finite=False)


def _setup(suite: CovarianceSuite, form: str):
    """The form's plug-in suite and the factor of its S (x) S."""
    # refuse p over the cap before S (x) S (p^4 doubles) is built
    _check_dimension(suite.p)
    _check_form(form)
    work = _form_suite(suite, form)
    return work, _factor_kron(work)


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
    The matching V is taken at the suite's covariance for the exact form
    and at the correlation scale for the conservative one.

    This is the full-width oracle of ``build_asymptotics``, which streams G
    in column blocks: it holds two p^4 arrays, S (x) S's factor and G.
    """
    work, factor = _setup(suite, form)
    p2 = suite.p * suite.p
    g = _propagator_columns(work, factor, form, 0, np.empty((p2, p2), order="F"))
    if form == "exact":
        # the plug-in S / 4**k gives 4**k G, exactly
        np.ldexp(g, -2 * _exact_scale_exponent(suite), out=g)
    return g


# The trace takes G's columns in batches of about 2**16 entries (512 KB),
# which keeps the temporaries in cache: at p = 60 this was 2x faster than
# one batch of all p^2 columns.
_TRACE_BATCH_ENTRIES = 1 << 16
# G is solved for in blocks of about 2**21 entries (16 MB) of its columns,
# a whole number of trace batches, in one reused buffer. Up to p = 37 that
# is all of G at once.
_BLOCK_ENTRIES = 1 << 21


def _block_columns(p2: int) -> tuple[int, int]:
    """Columns of G per trace batch and per block, for p^2 columns."""
    batch = max(1, _TRACE_BATCH_ENTRIES // p2)
    return batch, min(p2, max(1, _BLOCK_ENTRIES // p2 // batch) * batch)


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


def _propagator_sums(suite: CovarianceSuite, form: str, vectors: np.ndarray):
    """G solved for block by block, reduced to what the test needs: the
    forms of V at its columns summed (the trace of G.T V G) and
    ``G @ kron(W, w_1)``, whose column j is ``G (w_j (x) w_1)``, with W the
    eigenvectors ``vectors``.

    Only the factor of S (x) S, one block of G's columns and p^2 x p arrays
    are alive. Blocks are a whole number of trace batches, so the trace sums
    the same batches in the same order at any block size.
    """
    work, factor = _setup(suite, form)
    sigma = work.covariance
    p = suite.p
    p2 = p * p
    batch, width = _block_columns(p2)
    buf = np.empty((p2, width), order="F")
    trace = 0.0
    for start in range(0, p2, width):
        block = _propagator_columns(work, factor, form, start, buf[:, : p2 - start])
        if start + width >= p2:
            del factor  # solved against for the last time; freed before the trace
        for k in range(0, block.shape[1], batch):
            trace += float(_vec_cov_forms(sigma, block[:, k : k + batch]).sum())
        # rows start.. of kron(W, w_1)
        a, b = np.divmod(np.arange(start, start + block.shape[1]), p)
        rows = vectors[a] * vectors[b, :1]
        if start == 0:
            g_dirs = block @ rows
        else:
            # in row slices, so that no second p^2 x p array is made
            for r in range(0, p2, width):
                g_dirs[r : r + width] += block[r : r + width] @ rows
        del rows  # not alive through the next block's trace batches
    return trace, g_dirs


def build_asymptotics(
    suite: CovarianceSuite,
    eig: EigenSystem,
    n: int,
    divisor: str = "nminusp",
    form: str = "conservative",
) -> AsymptoticScalars:
    """The test's plug-in scalars, without forming C or V or holding G.

    Each needed quadratic form of C is a form of V at a column of G, or at
    G applied to an eigenvector product, which ``_vec_cov_forms`` reduces to
    p x p products. G's columns are solved for in blocks of about
    ``_BLOCK_ENTRIES`` entries, against one factor of ``S (x) S``
    (``_propagator_sums``). When G fits in one block (up to p = 37) the
    scalars have the bits of the full-width ``normalization_propagator``.

    This is the test pipeline's entry point, so ``form`` defaults to
    "conservative", the first of ``PROPAGATOR_FORMS``.
    """
    div = divisor_value(n, suite.p, divisor)
    trace, g_dirs = _propagator_sums(suite, form, eig.vectors)
    forms = _vec_cov_forms(_form_suite(suite, form).covariance, g_dirs) / div
    return AsymptoticScalars(
        cov_trace=trace / div,
        top_variance=float(forms[0]),
        cross_terms=forms[1:],
        divisor=div,
    )
