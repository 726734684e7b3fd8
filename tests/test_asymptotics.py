"""Plug-in asymptotic covariances: algebraic identities, finite-difference
Jacobian agreement, and Monte Carlo oracles at unit-test scale (the
acceptance suite runs the full-size versions)."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from bnsparsity import (
    PROPAGATOR_FORMS,
    InputError,
    InsufficientSampleError,
    build_asymptotics,
    build_suite,
    corrected_top_eigenvalue,
    normalization_propagator,
    normalized_precision_eigen,
    shrink,
    suite_from_covariance,
)
from bnsparsity.asymptotics import (
    DIVISOR_MODES,
    _block_columns,
    _form_suite,
    _normalization_jacobian,
    _vec_cov_forms,
    divisor_value,
)
from bnsparsity import asymptotics, kernels
from conftest import chain_dag, gaussian_dataset, random_suite
from oracles import (
    bias_term,
    commutation_matrix,
    diagonalization_matrix,
    eigenvalue_cov,
    eigenvalue_gradients,
    gaussian_vec_cov,
    normalization_jacobian,
    normalized_precision_cov,
    vec,
)


def chain_suite(p=3, weight=1.0):
    dag = chain_dag(p, weight)
    b_inv = np.linalg.inv(np.eye(p) - dag.adjacency.T)
    return suite_from_covariance(b_inv @ b_inv.T)


class TestGaussianVecCov:
    def test_identity_plug_in(self):
        np.testing.assert_allclose(
            gaussian_vec_cov(np.eye(2)), np.eye(4) + commutation_matrix(2), atol=1e-14
        )

    def test_scalar(self):
        np.testing.assert_allclose(gaussian_vec_cov(np.array([[3.0]])), [[18.0]])

    def test_commutes_with_k(self, rng):
        m = rng.standard_normal((4, 4))
        sigma = m @ m.T + 4 * np.eye(4)
        v = gaussian_vec_cov(sigma)
        k = commutation_matrix(4)
        assert np.abs(k @ v - v @ k).max() <= 1e-10 * np.abs(v).max()

    def test_fourth_moment_monte_carlo(self, rng):
        # independent oracle: V = E[xx' (x) xx'] - vec(S) vec(S)'
        # (unit-diagonal scale keeps the 0.1 entry cutoff meaningful)
        m = rng.standard_normal((3, 3))
        raw = m @ m.T + 3 * np.eye(3)
        d = 1.0 / np.sqrt(np.diag(raw))
        sigma = raw * np.outer(d, d)
        chol = np.linalg.cholesky(sigma)
        draws = 200_000
        x = rng.standard_normal((draws, 3)) @ chol.T
        outer = np.einsum("ni,nj->nij", x, x).reshape(draws, 9)
        mc = outer.T @ outer / draws - np.outer(vec(sigma), vec(sigma))
        v = gaussian_vec_cov(sigma)
        big = np.abs(v) > 0.1
        rel = np.abs(mc[big] - v[big]) / np.abs(v[big])
        assert rel.max() <= 0.10


class TestPropagator:
    def test_identity_covariance(self):
        # the two forms coincide at a diagonal covariance
        suite = suite_from_covariance(np.eye(3))
        expected = np.eye(9) - 0.5 * (np.eye(9) + commutation_matrix(3)) @ diagonalization_matrix(3)
        for form in PROPAGATOR_FORMS:
            np.testing.assert_allclose(
                normalization_propagator(suite, form), expected, atol=1e-12
            )

    def test_scalar_degenerates_to_zero(self):
        suite = suite_from_covariance(np.array([[2.5]]))
        np.testing.assert_allclose(
            normalization_propagator(suite, "exact"), [[0.0]], atol=1e-12
        )

    def test_rejects_unknown_form(self):
        suite = suite_from_covariance(np.eye(2))
        with pytest.raises(InputError):
            normalization_propagator(suite, form="fast")

    def test_conservative_inflates_trace(self, rng):
        # the conservative form over-weights the normalization curvature,
        # giving a larger covariance trace and hence stronger shrinkage
        for _ in range(10):
            suite, data = random_suite(rng, p=4, n=80)
            cons = normalized_precision_cov(suite, data.n, form="conservative")
            exact = normalized_precision_cov(suite, data.n, form="exact")
            assert np.trace(cons) > np.trace(exact)
            eigs = np.linalg.eigvalsh(cons)
            assert eigs.min() >= -1e-8 * max(eigs.max(), 1.0)

    def test_finite_difference_direction_derivative(self, rng):
        # the exact-form propagator transposed is the (negated) Jacobian of
        # the map covariance -> normalized precision; central differences,
        # step 1e-6 (the test pipeline's conservative form trades it away)
        suite, _ = random_suite(rng, p=3, n=150)
        g = normalization_propagator(suite, form="exact")
        h = 1e-6
        p = suite.p
        for _ in range(10):
            direction = rng.standard_normal((p, p))
            direction = 0.5 * (direction + direction.T)
            plus = suite_from_covariance(suite.covariance + h * direction)
            minus = suite_from_covariance(suite.covariance - h * direction)
            fd = vec(plus.normalized_precision - minus.normalized_precision) / (2 * h)
            predicted = -(g.T @ vec(direction))
            assert np.abs(fd - predicted).max() <= 1e-5 * max(np.abs(fd).max(), 1e-12)

    @pytest.mark.parametrize("form", PROPAGATOR_FORMS)
    def test_refuses_p_over_the_cap_before_the_dense_work(self, rng, monkeypatch, form):
        # at p = 129, S (x) S alone is 2.2 GB: the cap is checked before it
        # is built or factored. At p = 24 S (x) S is 2.7 MB, so a traced
        # peak under 1 MB shows it was never allocated.
        suite, _ = random_suite(rng, p=24, n=80)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(kernels, "MAX_DIMENSION", 23)
        monkeypatch.setattr(asymptotics, "cho_factor", counted)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="cap 23"):
                normalization_propagator(suite, form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 1 << 20

    @pytest.mark.parametrize("form", PROPAGATOR_FORMS)
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 20])
    def test_in_place_solve_is_bitwise_the_copying_solve(self, form, p):
        # normalization_propagator factors and solves in place; the
        # copy-making solve against kron(S, S) is kept here as the oracle.
        # For the exact form it is taken at the suite's own scale: the
        # propagator's power-of-four plug-in scale changes no bits.
        rng = np.random.default_rng(p)
        x = rng.standard_normal((3 * p + 20, p)) @ rng.standard_normal((p, p))
        suite = suite_from_covariance(x.T @ x / len(x))
        work = suite if form == "exact" else _form_suite(suite, form)
        s = work.covariance
        jac = normalization_jacobian(work)
        rhs = jac.T if form == "exact" else jac
        oracle = cho_solve(cho_factor(np.kron(s, s), lower=True), rhs)
        assert np.array_equal(normalization_propagator(suite, form), oracle)


class TestNormalizedPrecisionCov:
    def test_vanishes_for_huge_n(self):
        suite = chain_suite()
        cov = normalized_precision_cov(suite, n=1_000_000)
        assert np.abs(cov).max() <= 1e-4

    def test_divisor_modes_scale_exactly(self):
        suite = chain_suite()
        n = 40
        a = normalized_precision_cov(suite, n, divisor="nminusp")
        b = normalized_precision_cov(suite, n, divisor="n")
        np.testing.assert_allclose(a * (n - suite.p) / n, b, atol=1e-15)

    def test_diagonal_positions_are_flat(self):
        # unit-diagonal entries of the normalized precision cannot vary;
        # exact in the delta-method form
        suite = chain_suite(4, 0.8)
        cov = normalized_precision_cov(suite, 200, form="exact")
        scale = np.abs(cov).max()
        for i in range(4):
            pos = i * 4 + i
            assert abs(cov[pos, pos]) <= 1e-12 * scale

    def test_symmetric_and_psd(self, rng):
        suite, _ = random_suite(rng, p=4, n=120)
        cov = normalized_precision_cov(suite, 120)
        assert np.abs(cov - cov.T).max() <= 1e-8 * max(np.abs(cov).max(), 1e-30)
        eigs = np.linalg.eigvalsh(cov)  # independent solver as the oracle
        assert eigs.min() >= -1e-8 * max(eigs.max(), 1.0)

    def test_rejects_small_n(self):
        suite = chain_suite()
        with pytest.raises(InsufficientSampleError):
            normalized_precision_cov(suite, n=3)
        with pytest.raises(InsufficientSampleError):
            divisor_value(3, 3, "n")

    def test_monte_carlo_covariance(self, rng):
        # reduced-size version of the acceptance oracle (criterion 4 runs
        # p=4, n=500, 2e4 replicates at 20%)
        suite_truth = chain_suite(3, 0.9)
        sigma = suite_truth.covariance
        n, reps = 300, 4000
        vecs = np.empty((reps, 9))
        for r in range(reps):
            data = gaussian_dataset(rng, sigma, n)
            vecs[r] = vec(build_suite(data).normalized_precision)
        mc = np.cov(vecs.T) * n
        g = normalization_propagator(suite_truth, form="exact")
        predicted = g.T @ gaussian_vec_cov(sigma) @ g
        big = np.abs(predicted) > 0.25 * np.abs(predicted).max()
        rel = np.abs(mc[big] - predicted[big]) / np.abs(predicted[big])
        assert rel.max() <= 0.30


class TestEigenvalueCov:
    def test_identity_limit_is_flat(self):
        suite = suite_from_covariance(np.eye(4))
        eig = normalized_precision_eigen(suite)
        cov = eigenvalue_cov(suite, eig, 100)
        assert np.abs(cov).max() <= 1e-12

    def test_symmetry(self, rng):
        suite, data = random_suite(rng, p=4, n=150)
        eig = normalized_precision_eigen(suite)
        cov = eigenvalue_cov(suite, eig, data.n)
        assert np.abs(cov - cov.T).max() <= 1e-10

    def test_consistency_with_gradient_projection(self, rng):
        suite, data = random_suite(rng, p=4, n=150)
        eig = normalized_precision_eigen(suite)
        cov = normalized_precision_cov(suite, data.n, form="conservative")
        lam_cov = eigenvalue_cov(suite, eig, data.n, form="conservative")
        grads = eigenvalue_gradients(eig)
        projected = grads.T @ cov @ grads
        assert np.abs(projected - lam_cov).max() <= 1e-12

    def test_gradients_match_dense_construction(self, rng):
        suite, _ = random_suite(rng, p=3, n=100)
        eig = normalized_precision_eigen(suite)
        w = eig.vectors
        selector = np.zeros((9, 3))
        for i in range(3):
            selector[i * 4, i] = 1.0
        np.testing.assert_allclose(
            eigenvalue_gradients(eig), np.kron(w, w) @ selector, atol=1e-12
        )

    def test_variance_tracks_monte_carlo(self, rng):
        # reduced-size version of acceptance criterion 5
        suite_truth = chain_suite(3, 0.9)
        sigma = suite_truth.covariance
        n, reps = 800, 1500
        tops = np.empty(reps)
        ratios = np.empty(reps)
        for r in range(reps):
            data = gaussian_dataset(rng, sigma, n)
            suite = build_suite(data)
            eig = normalized_precision_eigen(suite)
            tops[r] = eig.values[0]
            ratios[r] = eigenvalue_cov(suite, eig, n)[0, 0]
        assert 0.5 <= tops.var() / ratios.mean() <= 2.0

    def test_build_asymptotics_divisor(self, rng):
        suite, data = random_suite(rng, p=4, n=104)
        eig = normalized_precision_eigen(suite)
        asym = build_asymptotics(suite, eig, data.n)
        assert asym.divisor == 100
        asym_n = build_asymptotics(suite, eig, data.n, divisor="n")
        assert asym_n.divisor == 104


class TestScalarPathMatchesDenseOracle:
    """``build_asymptotics`` computes the test's scalars without forming the
    p^2 x p^2 covariance; the dense functions in ``oracles`` are its oracle."""

    def _assert_matches(self, suite, eig, n):
        for form in PROPAGATOR_FORMS:
            for divisor in DIVISOR_MODES:
                asym = build_asymptotics(suite, eig, n, divisor, form)
                cov = normalized_precision_cov(suite, n, divisor, form)
                assert asym.divisor == divisor_value(n, suite.p, divisor)
                assert asym.cov_trace == pytest.approx(np.trace(cov), rel=1e-10)
                top = eigenvalue_cov(suite, eig, n, divisor, form)[0, 0]
                assert asym.top_variance == pytest.approx(top, rel=1e-10)
                corrected = corrected_top_eigenvalue(eig, shrink(eig, asym), asym)
                bias, warned = bias_term(eig, cov)
                assert corrected.bias == pytest.approx(bias, rel=1e-10)
                assert corrected.gap_warning == warned

    @pytest.mark.parametrize("p", [2, 3, 5, 12])
    def test_random_suites(self, rng, p):
        for _ in range(3):
            suite, data = random_suite(
                rng, p=p, n=10 * p + 20, max_in_degree=min(2, p - 1)
            )
            self._assert_matches(suite, normalized_precision_eigen(suite), data.n)

    def test_kind_a_near_p(self, rng):
        suite, data = random_suite(rng, p=20, n=30)
        self._assert_matches(suite, normalized_precision_eigen(suite), data.n)

    def test_repeated_top_eigenvalue_is_skipped(self):
        # equicorrelation: the normalized precision's top eigenvalue has
        # multiplicity p - 1, so the gap to lambda_2 is skipped and flagged
        p = 5
        suite = suite_from_covariance(0.6 * np.eye(p) + 0.4 * np.ones((p, p)))
        eig = normalized_precision_eigen(suite)
        assert eig.values[0] - eig.values[1] < 1e-12
        asym = build_asymptotics(suite, eig, 60)
        corrected = corrected_top_eigenvalue(eig, shrink(eig, asym), asym)
        assert corrected.gap_warning
        self._assert_matches(suite, eig, 60)


def _suite_and_eig(p, n=None, seed=None):
    rng = np.random.default_rng(p if seed is None else seed)
    n = 3 * p + 20 if n is None else n
    x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
    suite = suite_from_covariance(x.T @ x / n)
    return suite, normalized_precision_eigen(suite), n


def _full_width_scalars(suite, eig, form, div):
    """Trace, top variance and cross terms from the whole G of
    ``normalization_propagator``, the trace summed in the same batches as
    ``build_asymptotics``."""
    p2 = suite.p * suite.p
    g = normalization_propagator(suite, form)
    sigma = suite.covariance if form == "exact" else _form_suite(suite, form).covariance
    batch = _block_columns(p2)[0]
    trace = 0.0
    for k in range(0, p2, batch):
        trace += float(_vec_cov_forms(sigma, g[:, k : k + batch]).sum())
    forms = _vec_cov_forms(sigma, g @ np.kron(eig.vectors, eig.vectors[:, :1])) / div
    return trace / div, forms[0], forms[1:]


class TestStreamedPropagator:
    """``build_asymptotics`` solves for G in column blocks; the full-width
    ``normalization_propagator`` with the same forms is its oracle."""

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 5, 9])
    def test_jacobian_columns_are_the_dense_jacobian(self, transpose, p):
        # any column range, ragged last block included, holds the dense
        # Jacobian's columns bit for bit
        suite, _, _ = _suite_and_eig(p)
        dense = normalization_jacobian(suite, transpose)
        assert np.array_equal(_normalization_jacobian(suite, transpose), dense)
        for start in range(0, p * p, 4):
            out = np.full((p * p, min(4, p * p - start)), np.nan, order="F")
            _normalization_jacobian(suite, transpose, start, out)
            assert np.array_equal(out, dense[:, start : start + 4])

    @pytest.mark.parametrize("form", PROPAGATOR_FORMS)
    @pytest.mark.parametrize("divisor", DIVISOR_MODES)
    @pytest.mark.parametrize("p", [7, 12, 20])
    def test_blocks_match_the_full_width_propagator(self, monkeypatch, form, divisor, p):
        suite, eig, n = _suite_and_eig(p)
        trace, top, cross = _full_width_scalars(suite, eig, form, divisor_value(n, p, divisor))

        # batches of 3 columns, blocks of 21: p^2 = 49, 144 and 400 all end
        # in a ragged block
        monkeypatch.setattr(asymptotics, "_TRACE_BATCH_ENTRIES", 3 * p * p)
        monkeypatch.setattr(asymptotics, "_BLOCK_ENTRIES", 21 * p * p)
        assert _block_columns(p * p) == (3, 21) and p * p % 21
        starts = []
        real = asymptotics._propagator_columns

        def spy(work, factor, form, start, out):
            starts.append((start, out.shape[1]))
            return real(work, factor, form, start, out)

        monkeypatch.setattr(asymptotics, "_propagator_columns", spy)
        asym = build_asymptotics(suite, eig, n, divisor, form)
        assert starts == [(s, min(21, p * p - s)) for s in range(0, p * p, 21)]
        # measured worst over these cases at 1 and 2 BLAS threads: 3.8e-13
        assert asym.cov_trace == pytest.approx(trace, rel=1e-12)
        assert asym.top_variance == pytest.approx(top, rel=1e-12)
        np.testing.assert_allclose(asym.cross_terms, cross, rtol=1e-12)

    @pytest.mark.parametrize("p", [7, 37])
    def test_one_block_is_bitwise_the_full_width_propagator(self, p):
        # up to p = 37 G is one block: the streamed scalars keep its bits
        suite, eig, n = _suite_and_eig(p)
        assert _block_columns(p * p)[1] == p * p
        for form in PROPAGATOR_FORMS:
            trace, top, cross = _full_width_scalars(suite, eig, form, n - p)
            asym = build_asymptotics(suite, eig, n, "nminusp", form)
            assert (asym.cov_trace, asym.top_variance) == (trace, top)
            assert np.array_equal(asym.cross_terms, cross)

    def test_holds_one_p4_array(self):
        # S (x) S's factor (8 p^4 bytes), one block of G and p^2 x p
        # arrays; the full-width path also held G, 2.13 x 8 p^4 in all
        p = 48
        suite, eig, n = _suite_and_eig(p, n=500)
        block = 8 * p * p * _block_columns(p * p)[1]
        assert block < 8 * p**4
        tracemalloc.start()
        try:
            build_asymptotics(suite, eig, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * p**4 + block + (2 << 20)

    @pytest.mark.parametrize("power", [-300, 300])
    def test_exact_form_is_bitwise_invariant_under_power_of_two_scaling(self, power):
        # data times 2**power scales S by 4**power exactly; the exact form's
        # plug-ins are taken at a power-of-four scale of its own, so every
        # scalar keeps its bits, where S (x) S itself would overflow or
        # underflow
        p = 6
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, p)) @ rng.standard_normal((p, p))
        s = x.T @ x / len(x)
        plain = suite_from_covariance(s)
        scaled = suite_from_covariance(np.ldexp(s, 2 * power))
        # the largest entry of S (x) S is out of double range
        assert 2 * abs(np.log2(np.abs(scaled.covariance).max())) > 1074
        eig = normalized_precision_eigen(plain)
        assert np.array_equal(normalized_precision_eigen(scaled).vectors, eig.vectors)
        a = build_asymptotics(plain, eig, len(x), form="exact")
        b = build_asymptotics(scaled, eig, len(x), form="exact")
        assert (a.cov_trace, a.top_variance) == (b.cov_trace, b.top_variance)
        assert np.array_equal(a.cross_terms, b.cross_terms)
