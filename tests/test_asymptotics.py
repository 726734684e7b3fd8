"""Plug-in asymptotic covariances: algebraic identities, finite-difference
Jacobian agreement, and Monte Carlo oracles at unit-test scale (the
acceptance suite runs the full-size versions)."""

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
    _form_suite,
    _normalization_jacobian,
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
        # is built or factored
        suite, _ = random_suite(rng, p=5, n=80)
        calls = []

        def spy(real):
            def counted(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            return counted

        monkeypatch.setattr(kernels, "MAX_DIMENSION", 4)
        monkeypatch.setattr(asymptotics, "cho_factor", spy(asymptotics.cho_factor))
        monkeypatch.setattr(np, "kron", spy(np.kron))
        with pytest.raises(InputError, match="cap 4"):
            normalization_propagator(suite, form)
        assert calls == []

    @pytest.mark.parametrize("form", PROPAGATOR_FORMS)
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 20])
    def test_in_place_solve_is_bitwise_the_copying_solve(self, form, p):
        # normalization_propagator factors and solves in place; the
        # copy-making solve against kron(S, S) is kept here as the oracle
        rng = np.random.default_rng(p)
        x = rng.standard_normal((3 * p + 20, p)) @ rng.standard_normal((p, p))
        suite = suite_from_covariance(x.T @ x / len(x))
        work = _form_suite(suite, form)
        s = work.covariance
        jac = _normalization_jacobian(work)
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
