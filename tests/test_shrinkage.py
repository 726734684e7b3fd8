"""Shrinkage intensity and the identity-target shrinkage estimate."""

import numpy as np
import pytest

from bnsparsity import (
    InputError,
    build_asymptotics,
    normalized_precision_eigen,
    shrink,
    shrinkage_intensity,
    symmetric_eigen,
)
from conftest import random_suite


class TestShrinkageIntensity:
    def test_identity_eigenvalues_give_full_shrinkage(self):
        assert shrinkage_intensity(0.7, np.ones(4)) == 1.0

    def test_zero_trace_clamps_to_floor(self):
        assert shrinkage_intensity(0.0, np.array([1.5, 0.5])) == 1e-12

    def test_forced_arithmetic(self):
        # 0.5 / (0.5 + (2.25 + 0.25 - 2)) = 0.5
        assert shrinkage_intensity(0.5, np.array([1.5, 0.5])) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_bad_eigenvalue_sum(self):
        with pytest.raises(InputError):
            shrinkage_intensity(0.5, np.array([1.0, 0.5]))

    def test_rejects_negative_trace(self):
        with pytest.raises(InputError):
            shrinkage_intensity(-0.5, np.ones(3))

    def test_stays_in_unit_interval(self, rng):
        for _ in range(200):
            p = int(rng.integers(2, 8))
            raw = rng.dirichlet(np.ones(p)) * p  # positive, sums to p
            trace = float(rng.uniform(0, 5))
            rho = shrinkage_intensity(trace, raw)
            assert 0.0 < rho <= 1.0


class TestShrink:
    def test_full_shrinkage_at_identity(self):
        from bnsparsity import suite_from_covariance

        suite = suite_from_covariance(np.eye(3))
        eig = normalized_precision_eigen(suite)
        asym = build_asymptotics(suite, eig, 50)
        est = shrink(eig, asym)
        assert est.intensity == 1.0
        np.testing.assert_array_equal(est.shrunk_eigenvalues, np.ones(3))

    def test_eigenvalue_affine_map(self, rng):
        suite, data = random_suite(rng, p=4, n=100)
        eig = normalized_precision_eigen(suite)
        asym = build_asymptotics(suite, eig, data.n)
        est = shrink(eig, asym)
        expected = (1.0 - est.intensity) * eig.values + est.intensity
        assert np.abs(est.shrunk_eigenvalues - expected).max() <= 1e-12
        # forced arithmetic case of the same map
        assert (1.0 - 0.4) * 1.5 + 0.4 == pytest.approx(1.3)
        assert (1.0 - 0.4) * 0.5 + 0.4 == pytest.approx(0.7)

    def test_shrunk_matrix_keeps_eigenvectors(self, rng):
        suite, data = random_suite(rng, p=5, n=150)
        eig = normalized_precision_eigen(suite)
        asym = build_asymptotics(suite, eig, data.n)
        est = shrink(eig, asym)
        rho = est.intensity
        shrunk = (1.0 - rho) * suite.normalized_precision + rho * np.eye(5)
        again = symmetric_eigen(shrunk)
        assert np.abs(again.vectors - eig.vectors).max() <= 1e-10
        np.testing.assert_allclose(again.values, est.shrunk_eigenvalues, atol=1e-10)

    def test_invariants_over_random_suites(self, rng):
        # light version of acceptance criterion 7 (which runs 1e4 suites)
        for _ in range(100):
            p = int(rng.integers(2, 6))
            suite, data = random_suite(
                rng, p=p, n=int(rng.integers(p + 5, 60)), max_in_degree=min(2, p - 1)
            )
            eig = normalized_precision_eigen(suite)
            asym = build_asymptotics(suite, eig, data.n)
            est = shrink(eig, asym)
            assert 0.0 < est.intensity <= 1.0
            assert abs(est.shrunk_eigenvalues.sum() - p) <= 1e-10
            assert np.all(np.diff(est.shrunk_eigenvalues) <= 1e-14)
            assert asym.cov_trace >= 0.0

    def test_variance_contraction_is_affine(self, rng):
        suite, data = random_suite(rng, p=5, n=150)
        eig = normalized_precision_eigen(suite)
        asym = build_asymptotics(suite, eig, data.n)
        est = shrink(eig, asym)
        lhs = np.var(est.shrunk_eigenvalues)
        rhs = (1.0 - est.intensity) ** 2 * np.var(eig.values)
        assert lhs == pytest.approx(rhs, rel=1e-12)
