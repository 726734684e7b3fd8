"""Second-order bias correction: forced arithmetic, algebraic identities,
gap handling, and a Monte Carlo bias-reduction oracle."""

import numpy as np
import pytest

from bnsparsity import (
    AsymptoticScalars,
    EigenSystem,
    InputError,
    ShrinkageEstimate,
    analytic_normalized_precision,
    build_asymptotics,
    build_suite,
    corrected_top_eigenvalue,
    normalized_precision_eigen,
    sample_dataset,
    shrink,
    tuned_top_eigenvalue_model,
)
from conftest import random_suite
from oracles import bias_term, normalized_precision_cov


def _plain_eigensystem(values):
    values = np.asarray(values, dtype=float)
    return EigenSystem(values=values, vectors=np.eye(values.size))


def _dense_scalars(eig, cov):
    """The record ``build_asymptotics`` gives for a dense covariance."""
    top = eig.vectors[:, 0]
    forms = [
        float(np.kron(w, top) @ cov @ np.kron(w, top)) for w in eig.vectors.T
    ]
    return AsymptoticScalars(
        cov_trace=float(np.trace(cov)),
        top_variance=forms[0],
        cross_terms=np.array(forms[1:]),
        divisor=1,
    )


def _synthetic_shrinkage(intensity, eig):
    lam_star = (1.0 - intensity) * eig.values + intensity
    return ShrinkageEstimate(intensity=intensity, shrunk_eigenvalues=lam_star)


class TestBiasTerm:
    def test_zero_covariance(self):
        eig = _plain_eigensystem([1.5, 0.5])
        value, warned = bias_term(eig, np.zeros((4, 4)))
        assert value == 0.0 and not warned

    def test_forced_arithmetic(self):
        eig = _plain_eigensystem([1.5, 0.5])
        value, warned = bias_term(eig, 0.1 * np.eye(4))
        assert value == pytest.approx(0.1, abs=1e-15)
        assert not warned

    def test_target_out_of_range(self):
        eig = _plain_eigensystem([1.5, 0.5])
        with pytest.raises(InputError):
            bias_term(eig, np.zeros((4, 4)), target_index=3)
        with pytest.raises(InputError):
            bias_term(eig, np.zeros((4, 4)), target_index=0)

    def test_non_negative_for_top_target(self, rng):
        for _ in range(20):
            suite, data = random_suite(rng, p=4, n=80)
            eig = normalized_precision_eigen(suite)
            cov = normalized_precision_cov(suite, data.n, form="conservative")
            value, _ = bias_term(eig, cov)
            assert value >= 0.0

    def test_gap_warning_on_clustered_smallest(self):
        # crafted cluster at the bottom of the spectrum; the smallest
        # eigenvalue's correction must flag, not explode
        values = np.array([2.0, 1.0, 0.500000001, 0.5])
        eig = _plain_eigensystem(values / (values.sum() / 4))
        value, warned = bias_term(eig, 0.1 * np.eye(16), target_index=4)
        assert warned
        assert np.isfinite(value)

    def test_bottom_target_uses_negative_gaps(self):
        eig = _plain_eigensystem([1.5, 0.5])
        value, _ = bias_term(eig, 0.1 * np.eye(4), target_index=2)
        assert value == pytest.approx(-0.1, abs=1e-15)


class TestCorrectedTopEigenvalue:
    def test_zero_bias_keeps_estimates(self):
        eig = _plain_eigensystem([1.5, 0.5])
        shr = _synthetic_shrinkage(0.25, eig)
        out = corrected_top_eigenvalue(eig, shr, _dense_scalars(eig, np.zeros((4, 4))))
        assert out.corrected == eig.values[0]
        assert out.corrected_shrunk == shr.shrunk_eigenvalues[0]

    def test_full_shrinkage_pins_to_one(self):
        eig = _plain_eigensystem([1.5, 0.5])
        shr = _synthetic_shrinkage(1.0, eig)
        out = corrected_top_eigenvalue(eig, shr, _dense_scalars(eig, 0.3 * np.eye(4)))
        assert out.corrected_shrunk == pytest.approx(1.0, abs=1e-15)

    def test_requires_two_variables(self):
        eig = _plain_eigensystem([1.0])
        shr = _synthetic_shrinkage(0.5, eig)
        with pytest.raises(InputError):
            corrected_top_eigenvalue(eig, shr, _dense_scalars(eig, np.zeros((1, 1))))

    def test_affine_consistency(self, rng):
        for _ in range(30):
            suite, data = random_suite(rng, p=4, n=90)
            eig = normalized_precision_eigen(suite)
            asym = build_asymptotics(suite, eig, data.n)
            shr = shrink(eig, asym)
            out = corrected_top_eigenvalue(eig, shr, asym)
            rho = shr.intensity
            identity = (1.0 - rho) * (eig.values[0] - out.bias) + rho
            assert abs(out.corrected_shrunk - identity) <= 1e-12
            assert abs(out.corrected_shrunk - ((1.0 - rho) * out.corrected + rho)) <= 1e-10

    def test_monte_carlo_bias_reduction(self, rng):
        # fixed truth; the corrected mean must land closer to the true top
        # eigenvalue than the raw sample mean does
        model = tuned_top_eigenvalue_model(1.6, p=4)
        _, truth = analytic_normalized_precision(model)
        top_truth = truth[0]
        reps, n = 10_000, 200
        raw = np.empty(reps)
        corrected = np.empty(reps)
        for r in range(reps):
            data = sample_dataset(model, n, rng=rng)
            suite = build_suite(data)
            eig = normalized_precision_eigen(suite)
            cov = normalized_precision_cov(suite, n, form="conservative")
            value, _ = bias_term(eig, cov)
            raw[r] = eig.values[0]
            corrected[r] = eig.values[0] - value
        assert abs(corrected.mean() - top_truth) < abs(raw.mean() - top_truth)
        assert raw.mean() > top_truth  # the raw estimate is biased upward
