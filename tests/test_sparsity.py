"""The statistic stage by stage, then end to end: the shrinkage intensity
and estimate; the second-order bias correction (forced arithmetic,
algebraic identities, the gap rule, a Monte Carlo bias-reduction oracle);
Student t numerics; and ``max_parents_test``."""

import json

import numpy as np
import pytest
from scipy import stats

from bnsparsity import (
    AsymptoticScalars,
    Dataset,
    EigenSystem,
    InputError,
    InsufficientSampleError,
    ShrinkageEstimate,
    SingularityError,
    SparsityTestResult,
    analytic_normalized_precision,
    build_asymptotics,
    build_suite,
    corrected_top_eigenvalue,
    max_parents_test,
    normalized_precision_eigen,
    random_model,
    sample_dataset,
    shrink,
    shrinkage_intensity,
    student_t_quantile,
    student_t_sf,
    suite_from_covariance,
    symmetric_eigen,
    tuned_top_eigenvalue_model,
)
from conftest import random_suite
from oracles import bias_term, normalized_precision_cov


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

    def test_gap_rule_matches_the_oracle(self, rng):
        # at p = 4 terms at gaps below 4e-6 are skipped: the 3e-6 gap is (a
        # tolerance of 1e-6 would keep it), the 5e-6 gap is not
        eig = _plain_eigensystem([2.0, 2.0 - 3e-6, 2.0 - 5e-6, 0.5])
        a = rng.standard_normal((16, 16))
        cov = a @ a.T / 16
        shr = _synthetic_shrinkage(0.25, eig)
        out = corrected_top_eigenvalue(eig, shr, _dense_scalars(eig, cov))
        bias, warned = bias_term(eig, cov, gap_tolerance=1e-6 * 4)
        assert out.gap_warning and warned
        assert out.bias == pytest.approx(bias, rel=1e-12)
        # the skipped term is large, so keeping it would fail the check above
        kept, _ = bias_term(eig, cov, gap_tolerance=0.0)
        assert abs(kept - bias) > 1e4

    @pytest.mark.parametrize("p", [3, 8, 40])
    def test_gap_threshold_scales_with_p(self, p):
        # a top gap of 0.75e-6 p is skipped and one of 1.25e-6 p is kept,
        # at every p; a flat 1e-6 would keep both for p >= 2
        rng = np.random.default_rng(p)
        values = np.concatenate([[2.0, 2.0 - 0.75e-6 * p, 2.0 - 1.25e-6 * p],
                                 np.linspace(1.0, 0.5, p - 3)])
        eig = _plain_eigensystem(values)
        a = rng.standard_normal((p * p, p * p))
        cov = a @ a.T / (p * p)
        shr = _synthetic_shrinkage(0.25, eig)
        out = corrected_top_eigenvalue(eig, shr, _dense_scalars(eig, cov))
        skipped_one, warned = bias_term(eig, cov, gap_tolerance=1e-6 * p)
        assert out.gap_warning and warned
        assert out.bias == pytest.approx(skipped_one, rel=1e-12)
        kept_both, _ = bias_term(eig, cov, gap_tolerance=1e-6)
        skipped_both, _ = bias_term(eig, cov, gap_tolerance=1.5e-6 * p)
        assert abs(kept_both - out.bias) > 1e3 and abs(skipped_both - out.bias) > 1e3

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


class TestStudentT:
    def test_symmetry_at_zero(self):
        for df in (1, 2, 10, 480):
            assert student_t_sf(0.0, df) == pytest.approx(0.5, abs=1e-14)

    def test_vanishes_at_infinity(self):
        assert student_t_sf(1e12, 5) <= 1e-20
        assert student_t_sf(np.inf, 5) == 0.0
        assert student_t_sf(-np.inf, 5) == 1.0

    def test_reflection(self):
        for t in (0.3, 1.7, 4.0):
            for df in (1, 7, 100):
                assert student_t_sf(-t, df) == pytest.approx(
                    1.0 - student_t_sf(t, df), abs=1e-14
                )

    def test_monotone_decreasing(self):
        grid = np.linspace(-6, 6, 41)
        values = [student_t_sf(t, 9) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_against_independent_implementation(self):
        # scipy.stats goes through a different special-function path
        for df in (1, 2, 5, 30, 480):
            for t in (-3.2, -0.4, 0.0, 0.7, 1.6449, 5.5):
                assert student_t_sf(t, df) == pytest.approx(
                    float(stats.t.sf(t, df)), abs=1e-12
                )

    def test_simulation_oracle_df480(self, rng):
        # draw-based check of the tail mass at the reference point
        df, t_ref, draws = 480, 1.6449, 20_000_000
        hits = 0
        for _ in range(20):
            chunk = 1_000_000
            sample = rng.standard_normal(chunk) / np.sqrt(rng.chisquare(df, chunk) / df)
            hits += int(np.count_nonzero(sample > t_ref))
        frac = hits / draws
        se = np.sqrt(frac * (1 - frac) / draws)
        assert abs(student_t_sf(t_ref, df) - frac) <= 3 * se

    def test_rejects_bad_df(self):
        with pytest.raises(InputError):
            student_t_sf(1.0, 0)

    def test_quantile_inverts_tail(self):
        for df in (3, 25, 480):
            for prob in (0.05, 0.5, 0.95, 0.999):
                q = student_t_quantile(prob, df)
                assert student_t_sf(q, df) == pytest.approx(1.0 - prob, abs=1e-8)

    def test_quantile_against_independent_implementation(self):
        for df in (2, 12, 200):
            for prob in (0.1, 0.5, 0.975):
                assert student_t_quantile(prob, df) == pytest.approx(
                    float(stats.t.ppf(prob, df)), abs=1e-7
                )

    def test_quantile_rejects_bad_prob(self):
        with pytest.raises(InputError):
            student_t_quantile(1.0, 5)


class TestMaxParentsTest:
    def test_identity_model_fails_to_reject(self, rng):
        # independent columns: true top eigenvalue is 1, far below 2
        data = Dataset(values=rng.standard_normal((500, 5)))
        result = max_parents_test(data)
        assert result.t_stat < -2.0
        assert not result.reject
        assert result.p_value > 0.5

    def test_reject_flag_matches_quantile_rule(self, rng):
        model = random_model("A", 6, 2, rng=rng)
        for n in (40, 120):
            data = sample_dataset(model, n, rng=rng)
            result = max_parents_test(data, alpha=0.2)
            critical = student_t_quantile(1.0 - result.alpha, result.df)
            assert result.reject == (result.t_stat > critical)
            assert result.reject == (result.p_value < result.alpha)

    def test_df_is_n_minus_p(self, rng):
        model = random_model("A", 4, 1, rng=rng)
        data = sample_dataset(model, 52, rng=rng)
        result = max_parents_test(data)
        assert result.df == 48 and result.n == 52 and result.p == 4

    def test_column_scaling_invariance(self, rng):
        model = random_model("A", 5, 2, rng=rng)
        data = sample_dataset(model, 90, rng=rng)
        scaled = data.values.copy()
        scaled[:, 1] *= 250.0
        scaled[:, 4] *= -0.01
        base = max_parents_test(data)
        other = max_parents_test(Dataset(values=scaled))
        assert other.t_stat == pytest.approx(base.t_stat, abs=1e-8)

    def test_extreme_column_scaling_invariance(self, rng):
        # columns in units up to 1e+-12 apart: cond(S) is near 1e48 while the
        # correlation matrix is well conditioned, and the condition check is
        # taken at the correlation scale. The exact form factors S (x) S on
        # the raw scale; Cholesky commutes with diagonal scaling up to
        # rounding, so it stays invariant too (9e-13 relative at worst over
        # seeds 0-7 of this model).
        model = random_model("A", 6, 2, rng=rng)
        data = sample_dataset(model, 120, rng=rng)
        scales = np.array([1e12, 1e-12, 1.0, 3e7, 2e-9, -5e11])
        for form in ("conservative", "exact"):
            base = max_parents_test(data, form=form).to_dict()
            other = max_parents_test(Dataset(values=data.values * scales), form=form).to_dict()
            assert list(other) == list(base)
            for key, value in base.items():
                if isinstance(value, float):
                    assert other[key] == pytest.approx(value, rel=1e-10, abs=0.0), (form, key)
                else:
                    assert other[key] == value, (form, key)

    def test_errors(self, rng):
        with pytest.raises(InsufficientSampleError) as err:
            max_parents_test(Dataset(values=rng.standard_normal((10, 20))))
        assert "n=10" in str(err.value) and "p=20" in str(err.value)
        with pytest.raises(InputError):
            max_parents_test(Dataset(values=rng.standard_normal((10, 1))))
        with pytest.raises(InputError):
            max_parents_test(Dataset(values=rng.standard_normal((10, 3))), alpha=1.5)
        with pytest.raises(SingularityError):
            max_parents_test(
                Dataset(values=np.column_stack([rng.standard_normal((60, 3)), np.full(60, 0.1)]))
            )
        duplicated = rng.standard_normal((30, 2))
        with pytest.raises(SingularityError):
            max_parents_test(
                Dataset(values=np.column_stack([duplicated, duplicated[:, 0]]))
            )

    def test_json_round_trip_and_key_order(self, rng):
        model = random_model("A", 4, 1, rng=rng)
        data = sample_dataset(model, 50, rng=rng)
        result = max_parents_test(data)
        payload = result.to_json()
        parsed = json.loads(payload)
        assert list(parsed) == [
            "lambda1_cstar",
            "lambda1_sample",
            "rho_hat",
            "c_hat",
            "sigma_hat",
            "t_stat",
            "df",
            "p_value",
            "alpha",
            "reject",
            "gap_warning",
            "n",
            "p",
        ]
        assert SparsityTestResult(**parsed) == result

    def test_sigma_matches_invariant(self, rng):
        model = random_model("A", 5, 2, rng=rng)
        data = sample_dataset(model, 80, rng=rng)
        result = max_parents_test(data)
        assert result.sigma_hat > 0.0
        # t recomputes from the reported fields
        assert result.t_stat == pytest.approx(
            (result.lambda1_cstar - 2.0) / result.sigma_hat, rel=1e-12
        )

    def test_deterministic(self, rng):
        model = random_model("A", 5, 1, rng=rng)
        data = sample_dataset(model, 70, rng=rng)
        assert max_parents_test(data) == max_parents_test(data)
