"""Student t numerics and the end-to-end max-in-degree test."""

import json

import numpy as np
import pytest
from scipy import stats

from bnsparsity import (
    Dataset,
    InputError,
    InsufficientSampleError,
    SingularityError,
    SparsityTestResult,
    max_parents_test,
    random_model,
    sample_dataset,
    student_t_quantile,
    student_t_sf,
)


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

    def test_divisor_override_changes_result(self, rng):
        model = random_model("A", 5, 2, rng=rng)
        data = sample_dataset(model, 60, rng=rng)
        conservative = max_parents_test(data, divisor="nminusp")
        aggressive = max_parents_test(data, divisor="n")
        assert conservative.rho_hat > aggressive.rho_hat

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
