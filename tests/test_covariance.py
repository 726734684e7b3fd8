"""Covariance pipeline: sample covariance, suite construction, CSV format."""

import numpy as np
import pytest

from bnsparsity import (
    CsvParseError,
    Dataset,
    InputError,
    InsufficientSampleError,
    SingularityError,
    build_suite,
    analytic_normalized_precision,
    normalized_precision_eigen,
    random_dag,
    read_csv,
    sample_covariance,
    suite_from_covariance,
    write_csv,
)
from conftest import chain_dag, unit_noise, gaussian_dataset


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Dataset(values=np.array([[1.0, np.inf]]))

    def test_rejects_bad_names(self):
        with pytest.raises(InputError):
            Dataset(values=np.ones((3, 2)), variable_names=["a"])

    def test_default_names(self):
        assert Dataset(values=np.ones((2, 3))).names() == ["x1", "x2", "x3"]


class TestSampleCovariance:
    def test_two_point_example(self):
        data = Dataset(values=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(
            sample_covariance(data), [[1.0, 0.0], [0.0, 0.0]]
        )

    def test_constant_dataset(self):
        data = Dataset(values=np.full((4, 3), 7.0))
        np.testing.assert_array_equal(sample_covariance(data), np.zeros((3, 3)))

    def test_constant_column_whose_mean_rounds(self, rng):
        # the mean of sixty 0.1s is not 0.1 in double precision
        values = np.column_stack([rng.standard_normal((60, 2)), np.full(60, 0.1)])
        assert values[:, 2].mean() != 0.1
        cov = sample_covariance(Dataset(values=values))
        np.testing.assert_array_equal(cov[2], 0.0)
        np.testing.assert_array_equal(cov[:, 2], 0.0)

    def test_requires_two_samples(self):
        with pytest.raises(InputError):
            sample_covariance(Dataset(values=np.ones((1, 2))))

    def test_divisor_is_n(self):
        data = Dataset(values=np.array([[0.0], [2.0]]))
        # mean 1, squared deviations 1 + 1, divided by n = 2
        np.testing.assert_array_equal(sample_covariance(data), [[1.0]])

    def test_monte_carlo_recovery(self, rng):
        sigma = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        data = gaussian_dataset(rng, sigma, 5000)
        assert np.abs(sample_covariance(data) - sigma).max() <= 0.1


class TestSuite:
    def test_precision_normalization_example(self):
        precision = np.array([[4.0, 2.0], [2.0, 4.0]])
        suite = suite_from_covariance(np.linalg.inv(precision))
        np.testing.assert_allclose(suite.precision, precision, atol=1e-12)
        np.testing.assert_allclose(
            suite.normalized_precision, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12
        )

    def test_diagonal_covariance_gives_identity(self):
        suite = suite_from_covariance(np.diag([4.0, 0.25, 9.0]))
        np.testing.assert_allclose(suite.normalized_precision, np.eye(3), atol=1e-12)

    def test_three_node_chain_analytic(self):
        dag = chain_dag(3)
        omega, values = analytic_normalized_precision(dag, unit_noise(3))
        # adjacent entries -1/2 and -1/sqrt(2), zero corner
        assert omega[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert omega[1, 2] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)
        assert omega[0, 2] == pytest.approx(0.0, abs=1e-12)
        expected = [1.0 + np.sqrt(3.0) / 2.0, 1.0, 1.0 - np.sqrt(3.0) / 2.0]
        np.testing.assert_allclose(values, expected, atol=1e-10)
        # the same truth through data: sigma from the model, suite from sigma
        b_inv = np.linalg.inv(np.eye(3) - dag.adjacency.T)
        sigma = b_inv @ b_inv.T
        suite = suite_from_covariance(sigma)
        np.testing.assert_allclose(suite.normalized_precision, omega, atol=1e-10)

    def test_requires_more_samples_than_variables(self):
        with pytest.raises(InsufficientSampleError):
            build_suite(Dataset(values=np.random.default_rng(0).standard_normal((5, 5))))

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            suite_from_covariance(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_condition_guard(self):
        # ill-conditioned at the correlation scale; a scale-only case such
        # as diag(1, 1e-14) is accepted
        almost = 1.0 - 1e-13
        with pytest.raises(SingularityError):
            suite_from_covariance(np.array([[1.0, almost], [almost, 1.0]]))

    def test_unit_diagonal_and_symmetry(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            suite = suite_from_covariance(m @ m.T + 4 * np.eye(4))
            assert np.abs(np.diag(suite.normalized_precision) - 1.0).max() <= 1e-12
            omega = suite.normalized_precision
            assert np.abs(omega - omega.T).max() <= 1e-10


class TestOmegaEigenvalues:
    def test_identity(self):
        suite = suite_from_covariance(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            normalized_precision_eigen(suite).values, np.ones(3), atol=1e-12
        )

    def test_analytic_2x2(self):
        suite = suite_from_covariance(np.linalg.inv(np.array([[4.0, 2.0], [2.0, 4.0]])))
        np.testing.assert_allclose(
            normalized_precision_eigen(suite).values, [1.5, 0.5], atol=1e-12
        )

    def test_eigenvalue_sum_is_p(self, rng):
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            suite = suite_from_covariance(m @ m.T + 5 * np.eye(5))
            eig = normalized_precision_eigen(suite)
            assert abs(eig.values.sum() - 5.0) <= 1e-9

    def test_column_rescaling_invariance(self, rng):
        values = rng.standard_normal((60, 4))
        suite_a = build_suite(Dataset(values=values))
        scaled = values.copy()
        scaled[:, 2] *= 37.5
        suite_b = build_suite(Dataset(values=scaled))
        assert np.abs(
            suite_a.normalized_precision - suite_b.normalized_precision
        ).max() <= 1e-9

    def test_tree_top_eigenvalue_bounded(self, rng):
        # light version of the tree bound; the acceptance suite runs 500
        for _ in range(20):
            dag = random_dag(6, 1, rng=rng)
            _, values = analytic_normalized_precision(dag, unit_noise(6))
            assert values[0] <= 2.0 + 1e-9


class TestCsv:
    def test_round_trip(self, tmp_path, rng):
        data = Dataset(
            values=rng.standard_normal((7, 3)), variable_names=["alpha", "beta", "gamma"]
        )
        path = tmp_path / "d.csv"
        write_csv(data, path)
        back = read_csv(path)
        np.testing.assert_array_equal(back.values, data.values)
        assert back.variable_names == data.variable_names

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert err.value.row == 3 and err.value.column == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)
