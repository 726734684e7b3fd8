"""Identities of the dense vec, K, D and selector oracles and of the
commutation permutation, and the symmetric eigensolver contract."""

import numpy as np
import pytest

from bnsparsity import (
    ConvergenceError,
    Dataset,
    InputError,
    run_basic_simulation,
    symmetric_eigen,
    write_csv,
)
from bnsparsity.cli import main
from conftest import random_suite
from oracles import (
    commutation_indices,
    commutation_matrix,
    diagonalization_matrix,
    selector_matrix,
    vec,
)


def _jacobi_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference eigensolver: cyclic Jacobi rotations in Python loops.

    Sweeps until the off-diagonal Frobenius norm is below 1e-12 * ||A||_F,
    then applies the package's descending order and largest-entry-positive
    sign rule. Slow (the loops hold the interpreter), but independent of
    LAPACK.
    """
    work = 0.5 * (a + a.T)
    p = work.shape[0]
    vectors = np.eye(p)
    fro = float(np.linalg.norm(work))

    def off_diagonal_norm() -> float:
        return float(np.linalg.norm(work - np.diag(np.diag(work))))

    if p > 1 and fro > 0.0:
        for _ in range(64 * p):
            if off_diagonal_norm() <= 1e-12 * fro:
                break
            for i in range(p - 1):
                for j in range(i + 1, p):
                    apq = work[i, j]
                    if apq == 0.0:
                        continue
                    diff = work[j, j] - work[i, i]
                    if abs(apq) < abs(diff) * 5e-151:
                        # rotation angle below machine resolution; zeroing
                        # the pivot is exact to working precision
                        work[i, j] = 0.0
                        work[j, i] = 0.0
                        continue
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    gi = work[:, i].copy()
                    gj = work[:, j].copy()
                    work[:, i] = c * gi - s * gj
                    work[:, j] = s * gi + c * gj
                    gi = work[i, :].copy()
                    gj = work[j, :].copy()
                    work[i, :] = c * gi - s * gj
                    work[j, :] = s * gi + c * gj
                    work[i, j] = 0.0
                    work[j, i] = 0.0
                    gi = vectors[:, i].copy()
                    gj = vectors[:, j].copy()
                    vectors[:, i] = c * gi - s * gj
                    vectors[:, j] = s * gi + c * gj
        assert off_diagonal_norm() <= 1e-12 * fro, "Jacobi reference did not converge"

    values = np.diag(work).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    for k in range(p):
        col = vectors[:, k]
        if col[np.argmax(np.abs(col))] < 0.0:
            vectors[:, k] = -col
    return values, vectors


class TestVec:
    def test_column_stacking(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])  # [[a, b], [c, d]] with a=1 b=3 c=2 d=4
        np.testing.assert_array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])

    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_vec_of_triple_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
            lhs = vec(a @ b @ c)
            rhs = np.kron(c.T, a) @ vec(b)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)


class TestCommutationMatrix:
    def test_one_dimensional(self):
        np.testing.assert_array_equal(commutation_matrix(1), [[1.0]])

    def test_vec_transpose_p2(self):
        np.testing.assert_array_equal(
            commutation_matrix(2) @ np.array([1.0, 3.0, 2.0, 4.0]),
            [1.0, 2.0, 3.0, 4.0],
        )

    def test_vec_transpose_exact(self):
        rng = np.random.default_rng(5)
        for p in range(1, 9):
            k = commutation_matrix(p)
            a = rng.standard_normal((p, p))
            np.testing.assert_array_equal(k @ vec(a), vec(a.T))

    def test_is_permutation(self):
        k = commutation_matrix(5)
        assert np.all(k.sum(axis=0) == 1) and np.all(k.sum(axis=1) == 1)
        assert set(np.unique(k)) == {0.0, 1.0}

    def test_kron_swap_identity(self):
        rng = np.random.default_rng(6)
        k = commutation_matrix(3)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            assert np.abs(k @ np.kron(a, b) - np.kron(b, a) @ k).max() <= 1e-12

    def test_indices_match_dense(self):
        for p in (1, 2, 3, 7):
            idx = commutation_indices(p)
            m = np.random.default_rng(p).standard_normal((p * p, p * p))
            np.testing.assert_array_equal(commutation_matrix(p) @ m, m[idx])

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            commutation_matrix(129)
        with pytest.raises(InputError):
            commutation_matrix(0)


class TestDiagonalizationMatrix:
    def test_p2_example(self):
        np.testing.assert_array_equal(
            diagonalization_matrix(2) @ np.array([1.0, 3.0, 2.0, 4.0]),
            [1.0, 0.0, 0.0, 4.0],
        )

    def test_fixes_identity(self):
        for p in (1, 3, 5):
            np.testing.assert_array_equal(
                diagonalization_matrix(p) @ vec(np.eye(p)), vec(np.eye(p))
            )

    def test_projects_to_diagonal_exactly(self):
        rng = np.random.default_rng(7)
        for p in range(1, 7):
            a = rng.standard_normal((p, p))
            np.testing.assert_array_equal(
                diagonalization_matrix(p) @ vec(a), vec(np.diag(np.diag(a)))
            )

    def test_idempotent(self):
        for p in range(1, 7):
            d = diagonalization_matrix(p)
            np.testing.assert_array_equal(d @ d, d)


class TestSelectorMatrix:
    def test_p2_columns(self):
        j = selector_matrix(2)
        np.testing.assert_array_equal(j[:, 0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(j[:, 1], [0.0, 0.0, 0.0, 1.0])

    def test_extracts_diagonal(self):
        rng = np.random.default_rng(8)
        for p in (2, 4, 6):
            a = rng.standard_normal((p, p))
            np.testing.assert_array_equal(selector_matrix(p).T @ vec(a), np.diag(a))

    def test_orthonormal_columns(self):
        for p in (1, 3, 5):
            j = selector_matrix(p)
            np.testing.assert_array_equal(j.T @ j, np.eye(p))


class TestSymmetricEigen:
    def test_analytic_2x2(self):
        eig = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.values, [3.0, 1.0], atol=1e-12)

    def test_identity(self):
        eig = symmetric_eigen(np.eye(5))
        np.testing.assert_array_equal(eig.values, np.ones(5))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = rng.standard_normal((6, 6))
            a = m + m.T
            eig = symmetric_eigen(a)
            recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
            scale = np.abs(a).max()
            assert np.abs(recon - a).max() <= 1e-9 * scale
            assert np.abs(eig.vectors.T @ eig.vectors - np.eye(6)).max() <= 1e-10 * 6
            assert np.all(np.diff(eig.values) <= 0)

    def test_trace_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = rng.standard_normal((8, 8))
            a = m + m.T
            eig = symmetric_eigen(a)
            assert abs(eig.values.sum() - np.trace(a)) <= 1e-9 * max(abs(np.trace(a)), 1.0)

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((7, 7))
        a = m + m.T
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        before = symmetric_eigen(a).values
        after = symmetric_eigen(q @ a @ q.T).values
        assert np.abs(before - after).max() <= 1e-8 * np.abs(before).max()

    def test_sign_convention(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((5, 5))
        eig = symmetric_eigen(m + m.T)
        for k in range(5):
            col = eig.vectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 6))
        a = m + m.T
        e1 = symmetric_eigen(a)
        e2 = symmetric_eigen(a)
        np.testing.assert_array_equal(e1.values, e2.values)
        np.testing.assert_array_equal(e1.vectors, e2.vectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            symmetric_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        eig = symmetric_eigen(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.values, np.zeros(3))

    def test_convergence_error_names_budget(self):
        # LAPACK converges on any finite symmetric matrix, so its failure is
        # forced in test_lapack_failure_is_a_convergence_error; here check
        # the exit code that failure maps to.
        assert ConvergenceError("x").exit_code == 3

    def test_matches_jacobi_reference(self):
        # Tolerances fixed beforehand: eigenvalues within 1e-10 * ||A||_F;
        # eigenvectors within 1e-7 where both neighbouring eigengaps exceed
        # 1e-4 * ||A||_F (a vector is only defined up to its gaps).
        rng = np.random.default_rng(14)
        matrices = []
        for p in (2, 6, 20):
            m = rng.standard_normal((p, p))
            matrices.append(m + m.T)
        for p in (5, 20, 40):
            suite, _ = random_suite(rng, p=p, n=200)
            matrices.append(suite.normalized_precision)
        compared = 0
        for a in matrices:
            fro = float(np.linalg.norm(a))
            ref_values, ref_vectors = _jacobi_eigen(a)
            eig = symmetric_eigen(a)
            assert np.abs(eig.values - ref_values).max() <= 1e-10 * fro
            gaps = np.concatenate(([np.inf], -np.diff(ref_values), [np.inf]))
            separated = np.minimum(gaps[:-1], gaps[1:]) > 1e-4 * fro
            assert np.abs(eig.vectors - ref_vectors)[:, separated].max(initial=0.0) <= 1e-7
            compared += int(separated.sum())
        assert compared >= 80  # all 93 eigenvectors are separated at these seeds

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch, tmp_path, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConvergenceError):
            symmetric_eigen(np.eye(3))

        # forked workers inherit the patch
        for threads in (1, 2):
            report = run_basic_simulation(
                "sim1", replicates=50, seed=5, models=("A",), n_values=(40,), p=5,
                threads=threads,
            )
            (row,) = report.rows
            assert row.failures == row.requested == 50 and row.completed == 0
            assert row.failure_types == {"ConvergenceError": 50}

        path = tmp_path / "data.csv"
        write_csv(Dataset(values=np.random.default_rng(15).standard_normal((40, 5))), path)
        assert main(["test", str(path)]) == 3
        err = capsys.readouterr().err
        assert "did not converge" in err and "Traceback" not in err
