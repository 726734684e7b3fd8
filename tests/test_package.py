"""The package's public surface: the names ``bnsparsity`` exports and the
module globals that the benchmark's trace hooks replace."""

import importlib

import pytest

import bnsparsity
from bnsparsity import sparsity

# Every name of ``bnsparsity.__all__``. Moving a function between modules
# must not move it out of here.
PUBLIC_NAMES = {
    "AsymptoticScalars", "BnSparsityError", "ConvergenceError", "CorrectedEigenvalue",
    "CovarianceSuite", "CsvParseError", "Dataset", "DegenerateVarianceError", "EigenSystem",
    "FittedTree", "GenerativeModel", "InputError", "InsufficientSampleError",
    "MonteCarloReport", "MonteCarloRow", "NumericalError", "PROPAGATOR_FORMS",
    "PermutationTestResult", "PowerChain", "ShrinkageEstimate", "SingularityError",
    "SparsityTestResult", "WeightedDag", "__version__",
    "analytic_normalized_precision", "build_asymptotics", "build_suite", "chow_liu",
    "corrected_top_eigenvalue", "is_forest", "max_in_degree", "max_parents_test",
    "moral_graph", "normalized_precision_eigen", "paired_permutation_equality",
    "power_chain", "random_dag", "random_model", "read_csv", "run_basic_simulation",
    "run_power_study", "sample_covariance", "sample_dataset", "shrink",
    "shrinkage_intensity", "student_t_quantile", "student_t_sf", "suite_from_covariance",
    "symmetric_eigen", "tuned_top_eigenvalue_model", "write_csv",
}


def test_public_names_are_unchanged_and_resolve():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(bnsparsity.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(bnsparsity, name), name
    # the test's stages are called through sparsity's module globals, the
    # names that bench/tracing.py hooks
    for name in ("build_suite", "normalized_precision_eigen", "build_asymptotics", "shrink",
                 "corrected_top_eigenvalue"):
        assert getattr(sparsity, name) is getattr(bnsparsity, name)
    # the eigensolver, shrinkage and bias correction live in covariance and
    # sparsity; their old modules are not kept as re-exporting shims
    for module in ("kernels", "shrinkage", "correction"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"bnsparsity.{module}")
