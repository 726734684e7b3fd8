"""Sparsity testing for linear Bayesian networks from data.

Tests whether a network's maximum in-degree exceeds 1 using the largest
eigenvalue of the normalized inverse covariance matrix, with shrinkage and
second-order bias correction. Includes a simulation harness for calibration
and power studies, tree structure fitting, and a paired network-equality
permutation test.
"""

__version__ = "0.1.0"

from .asymptotics import (
    PROPAGATOR_FORMS,
    AsymptoticScalars,
    build_asymptotics,
)
from .covariance import (
    CovarianceSuite,
    Dataset,
    EigenSystem,
    build_suite,
    normalized_precision_eigen,
    read_csv,
    sample_covariance,
    suite_from_covariance,
    symmetric_eigen,
    write_csv,
)
from .errors import (
    BnSparsityError,
    ConvergenceError,
    CsvParseError,
    DegenerateVarianceError,
    InputError,
    InsufficientSampleError,
    NumericalError,
    SingularityError,
)
from .montecarlo import MonteCarloReport, MonteCarloRow, run_basic_simulation, run_power_study
from .simulate import (
    GenerativeModel,
    PowerChain,
    WeightedDag,
    analytic_normalized_precision,
    is_forest,
    max_in_degree,
    moral_graph,
    power_chain,
    random_dag,
    random_model,
    sample_dataset,
    tuned_top_eigenvalue_model,
)
from .sparsity import (
    CorrectedEigenvalue,
    ShrinkageEstimate,
    SparsityTestResult,
    corrected_top_eigenvalue,
    max_parents_test,
    shrink,
    shrinkage_intensity,
    student_t_quantile,
    student_t_sf,
)
from .trees import FittedTree, PermutationTestResult, chow_liu, paired_permutation_equality

__all__ = [
    "__version__",
    "AsymptoticScalars",
    "PROPAGATOR_FORMS",
    "BnSparsityError",
    "ConvergenceError",
    "CorrectedEigenvalue",
    "CovarianceSuite",
    "CsvParseError",
    "Dataset",
    "DegenerateVarianceError",
    "EigenSystem",
    "FittedTree",
    "GenerativeModel",
    "InputError",
    "InsufficientSampleError",
    "MonteCarloReport",
    "MonteCarloRow",
    "NumericalError",
    "PermutationTestResult",
    "PowerChain",
    "ShrinkageEstimate",
    "SingularityError",
    "SparsityTestResult",
    "WeightedDag",
    "analytic_normalized_precision",
    "build_asymptotics",
    "build_suite",
    "chow_liu",
    "corrected_top_eigenvalue",
    "is_forest",
    "max_in_degree",
    "max_parents_test",
    "moral_graph",
    "normalized_precision_eigen",
    "paired_permutation_equality",
    "power_chain",
    "random_dag",
    "random_model",
    "read_csv",
    "run_basic_simulation",
    "run_power_study",
    "sample_covariance",
    "sample_dataset",
    "shrink",
    "shrinkage_intensity",
    "student_t_quantile",
    "student_t_sf",
    "suite_from_covariance",
    "symmetric_eigen",
    "tuned_top_eigenvalue_model",
    "write_csv",
]
