"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bnsparsity import (
    Dataset,
    GenerativeModel,
    WeightedDag,
    build_suite,
    random_model,
    sample_dataset,
)


def chain_dag(p: int, weight: float = 1.0) -> WeightedDag:
    """Path graph 1 -> 2 -> ... -> p with a constant weight."""
    adjacency = np.zeros((p, p))
    for j in range(1, p):
        adjacency[j - 1, j] = weight
    return WeightedDag(adjacency=adjacency, order=np.arange(p))


def gaussian_model(dag: WeightedDag, variances: np.ndarray | None = None) -> GenerativeModel:
    """Kind-A (linear, Gaussian errors) model over ``dag``, with unit error
    variances unless ``variances`` is given."""
    if variances is None:
        variances = np.ones(dag.p)
    return GenerativeModel(kind="A", dag=dag, variances=variances)


def random_suite(rng: np.random.Generator, p: int = 4, n: int = 200, max_in_degree: int = 2):
    """Suite built from one random Gaussian linear-network dataset."""
    model = random_model("A", p, max_in_degree, rng=rng)
    data = sample_dataset(model, n, rng=rng)
    return build_suite(data), data


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def gaussian_dataset(rng: np.random.Generator, sigma: np.ndarray, n: int) -> Dataset:
    """n draws from N(0, sigma)."""
    chol = np.linalg.cholesky(sigma)
    return Dataset(values=rng.standard_normal((n, sigma.shape[0])) @ chol.T)
