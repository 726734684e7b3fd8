"""Random DAG generation, the five generative models, graph truths, and the
power-study chains."""

import numpy as np
import pytest

from bnsparsity import (
    GenerativeModel,
    InputError,
    WeightedDag,
    analytic_normalized_precision,
    is_forest,
    max_in_degree,
    moral_graph,
    power_chain,
    random_dag,
    random_model,
    sample_covariance,
    sample_dataset,
    tuned_top_eigenvalue_model,
)
from conftest import chain_dag, gaussian_model


class TestWeightedDag:
    def test_rejects_cycle(self):
        adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InputError):
            WeightedDag(adjacency=adjacency, order=np.array([0, 1]))

    def test_rejects_self_loop(self):
        adjacency = np.diag([1.0, 0.0])
        with pytest.raises(InputError):
            WeightedDag(adjacency=adjacency, order=np.array([0, 1]))

    def test_edge_list_format(self):
        dag = chain_dag(3, 0.5)
        assert dag.to_edge_list() == "1 2 0.5\n2 3 0.5\n"

    def test_dot_contains_edges(self):
        dot = chain_dag(3).to_dot()
        assert "digraph" in dot and "v1 -> v2" in dot and "v2 -> v3" in dot


class TestRandomDag:
    def test_tree_target_bounds_parents(self, rng):
        for _ in range(50):
            dag = random_dag(8, 1, rng=rng)
            assert max_in_degree(dag) == 1
            assert is_forest(moral_graph(dag))

    def test_two_vertices_single_edge(self, rng):
        dag = random_dag(2, 1, rng=rng)
        assert dag.edge_count == 1
        assert dag.edges()[0][2] != 0.0

    def test_target_attained_exactly(self, rng):
        # module contract: every draw attains the target exactly
        for r in range(1000):
            dag = random_dag(20, 4, rng=rng)
            assert max_in_degree(dag) == 4

    def test_density_one_gives_spanning_tree(self, rng):
        dag = random_dag(12, 1, density=1.0, rng=rng)
        assert dag.edge_count == 11
        assert max_in_degree(dag) == 1

    def test_nilpotent(self, rng):
        for _ in range(20):
            dag = random_dag(7, 3, rng=rng)
            structure = (dag.adjacency != 0).astype(float)
            assert np.all(np.linalg.matrix_power(structure, 7) == 0)

    def test_infeasible_target(self, rng):
        with pytest.raises(InputError):
            random_dag(4, 4, rng=rng)
        with pytest.raises(InputError):
            random_dag(1, 0, rng=rng)

    def test_seed_determinism(self):
        a = random_dag(10, 3, rng=7)
        b = random_dag(10, 3, rng=7)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        np.testing.assert_array_equal(a.order, b.order)


class TestGenerativeModel:
    def test_kind_specific_fields_enforced(self, rng):
        dag = random_dag(4, 1, rng=rng)
        variances = np.ones(4)
        with pytest.raises(InputError):
            GenerativeModel(kind="A", dag=dag, variances=variances, glm_families=["gaussian"] * 4)
        with pytest.raises(InputError):
            GenerativeModel(kind="D", dag=dag, variances=variances)

    def test_random_model_families(self, rng):
        model = random_model("D", 30, 2, rng=rng)
        assert len(model.glm_families) == 30
        assert set(model.glm_families) <= {"gaussian", "bernoulli", "poisson"}
        model_e = random_model("E", 30, 2, rng=rng)
        assert set(model_e.nonlinearities) <= {"abs", "sign", "scaled-expit"}

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_variances_positive_and_finite(self, bad):
        with pytest.raises(InputError, match="positive and finite"):
            GenerativeModel(kind="A", dag=chain_dag(2), variances=np.array([1.0, bad]))

    @pytest.mark.parametrize("count", [2, 5])
    def test_one_noise_variance_per_vertex(self, count):
        # too many used to be cut to the first p, too few an IndexError
        with pytest.raises(InputError, match="one entry per vertex"):
            GenerativeModel(kind="A", dag=chain_dag(3), variances=np.ones(count))


class TestSampleDataset:
    def test_empty_graph_is_iid_normal(self, rng):
        dag = WeightedDag(adjacency=np.zeros((4, 4)), order=np.arange(4))
        model = GenerativeModel(kind="A", dag=dag, variances=np.ones(4))
        data = sample_dataset(model, 100_000, rng=rng)
        assert np.abs(data.values.mean(axis=0)).max() <= 0.02
        assert np.abs(data.values.var(axis=0) - 1.0).max() <= 0.02
        assert np.abs(np.corrcoef(data.values.T) - np.eye(4)).max() <= 0.02

    def test_chain_covariance_matches_analytic(self, rng):
        dag = chain_dag(3)
        model = GenerativeModel(kind="A", dag=dag, variances=np.ones(3))
        data = sample_dataset(model, 100_000, rng=rng)
        b_inv = np.linalg.inv(np.eye(3) - dag.adjacency.T)
        sigma = b_inv @ b_inv.T
        rel = np.abs(sample_covariance(data) - sigma) / np.abs(sigma).max()
        assert rel.max() <= 0.03

    def test_sign_nonlinearity_moment(self, rng):
        # child = sign(parent) + noise: variance 1 + 1 = 2
        dag = chain_dag(2)
        model = GenerativeModel(
            kind="E", dag=dag, variances=np.ones(2), nonlinearities=["sign", "sign"]
        )
        data = sample_dataset(model, 100_000, rng=rng)
        assert data.values[:, 1].var() == pytest.approx(2.0, rel=0.03)

    def test_model_d_column_types(self, rng):
        p = 12
        dag = random_dag(p, 2, rng=rng)
        families = ["gaussian", "bernoulli", "poisson"] * 4
        model = GenerativeModel(
            kind="D",
            dag=dag,
            variances=np.ones(p),
            glm_families=families,
        )
        data = sample_dataset(model, 200, rng=rng)
        for v, family in enumerate(families):
            column = data.values[:, v]
            if family == "bernoulli":
                assert set(np.unique(column)) <= {0.0, 1.0}
            elif family == "poisson":
                assert np.all(column >= 0) and np.all(column == np.round(column))

    def test_heavy_tail_models_run(self, rng):
        for kind in ("B", "C"):
            model = random_model(kind, 5, 1, rng=rng)
            data = sample_dataset(model, 50, rng=rng)
            assert data.values.shape == (50, 5)

    def test_seed_determinism(self, rng):
        model = random_model("A", 6, 2, rng=rng)
        a = sample_dataset(model, 40, rng=123)
        b = sample_dataset(model, 40, rng=123)
        np.testing.assert_array_equal(a.values, b.values)


class TestAnalyticTruth:
    def test_empty_graph(self):
        dag = WeightedDag(adjacency=np.zeros((5, 5)), order=np.arange(5))
        omega, values = analytic_normalized_precision(gaussian_model(dag))
        np.testing.assert_allclose(omega, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(values, np.ones(5), atol=1e-12)

    def test_chain_eigenvalues(self):
        _, values = analytic_normalized_precision(gaussian_model(chain_dag(3)))
        expected = [1.0 + np.sqrt(3.0) / 2.0, 1.0, 1.0 - np.sqrt(3.0) / 2.0]
        np.testing.assert_allclose(values, expected, atol=1e-10)

    @pytest.mark.parametrize("kind", ["B", "C", "D", "E"])
    def test_refuses_every_kind_but_a(self, rng, kind):
        # the truth is linear-Gaussian; heavy-tailed, GLM and nonlinear
        # models have another
        with pytest.raises(InputError, match="kind-A"):
            analytic_normalized_precision(random_model(kind, 5, 1, rng=rng))

    def test_tree_bound_light(self, rng):
        for _ in range(30):
            p = int(rng.integers(3, 10))
            dag = random_dag(p, 1, rng=rng)
            variances = rng.uniform(0.5, 1.5, p)
            _, values = analytic_normalized_precision(gaussian_model(dag, variances))
            assert values[0] <= 2.0 + 1e-9


def _edges(adjacency: np.ndarray) -> set:
    rows, cols = np.nonzero(np.triu(adjacency))
    return {(int(i), int(j)) for i, j in zip(rows, cols)}


def _markov_boundary(dag: WeightedDag, v: int) -> set:
    structure = dag.adjacency != 0
    parents = set(np.flatnonzero(structure[:, v]).tolist())
    children = set(np.flatnonzero(structure[v, :]).tolist())
    co_parents = set()
    for child in children:
        co_parents |= set(np.flatnonzero(structure[:, child]).tolist())
    return (parents | children | co_parents) - {v}


class TestMoralGraph:
    def test_collider_marries_parents(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 2] = 1.0
        adjacency[1, 2] = 1.0
        dag = WeightedDag(adjacency=adjacency, order=np.array([0, 1, 2]))
        graph = moral_graph(dag)
        assert _edges(graph) == {(0, 1), (0, 2), (1, 2)}
        assert not is_forest(graph)

    def test_chain(self):
        graph = moral_graph(chain_dag(3))
        assert _edges(graph) == {(0, 1), (1, 2)}
        assert is_forest(graph)

    def test_matches_markov_boundary_definition(self, rng):
        for _ in range(50):
            p = int(rng.integers(3, 8))
            dag = random_dag(p, min(3, p - 1), rng=rng)
            graph = moral_graph(dag)
            assert graph.dtype.kind == "i"
            np.testing.assert_array_equal(graph, graph.T)
            for i in range(p):
                for j in range(p):
                    expected = int(i != j and i in _markov_boundary(dag, j))
                    assert graph[i, j] == expected

    def test_forest_equivalence_light(self, rng):
        # full 500-draw version runs in the acceptance suite
        for _ in range(50):
            p = int(rng.integers(3, 9))
            dag = random_dag(p, int(rng.integers(0, min(4, p - 1) + 1)), rng=rng)
            assert is_forest(moral_graph(dag)) == (max_in_degree(dag) <= 1)


class TestIsForest:
    def test_triangle_is_not_forest(self):
        adjacency = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        assert not is_forest(adjacency)

    def test_list_of_lists_is_accepted(self):
        assert is_forest([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert not is_forest([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_every_non_zero_entry_is_an_edge(self):
        # a weighted triangle; an int cast would round its entries to 0
        weighted = np.full((3, 3), 0.5) - np.diag(np.full(3, 0.5))
        assert not is_forest(weighted)

    @pytest.mark.parametrize(
        "adjacency, message",
        [
            (np.zeros((2, 3), dtype=int), "square"),
            (np.zeros(3, dtype=int), "square"),
            (np.array([[0, 1], [0, 0]]), "symmetric"),
            (np.array([[1, 0], [0, 0]]), "zero diagonal"),
            ([[0, 1], [1]], "numeric array"),
            ([[0, "x"], ["x", 0]], "numeric array"),
        ],
        ids=["non-square", "one-dimensional", "asymmetric", "non-zero-diagonal", "ragged",
             "non-numeric"],
    )
    def test_validation(self, adjacency, message):
        with pytest.raises(InputError, match=message):
            is_forest(adjacency)


class TestPowerChain:
    def test_structure_counts_and_violations(self, rng):
        chain_set = power_chain(p=15, edges_per_step=6, steps=10, chains=3, rng=rng)
        base = chain_set.base
        assert base.edge_count == 14
        assert max_in_degree(base) == 1
        assert is_forest(moral_graph(base))
        for graphs in chain_set.chains:
            for k, dag in enumerate(graphs, start=1):
                assert dag.edge_count == 14 + 6 * k
                assert max_in_degree(dag) >= 2

    def test_base_is_connected_tree(self, rng):
        chain_set = power_chain(p=10, steps=2, chains=1, rng=rng)
        graph = moral_graph(chain_set.base)
        # p - 1 edges and no cycles means connected
        assert len(_edges(graph)) == 9
        assert is_forest(graph)

    def test_determinism(self):
        a = power_chain(p=8, edges_per_step=2, steps=3, chains=2, rng=11)
        b = power_chain(p=8, edges_per_step=2, steps=3, chains=2, rng=11)
        np.testing.assert_array_equal(a.base.adjacency, b.base.adjacency)
        for ca, cb in zip(a.chains, b.chains):
            for da, db in zip(ca, cb):
                np.testing.assert_array_equal(da.adjacency, db.adjacency)

    def test_not_enough_edges(self, rng):
        with pytest.raises(InputError):
            power_chain(p=5, edges_per_step=6, steps=2, chains=1, rng=rng)


class TestTunedModel:
    @pytest.mark.parametrize("target", [2.0, 2.4])
    def test_hits_target(self, target):
        model = tuned_top_eigenvalue_model(target, p=20)
        _, values = analytic_normalized_precision(model)
        assert values[0] == pytest.approx(target, abs=1e-8)

    def test_large_target(self):
        model = tuned_top_eigenvalue_model(5.8, p=20)
        _, values = analytic_normalized_precision(model)
        assert values[0] == pytest.approx(5.8, abs=1e-8)

    def test_unreachable_target(self):
        with pytest.raises(InputError):
            tuned_top_eigenvalue_model(50.0, p=5)
