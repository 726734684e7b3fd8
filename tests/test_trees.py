"""Tree fitting and the paired permutation equality test."""

import itertools

import numpy as np
import pytest

from bnsparsity import (
    Dataset,
    GenerativeModel,
    InputError,
    NoiseSpec,
    WeightedDag,
    chow_liu,
    gaussian_mutual_information,
    paired_permutation_equality,
    random_model,
    sample_dataset,
)
from bnsparsity import trees

def weighted_chain_model(rng, p=10):
    adjacency = np.zeros((p, p))
    for j in range(1, p):
        adjacency[j - 1, j] = rng.uniform(0.8, 1.2) * rng.choice([-1.0, 1.0])
    dag = WeightedDag(adjacency=adjacency, order=np.arange(p))
    return GenerativeModel(kind="A", dag=dag, noise=NoiseSpec(variances=np.ones(p)))


def brute_force_best_tree_score(mi: np.ndarray) -> float:
    """Enumerate every labeled spanning tree (Pruefer sequences)."""
    p = mi.shape[0]
    if p == 2:
        return float(mi[0, 1])
    best = -np.inf
    for seq in itertools.product(range(p), repeat=p - 2):
        degree = [1] * p
        for v in seq:
            degree[v] += 1
        score = 0.0
        used = list(seq)
        leaves = sorted(v for v in range(p) if degree[v] == 1)
        for v in used:
            leaf = leaves.pop(0)
            score += mi[leaf, v]
            degree[v] -= 1
            if degree[v] == 1:
                import bisect

                bisect.insort(leaves, v)
        score += mi[leaves[0], leaves[1]]
        best = max(best, score)
    return float(best)


def sorted_union_find_chow_liu(data: Dataset) -> trees.FittedTree:
    """Oracle for chow_liu's edge choice and order: a Python sort of every
    pair by (-weight, i, j), then a union-find that stops at weight <= 0."""
    mi = trees._mutual_information_matrix(data.values)
    p = data.p
    pairs = sorted(itertools.combinations(range(p), 2), key=lambda e: (-mi[e], e))
    parent = list(range(p))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    edges = []
    for i, j in pairs:
        if mi[i, j] <= 0.0 or len(edges) == p - 1:
            break
        if find(i) != find(j):
            parent[find(i)] = find(j)
            edges.append((i, j, float(mi[i, j])))
    return trees.FittedTree(p=p, edges=edges, total_score=float(sum(w for _, _, w in edges)))


class TestMutualInformation:
    def test_zero_correlation(self):
        assert gaussian_mutual_information(0.0) == 0.0

    def test_symmetric_in_sign(self):
        assert gaussian_mutual_information(0.6) == gaussian_mutual_information(-0.6)

    def test_monotone_in_magnitude(self):
        values = [gaussian_mutual_information(r) for r in (0.1, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_perfect_correlation_is_finite(self):
        assert np.isfinite(gaussian_mutual_information(1.0))


class TestChowLiu:
    def test_two_correlated_columns(self, rng):
        x = rng.standard_normal(200)
        data = Dataset(values=np.column_stack([x, 0.8 * x + rng.standard_normal(200)]))
        tree = chow_liu(data)
        assert tree.edge_set() == {(0, 1)}

    def test_independent_columns_score_near_zero(self, rng):
        data = Dataset(values=rng.standard_normal((10_000, 4)))
        tree = chow_liu(data)
        assert all(w <= 0.001 for _, _, w in tree.edges)

    def test_chain_recovery(self, rng):
        # light version; acceptance criterion 12 runs 100 replicates
        hits = 0
        for _ in range(20):
            model = weighted_chain_model(rng)
            data = sample_dataset(model, 1000, rng=rng)
            tree = chow_liu(data)
            hits += tree.edge_set() == {(j - 1, j) for j in range(1, 10)}
        assert hits >= 18

    def test_constant_column_isolated_with_warning(self, rng):
        values = rng.standard_normal((50, 3))
        values[:, 1] = 4.25
        with pytest.warns(UserWarning, match="constant"):
            tree = chow_liu(Dataset(values=values))
        touched = {v for i, j, _ in tree.edges for v in (i, j)}
        assert 1 not in touched

    def test_ties_break_on_the_edge_index(self, rng):
        x = rng.standard_normal(50)
        values = np.column_stack([x, x, x, rng.standard_normal(50)])
        tree = chow_liu(Dataset(values=values))
        weights = trees._mutual_information_matrix(values)
        # three exactly equal weights, at the r^2 cap
        assert weights[0, 1] == weights[0, 2] == weights[1, 2] > 13.8
        assert {(0, 1), (0, 2)} <= tree.edge_set()
        assert (1, 2) not in tree.edge_set()

    @pytest.mark.parametrize("p", [5, 20, 40, 60])
    def test_bitwise_equal_to_sorted_union_find(self, p, monkeypatch):
        rng = np.random.default_rng(p)
        data_a = sample_dataset(random_model("A", p, 2, rng=rng), 500, rng=rng)
        data_b = sample_dataset(random_model("A", p, 1, rng=rng), 500, rng=rng)
        for data in (data_a, data_b):
            tree, oracle = chow_liu(data), sorted_union_find_chow_liu(data)
            assert tree.edges == oracle.edges
            assert tree.total_score == oracle.total_score
        fast = paired_permutation_equality(data_a, data_b, m_iterations=99, seed=p)
        monkeypatch.setattr(trees, "chow_liu", sorted_union_find_chow_liu)
        slow = paired_permutation_equality(data_a, data_b, m_iterations=99, seed=p)
        assert fast.permutation_statistics == slow.permutation_statistics
        assert fast.observed_statistic == slow.observed_statistic

    def test_size_preconditions(self, rng):
        with pytest.raises(InputError):
            chow_liu(Dataset(values=rng.standard_normal((2, 3))))
        with pytest.raises(InputError):
            chow_liu(Dataset(values=rng.standard_normal((10, 1))))

    def test_matches_brute_force_small(self, rng):
        for _ in range(10):
            p = int(rng.integers(3, 7))
            values = rng.standard_normal((40, p)) @ rng.standard_normal((p, p))
            tree = chow_liu(Dataset(values=values))
            from bnsparsity.trees import _mutual_information_matrix

            mi = _mutual_information_matrix(values)
            assert tree.total_score == pytest.approx(
                brute_force_best_tree_score(mi), rel=1e-10
            )

    def test_exports(self, rng):
        model = weighted_chain_model(rng, p=4)
        data = sample_dataset(model, 200, rng=rng)
        tree = chow_liu(data)
        dot = tree.to_dot(data.names())
        assert "graph tree {" in dot and dot.count("--") == len(tree.edges)
        lines = tree.to_edge_list().strip().splitlines()
        assert len(lines) == len(tree.edges)


class TestPairedPermutation:
    def test_identical_inputs_give_p_one(self, rng):
        values = rng.standard_normal((40, 5))
        a = Dataset(values=values)
        b = Dataset(values=values.copy())
        result = paired_permutation_equality(a, b, m_iterations=99, seed=0)
        assert result.p_value == 1.0
        assert all(s == result.observed_statistic for s in result.permutation_statistics)

    def test_determinism(self, rng):
        a = Dataset(values=rng.standard_normal((30, 4)))
        b = Dataset(values=rng.standard_normal((30, 4)))
        r1 = paired_permutation_equality(a, b, m_iterations=99, seed=42)
        r2 = paired_permutation_equality(a, b, m_iterations=99, seed=42)
        assert r1.p_value == r2.p_value
        assert r1.permutation_statistics == r2.permutation_statistics

    def test_p_value_in_unit_interval(self, rng):
        a = Dataset(values=rng.standard_normal((25, 3)))
        b = Dataset(values=rng.standard_normal((25, 3)))
        result = paired_permutation_equality(a, b, m_iterations=99, seed=1)
        assert 0.0 < result.p_value <= 1.0

    def test_shape_mismatch(self, rng):
        a = Dataset(values=rng.standard_normal((30, 4)))
        b = Dataset(values=rng.standard_normal((30, 5)))
        with pytest.raises(InputError):
            paired_permutation_equality(a, b)

    def test_minimum_iterations(self, rng):
        a = Dataset(values=rng.standard_normal((30, 4)))
        with pytest.raises(InputError):
            paired_permutation_equality(a, a, m_iterations=50)

    def test_null_calibration_light(self):
        # acceptance criterion 13 runs the 100-replicate version
        rejections = 0
        for r in range(40):
            rng = np.random.default_rng(9000 + r)
            model = random_model("A", 8, 1, rng=rng)
            a = sample_dataset(model, 60, rng=rng)
            b = sample_dataset(model, 60, rng=rng)
            result = paired_permutation_equality(a, b, m_iterations=199, seed=r)
            rejections += result.p_value < 0.05
        assert rejections <= 4

    def test_power_against_different_structure(self):
        rejections = 0
        for r in range(30):
            rng = np.random.default_rng(7000 + r)
            chain_model = weighted_chain_model(rng)
            other = random_model("A", 10, 3, rng=rng)
            a = sample_dataset(chain_model, 100, rng=rng)
            b = sample_dataset(other, 100, rng=rng)
            result = paired_permutation_equality(a, b, m_iterations=299, seed=r)
            rejections += result.p_value < 0.05
        assert rejections >= 24

    def test_json_round_trip(self, rng):
        a = Dataset(values=rng.standard_normal((20, 3)))
        b = Dataset(values=rng.standard_normal((20, 3)))
        result = paired_permutation_equality(a, b, m_iterations=99, seed=3)
        import json

        parsed = json.loads(result.to_json())
        assert parsed["p_value"] == result.p_value
        assert parsed["m_iterations"] == 99
