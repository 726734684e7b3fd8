"""Tree fitting and the paired permutation equality test."""

import itertools
import tracemalloc
import warnings

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


def explicit_swaps(n, m_iterations, seed):
    for child in np.random.SeedSequence(seed).spawn(m_iterations):
        yield np.random.default_rng(child).random(n) < 0.5


def explicit_swap_permutation(data_a, data_b, m_iterations, seed):
    """Oracle for paired_permutation_equality: swap the rows of each
    permutation explicitly and refit both trees with chow_liu. Returns the
    observed statistic, the permuted ones and the add-one p-value."""

    def score(values_a, values_b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = chow_liu(Dataset(values=values_a))
            b = chow_liu(Dataset(values=values_b))
        return a.total_score + b.total_score

    a, b = data_a.values, data_b.values
    observed = score(a, b)
    permuted = np.array([
        score(np.where(swap[:, None], b, a), np.where(swap[:, None], a, b))
        for swap in explicit_swaps(data_a.n, m_iterations, seed)
    ])
    exceed = np.count_nonzero(permuted >= observed)
    return observed, permuted, (1 + exceed) / (m_iterations + 1)


def assert_matches_explicit_swaps(data_a, data_b, m_iterations, seed):
    result = paired_permutation_equality(data_a, data_b, m_iterations=m_iterations, seed=seed)
    observed, permuted, p_value = explicit_swap_permutation(
        data_a, data_b, m_iterations, seed
    )
    np.testing.assert_allclose(result.observed_statistic, observed, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(result.permutation_statistics, permuted, rtol=1e-12, atol=0.0)
    assert result.p_value == p_value
    return result


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
    def test_bitwise_equal_to_sorted_union_find(self, p):
        rng = np.random.default_rng(p)
        data_a = sample_dataset(random_model("A", p, 2, rng=rng), 500, rng=rng)
        data_b = sample_dataset(random_model("A", p, 1, rng=rng), 500, rng=rng)
        for data in (data_a, data_b):
            tree, oracle = chow_liu(data), sorted_union_find_chow_liu(data)
            assert tree.edges == oracle.edges
            assert tree.total_score == oracle.total_score

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

    @pytest.mark.parametrize("shape", [(2, 4), (30, 1)])
    def test_size_preconditions(self, rng, shape):
        a = Dataset(values=rng.standard_normal(shape))
        with pytest.raises(InputError):
            paired_permutation_equality(a, a, m_iterations=99)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    def test_bad_alpha(self, rng, alpha):
        a = Dataset(values=rng.standard_normal((30, 4)))
        with pytest.raises(InputError):
            paired_permutation_equality(a, a, m_iterations=99, alpha=alpha)

    @pytest.mark.filterwarnings("error")
    def test_pooled_overflow_is_an_input_error(self, rng):
        # each group's own second moments are finite, but about the pooled
        # mean (and so in any swapped group) they overflow
        spread = rng.standard_normal((50, 3)) * 1e153
        a = Dataset(values=spread + 1e155)
        b = Dataset(values=spread - 1e155)
        with pytest.raises(InputError, match="overflow"):
            paired_permutation_equality(a, b, m_iterations=99)

    @pytest.mark.parametrize("p", [5, 20, 40, 60])
    def test_matches_explicit_swap_oracle(self, p):
        # the data of test_bitwise_equal_to_sorted_union_find (two different
        # networks), then two samples of one network, for a p-value inside
        rng = np.random.default_rng(p)
        different = [sample_dataset(random_model("A", p, d, rng=rng), 500, rng=rng) for d in (2, 1)]
        assert_matches_explicit_swaps(*different, 99, seed=p)
        model = random_model("A", p, 1, rng=rng)
        same = [sample_dataset(model, 500, rng=rng) for _ in range(2)]
        result = assert_matches_explicit_swaps(*same, 99, seed=p)
        assert 0.01 < result.p_value < 1.0

    def test_identical_inputs_match_explicit_swap_oracle(self, rng):
        values = rng.standard_normal((40, 5))
        result = assert_matches_explicit_swaps(
            Dataset(values=values), Dataset(values=values.copy()), 99, seed=0
        )
        assert result.p_value == 1.0
        assert all(s == result.observed_statistic for s in result.permutation_statistics)

    def test_column_constant_in_both_groups(self, rng):
        values_a = rng.standard_normal((100, 5))
        values_b = rng.standard_normal((100, 5))
        values_a[:, 2] = values_b[:, 2] = 3.0
        data_a, data_b = Dataset(values=values_a), Dataset(values=values_b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_matches_explicit_swaps(data_a, data_b, 99, seed=4)
        constant = [w for w in caught if "'x3' is constant" in str(w.message)]
        # once per dataset from the permutation test; the oracle's own
        # refits warn inside a suppressing context
        assert len(constant) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, p, value, other", [(100, 5, 1.0, 0.0), (137, 3, 0.82, 2.43)])
    def test_column_made_constant_by_a_swap(self, n, p, value, other):
        # column 0 of group A is `value` except in row 0, where group B holds
        # it; group B is `value` except in rows 1 and 2, where group A holds
        # it. So a swap of row 0 but not rows 1 and 2 leaves group A
        # constant, and the reverse leaves group B constant, each in about
        # 1/8 of the swaps. Neither input column is constant, so nothing
        # warns. In the second case the other columns carry little weight,
        # and the rounding residue of an undetected constant column would
        # show: 2.0e-12 relative.
        rng = np.random.default_rng(0)
        values_a = rng.standard_normal((n, p))
        values_b = rng.standard_normal((n, p))
        values_a[:, 0] = values_b[:, 0] = value
        values_a[0, 0] = other
        values_b[1:3, 0] = other
        data_a, data_b = Dataset(values=values_a), Dataset(values=values_b)
        assert_matches_explicit_swaps(data_a, data_b, 99, seed=6)
        made_constant = sum(
            np.ptp(np.where(swap, values_b[:, 0], values_a[:, 0])) == 0.0
            or np.ptp(np.where(swap, values_a[:, 0], values_b[:, 0])) == 0.0
            for swap in explicit_swaps(n, 99, seed=6)
        )
        assert made_constant >= 10

    @pytest.mark.parametrize("m_iterations", [199, 999])
    def test_working_set_is_bounded(self, m_iterations):
        # the swap-scaled rows of a chunk are held to 1 MB, so the peak (about
        # 2 MB) barely grows with M; the n x p(p+1)/2 matrix of every row's
        # cross-product change would need 7.3 MB on its own
        rng = np.random.default_rng(60)
        model = random_model("A", 60, 1, rng=rng)
        data_a = sample_dataset(model, 500, rng=rng)
        data_b = sample_dataset(model, 500, rng=rng)
        tracemalloc.start()
        try:
            paired_permutation_equality(data_a, data_b, m_iterations=m_iterations, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

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
