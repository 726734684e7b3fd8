"""Tree fitting and the paired permutation equality test."""

import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from bnsparsity import (
    Dataset,
    GenerativeModel,
    InputError,
    WeightedDag,
    chow_liu,
    paired_permutation_equality,
    random_model,
    sample_dataset,
)
from bnsparsity import trees
from oracles import gaussian_mutual_information, mutual_information_matrix

def weighted_chain_model(rng, p=10):
    adjacency = np.zeros((p, p))
    for j in range(1, p):
        adjacency[j - 1, j] = rng.uniform(0.8, 1.2) * rng.choice([-1.0, 1.0])
    dag = WeightedDag(adjacency=adjacency, order=np.arange(p))
    return GenerativeModel(kind="A", dag=dag, variances=np.ones(p))


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
    mi = mutual_information_matrix(data.values)
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


def product_budgets(n, p):
    """``trees._PRODUCT_BYTES`` values that put an n x p pair on the pair
    path (the n x p(p+1)/2 pair products just fit) and on the chunked path."""
    pair_bytes = 8 * n * p * (p + 1) // 2
    return {"pairs": pair_bytes, "chunked": pair_bytes - 1}


def assert_matches_explicit_swaps(
    data_a, data_b, m_iterations, seed, rtol=1e-12, path_rtol=1e-13
):
    """Run the test on each product path; each must match the explicit-swap
    oracle within ``rtol`` and the other path within ``path_rtol``, with the
    oracle's p-value. Returns the pair path's result."""
    observed, permuted, p_value = explicit_swap_permutation(
        data_a, data_b, m_iterations, seed
    )
    results = []
    for budget in product_budgets(*data_a.values.shape).values():
        with mock.patch.object(trees, "_PRODUCT_BYTES", budget):
            result = paired_permutation_equality(
                data_a, data_b, m_iterations=m_iterations, seed=seed
            )
        np.testing.assert_allclose(result.observed_statistic, observed, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(result.permutation_statistics, permuted, rtol=rtol, atol=0.0)
        assert result.p_value == p_value
        results.append(result)
    pairs, chunked = results
    np.testing.assert_allclose(
        pairs.observed_statistic, chunked.observed_statistic, rtol=path_rtol, atol=0.0
    )
    np.testing.assert_allclose(
        pairs.permutation_statistics, chunked.permutation_statistics, rtol=path_rtol, atol=0.0
    )
    return pairs


# one, two and seven entropy words, and the largest of one word
DRAW_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 17, 20230712]


class TestSwapDraws:
    @pytest.mark.parametrize("m_iterations", [99, 257, 1023, 1024, 1025, 2100])
    @pytest.mark.parametrize("seed", DRAW_SEEDS + [None])
    def test_child_states_match_spawned_children(self, seed, m_iterations):
        # None is a fresh 128-bit entropy, as paired_permutation_equality
        # gets with seed=None
        entropy = np.random.SeedSequence(seed).entropy
        children = np.random.SeedSequence(entropy).spawn(m_iterations)
        expected = np.array([child.generate_state(4, np.uint64) for child in children])
        block = trees._STATE_BLOCK
        states = np.concatenate([
            trees._child_states(entropy, lo, min(lo + block, m_iterations))
            for lo in range(0, m_iterations, block)
        ])
        assert states.dtype == np.uint64
        np.testing.assert_array_equal(states, expected)

    @pytest.mark.parametrize("m_iterations, batch", [(99, 7), (1025, 100), (2100, 2101)])
    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_swap_vectors_match_explicit_swaps(self, seed, m_iterations, batch):
        n = 37
        out = np.empty((batch, n))
        batches = []
        for swaps in trees._swap_vectors(m_iterations, seed, out):
            # each batch is the head of the one buffer, which the next overwrites
            assert swaps.base is out and swaps.ctypes.data == out.ctypes.data
            batches.append(swaps.copy())
        assert [len(swaps) for swaps in batches[:-1]] == [batch] * (len(batches) - 1)
        swaps = np.concatenate(batches)
        expected = np.array([np.zeros(n, dtype=bool), *explicit_swaps(n, m_iterations, seed)])
        assert swaps.dtype == float
        np.testing.assert_array_equal(swaps, expected.astype(float))


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

    def test_matrix_matches_scalar_oracle(self, rng):
        x = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 5))
        values = np.column_stack([x, x[:, 0]])  # a duplicate hits the r^2 cap
        corr = np.corrcoef(values, rowvar=False)
        mi = mutual_information_matrix(values)
        for i, j in itertools.combinations(range(6), 2):
            assert mi[i, j] == pytest.approx(gaussian_mutual_information(corr[i, j]), rel=1e-10)


class TestChowLiu:
    def test_two_correlated_columns(self, rng):
        x = rng.standard_normal(200)
        data = Dataset(values=np.column_stack([x, 0.8 * x + rng.standard_normal(200)]))
        tree = chow_liu(data)
        assert {(i, j) for i, j, _ in tree.edges} == {(0, 1)}

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
            hits += {(i, j) for i, j, _ in tree.edges} == {(j - 1, j) for j in range(1, 10)}
        assert hits >= 18

    def test_constant_column_isolated_with_warning(self, rng):
        # the mean of 60 copies of 0.1 is not 0.1, so centring by it leaves
        # a tiny nonzero column
        for n, value in ((50, 4.25), (60, 0.1)):
            values = rng.standard_normal((n, 3))
            values[:, 1] = value
            with pytest.warns(UserWarning, match="constant"):
                tree = chow_liu(Dataset(values=values))
            touched = {v for i, j, _ in tree.edges for v in (i, j)}
            assert 1 not in touched

    def test_ties_break_on_the_edge_index(self, rng):
        x = rng.standard_normal(50)
        values = np.column_stack([x, x, x, rng.standard_normal(50)])
        tree = chow_liu(Dataset(values=values))
        weights = mutual_information_matrix(values)
        # three exactly equal weights, at the r^2 cap
        assert weights[0, 1] == weights[0, 2] == weights[1, 2] > 13.8
        edges = {(i, j) for i, j, _ in tree.edges}
        assert {(0, 1), (0, 2)} <= edges
        assert (1, 2) not in edges

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
            mi = mutual_information_matrix(values)
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

    def test_named_columns_must_match(self, rng):
        # the same four variables in reversed column order would otherwise be
        # paired by position
        values = rng.standard_normal((30, 4))
        names = ["w", "x", "y", "z"]
        a = Dataset(values=values, variable_names=names)
        b = Dataset(values=values[:, ::-1], variable_names=names[::-1])
        with pytest.raises(InputError, match="column 1 is 'w' in the first and 'z' in the second"):
            paired_permutation_equality(a, b, m_iterations=99, seed=0)
        renamed = Dataset(values=values, variable_names=["w", "x", "y", "v"])
        with pytest.raises(InputError, match="column 4 is 'z' in the first and 'v'"):
            paired_permutation_equality(a, renamed, m_iterations=99, seed=0)
        # names on one side only, or equal names, pair by position as before
        unnamed = Dataset(values=values[:, ::-1])
        same = Dataset(values=values[:, ::-1], variable_names=names)
        for other in (unnamed, same):
            assert paired_permutation_equality(a, other, m_iterations=99, seed=0).p_value < 1.0

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
        with pytest.raises(InputError, match=r"alpha must be in \(0, 1\)"):
            paired_permutation_equality(a, a, m_iterations=99, alpha=alpha)

    def test_negative_seed_is_an_input_error(self, rng):
        a = Dataset(values=rng.standard_normal((30, 4)))
        with pytest.raises(InputError, match="seed must be non-negative"):
            paired_permutation_equality(a, a, m_iterations=99, seed=-1)

    def test_refuses_spawn_keys_of_two_words(self, rng, monkeypatch):
        # child 2**32 would need a two-word spawn key, which the vectorized
        # seed hash does not cover; the check comes before any work
        data_a = Dataset(values=rng.standard_normal((500, 60)))
        data_b = Dataset(values=rng.standard_normal((500, 60)))

        def reached(*args):
            raise AssertionError("reached")

        for name in ("_checked_centering", "_SwapLinearMoments", "_swap_vectors"):
            monkeypatch.setattr(trees, name, reached)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="at most 4294967295 permutation"):
                paired_permutation_equality(data_a, data_b, m_iterations=2**32, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # each dataset is 240 KB
        assert peak < 20_000
        with pytest.raises(AssertionError, match="reached"):
            paired_permutation_equality(data_a, data_b, m_iterations=2**32 - 1, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_pooled_overflow_is_an_input_error(self, rng):
        # each group's own second moments are finite, but about the pooled
        # mean (and so in any swapped group) they overflow
        spread = rng.standard_normal((50, 3)) * 1e153
        a = Dataset(values=spread + 1e155)
        b = Dataset(values=spread - 1e155)
        with pytest.raises(InputError, match="overflow"):
            paired_permutation_equality(a, b, m_iterations=99)

    @pytest.mark.parametrize(
        "kind, p, n, m_iterations, seed, rtol, path_rtol",
        [pytest.param("A", p, 500, 99, p, 1e-12, 1e-13, id=str(p)) for p in (5, 20, 40, 60)]
        # Cauchy errors: a swap that moves an outlier leaves one group's
        # column variance far below the pooled one, and the pooled-mean
        # moments lose digits there. This pair reaches 3.0e-9 relative on
        # either product path, and the paths, which round differently,
        # differ by up to 1.3e-9.
        + [pytest.param("C", 8, 100, 199, 5, 1e-8, 1e-8, id="cauchy-8")],
    )
    def test_matches_explicit_swap_oracle(self, kind, p, n, m_iterations, seed, rtol, path_rtol):
        # Gaussian cases first take the data of
        # test_bitwise_equal_to_sorted_union_find (two different networks);
        # every case then takes two samples of one network, for a p-value
        # inside
        rng = np.random.default_rng(seed)
        if kind == "A":
            different = [sample_dataset(random_model(kind, p, d, rng=rng), n, rng=rng) for d in (2, 1)]
            assert_matches_explicit_swaps(*different, m_iterations, seed, rtol, path_rtol)
        model = random_model(kind, p, 1, rng=rng)
        same = [sample_dataset(model, n, rng=rng) for _ in range(2)]
        result = assert_matches_explicit_swaps(*same, m_iterations, seed, rtol, path_rtol)
        assert 0.01 < result.p_value < 1.0

    @pytest.mark.parametrize("m_iterations", [199, 1000])
    @pytest.mark.parametrize("p, n", [(10, 100), (60, 500)])
    def test_forest_batches_match_one_chunk_per_batch(self, monkeypatch, p, n, m_iterations):
        # On each product path. A forest batch holds several chunks. With no
        # forest budget each batch is one chunk, one Prim per chunk. Chunks
        # of at most 4 permutations keep several in a batch on both paths;
        # then at p = 10 the first layout scores M = 199 in one partial batch.
        rng = np.random.default_rng(p)
        model = random_model("A", p, 1, rng=rng)
        data_a, data_b = (sample_dataset(model, n, rng=rng) for _ in range(2))
        statistics = trees._SwapLinearMoments.statistics
        calls = []

        def spy(self, swaps):
            calls.append((len(swaps), self.chunk, self.pairs is not None))
            return statistics(self, swaps)

        monkeypatch.setattr(trees._SwapLinearMoments, "statistics", spy)
        monkeypatch.setattr(trees, "_MAX_CHUNK", 4)
        for path, budget in product_budgets(n, p).items():
            monkeypatch.setattr(trees, "_PRODUCT_BYTES", budget)
            monkeypatch.setattr(trees, "_FOREST_BYTES", 1 << 20)
            calls.clear()
            batched = paired_permutation_equality(data_a, data_b, m_iterations, seed=p)
            batch_sizes, chunk = [k for k, _, _ in calls], calls[0][1]
            assert all(on_pairs == (path == "pairs") for _, _, on_pairs in calls)
            calls.clear()
            monkeypatch.setattr(trees, "_FOREST_BYTES", 0)
            chunked = paired_permutation_equality(data_a, data_b, m_iterations, seed=p)

            # whole chunks per full batch, and a partial last batch
            *full, last = batch_sizes
            assert sum(batch_sizes) == m_iterations + 1 and batch_sizes[0] > chunk
            assert all(k == full[0] and k % chunk == 0 for k in full)
            assert (not full) == (p == 10 and m_iterations == 199)
            assert not full or last < full[0]
            assert all(k <= chunk for k, _, _ in calls) and len(calls) > len(batch_sizes)
            np.testing.assert_allclose(
                batched.observed_statistic, chunked.observed_statistic, rtol=1e-15, atol=0.0
            )
            np.testing.assert_allclose(
                batched.permutation_statistics, chunked.permutation_statistics,
                rtol=1e-15, atol=0.0,
            )
            assert batched.p_value == chunked.p_value

    @pytest.mark.parametrize("path", ["pairs", "chunked"])
    def test_batches_reuse_one_working_set(self, monkeypatch, path):
        # every full batch is drawn into the same swap matrix and scored in
        # the same weights buffer, allocated once for the call
        rng = np.random.default_rng(10)
        model = random_model("A", 10, 1, rng=rng)
        data_a, data_b = (sample_dataset(model, 100, rng=rng) for _ in range(2))
        monkeypatch.setattr(trees, "_PRODUCT_BYTES", product_budgets(100, 10)[path])
        statistics, forest_totals = trees._SwapLinearMoments.statistics, trees._forest_totals
        calls, weights_seen = [], []

        def spy(self, swaps):
            calls.append((self, len(swaps), swaps.ctypes.data))
            return statistics(self, swaps)

        def forest_spy(weights):
            weights_seen.append(weights.ctypes.data)
            return forest_totals(weights)

        monkeypatch.setattr(trees._SwapLinearMoments, "statistics", spy)
        monkeypatch.setattr(trees, "_forest_totals", forest_spy)
        paired_permutation_equality(data_a, data_b, m_iterations=999, seed=3)
        (moments,) = {call[0] for call in calls}
        assert (moments.pairs is not None) == (path == "pairs")
        full = [call for call in calls if call[1] == moments.batch]
        assert len(full) >= 2 and len(calls) == len(weights_seen)
        assert {swaps for _, _, swaps in calls} == {moments.swaps.ctypes.data}
        assert set(weights_seen) == {moments.weights.ctypes.data}

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
        # once per dataset from each of the two permutation tests, one per
        # product path; the oracle's own refits warn inside a suppressing
        # context
        assert len(constant) == 4

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
        # the pair products (p = 20) or the swap-scaled rows of a product
        # chunk (p = 60), and the weights of a forest batch, are each held
        # to 1 MB, so the peak (about 2.8 MB at p = 60) does not grow with M
        for p in (20, 60):
            rng = np.random.default_rng(p)
            model = random_model("A", p, 1, rng=rng)
            data_a = sample_dataset(model, 500, rng=rng)
            data_b = sample_dataset(model, 500, rng=rng)
            tracemalloc.start()
            try:
                paired_permutation_equality(data_a, data_b, m_iterations=m_iterations, seed=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3e6, p

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
