"""Property tests of the max-in-degree test and its shrinkage, over small
random networks. Examples are derandomized, so every run draws the same ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsparsity import (
    Dataset,
    build_asymptotics,
    max_parents_test,
    normalized_precision_eigen,
    random_model,
    sample_dataset,
    shrink,
)
from conftest import random_suite

FEW = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def network_samples(draw, kinds="AB"):
    """A dataset from a random linear network of a few variables."""
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(2, 6))
    n = draw(st.integers(p + 10, 100))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(seed)
    model = random_model(kind, p, draw(st.integers(1, p - 1)), rng=rng)
    return sample_dataset(model, n, rng=rng)


@FEW
@given(network_samples(), st.floats(0.001, 0.5), st.sampled_from(["conservative", "exact"]))
def test_p_value_in_unit_interval_and_decides_the_test(data, alpha, form):
    result = max_parents_test(data, alpha=alpha, form=form)
    assert 0.0 < result.p_value <= 1.0
    assert result.reject == (result.p_value < alpha)


def assert_same_result(data, other_data):
    """All 13 keys of the test result agree within 1e-10 relative, for both
    forms."""
    for form in ("conservative", "exact"):
        base = max_parents_test(data, form=form).to_dict()
        other = max_parents_test(other_data, form=form).to_dict()
        assert list(other) == list(base)
        # c_hat is a correction to lambda1_sample, so it is compared at that
        # scale: at p = 2 the eigenvectors do not depend on the data, c_hat is
        # 0 in exact arithmetic, and both sides are rounding residue
        floor = {"c_hat": 1e-10 * base["lambda1_sample"]}
        for key, value in base.items():
            if isinstance(value, float):
                expected = pytest.approx(value, rel=1e-10, abs=floor.get(key, 0.0))
                assert other[key] == expected, (form, key)
            else:
                assert other[key] == value, (form, key)


@FEW
@given(network_samples(), st.randoms(use_true_random=False))
def test_result_is_invariant_to_variable_order(data, random):
    order = list(range(data.p))
    random.shuffle(order)
    assert_same_result(data, Dataset(values=data.values[:, order]))


@FEW
@given(
    network_samples(),
    st.lists(st.floats(-12, 12), min_size=6, max_size=6),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_result_is_invariant_to_column_rescaling(data, powers, flips):
    # columns in units up to 1e+-12 apart; the condition check is taken at
    # the correlation scale, so none of them is refused
    scales = np.where(flips, -1.0, 1.0) * 10.0 ** np.array(powers)
    assert_same_result(data, Dataset(values=data.values * scales[: data.p]))


@FEW
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 80))
def test_shrinkage_keeps_eigenvalue_order_and_sum(seed, p, extra):
    suite, data = random_suite(
        np.random.default_rng(seed), p=p, n=p + 5 + extra, max_in_degree=min(2, p - 1)
    )
    eig = normalized_precision_eigen(suite)
    est = shrink(eig, build_asymptotics(suite, eig, data.n))
    assert 0.0 < est.intensity <= 1.0
    assert np.all(np.diff(eig.values) <= 0.0)
    assert np.all(np.diff(est.shrunk_eigenvalues) <= 0.0)
    assert est.shrunk_eigenvalues.sum() == pytest.approx(p, rel=0.0, abs=1e-10)
