"""Tree structure fitting and a paired permutation test for network equality.

The tree fit is a maximum-weight spanning tree over pairwise Gaussian mutual
information, -0.5 * ln(1 - r^2) with Pearson correlation r. The weight is
monotone in |r|, so this equals the maximum-|correlation| spanning tree; it
is the standard Gaussian-likelihood weight for continuous data.

The equality test scores each group by the total weight of its fitted tree
and permutes by swapping whole paired rows between the two groups. The
precise statistic computed by the original permutation-test reference is not
pinned down by available sources; this sum-of-tree-scores statistic is a
stand-in with the same pairing and invariance structure, isolated here so it
can be swapped.

A tree's total weight does not depend on how ties break, so the test never
fits trees: it takes both groups' cross-products under every swap from one
matrix product per chunk of permutations (they are linear in the swap
vector) and totals each maximum spanning forest with a batched dense Prim.
``chow_liu``, whose tie rule names edges, fits single trees and is the
test's oracle.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import Dataset, default_names, finite_second_moments
from .errors import InputError
from .records import Record

# Perfectly correlated pairs would give infinite weight; cap r^2 just below 1.
_R_SQUARED_CAP = 1.0 - 1e-12


def gaussian_mutual_information(r: float) -> float:
    """Mutual information of a bivariate Gaussian with correlation r."""
    r2 = min(float(r) * float(r), _R_SQUARED_CAP)
    return -0.5 * float(np.log1p(-r2))


def spanning_forest(p: int, pairs) -> list[tuple[int, int]]:
    """Kruskal's rule over vertices 0..p-1: keep each (i, j) of ``pairs``, in
    the order given, unless it closes a cycle; stop once p - 1 are kept."""
    parent = list(range(p))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    kept: list[tuple[int, int]] = []
    for i, j in pairs:
        if len(kept) >= p - 1:
            break
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            kept.append((i, j))
    return kept


def edge_list_text(edges) -> str:
    """One edge per line, sorted: '<i> <j> <weight>' with 1-based vertices."""
    lines = [f"{i + 1} {j + 1} {w!r}" for i, j, w in sorted(edges)]
    return "\n".join(lines) + ("\n" if lines else "")


def dot_text(header: str, link: str, p: int, edges, names: list[str] | None = None) -> str:
    """DOT graph ``header { ... }`` with vertices v1..vp labelled by ``names``
    (default x1..xp) and the sorted edges joined by ``link`` ('->' or '--')."""
    if names is None:
        names = default_names(p)
    lines = [f"{header} {{"]
    lines += [f'  v{i + 1} [label="{name}"];' for i, name in enumerate(names)]
    lines += [f'  v{i + 1} {link} v{j + 1} [label="{w:.4g}"];' for i, j, w in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FittedTree:
    """Spanning forest as (i, j, weight) edges (0-based, i < j) plus the
    total weight. Vertices with no usable correlation stay isolated."""

    p: int
    edges: list[tuple[int, int, float]]
    total_score: float

    def edge_set(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.edges}

    def to_edge_list(self) -> str:
        return edge_list_text(self.edges)

    def to_dot(self, names: list[str] | None = None) -> str:
        return dot_text("graph tree", "--", self.p, self.edges, names)


def _centered_and_std(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centered = values - values.mean(axis=0)
    with np.errstate(over="ignore"):
        moments = finite_second_moments((centered * centered).mean(axis=0))
    return centered, np.sqrt(moments)


def _mutual_information_matrix(values: np.ndarray) -> np.ndarray:
    return _mi_from_centered(*_centered_and_std(values))


def _mi_from_centered(centered: np.ndarray, std: np.ndarray) -> np.ndarray:
    n, p = centered.shape
    usable = std > 0.0
    mi = np.zeros((p, p))
    if usable.sum() >= 2:
        z = centered[:, usable] / std[usable]
        corr = z.T @ z / n
        np.fill_diagonal(corr, 0.0)
        mi[np.ix_(usable, usable)] = -0.5 * np.log1p(
            -np.minimum(corr * corr, _R_SQUARED_CAP)
        )
    return mi


def _checked_centering(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Centred columns and their standard deviations, after the size and
    overflow checks of a tree fit; warns once per constant column."""
    if data.n < 3:
        raise InputError(f"tree fitting needs n >= 3 samples, got {data.n}")
    if data.p < 2:
        raise InputError(f"tree fitting needs p >= 2 variables, got {data.p}")
    centered, std = _centered_and_std(data.values)
    for idx in np.flatnonzero(std == 0.0):
        warnings.warn(
            f"column {data.names()[idx]!r} is constant; leaving its vertex isolated",
            stacklevel=3,
        )
    return centered, std


def chow_liu(data: Dataset) -> FittedTree:
    """Maximum-weight spanning forest over pairwise mutual information.

    Ties break on the lexicographic edge index. A constant column cannot
    carry information; its vertex is left isolated with a warning.
    """
    centered, std = _checked_centering(data)
    mi = _mi_from_centered(centered, std)

    # nonzero lists the pairs i < j in lexicographic order, and a stable sort
    # keeps that order among equal weights (np.triu_indices gives the same
    # pairs at several times the cost for small p)
    vertex = np.arange(data.p)
    rows, cols = np.nonzero(vertex[:, None] < vertex)
    weights = mi[rows, cols]
    order = np.argsort(-weights, kind="stable")
    order = order[weights[order] > 0.0]
    pairs = zip(rows[order].tolist(), cols[order].tolist())
    edges = [(i, j, float(mi[i, j])) for i, j in spanning_forest(data.p, pairs)]
    return FittedTree(p=data.p, edges=edges, total_score=float(sum(w for _, _, w in edges)))


@dataclass(frozen=True)
class PermutationTestResult(Record):
    """Observed statistic, the add-one p-value
    ``(1 + #{permuted >= observed}) / (M + 1)`` and the permuted statistics."""

    observed_statistic: float
    p_value: float
    m_iterations: int
    seed: int | None
    permutation_statistics: list[float]


# Bytes of swap-scaled rows one chunk of permutations may hold, and the most
# permutations scored together, so the working set stays near 2 MB whatever
# M is. A 2 MB budget was no faster and raised the peak RSS by another 1.3 MB.
_WORKING_SET_BYTES = 1 << 20
_MAX_CHUNK = 64


def _forest_totals(weights: np.ndarray) -> np.ndarray:
    """Total weight of a maximum spanning forest of each (p, p) slice of the
    symmetric, nonnegative ``weights``, by dense Prim from vertex 0.

    Zero-weight edges add nothing, so each total is that of the forest over
    the positive weights, and it does not depend on how ties break.
    """
    k, p, _ = weights.shape
    rows = np.arange(k)
    total = np.zeros(k)
    # 0 for a vertex outside the tree, -inf inside it
    closed = np.zeros((k, p))
    closed[:, 0] = -np.inf
    best = weights[:, 0, :] + closed
    for _ in range(p - 1):
        j = best.argmax(axis=1)
        total += best[rows, j]
        closed[rows, j] = -np.inf
        np.maximum(best, weights[rows, j], out=best)
        best += closed
    return total


def _batch_mutual_information(
    cross: np.ndarray, sums: np.ndarray, n: int, constant: np.ndarray
) -> np.ndarray:
    """Gaussian mutual information weights, (k, p, p) with a zero diagonal,
    from cross-products (k, p, p) and column sums (k, p) of n rows about a
    common centre. Columns marked ``constant`` (k, p), or left with no
    positive variance by rounding, get zero weights."""
    mean = sums / n
    cov = cross / n
    cov -= mean[:, :, None] * mean[:, None, :]
    var = cov.diagonal(axis1=1, axis2=2)
    usable = ~constant & (var > 0.0)
    scale = np.zeros_like(var)
    np.sqrt(var, out=scale, where=usable)
    np.divide(1.0, scale, out=scale, where=usable)
    corr = cov
    corr *= scale[:, :, None]
    corr *= scale[:, None, :]
    corr.reshape(len(corr), -1)[:, :: corr.shape[1] + 1] = 0.0
    corr *= corr
    np.minimum(corr, _R_SQUARED_CAP, out=corr)
    return -0.5 * np.log1p(-corr)


class _SwapLinearMoments:
    """Cross-products and column sums of both groups under any row swap.

    With both groups centred by the pooled column mean (which swaps do not
    move), Delta = B - A and Sigma = B + A, swapping the rows marked by s
    gives group A the cross-products
    ``A'A + (Delta' diag(s) Sigma + its transpose) / 2`` and the column sums
    ``sum(A) + s Delta``; group B has the fixed totals minus those. A column
    can become constant only if every row pair holds a common value v (the
    value in row 0 of either group); its rows that differ from v are counted
    exactly, also linear in s.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.n, self.p = a.shape
        with np.errstate(over="ignore", invalid="ignore"):
            centre = a.mean(axis=0) / 2 + b.mean(axis=0) / 2
            a_c = a - centre
            b_c = b - centre
            finite_second_moments(
                np.einsum("ij,ij->j", a_c, a_c) + np.einsum("ij,ij->j", b_c, b_c)
            )
        self.delta_t = np.ascontiguousarray((b_c - a_c).T)
        self.sigma = b_c + a_c
        self.cross_a = a_c.T @ a_c
        self.cross_total = self.cross_a + b_c.T @ b_c
        self.sum_a = a_c.sum(axis=0)

        candidates = np.stack([a[0], b[0]])[:, None, :]
        miss_a = a[None] != candidates
        miss_b = b[None] != candidates
        which, self.constant_cols = np.nonzero(~(miss_a & miss_b).any(axis=1))
        miss_a = miss_a[which, :, self.constant_cols]
        miss_b = miss_b[which, :, self.constant_cols]
        self.miss_a = miss_a.sum(axis=1)
        self.miss_b = miss_b.sum(axis=1)
        self.miss_shift = (miss_b.astype(float) - miss_a).T

    def _constant(self, misses: np.ndarray) -> np.ndarray:
        constant = np.zeros((len(misses), self.p), dtype=bool)
        np.logical_or.at(constant, (slice(None), self.constant_cols), misses == 0.0)
        return constant

    def statistics(self, swaps: np.ndarray) -> np.ndarray:
        """Sum of the two groups' forest totals for each row of the (k, n)
        0/1 ``swaps``."""
        k, n, p = len(swaps), self.n, self.p
        cross_a = ((swaps[:, None, :] * self.delta_t).reshape(k * p, n) @ self.sigma).reshape(
            k, p, p
        )
        cross_a += cross_a.transpose(0, 2, 1)
        cross_a *= 0.5
        cross_a += self.cross_a
        sums_a = self.sum_a + swaps @ self.delta_t.T
        shift = swaps @ self.miss_shift
        weights = _batch_mutual_information(
            np.concatenate([cross_a, self.cross_total - cross_a]),
            np.concatenate([sums_a, -sums_a]),
            n,
            self._constant(np.concatenate([self.miss_a + shift, self.miss_b - shift])),
        )
        totals = _forest_totals(weights)
        return totals[:k] + totals[k:]


def _swap_vectors(n: int, m_iterations: int, seed: int | None):
    """The all-zero swap (the observed data), then one draw per iteration."""
    yield np.zeros(n, dtype=bool)
    for child in np.random.SeedSequence(seed).spawn(m_iterations):
        yield np.random.default_rng(child).random(n) < 0.5


def paired_permutation_equality(
    data_a: Dataset,
    data_b: Dataset,
    m_iterations: int = 1000,
    alpha: float = 0.05,
    seed: int | None = None,
) -> PermutationTestResult:
    """Permutation test for equality of two paired networks.

    Rows of the two datasets are paired by index. The statistic is the sum
    of the two fitted-tree scores; each permutation independently swaps each
    row pair with probability one half and rescores. The p-value can never
    be 0 (add-one rule) and is 1 when the inputs are identical. Fixed seed
    gives an identical result; iteration seeds are derived independently,
    so iterations may be evaluated in any order.

    A tree score is the total weight of a maximum spanning forest, which
    does not depend on how ties break, so no tree is fitted: swap-linear
    moments give both groups' cross-products for a chunk of permutations
    in one matrix product, and a batched dense Prim totals each forest. The
    observed statistic is the all-zero swap. Per permutation this costs
    about 2 n p^2 flops plus O(p^2) for Prim; the working set does not grow
    with M. The moments are taken about the pooled mean, so their rounding
    error scales with the pooled variance: scores match ``chow_liu`` refits
    to about 1e-14 relative unless one group's column variance is orders of
    magnitude below the pooled one (heavy tails, outliers). A column that a
    swap makes constant is left isolated; a constant input column warns
    once per dataset.
    """
    if data_a.values.shape != data_b.values.shape:
        raise InputError(
            f"paired datasets must have identical shape, got "
            f"{data_a.values.shape} and {data_b.values.shape}"
        )
    m_iterations = int(m_iterations)
    if m_iterations < 99:
        raise InputError(f"need at least 99 permutation iterations, got {m_iterations}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
    for data in (data_a, data_b):
        _checked_centering(data)

    moments = _SwapLinearMoments(data_a.values, data_b.values)
    n, p = moments.n, moments.p
    chunk = max(1, min(_MAX_CHUNK, _WORKING_SET_BYTES // (8 * n * p)))
    draws = _swap_vectors(n, m_iterations, seed)
    scores = []
    while batch := list(itertools.islice(draws, chunk)):
        scores.extend(moments.statistics(np.array(batch, dtype=float)).tolist())
    observed, permuted = scores[0], np.array(scores[1:])
    exceed = int(np.count_nonzero(permuted >= observed))
    return PermutationTestResult(
        observed_statistic=observed,
        permutation_statistics=scores[1:],
        p_value=float((1 + exceed) / (m_iterations + 1)),
        m_iterations=m_iterations,
        seed=seed,
    )
