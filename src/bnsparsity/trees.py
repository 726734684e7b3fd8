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
"""

from __future__ import annotations

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


def chow_liu(data: Dataset) -> FittedTree:
    """Maximum-weight spanning forest over pairwise mutual information.

    Ties break on the lexicographic edge index. A constant column cannot
    carry information; its vertex is left isolated with a warning.
    """
    if data.n < 3:
        raise InputError(f"tree fitting needs n >= 3 samples, got {data.n}")
    if data.p < 2:
        raise InputError(f"tree fitting needs p >= 2 variables, got {data.p}")
    centered, std = _centered_and_std(data.values)
    for idx in np.flatnonzero(std == 0.0):
        warnings.warn(
            f"column {data.names()[idx]!r} is constant; leaving its vertex isolated",
            stacklevel=2,
        )
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


def _tree_score_sum(values_a: np.ndarray, values_b: np.ndarray) -> float:
    a = chow_liu(Dataset(values=values_a))
    b = chow_liu(Dataset(values=values_b))
    return a.total_score + b.total_score


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

    observed = _tree_score_sum(data_a.values, data_b.values)
    child_seeds = np.random.SeedSequence(seed).spawn(m_iterations)
    permuted = np.empty(m_iterations)
    for m, child in enumerate(child_seeds):
        rng = np.random.default_rng(child)
        swap = rng.random(data_a.n) < 0.5
        values_a = np.where(swap[:, None], data_b.values, data_a.values)
        values_b = np.where(swap[:, None], data_a.values, data_b.values)
        permuted[m] = _tree_score_sum(values_a, values_b)
    exceed = int(np.count_nonzero(permuted >= observed))
    return PermutationTestResult(
        observed_statistic=float(observed),
        permutation_statistics=[float(s) for s in permuted],
        p_value=float((1 + exceed) / (m_iterations + 1)),
        m_iterations=m_iterations,
        seed=seed,
    )
