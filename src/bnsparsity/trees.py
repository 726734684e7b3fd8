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

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import Dataset
from .errors import InputError

# Perfectly correlated pairs would give infinite weight; cap r^2 just below 1.
_R_SQUARED_CAP = 1.0 - 1e-12


def gaussian_mutual_information(r: float) -> float:
    """Mutual information of a bivariate Gaussian with correlation r."""
    r2 = min(float(r) * float(r), _R_SQUARED_CAP)
    return -0.5 * float(np.log1p(-r2))


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
        lines = [f"{i + 1} {j + 1} {w!r}" for i, j, w in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dot(self, names: list[str] | None = None) -> str:
        if names is None:
            names = [f"x{i + 1}" for i in range(self.p)]
        lines = ["graph tree {"]
        for i, name in enumerate(names):
            lines.append(f'  v{i + 1} [label="{name}"];')
        for i, j, w in sorted(self.edges):
            lines.append(f'  v{i + 1} -- v{j + 1} [label="{w:.4g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _centered_and_std(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centered = values - values.mean(axis=0)
    return centered, np.sqrt((centered * centered).mean(axis=0))


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

    p = data.p
    candidates = sorted(
        ((i, j) for i in range(p) for j in range(i + 1, p)),
        key=lambda e: (-mi[e[0], e[1]], e[0], e[1]),
    )
    parent = list(range(p))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges: list[tuple[int, int, float]] = []
    for i, j in candidates:
        if mi[i, j] <= 0.0:
            break
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j, float(mi[i, j])))
        if len(edges) == p - 1:
            break
    return FittedTree(p=p, edges=edges, total_score=float(sum(w for _, _, w in edges)))


@dataclass(frozen=True)
class PermutationTestResult:
    """Observed statistic, the permuted statistics, and the add-one p-value
    ``(1 + #{permuted >= observed}) / (M + 1)``."""

    observed_statistic: float
    permutation_statistics: list[float]
    p_value: float
    m_iterations: int
    seed: int | None

    def to_dict(self) -> dict:
        return {
            "observed_statistic": self.observed_statistic,
            "p_value": self.p_value,
            "m_iterations": self.m_iterations,
            "seed": self.seed,
            "permutation_statistics": self.permutation_statistics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


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
