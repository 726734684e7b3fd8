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
vector), and totals the maximum spanning forests of a batch of several
chunks with one dense Prim, in a working set that does not grow with the
number of permutations. ``chow_liu``, whose tie rule names edges, fits
single trees and is the test's oracle.

Permutation i swaps the rows where ``default_rng(child).random(n) < 0.5``
for child i of ``SeedSequence(seed).spawn(M)``. Those bits are derived
without a generator per child: SeedSequence's hash runs over a block of
children at once in uint32 arithmetic, and one PCG64 is set to each
child's state, so every permutation and p-value is the one numpy's own
spawn path gives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import (
    Dataset,
    center_columns,
    default_names,
    finite_second_moments,
    representable_second_moments,
)
from .errors import InputError
from .records import Record

# Perfectly correlated pairs would give infinite weight; cap r^2 just below 1.
_R_SQUARED_CAP = 1.0 - 1e-12


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

    def to_edge_list(self) -> str:
        return edge_list_text(self.edges)

    def to_dot(self, names: list[str] | None = None) -> str:
        return dot_text("graph tree", "--", self.p, self.edges, names)


def _centered_and_std(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centered = center_columns(values)
    with np.errstate(over="ignore"):
        moments = representable_second_moments(centered, (centered * centered).mean(axis=0))
    return centered, np.sqrt(moments)


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


# Bytes of swap-scaled rows one product chunk may hold, and the most
# permutations one product takes. A 2 MB budget was no faster and raised the
# peak RSS by another 1.3 MB.
_PRODUCT_BYTES = 1 << 20
_MAX_CHUNK = 64
# Bytes of one forest batch: both groups' (p, p) weights and the float swap
# vector of each permutation in it. A batch is whole product chunks, at least
# one, so Prim takes its p - 1 steps once per batch. At n = 500, M = 199 and
# one BLAS thread, 1 MB ran p = 60 and p = 40 1.4x and p = 20 1.2x as fast as
# one chunk per batch; 2 MB gained another 6% at p = 60 but raised its
# tracemalloc peak from 2.6 to 3.6 MB.
_FOREST_BYTES = 1 << 20
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier; the raw output at which random() reaches 0.5;
# the children whose seeds are hashed in one pass. A block's states are read
# as Python ints, about 240 bytes a child: blocks of 1024 raised the
# tracemalloc peak at p = 60, M = 999 by 0.2 MB, blocks of 256 by 0.04 MB.
# From child 2**32 on, a spawn key takes two words, which the hash does not
# cover.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_HALF = np.uint64(1 << 63)
_STATE_BLOCK = 256
_MAX_ITERATIONS = 1 << 32


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
    cross: np.ndarray, sums: np.ndarray, n: int, constant: np.ndarray, block: int
) -> None:
    """Overwrite cross-products (k, p, p), with column sums (k, p), of n
    rows about a common centre by their Gaussian mutual information weights,
    with a zero diagonal. Columns marked ``constant`` (k, p), or left with
    no positive variance by rounding, get zero weights. The mean products
    are taken ``block`` slices at a time, so no temporary is as large as
    the batch."""
    mean = sums / n
    cov = cross
    cov /= n
    for lo in range(0, len(cov), block):
        part = mean[lo : lo + block]
        cov[lo : lo + block] -= part[:, :, None] * part[:, None, :]
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
    np.negative(corr, out=corr)
    np.log1p(corr, out=corr)
    corr *= -0.5


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

    def statistics(self, swaps: np.ndarray, chunk: int) -> np.ndarray:
        """Sum of the two groups' forest totals for each row of the (k, n)
        0/1 ``swaps``: ``chunk`` rows per matrix product, then mutual
        information and Prim once over the whole batch, in one (2k, p, p)
        buffer."""
        k, n, p = len(swaps), self.n, self.p
        # group A's weights in the first half, group B's in the second, which
        # first holds the raw products
        weights = np.empty((2 * k, p, p))
        cross_a, cross_b = weights[:k], weights[k:]
        sums = np.empty((2 * k, p))
        sums_a, sums_b = sums[:k], sums[k:]
        scaled = np.empty((min(chunk, k), p, n))
        # products of the same shapes whatever k is, so that a permutation's
        # score does not depend on the batch it falls in
        for lo in range(0, k, chunk):
            rows = swaps[lo : lo + chunk]
            part = scaled[: len(rows)]
            np.multiply(rows[:, None, :], self.delta_t, out=part)
            out = cross_b[lo : lo + chunk].reshape(-1, p)
            np.matmul(part.reshape(-1, n), self.sigma, out=out)
            np.matmul(rows, self.delta_t.T, out=sums_a[lo : lo + chunk])
        del scaled, part  # before the temporaries of the mean products
        np.add(cross_b, cross_b.transpose(0, 2, 1), out=cross_a)
        cross_a *= 0.5
        cross_a += self.cross_a
        np.subtract(self.cross_total, cross_a, out=cross_b)
        sums_a += self.sum_a
        np.negative(sums_a, out=sums_b)
        shift = swaps @ self.miss_shift
        constant = self._constant(np.concatenate([self.miss_a + shift, self.miss_b - shift]))
        _batch_mutual_information(weights, sums, n, constant, chunk)
        totals = _forest_totals(weights)
        return totals[:k] + totals[k:]


def _child_states(entropy: int, lo: int, hi: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of children lo..hi-1 of
    ``SeedSequence(entropy)``, hi <= 2**32, as a (hi - lo, 4) array.

    This is numpy's SeedSequence hash in wrapping uint32 arithmetic, run
    for every child of the block at once: a child's words are the entropy's,
    padded with zeros to the pool size of 4, then its spawn key, one word.
    Only that last word differs between children.
    """
    words = [np.uint32(entropy >> shift & 0xFFFFFFFF)
             for shift in range(0, max(entropy.bit_length(), 1), 32)]
    words += [np.uint32(0)] * (4 - len(words))
    words.append(np.arange(lo, hi, dtype=np.uint32))
    hash_const = np.uint32(_INIT_A)

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * np.uint32(_MULT_A)
        value = value * hash_const
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    with np.errstate(over="ignore"):
        pool = [hashmix(word) for word in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        state = np.empty((hi - lo, 8), dtype=np.uint32)
        hash_const = np.uint32(_INIT_B)
        for k in range(8):
            value = pool[k % 4] ^ hash_const
            hash_const = hash_const * np.uint32(_MULT_B)
            value = value * hash_const
            state[:, k] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _swap_vectors(n: int, m_iterations: int, seed: int | None, batch: int):
    """(k, n) float 0/1 swap matrices of at most ``batch`` rows: in order,
    the all-zero swap (the observed data), then for each child of
    ``SeedSequence(seed).spawn(m_iterations)`` the draw
    ``default_rng(child).random(n) < 0.5``, bit for bit.

    No generator is built per child. The children's PCG64 seeds come from
    ``_child_states`` a block at a time, and one PCG64 is set to each seed
    by PCG64's own seeding formula. ``random`` takes the top 53 bits of a
    raw 64-bit output, so a draw is below 0.5 exactly when the raw output
    is below 2**63. Each batch's raw outputs are written into its swap
    matrix and compared there in place.
    """
    entropy = int(np.random.SeedSequence(seed).entropy)
    bitgen = np.random.PCG64(0)
    lcg = {}
    state = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}

    def raw_draws():
        # the observed data: a raw output of 2**63 reads as no swap
        yield np.full(n, _HALF, dtype=np.uint64)
        for lo in range(0, m_iterations, _STATE_BLOCK):
            hi = min(lo + _STATE_BLOCK, m_iterations)
            for s_hi, s_lo, i_hi, i_lo in _child_states(entropy, lo, hi).tolist():
                inc = lcg["inc"] = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
                lcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
                bitgen.state = state
                yield bitgen.random_raw(n)

    draws = raw_draws()
    for lo in range(0, m_iterations + 1, batch):
        swaps = np.empty((min(batch, m_iterations + 1 - lo), n))
        raw = swaps.view(np.uint64)
        for row in raw:
            row[:] = next(draws)
        np.less(raw, _HALF, out=swaps)
        yield swaps


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
    so iterations may be evaluated in any order. Permutation i swaps the
    rows where ``default_rng(child_i).random(n) < 0.5``, for the children
    of ``SeedSequence(seed).spawn(m_iterations)``; M is below 2**32.

    A tree score is the total weight of a maximum spanning forest, which
    does not depend on how ties break, so no tree is fitted: swap-linear
    moments give both groups' cross-products for a chunk of permutations
    in one matrix product, written into a buffer that holds a batch of
    several chunks, and one batched dense Prim totals the batch's forests.
    The observed statistic is the all-zero swap. Per permutation this costs
    about 2 n p^2 flops plus O(p^2) for Prim, whose p - 1 steps are shared
    by the batch, plus its draw: the children's seeds are hashed a block
    at a time and one reused PCG64 gives the same bits as a generator per
    child at under a third of the cost of ``default_rng`` (n = 500). The
    working set (1 MB of scaled rows, 1 MB of weights and swaps) does not
    grow with M. The moments are taken about the pooled mean, so their
    rounding error scales with the pooled variance: scores match
    ``chow_liu`` refits to about 1e-14 relative unless one group's column
    variance is orders of magnitude below the pooled one (heavy tails,
    outliers). A column that a swap makes constant is left isolated; a
    constant input column warns once per dataset.
    """
    if data_a.values.shape != data_b.values.shape:
        raise InputError(
            f"paired datasets must have identical shape, got "
            f"{data_a.values.shape} and {data_b.values.shape}"
        )
    m_iterations = int(m_iterations)
    if m_iterations < 99:
        raise InputError(f"need at least 99 permutation iterations, got {m_iterations}")
    if m_iterations >= _MAX_ITERATIONS:
        raise InputError(
            f"at most {_MAX_ITERATIONS - 1} permutation iterations, got {m_iterations}"
        )
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
    for data in (data_a, data_b):
        _checked_centering(data)

    moments = _SwapLinearMoments(data_a.values, data_b.values)
    n, p = moments.n, moments.p
    chunk = max(1, min(_MAX_CHUNK, _PRODUCT_BYTES // (8 * n * p)))
    batch = chunk * max(1, _FOREST_BYTES // (chunk * 8 * (2 * p * p + n)))
    scores = []
    for swaps in _swap_vectors(n, m_iterations, seed, batch):
        scores.extend(moments.statistics(swaps, chunk).tolist())
    observed, permuted = scores[0], np.array(scores[1:])
    exceed = int(np.count_nonzero(permuted >= observed))
    return PermutationTestResult(
        observed_statistic=observed,
        permutation_statistics=scores[1:],
        p_value=float((1 + exceed) / (m_iterations + 1)),
        m_iterations=m_iterations,
        seed=seed,
    )
