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
fits trees: both groups' cross-products are linear in the swap vector. At
small p (p <= 22 at n = 500) each row pair's change to them is precomputed,
and a batch of permutations takes one product with that matrix, n p(p+1)
flops a permutation; at larger p each chunk of permutations takes one
product of swap-scaled rows, 2 n p^2 flops a permutation. One dense Prim
totals the maximum spanning forests of the batch. The working set is
allocated once per call and does not grow with the number of permutations.
``chow_liu``, whose tie rule names edges, fits single trees and is the
test's oracle.

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
from .errors import InputError, check_alpha, check_seed
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


# Bytes of the product operand: the n x p(p+1)/2 pair products where they
# fit (p <= 22 at n = 500), else the swap-scaled rows of one product chunk.
# A chunk takes at most _MAX_CHUNK permutations; it is also the block of the
# mean products. A 2 MB budget was no faster and raised the peak RSS by
# another 1.3 MB.
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
    cross: np.ndarray, sums: np.ndarray, n: int, constant: np.ndarray, mean_products: np.ndarray
) -> None:
    """Overwrite cross-products (k, p, p), with column sums (k, p), of n
    rows about a common centre by their Gaussian mutual information weights,
    with a zero diagonal. Columns marked ``constant`` (k, p), or left with
    no positive variance by rounding, get zero weights. ``sums`` and
    ``constant`` are overwritten too. The mean products are taken in the
    (block, p, p) buffer ``mean_products``, block slices at a time, so no
    temporary is as large as the batch."""
    mean = sums
    mean /= n
    cov = cross
    cov /= n
    block = len(mean_products)
    for lo in range(0, len(cov), block):
        part = mean[lo : lo + block]
        outer = np.multiply(part[:, :, None], part[:, None, :], out=mean_products[: len(part)])
        cov[lo : lo + block] -= outer
    var = cov.diagonal(axis1=1, axis2=2)
    usable = np.logical_not(constant, out=constant)
    np.greater(var, 0.0, out=usable, where=usable)
    scale = mean
    scale.fill(0.0)
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


def _pair_products(delta: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, p(p+1)/2) matrix whose row i is the upper triangle, row by
    row, of (delta_i sigma_i' + sigma_i delta_i') / 2, and the index of each
    of the p^2 entries of a symmetric (p, p) matrix in that triangle."""
    n, p = delta.shape
    width = p * (p + 1) // 2
    pairs = np.empty((n, width))
    lo = 0
    for i in range(p):
        part = pairs[:, lo : lo + p - i]
        np.multiply(delta[:, i, None], sigma[:, i:], out=part)
        part += sigma[:, i, None] * delta[:, i:]
        lo += p - i
    pairs *= 0.5
    index = np.empty((p, p), dtype=np.intp)
    rows, cols = np.triu_indices(p)
    index[rows, cols] = index[cols, rows] = np.arange(width)
    return pairs, index.ravel()


class _SwapLinearMoments:
    """Cross-products and column sums of both groups under any row swap.

    With both groups centred by the pooled column mean (which swaps do not
    move), Delta = B - A and Sigma = B + A, swapping the rows marked by s
    gives group A the cross-products
    ``A'A + (Delta' diag(s) Sigma + its transpose) / 2 = A'A + s P``, where
    row i of P is the upper triangle of b_i b_i' - a_i a_i', and the column
    sums ``sum(A) + s Delta``; group B has the fixed totals minus those. A
    column can become constant only if every row pair holds a common value
    v (the value in row 0 of either group); its rows that differ from v are
    counted exactly, also linear in s.

    Where P fits ``_PRODUCT_BYTES`` it is built once, and a batch's
    cross-products take one (k, n) x (n, p(p+1)/2) product, n p(p+1) flops
    a permutation. Otherwise each chunk of permutations scales Delta's rows
    and takes a (chunk p, n) x (n, p) product, 2 n p^2 flops a permutation.
    The swap matrix, weights, sums and every other per-batch array are
    allocated here, once, for the largest batch.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.n, self.p = n, p = a.shape
        with np.errstate(over="ignore", invalid="ignore"):
            centre = a.mean(axis=0) / 2 + b.mean(axis=0) / 2
            a_c = a - centre
            b_c = b - centre
            finite_second_moments(
                np.einsum("ij,ij->j", a_c, a_c) + np.einsum("ij,ij->j", b_c, b_c)
            )
        self.cross_a = a_c.T @ a_c
        self.cross_total = self.cross_a + b_c.T @ b_c
        self.sum_a = a_c.sum(axis=0)
        # Sigma overwrites B, so that at most three (n, p) arrays are live
        self.delta_t = np.subtract(b_c.T, a_c.T, order="C")
        sigma = np.add(b_c, a_c, out=b_c)
        del a_c

        candidates = np.stack([a[0], b[0]])[:, None, :]
        miss_a = a[None] != candidates
        miss_b = b[None] != candidates
        which, self.constant_cols = np.nonzero(~(miss_a & miss_b).any(axis=1))
        miss_a = miss_a[which, :, self.constant_cols]
        miss_b = miss_b[which, :, self.constant_cols]
        self.miss_a = miss_a.sum(axis=1)
        self.miss_b = miss_b.sum(axis=1)
        self.miss_shift = (miss_b.astype(float) - miss_a).T

        # a batch is whole chunks on either path, so that both paths lay the
        # permutations out alike
        self.chunk = max(1, min(_MAX_CHUNK, _PRODUCT_BYTES // (8 * n * p)))
        self.batch = self.chunk * max(1, _FOREST_BYTES // (self.chunk * 8 * (2 * p * p + n)))
        width = p * (p + 1) // 2
        if 8 * n * width <= _PRODUCT_BYTES:
            self.pairs, self.pair_index = _pair_products(self.delta_t.T, sigma)
            self.packed = np.empty((self.batch, width))
        else:
            self.pairs = None
            self.sigma = sigma
            self.scaled = np.empty((self.chunk, p, n))
        self.swaps = np.empty((self.batch, n))
        # group A's weights in the first half, group B's in the second, which
        # on the chunked path first holds the raw products
        self.weights = np.empty((2 * self.batch, p, p))
        self.sums = np.empty((2 * self.batch, p))
        self.constant = np.empty((2 * self.batch, p), dtype=bool)
        self.mean_products = np.empty((self.chunk, p, p))

    def _constant(self, swaps: np.ndarray) -> np.ndarray:
        constant = self.constant[: 2 * len(swaps)]
        constant.fill(False)
        shift = swaps @ self.miss_shift
        misses = np.concatenate([self.miss_a + shift, self.miss_b - shift])
        np.logical_or.at(constant, (slice(None), self.constant_cols), misses == 0.0)
        return constant

    def statistics(self, swaps: np.ndarray) -> np.ndarray:
        """Sum of the two groups' forest totals for each row of the (k, n)
        0/1 ``swaps``, k at most ``batch``: one pair product for the batch,
        or one product per chunk of rows, then mutual information and Prim
        once over the whole batch."""
        k, n, p, chunk = len(swaps), self.n, self.p, self.chunk
        weights = self.weights[: 2 * k]
        cross_a, cross_b = weights[:k], weights[k:]
        sums = self.sums[: 2 * k]
        sums_a, sums_b = sums[:k], sums[k:]
        if self.pairs is not None:
            packed = np.matmul(swaps, self.pairs, out=self.packed[:k])
            np.take(packed, self.pair_index, axis=1, out=cross_a.reshape(k, p * p), mode="clip")
            np.matmul(swaps, self.delta_t.T, out=sums_a)
        else:
            # products of the same shapes whatever k is, so that a
            # permutation's score does not depend on the batch it falls in
            for lo in range(0, k, chunk):
                rows = swaps[lo : lo + chunk]
                part = self.scaled[: len(rows)]
                np.multiply(rows[:, None, :], self.delta_t, out=part)
                out = cross_b[lo : lo + chunk].reshape(-1, p)
                np.matmul(part.reshape(-1, n), self.sigma, out=out)
                np.matmul(rows, self.delta_t.T, out=sums_a[lo : lo + chunk])
            np.add(cross_b, cross_b.transpose(0, 2, 1), out=cross_a)
            cross_a *= 0.5
        cross_a += self.cross_a
        np.subtract(self.cross_total, cross_a, out=cross_b)
        sums_a += self.sum_a
        np.negative(sums_a, out=sums_b)
        constant = self._constant(swaps)
        _batch_mutual_information(weights, sums, n, constant, self.mean_products)
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


def _swap_vectors(m_iterations: int, seed: int | None, out: np.ndarray):
    """(k, n) float 0/1 swap matrices, each written into the first k rows
    of the (batch, n) buffer ``out`` and yielded as a view of it, so a
    batch is overwritten by the next: in order,
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
    batch, n = out.shape
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
        swaps = out[: min(batch, m_iterations + 1 - lo)]
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

    Rows of the two datasets are paired by index, and columns by position:
    two datasets that both carry variable names must carry the same names
    in the same order (two CSV files must share one header), or an
    :class:`InputError` names the first column that differs. The statistic
    is the sum of the two fitted-tree scores; each permutation independently
    swaps each row pair with probability one half and rescores. The p-value
    can never be 0 (add-one rule) and is 1 when the inputs are identical.
    Fixed seed gives an identical result; iteration seeds are derived
    independently, so iterations may be evaluated in any order. Permutation
    i swaps the rows where ``default_rng(child_i).random(n) < 0.5``, for
    the children of ``SeedSequence(seed).spawn(m_iterations)``; M is below
    2**32.

    A tree score is the total weight of a maximum spanning forest, which
    does not depend on how ties break, so no tree is fitted: swap-linear
    moments give both groups' cross-products for a batch of permutations,
    and one batched dense Prim totals the batch's forests. The observed
    statistic is the all-zero swap. Where the n x p(p+1)/2 matrix of every
    row pair's cross-product change fits in 1 MB (p <= 22 at n = 500), it
    is built once and a batch takes one product with it: n p(p+1) flops a
    permutation. Above that, each chunk of permutations takes one product
    of swap-scaled rows: 2 n p^2 flops a permutation. Prim adds O(p^2),
    its p - 1 steps shared by the batch, and the draw: the children's
    seeds are hashed a block at a time and one reused PCG64 gives the same
    bits as a generator per child at under a third of the cost of
    ``default_rng`` (n = 500). The working set (1 MB of pair products or
    of scaled rows, 1 MB of weights and swaps) is allocated once per call
    and does not grow with M. The moments are taken about the pooled mean,
    so their rounding error scales with the pooled variance: scores match
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
    if data_a.variable_names is not None and data_b.variable_names is not None:
        for column, (name_a, name_b) in enumerate(zip(data_a.names(), data_b.names()), 1):
            if name_a != name_b:
                raise InputError(
                    f"paired datasets must share one header: column {column} is "
                    f"{name_a!r} in the first and {name_b!r} in the second"
                )
    m_iterations = int(m_iterations)
    if m_iterations < 99:
        raise InputError(f"need at least 99 permutation iterations, got {m_iterations}")
    if m_iterations >= _MAX_ITERATIONS:
        raise InputError(
            f"at most {_MAX_ITERATIONS - 1} permutation iterations, got {m_iterations}"
        )
    check_alpha(alpha)
    check_seed(seed)
    for data in (data_a, data_b):
        _checked_centering(data)

    moments = _SwapLinearMoments(data_a.values, data_b.values)
    scores = []
    for swaps in _swap_vectors(m_iterations, seed, moments.swaps):
        scores.extend(moments.statistics(swaps).tolist())
    observed, permuted = scores[0], np.array(scores[1:])
    exceed = int(np.count_nonzero(permuted >= observed))
    return PermutationTestResult(
        observed_statistic=observed,
        permutation_statistics=scores[1:],
        p_value=float((1 + exceed) / (m_iterations + 1)),
        m_iterations=m_iterations,
        seed=seed,
    )
