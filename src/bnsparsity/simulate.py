"""Random weighted DAGs, dataset generation under five generative models,
graph-theoretic ground truths, and the power-study edge chains.

Generative kinds:
  A  linear network, Gaussian errors (all assumptions met)
  B  linear, errors from a t distribution with 2 degrees of freedom
  C  linear, errors from a t distribution with 1 degree of freedom (Cauchy)
  D  per-vertex GLM with canonical link; family drawn from
     (gaussian, bernoulli, poisson) with probabilities (.5, .25, .25)
  E  linear in per-parent nonlinear transforms drawn uniformly from
     (abs, sign, -2 * expit(x) + 1), standard normal errors

All generators are pure given an explicit seed or Generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .covariance import Dataset, normalize_precision
from .errors import InputError
from .kernels import symmetric_eigen
from .trees import dot_text, edge_list_text, spanning_forest

MODEL_KINDS = ("A", "B", "C", "D", "E")
GLM_FAMILIES = ("gaussian", "bernoulli", "poisson")
GLM_PROBABILITIES = (0.5, 0.25, 0.25)
NONLINEARITIES = ("abs", "sign", "scaled-expit")
_NONLINEARITY_FUNCS = {
    "abs": np.abs,
    "sign": np.sign,
    "scaled-expit": lambda z: -2.0 * expit(z) + 1.0,
}
# Poisson linear predictors are capped before exponentiation; unbounded
# feed-forward counts would overflow otherwise.
_POISSON_ETA_CAP = 30.0


def as_rng(seed) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fresh entropy)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def fresh_seed() -> int:
    """Master seed from fresh OS entropy, below 2**63 so it fits a signed
    64-bit integer in JSON and on the command line."""
    return int(np.random.SeedSequence().entropy % (2**63))


def _nonzero_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal edge weights, resampling exact zeros."""
    w = rng.standard_normal(size)
    zero = w == 0.0
    while np.any(zero):
        w[zero] = rng.standard_normal(int(zero.sum()))
        zero = w == 0.0
    return w


@dataclass(frozen=True)
class WeightedDag:
    """Weighted directed acyclic graph.

    ``adjacency[i, j]`` is the weight of edge i -> j; ``order`` is a
    topological permutation (``order[k]`` is the vertex in position k), so
    the adjacency is strictly upper triangular after permuting by it.
    """

    adjacency: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "adjacency", np.asarray(self.adjacency, dtype=float))
        object.__setattr__(self, "order", np.asarray(self.order, dtype=int))
        p = self.adjacency.shape[0]
        if self.adjacency.shape != (p, p):
            raise InputError("adjacency must be square")
        if sorted(self.order.tolist()) != list(range(p)):
            raise InputError("order must be a permutation of the vertices")
        permuted = self.adjacency[np.ix_(self.order, self.order)]
        if np.any(np.tril(permuted) != 0.0):
            raise InputError("adjacency is not acyclic under the given order")

    @property
    def p(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency))

    def edges(self) -> list[tuple[int, int, float]]:
        rows, cols = np.nonzero(self.adjacency)
        return [(int(i), int(j), float(self.adjacency[i, j])) for i, j in zip(rows, cols)]

    def to_edge_list(self) -> str:
        """One edge per line: '<from> <to> <weight>', 1-based vertices."""
        return edge_list_text(self.edges())

    def to_dot(self, names: list[str] | None = None) -> str:
        return dot_text("digraph network", "->", self.p, self.edges(), names)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-vertex error scales (as variances) and the error family."""

    variances: np.ndarray
    family: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        if np.any(self.variances <= 0) or not np.all(np.isfinite(self.variances)):
            raise InputError("noise variances must be positive and finite")
        if self.family not in ("gaussian", "t2", "t1"):
            raise InputError(f"unknown noise family {self.family!r}")


@dataclass(frozen=True)
class GenerativeModel:
    """A weighted DAG plus everything needed to sample from it."""

    kind: str
    dag: WeightedDag
    noise: NoiseSpec
    glm_families: list[str] | None = None
    nonlinearities: list[str] | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InputError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if (self.kind == "D") != (self.glm_families is not None):
            raise InputError("glm_families must be given exactly for kind D")
        if (self.kind == "E") != (self.nonlinearities is not None):
            raise InputError("nonlinearities must be given exactly for kind E")
        if self.glm_families is not None:
            if len(self.glm_families) != self.dag.p or any(
                f not in GLM_FAMILIES for f in self.glm_families
            ):
                raise InputError("glm_families must assign a known family per vertex")
        if self.nonlinearities is not None:
            if len(self.nonlinearities) != self.dag.p or any(
                f not in NONLINEARITIES for f in self.nonlinearities
            ):
                raise InputError("nonlinearities must assign a known function per vertex")


@dataclass(frozen=True)
class UndirectedGraph:
    """Symmetric 0/1 adjacency with a zero diagonal."""

    adjacency: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "adjacency", np.asarray(self.adjacency, dtype=int))
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("adjacency must be square")
        if np.any(a != a.T) or np.any(np.diag(a) != 0):
            raise InputError("adjacency must be symmetric with a zero diagonal")

    @property
    def p(self) -> int:
        return self.adjacency.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return [(int(i), int(j)) for i, j in zip(rows, cols)]


def random_dag(
    p: int,
    max_in_degree: int,
    density: float | None = None,
    rng=None,
) -> WeightedDag:
    """Random DAG whose max in-degree equals ``max_in_degree`` exactly.

    A uniform topological order is drawn; the vertex in position k picks its
    parent count uniformly on {0..min(target, k)} (or binomially when
    ``density`` is given) and its parents uniformly without replacement from
    its predecessors. A repair pass tops up one eligible vertex so the
    target is attained.
    """
    rng = as_rng(rng)
    p = int(p)
    if p < 2:
        raise InputError(f"need p >= 2 vertices, got {p}")
    if not 0 <= max_in_degree <= p - 1:
        raise InputError(f"max in-degree {max_in_degree} is infeasible for p={p}")
    if density is not None and not 0.0 <= density <= 1.0:
        raise InputError(f"density must be in [0, 1], got {density}")

    order = rng.permutation(p)
    parent_positions: list[np.ndarray] = []
    for k in range(p):
        cap = min(max_in_degree, k)
        if cap == 0:
            count = 0
        elif density is None:
            count = int(rng.integers(0, cap + 1))
        else:
            count = int(rng.binomial(cap, density))
        if count:
            chosen = np.sort(rng.choice(k, size=count, replace=False))
        else:
            chosen = np.empty(0, dtype=int)
        parent_positions.append(chosen)

    if max_in_degree > 0 and max(len(s) for s in parent_positions) < max_in_degree:
        k_star = int(rng.integers(max_in_degree, p))
        have = set(parent_positions[k_star].tolist())
        pool = np.array([c for c in range(k_star) if c not in have], dtype=int)
        extra = rng.choice(pool.size, size=max_in_degree - len(have), replace=False)
        parent_positions[k_star] = np.sort(
            np.concatenate([parent_positions[k_star], pool[extra]])
        )

    adjacency = np.zeros((p, p))
    for k, chosen in enumerate(parent_positions):
        if len(chosen):
            adjacency[order[chosen], order[k]] = _nonzero_normal(rng, len(chosen))
    return WeightedDag(adjacency=adjacency, order=order)


def random_model(
    kind: str,
    p: int,
    max_in_degree: int,
    rng=None,
    density: float | None = None,
) -> GenerativeModel:
    """Random model of the given kind over a fresh random DAG.

    Error variances default to U[0.5, 1.5] draws for kinds A and D (the
    diagonal need not be constant) and to 1 for kinds B, C and E, whose
    error distributions are taken as standard.
    """
    rng = as_rng(rng)
    kind = str(kind).upper()
    if kind not in MODEL_KINDS:
        raise InputError(f"model kind must be one of {MODEL_KINDS}, got {kind!r}")
    dag = random_dag(p, max_in_degree, density=density, rng=rng)
    if kind in ("A", "D"):
        variances = rng.uniform(0.5, 1.5, size=p)
    else:
        variances = np.ones(p)
    family = {"A": "gaussian", "B": "t2", "C": "t1", "D": "gaussian", "E": "gaussian"}[kind]
    noise = NoiseSpec(variances=variances, family=family)
    glm = None
    nonlin = None
    if kind == "D":
        glm = [str(f) for f in rng.choice(GLM_FAMILIES, size=p, p=GLM_PROBABILITIES)]
    if kind == "E":
        nonlin = [str(f) for f in rng.choice(NONLINEARITIES, size=p)]
    return GenerativeModel(kind=kind, dag=dag, noise=noise, glm_families=glm, nonlinearities=nonlin)


def sample_dataset(model: GenerativeModel, n: int, rng=None) -> Dataset:
    """Draw n samples by a forward pass in topological order.

    Kinds D and E feed realized child inputs forward (including 0/1
    Bernoulli outcomes). Deterministic given the seed.
    """
    rng = as_rng(rng)
    n = int(n)
    if n < 1:
        raise InputError(f"need n >= 1 samples, got {n}")
    dag = model.dag
    adjacency = dag.adjacency
    scale = np.sqrt(model.noise.variances)
    x = np.zeros((n, dag.p))
    for v in dag.order:
        parent_idx = np.flatnonzero(adjacency[:, v])
        if parent_idx.size:
            if model.kind == "E":
                inputs = np.column_stack(
                    [_NONLINEARITY_FUNCS[model.nonlinearities[u]](x[:, u]) for u in parent_idx]
                )
            else:
                inputs = x[:, parent_idx]
            eta = inputs @ adjacency[parent_idx, v]
        else:
            eta = np.zeros(n)
        if model.kind in ("B", "C"):
            df = 2.0 if model.kind == "B" else 1.0
            draw = rng.standard_normal(n) / np.sqrt(rng.chisquare(df, n) / df)
            x[:, v] = eta + scale[v] * draw
        elif model.kind == "D":
            family = model.glm_families[v]
            if family == "gaussian":
                x[:, v] = eta + scale[v] * rng.standard_normal(n)
            elif family == "bernoulli":
                x[:, v] = rng.binomial(1, expit(eta))
            else:
                x[:, v] = rng.poisson(np.exp(np.minimum(eta, _POISSON_ETA_CAP)))
        else:
            x[:, v] = eta + scale[v] * rng.standard_normal(n)
    return Dataset(values=x)


def analytic_normalized_precision(dag: WeightedDag, noise: NoiseSpec):
    """Exact normalized precision and its eigenvalues for Gaussian noise.

    This is the ground truth for bias and calibration studies.
    """
    if noise.family != "gaussian":
        raise InputError("analytic form requires gaussian noise")
    if noise.variances.size != dag.p:
        raise InputError("noise dimension does not match the graph")
    b = np.eye(dag.p) - dag.adjacency
    _, _, omega = normalize_precision(b @ np.diag(1.0 / noise.variances) @ b.T)
    eig = symmetric_eigen(omega)
    return omega, eig.values


def moral_graph(dag: WeightedDag) -> UndirectedGraph:
    """Undirected graph joining parents to children and co-parents to each
    other (parents of a common child are married)."""
    p = dag.p
    adjacency = np.zeros((p, p), dtype=int)
    for child in range(p):
        parents = np.flatnonzero(dag.adjacency[:, child])
        for u in parents:
            adjacency[u, child] = adjacency[child, u] = 1
        for u, w in itertools.combinations(parents.tolist(), 2):
            adjacency[u, w] = adjacency[w, u] = 1
    return UndirectedGraph(adjacency=adjacency)


def is_forest(graph: UndirectedGraph) -> bool:
    """True when the graph has no cycles: a spanning forest keeps every edge."""
    edges = graph.edges()
    return len(spanning_forest(graph.p, edges)) == len(edges)


def max_in_degree(dag: WeightedDag) -> int:
    """Largest number of parents of any vertex."""
    return int(np.count_nonzero(dag.adjacency, axis=0).max())


@dataclass(frozen=True)
class PowerChain:
    """Edge-growth chains for the power study.

    ``base`` is a connected single-parent DAG (its moral graph is a tree);
    ``chains[j][k]`` is chain j after k + 1 rounds of edge additions. Every
    graph carries its own fresh edge weights.
    """

    base: WeightedDag
    chains: list[list[WeightedDag]]
    edges_per_step: int


def power_chain(
    p: int = 15,
    edges_per_step: int = 6,
    steps: int = 10,
    chains: int = 10,
    rng=None,
) -> PowerChain:
    """Build the power-study graphs.

    The base graph gives every vertex except the founding one exactly one
    parent, so the null holds and any legal edge addition breaks it. Each
    chain independently adds ``edges_per_step`` acyclicity-preserving edges
    per step on top of its previous step.
    """
    rng = as_rng(rng)
    if p < 2 or steps < 1 or chains < 1 or edges_per_step < 1:
        raise InputError("power chain parameters must be positive (p >= 2)")
    max_edges = p * (p - 1) // 2
    if (p - 1) + steps * edges_per_step > max_edges:
        raise InputError(
            f"cannot add {steps}x{edges_per_step} edges to a {p}-vertex tree "
            f"(only {max_edges - (p - 1)} free slots)"
        )

    order = rng.permutation(p)
    base_struct = np.zeros((p, p), dtype=bool)
    for k in range(1, p):
        base_struct[order[int(rng.integers(0, k))], order[k]] = True

    def weighted(struct: np.ndarray) -> WeightedDag:
        adjacency = np.zeros((p, p))
        rows, cols = np.nonzero(struct)
        adjacency[rows, cols] = _nonzero_normal(rng, rows.size)
        return WeightedDag(adjacency=adjacency, order=order)

    base = weighted(base_struct)
    forward_pairs = [
        (int(order[a]), int(order[b])) for a in range(p) for b in range(a + 1, p)
    ]
    all_chains: list[list[WeightedDag]] = []
    for _ in range(chains):
        struct = base_struct.copy()
        graphs: list[WeightedDag] = []
        for _ in range(steps):
            free = [(u, v) for (u, v) in forward_pairs if not struct[u, v]]
            picks = rng.choice(len(free), size=edges_per_step, replace=False)
            for idx in picks:
                struct[free[int(idx)]] = True
            graphs.append(weighted(struct))
        all_chains.append(graphs)
    return PowerChain(base=base, chains=all_chains, edges_per_step=edges_per_step)


def tuned_top_eigenvalue_model(
    target: float, p: int, fan_in: int | None = None
) -> GenerativeModel:
    """Gaussian linear model whose exact top normalized-precision eigenvalue
    equals ``target``.

    The graph tiles disjoint collider blocks (``fan_in`` parents sharing one
    child, shared weight, halved per block so the top eigenvalue is unique);
    block depth is one, so the covariance stays well conditioned at any p.
    A fan-in of k reaches targets below k + 1, with the weight in closed
    form. Used by the bias and calibration studies.
    """
    target = float(target)
    if target < 1.0:
        raise InputError(f"top eigenvalue target must be >= 1, got {target}")
    if p < 3:
        raise InputError(f"need p >= 3, got {p}")
    # With unit error variances a fan-in-k collider's normalized precision
    # has top eigenvalue 1 + mu, where beta^2 / (1 + beta^2) = r and
    # r = mu^2 / (k + (k - 1) mu); r < 1 exactly when mu < k.
    candidates = (fan_in,) if fan_in is not None else (2, 5, 10, 20, 50)
    fits = [k for k in map(int, candidates) if target < k + 1 <= p]
    if not fits:
        raise InputError(f"top eigenvalue target {target} unreachable at p={p}")
    k, mu = fits[0], target - 1.0
    r = mu * mu / (k + (k - 1) * mu)
    beta = float(np.sqrt(r / (1.0 - r)))
    adjacency = np.zeros((p, p))
    for block in range(p // (k + 1)):
        base = block * (k + 1)
        adjacency[base : base + k, base + k] = beta * 0.5**block
    return GenerativeModel(
        kind="A",
        dag=WeightedDag(adjacency=adjacency, order=np.arange(p)),
        noise=NoiseSpec(variances=np.ones(p), family="gaussian"),
    )
