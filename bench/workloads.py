"""Inputs, timed calls and output checks of the three benchmark workloads.

Each workload makes its inputs from the run seed and times calls into the
package's public functions. It looks them up as module attributes at call
time, so a traced run sees them through the hooks in ``tracing.py``. Every
output is checked twice over:

- every timed call against an independent oracle or invariant;
- once per run, fixed reference inputs made from ``REFERENCE_SEED`` against
  the outputs committed in ``references.json``.

A workload's timed calls come in cycles. ``configs`` names the call kinds of
a cycle; the k-th entry is reported as the end-to-end metric ``item_ref_s.k``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.stats
from scipy.sparse.csgraph import minimum_spanning_tree

from bnsparsity import covariance, montecarlo, simulate, sparsity, trees

REFERENCE_SEED = 20230712
ALPHA = 0.05
TEST_KEYS = (
    "lambda1_cstar",
    "lambda1_sample",
    "rho_hat",
    "c_hat",
    "sigma_hat",
    "t_stat",
    "df",
    "p_value",
    "alpha",
    "reject",
    "gap_warning",
    "n",
    "p",
)
# p-values are checked to an absolute tolerance. Far-tail p-values below
# about 1e-16 lose all relative accuracy (student_t_sf takes 1 - betainc
# there and returns 0.0); that is a known defect of the package, reported
# by notes() on every run rather than failed, since no decision at any
# usable alpha depends on it.
P_VALUE_ABS_TOL = 1e-12
ROW_FIELDS = ("model", "n", "nabla_or_step", "requested", "completed", "failures", "rejections")


@dataclass
class Call:
    """One timed call: ``run`` does ``items`` work items (tests or
    permutations) on ``workers`` threads; ``check`` lists what is wrong with
    its output."""

    config: str
    run: Callable[[], object]
    items: int
    check: Callable[[object], list[str]]
    workers: int = 1


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _seeds(*entropy: int, count: int = 1) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(count)]


def diff_test_results(expected: dict, actual: dict, rel: float = 1e-10) -> list[str]:
    """Differences between two 13-key test results: floats within ``rel``
    relative, every other field exact."""
    if tuple(actual) != TEST_KEYS:
        return [f"keys {list(actual)} != {list(TEST_KEYS)}"]
    problems = []
    for key in TEST_KEYS:
        want, got = expected[key], actual[key]
        if isinstance(want, float) and not isinstance(want, bool):
            ok = _close(got, want, rel)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: {got!r} != {want!r}")
    return problems


def diff_rows(expected: list[dict], actual: list[dict]) -> list[str]:
    """Every flipped cell of a Monte Carlo table, named by its row."""
    if len(expected) != len(actual):
        return [f"{len(actual)} rows != {len(expected)}"]
    problems = []
    for want, got in zip(expected, actual):
        where = f"model={want['model']} n={want['n']} step={want['nabla_or_step']}"
        for field in ROW_FIELDS:
            if got[field] != want[field]:
                problems.append(f"row {where}: {field} {got[field]} != {want[field]}")
    return problems


def write_kind_a_csv(path: Path, seed: int, p: int, max_in_degree: int, n: int) -> Path:
    rng = np.random.default_rng([seed, p, max_in_degree])
    model = simulate.random_model("A", p, max_in_degree, rng=rng)
    covariance.write_csv(simulate.sample_dataset(model, n, rng=rng), path)
    return path


class SingleTest:
    """The analyst's path: ``read_csv`` then ``max_parents_test`` on one CSV."""

    name = "single_test"
    configs = ("p20", "p40", "p40_exact", "p60")
    N = 500
    # p = 20 calls between two large ones: 36 a cycle of 11-17 s, so a 30 s
    # run does two cycles whether the machine runs fast or slow.
    P20_PER_GAP = 12
    REFERENCE_CASES = ((20, 1, "conservative"), (20, 4, "conservative"), (40, 4, "exact"))

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.paths = {
            (p, d): write_kind_a_csv(workdir / f"p{p}_d{d}.csv", seed, p, d, self.N)
            for p in (20, 40, 60)
            for d in (1, 4)
        }
        self._first: dict[tuple[Path, str], dict] = {}
        self._oracle: dict[Path, tuple[int, int, float]] = {}
        self._p20_calls = 0
        self.tail_losses: list[tuple[float, float]] = []

    @staticmethod
    def _test(path: Path, form: str) -> dict:
        data = covariance.read_csv(path)
        return sparsity.max_parents_test(data, ALPHA, form=form).to_dict()

    def warm_up(self) -> None:
        self._test(self.paths[(20, 1)], "conservative")

    probe = warm_up

    def _call(self, config: str, p: int, d: int, form: str) -> Call:
        path = self.paths[(p, d)]
        return Call(config, partial(self._test, path, form), 1, partial(self._check, path, form))

    def cycle(self, index: int) -> list[Call]:
        big_d = 1 if index % 2 == 0 else 4
        calls = []
        for config, p, form in (("p60", 60, "conservative"), ("p40", 40, "conservative"),
                                ("p40_exact", 40, "exact")):
            calls.append(self._call(config, p, big_d, form))
            for _ in range(self.P20_PER_GAP):
                d = 1 if self._p20_calls % 2 == 0 else 4
                self._p20_calls += 1
                calls.append(self._call("p20", 20, d, "conservative"))
        return calls

    def _oracle_top_eigenvalue(self, path: Path) -> tuple[int, int, float]:
        """Top eigenvalue of the normalized precision by LAPACK, from a CSV
        parse independent of ``read_csv``."""
        if path not in self._oracle:
            x = np.loadtxt(path, delimiter=",", skiprows=1)
            precision = np.linalg.inv(np.cov(x, rowvar=False, bias=True))
            scale = 1.0 / np.sqrt(np.diag(precision))
            top = float(np.linalg.eigvalsh(precision * np.outer(scale, scale))[-1])
            self._oracle[path] = (*x.shape, top)
        return self._oracle[path]

    def _check(self, path: Path, form: str, result: dict) -> list[str]:
        if tuple(result) != TEST_KEYS:
            return [f"keys {list(result)} != {list(TEST_KEYS)}"]
        n, p, top = self._oracle_top_eigenvalue(path)
        problems = []
        if (result["n"], result["p"], result["df"], result["alpha"]) != (n, p, n - p, ALPHA):
            problems.append("n, p, df or alpha do not match the input")
        if not _close(result["lambda1_sample"], top, 1e-8):
            problems.append(f"lambda1_sample {result['lambda1_sample']!r} != LAPACK {top!r}")
        tail = float(scipy.stats.t.sf(result["t_stat"], result["df"]))
        if abs(result["p_value"] - tail) > P_VALUE_ABS_TOL:
            problems.append(f"p_value {result['p_value']!r} != scipy t tail {tail!r}")
        elif not _close(result["p_value"], tail, 1e-8):
            self.tail_losses.append((result["p_value"], tail))
        if result["reject"] != (result["p_value"] < ALPHA):
            problems.append("reject disagrees with p_value < alpha")
        if not (0.0 <= result["rho_hat"] <= 1.0 and result["sigma_hat"] > 0.0):
            problems.append("rho_hat outside [0, 1] or sigma_hat not positive")
        first = self._first.setdefault((path, form), result)
        problems += [f"repeat differs: {d}" for d in diff_test_results(first, result)]
        return problems

    def notes(self) -> list[str]:
        if not self.tail_losses:
            return []
        got, want = self.tail_losses[0]
        return [f"known defect: p_value lost relative accuracy in {len(self.tail_losses)} "
                f"calls, e.g. {got!r} where the t tail is {want!r}"]

    def reference_outputs(self) -> dict:
        out = {}
        for p, d, form in self.REFERENCE_CASES:
            path = write_kind_a_csv(self.workdir / f"ref_p{p}_d{d}.csv", REFERENCE_SEED, p, d, self.N)
            out[f"p{p}_d{d}_{form}"] = self._test(path, form)
        return out

    @staticmethod
    def diff_reference(expected: dict, actual: dict) -> list[str]:
        return [f"{case}: {d}" for case in expected
                for d in diff_test_results(expected[case], actual[case])]

    def named_metrics(self, samples: dict[str, list[float]]) -> dict:
        p20 = samples["p20"]
        out = {"test_s.p20": (statistics.median(p20), "s", f"median of {len(p20)} calls")}
        # the highest whole percentile with at least ten samples beyond it
        # (p90 from 100 calls on)
        q = min(90, 100 * (len(p20) - 10) // len(p20))
        if q > 50:
            out[f"test_s.p20.p{q}"] = (statistics.quantiles(p20, n=100)[q - 1], "s",
                                       f"p{q} of {len(p20)} calls")
        for name, config in (("test_s.p40", "p40"), ("test_exact_s.p40", "p40_exact"),
                             ("test_s.p60", "p60")):
            values = samples[config]
            out[name] = (statistics.median(values), "s", f"median of {len(values)} calls")
        return out


class MonteCarloTables:
    """The researcher's path: rejection-rate grids and the power study."""

    name = "mc_tables"
    configs = ("grid_w1", "grid_w2", "power_w2", "power_w1")
    # One model kind a grid call, A (all assumptions hold) and C (Cauchy
    # errors, the failure path) on alternate cycles: a cycle takes 10-13 s.
    KINDS = ("A", "C")
    GRID = dict(table="sim2", replicates=50, n_values=(30,), p=20)
    POWER = dict(replicates_per_graph=5, n_values=(100,), p=15, chains=1, steps=10)
    # seed 5 gives kind C both rejections and a singular-covariance failure
    REFERENCE_GRID = dict(GRID, models=("C",), n_values=(100,), seed=5)
    REFERENCE_POWER = dict(POWER, steps=2, seed=REFERENCE_SEED)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._rows: dict[tuple, list[dict]] = {}
        self.replicates = self.replicate_failures = 0

    def warm_up(self) -> None:
        montecarlo.run_power_study(**dict(self.POWER, steps=1), seed=0, threads=2)

    def probe(self) -> None:
        montecarlo.run_power_study(**self.REFERENCE_POWER, threads=2)

    @staticmethod
    def _rows_of(report) -> list[dict]:
        return [{f: getattr(row, f) for f in ROW_FIELDS} for row in report.rows]

    def _grid(self, kind: str, seed: int, threads: int) -> Call:
        def run():
            return montecarlo.run_basic_simulation(**self.GRID, models=(kind,), seed=seed,
                                                   threads=threads)

        g = self.GRID
        cells = [(kind, n, g["replicates"]) for n in g["n_values"]]
        items = len(cells) * g["replicates"]
        return Call(f"grid_w{threads}", run, items,
                    partial(self._check, ("grid", seed), cells), threads)

    def _power(self, seed: int, threads: int) -> Call:
        def run():
            return montecarlo.run_power_study(**self.POWER, seed=seed, threads=threads)

        pw = self.POWER
        reps = pw["replicates_per_graph"]
        cells = [("A", n, reps * (pw["chains"] if step else 1))
                 for n in pw["n_values"] for step in range(pw["steps"] + 1)]
        items = sum(c[2] for c in cells)
        return Call(f"power_w{threads}", run, items,
                    partial(self._check, ("power", seed), cells), threads)

    def cycle(self, index: int) -> list[Call]:
        grid_seed, power_seed = _seeds(self.seed, index, count=2)
        kind = self.KINDS[index % len(self.KINDS)]
        return [self._grid(kind, grid_seed, 1), self._grid(kind, grid_seed, 2),
                self._power(power_seed, 2), self._power(power_seed, 1)]

    def _check(self, key: tuple, cells: list[tuple], report) -> list[str]:
        """Row layout and counts, then identity with the same seed's other
        worker count (the harness promises thread-count-invariant results)."""
        rows = self._rows_of(report)
        if [(r["model"], r["n"], r["requested"]) for r in rows] != cells:
            return [f"row layout {[(r['model'], r['n'], r['requested']) for r in rows]} != {cells}"]
        problems = [f"row {r}: counts inconsistent" for r in rows
                    if r["completed"] + r["failures"] != r["requested"]
                    or not 0 <= r["rejections"] <= r["completed"]]
        first = self._rows.setdefault(key, rows)
        problems += [f"1 vs 2 workers: {d}" for d in diff_rows(first, rows)]
        self.replicates += sum(r["requested"] for r in rows)
        self.replicate_failures += sum(r["failures"] for r in rows)
        return problems

    def notes(self) -> list[str]:
        return [f"replicates that failed numerically (an expected outcome, counted in the "
                f"tables): {self.replicate_failures} of {self.replicates}"]

    def reference_outputs(self) -> dict:
        grid = montecarlo.run_basic_simulation(**self.REFERENCE_GRID, threads=2)
        power = montecarlo.run_power_study(**self.REFERENCE_POWER, threads=2)
        return {"grid": self._rows_of(grid), "power": self._rows_of(power)}

    @staticmethod
    def diff_reference(expected: dict, actual: dict) -> list[str]:
        return [f"{table}: {d}" for table in expected
                for d in diff_rows(expected[table], actual[table])]

    def named_metrics(self, samples: dict[str, list[float]]) -> dict:
        out = {}
        for name, config in (("mc_tests_per_s.w1", "grid_w1"), ("mc_tests_per_s.w2", "grid_w2"),
                             ("power_tests_per_s.w2", "power_w2"),
                             ("power_tests_per_s.w1", "power_w1")):
            values = samples[config]
            out[name] = (1.0 / statistics.median(values), "1/s",
                         f"median of {len(values)} calls")
        return out


def oracle_tree_score(values: np.ndarray) -> float:
    """Total Gaussian mutual information of a maximum-weight spanning tree,
    by scipy's minimum spanning tree on (constant - weight)."""
    r = np.corrcoef(values, rowvar=False)
    mi = -0.5 * np.log1p(-np.minimum(r * r, 1.0 - 1e-12))
    np.fill_diagonal(mi, 0.0)
    tree = minimum_spanning_tree(np.triu(mi.max() + 1.0 - mi, k=1)).toarray() != 0.0
    return float(mi[tree].sum())


class Compare:
    """Paired permutation test for network equality, at four dimensions.

    p = 10 is mostly the fixed cost of a permutation (RNG and row swaps);
    p = 60 is mostly the two Chow-Liu fits."""

    name = "compare"
    configs = ("p10", "p20", "p40", "p60")
    N = 500
    # Short calls (1 s at p = 60) give each configuration some 15 samples a
    # run; the cost of a permutation does not depend on M.
    M = 199
    REFERENCE = dict(p=60, m_iterations=99)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.pairs = {int(c[1:]): self._pair(seed, int(c[1:])) for c in self.configs}
        self._oracle: dict[int, float] = {}

    def _pair(self, seed: int, p: int):
        rng = np.random.default_rng([seed, p])
        model = simulate.random_model("A", p, 1, rng=rng)
        return (simulate.sample_dataset(model, self.N, rng=rng),
                simulate.sample_dataset(model, self.N, rng=rng))

    def _compare(self, p: int, m_iterations: int, seed: int):
        a, b = self.pairs[p]
        return trees.paired_permutation_equality(a, b, m_iterations, ALPHA, seed=seed)

    def warm_up(self) -> None:
        self._compare(20, 99, 0)

    probe = warm_up

    def cycle(self, index: int) -> list[Call]:
        calls = []
        for config in self.configs:
            p = int(config[1:])
            (seed,) = _seeds(self.seed, p, index)
            calls.append(Call(config, partial(self._compare, p, self.M, seed), self.M,
                              partial(self._check, p)))
        return calls

    def _check(self, p: int, result) -> list[str]:
        if p not in self._oracle:
            a, b = self.pairs[p]
            self._oracle[p] = oracle_tree_score(a.values) + oracle_tree_score(b.values)
        problems = []
        if not _close(result.observed_statistic, self._oracle[p], 1e-9):
            problems.append(f"observed {result.observed_statistic!r} != oracle {self._oracle[p]!r}")
        perms = np.asarray(result.permutation_statistics)
        if perms.size != self.M or result.m_iterations != self.M:
            problems.append(f"{perms.size} permutation statistics for M = {self.M}")
        exceed = int(np.count_nonzero(perms >= result.observed_statistic))
        if result.p_value != (1 + exceed) / (self.M + 1):
            problems.append(f"p_value {result.p_value!r} is not the add-one rank")
        return problems

    def reference_outputs(self) -> dict:
        p, m = self.REFERENCE["p"], self.REFERENCE["m_iterations"]
        a, b = self._pair(REFERENCE_SEED, p)
        result = trees.paired_permutation_equality(a, b, m, ALPHA, seed=REFERENCE_SEED)
        return {"observed_statistic": result.observed_statistic, "p_value": result.p_value}

    @staticmethod
    def diff_reference(expected: dict, actual: dict) -> list[str]:
        problems = []
        if not _close(actual["observed_statistic"], expected["observed_statistic"], 1e-12):
            problems.append(f"observed_statistic {actual['observed_statistic']!r} != "
                            f"{expected['observed_statistic']!r}")
        if actual["p_value"] != expected["p_value"]:
            problems.append(f"p_value {actual['p_value']!r} != {expected['p_value']!r}")
        return problems

    def named_metrics(self, samples: dict[str, list[float]]) -> dict:
        out = {}
        for config in self.configs:
            values = samples[config]
            name = "compare_perms_per_s" + ("" if config == "p60" else f".{config}")
            out[name] = (1.0 / statistics.median(values), "1/s", f"median of {len(values)} calls")
        return out


WORKLOADS = {w.name: w for w in (SingleTest, MonteCarloTables, Compare)}
