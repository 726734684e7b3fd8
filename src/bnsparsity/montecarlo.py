"""Seeded, replicate-parallel Monte Carlo harness for the rejection-rate
studies: three fixed-max-in-degree tables and the edge-growth power study.

Per-replicate seeds are derived from the master seed and the replicate
coordinates, so results are bit-identical for any worker count. With
``threads > 1`` the replicates are split into one block per worker: the
caller runs the first block itself, and each other block runs in one child
process forked from the caller, which sends its outcomes back in one
message and exits, so a call costs one fork per extra worker. Threads
would not help: most of a test's time is scipy's Cholesky factor and
LAPACK's inverse in the asymptotics, which hold the GIL. Forked workers
inherit the task list and everything the caller patched, and they run the
same library calls, so no table depends on the worker count. Fork is
unsafe in a caller that runs threads of its own: call with ``threads=1``
there. Each worker keeps its own BLAS threads, so set
``OPENBLAS_NUM_THREADS=1`` when running more than one worker.

Replicates that fail numerically (heavy-tailed data can produce effectively
singular covariances) are never dropped silently: each grid row reports the
failure count and the failures by error type, the rejection fraction among
completed replicates, and the fraction with failures counted as
non-rejections.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .errors import BnSparsityError, InputError, InsufficientSampleError, check_seed
from .records import Record
from .simulate import (
    MODEL_KINDS,
    GenerativeModel,
    WeightedDag,
    fresh_seed,
    power_chain,
    random_model,
    sample_dataset,
)
from .sparsity import check_test_options, max_parents_test

BASIC_TABLES = {"sim1": 1, "sim2": 4, "sim3": 8}
TABLES = tuple(BASIC_TABLES) + ("power",)
DEFAULT_N_VALUES = (30, 50, 100, 500)

# Disjoint stream tags keep the derived seed spaces of the different draw
# sites from colliding.
_STREAM_MODEL = 11
_STREAM_DATA = 12
_STREAM_GRAPHS = 21
_STREAM_POWER_DATA = 23


def derived_rng(master_seed: int, *coords: int) -> np.random.Generator:
    """Independent generator for one site of the replication grid."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, coords)]))


@dataclass(frozen=True)
class MonteCarloRow(Record):
    """One grid cell: rejection counts at a (model, n, in-degree or step)."""

    model: str
    n: int
    nabla_or_step: int
    requested: int
    completed: int
    failures: int
    rejections: int
    # error type name -> count, sorted by name; left out of the hash, which
    # a dict cannot have
    failure_types: dict[str, int] = field(hash=False)

    @property
    def reject_fraction(self) -> float:
        return self.rejections / self.completed if self.completed else float("nan")

    @property
    def reject_fraction_with_failures(self) -> float:
        return self.rejections / self.requested if self.requested else float("nan")

    @property
    def mc_standard_error(self) -> float:
        if not self.completed:
            return float("nan")
        f = self.reject_fraction
        return float(np.sqrt(f * (1.0 - f) / self.completed))

    def to_dict(self) -> dict:
        record = super().to_dict()
        # last, so that the columns before it keep their CSV positions
        failure_types = record.pop("failure_types")
        return {
            **record,
            "reject_fraction": self.reject_fraction,
            "reject_fraction_with_failures": self.reject_fraction_with_failures,
            "mc_standard_error": self.mc_standard_error,
            "failure_types": failure_types,
        }


@dataclass
class MonteCarloReport(Record):
    """Grid of rejection fractions plus the parameters that produced it."""

    table: str
    p: int
    alpha: float
    seed: int
    replicates: int
    rows: list[MonteCarloRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "rows": [row.to_dict() for row in self.rows]}

    def to_csv(self) -> str:
        """One line per row, headed by the keys of ``MonteCarloRow.to_dict``;
        failure types are written ``Name=count`` joined by ``;``."""
        records = [row.to_dict() for row in self.rows]
        lines = [list(records[0])] if records else []
        lines += [[_csv_cell(v) for v in record.values()] for record in records]
        return "".join(",".join(line) + "\n" for line in lines)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, dict):
        return ";".join(f"{name}={count}" for name, count in value.items())
    return str(value)


def _check_run(n_values, p: int, threads: int) -> None:
    """Refuse, before any model is drawn or any worker forked: a thread count
    below 1, or above 1 where fork is missing; no sample size or one below
    1; and one that every test of its rows would refuse, n <= p."""
    if threads < 1:
        raise InputError(f"thread count must be >= 1, got {threads}")
    if threads > 1 and not hasattr(os, "fork"):
        raise InputError(
            f"thread count {threads} needs worker processes started by fork, which "
            "this platform does not offer; use a thread count of 1"
        )
    if not n_values:
        raise InputError("need at least one sample size")
    smallest = min(n_values)
    if smallest < 1:
        raise InputError(f"need n >= 1 samples, got {smallest}")
    if smallest <= p:
        raise InsufficientSampleError(
            f"need more samples than variables, got n={smallest}, p={p}"
        )


def _test_outcome(data, alpha: float, form: str):
    """True/False for reject, or the error's type name on failure."""
    try:
        return max_parents_test(data, alpha, form=form).reject
    except BnSparsityError as err:
        return type(err).__name__


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(worker, tasks, workers: int) -> list:
    """``worker(task)`` for every task, with worker w running the block
    ``tasks[w::workers]``: the caller runs block 0 itself, and each other
    block runs in one forked child, which sends its results back on a pipe
    as one pickled message. A child's error is raised in the caller, and so
    is the death of a child that sent nothing. If the caller's own block
    raises, a child fails or the caller is interrupted, every child still
    running is killed; every child is reaped before this returns or
    raises."""
    children = {}  # pid -> read end of the child's pipe
    try:
        for block in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _run_child_block(worker, tasks[block::workers], write_end)
            os.close(write_end)
            children[pid] = os.fdopen(read_end, "rb")
        results = [worker(task) for task in tasks[::workers]]
        for pid in list(children):
            with children[pid] as pipe:
                message = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0 or not message:
                raise RuntimeError(
                    f"worker process {pid} ended with exit status {status} "
                    "without sending its results"
                )
            sent, payload, trace = pickle.loads(message)
            if not sent:
                raise payload from RuntimeError(f"in worker process {pid}:\n{trace}")
            results += payload
        return results
    finally:
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _run_child_block(worker, block, write_end: int) -> NoReturn:
    """In a forked child: run ``block`` and write (True, its results, "")
    to ``write_end`` as one pickled message, or (False, the error that
    stopped it, its traceback), then end the process without unwinding into
    the caller's stack. An error that does not survive pickling is sent as
    a RuntimeError carrying its type name and text."""
    status = 1
    try:
        try:
            message = pickle.dumps((True, [worker(task) for task in block], ""))
        except BaseException as err:  # reported to the caller, which re-raises it
            trace = "".join(traceback.format_exception(type(err), err, err.__traceback__))
            try:
                message = pickle.dumps((False, err, trace))
                pickle.loads(message)
            except Exception:
                text = RuntimeError(f"{type(err).__name__}: {err}")
                message = pickle.dumps((False, text, trace))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(message)
        status = 0
    finally:
        os._exit(status)


def _run_grid(labels, tasks, worker, threads: int) -> list[MonteCarloRow]:
    """Rows for ``labels``, each a (model, n, nabla_or_step) triple, in that
    order. ``worker(task)`` returns (row index, outcome) pairs; rows are
    keyed by position, so two equal labels stay two rows.

    ``threads`` (checked by ``_check_run``) caps the worker processes; no
    more start than there are tasks or usable CPUs. The caller runs one
    block of tasks itself and forks one child for each other block
    (``_run_blocks``), so with one worker nothing is forked. Forked children
    inherit ``worker`` and ``tasks``, so only the (row, outcome) pairs cross
    the process boundary. Spawned workers would need a picklable worker and
    would import the package and scipy afresh, which takes longer than a
    whole small power study."""
    workers = min(threads, len(tasks), _usable_cpus())
    outcomes = [[] for _ in labels]
    for pairs in _run_blocks(worker, tasks, workers):
        for row, outcome in pairs:
            outcomes[row].append(outcome)
    rows = []
    for label, found in zip(labels, outcomes):
        failed = Counter(o for o in found if not isinstance(o, bool))
        failures = failed.total()
        rows.append(MonteCarloRow(
            *label, requested=len(found), completed=len(found) - failures,
            failures=failures, rejections=found.count(True),
            failure_types=dict(sorted(failed.items())),
        ))
    return rows


def run_basic_simulation(
    table: str,
    replicates: int = 400,
    seed: int | None = None,
    models: tuple[str, ...] = MODEL_KINDS,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    p: int = 20,
    alpha: float = 0.05,
    form: str = "conservative",
    threads: int = 1,
) -> MonteCarloReport:
    """Rejection-rate grid at a fixed max in-degree (tables sim1/sim2/sim3).

    Each replicate draws a fresh network of the given kind, then one dataset
    per sample size from that same network, for ``max_parents_test``.
    """
    if table not in BASIC_TABLES:
        raise InputError(f"table must be one of {sorted(BASIC_TABLES)}, got {table!r}")
    check_test_options(alpha, form)
    check_seed(seed)
    if replicates < 50:
        raise InputError(f"need at least 50 replicates, got {replicates}")
    kinds = tuple(str(m).upper() for m in models)
    if not kinds:
        raise InputError("need at least one model kind")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise InputError(f"model kind must be one of {MODEL_KINDS}, got {kind!r}")
    _check_run(n_values, p, threads)
    nabla = BASIC_TABLES[table]
    if seed is None:
        seed = fresh_seed()

    def worker(task):
        kind_idx, rep = task
        model = random_model(
            kinds[kind_idx], p, nabla, rng=derived_rng(seed, _STREAM_MODEL, kind_idx, rep)
        )
        first_row = kind_idx * len(n_values)
        pairs = []
        for n_idx, n in enumerate(n_values):
            data = sample_dataset(
                model, n, rng=derived_rng(seed, _STREAM_DATA, kind_idx, rep, n)
            )
            pairs.append((first_row + n_idx, _test_outcome(data, alpha, form)))
        return pairs

    labels = [(kind, n, nabla) for kind in kinds for n in n_values]
    tasks = [(kind_idx, rep) for kind_idx in range(len(kinds)) for rep in range(replicates)]
    return MonteCarloReport(
        table=table, p=p, alpha=alpha, seed=seed, replicates=replicates,
        rows=_run_grid(labels, tasks, worker, threads),
    )


def run_power_study(
    replicates_per_graph: int = 300,
    seed: int | None = None,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    p: int = 15,
    edges_per_step: int = 6,
    steps: int = 10,
    chains: int = 10,
    alpha: float = 0.05,
    form: str = "conservative",
    threads: int = 1,
) -> MonteCarloReport:
    """Rejection rate as the true graph grows away from a tree.

    Step 0 is the single-parent base graph (the null holds); step k graphs
    carry ``k * edges_per_step`` extra edges; ``max_parents_test`` runs on
    each dataset. Fractions pool the chains at each step.
    """
    if replicates_per_graph < 1:
        raise InputError("need at least 1 replicate per graph")
    check_test_options(alpha, form)
    check_seed(seed)
    _check_run(n_values, p, threads)
    if seed is None:
        seed = fresh_seed()

    chain_set = power_chain(
        p=p,
        edges_per_step=edges_per_step,
        steps=steps,
        chains=chains,
        rng=derived_rng(seed, _STREAM_GRAPHS),
    )

    def model_for(dag: WeightedDag) -> GenerativeModel:
        # the edge-growth protocol regenerates only edge weights; error
        # variances stay at 1
        return GenerativeModel(kind="A", dag=dag, variances=np.ones(p))

    # (slot, step) grid; slot 0 is the shared base graph, chains are 1-based.
    graph_models = [(0, 0, model_for(chain_set.base))]
    for chain_idx, graphs in enumerate(chain_set.chains):
        for step_idx, dag in enumerate(graphs, start=1):
            graph_models.append((chain_idx + 1, step_idx, model_for(dag)))

    def worker(task):
        slot, step, model, n_idx, rep = task
        n = n_values[n_idx]
        data = sample_dataset(
            model, n, rng=derived_rng(seed, _STREAM_POWER_DATA, slot, step, n, rep)
        )
        return [(n_idx * (steps + 1) + step, _test_outcome(data, alpha, form))]

    labels = [("A", n, step) for n in n_values for step in range(steps + 1)]
    tasks = [
        (slot, step, model, n_idx, rep)
        for slot, step, model in graph_models
        for n_idx in range(len(n_values))
        for rep in range(replicates_per_graph)
    ]
    return MonteCarloReport(
        table="power",
        p=p,
        alpha=alpha,
        seed=seed,
        replicates=replicates_per_graph,
        rows=_run_grid(labels, tasks, worker, threads),
    )
