"""Monte Carlo harness: determinism, thread invariance, failure accounting."""

import json
import os
import signal
import time
from contextlib import contextmanager

import pytest

from bnsparsity import (
    Dataset,
    InputError,
    InsufficientSampleError,
    run_basic_simulation,
    run_power_study,
)
from bnsparsity import montecarlo
from bnsparsity.cli import main


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    yield
    # raises only when this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs longer than
    ``seconds``; a forked child does not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_children_only(monkeypatch, action):
    """Make ``sample_dataset`` run ``action()`` in forked workers and sample
    as usual in the calling process, and let two workers run on any
    machine."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    caller = os.getpid()
    sample = montecarlo.sample_dataset

    def sample_or_act(model, n, rng):
        if os.getpid() != caller:
            action()
        return sample(model, n, rng=rng)

    monkeypatch.setattr(montecarlo, "sample_dataset", sample_or_act)


SMALL_GRID = dict(table="sim1", replicates=50, seed=1, models=("A",), n_values=(12,), p=8)


class TestForkedWorkers:
    @pytest.mark.parametrize("threads", [2, 3])
    def test_tables_do_not_depend_on_uneven_blocks(self, monkeypatch, threads):
        # 53 grid tasks and 35 power tasks: neither worker count divides them
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        grid = dict(table="sim2", replicates=53, seed=5, models=("C",), n_values=(20,), p=12)
        power = dict(replicates_per_graph=7, seed=3, n_values=(60,), p=8, edges_per_step=3,
                     steps=2, chains=2)
        serial = run_basic_simulation(threads=1, **grid)
        assert serial.rows[0].failure_types == {"SingularityError": 1}
        assert run_basic_simulation(threads=threads, **grid).to_dict() == serial.to_dict()
        assert (run_power_study(threads=threads, **power).to_dict()
                == run_power_study(threads=1, **power).to_dict())

    def test_child_that_dies_makes_the_caller_raise(self, monkeypatch):
        in_children_only(monkeypatch, lambda: os._exit(1))
        with deadline(60), pytest.raises(RuntimeError, match="exit status 1 without sending"):
            run_basic_simulation(threads=2, **SMALL_GRID)

    def test_child_exception_keeps_its_type_and_message(self, monkeypatch):
        def fail():
            raise InputError("sampler broke in a child")

        in_children_only(monkeypatch, fail)
        with pytest.raises(InputError, match="sampler broke in a child") as caught:
            run_basic_simulation(threads=2, **SMALL_GRID)
        assert "in worker process" in str(caught.value.__cause__)
        assert "in fail" in str(caught.value.__cause__)

    def test_unpicklable_child_exception_arrives_as_its_text(self, monkeypatch):
        class LocalError(Exception):
            """Defined in a function, so pickle cannot name it."""

        def fail():
            raise LocalError("sampler broke in a child")

        in_children_only(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="LocalError: sampler broke in a child"):
            run_basic_simulation(threads=2, **SMALL_GRID)

    def test_caller_failure_kills_and_reaps_the_children(self, monkeypatch):
        caller = os.getpid()

        def sample(model, n, rng):
            if os.getpid() == caller:
                raise RuntimeError("caller broke")
            time.sleep(600)

        monkeypatch.setattr(montecarlo, "sample_dataset", sample)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        # waiting for the sleeping children would take ten minutes
        with deadline(60), pytest.raises(RuntimeError, match="caller broke"):
            run_basic_simulation(threads=3, **SMALL_GRID)


class TestThreads:
    def test_zero_threads_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match="thread count"):
            run_basic_simulation("sim1", replicates=50, seed=1, models=("A",),
                                 n_values=(12,), p=8, threads=0)
        with pytest.raises(InputError, match="thread count"):
            run_power_study(replicates_per_graph=50, seed=1, n_values=(12,), p=8,
                            edges_per_step=1, steps=1, chains=1, threads=0)
        code = main(["reproduce", "--table", "sim1", "--replicates", "50", "--models", "A",
                     "--n", "12", "--seed", "1", "--threads", "0", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_worker_count_is_capped_by_tasks_and_cpus(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        kwargs = dict(table="sim1", replicates=50, seed=1, models=("A",), n_values=(12,), p=8)
        capped = run_basic_simulation(threads=10**6, **kwargs)
        grid_forks = len(forks)
        # a power study with one replicate per graph has two tasks
        run_power_study(replicates_per_graph=1, seed=1, n_values=(12,), p=8,
                        edges_per_step=1, steps=1, chains=1, threads=10**6)
        power_forks = len(forks) - grid_forks
        serial = run_basic_simulation(threads=1, **kwargs)
        # the caller runs one block itself; with one worker it runs every task
        assert (grid_forks, power_forks, len(forks)) == (2, 1, 3)
        assert capped.to_dict() == serial.to_dict()

    def test_without_fork_more_than_one_thread_is_an_input_error(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "fork")
        kwargs = dict(table="sim1", replicates=50, seed=1, models=("A",), n_values=(12,), p=8)
        with pytest.raises(InputError, match="fork"):
            run_basic_simulation(threads=2, **kwargs)
        assert run_basic_simulation(threads=1, **kwargs).rows[0].requested == 50
        code = main(["reproduce", "--table", "sim1", "--replicates", "50", "--models", "A",
                     "--n", "12", "--seed", "1", "--threads", "2", "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, threads):
        def broken(model, n, rng):
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(montecarlo, "sample_dataset", broken)
        with pytest.raises(RuntimeError, match="sampler broke"):
            run_basic_simulation("sim1", replicates=50, seed=1, models=("A",),
                                 n_values=(12,), p=8, threads=threads)


class TestOptionsCheckedOnEntry:
    POWER = dict(replicates_per_graph=50, seed=1, n_values=(12,), p=8)
    BAD = [dict(alpha=1.5), dict(alpha=-1), dict(form="bogus"), dict(seed=-1),
           dict(n_values=(0,)), dict(n_values=(12, -3)), dict(n_values=())]
    # p = 8 in both runners
    TOO_SMALL = [dict(n_values=(8,)), dict(n_values=(12, 3))]

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew a model or forked before checking the options")

        monkeypatch.setattr(montecarlo, "random_model", refuse)
        monkeypatch.setattr(montecarlo, "power_chain", refuse)
        monkeypatch.setattr(os, "fork", refuse)

    @pytest.mark.parametrize("bad", BAD)
    def test_runners_refuse_bad_options(self, bad):
        with pytest.raises(InputError):
            run_basic_simulation(threads=2, **{**SMALL_GRID, **bad})
        with pytest.raises(InputError):
            run_power_study(threads=2, **{**self.POWER, **bad})

    @pytest.mark.parametrize("bad", TOO_SMALL)
    def test_runners_refuse_n_not_above_p(self, bad):
        with pytest.raises(InsufficientSampleError, match="n=.*, p=8"):
            run_basic_simulation(threads=2, **{**SMALL_GRID, **bad})
        with pytest.raises(InsufficientSampleError, match="n=.*, p=8"):
            run_power_study(threads=2, **{**self.POWER, **bad})

    @pytest.mark.parametrize("models", [("F",), ("A", "Z"), ("AB",), ()])
    def test_grid_refuses_unknown_model_kinds(self, models):
        with pytest.raises(InputError, match="model kind"):
            run_basic_simulation(threads=2, **{**SMALL_GRID, "models": models})

    @pytest.mark.parametrize("table", ["sim1", "power"])
    def test_cli_exits_2_and_writes_no_report(self, tmp_path, capsys, table):
        code = main(["reproduce", "--table", table, "--replicates", "50", "--alpha", "2",
                     "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("table", ["sim1", "power"])
    def test_cli_n_not_above_p_exits_4_and_writes_no_report(self, tmp_path, capsys, table):
        code = main(["reproduce", "--table", table, "--replicates", "50", "--n", "10",
                     "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 4
        assert "need more samples than variables" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBasicSimulation:
    def test_requires_replicates(self):
        with pytest.raises(InputError):
            run_basic_simulation("sim1", replicates=10, seed=0)

    def test_rejects_unknown_table(self):
        with pytest.raises(InputError):
            run_basic_simulation("sim9", replicates=50, seed=0)

    def test_seed_determinism_and_accounting(self):
        kwargs = dict(
            table="sim1",
            replicates=50,
            seed=424242,
            models=("A",),
            n_values=(12,),
            p=8,
        )
        a = run_basic_simulation(**kwargs)
        b = run_basic_simulation(**kwargs)
        assert a.to_dict() == b.to_dict()
        (row,) = a.rows
        assert row.requested == 50
        assert row.completed == row.requested - row.failures
        assert 0.0 <= row.reject_fraction <= 1.0
        assert row.nabla_or_step == 1

    def test_thread_count_invariance(self):
        # the kind-C grid has one failed replicate, whose error type crosses
        # the process boundary
        grids = (dict(seed=7, models=("A",), n_values=(12,), p=8),
                 dict(seed=5, models=("C",), n_values=(20,), p=12))
        for kwargs in grids:
            serial = run_basic_simulation("sim2", replicates=50, threads=1, **kwargs)
            parallel = run_basic_simulation("sim2", replicates=50, threads=4, **kwargs)
            assert serial.to_dict() == parallel.to_dict()
        assert parallel.rows[0].failure_types == {"SingularityError": 1}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_types_of_the_reference_cell(self, threads):
        report = run_basic_simulation("sim2", replicates=50, seed=5, models=("C",),
                                      n_values=(100,), p=20, threads=threads)
        (row,) = report.rows
        assert (row.completed, row.failures) == (49, 1)
        assert row.failure_types == {"SingularityError": 1}
        assert report.to_csv().splitlines()[1].endswith(",SingularityError=1")
        assert json.loads(report.to_json())["rows"][0]["failure_types"] == {
            "SingularityError": 1}

    def test_repeated_kind_gives_separate_row_blocks(self):
        kwargs = dict(table="sim2", replicates=50, seed=2, n_values=(40,), p=8)
        twice = run_basic_simulation(models=("A", "A"), **kwargs)
        once = run_basic_simulation(models=("A",), **kwargs)
        assert [row.model for row in twice.rows] == ["A", "A"]
        # the second block draws from its own seeds
        assert twice.rows[0] == once.rows[0]
        assert twice.rows[1] != twice.rows[0]

    def test_heavy_tail_failures_reported_not_dropped(self):
        # Cauchy errors produce occasional near-singular covariances; the
        # harness must account for every requested replicate either way
        report = run_basic_simulation(
            "sim1", replicates=60, seed=99, models=("C",), n_values=(12,), p=8
        )
        (row,) = report.rows
        assert row.requested == 60
        assert row.completed + row.failures == 60
        assert row.rejections <= row.completed

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_data_is_a_counted_failure(self, monkeypatch):
        sample = montecarlo.sample_dataset
        monkeypatch.setattr(
            montecarlo, "sample_dataset",
            lambda model, n, rng: Dataset(values=sample(model, n, rng=rng).values * 1e200),
        )
        report = run_basic_simulation(
            "sim1", replicates=50, seed=2, models=("A",), n_values=(12,), p=8
        )
        (row,) = report.rows
        assert row.failures == 50 and row.completed == 0

    def test_empty_grid_is_an_input_error(self):
        with pytest.raises(InputError):
            run_basic_simulation("sim1", replicates=50, seed=1, models=(), n_values=(12,))
        with pytest.raises(InputError):
            run_basic_simulation("sim1", replicates=50, seed=1, models=("A",), n_values=())
        with pytest.raises(InputError):
            run_power_study(replicates_per_graph=50, seed=1, n_values=())

    def test_report_serialization(self):
        report = run_basic_simulation(
            "sim1", replicates=50, seed=3, models=("A",), n_values=(12,), p=8
        )
        parsed = json.loads(report.to_json())
        assert parsed["table"] == "sim1"
        assert parsed["seed"] == 3
        assert len(parsed["rows"]) == 1
        csv_text = report.to_csv()
        header, line = csv_text.strip().splitlines()
        assert header.startswith("model,n,nabla_or_step")
        assert header.endswith(",mc_standard_error,failure_types")
        assert line.startswith("A,12,1")


class TestPowerStudy:
    def test_grid_shape_and_monotone_tendency(self):
        report = run_power_study(
            replicates_per_graph=20,
            seed=11,
            n_values=(100,),
            p=10,
            edges_per_step=4,
            steps=3,
            chains=2,
        )
        steps = [row.nabla_or_step for row in report.rows]
        assert steps == [0, 1, 2, 3]
        base_row = report.rows[0]
        assert base_row.requested == 20  # single shared base graph
        for row in report.rows[1:]:
            assert row.requested == 40  # 2 chains x 20 replicates
        # the base graph satisfies the null; late steps are far from it
        assert report.rows[-1].reject_fraction > base_row.reject_fraction

    def test_thread_invariance(self):
        kwargs = dict(
            replicates_per_graph=10,
            seed=5,
            n_values=(60,),
            p=8,
            edges_per_step=3,
            steps=2,
            chains=2,
        )
        a = run_power_study(threads=1, **kwargs)
        b = run_power_study(threads=3, **kwargs)
        assert a.to_dict() == b.to_dict()
