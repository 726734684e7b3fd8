"""Monte Carlo harness: determinism, thread invariance, failure accounting."""

import json

import pytest

from bnsparsity import Dataset, InputError, run_basic_simulation, run_power_study
from bnsparsity import montecarlo
from bnsparsity.cli import main


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
        kwargs = dict(
            table="sim2",
            replicates=50,
            seed=7,
            models=("A",),
            n_values=(12,),
            p=8,
        )
        serial = run_basic_simulation(threads=1, **kwargs)
        parallel = run_basic_simulation(threads=4, **kwargs)
        assert serial.to_dict() == parallel.to_dict()

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
