"""Command-line surface: outputs, exit codes, determinism, manifests."""

import json
import os

import numpy as np
import scipy

from bnsparsity import Dataset, read_csv, write_csv
from bnsparsity.cli import main
from conftest import chain_dag
from bnsparsity import GenerativeModel, NoiseSpec, sample_dataset


def run_cli(*argv):
    return main(list(argv))


def make_tree_csv(path, rng, p=20, n=100):
    code = run_cli(
        "simulate", "--model", "A", "--p", str(p), "--n", str(n),
        "--seed", "7", "--out", str(path),
    )
    assert code == 0
    return path


class TestSimulate:
    def test_tree_outputs(self, tmp_path):
        out = tmp_path / "data.csv"
        code = run_cli(
            "simulate", "--model", "A", "--p", "20", "--n", "30",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        data = read_csv(out)
        assert data.n == 30 and data.p == 20
        edges = (tmp_path / "data.edges").read_text().strip().splitlines()
        assert len(edges) == 19  # spanning tree at max in-degree 1
        manifest = json.loads((tmp_path / "data.manifest.json").read_text())
        assert manifest["command"] == "simulate" and manifest["seed"] == 1
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas_name"] == blas["name"]
        assert manifest["blas_version"] == blas["version"]
        assert manifest["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")

    def test_same_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run_cli(
                "simulate", "--model", "B", "--p", "6", "--n", "40",
                "--seed", "11", "--out", str(out),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_model_d_integer_columns(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli(
            "simulate", "--model", "D", "--p", "15", "--n", "80",
            "--max-indegree", "2", "--seed", "3", "--out", str(out),
        )
        data = read_csv(out)
        integral = [
            np.all(data.values[:, j] == np.round(data.values[:, j]))
            for j in range(data.p)
        ]
        assert any(integral)  # bernoulli/poisson columns occur at p=15 w.h.p.

    def test_dot_output(self, tmp_path):
        out = tmp_path / "e.csv"
        dot = tmp_path / "e.dot"
        run_cli(
            "simulate", "--model", "E", "--p", "5", "--n", "25",
            "--seed", "2", "--out", str(out), "--dot-out", str(dot),
        )
        assert "digraph" in dot.read_text()


class TestTest:
    def test_tree_data_fails_to_reject(self, tmp_path, capsys):
        csv = make_tree_csv(tmp_path / "tree.csv", None)
        code = run_cli("test", str(csv), "--alpha", "0.05")
        out = capsys.readouterr().out
        assert code == 0
        assert "fail to reject" in out

    def test_json_out_and_key_order(self, tmp_path):
        csv = make_tree_csv(tmp_path / "tree.csv", None)
        json_path = tmp_path / "result.json"
        code = run_cli("test", str(csv), "--json-out", str(json_path))
        assert code == 0
        parsed = json.loads(json_path.read_text())
        assert list(parsed)[:3] == ["lambda1_cstar", "lambda1_sample", "rho_hat"]
        assert parsed["n"] == 100 and parsed["p"] == 20
        assert (tmp_path / "result.manifest.json").exists()

    def test_insufficient_sample_exit_code(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        rng = np.random.default_rng(0)
        write_csv(Dataset(values=rng.standard_normal((10, 20))), path)
        code = run_cli("test", str(path))
        assert code == 4
        assert "n=10" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,zzz\n", encoding="utf-8")
        assert run_cli("test", str(path)) == 2

    def test_singular_exit_code(self, tmp_path):
        path = tmp_path / "singular.csv"
        rng = np.random.default_rng(0)
        col = rng.standard_normal(30)
        values = np.column_stack([col, col, rng.standard_normal(30)])
        write_csv(Dataset(values=values), path)
        assert run_cli("test", str(path)) == 3

    def test_psoriasis_shaped_run(self, tmp_path, capsys):
        # same-shape stand-in for the study data: n=30, p=22, df must be 8
        out = tmp_path / "shaped.csv"
        run_cli(
            "simulate", "--model", "A", "--p", "22", "--n", "30",
            "--seed", "5", "--out", str(out),
        )
        capsys.readouterr()
        code = run_cli("test", str(out))
        printed = capsys.readouterr().out
        assert code == 0
        assert "df=8" in printed


class TestReproduce:
    def test_sim1_smoke(self, tmp_path, capsys):
        code = run_cli(
            "reproduce", "--table", "sim1", "--replicates", "50",
            "--models", "A", "--n", "25", "--seed", "13",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "sim1_report.json").read_text())
        assert report["seed"] == 13
        (row,) = report["rows"]
        assert row["requested"] == 50
        assert 0.0 <= row["reject_fraction"] <= 1.0
        assert (tmp_path / "sim1_report.csv").exists()
        assert (tmp_path / "sim1_manifest.json").exists()

    def test_power_smoke(self, tmp_path):
        code = run_cli(
            "reproduce", "--table", "power", "--replicates", "10",
            "--chains", "5", "--steps", "2", "--n", "60", "--seed", "21",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "power_report.json").read_text())
        assert [row["nabla_or_step"] for row in report["rows"]] == [0, 1, 2]

    def test_replicate_floor(self, tmp_path):
        assert (
            run_cli(
                "reproduce", "--table", "sim1", "--replicates", "10",
                "--seed", "1", "--out-dir", str(tmp_path),
            )
            == 2
        )
        assert (
            run_cli(
                "reproduce", "--table", "power", "--replicates", "5",
                "--chains", "2", "--seed", "1", "--out-dir", str(tmp_path),
            )
            == 2
        )


class TestFitTreeAndCompare:
    def _chain_csv(self, path, seed):
        rng = np.random.default_rng(seed)
        dag = chain_dag(10, 1.0)
        model = GenerativeModel(kind="A", dag=dag, noise=NoiseSpec(variances=np.ones(10)))
        data = sample_dataset(model, 400, rng=rng)
        write_csv(data, path)
        return path

    def test_fit_tree_chain(self, tmp_path, capsys):
        csv = self._chain_csv(tmp_path / "chain.csv", 4)
        dot = tmp_path / "tree.dot"
        edges = tmp_path / "tree.edges"
        code = run_cli(
            "fit-tree", str(csv), "--dot-out", str(dot), "--edges-out", str(edges)
        )
        assert code == 0
        assert "9 edges" in capsys.readouterr().out
        assert len(edges.read_text().strip().splitlines()) == 9
        assert "graph tree" in dot.read_text()

    def test_compare_identical_gives_p_one(self, tmp_path, capsys):
        csv = self._chain_csv(tmp_path / "x.csv", 8)
        code = run_cli("compare", str(csv), str(csv), "--M", "99", "--seed", "1")
        assert code == 0
        assert "p-value = 1.0" in capsys.readouterr().out

    def test_compare_json(self, tmp_path):
        a = self._chain_csv(tmp_path / "a.csv", 1)
        b = self._chain_csv(tmp_path / "b.csv", 2)
        out = tmp_path / "cmp.json"
        code = run_cli(
            "compare", str(a), str(b), "--M", "99", "--seed", "5",
            "--json-out", str(out),
        )
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["m_iterations"] == 99
        assert 0.0 < parsed["p_value"] <= 1.0

    def test_shape_mismatch_exit_code(self, tmp_path):
        a = self._chain_csv(tmp_path / "a.csv", 1)
        path = tmp_path / "c.csv"
        write_csv(Dataset(values=np.random.default_rng(3).standard_normal((10, 4))), path)
        assert run_cli("compare", str(a), str(path), "--M", "99") == 2
