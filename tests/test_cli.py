"""Command-line surface: outputs, exit codes, determinism, manifests."""

import argparse
import json
import os

import numpy as np
import pytest
import scipy

from bnsparsity import Dataset, asymptotics, max_parents_test, read_csv, sparsity, write_csv
from bnsparsity.cli import main, run
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
        scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["scipy_blas_name"] == scipy_blas["name"]
        assert manifest["scipy_blas_version"] == scipy_blas["version"]
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
        rng = np.random.default_rng(0)
        col = rng.standard_normal(30)
        duplicated = np.column_stack([col, col, rng.standard_normal(30)])
        # a column of 0.1 at n = 60: its mean rounds, and only exact
        # detection keeps it from passing as an uncorrelated variable
        constant = np.column_stack([rng.standard_normal((60, 3)), np.full(60, 0.1)])
        for name, values in (("duplicated", duplicated), ("constant", constant)):
            path = tmp_path / f"{name}.csv"
            write_csv(Dataset(values=values), path)
            assert run_cli("test", str(path)) == 3, name

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

    def test_too_many_iterations_exit_code(self, tmp_path, capsys):
        a = self._chain_csv(tmp_path / "a.csv", 1)
        assert run_cli("compare", str(a), str(a), "--M", str(2**32)) == 2
        assert "at most 4294967295 permutation iterations" in capsys.readouterr().err


class TestGapTolerance:
    def test_large_tolerance_skips_bias_terms(self, tmp_path):
        csv = make_tree_csv(tmp_path / "tree.csv", None)
        data = read_csv(csv)
        default = max_parents_test(data)
        wide = max_parents_test(data, gap_tolerance=100.0)
        assert not default.gap_warning and wide.gap_warning
        assert default.c_hat != 0.0 and wide.c_hat == 0.0

        json_path = tmp_path / "wide.json"
        assert run_cli("test", str(csv), "--gap-tol", "100", "--json-out", str(json_path)) == 0
        assert json.loads(json_path.read_text()) == wide.to_dict()
        manifest = json.loads((tmp_path / "wide.manifest.json").read_text())
        assert manifest["parameters"]["gap_tol"] == 100.0


class TestManifests:
    def test_every_artifact_has_a_manifest_of_every_option(self, tmp_path):
        csv = tmp_path / "d.csv"
        assert run_cli("simulate", "--model", "A", "--p", "6", "--n", "40",
                       "--out", str(csv), "--dot-out", str(tmp_path / "g.dot")) == 0
        assert run_cli("test", str(csv), "--json-out", str(tmp_path / "t.json")) == 0
        assert run_cli("fit-tree", str(csv), "--edges-out", str(tmp_path / "f.edges")) == 0
        assert run_cli("compare", str(csv), str(csv), "--M", "99",
                       "--json-out", str(tmp_path / "c.json")) == 0
        assert run_cli("reproduce", "--table", "sim1", "--replicates", "50", "--models", "A",
                       "--n", "12", "--out-dir", str(tmp_path)) == 0
        for name, command in [
            ("d.manifest.json", "simulate"), ("g.manifest.json", "simulate"),
            ("t.manifest.json", "test"), ("f.manifest.json", "fit-tree"),
            ("c.manifest.json", "compare"), ("sim1_manifest.json", "reproduce"),
        ]:
            manifest = json.loads((tmp_path / name).read_text())
            assert manifest["command"] == manifest["parameters"]["command"] == command
            assert "func" not in manifest["parameters"]
            if command in ("simulate", "compare", "reproduce"):
                assert isinstance(manifest["parameters"]["seed"], int)
                assert manifest["seed"] == manifest["parameters"]["seed"]
        params = json.loads((tmp_path / "sim1_manifest.json").read_text())["parameters"]
        assert params["threads"] == 1 and params["replicates"] == 50
        assert params["n"] == [12] and params["models"] == "A"
        assert params["divisor"] == "nminusp" and params["form"] == "conservative"

    def test_replay_from_manifest_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        assert run_cli("simulate", "--model", "C", "--p", "8", "--n", "60",
                       "--out", str(first / "d.csv")) == 0
        assert run_cli("reproduce", "--table", "sim1", "--replicates", "50", "--models", "AC",
                       "--n", "25", "--threads", "2", "--out-dir", str(first)) == 0

        params = json.loads((first / "d.manifest.json").read_text())["parameters"]
        assert run(argparse.Namespace(**dict(params, out=str(second / "d.csv")))) == 0
        params = json.loads((first / "sim1_manifest.json").read_text())["parameters"]
        assert run(argparse.Namespace(**dict(params, out_dir=str(second)))) == 0
        for name in ("d.csv", "d.edges", "sim1_report.csv", "sim1_report.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _bad_input(tmp_path, kind):
    """A command line that must fail with a typed error."""
    path = tmp_path / "bad.csv"
    if kind == "missing":
        return ["test", str(tmp_path / "missing.csv")]
    if kind == "directory":
        return ["test", str(tmp_path)]
    if kind == "not-utf8":
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        return ["test", str(path)]
    if kind == "oversized-field":
        path.write_text("a,b\n" + "1" * 200_000 + ",1\n", encoding="utf-8")
        return ["test", str(path)]
    if kind == "unwritable":
        return ["simulate", "--model", "A", "--p", "3", "--n", "10",
                "--out", str(tmp_path / "nodir" / "x.csv")]
    if kind.startswith("negative-seed"):
        write_csv(Dataset(values=np.random.default_rng(0).standard_normal((30, 3))), path)
        return {
            "negative-seed-simulate": ["simulate", "--model", "A", "--p", "3", "--n", "10",
                                       "--out", str(tmp_path / "x.csv")],
            "negative-seed-reproduce": ["reproduce", "--table", "sim1", "--replicates", "50",
                                        "--out-dir", str(tmp_path)],
            "negative-seed-compare": ["compare", str(path), str(path), "--M", "99"],
        }[kind] + ["--seed", "-1"]
    if kind.startswith("gap-tol"):
        write_csv(Dataset(values=np.random.default_rng(0).standard_normal((40, 6))), path)
        value = {"gap-tol-nan": "nan", "gap-tol-negative": "-1", "gap-tol-inf": "inf"}[kind]
        return ["test", str(path), "--gap-tol", value]
    # second moments that overflow, or that underflow below the smallest
    # normal double
    moment, command = kind.split("-", 1)
    scale = {"overflow": 1e200, "underflow160": 1e-160, "underflow200": 1e-200}[moment]
    values = np.random.default_rng(0).standard_normal((100, 5)) * scale
    write_csv(Dataset(values=values), path)
    return {
        "test": ["test", str(path)],
        "fit-tree": ["fit-tree", str(path)],
        "compare": ["compare", str(path), str(path), "--M", "99"],
    }[command]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [
    "missing", "directory", "not-utf8", "oversized-field", "unwritable",
    "overflow-test", "overflow-fit-tree", "overflow-compare",
    "underflow160-test", "underflow160-fit-tree", "underflow160-compare",
    "underflow200-test", "underflow200-fit-tree", "underflow200-compare",
    "negative-seed-simulate", "negative-seed-reproduce", "negative-seed-compare",
    "gap-tol-nan", "gap-tol-negative", "gap-tol-inf",
])
def test_bad_input_is_a_typed_error(tmp_path, capsys, monkeypatch, kind):
    argv = _bad_input(tmp_path, kind)
    # a bad gap tolerance is refused on entry, before the dense asymptotics
    asymptotics_calls = []
    real = sparsity.build_asymptotics

    def spy(*args, **kwargs):
        asymptotics_calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparsity, "build_asymptotics", spy)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and captured.out == ""
    if kind.startswith("underflow"):
        assert "data too small" in captured.err
    if kind.startswith("gap-tol"):
        assert asymptotics_calls == []


def test_dimension_over_the_cap_is_a_typed_error(tmp_path, capsys, monkeypatch):
    # the cap is lowered below the file's p, not met with a real p = 129
    # file: if the check came after S (x) S, that would allocate 2.2 GB
    path = tmp_path / "wide.csv"
    write_csv(Dataset(values=np.random.default_rng(0).standard_normal((40, 6))), path)
    monkeypatch.setattr(asymptotics, "MAX_DIMENSION", 5)
    capsys.readouterr()
    assert run_cli("test", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "dimension 6 exceeds the dense-construction cap 5" in captured.err
    assert captured.out == ""


def _assert_scaled_run_matches(tmp_path, scale: float, *options: str) -> None:
    """``bnsparsity test`` on a file and on the file times ``scale`` give
    the same 13 keys, floats within 1e-13 relative."""
    values = np.random.default_rng(0).standard_normal((100, 5))
    results = []
    for name, factor in (("plain", 1.0), ("scaled", scale)):
        path = tmp_path / f"{name}.csv"
        write_csv(Dataset(values=values * factor), path)
        out = tmp_path / f"{name}.json"
        assert run_cli("test", str(path), *options, "--json-out", str(out)) == 0
        results.append(json.loads(out.read_text()))
    plain, scaled = results
    assert plain.keys() == scaled.keys()
    for key, value in plain.items():
        if isinstance(value, float):
            assert scaled[key] == pytest.approx(value, rel=1e-13), key
        else:
            assert scaled[key] == value, key


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e100, 1e-100], ids=["1e+100", "1e-100"])
def test_exact_form_at_extreme_scale_matches_unscaled(tmp_path, scale):
    # S (x) S at these scales overflows or underflows, but the exact form
    # takes its plug-ins at a power-of-four scale, so the result is the
    # unscaled file's up to the rounding of the scaled data. Over five
    # suites (p = 5 to 40) at 1e+-100 the worst field moved 3.9e-15.
    _assert_scaled_run_matches(tmp_path, scale, "--form", "exact")


@pytest.mark.filterwarnings("error")
def test_smallest_accepted_scale_matches_unscaled(tmp_path):
    # second moments near 1e-300 are still normal doubles, and the
    # reciprocal scales of the correlation estimate (about 1e150) do not
    # overflow; from about 1e-154 on the data is refused as too small
    _assert_scaled_run_matches(tmp_path, 1e-150)
