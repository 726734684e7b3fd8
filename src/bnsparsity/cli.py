"""Command-line interface.

Subcommands: ``test`` (run the max-in-degree test on a CSV), ``simulate``
(generate data from a random network), ``reproduce`` (Monte Carlo
rejection-rate tables and the power study), ``fit-tree`` (tree structure
fit), and ``compare`` (paired network-equality permutation test).

Exit codes: 0 success, 2 input error, 3 numerical error, 4 insufficient
sample.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import DIVISOR_MODES, PROPAGATOR_FORMS
from .covariance import read_csv, write_csv
from .errors import BnSparsityError, InputError
from .manifest import make_manifest, write_manifest
from .montecarlo import DEFAULT_N_VALUES, TABLES, run_basic_simulation, run_power_study
from .simulate import MODEL_KINDS, fresh_seed, random_model, sample_dataset
from .sparsity import max_parents_test, student_t_quantile
from .trees import chow_liu, paired_permutation_equality


def _write_manifest(args, *paths: Path) -> None:
    """Write the manifest of every option to each distinct path. Commands
    call it after filling in every value they chose."""
    manifest = make_manifest(vars(args))
    for path in dict.fromkeys(paths):
        write_manifest(path, manifest)


def _beside(artifact) -> Path:
    return Path(artifact).with_suffix(".manifest.json")


def _cmd_test(args) -> int:
    data = read_csv(args.csv)
    result = max_parents_test(
        data, args.alpha, divisor=args.divisor, gap_tolerance=args.gap_tol,
        form=args.form,
    )
    critical = student_t_quantile(1.0 - result.alpha, result.df)
    print("max in-degree test: H0 top eigenvalue <= 2 (max in-degree <= 1)")
    print(f"  n={result.n}  p={result.p}  df={result.df}")
    print(f"  top eigenvalue (sample)     = {result.lambda1_sample:.6f}")
    print(f"  top eigenvalue (corrected)  = {result.lambda1_cstar:.6f}")
    print(f"  shrinkage intensity         = {result.rho_hat:.6f}")
    print(f"  bias term                   = {result.c_hat:.6f}")
    print(f"  sigma                       = {result.sigma_hat:.6f}")
    print(
        f"  t = {result.t_stat:.4f}  critical({1 - result.alpha:g}) = {critical:.4f}"
        f"  p-value = {result.p_value:.6f}"
    )
    if result.gap_warning:
        print(
            "  warning: clustered sample eigenvalues near the correction target;"
            " some bias terms were skipped"
        )
    if result.reject:
        print(f"  decision: reject H0 at alpha={result.alpha:g};"
              " evidence that the max in-degree exceeds 1")
    else:
        print(f"  decision: fail to reject H0 at alpha={result.alpha:g}"
              " (this does not certify a tree)")
    if args.json_out:
        out = Path(args.json_out)
        out.write_text(result.to_json() + "\n", encoding="utf-8")
        _write_manifest(args, _beside(out))
        print(f"  wrote {out}")
    return 0


def _cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    model = random_model(args.model, args.p, args.max_indegree, rng=rng, density=args.density)
    data = sample_dataset(model, args.n, rng=rng)
    out = Path(args.out)
    write_csv(data, out)
    edges_path = out.with_suffix(".edges")
    edges_path.write_text(model.dag.to_edge_list(), encoding="utf-8")
    written = [out]
    if args.dot_out:
        dot = Path(args.dot_out)
        dot.write_text(model.dag.to_dot(), encoding="utf-8")
        written.append(dot)
    _write_manifest(args, *map(_beside, written))
    print(f"wrote {out} ({args.n}x{args.p}), edge list {edges_path} "
          f"({model.dag.edge_count} edges), seed {args.seed}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.n is None:
        args.n = list(DEFAULT_N_VALUES)
    if args.replicates is None:
        args.replicates = 300 if args.table == "power" else 400
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    common = dict(
        seed=args.seed, n_values=tuple(args.n), alpha=args.alpha, divisor=args.divisor,
        form=args.form, threads=args.threads,
    )
    if args.table == "power":
        if args.replicates * args.chains < 50:
            raise InputError(
                "power study needs replicates x chains >= 50 per step, got "
                f"{args.replicates} x {args.chains}"
            )
        report = run_power_study(
            replicates_per_graph=args.replicates, steps=args.steps, chains=args.chains,
            **common,
        )
    else:
        report = run_basic_simulation(
            args.table, replicates=args.replicates,
            models=tuple(args.models.replace(",", "")), **common,
        )
    csv_path = out_dir / f"{args.table}_report.csv"
    json_path = out_dir / f"{args.table}_report.json"
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    _write_manifest(args, out_dir / f"{args.table}_manifest.json")
    print(report.to_csv(), end="")
    print(f"wrote {csv_path} and {json_path}, seed {args.seed}")
    return 0


def _cmd_fit_tree(args) -> int:
    data = read_csv(args.csv)
    tree = chow_liu(data)
    names = data.names()
    print(f"fitted tree: {len(tree.edges)} edges, total score {tree.total_score:.6f}")
    for i, j, w in sorted(tree.edges):
        print(f"  {names[i]} -- {names[j]}  ({w:.4f})")
    written = []
    if args.dot_out:
        dot = Path(args.dot_out)
        dot.write_text(tree.to_dot(names), encoding="utf-8")
        written.append(dot)
        print(f"wrote {dot}")
    if args.edges_out:
        edges = Path(args.edges_out)
        edges.write_text(tree.to_edge_list(), encoding="utf-8")
        written.append(edges)
        print(f"wrote {edges}")
    _write_manifest(args, *map(_beside, written))
    return 0


def _cmd_compare(args) -> int:
    data_a = read_csv(args.csv_a)
    data_b = read_csv(args.csv_b)
    result = paired_permutation_equality(
        data_a, data_b, m_iterations=args.permutations, alpha=args.alpha, seed=args.seed
    )
    print("paired permutation test for network equality")
    print(f"  observed statistic = {result.observed_statistic:.6f}")
    print(f"  iterations = {result.m_iterations}  seed = {args.seed}")
    print(f"  p-value = {result.p_value:.6f}")
    verdict = "reject equality" if result.p_value < args.alpha else "fail to reject equality"
    print(f"  decision at alpha={args.alpha:g}: {verdict}")
    if args.json_out:
        out = Path(args.json_out)
        out.write_text(result.to_json() + "\n", encoding="utf-8")
        _write_manifest(args, _beside(out))
        print(f"  wrote {out}")
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "reproduce": _cmd_reproduce,
    "fit-tree": _cmd_fit_tree,
    "compare": _cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnsparsity",
        description="Test whether a linear Bayesian network's max in-degree exceeds 1.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run the max-in-degree test on a dataset CSV")
    t.add_argument("csv", help="dataset CSV (header row, numeric rows)")
    t.add_argument("--alpha", type=float, default=0.05, help="test level (default .05)")
    t.add_argument("--divisor", choices=DIVISOR_MODES, default=DIVISOR_MODES[0],
                   help=f"plug-in covariance divisor (default {DIVISOR_MODES[0]})")
    t.add_argument("--gap-tol", type=float, default=None,
                   help="eigenvalue gap tolerance for the bias correction")
    t.add_argument("--form", choices=PROPAGATOR_FORMS, default=PROPAGATOR_FORMS[0],
                   help="covariance propagation: the conservative default shrinks "
                        "harder and holds the nominal level when n is close to p; "
                        "exact is the delta-method-exact factor")
    t.add_argument("--json-out", default=None, help="also write the result as JSON")

    s = sub.add_parser("simulate", help="generate a dataset from a random network")
    s.add_argument("--model", required=True, choices=MODEL_KINDS)
    s.add_argument("--p", required=True, type=int, help="number of variables")
    s.add_argument("--n", required=True, type=int, help="number of samples")
    s.add_argument("--max-indegree", type=int, default=1)
    s.add_argument("--density", type=float, default=1.0,
                   help="parent-count density in [0, 1]; the default 1 gives every "
                        "vertex the maximum feasible parent count (a spanning tree "
                        "at --max-indegree 1)")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--dot-out", default=None, help="also write the graph as DOT")

    r = sub.add_parser("reproduce", help="Monte Carlo rejection-rate studies")
    r.add_argument("--table", required=True, choices=TABLES)
    r.add_argument("--replicates", type=int, default=None,
                   help="replicates per cell (power: per graph; default 400 / 300)")
    r.add_argument("--threads", type=int, default=1,
                   help="worker processes, counting this one, which runs a share of the "
                        "replicates itself; the others are forked from it (default 1; "
                        "fork: Linux and macOS). The tables do not depend on it. Each "
                        "worker keeps its own BLAS threads, so set "
                        "OPENBLAS_NUM_THREADS=1 with --threads > 1")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--models", default="".join(MODEL_KINDS),
                   help="model kinds, e.g. 'AB' or 'A,B' (default all)")
    r.add_argument("--n", type=int, action="append", default=None,
                   help="sample size (repeatable; default "
                        + " ".join(map(str, DEFAULT_N_VALUES)) + ")")
    r.add_argument("--alpha", type=float, default=0.05)
    r.add_argument("--divisor", choices=DIVISOR_MODES, default=DIVISOR_MODES[0])
    r.add_argument("--form", choices=PROPAGATOR_FORMS, default=PROPAGATOR_FORMS[0],
                   help="covariance propagation form used by every test")
    r.add_argument("--steps", type=int, default=10, help="power study: edge-addition steps")
    r.add_argument("--chains", type=int, default=10, help="power study: independent chains")
    r.add_argument("--out-dir", default=".", help="directory for report files")

    f = sub.add_parser("fit-tree", help="fit a tree structure to a dataset CSV")
    f.add_argument("csv")
    f.add_argument("--dot-out", default=None)
    f.add_argument("--edges-out", default=None)

    c = sub.add_parser("compare", help="paired permutation test for equality of two networks")
    c.add_argument("csv_a")
    c.add_argument("csv_b")
    c.add_argument("--M", dest="permutations", type=int, default=1000,
                   help="permutation iterations (default 1000)")
    c.add_argument("--alpha", type=float, default=0.05)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--json-out", default=None)

    return parser


def run(args: argparse.Namespace) -> int:
    """Run a parsed command line, or a namespace rebuilt from a manifest's
    ``parameters``; errors become an ``error:`` line and their exit code.
    A seeded command run without ``--seed`` gets a fresh one here, which its
    manifest then records."""
    try:
        if "seed" in vars(args):
            if args.seed is None:
                args.seed = fresh_seed()
            elif args.seed < 0:
                raise InputError(f"--seed must be non-negative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except BnSparsityError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return InputError.exit_code


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
