"""Benchmark of bnsparsity: single-test latency by p, Monte Carlo throughput,
permutation throughput, and a per-module trace.

    python3 bench/run.py --workload single_test --seed 1 --seconds 30 --trace 0

Workloads (inputs and checks in workloads.py, reasons in NOTES.md):

  single_test  read_csv + max_parents_test, p = 20, 40, 40 (exact form), 60
  mc_tables    sim2 grid at 1 and 2 workers, power study at 2 and 1 workers
  compare      paired_permutation_equality, M = 199, p = 10, 20, 40, 60
  all          the three in turn, printing every named metric

Each workload runs in child processes of its own (worker.py): set-up is
timed in SETUP_SAMPLES processes and reported as their median, and the last
of them also checks the outputs and measures. Lines starting with '#' are
for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are item_ref_s.1
to item_ref_s.4 (median seconds per work item of the workload's four call
kinds), setup_s and peak_rss_mb, timings at the reference speed of
calibration.py; with --trace 1 they are the per-layer metrics, and a layer
whose hook no longer exists has value null and "missing": true.

Exit code 0 when every child ran (a failed check gives "correct": false),
1 when a child failed or timed out, 2 when the tree has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("single_test", "mc_tables", "compare")
SETUP_SAMPLES = 3
# A run must end within 180 s: two set-up children and the measured one.
SETUP_TIMEOUT_S = 15
RUN_TIMEOUT_S = 140
# BLAS threads per child when OPENBLAS_NUM_THREADS is unset. With two
# threads on a 2-core machine a p = 20 test took anywhere from 50 to 215 ms
# from one call to the next; with one it held 74 +- 1 ms.
BLAS_THREADS = "1"


class ChildFailed(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the tree being measured, with "+dirty" for tracked changes."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=20)
        lines = head.stdout.split()
        if head.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return "unknown (not a git checkout)"
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return lines[1] + ("+dirty" if status.stdout.strip() else "")


def child_env() -> dict:
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(argv)} timed out after {timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, env: dict) -> dict:
    argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        setups = [run_child(argv + ["--setup-only"], env, SETUP_TIMEOUT_S)
                  for _ in range(SETUP_SAMPLES - 1)]
    result = run_child(argv, env, RUN_TIMEOUT_S)
    result["setups"] = setups + [result]
    return result


def metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the lines for people; return the workload's metrics."""
    checks = result["checks"]
    print(f"# [{name}] calls per configuration: {result['samples']}")
    print(f"# [{name}] checks: {checks['attempted'] - checks['failed']} passed, "
          f"{checks['failed']} failed; failed_frac = "
          f"{checks['failed'] / max(checks['attempted'], 1):.4g}")
    for problem in checks["problems"]:
        print(f"# [{name}] CHECK FAILED {problem}")
    for note in result["notes"]:
        print(f"# [{name}] {note}")
    if trace:
        if name == "mc_tables":
            failures = {key.rsplit(".", 1)[1]: value
                        for key, (value, _) in result["layers"].items()
                        if key.startswith("montecarlo.failures.") and value}
            print(f"# [{name}] failures seen at montecarlo.max_parents_test by type: {failures}")
        for layer in result["missing"]:
            print(f"# [{name}] layer {layer} is missing: its hook names no longer exist")
        for config, ranked in result["breakdown"].items():
            top = ", ".join(f"{layer} {s:.3f} s ({share:.0%})" for layer, s, share in ranked)
            print(f"# [{name}] {config}: top self time {top}")
        return {key: metric(value, unit) for key, (value, unit) in result["layers"].items()}
    for key, (value, unit, note) in result["named"].items():
        print(f"# [{name}] {key} = {value:.6g} {unit} ({note})")
    setup_raw = [s["setup_s"] for s in result["setups"]]
    setup = statistics.median(s["setup_ref_s"] for s in result["setups"])
    print(f"# [{name}] setup_s = {statistics.median(setup_raw):.4g} s (median of "
          f"{[round(s, 4) for s in setup_raw]}), {setup:.4g} s at reference speed")
    print(f"# [{name}] peak_rss_mb = {result['peak_rss_mb']:.1f} MB")
    print(f"# [{name}] calibration kernel median {result['kernel_s'] * 1e3:.3f} ms "
          f"(reference speed: {result['kernel_ref_s'] * 1e3:g} ms)")
    metrics = {key: metric(value, "s") for key, value in result["items"].items()}
    metrics["setup_s"] = metric(setup, "s")
    metrics["peak_rss_mb"] = metric(result["peak_rss_mb"], "MB")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "bnsparsity" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# bnsparsity benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            result = run_workload(name, args, env)
        except ChildFailed as err:
            print(f"benchmark child failed: {err}", file=sys.stderr)
            return 1
        if name == names[0]:
            record = dict(result["env"], git_commit=git_commit(),
                          OPENBLAS_NUM_THREADS_inherited=os.environ.get("OPENBLAS_NUM_THREADS"))
            print(f"# env: {json.dumps(record)}")
        workload_metrics = report(name, result, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in workload_metrics.items()})
        attempted += result["checks"]["attempted"]
        failed += result["checks"]["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
