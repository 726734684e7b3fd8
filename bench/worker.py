"""One benchmark workload in its own process.

Started by run.py, once per set-up sample (``--setup-only``) and once for
the measured run. Set-up is import, input generation, CSV writing and one
warm-up call. The measured run then checks the committed references, runs
the timed loop and, with ``--trace 1``, the per-layer breakdown. It prints
one JSON object as its last line of standard output.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from calibration import REFERENCE_KERNEL_S, Calibration  # noqa: E402

# Every run has at least this many cycles, so the slow calls (one a cycle)
# have more than one sample even when the machine is slow.
MIN_CYCLES = 2
# Calibration kernel runs before each timed call, and after set-up; a run's
# timings are scaled by the median of all its kernel runs.
KERNEL_RUNS = 3
SETUP_KERNEL_RUNS = 15
# Traced and untraced probe calls alternate for this long (and at least
# three pairs) to measure tracing overhead.
PROBE_SECONDS = 4.0
MAX_REPORTED_PROBLEMS = 20


class Checks:
    """Counts checked operations and keeps the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_REPORTED_PROBLEMS - len(self.problems)
            self.problems += [f"{label}: {p}" for p in problems[:max(room, 0)]]


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_loop(workload, seconds: float, checks: Checks, tracer=None):
    """Run whole cycles of calls until another cycle would pass ``seconds``;
    the first MIN_CYCLES always run. Returns per-item seconds by configuration,
    the calibration kernel's times (KERNEL_RUNS of them before every call)
    and (tag, wall seconds, workers) per call."""
    calibration = Calibration()
    samples = {config: [] for config in workload.configs}
    kernel = []
    calls = []
    start = time.perf_counter()
    last_cycle = 0.0
    index = 0
    while index < MIN_CYCLES or time.perf_counter() - start + last_cycle <= seconds:
        cycle_start = time.perf_counter()
        for call in workload.cycle(index):
            tag = (call.config, len(calls))
            kernel += calibration.sample(KERNEL_RUNS)
            if tracer is not None:
                tracer.tag = tag
            t0 = time.perf_counter()
            try:
                output = call.run()
            except Exception:
                checks.record(f"{call.config} call {tag[1]}", [traceback.format_exc(limit=3)])
                calls.append((tag, time.perf_counter() - t0, call.workers))
                continue
            wall = time.perf_counter() - t0
            calls.append((tag, wall, call.workers))
            samples[call.config].append(wall / call.items)
            checks.record(f"{call.config} call {tag[1]}", call.check(output))
        last_cycle = time.perf_counter() - cycle_start
        index += 1
    if tracer is not None:
        tracer.tag = None
    return samples, kernel, calls


def trace_overhead(workload) -> float:
    """Median traced probe time over median untraced probe time, minus one,
    from alternating pairs; the probe is a cheap call of the workload."""
    from tracing import Tracer

    traced, plain = [], []
    start = time.perf_counter()
    pair = 0
    while pair < 3 or time.perf_counter() - start < PROBE_SECONDS:
        pair += 1
        for hooked in (True, False) if pair % 2 == 0 else (False, True):
            probe_tracer = Tracer()
            if hooked:
                probe_tracer.install()
            t0 = time.perf_counter()
            try:
                workload.probe()
            finally:
                elapsed = time.perf_counter() - t0
                probe_tracer.uninstall()
            (traced if hooked else plain).append(elapsed)
    return statistics.median(traced) / statistics.median(plain) - 1.0


def layer_report(workload, tracer, calls) -> tuple[dict, dict]:
    """Per-layer metrics and the dominant layers of each configuration."""
    from tracing import FAILURE_TYPES

    metrics = dict(tracer.layer_metrics())
    mc_calls = calls if workload.name == "mc_tables" else []
    capacity = sum(wall * workers for _, wall, workers in mc_calls)
    test_s = work_s = 0.0
    for tag, _, _ in mc_calls:
        test, work = tracer.mc_work(tag)
        test_s += test
        work_s += work
    metrics["montecarlo.overhead_s"] = (capacity - work_s, "s")
    metrics["montecarlo.busy_frac"] = (test_s / capacity if capacity else 0.0, "frac")
    failures = tracer.failure_counts()
    for kind in FAILURE_TYPES + ("other",):
        metrics[f"montecarlo.failures.{kind}"] = (None if failures is None else failures[kind],
                                                  "count")
    breakdown = {}
    for config in workload.configs:
        self_s = tracer.self_seconds(config)
        total = sum(self_s.values())
        ranked = sorted((kv for kv in self_s.items() if kv[1] > 0), key=lambda kv: -kv[1])[:3]
        breakdown[config] = [(layer, s, s / total if total else 0.0) for layer, s in ranked]
    return metrics, breakdown


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        workload.warm_up()
        setup_s = time.perf_counter() - _START
        setup = {"setup_s": setup_s, "setup_ref_s": Calibration.to_reference(
            setup_s, Calibration().sample(SETUP_KERNEL_RUNS))}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        checks = Checks()
        expected = json.loads((BENCH_DIR / "references.json").read_text())[workload.name]
        checks.record("committed references",
                      workload.diff_reference(expected, workload.reference_outputs()))

        out = dict(setup, env=environment())
        if args.trace:
            from tracing import Tracer

            with Tracer() as tracer:
                samples, _, calls = timed_loop(workload, args.seconds, checks, tracer)
            metrics, breakdown = layer_report(workload, tracer, calls)
            metrics["trace.overhead_frac"] = (trace_overhead(workload), "frac")
            out.update(layers=metrics, missing=tracer.missing, breakdown=breakdown)
        else:
            samples, kernel, calls = timed_loop(workload, args.seconds, checks)
            out["items"] = {
                f"item_ref_s.{k}": Calibration.to_reference(statistics.median(samples[config]),
                                                            kernel)
                for k, config in enumerate(workload.configs, start=1)
                if samples[config]
            }
            out.update(kernel_s=statistics.median(kernel), kernel_ref_s=REFERENCE_KERNEL_S)
            out["named"] = workload.named_metrics(samples) if all(samples.values()) else {}
        out["notes"] = workload.notes() if hasattr(workload, "notes") else []
        out["samples"] = {config: len(values) for config, values in samples.items()}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["checks"] = vars(checks)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
