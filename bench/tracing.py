"""Per-layer tracing for the benchmark's traced runs.

Layers are the package modules. Each hook replaces a public function at the
name its caller looks up (``bnsparsity.sparsity.build_asymptotics`` is the
name ``max_parents_test`` calls), so the package itself is not modified. A
hook whose name no longer exists is reported as missing, never as zero.
Only traced runs install hooks; untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import tracemalloc
from dataclasses import dataclass

# (module whose global the caller looks up, attribute, layer it belongs to)
HOOKS = (
    ("bnsparsity.covariance", "read_csv", "covariance.read_csv"),
    ("bnsparsity.sparsity", "build_suite", "covariance.build_suite"),
    ("bnsparsity.sparsity", "normalized_precision_eigen", "kernels.eigen"),
    ("bnsparsity.sparsity", "build_asymptotics", "asymptotics.build_asymptotics"),
    ("bnsparsity.sparsity", "shrink", "shrinkage.shrink"),
    ("bnsparsity.sparsity", "corrected_top_eigenvalue", "correction.corrected_top_eigenvalue"),
    ("bnsparsity.sparsity", "max_parents_test", "sparsity.max_parents_test"),
    ("bnsparsity.montecarlo", "max_parents_test", "sparsity.max_parents_test"),
    ("bnsparsity.montecarlo", "random_model", "simulate.random_model"),
    ("bnsparsity.montecarlo", "sample_dataset", "simulate.sample_dataset"),
    ("bnsparsity.trees", "chow_liu", "trees.chow_liu"),
    ("bnsparsity.trees", "paired_permutation_equality", "trees.paired_permutation_equality"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in HOOKS))

# Exceptions seen by this hook are counted by type: it sits where the Monte
# Carlo harness calls the test, before the harness turns errors into strings.
FAILURE_HOOK = ("bnsparsity.montecarlo", "max_parents_test")
FAILURE_TYPES = (
    "SingularityError",
    "ConvergenceError",
    "DegenerateVarianceError",
    "InsufficientSampleError",
)
# tracemalloc peak is taken inside this layer's first call of each workload
# configuration on the main thread; tracing allocations slows the call, so
# the others run without it.
ALLOC_LAYER = "asymptotics.build_asymptotics"
# Spans that count as useful Monte Carlo work rather than harness overhead.
MC_WORK_LAYERS = ("sparsity.max_parents_test", "simulate.random_model", "simulate.sample_dataset")


@dataclass
class Span:
    layer: str
    tag: tuple[str, int] | None  # (workload configuration, call number)
    start: float
    end: float
    child_s: float
    error: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records one span per hooked call; spans stay in memory until the run
    ends. ``tag`` labels the spans of the workload call in progress with its
    configuration and call number."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tag: tuple[str, int] | None = None
        self.missing: list[str] = []
        self.counts_failures = False
        self.peak_alloc_bytes = 0
        self._alloc_seen: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, count_failures: bool = False):
        track_alloc = layer == ALLOC_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time spent in child spans
            stack.append(frame)
            tag = self.tag
            alloc = (track_alloc and tag is not None and tag[0] not in self._alloc_seen
                     and threading.current_thread() is threading.main_thread())
            if alloc:
                tracemalloc.start()
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                error = type(err).__name__ if count_failures else None
                raise
            finally:
                end = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                with self._lock:
                    self.spans.append(Span(layer, tag, start, end, frame[0], error))
                    if alloc:
                        self._alloc_seen.add(tag[0])
                        self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak)

        return traced

    def install(self) -> None:
        """Wrap every hook that exists; record the ones that do not."""
        present = set()
        for module_name, attr, layer in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            counted = (module_name, attr) == FAILURE_HOOK
            self.counts_failures |= counted
            setattr(module, attr, self.wrap(layer, original, count_failures=counted))
            self._originals.append((module, attr, original))
            present.add(layer)
        self.missing = [layer for layer in LAYERS if layer not in present]

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_seconds(self, config: str | None = None) -> dict[str, float]:
        """Self time per layer, over all spans or those of one configuration."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            if config is None or (span.tag is not None and span.tag[0] == config):
                out[span.layer] += span.self_s
        return out

    def layer_metrics(self) -> dict[str, tuple[float | None, str]]:
        """``<layer>.calls`` and ``<layer>.self_s``; None marks a missing hook."""
        calls = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            calls[span.layer] += 1
        self_s = self.self_seconds()
        metrics = {}
        for layer in LAYERS:
            missing = layer in self.missing
            metrics[f"{layer}.calls"] = (None if missing else calls[layer], "count")
            metrics[f"{layer}.self_s"] = (None if missing else self_s[layer], "s")
        metrics["asymptotics.peak_alloc_mb"] = (
            None if ALLOC_LAYER in self.missing else self.peak_alloc_bytes / 2**20,
            "MB",
        )
        return metrics

    def failure_counts(self) -> dict[str, int] | None:
        """Monte Carlo test failures by exception type; None if unhooked."""
        if not self.counts_failures:
            return None
        counts = dict.fromkeys(FAILURE_TYPES + ("other",), 0)
        for span in self.spans:
            if span.error is not None:
                counts[span.error if span.error in counts else "other"] += 1
        return counts

    def mc_work(self, tag: tuple[str, int]) -> tuple[float, float]:
        """(test seconds, test + simulate seconds) summed over one call's spans.

        Durations, not self times: a test span's children are test stages."""
        test = work = 0.0
        for span in self.spans:
            if span.tag == tag and span.layer in MC_WORK_LAYERS:
                work += span.duration
                if span.layer == "sparsity.max_parents_test":
                    test += span.duration
        return test, work
