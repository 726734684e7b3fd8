"""Machine-speed calibration for the benchmark's timings.

On a shared host the same call can take twice as long in one minute as in
the next, with CPU time equal to wall time (the core is slower, not busy
elsewhere). The benchmark therefore runs a fixed kernel of its own between
timed calls and reports timings at reference speed: a time measured while
the kernel took ``k`` seconds is reported multiplied by
``REFERENCE_KERNEL_S / k``. The kernel mirrors the package's hot paths
(Python loops over small numpy column updates as in the Jacobi eigensolver,
a keyed sort as in Chow-Liu, small LAPACK solves) and never calls the
package, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time that defines reference speed: roughly its median on the
# 2-core machine the baseline was taken on.
REFERENCE_KERNEL_S = 0.005


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 30))
        self._sym = a + a.T
        self._keys = rng.random(1500).tolist()
        m = rng.standard_normal((120, 120))
        self._spd = m @ m.T + 120.0 * np.eye(120)
        self._rhs = m[:, :8]

    def _kernel(self) -> None:
        x = self._sym.copy()
        for i in range(29):
            for j in range(i + 1, 30):
                g = x[:, i].copy()
                h = x[:, j].copy()
                x[:, i] = 0.6 * g - 0.8 * h
                x[:, j] = 0.8 * g + 0.6 * h
        sorted(range(len(self._keys)), key=lambda k: (-self._keys[k], k))
        for _ in range(4):
            np.linalg.solve(self._spd, self._rhs)

    def sample(self, runs: int) -> list[float]:
        """Seconds of each of ``runs`` kernel runs."""
        out = []
        for _ in range(runs):
            start = time.perf_counter()
            self._kernel()
            out.append(time.perf_counter() - start)
        return out

    @staticmethod
    def to_reference(seconds: float, kernel_samples: list[float]) -> float:
        return seconds * REFERENCE_KERNEL_S / statistics.median(kernel_samples)
