"""Run manifests: every artifact file is written next to a manifest holding
the command, full parameters, and master seed needed to reproduce it, and
what else changes its bits: the numpy, scipy and BLAS builds and the BLAS
thread count."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__


def _blas_build() -> tuple[str | None, str | None]:
    """Name and version of the BLAS numpy was built against."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return blas.get("name"), blas.get("version")


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    divisor: str
    gap_tolerance: float | None
    version: str
    timestamp: str
    numpy_version: str
    scipy_version: str
    blas_name: str | None
    blas_version: str | None
    openblas_num_threads: str | None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "divisor": self.divisor,
            "gap_tolerance": self.gap_tolerance,
            "version": self.version,
            "timestamp": self.timestamp,
            "numpy_version": self.numpy_version,
            "scipy_version": self.scipy_version,
            "blas_name": self.blas_name,
            "blas_version": self.blas_version,
            "openblas_num_threads": self.openblas_num_threads,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def make_manifest(
    command: str,
    parameters: dict,
    seed: int | None,
    divisor: str = "nminusp",
    gap_tolerance: float | None = None,
) -> RunManifest:
    blas_name, blas_version = _blas_build()
    return RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        divisor=divisor,
        gap_tolerance=gap_tolerance,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
        blas_name=blas_name,
        blas_version=blas_version,
        openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
    )


def write_manifest(path, manifest: RunManifest) -> None:
    Path(path).write_text(manifest.to_json() + "\n", encoding="utf-8")
