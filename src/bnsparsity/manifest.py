"""Run manifests: every artifact file is written next to a manifest holding
the command, every option and the master seed needed to reproduce it, and
what else changes its bits: the numpy and scipy builds, the BLAS each was
built against, and the BLAS thread count."""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .records import Record


def _blas_build(module) -> tuple[str | None, str | None]:
    """Name and version of the BLAS numpy or scipy was built against. They
    can differ: scipy's carries the Cholesky factor and inverse of S (x) S,
    the exact form's rank-p update of G and the condition estimate, numpy's
    the eigensolver and the other matrix products."""
    config = module.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return blas.get("name"), blas.get("version")


@dataclass(frozen=True)
class RunManifest(Record):
    command: str
    parameters: dict
    seed: int | None
    version: str
    timestamp: str
    numpy_version: str
    scipy_version: str
    blas_name: str | None
    blas_version: str | None
    scipy_blas_name: str | None
    scipy_blas_version: str | None
    openblas_num_threads: str | None


def make_manifest(parameters: dict) -> RunManifest:
    """Manifest for a run whose every option, ``command`` included, is in
    ``parameters``; ``seed`` repeats the master seed, null for seedless runs."""
    blas_name, blas_version = _blas_build(np)
    scipy_blas_name, scipy_blas_version = _blas_build(scipy)
    return RunManifest(
        command=parameters["command"],
        parameters=parameters,
        seed=parameters.get("seed"),
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
        blas_name=blas_name,
        blas_version=blas_version,
        scipy_blas_name=scipy_blas_name,
        scipy_blas_version=scipy_blas_version,
        openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
    )


def write_manifest(path, manifest: RunManifest) -> None:
    Path(path).write_text(manifest.to_json() + "\n", encoding="utf-8")
