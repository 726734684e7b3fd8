"""Regenerate references.json from the package in this tree.

    python3 bench/make_references.py

Run it only at a commit whose outputs are known to be right: every later
benchmark run checks its reference inputs against the values written here.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        refs = {name: cls(0, Path(workdir)).reference_outputs() for name, cls in WORKLOADS.items()}
    (BENCH_DIR / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
