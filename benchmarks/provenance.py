"""Provenance stamp and JSON writer shared by the two-tier benchmarks.

A speed number only means something next to where it was measured: core
count, BLAS library and its thread count, interpreter and numpy/scipy
versions, and the git SHA of the measured tree.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.blas import find_openblas, usable_cpus  # noqa: E402


def blas() -> str:
    """BLAS library and version numpy was built against."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def provenance() -> dict:
    """Where and with what the numbers were measured.

    ``blas_threads`` is the OpenBLAS thread count outside any server
    (``None`` without OpenBLAS); a serving report's ``blas_threads`` is the
    count its server applied while it ran.
    """
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    control = find_openblas()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "blas": blas(),
        "blas_threads": control.get() if control is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_sha": sha,
    }


def write_results(baseline: Path, results: dict, check: bool = False) -> Path:
    """Write a run's JSON and return the path it went to.

    A plain run refreshes the committed baseline ``baseline``; that is how a
    baseline is re-recorded on purpose.  A ``--check`` run writes the
    git-ignored sibling ``BENCH_<name>.check.json`` instead, so a gate never
    overwrites the baseline it compares against.
    """
    path = baseline.with_name(f"{baseline.stem}.check.json") if check else baseline
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path
