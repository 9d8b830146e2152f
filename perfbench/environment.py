"""The environment a result was measured in: versions, BLAS, cores, thread settings."""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

# Thread variables recorded as "unset" when absent; any other *_NUM_THREADS
# that is set is recorded as well.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "FRAMEAPPROX_THREADS")


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _git_describe(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable: not a git checkout"
    # the ceiling keeps git from reading any repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=root,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    return out.stdout.strip() if out.returncode == 0 else f"unavailable: {out.stderr.strip()}"


def record(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {name: os.environ.get(name, "unset") for name in THREAD_VARS}
    threads.update({k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": dict(sorted(threads.items())),
        "git_describe": _git_describe(root),
    }
