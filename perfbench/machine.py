"""Machine and code records: results are compared only between equal machine records."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository rooted at ``root``; None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # an enclosing repository is not this checkout's
    if len(out) == 2 and Path(out[0]).resolve() == root:
        return out[1]
    return None


def _tree_sha256(tree: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(tree.rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def code_record(root: Path) -> dict:
    """The git commit, if any, and SHA-256s over the library sources and the benchmark's own."""
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _tree_sha256(root / "src"),
        "bench_sha256": _tree_sha256(Path(__file__).resolve().parent),
    }
