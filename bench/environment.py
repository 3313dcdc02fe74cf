"""The benchmark's process environment: child processes and the recorded setup."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from importlib import metadata

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMEOUT_S = 120


def pin_threads() -> None:
    """One BLAS/OpenMP thread, here and in every child; call before numpy is imported."""
    os.environ.update({var: "1" for var in THREAD_VARS})


def child_env(root) -> dict:
    """Environment of every child process: this one's, with the checkout's `src`."""
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def import_seconds(root, module: str) -> float:
    """Time to import `module` in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                          capture_output=True, text=True, check=True, timeout=TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def git_sha(root) -> str | None:
    """The checked-out commit, read from `.git` itself; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def record(root) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
