"""The machine and software a benchmark run measured, recorded with every result."""

import ctypes
import importlib.metadata
import os
import platform
from pathlib import Path

import numpy as np

# thread-count getters of the OpenBLAS builds numpy ships or links
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def cpu_model() -> str:
    """The 'model name' line of /proc/cpuinfo (py-cpuinfo's brand_raw, without
    the helper interpreter py-cpuinfo starts), else platform.processor()."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and value.strip():
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "colide").rglob("*.py"))


def version_of(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def describe(root: Path, thread_vars) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version_of("scipy"),
        "blas": blas_library(),
        "blas_thread_env": {var: os.environ.get(var) for var in thread_vars},
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "src_colide_lines": src_lines(root),
    }
