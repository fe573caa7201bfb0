"""What a result was measured on: cores, BLAS, versions, commit, source size."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# BLAS libraries export one of these to report their live thread count
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "MKL_Get_Max_Threads")


def blas_threads_live():
    """Thread count reported by the loaded BLAS library, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() or "mkl" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _THREAD_QUERIES:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_loc(root: Path) -> dict:
    """Line count of each module under src/mcert, and of all of them."""
    loc, total = {}, 0
    for path in sorted((root / "src" / "mcert").glob("*.py")):
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        total += lines
        if not path.stem.startswith("_"):
            loc[f"{path.stem}.loc"] = lines
    loc["src.loc"] = total
    return loc


def describe(root: Path, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "blas_threads_live": blas_threads_live(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "loc": source_loc(root),
    }
