"""What a result was measured on: code version, machine and numerical stack."""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform


def git_sha(root: pathlib.Path) -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas():
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = None
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return name, threads


def collect(root: pathlib.Path, load_average: tuple) -> dict:
    import numpy as np

    from dtqsw import _kernels

    blas_name, blas_threads = _blas()
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "using_numba": bool(_kernels.USING_NUMBA),
        "load_average_at_start": list(load_average),
    }
