"""Environment record saved with every result (metadata, never gated)."""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def cpu_count() -> int:
    """Cores this process may run on (the ``nproc`` figure)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_single_thread() -> None:
    """Run BLAS and OpenMP on one thread, whatever the environment says.

    On a 2-core VM a second OpenBLAS thread makes small calls (whitening a
    64x64x32 cube) either 10-20x slower or not, depending on whether the
    thread was awake, and it makes the model's batched calls no faster.
    One thread is the steady single-threaded baseline.  Must run before numpy
    is first imported, which reads these variables once.
    """
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def _blas() -> dict[str, str]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except (TypeError, KeyError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git; a
    checkout exported without its repository reports ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_lines(package_dir: Path) -> int:
    return sum(
        len(path.read_text().splitlines()) for path in sorted(package_dir.glob("*.py"))
    )


def record(root: Path, package_dir: Path) -> dict:
    import numpy as np

    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_hsicaps_lines": _source_lines(package_dir),
    }
