"""Facts about the machine and the checkout, recorded with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread: every superoperator here is at most 9x9.

    Must run before numpy is first imported.
    """
    for var in BLAS_PINS:
        os.environ[var] = "1"


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git.

    Reads the files directly so nothing looks above the checkout.
    """
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_pins": {v: os.environ.get(v) for v in BLAS_PINS},
    }
