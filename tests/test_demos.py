"""Every script in demos/ runs to completion and leaves the tree as it was."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonforge

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"}


def tree_snapshot():
    """(path, size, mtime) of every file in the repository tree."""
    out = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            out.add((os.path.join(dirpath, name), st.st_size, st.st_mtime_ns))
    return out


def test_all_demos_found():
    assert len(DEMOS) == 9


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    # the child imports the same photonforge as this process
    src = str(Path(photonforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    before = tree_snapshot()
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, timeout=300,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert tree_snapshot() == before
