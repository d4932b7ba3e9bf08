"""One fresh interpreter's set-up, timed from outside by run.py.

    python3 bench/setup_child.py WORKLOAD SEED WORKDIR

Imports photonforge, builds the seed's inputs and runs the first job
cold. Exits 0 only when that job's output passes its check.
"""

from __future__ import annotations

from facts import pin_blas

pin_blas()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    wl.import_program(ROOT)
    ex = wl.Executor(workdir, wl.load_reference())
    first = wl.make_jobs(workload, seed)[0]
    ex.prepare([first])
    problem = ex.check(first, ex.run(first))
    if problem is not None:
        print(f"{first.kind} {first.key()}: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
