"""Regenerate reference.json: expected outputs for every grid point.

Run from the repository root on the commit whose outputs are the
reference (it takes a few minutes on two cores):

    python3 bench/make_reference.py

Each P_n vector comes from the same call the benchmark job makes; each
cascade cell's V comes from `run_cascade`, independently of the CLI
path that the pair_sweep jobs take.
"""

from __future__ import annotations

from facts import git_sha, pin_blas

pin_blas()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    pf = wl.import_program(ROOT)
    ex = wl.Executor(ROOT, reference={})
    out = {"generated_from": git_sha(ROOT), "atol": wl.ATOL}
    grids = {"beam_splitter": wl.BS_GRID, "release": wl.RELEASE_GRID}
    grids.update(wl.PACKET_GRID)
    for kind, grid in grids.items():
        table = {}
        for point in wl._grid_points(grid):
            job = wl.Job(kind, tuple(sorted(point.items())))
            probs, l2 = ex.run(job)
            if l2 is not None and not l2 < wl.FLUX_L2_MAX:
                raise SystemExit(f"{kind} {job.key()}: flux mismatch {l2}")
            table[job.key()] = [float(x) for x in probs]
        out[kind] = table
        print(f"{kind}: {len(table)} points", flush=True)
    cells = {}
    base = pf.MirrorQubitParams(levels=3)
    for a in wl.CASCADE_GRID["alpha_d"]:
        for g in wl.CASCADE_GRID["gamma02"]:
            v = pf.run_cascade(base.with_(gamma02=g), a, t_end=wl.T_END, dt=wl.DT).v
            if not v > 0:
                raise SystemExit(f"cascade cell ({a}, {g}): V = {v}")
            cells[wl.cell_key(a, g)] = float(v)
    out["cascade_cell"] = cells
    print(f"cascade_cell: {len(cells)} points", flush=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
