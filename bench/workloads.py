"""Seeded job cycles for each workload, how to run one job, and its check.

A workload is a closed loop over a cycle of jobs that the seed draws
from fixed parameter grids. `reference.json` holds the expected outputs
for every grid point, generated by `make_reference.py` from the program
as it was when the benchmark was written, so every job's result is
checked against stored numbers.

Input size is the registry default everywhere: dt = 0.005, t_end = 20.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# P_n and V must match the stored reference this closely.
ATOL = 1e-5
# A shaped packet must track its target envelope this closely.
FLUX_L2_MAX = 0.01

DT = 0.005
T_R = 8.0                    # release time of the shaped_release defaults
T_END = 20.0

BS_GAMMA = 0.5
BS_GRID = {"alpha0": (5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
           "r": (0.99, 0.995, 0.999),
           "gamma_nr": (0.0, 0.02, 0.05, 0.1)}
RELEASE_GAMMA = 1.0
RELEASE_GRID = {"alpha0": (5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
                "phi_r": tuple(f * math.pi for f in (0.3, 0.4, 0.5, 0.6, 0.7))}
# Gaussian packets at gamma = 1.5 and exponential packets at gamma = 1
# are all inside the 1% clip budget: width 1 needs gamma >= 1.336 and
# kappa 1.2 needs gamma >= 0.6.
GAUSS_GAMMA = 1.5
EXP_GAMMA = 1.0
PACKET_GRID = {"gaussian": {"width": tuple(round(1.0 + 0.05 * k, 2) for k in range(11)),
                            "alpha0": (6.0, 8.0, 10.0)},
               "exponential": {"kappa": tuple(round(0.8 + 0.04 * k, 2) for k in range(11)),
                               "alpha0": (6.0, 8.0, 10.0)}}
CASCADE_GRID = {"alpha_d": (5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
                "gamma02": (0.05, 0.1, 0.2, 0.35, 0.5)}

WORKLOADS = ("source_scan", "packet_shaping", "pair_sweep")

# Threads each workload's jobs run on, and so the reference kernel too.
# Fixed here, not read from the program, so the scale never moves with it.
KERNEL_THREADS = {"source_scan": 1, "packet_shaping": 1, "pair_sweep": 2}


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a kind and its inputs."""

    kind: str
    params: Tuple[Tuple[str, object], ...]

    def get(self, name):
        return dict(self.params)[name]

    @property
    def points(self) -> int:
        """Probability vectors or sweep cells the job produces."""
        if self.kind == "cascade_sweep":
            return len(self.get("alpha_d")) * len(self.get("gamma02"))
        return 1

    def key(self) -> str:
        return point_key(dict(self.params))


def point_key(params: Dict[str, object]) -> str:
    return ",".join(f"{k}={params[k]!r}" for k in sorted(params))


def cell_key(alpha_d: float, gamma02: float) -> str:
    return point_key({"alpha_d": float(alpha_d), "gamma02": float(gamma02)})


def _grid_points(grid: Dict[str, tuple]) -> List[Dict[str, float]]:
    names = sorted(grid)
    return [dict(zip(names, vals))
            for vals in itertools.product(*(grid[n] for n in names))]


def _stratified(rng: random.Random, values: tuple, count: int) -> list:
    """One value from each of `count` equal slices of the sorted grid, so
    every cycle spans the grid's whole cost range."""
    n = len(values)
    return [values[rng.randrange(s * n // count, (s + 1) * n // count)]
            for s in range(count)]


def make_jobs(workload: str, seed: int) -> List[Job]:
    """The workload's job cycle for this seed; the same seed gives the
    same cycle."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "source_scan":
        # Two beam-splitter jobs per release job, so the median falls
        # inside the beam-splitter cost class and the tail inside the
        # release class, never on the boundary between them.
        jobs = [Job("beam_splitter", tuple(sorted(p.items())))
                for p in rng.sample(_grid_points(BS_GRID), 8)]
        jobs += [Job("release", tuple(sorted(p.items())))
                 for p in rng.sample(_grid_points(RELEASE_GRID), 4)]
    elif workload == "packet_shaping":
        # Every exponential packet has 2,400 ramp pieces; Gaussians have
        # 1,600 to 2,400 by width. Five exponentials to three Gaussians put
        # the median and the tail inside the 2,400-piece cost class.
        jobs = []
        for kind, shape, count in (("gaussian", "width", 3),
                                   ("exponential", "kappa", 5)):
            grid = PACKET_GRID[kind]
            for v in _stratified(rng, grid[shape], count):
                jobs.append(Job(kind, ((shape, v),
                                       ("alpha0", rng.choice(grid["alpha0"])))))
    elif workload == "pair_sweep":
        jobs = []
        for _ in range(6):
            a = tuple(sorted(rng.sample(CASCADE_GRID["alpha_d"], 2)))
            g = tuple(sorted(rng.sample(CASCADE_GRID["gamma02"], 2)))
            jobs.append(Job("cascade_sweep", (("alpha_d", a), ("gamma02", g))))
    else:
        raise ValueError(f"unknown workload {workload!r}; choices: "
                         f"{', '.join(WORKLOADS)}")
    rng.shuffle(jobs)
    return jobs


def import_program(root: Path):
    """Import photonforge from the checkout's own src/ and nowhere else."""
    import sys

    src = (Path(root) / "src").resolve()
    if not (src / "photonforge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no photonforge sources under {src}")
    sys.path.insert(0, str(src))
    import photonforge

    if src not in Path(photonforge.__file__).resolve().parents:
        raise ImportError(f"photonforge imported from {photonforge.__file__}, "
                          f"not from {src}")
    return photonforge


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# running and checking one job


def _csv_list(values) -> str:
    return ", ".join(repr(x) for x in values)


class Executor:
    """Runs jobs through photonforge's public functions and checks them.

    Cascade sweeps go through the CLI, so each gets a config file and an
    output directory under `workdir`, written before any timing starts.
    """

    def __init__(self, workdir: Path, reference: dict):
        import photonforge
        import photonforge.cli

        self.pf = photonforge
        self.cli = photonforge.cli
        self.workdir = Path(workdir)
        self.reference = reference
        self.configs: Dict[Job, Path] = {}

    def prepare(self, jobs: List[Job]) -> None:
        for i, job in enumerate(jobs):
            if job.kind != "cascade_sweep" or job in self.configs:
                continue
            cfg = self.workdir / f"sweep{i}.cfg"
            cfg.write_text(
                "scenario = cascade_sweep\n"
                f"outdir = {self.workdir / f'sweep{i}'}\n"
                f"alpha_d = {_csv_list(job.get('alpha_d'))}\n"
                f"gamma02 = {_csv_list(job.get('gamma02'))}\n", encoding="utf-8")
            self.configs[job] = cfg

    def run(self, job: Job):
        """The program's work for one job; returns what `check` needs."""
        pf = self.pf
        p = job.get
        if job.kind == "beam_splitter":
            params = pf.MirrorQubitParams(gamma=BS_GAMMA, gamma_nr=p("gamma_nr"))
            config = pf.BeamSplitterConfig(alpha0=p("alpha0"), r=p("r"),
                                           t_end=T_END, dt=DT)
            return pf.run_beam_splitter(params, config).probabilities, None
        if job.kind == "release":
            res = pf.run_shaped_release(pf.MirrorQubitParams(gamma=RELEASE_GAMMA),
                                        alpha0=p("alpha0"), release=p("phi_r"),
                                        t_r=T_R, t_end=T_END, dt=DT)
            return res.stats.probabilities, None
        if job.kind == "gaussian":
            w = p("width")
            packet = pf.WavePacket.gaussian(T_R + 4.0 * w, w, t_start=T_R, dt=DT)
            gamma = GAUSS_GAMMA
        elif job.kind == "exponential":
            packet = pf.WavePacket.exponential(p("kappa"), T_R,
                                               duration=T_END - T_R, dt=DT)
            gamma = EXP_GAMMA
        elif job.kind == "cascade_sweep":
            return self.cli.main(["run", str(self.configs[job])])
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")
        res = pf.run_shaped_release(pf.MirrorQubitParams(gamma=gamma),
                                    alpha0=p("alpha0"), release=packet,
                                    t_r=T_R, t_end=T_END, dt=DT)
        return res.stats.probabilities, res.flux_match_l2

    def check(self, job: Job, out) -> Optional[str]:
        """None when the job's output matches the reference, else why not."""
        if job.kind == "cascade_sweep":
            return self._check_sweep(job, out)
        probs, l2 = out
        want = self.reference[job.kind].get(job.key())
        if want is None:
            return f"no reference for {job.kind} {job.key()}"
        if len(probs) != len(want):
            return f"{len(probs)} probabilities, reference has {len(want)}"
        worst = max(abs(float(a) - b) for a, b in zip(probs, want))
        if not worst <= ATOL:
            return f"P_n differ from the reference by {worst:.3g}"
        if job.kind in PACKET_GRID and not (l2 is not None and l2 < FLUX_L2_MAX):
            return f"packet flux mismatch {l2!r} is not below {FLUX_L2_MAX}"
        return None

    def _check_sweep(self, job: Job, rc) -> Optional[str]:
        if rc != 0:
            return f"photonforge run exited with {rc}"
        result = self.configs[job].with_suffix("") / "result.csv"
        with open(result, encoding="utf-8", newline="") as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
        result.unlink()  # the next run of this config must write its own
        if not rows or rows[0] != ["alpha_d", "gamma02", "V"]:
            return f"unexpected CSV header {rows[:1]}"
        cells = [(a, g) for a in job.get("alpha_d") for g in job.get("gamma02")]
        if len(rows) - 1 != len(cells):
            return f"{len(rows) - 1} CSV rows for {len(cells)} cells"
        table = self.reference["cascade_cell"]
        for (a, g), row in zip(cells, rows[1:]):
            ra, rg, v = (float(x) for x in row)
            if (ra, rg) != (a, g):
                return f"row ({ra}, {rg}) where cell ({a}, {g}) was expected"
            want = table[cell_key(a, g)]
            if not (v > 0 and abs(v - want) <= ATOL):
                return f"V = {v!r} at ({a}, {g}); reference {want!r}"
        return None
