"""photonforge benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload source_scan --seed 1 --seconds 30 --trace 0

Run from the repository root. The jobs of the seed's cycle run one after
another for `--seconds`; each is timed from outside through
photonforge's public functions and its output is checked against
`reference.json`. A fixed reference kernel (refkernel.py) runs before
and after every job, and the job's wall time is scaled to reference
speed by it, so drift in the machine's speed cancels out.

`--trace 0` prints the end-to-end metrics: set-up time (median of fresh
interpreters that import photonforge, build the inputs and run the first
job cold), median and tail job latency, points per second, the fraction
of jobs whose output passed its check, and peak memory. `--trace 1`
alternates untraced and traced runs of every job and prints per-layer
self times and counts from the traced ones (see tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
run facts. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

from facts import git_sha, machine_facts, pin_blas

pin_blas()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 5
TAIL_BEYOND = 10


def tail_rank(n: int):
    """Index into n sorted latencies of the highest percentile with at
    least TAIL_BEYOND jobs beyond it, that percentile, and the number of
    jobs beyond it. Too few jobs for that gives the slowest job."""
    if n < 1:
        raise ValueError("no jobs")
    if n <= TAIL_BEYOND:
        return n - 1, 100.0, 0
    return n - 1 - TAIL_BEYOND, 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def scaled_times(walls, kernels, nominal):
    """Wall times scaled by the kernel runs that bracket them:
    job i ran between kernels[i] and kernels[i + 1]."""
    return [w * refkernel.scale_factor(kernels[i], kernels[i + 1], nominal)
            for i, w in enumerate(walls)]


def run_setups(workload: str, seed: int, workdir: Path) -> list:
    """Wall time of each fresh interpreter's import, inputs and cold job."""
    times = []
    for k in range(SETUP_RUNS):
        d = workdir / f"setup{k}"
        d.mkdir()
        cmd = [sys.executable, str(Path(__file__).with_name("setup_child.py")),
               workload, str(seed), str(d)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run {k} failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
    return times


class Loop:
    """The closed loop: next job when the previous one has finished."""

    def __init__(self, ex: wl.Executor, jobs, kernel_threads: int):
        self.ex = ex
        self.jobs = jobs
        self.threads = kernel_threads
        self.problems = []

    def kernel(self) -> float:
        return refkernel.kernel_seconds(self.threads)

    def run_one(self, job):
        """(wall seconds, None or why the job failed)."""
        t0 = time.perf_counter()
        try:
            out = self.ex.run(job)
            wall = time.perf_counter() - t0
            problem = self.ex.check(job, out)
        except Exception as e:  # a failing job is counted, not fatal
            wall = time.perf_counter() - t0
            problem = f"{type(e).__name__}: {e}"
        if problem is not None:
            self.problems.append(f"{job.kind} {job.key()}: {problem}")
        return wall, problem is None

    def warm_up(self) -> None:
        seen = set()
        for job in self.jobs:
            if job.kind not in seen:
                seen.add(job.kind)
                self.run_one(job)
        self.kernel()

    def measure(self, seconds: float, tracer=None):
        """Run jobs for `seconds`. With a tracer, each job runs untraced
        and then traced, and the loop finishes at least one whole cycle.

        Returns per-run lists: jobs, walls, oks, kernels (one more than
        walls), and the traced jobs' span lists.
        """
        runs = {"job": [], "wall": [], "ok": [], "kernel": [self.kernel()],
                "spans": []}
        t_end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < t_end or (tracer and i < len(self.jobs)):
            job = self.jobs[i % len(self.jobs)]
            for traced in ((False, True) if tracer else (False,)):
                if traced:
                    with tracer.job() as spans:
                        wall, ok = self.run_one(job)
                    runs["spans"].append(spans)
                else:
                    wall, ok = self.run_one(job)
                runs["kernel"].append(self.kernel())
                runs["job"].append(job)
                runs["wall"].append(wall)
                runs["ok"].append(ok)
            i += 1
        return runs


def end_to_end(runs, nominal, setups) -> tuple:
    jobs, walls, oks = runs["job"], runs["wall"], runs["ok"]
    scaled = scaled_times(walls, runs["kernel"], nominal)
    n = len(scaled)
    rank, pct, beyond = tail_rank(n)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "job_tail_s": (sorted(scaled)[rank], "s"),
        "points_per_s": (sum(j.points for j in jobs) / sum(scaled), "1/s"),
        "ok_frac": (sum(oks) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    facts = {"jobs": n, "tail_percentile": round(pct, 3), "tail_jobs_beyond": beyond,
             "raw_job_p50_s": statistics.median(walls),
             "raw_kernel_p50_s": statistics.median(runs["kernel"]),
             "setup_raw_s": setups}
    return metrics, facts


def per_layer(runs, nominal, cycle: int) -> tuple:
    """Per-job layer metrics over the whole cycles of traced jobs."""
    scaled = scaled_times(runs["wall"], runs["kernel"], nominal)
    whole = (len(runs["spans"]) // cycle) * cycle
    untraced, traced = scaled[0:2 * whole:2], scaled[1:2 * whole:2]
    scales = [s / w for s, w in zip(traced, runs["wall"][1:2 * whole:2])]
    totals = {}
    for spans, scale in zip(runs["spans"][:whole], scales):
        for k, v in tr.job_layers(spans).items():
            if k.endswith("_s"):
                v *= scale
            totals[k] = totals.get(k, 0.0) + v

    def per_job(*keys):
        return sum(totals.get(k, 0.0) for k in keys) / whole

    metrics = {
        "core.expm_calls": (per_job("core.expm.calls"), "count/job"),
        "core.expm_self_s": (per_job("core.expm.self_s"), "s/job"),
        "dynamics.assemble_calls": (per_job("dynamics.assemble.calls"), "count/job"),
        "dynamics.assemble_self_s": (per_job("dynamics.assemble.self_s"), "s/job"),
        "dynamics.simulate_self_s": (per_job("dynamics.simulate.self_s"), "s/job"),
        "dynamics.grid_points": (per_job("grid_points"), "count/job"),
        "dynamics.state_mb": (per_job("state_bytes") / 1e6, "MB/job"),
        "statistics.moments_self_s": (per_job("statistics.moments.self_s"), "s/job"),
        "statistics.invert_self_s": (per_job("statistics.invert.self_s"), "s/job"),
        "statistics.pair_calls": (per_job("statistics.pair.calls"), "count/job"),
        "statistics.pair_self_s": (per_job("statistics.pair.self_s"), "s/job"),
        "scenarios.self_s": (per_job("scenarios.cell.self_s", "scenarios.sweep.self_s",
                                     "scenarios.fanout.self_s"), "s/job"),
        "scenarios.shape_self_s": (per_job("scenarios.shape.self_s"), "s/job"),
        "scenarios.fanout_workers": (per_job("fanout_workers"), "count/job"),
        "scenarios.fanout_wait_s": (per_job("fanout_wait_s"), "s/job"),
        "cli.self_s": (per_job("cli.main.self_s"), "s/job"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced),
                                "ratio"),
    }
    facts = {"traced_jobs": whole, "cycles": whole // cycle,
             "dynamics.state_mb": "computed from the stored arrays' sizes",
             "traced_job_p50_s": statistics.median(traced),
             "untraced_job_p50_s": statistics.median(untraced),
             "raw_kernel_p50_s": statistics.median(runs["kernel"])}
    return metrics, facts


def write_spans(path: Path, all_spans) -> None:
    """All traced spans, one row each, parents given by row number."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["job", "row", "parent_row", "layer", "thread", "start", "end", "cpu"])
        row = 0
        for j, spans in enumerate(all_spans):
            index = {id(s): row + k for k, s in enumerate(spans)}
            for s in spans:
                w.writerow([j, row, index.get(id(s.parent), ""), s.layer, s.thread,
                            f"{s.start:.9f}", f"{s.end:.9f}", f"{s.cpu:.9f}"])
                row += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Measure the default sweep pool a user gets.
    os.environ.pop("PHOTONFORGE_THREADS", None)
    try:
        pf = wl.import_program(ROOT)
        reference = wl.load_reference()
    except (OSError, ImportError) as e:
        print(f"cannot load the program or its reference: {e}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = [] if args.trace else run_setups(args.workload, args.seed, workdir)
        jobs = wl.make_jobs(args.workload, args.seed)
        ex = wl.Executor(workdir, reference)
        ex.prepare(jobs)
        threads = wl.KERNEL_THREADS[args.workload]
        nominal = refkernel.NOMINAL_KERNEL_S[threads]
        loop = Loop(ex, jobs, threads)
        loop.warm_up()
        if args.trace:
            runs = loop.measure(args.seconds, tr.Tracer())
            metrics, facts = per_layer(runs, nominal, len(jobs))
            write_spans(WORK / f"spans-{args.workload}-{args.seed}.csv", runs["spans"])
        else:
            runs = loop.measure(args.seconds)
            metrics, facts = end_to_end(runs, nominal, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    thread_count = getattr(pf.scenarios, "thread_count", None)
    facts.update(machine_facts())
    facts.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "photonforge_threads": thread_count() if thread_count else None,
        "cycle_jobs": len(jobs), "kernel_threads": threads, "nominal_kernel_s": nominal,
    })
    for problem in loop.problems[:5]:
        print(f"job failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({"facts": facts}))
    attempted = len(runs["ok"])
    failed = attempted - sum(runs["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
