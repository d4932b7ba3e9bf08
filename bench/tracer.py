"""Spans around photonforge's layer functions, for the traced run only.

Each traced function is replaced wherever a caller looks its name up:
in its own module and in every photonforge module that imported it, so
`dynamics.sup_exp` is traced as well as `core.sup_exp`. Spans stay in
memory until the run ends.

Every thread keeps its own span stack. A span opened on a worker thread
whose stack is empty belongs to the span open at that moment on the
thread that started the job, which is the sweep's fan-out. A span's self
time is its duration minus the part of it that its child spans cover,
taking the union of children that overlap in time on other threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (module, function, layer). A function that a later version of the
# program no longer has is skipped and its layer reads zero.
TARGETS = (
    ("photonforge.core", "sup_exp", "core.expm"),
    ("photonforge.dynamics", "build_liouvillian", "dynamics.assemble"),
    ("photonforge.dynamics", "simulate", "dynamics.simulate"),
    ("photonforge.statistics", "photon_mtiples", "statistics.moments"),
    ("photonforge.statistics", "invert_to_probabilities", "statistics.invert"),
    ("photonforge.statistics", "ordered_pair_count", "statistics.pair"),
    ("photonforge.scenarios", "run_beam_splitter", "scenarios.cell"),
    ("photonforge.scenarios", "run_shaped_release", "scenarios.cell"),
    ("photonforge.scenarios", "run_cascade", "scenarios.cell"),
    ("photonforge.scenarios", "sweep_cascade", "scenarios.sweep"),
    ("photonforge.scenarios", "_fan_out", "scenarios.fanout"),
    ("photonforge.scenarios", "shape_to_schedule", "scenarios.shape"),
    ("photonforge.cli", "main", "cli.main"),
)

MODULES = ("photonforge", "photonforge.core", "photonforge.dynamics",
           "photonforge.statistics", "photonforge.scenarios", "photonforge.cli",
           "photonforge.slh")


class Span:
    __slots__ = ("layer", "parent", "thread", "start", "end", "cpu", "info")

    def __init__(self, layer, parent, thread, start=0.0, end=0.0, cpu=0.0):
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.cpu = cpu
        self.info = None


def _simulate_info(run) -> dict:
    """Grid points and stored bytes (computed from array sizes) of a run."""
    import numpy as np

    def stored_bytes(items):
        if isinstance(items, np.ndarray):
            return items.nbytes
        distinct = {id(x): x for x in items or ()}
        return sum(np.asarray(x).nbytes for x in distinct.values())

    times = getattr(run, "times", ())
    return {"grid_points": len(times),
            "state_bytes": stored_bytes(getattr(run, "states", None))
            + stored_bytes(getattr(run, "steps", None))}


INFO: Dict[str, Callable] = {"dynamics.simulate": _simulate_info}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._root_stack: Optional[list] = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopting_parent(self) -> Optional[Span]:
        root = self._root_stack
        try:
            return root[-1] if root else None
        except IndexError:  # the root thread closed its span meanwhile
            return None

    def wrap(self, layer: str, fn: Callable) -> Callable:
        info = INFO.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(layer, stack[-1] if stack else self._adopting_parent(),
                        threading.get_ident())
            stack.append(span)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
                self.spans.append(span)
            if info is not None:
                span.info = info(out)
            return out

        return traced

    def install(self) -> None:
        """Swap every target for its traced wrapper in every module."""
        mods = [importlib.import_module(m) for m in MODULES]
        for home, name, layer in TARGETS:
            original = getattr(importlib.import_module(home), name, None)
            if original is None:
                continue
            wrapper = self.wrap(layer, original)
            for mod in mods:
                if mod.__dict__.get(name) is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def job(self):
        """Trace one job run on the calling thread; yields its span list."""
        spans = self.spans = []
        self._root_stack = self._stack()
        self.install()
        try:
            yield spans
        finally:
            self.uninstall()
            self._root_stack = None


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of each span, keyed by id(span)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): (s.end - s.start) - covered(s.start, s.end, children[id(s)])
            for s in spans}


def job_layers(spans: List[Span]) -> dict:
    """Per-layer totals for one job: self seconds, calls and counters.

    `cell` spans are single-point scenario runs; the time each spent off
    the CPU (wall minus thread CPU time) is the fan-out wait, which on a
    thread pool is mostly waiting for the interpreter lock.
    """
    self_s = self_times(spans)
    out = defaultdict(float)
    cell_threads = set()
    for s in spans:
        out[s.layer + ".self_s"] += self_s[id(s)]
        out[s.layer + ".calls"] += 1
        if s.layer == "scenarios.cell":
            out["fanout_wait_s"] += (s.end - s.start) - s.cpu
            cell_threads.add(s.thread)
        if s.info:
            for k, v in s.info.items():
                out[k] += v
    out["fanout_workers"] = float(len(cell_threads))
    return dict(out)
