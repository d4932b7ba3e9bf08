"""Fixed reference kernel that measures how fast this process runs right now.

The kernel is small complex matrix exponentials and a Python loop of
matrix-vector products on 4x4 and 9x9 superoperator-sized arrays, plus
about a quarter of plain Python bookkeeping: the same mix of work the
photonforge layers do, but written without importing photonforge, so
no change to the program can change its cost. The benchmark runs it
before and after every job and scales the job's wall time by
``nominal / mean(kernel before, kernel after)``; drift in the machine's
speed then cancels out of the reported times.

The plain Python share is there because, on the 2-core VM where the
benchmark was written, each process ran at one of two speeds (kernel
times near 5.5 ms or 9 ms), and the fast one helped numpy calls more
than interpreted code. A numpy-only kernel scaled the beam-splitter
jobs well but over-corrected the release jobs, whose flux loops are
mostly interpreted; the mixed kernel halved the spread of the tail.

A job that runs on a pool of threads is bracketed by the kernel run on
the same number of threads at once, each thread doing several passes,
because the cost of handing the interpreter lock back and forth drifts
differently from single-thread speed.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np
from scipy.linalg import expm

# Typical kernel time, by thread count, on the 2-core x86-64 VM (Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31 pinned to one thread) where the
# benchmark was written. Scaled times read as seconds on that machine.
# Fixed for good: changing it rescales every reported time.
NOMINAL_KERNEL_S = {1: 0.0150, 2: 0.0650}

_STEPS = 150
_BOOKKEEPING_ROUNDS = 120
# Passes per kernel run, and blocks per thread in a threaded pass.
_PASSES = {1: 4, 2: 2}
_THREADED_BLOCKS = 2


def _inputs():
    rng = np.random.default_rng(20151109)
    gens = []
    for d in (4, 9):
        for _ in range(4):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            gens.append(a - 2.0 * np.eye(d) * np.abs(a).sum() / d)
    vecs = {d: rng.standard_normal(d) + 1j * rng.standard_normal(d)
            for d in (4, 9)}
    return gens, vecs


_GENS, _VECS = _inputs()


def _bookkeeping(acc: float) -> float:
    table = {}
    xs = [i * 0.5 for i in range(200)]
    for _ in range(_BOOKKEEPING_ROUNDS):
        for i, x in enumerate(xs):
            table[i] = x * 1.0001 + acc * 1e-9
            acc += table[i] if i % 3 else -x
    return acc


def _block() -> float:
    """One pass of the kernel; returns a checksum so nothing is skipped."""
    acc = 0.0
    for a in _GENS:
        d = a.shape[0]
        step = expm(a * 0.005)
        v = _VECS[d]
        row = np.ones(d, dtype=complex)
        for _ in range(_STEPS):
            v = step @ v
            row = 0.5 * (row @ step) + 0.0025 * v
        acc += abs(row @ v)
    return _bookkeeping(acc)


def _blocks(count: int) -> None:
    for _ in range(count):
        _block()


def _one_pass(threads: int) -> float:
    if threads == 1:
        t0 = time.perf_counter()
        _block()
        return time.perf_counter() - t0
    pool = [threading.Thread(target=_blocks, args=(_THREADED_BLOCKS,))
            for _ in range(threads)]
    t0 = time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return time.perf_counter() - t0


def kernel_seconds(threads: int = 1) -> float:
    """Mean wall time of a few kernel passes on `threads` threads.

    The mean, not the median, so that the kernel weighs a brief slowdown
    the way the job it brackets does.
    """
    return statistics.fmean(_one_pass(threads) for _ in range(_PASSES[threads]))


def scale_factor(before: float, after: float, nominal: float) -> float:
    """Factor turning a wall time measured between two kernel runs into
    seconds at reference speed."""
    return nominal / ((before + after) / 2.0)
