"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import refkernel
import run
import tracer as tr
import workloads as wl


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert wl.make_jobs(workload, 7) == wl.make_jobs(workload, 7)
    assert wl.make_jobs(workload, 7) != wl.make_jobs(workload, 8)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_input_has_a_reference(workload):
    ref = wl.load_reference()
    for seed in range(20):
        for job in wl.make_jobs(workload, seed):
            if job.kind == "cascade_sweep":
                for a in job.get("alpha_d"):
                    for g in job.get("gamma02"):
                        assert wl.cell_key(a, g) in ref["cascade_cell"]
            else:
                assert job.key() in ref[job.kind]


def test_packet_cycle_spans_the_width_grid():
    widths = sorted(j.get("width") for j in wl.make_jobs("packet_shaping", 3)
                    if j.kind == "gaussian")
    assert widths[0] <= 1.1 and widths[-1] >= 1.35


@pytest.mark.parametrize("n, index, pct, beyond", [
    (100, 89, 90.0, 10),    # p90: jobs 90..99 lie beyond it
    (40, 29, 75.0, 10),
    (11, 0, 100.0 * 1 / 11, 10),
    (10, 9, 100.0, 0),      # too few jobs for 10 beyond: the slowest
    (1, 0, 100.0, 0),
])
def test_tail_rank(n, index, pct, beyond):
    got_index, got_pct, got_beyond = run.tail_rank(n)
    assert (got_index, got_beyond) == (index, beyond)
    assert got_pct == pytest.approx(pct)
    assert n - 1 - got_index == got_beyond


def test_scaling_to_reference_speed():
    assert refkernel.scale_factor(0.02, 0.02, 0.01) == pytest.approx(0.5)
    assert refkernel.scale_factor(0.01, 0.03, 0.01) == pytest.approx(0.5)
    # job i is bracketed by kernels i and i + 1
    got = run.scaled_times([1.0, 3.0], [0.01, 0.03, 0.01], 0.02)
    assert got == pytest.approx([1.0, 3.0])
    # a machine running at half speed doubles job and kernel alike
    assert run.scaled_times([2.0], [0.04, 0.04], 0.02) == pytest.approx([1.0])


def _span(layer, parent, start, end, thread=1, cpu=None):
    return tr.Span(layer, parent, thread, start, end,
                   end - start if cpu is None else cpu)


def test_covered_takes_the_union():
    assert tr.covered(0, 10, []) == 0
    assert tr.covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    assert tr.covered(2, 6, [(0, 3), (5, 9)]) == pytest.approx(2)


def test_self_time_nested():
    root = _span("a", None, 0.0, 10.0)
    b = _span("b", root, 1.0, 4.0)
    c = _span("c", b, 2.0, 3.0)
    d = _span("d", root, 5.0, 6.0)
    got = tr.self_times([root, b, c, d])
    assert got[id(root)] == pytest.approx(10 - 3 - 1)
    assert got[id(b)] == pytest.approx(3 - 1)
    assert got[id(c)] == pytest.approx(1)
    assert got[id(d)] == pytest.approx(1)


def test_self_time_threaded_children_overlap():
    fan = _span("scenarios.fanout", None, 0.0, 10.0)
    cells = [_span("scenarios.cell", fan, 0.5, 6.0, thread=2, cpu=3.0),
             _span("scenarios.cell", fan, 0.6, 9.0, thread=3, cpu=4.0)]
    inner = _span("statistics.pair", cells[0], 1.0, 5.0, thread=2, cpu=2.5)
    spans = [fan, *cells, inner]
    got = tr.self_times(spans)
    assert got[id(fan)] == pytest.approx(10 - 8.5)   # union, not 5.5 + 8.4
    assert got[id(cells[0])] == pytest.approx(5.5 - 4)
    layers = tr.job_layers(spans)
    assert layers["fanout_workers"] == 2
    assert layers["fanout_wait_s"] == pytest.approx((5.5 - 3) + (8.4 - 4))
    assert layers["statistics.pair.self_s"] == pytest.approx(4)


def test_each_thread_has_its_own_span_stack():
    t = tr.Tracer()
    inner = t.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        inner()

    def fan_fn():
        for th in threads:
            th.start()
        for th in threads:
            th.join(5)

    outer = t.wrap("outer", outer_fn)
    fan = t.wrap("fan", fan_fn)
    threads = [threading.Thread(target=outer) for _ in range(6)]
    t._root_stack = t._stack()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        fan()
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(t.spans) == 1 + 2 * len(threads)
    by_layer = {}
    for s in t.spans:
        by_layer.setdefault(s.layer, []).append(s)
    (fan_span,) = by_layer["fan"]
    assert all(s.parent is fan_span for s in by_layer["outer"])
    for s in by_layer["inner"]:
        assert s.parent.layer == "outer" and s.parent.thread == s.thread
    self_s = tr.self_times(t.spans)
    for s in by_layer["inner"]:
        assert self_s[id(s)] >= 0.015
    for s in by_layer["outer"]:
        assert self_s[id(s)] < 0.015


def test_install_patches_every_lookup_and_uninstall_restores():
    pf = wl.import_program(run.ROOT)
    originals = (pf.core.sup_exp, pf.dynamics.sup_exp, pf.sup_exp)
    t = tr.Tracer()
    with t.job() as spans:
        assert pf.dynamics.sup_exp is not originals[1]
        assert pf.sup_exp is not originals[2]
        pf.dynamics.sup_exp(pf.core.liouvillian([[0, 0], [0, 1]]), 0.1)
    assert (pf.core.sup_exp, pf.dynamics.sup_exp, pf.sup_exp) == originals
    assert [s.layer for s in spans] == ["core.expm"]


def test_check_rejects_a_perturbed_probability():
    wl.import_program(run.ROOT)
    ex = wl.Executor(run.ROOT, wl.load_reference())
    job = next(j for j in wl.make_jobs("source_scan", 1) if j.kind == "beam_splitter")
    probs, l2 = ex.run(job)
    assert ex.check(job, (probs, l2)) is None
    bad = (probs[0] + 2 * wl.ATOL,) + tuple(probs[1:])
    assert "differ" in ex.check(job, (bad, l2))


def test_sweep_check_parses_the_csv_by_value(tmp_path):
    wl.import_program(run.ROOT)
    ex = wl.Executor(tmp_path, wl.load_reference())
    job = wl.make_jobs("pair_sweep", 1)[0]
    ex.prepare([job])
    assert ex.check(job, ex.run(job)) is None
    rc = ex.run(job)
    csv_path = ex.configs[job].with_suffix("") / "result.csv"
    lines = csv_path.read_text().splitlines()
    a, g, v = lines[2].split(",")
    lines[2] = ",".join([f"{float(a):.3f}", g, v])    # same value, other text
    csv_path.write_text("\n".join(lines) + "\n")
    assert ex.check(job, rc) is None
    rc = ex.run(job)
    lines = csv_path.read_text().splitlines()
    a, g, v = lines[2].split(",")
    lines[2] = ",".join([a, g, repr(float(v) + 2 * wl.ATOL)])
    csv_path.write_text("\n".join(lines) + "\n")
    assert "reference" in ex.check(job, rc)
