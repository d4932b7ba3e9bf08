"""Properties of propagation and counting over random two-level schedules,
of the grid-time lookup and the backward chain on random tables, and the
grid order of the counting moments and pair integrals.

Drives and phase schedules are drawn on [0, 4]. Every cut point lies on
a 1e-3 lattice (a split point on a 1e-4 one), so two distinct cut
points are never within the piece table's 1e-12 merge tolerance of each
other, except in the merge test, whose cut points come in runs closer
than that, and the moved-breakpoint test, which draws on a 0.25 lattice
and moves one point by at most half that. Examples are derandomized, so
every run checks the same cases.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonforge as pf

import oracles

T_END = 4.0
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

params = st.builds(pf.MirrorQubitParams, gamma=st.floats(0.1, 2.0),
                   delta=st.floats(-2.0, 2.0), gamma_nr=st.floats(0.0, 0.5))
phases = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


def lattice(min_size, max_size):
    """Sorted distinct lattice indices k in [0, 4000], time k / 1000."""
    return st.lists(st.integers(0, 4000), min_size=min_size, max_size=max_size,
                    unique=True).map(sorted)


def amplitudes(bound):
    return st.builds(complex, st.floats(-bound, bound), st.floats(-bound, bound))


@st.composite
def drive_segments(draw, bound=3.0, min_size=0):
    """(k_start, k_end, alpha) of disjoint drive segments, in lattice units."""
    ks = draw(lattice(2 * min_size, 6))
    ks = ks[:len(ks) // 2 * 2]
    return [(a, b, draw(amplitudes(bound))) for a, b in zip(ks[::2], ks[1::2])]


def drive_of(segments):
    return pf.DriveSchedule(tuple((a / 1000.0, b / 1000.0, x) for a, b, x in segments))


@st.composite
def drives(draw, bound=3.0):
    return drive_of(draw(drive_segments(bound)))


@st.composite
def phase_schedules(draw):
    """Constant segments covering the line, and an optional sampled ramp."""
    edges = [-math.inf] + [k / 1000.0 for k in draw(lattice(0, 3))] + [math.inf]
    segments = tuple((a, b, draw(phases)) for a, b in zip(edges, edges[1:]))
    ramp = None
    if draw(st.booleans()):
        times = np.array(draw(lattice(2, 6))) / 1000.0
        ramp = (times, np.array([draw(phases) for _ in times]))
    return pf.PhaseSchedule(segments, ramp=ramp)


@st.composite
def pure_states(draw):
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    ket = np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
    return np.outer(ket, ket.conj())


@st.composite
def close_breakpoints(draw):
    """A span [t1, t2] and cut points in runs about 0.6e-12 apart, each run
    from t1, t2 or a point between, up or down, and maybe one point within
    1e-12 below t2."""
    t1 = draw(st.floats(0.0, 4.0))
    t2 = t1 + draw(st.sampled_from([0.0, 4e-13, 1e-12, 3e-12, 1e-3, 1.0]))
    pts = []
    for _ in range(draw(st.integers(0, 6))):
        x = draw(st.sampled_from([t1, t2])) if draw(st.booleans()) else draw(st.floats(t1, t2))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        for gap in draw(st.lists(st.floats(0.3e-12, 0.9e-12), max_size=8)):
            pts.append(x)
            x += sign * gap
    if draw(st.booleans()):
        pts.append(t2 - draw(st.floats(0.0, 1e-12)))
    return t1, t2, pts


@settings(derandomize=True, deadline=None, max_examples=200)
@given(close_breakpoints())
def test_merge_keeps_the_sequential_rule(span):
    t1, t2, pts = span
    table = pf.dynamics._piece_table(pf.MirrorQubitParams(), pf.DriveSchedule(()),
                                     pf.PhaseSchedule.constant(0.0), t1, t2, pts)
    t_a, t_b, reads = oracles.merge_breakpoints(pts, t1, t2)
    assert np.array_equal(table.t_a, t_a) and np.array_equal(table.t_b, t_b)
    # with a ramp step at each point, a row's phi names the point it reads at
    if pts:
        times = np.unique(pts)
        phase = pf.PhaseSchedule(((-math.inf, math.inf, 6.0),),
                                 ramp=(times, 1e-3 * np.arange(len(times))))
        phi = pf.dynamics._cut([(pf.DriveSchedule(()), phase, t1, t2, pts)])[3]
        assert phi.tolist() == [oracles.phi_value(phase, t) for t in reads]


@st.composite
def moved_breakpoints(draw):
    """A drive and a phase schedule on a 0.25 lattice of [0, 4], so that drive and phase
    breakpoints often coincide, and the same two with one breakpoint of one of them
    (every segment end on it) moved by at most _CUT_TOL / 2."""
    tol, ks = pf.dynamics._CUT_TOL, st.integers(0, 16)
    points = draw(st.lists(ks, min_size=2, max_size=6, unique=True).map(sorted))
    drive = [(a / 4.0, b / 4.0, draw(amplitudes(3.0))) for a, b in zip(points[::2], points[1::2])]
    edges = [k / 4.0 for k in draw(st.lists(ks, min_size=1, max_size=3, unique=True).map(sorted))]
    phase = [(a, b, draw(phases)) for a, b in zip([-math.inf] + edges, edges + [math.inf])]
    pair = [drive, phase]
    k = draw(st.integers(0, 1))
    x = draw(st.sampled_from(sorted({t for seg in pair[k] for t in seg[:2] if math.isfinite(t)})))
    delta = draw(st.floats(-tol / 2.0, tol / 2.0))
    moved = list(pair)
    moved[k] = [tuple(t + delta if t == x else t for t in seg[:2]) + seg[2:] for seg in pair[k]]
    return [(pf.DriveSchedule(tuple(d)), pf.PhaseSchedule(tuple(ph))) for d, ph in (pair, moved)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(params, moved_breakpoints())
def test_a_breakpoint_moved_within_the_merge_tolerance_barely_moves_the_propagator(p, pair):
    # a row reads its interior, so a merged breakpoint changes which side of it a
    # row reads only over the moved distance
    (drive, phase), (moved_drive, moved_phase) = pair
    got = pf.propagator(p, moved_drive, moved_phase, 0.0, T_END).mat
    want = pf.propagator(p, drive, phase, 0.0, T_END).mat
    assert np.max(np.abs(got - want)) <= 1e-9


@PROPERTY
@given(params, drives(), phase_schedules())
def test_propagator_keeps_the_trace_row(p, drive, phase):
    prop = pf.propagator(p, drive, phase, 0.0, T_END).mat
    tr = oracles.trace_row(2)
    assert np.max(np.abs(tr @ prop - tr)) < 1e-12


@PROPERTY
@given(params, drives(), phase_schedules(),
       st.lists(st.integers(0, 4000), min_size=3, max_size=3).map(sorted))
def test_composition_law(p, drive, phase, ks):
    t1, t2, t3 = (k / 1000.0 for k in ks)
    whole = pf.propagator(p, drive, phase, t1, t3).mat
    parts = (pf.propagator(p, drive, phase, t2, t3).mat
             @ pf.propagator(p, drive, phase, t1, t2).mat)
    assert np.max(np.abs(parts - whole)) < 1e-12


@PROPERTY
@given(params, drive_segments(min_size=1), phase_schedules(), st.data())
def test_splitting_a_segment_leaves_the_propagator(p, segments, phase, data):
    i = data.draw(st.integers(0, len(segments) - 1))
    a, b, x = segments[i]
    # a split point strictly inside the segment, on the 1e-4 lattice
    m = data.draw(st.integers(10 * a + 1, 10 * b - 1)) / 10000.0
    split = [(a / 1000.0, m, x), (m, b / 1000.0, x)]
    rest = [(s / 1000.0, e / 1000.0, y) for s, e, y in segments]
    drive = pf.DriveSchedule(tuple(rest[:i] + split + rest[i + 1:]))
    whole = pf.propagator(p, drive_of(segments), phase, 0.0, T_END).mat
    assert np.max(np.abs(pf.propagator(p, drive, phase, 0.0, T_END).mat - whole)) < 1e-12


@PROPERTY
@given(params, drives(), phase_schedules(), pure_states())
def test_propagated_states_stay_positive(p, drive, phase, rho0):
    run = pf.simulate(p, drive, phase, T_END, rho0=rho0, dt=0.05)
    rhos = run.states.reshape(-1, 2, 2).transpose(0, 2, 1)
    herm = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
    assert np.linalg.eigvalsh(herm).min() > -1e-9


# a ramp step may cut a pulse below the resolution that warning asks for;
# the property holds at any resolution
@pytest.mark.filterwarnings("ignore:a drive pulse spans fewer than 20")
@PROPERTY
@given(params, drives(bound=0.3), phase_schedules())
def test_counting_probabilities_are_a_distribution(p, drive, phase):
    run = pf.simulate(p, drive, phase, T_END, dt=0.05)
    probs = pf.counting_statistics(run, cutoff=3).probabilities
    assert abs(sum(probs) - 1.0) < 1e-12
    assert min(probs) >= 0.0


@st.composite
def marching_runs(draw):
    """A two- or three-level run from a random state over every march path: a
    pulse at constant phase (long driven rows, stacked powers), a pulse over a
    sampled ramp (one-step driven rows, `_scan`) and, on two levels, drive-free
    rows (`_decay`); detuning and loss on two levels, ladder rates on three."""
    levels = draw(st.sampled_from([2, 3]))
    if levels == 2:
        p = pf.MirrorQubitParams(gamma=draw(st.floats(0.1, 2.0)),
                                 delta=draw(st.floats(-1e4, 1e4)),
                                 gamma_nr=draw(st.floats(0.0, 0.5)))
        phase = draw(phase_schedules())
    else:
        p = pf.MirrorQubitParams(levels=3, gamma01=draw(st.floats(0.1, 2.0)),
                                 gamma12=draw(st.floats(0.1, 2.0)),
                                 gamma02=draw(st.floats(0.01, 0.5)))
        phase = pf.PhaseSchedule.constant(0.0)
    # a pulse on [k0, k1], then a ramp sampled at its own times, driven over its span
    k0, k1, *ks = draw(lattice(4, 8))
    times = np.array(ks) / 1000.0
    values = [draw(phases) if levels == 2 else 0.0 for _ in times]
    phase = pf.PhaseSchedule(phase.segments, ramp=(times, np.array(values)))
    pulse = amplitudes(3.0).filter(lambda a: abs(a) > 0.1)
    drive = pf.DriveSchedule(((k0 / 1000.0, k1 / 1000.0, draw(pulse)),
                              (times[0], times[-1], draw(pulse))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
    rho0 = g @ g.conj().T
    return pf.simulate(p, drive, phase, T_END, rho0=rho0 / np.trace(rho0), dt=0.05)


@PROPERTY
@given(marching_runs())
def test_marched_trace_is_the_start_trace_bit_for_bit(run):
    # coordinate 0 is the trace, and every step matrix's row 0 is e_0
    table, d2 = run.pieces, run.dim ** 2
    with mock.patch.object(pf.dynamics, "_decay", wraps=pf.dynamics._decay) as decay, \
            mock.patch.object(pf.dynamics, "_scan", wraps=pf.dynamics._scan) as scan:
        coords = run.coords
        marched = pf.dynamics._march_table(table, np.eye(d2))
    assert scan.called and decay.called == (run.dim == 2)
    assert (~table.free & (table.n_steps > 1)).any()  # a long row's stacked powers
    assert coords[:, 0].tobytes() == np.full(len(coords), run.start[0]).tobytes()
    assert np.array_equal(marched[:, 0], np.broadcast_to(np.eye(d2)[0], (len(marched), d2)))


@st.composite
def row_layouts(draw):
    """Step counts of a table's rows and a forward-scan chunk size B: a
    run of R = 1..300 one-step rows between two longer rows, with short
    one-step runs and longer rows mixed in on either side."""
    r = draw(st.integers(1, 300))
    side = st.lists(st.integers(1, 140), max_size=4)
    counts = (draw(side) + [draw(st.integers(2, 300))] + [1] * r
              + [draw(st.integers(2, 300))] + draw(side))
    return counts, draw(st.sampled_from([1, 2, 3, 7, 48, 64, max(r - 1, 1), r, r + 1]))


@PROPERTY
@given(params, amplitudes(3.0), pure_states(), row_layouts(),
       st.integers(0, 2 ** 32 - 1))
def test_chunked_scan_is_the_step_by_step_march(p, alpha, rho0, layout, seed):
    counts, b = layout
    # rows of counts[i] steps of 0.01 at their own ramp phase
    edges = np.concatenate([[0.0], np.cumsum(counts) / 100.0])
    phase = pf.PhaseSchedule(ramp=(edges, np.random.default_rng(seed).uniform(
        0.0, 2.0 * math.pi, len(edges))))
    drive = pf.DriveSchedule(((0.0, edges[-1], alpha),))
    cell, t_a, t_b, phi, amp, *_ = pf.dynamics._cut([(drive, phase, 0.0, edges[-1], edges)])
    table = pf.dynamics._compile([p], (cell, t_a, t_b, np.array(counts), phi, amp))[0]
    assert table.n_steps.tolist() == counts
    v0 = pf.dynamics._initial_state(p, rho0)
    with mock.patch.object(pf.dynamics, "_CHUNK", b):
        got = pf.dynamics._march_table(table, v0)
    run = SimpleNamespace(pieces=table, coords=v0[None], dim=2)
    assert np.max(np.abs(got - oracles.march_states(run, coords=True))) < 1e-13


@st.composite
def grid_runs(draw):
    """A run over a random piece table: 1-6 rows from t0 in [-50, 50], each
    of 1-40 steps of a length from 2e-8 to 0.5, so steps are longer than
    1e-8 and two grid points are never within 2e-9 of each other."""
    counts = np.array(draw(st.lists(st.integers(1, 40), min_size=1, max_size=6)))
    h = np.array(draw(st.lists(st.floats(2e-8, 0.5), min_size=len(counts),
                               max_size=len(counts))))
    edges = draw(st.floats(-50.0, 50.0)) + np.concatenate([[0.0], np.cumsum(counts * h)])
    rows = len(counts)
    table = pf.PieceTable(t_a=edges[:-1], t_b=edges[1:], n_steps=counts,
                          phi=np.zeros(rows), alpha=np.zeros(rows, dtype=complex),
                          free=np.zeros(rows, dtype=bool), decay=None,
                          driven=np.tile(np.eye(4), (rows, 1, 1)), channels={})
    return pf.ScenarioRun(params=pf.MirrorQubitParams(), drive=pf.DriveSchedule(),
                          phase=pf.PhaseSchedule(), start=np.eye(4)[0], pieces=table)


@PROPERTY
@given(grid_runs())
def test_grid_lookup_inverts_the_times(run):
    # every grid time maps to its index and back to the same float; a time
    # 0.5e-9 off snaps to it, one 2e-9 off (or NaN) lies on no grid point
    table = run.pieces
    for i, t in enumerate(run.times.tolist()):
        assert table.index(t) == i and table.time(i) == t
        assert table.index(t + 0.5e-9) == i and table.index(t - 0.5e-9) == i
        for off in (2e-9, -2e-9):
            with pytest.raises(ValueError, match="does not lie on the simulation grid"):
                table.index(t + off)
    with pytest.raises(ValueError, match="^time nan does not lie on the simulation grid"):
        table.index(math.nan)


@st.composite
def planted_tables(draw):
    """A d-level piece table of random rows with planted zeros: step
    matrices block-diagonal over a random grouping of the coordinates,
    and per channel rank-1 collapse operators x y^dag, x and y each on a
    random subset of the levels; levels, parents and a window to chain."""
    d = draw(st.sampled_from([2, 3]))
    group = np.array(draw(st.lists(st.integers(0, 2), min_size=d * d, max_size=d * d)))
    counts = np.array(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = len(counts)
    e = (group[:, None] == group) * rng.uniform(-1.0, 1.0, (rows, d * d, d * d)) / (d * d)
    subsets = st.lists(st.booleans(), min_size=d, max_size=d).filter(any)
    channels = {}
    for name in ("a", "b"):
        x, y = (np.array(draw(subsets)) * (rng.normal(size=(rows, d))
                                          + 1j * rng.normal(size=(rows, d))) for _ in "xy")
        channels[name] = x[:, :, None] * y.conj()[:, None, :]
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, rows))])
    table = pf.PieceTable(t_a=edges[:-1], t_b=edges[1:], n_steps=counts,
                          phi=np.zeros(rows), alpha=np.zeros(rows, dtype=complex),
                          free=np.zeros(rows, dtype=bool), decay=None,
                          driven=0.5 * np.eye(d * d) + e, channels=channels)
    levels, parents = draw(st.sampled_from([(["a", "b"], None), (["b", "a", "a"], None),
                                            (["a", "b", "b", "a"], [-1, -1, 0, 1])]))
    n = int(counts.sum())
    i0 = draw(st.integers(0, n - 1))
    return table, levels, parents, (i0, draw(st.integers(i0 + 1, n)))


@PROPERTY
@given(planted_tables())
def test_chain_on_its_reach_is_the_full_walk(case):
    # the chain runs on the reached coordinates only, the walk on all of
    # them; the walk's entries outside the reach must be exact zeros
    table, levels, parents, (i0, i1) = case
    got, want, outside = chain_and_walk(table, levels, parents, (i0, i1))
    assert np.all(want[outside] == 0.0) and np.all(got[outside] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def chain_and_walk(table, levels, parents, window):
    """`_chain` and `oracles.chain_walk` of a table's window, and the mask
    of w's entries outside the reach (`_reach`)."""
    run = SimpleNamespace(pieces=table)
    jumps = {c: pf.statistics._jumps([run], c) for c in dict.fromkeys(levels)}
    d2 = table.driven.shape[-1]
    ps = table.spans(*window)[0]
    reach = pf.statistics._reach([table.steps(ps)], jumps.values(),
                                 math.isqrt(d2))
    got = pf.statistics._chain([run], [window], levels, parents)[0]
    want = oracles.chain_walk(run, *window, [jumps[c] for c in levels], parents)
    outside = np.ones((len(levels), d2), dtype=bool)
    outside[:, reach] = False
    return got, want, np.append(False, outside.ravel())


@st.composite
def lowering_tables(draw):
    """A d-level piece table whose jumps lower the level index: collapse
    operators strictly upper triangular, entries planted to zero at
    random, so M^d = 0; step matrices that never carry the coordinates of
    the levels from l up (rho_jj and rho_jk, j, k >= l) out of that set.
    A chain level at depth l is then supported on the levels from l up,
    so it is exactly 0 from depth d on."""
    d = draw(st.sampled_from([2, 3]))
    counts = np.array(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = len(counts)
    # each coordinate's lowest level: the trace's 0, each excited population's own,
    # then each coherence's twice
    low = np.concatenate([np.arange(d), np.repeat(np.triu_indices(d, 1)[0], 2)])
    e = (low[:, None] <= low) * rng.uniform(-1.0, 1.0, (rows, d * d, d * d)) / (d * d)
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    channels = {}
    for name in ("a", "b"):
        keep = upper & np.array(draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d))
                                ).reshape(d, d)
        m = rng.normal(size=(rows, d, d)) + 1j * rng.normal(size=(rows, d, d))
        channels[name] = keep * m
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, rows))])
    table = pf.PieceTable(t_a=edges[:-1], t_b=edges[1:], n_steps=counts,
                          phi=np.zeros(rows), alpha=np.zeros(rows, dtype=complex),
                          free=np.zeros(rows, dtype=bool), decay=None,
                          driven=0.5 * np.eye(d * d) + e, channels=channels)
    levels, parents = draw(st.sampled_from([
        (["a", "a", "a"], None), (["b", "a", "a", "b"], None),
        (["a", "b", "a", "b", "a"], [-1, -1, 0, 1, 2]),
        (["a", "b"] * 3, [-1, -1, 0, 1, 2, 3])]))
    n = int(counts.sum())
    i0 = draw(st.integers(0, n - 1))
    return d, table, levels, parents, (i0, draw(st.integers(i0 + 1, n)))


@PROPERTY
@given(lowering_tables())
def test_deep_levels_of_the_full_chain_are_positive_zeros(case):
    # the chain computes every level; one at depth d or more is exactly 0
    # in the walk and must come out exactly +0.0 from the chain's products
    d, table, levels, parents, window = case
    got, want, _ = chain_and_walk(table, levels, parents, window)
    tree = list(range(-1, len(levels) - 1)) if parents is None else parents
    depth = []
    for p in tree:
        depth.append(1 if p < 0 else depth[p] + 1)
    deep = np.append(False, np.repeat(np.array(depth) >= d, d * d))
    assert deep.any() and np.all(want[deep] == 0.0) and np.all(got[deep] == 0.0)
    assert not np.signbit(got[deep]).any()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# The moments and pair integrals are grid trapezoids, so halving dt
# divides their error by 4 once the h^2 term dominates. Every pulse end
# lies on all three grids. N_3 is not yet asymptotic at these steps, and
# the h^2 term of G_ss nearly cancels (ratio about 16), so both are left out.
CONVERGENCE_DTS = (0.02, 0.01, 0.005)


def refinement_ratios(values):
    """(f(h) - f(h/2)) / (f(h/2) - f(h/4)) of each quantity."""
    a, b, c = np.array(values)
    return (a - b) / (b - c)


@pytest.mark.filterwarnings("ignore:a drive pulse spans fewer than 20")
def test_moments_converge_at_second_order():
    params = pf.MirrorQubitParams(gamma=0.5)
    drive = pf.DriveSchedule(((0.0, 0.32, 4.9),))
    values = []
    for dt in CONVERGENCE_DTS:
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 8.0,
                          dt=dt, min_pulse_steps=1)
        values.append(pf.photon_mtiples(run, cutoff=2))
    for ratio in refinement_ratios(values):
        assert 3.5 <= ratio <= 4.5, ratio


def test_pair_integrals_converge_at_second_order():
    params = pf.MirrorQubitParams(levels=3, gamma02=0.35)
    drive = pf.DriveSchedule(((0.0, 0.24, 8.0),))
    values = []
    for dt in CONVERGENCE_DTS:
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 8.0,
                          dt=dt, min_pulse_steps=1)
        pair = pf.pair_correlations(run)
        values.append([pair.g_ii, pair.g_is])
    for ratio in refinement_ratios(values):
        assert 3.5 <= ratio <= 4.5, ratio
