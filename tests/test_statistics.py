"""Counting moments, probability inversion, and pair correlations."""

import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import photonforge as pf

import oracles
from test_dynamics import TABLE_RUNS, mismatched_splitter_run, splitter_mode
from test_scenarios import simulated

PI = math.pi
RNG = np.random.default_rng(425)


def pulsed_run(dt=0.05, t_end=12.0):
    params = pf.MirrorQubitParams(gamma=0.5)
    drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
    return pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), t_end,
                       dt=dt)


# a chain block's float budget in the block tests: 128 rows of a
# drive-free window's three-level chain on two coordinates, width 7
SMALL_FLOATS = 128 * 7 ** 2


@pytest.fixture
def chain_blocks(monkeypatch):
    """Chain blocks of SMALL_FLOATS floats; records the (rows, runs) of
    each block that `_chain` reduces."""
    monkeypatch.setattr(pf.statistics, "_FLOATS", SMALL_FLOATS)
    seen = []
    real = pf.statistics._product

    def recording(mats):
        seen.append(mats.shape[:2])
        return real(mats)

    monkeypatch.setattr(pf.statistics, "_product", recording)
    return seen


def cascade_run(alpha_d=5.0, t_end=8.0, dt=0.01):
    params = pf.MirrorQubitParams(levels=3)
    tw = pf.pi_pulse_width(alpha_d, 2.0 * params.gamma02)
    drive = pf.DriveSchedule(((0.0, tw, alpha_d),))
    return pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), t_end,
                       dt=dt)


class TestMomentsAgainstNestedQuadrature:
    def test_first_two_moments(self):
        run = pulsed_run()
        got = pf.photon_mtiples(run, cutoff=2)
        want = oracles.naive_counting_moments(run.times, oracles.grid_steps(run),
                                              oracles.grid_ops(run), run.states,
                                              mmax=2)
        assert abs(got[0] - want[0]) < 1e-10
        assert abs(got[1] - want[1]) < 1e-10

    def test_third_moment_on_short_window(self):
        params = pf.MirrorQubitParams(gamma=1.0)
        drive = pf.DriveSchedule(((0.0, 4.0, 1.2),))
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 4.0,
                          dt=0.05)
        got = pf.photon_mtiples(run, cutoff=3)
        want = oracles.naive_counting_moments(run.times, oracles.grid_steps(run),
                                              oracles.grid_ops(run), run.states,
                                              mmax=3)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-10

    def test_window_through_ramp_ends_on_a_phase_switch(self):
        # one-step ramp rows, then a ten-step row whose last step ends on
        # the switch to phi = 1.9: the window's end point takes the
        # counting operator of the phi = 1.9 row, and so must the chain
        ramp = (np.linspace(0.6, 1.0, 5),
                np.random.default_rng(7).uniform(0.0, 2.0 * PI, 5))
        phase = pf.PhaseSchedule(((-math.inf, 2.0, 0.3), (2.0, math.inf, 1.9)), ramp=ramp)
        drive = pf.DriveSchedule(((0.0, 3.0, 1.5 - 0.5j),))
        run = pf.simulate(pf.MirrorQubitParams(gamma=1.0), drive, phase, 3.0, dt=0.1)
        assert list(run.pieces.n_steps) == [6, 1, 1, 1, 1, 10, 10]
        i0, i1 = 8, 20
        got = pf.photon_mtiples(run, cutoff=3, window=(run.times[i0], run.times[i1]))
        want = oracles.naive_counting_moments(
            run.times[i0:i1 + 1], oracles.grid_steps(run)[i0:i1],
            oracles.grid_ops(run)[i0:i1 + 1], run.states[i0:i1 + 1], mmax=3)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-10

    def test_second_moment_over_more_rows_than_a_block(self, chain_blocks):
        # the chain builds its rows' last-step matrices a float budget of
        # rows at a time; one-step ramp rows span several such blocks here
        n = 266
        ramp = (np.linspace(0.5, 0.5 + 0.02 * n, n + 1),
                np.random.default_rng(8).uniform(0.0, 2.0 * PI, n + 1))
        end = 1.0 + 0.02 * n
        drive = pf.DriveSchedule(((0.0, end, 1.2 + 0.4j),))
        run = pf.simulate(pf.MirrorQubitParams(gamma=1.0), drive,
                          pf.PhaseSchedule(ramp=ramp), end, dt=0.02)
        assert len(run.pieces.n_steps) == n + 2
        got = pf.photon_mtiples(run, cutoff=2)
        want = oracles.naive_counting_moments(run.times, oracles.grid_steps(run),
                                              oracles.grid_ops(run), run.states,
                                              mmax=2)
        assert len(chain_blocks) > 2
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-10

    def test_cutoff_one_is_the_first_moment_of_a_longer_chain(self):
        run = pulsed_run()
        first = pf.photon_mtiples(run, cutoff=1)
        assert len(first) == 1
        assert abs(first[0] - pf.photon_mtiples(run, cutoff=3)[0]) < 1e-14

    def test_cutoff_bounds(self):
        run = pulsed_run(t_end=2.0)
        with pytest.raises(ValueError, match="at least 1"):
            pf.photon_mtiples(run, cutoff=0)
        assert len(pf.photon_mtiples(run, cutoff=4)) == 4
        assert len(pf.photon_mtiples(run, cutoff=np.int64(2))) == 2

    @pytest.mark.parametrize("cutoff", [2.5, 2.0, "2", None, True])
    def test_rejects_non_integer_cutoff(self, cutoff):
        # True used to pass the check and fail inside the chain
        with pytest.raises(ValueError, match=f"^cutoff must be an integer of at "
                                             f"least 1, got {cutoff!r}$"):
            pf.photon_mtiples(pulsed_run(t_end=2.0), cutoff=cutoff)

    def test_coarse_pulse_warns(self):
        params = pf.MirrorQubitParams(gamma=1.0)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 2.0)
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 2.0,
                          dt=0.1, min_pulse_steps=1)
        with pytest.warns(UserWarning, match="fewer than 20"):
            pf.photon_mtiples(run, cutoff=1)

    @pytest.mark.parametrize("count", [pf.photon_mtiples, pf.counting_statistics])
    def test_coarse_pulse_warning_names_the_caller(self, count):
        # the alpha0 = 0.5 pulse, 3.14 long, is cut at t_end = 2 to 14 grid points
        drive = pf.DriveSchedule.square_pi_pulse(0.5, 0.0, 1.0)
        run = pf.simulate(pf.MirrorQubitParams(gamma=0.5), drive,
                          pf.PhaseSchedule.constant(0.0), 2.0, dt=0.2)
        assert run.drive_points == 14
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            count(run)
        assert [w.filename for w in seen] == [__file__]

    def test_window_must_sit_on_grid(self):
        run = pulsed_run(t_end=2.0)
        with pytest.raises(ValueError, match="does not lie on the simulation grid"):
            pf.photon_mtiples(run, window=(0.503, 2.0))

    def test_empty_window_rejected(self):
        run = pulsed_run(t_end=2.0)
        with pytest.raises(ValueError, match="empty counting window"):
            pf.photon_mtiples(run, window=(2.0, 2.0))

    @pytest.mark.parametrize("window, end", [((math.nan, 2.0), "start"),
                                             ((0.0, math.nan), "end")])
    def test_nan_window_rejected(self, window, end):
        # a NaN start used to count the whole run, a NaN end to read as empty
        run = pulsed_run(t_end=2.0)
        for count in (pf.photon_mtiples, pf.counting_statistics):
            with pytest.raises(ValueError, match=f"^window {end} nan does not lie on the "
                                                 "simulation grid; a time outside the "
                                                 "simulation grid is not snapped$"):
                count(run, window=window)

    def test_windowed_moments_equal_fresh_run(self):
        params = pf.MirrorQubitParams(gamma=0.5)
        tw = pf.pi_pulse_width(5.0, 1.0)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        phase = pf.PhaseSchedule.constant(0.0)
        full = pf.simulate(params, drive, phase, 10.0, dt=0.005)
        idx = int(np.argmin(np.abs(full.times - tw)))
        rho_mid = full.states[idx].reshape((2, 2), order="F")
        fresh = pf.simulate(params, drive, phase, 10.0, t_start=tw,
                            rho0=rho_mid, dt=0.005)
        windowed = pf.photon_mtiples(full, cutoff=3, window=(tw, 10.0))
        direct = pf.photon_mtiples(fresh, cutoff=3)
        for a, b in zip(windowed, direct):
            assert abs(a - b) < 1e-12


class TestMomentsAgainstNumberResolvedOde:
    """N_1..N_6 of the bare alpha0 = 5 source against sum_n C(n, m) P_n,
    P_n from the number-resolved ODE route."""

    @pytest.fixture(scope="class")
    def gaps(self):
        out = {}
        for dt in (0.01, 0.005):
            run = pulsed_run(dt=dt)
            probs = oracles.number_resolved_probabilities(run, kmax=10)
            assert abs(sum(probs) - 1.0) < 1e-12
            want = oracles.forward_binomial_moments(probs, 6)
            got = pf.photon_mtiples(run, cutoff=6)
            out[dt] = [abs(g - w) / w for g, w in zip(got, want)]
        return out

    def test_every_order_within_the_grid_error(self, gaps):
        assert max(gaps[0.005]) < 2e-4

    def test_low_orders_converge_at_second_order(self, gaps):
        # N_4..N_6 are not yet asymptotic at these steps
        for m in range(3):
            assert 3.4 <= gaps[0.01][m] / gaps[0.005][m] <= 4.6, m


def bench_job_stats(kind):
    """Statistics of one job of a benchmark kind, at dt = 0.005."""
    if kind in ("beam_splitter", "residual_drive"):
        config = pf.BeamSplitterConfig(alpha0=10.0, r=0.995, dt=0.005,
                                       phase_error=0.05 if kind == "residual_drive" else 0.0)
        return pf.run_beam_splitter(pf.MirrorQubitParams(gamma=0.5, gamma_nr=0.02), config)
    if kind == "release":
        release, gamma = 0.4 * PI, 1.0
    elif kind == "exponential":
        release, gamma = pf.WavePacket.exponential(1.0, 8.0, duration=12.0), 1.0
    else:
        release, gamma = pf.WavePacket.gaussian(13.0, 1.25, t_start=8.0), 1.5
    return pf.run_shaped_release(pf.MirrorQubitParams(gamma=gamma), alpha0=8.0,
                                 release=release, dt=0.005).stats


class TestFirstMomentAgainstDirectFlux:
    @pytest.mark.parametrize("kind", ["beam_splitter", "residual_drive", "release",
                                      "exponential", "gaussian"])
    def test_scenario_first_moment(self, kind):
        # the scenario's own run, which a beam splitter counts in its
        # splitter mode and a release by its flux
        stats, (run,) = simulated(lambda: bench_job_stats(kind))
        if kind in ("beam_splitter", "residual_drive"):
            run = splitter_mode(run, 0.995, phase_error=0.05 if kind == "residual_drive" else 0.0)
        i0, i1 = np.searchsorted(run.times, stats.window)
        want = oracles.naive_counting_moments(
            run.times[i0:i1 + 1], oracles.grid_steps(run)[i0:i1],
            oracles.grid_ops(run)[i0:i1 + 1], run.states[i0:i1 + 1], mmax=1)
        assert abs(stats.n_tiples[0] - want[0]) < 1e-10


class TestInversion:
    def test_binomial_roundtrip(self):
        for size in range(4, 10):
            p = RNG.uniform(0.05, 1.0, size=size)
            p /= p.sum()
            moments = oracles.forward_binomial_moments(p, size - 1)
            back = pf.invert_to_probabilities(moments)
            assert max(abs(a - b) for a, b in zip(back, p)) < 1e-12

    def test_agrees_with_alternating_sum(self):
        rng = np.random.default_rng(426)
        for size in range(2, 14):
            p = rng.uniform(0.0, 1.0, size=size)
            p /= p.sum()
            moments = oracles.forward_binomial_moments(p, size - 1)
            got = pf.invert_to_probabilities(moments)
            want = oracles.alternating_binomial_inverse(moments)
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10

    def test_uniform_over_thirteen_counts_round_trips(self):
        # binomial weights up to C(12, 6) = 924 amplify the moments' rounding
        p = [1.0 / 13.0] * 13
        back = pf.invert_to_probabilities(oracles.forward_binomial_moments(p, 12))
        assert max(abs(a - b) for a, b in zip(back, p)) < 1e-10

    def test_poisson_reference(self):
        moments = oracles.poisson_moments(0.2, 8)
        p = pf.invert_to_probabilities(moments)
        assert abs(p[0] - math.exp(-0.2)) < 1e-9
        assert abs(p[1] - 0.2 * math.exp(-0.2)) < 1e-8
        assert abs(sum(p) - 1.0) < 1e-9

    def test_small_negative_probability_clamped(self, caplog):
        with caplog.at_level(logging.WARNING, logger="photonforge.statistics"):
            p = pf.invert_to_probabilities([0.8, -5e-4, 0.0])
        assert "clamping" in caplog.text
        assert min(p) >= 0.0
        assert abs(sum(p) - 1.0) < 1e-12

    def test_large_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="below -1e-3"):
            pf.invert_to_probabilities([0.8, -5e-3, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_moments_rejected(self, bad):
        with pytest.raises(ValueError, match="not all finite"):
            pf.invert_to_probabilities([0.8, bad, 0.0])

    def test_empty_moment_list_rejected(self):
        with pytest.raises(ValueError, match="at least one counting moment"):
            pf.invert_to_probabilities([])

    def test_statistics_container(self):
        run = pulsed_run(t_end=6.0)
        stats = pf.counting_statistics(run, cutoff=2)
        assert len(stats.n_tiples) == 2
        assert len(stats.probabilities) == 3
        assert stats.prob(1) == stats.probabilities[1]
        assert abs(sum(stats.probabilities) - 1.0) < 1e-9
        assert abs(stats.window[0] - 0.0) < 1e-9
        assert abs(stats.window[1] - 6.0) < 1e-9


class TestSingleStoredExcitation:
    def test_higher_moments_vanish(self, stored_excitation_run):
        nm = pf.photon_mtiples(stored_excitation_run, cutoff=3)
        assert nm[0] == pytest.approx(1.0 - math.exp(-12.0), abs=1e-4)
        assert abs(nm[1]) < 1e-15
        assert abs(nm[2]) < 1e-15

    def test_pair_correlator_vanishes(self, stored_excitation_run):
        run = stored_excitation_run
        assert pf.correlator_gm(run, (1.0, 3.0)) < 1e-12
        assert pf.correlator_gm(run, (0.5, 0.5)) < 1e-12

    def test_single_time_correlator_is_the_flux(self, stored_excitation_run):
        run = stored_excitation_run
        idx = int(np.argmin(np.abs(run.times - 2.0)))
        got = pf.correlator_gm(run, (2.0,))
        assert abs(got - math.exp(-run.times[idx])) < 1e-9

    def test_times_must_be_ordered(self, stored_excitation_run):
        with pytest.raises(ValueError, match="nondecreasing"):
            pf.correlator_gm(stored_excitation_run, (3.0, 1.0))

    def test_time_off_grid_rejected(self, stored_excitation_run):
        with pytest.raises(ValueError, match="outside the simulation grid"):
            pf.correlator_gm(stored_excitation_run, (100.0,))

    def test_time_between_grid_points_rejected(self, stored_excitation_run):
        run = stored_excitation_run
        t = run.times[400] + 0.4 * (run.times[401] - run.times[400])
        with pytest.raises(ValueError, match="outside the simulation grid"):
            pf.correlator_gm(run, (run.times[100], t))

    @pytest.mark.parametrize("times", [(math.nan,), (1.0, math.nan), (math.nan, 1.0)])
    def test_nan_time_rejected(self, stored_excitation_run, times):
        # a NaN time used to give 0.0
        with pytest.raises(ValueError, match="^time nan does not lie on the simulation grid"):
            pf.correlator_gm(stored_excitation_run, times)


def explicit_correlator(run, idx):
    """tr(J E ... J E J rho) at grid indices idx, one grid step at a time."""
    steps, ops = oracles.grid_steps(run), oracles.grid_ops(run)
    jumps = [np.kron(op.conj(), op) for op in ops]
    v = jumps[idx[0]] @ run.states[idx[0]]
    for i_prev, i_next in zip(idx, idx[1:]):
        for e in steps[i_prev:i_next]:
            v = e @ v
        v = jumps[i_next] @ v
    return float(np.trace(v.reshape((run.dim, run.dim), order="F")).real)


class TestMultiTimeCorrelator:
    @pytest.fixture(scope="class")
    def switched_run(self):
        # two pulses and a phase switch at t = 1: six rows of 4-40 steps
        params = pf.MirrorQubitParams(gamma=0.5, delta=0.3, gamma_nr=0.1)
        drive = pf.DriveSchedule(((0.2, 0.6, 2.0), (1.5, 2.0, 1.0 + 0.5j)))
        phase = pf.PhaseSchedule(((-math.inf, 1.0, 0.0), (1.0, math.inf, 0.7)))
        return pf.simulate(params, drive, phase, 4.0, dt=0.05)

    def tuples(self, run):
        rng = np.random.default_rng(3101)
        n = len(run.times)
        edges = np.concatenate(([0], np.cumsum(run.pieces.n_steps)))
        out = [sorted(rng.integers(0, n, size=m)) for m in (2, 3) for _ in range(20)]
        out += [sorted(rng.choice(edges, size=m, replace=False))
                for m in (2, 3) for _ in range(10)]
        out += [[i, i] for i in edges] + [[i, i, j] for i, j in zip(edges, edges[1:])]
        return out

    def test_matches_explicit_products(self, switched_run):
        run = switched_run
        assert len(run.pieces.n_steps) == 6
        nonzero = 0
        for idx in self.tuples(run):
            got = pf.correlator_gm(run, run.times[idx])
            want = explicit_correlator(run, idx)
            assert abs(got - want) <= 1e-12 * abs(want)
            nonzero += want > 0
        # a jump with no drive after it leaves the ground state, so every
        # later jump reads exactly 0; the rest must be a real check
        assert nonzero >= 30

    def test_times_across_ramp_blocks(self):
        # a driven 600-row ramp of one-step rows; each tuple's times span
        # hundreds of rows
        phase = pf.PhaseSchedule(ramp=(np.linspace(0.0, 3.0, 601),
                                       np.random.default_rng(17).uniform(0.0, 2.0 * PI, 601)))
        run = pf.simulate(pf.MirrorQubitParams(gamma=0.7, gamma_nr=0.2),
                          pf.DriveSchedule(((0.0, 3.0, 1.5 - 0.5j),)), phase, 3.0, dt=0.05)
        assert run.pieces.n_steps.tolist() == [1] * 600
        for idx in ([3, 290, 597], [40, 600], [10, 150, 276]):
            got = pf.correlator_gm(run, run.times[idx])
            want = explicit_correlator(run, idx)
            assert want > 0
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_row_lookup_reads_the_per_point_jumps(self, switched_run):
        # each time reads its row's jump as the per-point expansion did:
        # right-continuous at a row boundary, the last row at the end point
        run = switched_run
        edges = run.pieces.starts.tolist()
        end = len(run.times) - 1
        assert edges[-1] == end
        for idx in ([[i] for i in edges] + [[i, i] for i in edges]
                    + [[i - 1, i] for i in edges[1:]] + [[0, end], [end, end, end]]
                    + [[edges[1], edges[3], end], [1, edges[2] - 1, edges[2]]]):
            got = pf.correlator_gm(run, run.times[idx])
            want = oracles.per_point_correlator(run, idx)
            assert got == want, idx


class TestChainAgainstRowWalk:
    """The block-wise tree product of `_chain` against the backward walk
    of `oracles.chain_walk`, one vector product per row."""

    @pytest.fixture(scope="class", params=sorted(TABLE_RUNS))
    def run(self, request):
        return TABLE_RUNS[request.param]()

    def test_matches_row_walk(self, run, monkeypatch):
        # in one block, and in blocks of SMALL_FLOATS floats
        channels = ["line"] * 3 if run.dim == 2 else ["idler", "signal"]
        jumps = [pf.statistics._jumps([run], c) for c in channels]
        n = len(run.times) - 1
        for i0, i1 in [(0, n), (1, n - 1), (0, n - 1)]:
            want = oracles.chain_walk(run, i0, i1, jumps)
            for floats in (pf.statistics._FLOATS, SMALL_FLOATS):
                monkeypatch.setattr(pf.statistics, "_FLOATS", floats)
                got = pf.statistics._chain([run], [(i0, i1)], channels)[0]
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_tree_matches_row_walk(self):
        # the pair layout: two roots, each with two children; the
        # two-segment drive leaves several rows with interior powers
        run = TABLE_RUNS["three_level"]()
        assert len(run.pieces.n_steps) > 3 and (run.pieces.n_steps > 1).sum() > 2
        channels, parents = ["idler", "signal"] * 3, [-1, -1, 0, 0, 1, 1]
        jumps = [pf.statistics._jumps([run], c) for c in channels]
        n = len(run.times) - 1
        for i0, i1 in [(0, n), (1, n - 1), (0, n - 1)]:
            want = oracles.chain_walk(run, i0, i1, jumps, parents)
            got = pf.statistics._chain([run], [(i0, i1)], channels, parents)[0]
            assert len(got) == 1 + 6 * 9
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_runs_in_one_chain_equal_their_own_chains(self, chain_blocks, monkeypatch):
        # counting levels over runs of 2,400 one-step rows, of long rows and
        # of short ones, 13 wide: a budget of one block for all four pads
        # the shorter runs
        runs = [TABLE_RUNS[k]() for k in ("ramp", "pulse", "short_rows", "release")]
        windows = [(0, len(r.times) - 1) for r in runs]
        windows[0] = (1, len(runs[0].times) - 2)
        monkeypatch.setattr(pf.statistics, "_FLOATS", 4 * 2400 * 13 ** 2)
        got = pf.statistics._chain(runs, windows, ["line"] * 3)
        assert got.shape == (4, 1 + 3 * 4)
        assert chain_blocks == [(2398, 4)]
        for run, window, w in zip(runs, windows, got):
            assert np.array_equal(w, pf.statistics._chain([run], [window], ["line"] * 3)[0])

    def test_cascade_runs_in_one_tree_equal_their_own_trees(self, chain_blocks, monkeypatch):
        # 70 cascade cells of one to four rows: more rows than one block of
        # 128 rows of width 25 holds, so the runs go in groups of 32, the
        # shorter padded
        params = pf.MirrorQubitParams(levels=3)
        drives = [pf.DriveSchedule(((0.0, 1.0, 5.0), (3.0, 4.0, 5.0))),
                  pf.DriveSchedule(((0.0, 9.0, 0.3),)),
                  pf.DriveSchedule(((0.0, 1.0, 5.0), (3.0, 9.0, 0.3)))]
        drives += [pf.DriveSchedule(((0.0, 0.4 + 0.01 * k, 4.0),)) for k in range(67)]
        phase = pf.PhaseSchedule.constant(0.0)
        cells = [(params.with_(gamma02=0.05 + 0.005 * k), d, phase, 0.0, 6.0, 0.05)
                 for k, d in enumerate(drives)]
        runs = pf.dynamics._simulate(cells)
        assert [len(r.pieces.t_a) for r in runs[:4]] == [4, 1, 3, 2]
        channels, parents = ["idler", "signal"] * 3, [-1, -1, 0, 0, 1, 1]
        windows = [(0, len(r.times) - 1) for r in runs]
        monkeypatch.setattr(pf.statistics, "_FLOATS", 128 * 25 ** 2)
        got = pf.statistics._chain(runs, windows, channels, parents)
        assert chain_blocks == [(4, 32), (2, 32), (2, 6)]
        for run, window, w in zip(runs, windows, got):
            assert np.array_equal(w, pf.statistics._chain([run], [window], channels, parents)[0])

    def test_a_run_without_the_channel_is_rejected(self):
        runs = [TABLE_RUNS["three_level"](), TABLE_RUNS["pulse"]()]
        windows = [(0, len(r.times) - 1) for r in runs]
        with pytest.raises(ValueError, match="unknown channel 'idler'; this run has line"):
            pf.statistics._chain(runs, windows, ["idler", "signal"])

    def test_windows_reach_the_block_cases(self, chain_blocks):
        # the ramp's (0, n - 1) window is 2,399 one-step rows, so in blocks
        # of SMALL_FLOATS floats its last block holds an odd 95 rows; the
        # pulse's (1, n - 1) window starts and ends inside a row;
        # block_edges is in TABLE_RUNS
        ramp = TABLE_RUNS["ramp"]()
        rows = ramp.pieces.spans(0, len(ramp.times) - 2)[0]
        assert (ramp.pieces.n_steps[rows] == 1).all()
        pf.statistics._chain([ramp], [(0, len(ramp.times) - 2)], ["line"] * 3)
        assert chain_blocks == [(128, 1)] * 18 + [(95, 1)]
        pulse = TABLE_RUNS["pulse"]()
        assert not {1, len(pulse.times) - 2} & set(pulse.pieces.starts.tolist())
        assert "block_edges" in TABLE_RUNS


class TestReach:
    """The coordinates each chain runs on (`_reach`): the trace, coordinate 0,
    and what the window's step matrices and the jumps carry it to."""

    @pytest.fixture
    def reaches(self, monkeypatch):
        seen = []
        real = pf.statistics._reach

        def recording(*args):
            idx = real(*args)
            seen.append(idx.tolist())
            return idx

        monkeypatch.setattr(pf.statistics, "_reach", recording)
        return seen

    @staticmethod
    def chain_release_window(reaches, release):
        # a release counts from its flux, with no chain; the chain counts
        # the release run over its window
        res, (run,) = simulated(lambda: pf.run_shaped_release(pf.MirrorQubitParams(gamma=1.5),
                                                              release=release))
        assert reaches == []
        pf.photon_mtiples(run, 3, res.stats.window)

    def test_packet_release_window(self, reaches):
        # no drive in the window: the release stays on the trace and rho_11
        self.chain_release_window(reaches, pf.WavePacket.exponential(1.0, 8.0))
        assert reaches == [[0, 1]]

    def test_constant_release_window(self, reaches):
        self.chain_release_window(reaches, 0.3 * PI)
        assert reaches == [[0, 1]]

    @pytest.mark.parametrize("phase_error, reach", [(0.0, [0, 1, 2]), (0.05, [0, 1, 2, 3])])
    def test_beam_splitter(self, reaches, phase_error, reach):
        # a real drive reaches Re rho_01; a phase error gives the counting
        # mode a complex residual, which reaches Im rho_01 too
        config = pf.BeamSplitterConfig(alpha0=5.0, phase_error=phase_error)
        pf.run_beam_splitter(pf.MirrorQubitParams(gamma=0.5), config)
        assert reaches == [reach]

    def test_cascade_cell(self, reaches):
        # the 0-2 drive reaches Re rho_02 (coordinate 5); decays stay on the trace,
        # rho_11 and rho_22
        pf.run_cascade(pf.MirrorQubitParams(levels=3), 5.0, t_end=4.0, dt=0.01)
        assert reaches == [[0, 1, 2, 5]]


def _packet_release_window():
    res, (run,) = simulated(lambda: pf.run_shaped_release(
        pf.MirrorQubitParams(gamma=1.5), release=pf.WavePacket.exponential(1.0, 8.0)))
    return run, res.stats.window


# drive-free windows as (run, window in times; None the whole run): each
# holds one excitation at most, or (gamma = 0) never jumps
DRIVE_FREE_WINDOWS = {
    "ramp": lambda: (TABLE_RUNS["ramp"](), None),
    "stored_excitation": lambda: (pf.simulate(
        pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(()), pf.PhaseSchedule.constant(PI / 2.0),
        12.0, rho0=pf.DensityMatrix.excited(2), dt=0.005), None),
    "packet_release": _packet_release_window,
    "gamma_zero": lambda: (pf.simulate(pf.MirrorQubitParams(gamma=0.0), pf.DriveSchedule(),
                                       pf.PhaseSchedule.constant(0.0), 2.0, dt=0.01), None),
}


@pytest.mark.parametrize("case", sorted(DRIVE_FREE_WINDOWS))
def test_drive_free_windows_count_positive_zeros(case, monkeypatch):
    # every level is chained; N_2 and N_3 come out +0.0 from the products,
    # in the default blocks and in one, and N_1 as a one-level chain's once
    # both chains take one block
    run, window = DRIVE_FREE_WINDOWS[case]()
    counts = pf.counting_statistics(run, 3, window).n_tiples
    assert (counts[0] > 0.0) == (case != "gamma_zero")
    assert counts[1:] == (0.0, 0.0) and not np.signbit(counts[1:]).any()
    i = pf.statistics._windows([run], [window], 3)
    for floats in (pf.statistics._FLOATS, 1 << 20):
        monkeypatch.setattr(pf.statistics, "_FLOATS", floats)
        w = pf.statistics._chain([run], i, ["line"] * 3)[0]
        assert not w[5:].any() and not np.signbit(w[5:]).any()
    assert np.array_equal(w[:5], pf.statistics._chain([run], i, ["line"])[0])


# the (first, second) channel orderings of `_pair_counts`' A_ii, A_si, A_is and A_ss
ORDERINGS = [("idler", "idler"), ("signal", "idler"), ("idler", "signal"),
             ("signal", "signal")]


def assert_matches_nested(run):
    for (a, b), got in zip(ORDERINGS, pf.statistics._pair_counts([run])[0]):
        want = oracles.nested_pair_count(run, a, b)
        assert abs(got - want) < 1e-12, (a, b, got, want)


@pytest.fixture(scope="module")
def coarse_run3():
    return cascade_run(dt=0.05)


@pytest.fixture(scope="module")
def run3():
    return cascade_run()


@pytest.fixture(scope="module")
def nested3(coarse_run3):
    """`oracles.nested_pair_count` of `coarse_run3` in each of the ORDERINGS."""
    return {(a, b): oracles.nested_pair_count(coarse_run3, a, b) for a, b in ORDERINGS}


class TestJumpsAndGathers:
    """`_jumps` against the complex Kronecker route of `oracles.kron_jumps`,
    and `_chain`'s one gather of each distinct jump array per block."""

    @pytest.mark.parametrize("name", sorted(TABLE_RUNS))
    def test_jumps_match_kron_route(self, name):
        run = TABLE_RUNS[name]()
        for channel, ops in run.pieces.channels.items():
            got = pf.statistics._jumps([run], channel)
            want = oracles.kron_jumps(ops)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_random_operators_match_kron_route(self):
        for d in (2, 3):
            ops = RNG.normal(size=(40, d, d)) + 1j * RNG.normal(size=(40, d, d))
            run = TABLE_RUNS["pulse"]() if d == 2 else TABLE_RUNS["three_level"]()
            run.pieces = replace(run.pieces, channels={"m": ops})
            got, want = pf.statistics._jumps([run], "m"), oracles.kron_jumps(ops)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_moments_match_kron_route(self, monkeypatch):
        def results():
            config = pf.BeamSplitterConfig(alpha0=5.0, amp_error=0.02, phase_error=0.05)
            bs = pf.run_beam_splitter(pf.MirrorQubitParams(gamma=0.5), config)
            pair = pf.pair_correlations(TABLE_RUNS["three_level"]())
            return (list(pf.photon_mtiples(TABLE_RUNS["release"](), cutoff=3))
                    + list(bs.n_tiples) + [pair.g_ii, pair.g_ss, pair.g_is])

        got = results()
        monkeypatch.setattr(pf.statistics, "_jumps", lambda runs, channel: oracles.kron_jumps(
            np.concatenate([run.pieces.channels[channel] for run in runs])))
        want = results()
        assert min(map(abs, want)) > 0
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w)

    def test_jumps_zero_on_some_rows_match_kron_route(self):
        run = mismatched_splitter_run()
        ops = run.pieces.channels["line"]
        diag = np.abs(ops[:, 0, 0]) > 0
        assert diag.any() and not diag.all()
        got, want = pf.statistics._jumps([run], "line"), oracles.kron_jumps(ops)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("parents", [None, [-1, 0, 0]])
    def test_chain_steps_equal_jump_arrays_build_one_m(self, parents):
        # the two levels of channel b under a root share b's forms; with
        # a third channel c of equal jumps in separate arrays, each level
        # builds its own. Channel b pairs a's jc with another jn
        run = TABLE_RUNS["release"]()
        table, jumps = run.pieces, pf.statistics._jumps([run], "line")
        rows = np.arange(len(table.t_a) - 1)
        e, h = table.steps(rows), table.h[rows]
        jc, jn = jumps[rows], jumps[rows + 1]
        other = 2.0 * jn
        shared = pf.statistics._chain_steps(e, {"a": jc, "b": jc}, {"a": jn, "b": other},
                                            h, ["a", "b", "b"], parents)
        apart = pf.statistics._chain_steps(e, {"a": jc, "b": jc.copy(), "c": jc.copy()},
                                           {"a": jn.copy(), "b": other, "c": other.copy()},
                                           h, ["a", "b", "c"], parents)
        assert len(rows) > 3
        assert np.array_equal(shared, apart)

    def test_chain_gathers_each_jump_array_once(self, monkeypatch):
        # a channel named on several levels is built once for all its runs
        seen = []
        real = pf.statistics._jumps

        def recording(runs, channel):
            seen.append((len(runs), channel))
            return real(runs, channel)

        monkeypatch.setattr(pf.statistics, "_jumps", recording)
        pf.photon_mtiples(TABLE_RUNS["pulse"](), cutoff=3)
        assert seen == [(1, "line")]
        seen.clear()
        pf.pair_correlations(TABLE_RUNS["three_level"]())
        assert seen == [(1, "idler"), (1, "signal")]
        seen.clear()
        pf.sweep_cascade(pf.MirrorQubitParams(levels=3), [5.0, 0.0, 6.0], [0.1], 4.0, 0.05)
        assert seen == [(2, "idler"), (2, "signal")]


class TestPairIntegrals:
    def test_symmetrized_sum_of_orderings(self, coarse_run3, nested3):
        got = pf.pair_correlations(coarse_run3).g_is
        _, a_si, a_is, _ = pf.statistics._pair_counts([coarse_run3])[0]
        assert abs(got - (a_si + a_is)) < 1e-12
        assert abs(got - nested3["signal", "idler"] - nested3["idler", "signal"]) < 1e-12

    def test_same_channel_counts_both_orderings(self, coarse_run3, nested3):
        got = pf.pair_correlations(coarse_run3)
        a_ii, _, _, a_ss = pf.statistics._pair_counts([coarse_run3])[0]
        assert abs(got.g_ii - 2.0 * a_ii) < 1e-15 and abs(got.g_ss - 2.0 * a_ss) < 1e-15
        assert abs(got.g_ii - 2.0 * nested3["idler", "idler"]) < 1e-12
        assert abs(got.g_ss - 2.0 * nested3["signal", "signal"]) < 1e-12

    @pytest.mark.parametrize("name", ["01", "s", "Signal"])
    def test_only_the_channel_names_are_known(self, run3, name):
        with pytest.raises(ValueError, match="unknown channel"):
            pf.statistics._jumps([run3], name)

    def test_unknown_channel_rejected(self, run3):
        with pytest.raises(ValueError, match="unknown channel 'telegraph'"):
            pf.statistics._jumps([run3], "telegraph")

    def test_two_level_run_rejected(self, stored_excitation_run):
        with pytest.raises(ValueError, match="pair correlations require a three-level run"):
            pf.pair_correlations(stored_excitation_run)

    @pytest.mark.parametrize("alpha_d, gamma02", [(5.0, 0.05), (8.0, 0.35), (10.0, 0.5)])
    def test_one_tree_chain_equals_the_pair_integrals(self, alpha_d, gamma02):
        run = pf.simulate(pf.MirrorQubitParams(levels=3, gamma02=gamma02),
                          pf.DriveSchedule.square_pi_pulse(alpha_d, 0.0, 2.0 * gamma02),
                          pf.PhaseSchedule.constant(0.0), 20.0, dt=0.005)
        # each ordering as its own walk of one root (the later jump) and one child
        got = pf.pair_correlations(run)
        a = {}
        for first, second in ORDERINGS:
            jumps = [pf.statistics._jumps([run], c) for c in (second, first)]
            w = oracles.chain_walk(run, 0, run.pieces.starts[-1], jumps, [-1, 0])
            a[first, second] = w[1 + 9:] @ run.coords_at(0)
        want = [2.0 * a["idler", "idler"], 2.0 * a["signal", "signal"],
                a["idler", "signal"] + a["signal", "idler"]]
        for g, x in zip([got.g_ii, got.g_ss, got.g_is], want):
            assert abs(g - x) <= 1e-13 * abs(x)

    def test_counting_needs_the_line_channel(self, run3):
        msg = "unknown channel 'line'; this run has signal, idler, pump"
        with pytest.raises(ValueError, match=msg):
            pf.photon_mtiples(run3)
        with pytest.raises(ValueError, match=msg):
            pf.correlator_gm(run3, [run3.times[10]])

    @pytest.mark.parametrize("field", ["g_ii", "g_ss", "g_is"])
    def test_result_rejects_non_finite_fields(self, field):
        values = {**dict(g_ii=0.0, g_ss=0.0, g_is=0.0), field: math.nan}
        with pytest.raises(ValueError, match=f"{field} = nan is not finite"):
            pf.CrossPairResult(**values)

    def test_nested_oracle_cascade_pulse(self, coarse_run3):
        assert_matches_nested(coarse_run3)

    def test_nested_oracle_step_matrix_recurring_after_gap(self):
        params = pf.MirrorQubitParams(levels=3)
        drive = pf.DriveSchedule(((0.0, 1.0, 5.0), (3.0, 4.0, 5.0)))
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 6.0,
                          dt=0.05)
        # the two pulses are rows of one (phi, alpha, h): their step matrices
        # are bit-identical, whatever rows the stack holds beside them
        table = run.pieces
        assert len(table.t_a) == 4 and table.alpha[0] == table.alpha[2] != table.alpha[1]
        assert (table.phi[0], table.h[0]) == (table.phi[2], table.h[2])
        steps = table.steps([0, 2])
        assert steps[0].tobytes() == steps[1].tobytes()
        assert_matches_nested(run)

    def test_rounded_grid_times_keep_pieces_whole(self):
        # the free decay is one row of 3,860 steps whatever the rounding
        # of its grid times
        params = pf.MirrorQubitParams(levels=3, gamma02=0.1)
        tw = pf.pi_pulse_width(5.0, 2.0 * params.gamma02)
        drive = pf.DriveSchedule(((0.0, tw, 5.0),))
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 20.0,
                          dt=0.005)
        assert len(run.pieces.t_a) == 2
        assert run.pieces.n_steps[1] == 3860

    def test_metric_formula(self):
        assert pf.csi_metric(0.1, 0.2, 0.5) == pytest.approx(0.25 - 0.02, abs=1e-15)

    def test_pair_result_validation(self):
        with pytest.raises(ValueError, match="negative"):
            pf.CrossPairResult(g_ii=-1e-3, g_ss=0.1, g_is=0.1)
        # G_is^2 of 1e200 overflows although every G is finite
        with pytest.raises(ValueError, match="v = inf is not finite"):
            pf.CrossPairResult(g_ii=1.0, g_ss=1.0, g_is=1e200)
        # v = G_is^2 - G_ii G_ss may pass 1 when more than one pair is emitted
        assert pf.CrossPairResult(0.1, 0.1, 2.0).v == pytest.approx(3.99, abs=1e-12)

    def test_v_above_one_from_reexcitation(self):
        # a 0.99-long pulse re-excites the ladder, so G_ii and G_is grow and
        # the converged V is about 1.019; the pair counts match the
        # nested oracle
        params = pf.MirrorQubitParams(levels=3, gamma01=1.0, gamma12=1.0,
                                      gamma02=0.05)
        res = pf.run_cascade(params, 5.0, dt=0.05)
        assert res.v > 1.0
        tw = pf.pi_pulse_width(5.0, 2.0 * params.gamma02)
        run = pf.simulate(params, pf.DriveSchedule(((0.0, tw, 5.0),)),
                          pf.PhaseSchedule.constant(0.0), 20.0, dt=0.05)
        a = {(x, y): oracles.nested_pair_count(run, x, y) for x, y in ORDERINGS}
        assert abs(res.g_ii - 2.0 * a["idler", "idler"]) < 1e-12
        assert abs(res.g_ss - 2.0 * a["signal", "signal"]) < 1e-12
        assert abs(res.g_is - a["idler", "signal"] - a["signal", "idler"]) < 1e-12
