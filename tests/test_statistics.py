"""Counting moments, probability inversion, and pair correlations."""

import logging
import math

import numpy as np
import pytest

import photonforge as pf
from photonforge.dynamics import _BLOCK

import oracles

PI = math.pi
RNG = np.random.default_rng(425)


def pulsed_run(dt=0.05, t_end=12.0):
    params = pf.MirrorQubitParams(gamma=0.5)
    drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
    return pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), t_end,
                       dt=dt)


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

    def test_second_moment_over_more_rows_than_a_block(self):
        # the chain builds its rows' last-step matrices _BLOCK rows at a
        # time; one-step ramp rows span several such blocks here
        n = 2 * _BLOCK + 10
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

    @pytest.mark.parametrize("cutoff", [2.5, 2.0, "2", None])
    def test_rejects_non_integer_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            pf.photon_mtiples(pulsed_run(t_end=2.0), cutoff=cutoff)

    def test_coarse_pulse_warns(self):
        params = pf.MirrorQubitParams(gamma=1.0)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 2.0)
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 2.0,
                          dt=0.1, min_pulse_steps=1)
        with pytest.warns(UserWarning, match="fewer than 20"):
            pf.photon_mtiples(run, cutoff=1)

    def test_window_must_sit_on_grid(self):
        run = pulsed_run(t_end=2.0)
        with pytest.raises(ValueError, match="does not lie on the simulation grid"):
            pf.photon_mtiples(run, window=(0.503, 2.0))

    def test_empty_window_rejected(self):
        run = pulsed_run(t_end=2.0)
        with pytest.raises(ValueError, match="empty counting window"):
            pf.photon_mtiples(run, window=(2.0, 2.0))

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
    def test_scenario_first_moment(self, kind, monkeypatch):
        # the scenario's own run, with its counting operators, reaches the
        # statistics layer through counting_statistics
        seen = []
        real = pf.scenarios.counting_statistics

        def spy(run, cutoff=3, window=None):
            seen.append(run)
            return real(run, cutoff=cutoff, window=window)

        monkeypatch.setattr(pf.scenarios, "counting_statistics", spy)
        stats = bench_job_stats(kind)
        run, = seen
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


ORDERINGS =[("signal", "idler"), ("idler", "signal"),
             ("signal", "signal"), ("idler", "idler")]


def assert_matches_nested(run):
    for a, b in ORDERINGS:
        got = pf.ordered_pair_count(run, a, b)
        want = oracles.nested_pair_count(run, a, b)
        assert abs(got - want) < 1e-12, (a, b, got, want)


@pytest.fixture(scope="module")
def coarse_run3():
    return cascade_run(dt=0.05)


@pytest.fixture(scope="module")
def run3():
    return cascade_run()


class TestPairIntegrals:
    def test_symmetrized_sum_of_orderings(self, run3):
        a_si = pf.ordered_pair_count(run3, "signal", "idler")
        a_is = pf.ordered_pair_count(run3, "idler", "signal")
        g = pf.cross_pair_integral(run3, "signal", "idler")
        assert abs(g - (a_si + a_is)) < 1e-12
        assert abs(pf.cross_pair_integral(run3, "idler", "signal") - g) < 1e-15

    def test_same_channel_counts_both_orderings(self, run3):
        a_ii = pf.ordered_pair_count(run3, "idler", "idler")
        assert abs(pf.cross_pair_integral(run3, "idler", "idler") - 2.0 * a_ii) < 1e-15

    @pytest.mark.parametrize("name", ["01", "s", "Signal"])
    def test_only_the_channel_names_are_known(self, run3, name):
        with pytest.raises(ValueError, match="unknown channel"):
            pf.ordered_pair_count(run3, name, "idler")
        with pytest.raises(ValueError, match="unknown channel"):
            pf.cross_pair_integral(run3, "idler", name)

    def test_unknown_channel_rejected(self, run3):
        with pytest.raises(ValueError, match="unknown channel"):
            pf.ordered_pair_count(run3, "signal", "telegraph")

    def test_two_level_run_rejected(self, stored_excitation_run):
        with pytest.raises(ValueError, match="three-level"):
            pf.ordered_pair_count(stored_excitation_run, "signal", "idler")

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
        slot = run.pieces.slot
        assert len(slot) == 4 and slot[0] == slot[2] != slot[1]
        assert_matches_nested(run)

    def test_rounded_grid_times_keep_pieces_whole(self):
        # the free decay is one row of 3,860 steps whatever the rounding
        # of its grid times
        params = pf.MirrorQubitParams(levels=3, gamma02=0.1)
        tw = pf.pi_pulse_width(5.0, 2.0 * params.gamma02)
        drive = pf.DriveSchedule(((0.0, tw, 5.0),))
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 20.0,
                          dt=0.005)
        assert len(run.pieces.slot) == 2
        assert run.pieces.n_steps[1] == 3860

    def test_metric_formula(self):
        assert pf.csi_metric(0.1, 0.2, 0.5) == pytest.approx(0.25 - 0.02, abs=1e-15)

    def test_pair_result_validation(self):
        with pytest.raises(ValueError, match="negative"):
            pf.CrossPairResult(g_ii=-1e-3, g_ss=0.1, g_is=0.1)
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
