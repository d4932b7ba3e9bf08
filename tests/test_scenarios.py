"""End-to-end source scenarios and parameter sweeps.

The numeric reference values in this file are frozen outputs of
independent oracle scripts run at the production grid (dt = 0.005);
tests assert the package reproduces them to 1e-9.
"""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest

import photonforge as pf
from photonforge import cli

PI = math.pi

SPLITTER_PINS = {
    5.0: dict(
        n_bare=(1.03352803234, 0.036028067659, 0.000187920699748),
        p=(0.0119119492291, 0.953139864408, 0.0347658332816, 0.000182353080974),
    ),
    10.0: dict(
        n_bare=(1.01815493003, 0.0188046808073, 4.97316684653e-05),
        p=(0.0103843056536, 0.971280812331, 0.018286623771, 4.82582439231e-05),
    ),
}

RELEASE_PINS = {
    5.0: dict(pexc=0.96964268282, p0=0.0303612547946, p1=0.969638745205),
    10.0: dict(pexc=0.985875834986, p0=0.0141281685498, p1=0.98587183145),
}

NR_PINS = {  # gamma_nr -> (P0, P1) at alpha0 = 10, r = 0.995
    0.0: (0.0103843056536, 0.971280812331),
    0.2: (0.172475447286, 0.81237612791),
    1.0: (0.497194027859, 0.494022679389),
}

WAIT_PINS = {  # t_wait -> (p_exc_at_release, P0, P1) at gamma_nr = 0.1
    0.0: (0.960164675861, 0.127120821812, 0.872879178188),
    1.0: (0.868792926195, 0.210186258151, 0.789813741849),
    3.0: (0.711307486732, 0.353355200345, 0.646644799655),
}

CASCADE_PIN = dict(g_ii=0.10276052117, g_ss=0.10275676228,
                   g_is=0.962568106001, v=0.915978020244)
CASCADE_V_STRONG_LEAK = 0.660160146333

GAUSSIAN_PIN = dict(clip=0.0578891244034, emitted=0.987603410877,
                    l2=0.00755767031736, p0=0.0123965891226, p1=0.987603410877)
EXP_PIN = dict(clip=6.13626142275e-06, emitted=0.985876552299,
               l2=3.00674026794e-06)
EXP_SLOW_PIN = dict(clip=0.000831841458534, emitted=0.985638728896,
                    l2=0.000790058841669)
GAMMA_MIN_PIN = 1.33619810482

ENCODE_PINS = {  # alpha_max = 10, gamma = 1, phi = 0.9 pi
    "ket1": dict(infid=0.0129237050928, delta=0.154508477509,
                 t_w=0.710025752306),
    "equal": dict(infid=0.000984623673306, t_w=0.355637877045),
    "skew": dict(infid=0.00227172079071),
}

CANCEL_DB_PIN = -27.9593792405


def qubit_half():
    return pf.MirrorQubitParams(gamma=0.5)


def qubit_unit():
    return pf.MirrorQubitParams(gamma=1.0)


def ladder():
    return pf.MirrorQubitParams(levels=3)


class TestBeamSplitterSource:
    @pytest.mark.parametrize("alpha0", [5.0, 10.0])
    def test_single_photon_probabilities(self, splitter_stats, alpha0):
        stats = splitter_stats[alpha0]
        for n, want in enumerate(SPLITTER_PINS[alpha0]["p"]):
            assert abs(stats.prob(n) - want) < 1e-9
        assert abs(sum(stats.probabilities) - 1.0) < 1e-9

    @pytest.mark.parametrize("alpha0", [5.0, 10.0])
    def test_moment_scaling_with_reflectivity(self, splitter_stats, alpha0):
        r = 0.995
        stats = splitter_stats[alpha0]
        for m, bare in enumerate(SPLITTER_PINS[alpha0]["n_bare"]):
            assert abs(stats.n_tiples[m] - bare * r ** (2 * (m + 1))) < 1e-9

    def test_perfect_reflectivity_matches_bare_statistics(self):
        params = qubit_half()
        config = pf.BeamSplitterConfig(r=1.0, alpha0=5.0, t_end=8.0, dt=0.01)
        via_splitter = pf.run_beam_splitter(params, config)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 8.0,
                          dt=0.01)
        bare = pf.counting_statistics(run, cutoff=3)
        for a, b in zip(via_splitter.n_tiples, bare.n_tiples):
            assert abs(a - b) < 1e-12
        for a, b in zip(via_splitter.probabilities, bare.probabilities):
            assert abs(a - b) < 1e-12

    def test_mismatch_leaves_residual_tone(self):
        params = qubit_half()
        clean = pf.run_beam_splitter(
            params, pf.BeamSplitterConfig(alpha0=10.0, t_end=8.0, dt=0.01))
        amp_off = pf.run_beam_splitter(
            params, pf.BeamSplitterConfig(alpha0=10.0, t_end=8.0, dt=0.01,
                                          amp_error=0.05))
        phase_off = pf.run_beam_splitter(
            params, pf.BeamSplitterConfig(alpha0=10.0, t_end=8.0, dt=0.01,
                                          phase_error=0.1))
        # the uncancelled drive interferes with the emission, so both
        # knobs move the counting statistics measurably off the clean case
        assert abs(amp_off.prob(1) - clean.prob(1)) > 1e-4
        assert abs(phase_off.prob(1) - clean.prob(1)) > 1e-4
        assert abs(amp_off.n_tiples[0] - clean.n_tiples[0]) > 1e-4

    def test_mismatch_statistics_independent_of_pulse_start(self):
        # the residual drive must switch off with the counting operator at
        # the pulse end; at t0 = 0 this cell's pulse-end grid time used to
        # round one ulp below t_w, where it kept the drive
        params = qubit_half()
        stats = [pf.run_beam_splitter(params, pf.BeamSplitterConfig(
                     alpha0=7.0, t0=t0, t_end=t0 + 8.0, amp_error=0.05))
                 for t0 in (0.0, 1.0)]
        for a, b in zip(*(s.probabilities for s in stats)):
            assert abs(a - b) < 1e-9

    def test_global_drive_phase_invariance(self):
        params = qubit_half()
        base = pf.run_beam_splitter(
            params, pf.BeamSplitterConfig(alpha0=5.0, t_end=8.0, dt=0.01))
        rotated = pf.run_beam_splitter(
            params, pf.BeamSplitterConfig(alpha0=5.0 * np.exp(0.7j),
                                          t_end=8.0, dt=0.01))
        for a, b in zip(base.n_tiples, rotated.n_tiples):
            assert abs(a - b) < 1e-9
        for a, b in zip(base.probabilities, rotated.probabilities):
            assert abs(a - b) < 1e-9

    def test_grid_refinement_stability(self, splitter_stats):
        fine = pf.run_beam_splitter(
            qubit_half(), pf.BeamSplitterConfig(alpha0=5.0, dt=0.0025))
        assert abs(fine.prob(1) - 0.953139844213) < 1e-9
        assert abs(fine.prob(1) - splitter_stats[5.0].prob(1)) < 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="reflectivity"):
            pf.BeamSplitterConfig(r=0.0)
        with pytest.raises(ValueError, match="reflectivity"):
            pf.BeamSplitterConfig(r=1.2)
        with pytest.raises(ValueError, match="alpha0"):
            pf.BeamSplitterConfig(alpha0=0.0)
        with pytest.raises(ValueError, match="t_end"):
            pf.BeamSplitterConfig(t_end=0.0, t0=1.0)

    @pytest.mark.parametrize("field", ["r", "alpha0", "t0", "t_end", "dt",
                                       "amp_error", "phase_error"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_config_rejects_non_finite_fields(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            pf.BeamSplitterConfig(**{field: bad})

    def test_three_level_rejected(self):
        with pytest.raises(ValueError, match="two-level"):
            pf.run_beam_splitter(ladder(), pf.BeamSplitterConfig())

    def test_far_detuned_drive_leaves_the_emitter_dark(self):
        # the drive-free steps are exact rotations at any finite detuning
        # (the stacked series overflowed on them here); the pulse, this far
        # off resonance, excites nothing
        stats = pf.run_beam_splitter(qubit_half().with_(delta=1e308), pf.BeamSplitterConfig())
        assert np.max(np.abs(np.subtract(stats.probabilities, (1.0, 0.0, 0.0, 0.0)))) <= 1e-12
        assert np.max(np.abs(stats.n_tiples)) <= 1e-12


class TestShapedRelease:
    @pytest.mark.parametrize("alpha0", [5.0, 10.0])
    def test_release_probabilities(self, release_results, alpha0):
        res = release_results[alpha0]
        pins = RELEASE_PINS[alpha0]
        assert abs(res.stats.prob(0) - pins["p0"]) < 1e-9
        assert abs(res.stats.prob(1) - pins["p1"]) < 1e-9
        assert abs(res.stats.prob(0) + res.stats.prob(1) - 1.0) < 1e-9

    @pytest.mark.parametrize("alpha0", [5.0, 10.0])
    def test_stored_fraction_at_release(self, release_results, alpha0):
        res = release_results[alpha0]
        assert abs(res.p_exc_at_release - RELEASE_PINS[alpha0]["pexc"]) < 1e-9

    def test_emission_timeline(self, release_results):
        res = release_results[10.0]
        t = res.times
        pre = res.flux[t < 1.7]
        dark = res.flux[(t > 2.0) & (t < 7.9)]
        post = res.flux[t >= 8.0]
        assert 1e-4 < pre.max() < 0.1
        assert dark.max() < 1e-12
        assert post.max() > 0.5
        assert np.all(res.phase[t < 1.0] == 0.9 * PI)
        assert np.all(res.phase[(t > 2.0) & (t < 7.9)] == PI)
        assert np.all(res.phase[t >= 8.0] == PI / 2.0)

    def test_one_excitation_has_no_pair_moments(self, release_results):
        # the dark store holds at most one excitation, and the real
        # coordinates keep the structural zeros of N_2 and N_3 exact
        assert release_results[5.0].stats.n_tiples[1:] == (0.0, 0.0)

    def test_emitted_fraction_equals_first_moment(self, release_results):
        for res in release_results.values():
            assert abs(res.emitted_fraction - res.stats.n_tiples[0]) < 1e-9

    def test_preparation_overrun_rejected(self):
        with pytest.raises(ValueError, match="after the release time"):
            pf.run_shaped_release(qubit_unit(), alpha0=5.0, t_r=1.2)

    @pytest.mark.parametrize("packet", [False, True])
    def test_storage_after_release_names_both_times(self, packet):
        # a release 5e-13 early used to slip past a 1e-12 allowance and
        # fail naming neither time; a packet release is shaped first
        t_store = 1.0 + pf.pi_pulse_width(5.0, pf.effective_coupling(1.0, 0.9 * PI))
        t_r = t_store - (1.2 if packet else 5e-13)
        release = pf.WavePacket.exponential(1.0, t_r) if packet else PI / 2
        with pytest.raises(ValueError) as err:
            pf.run_shaped_release(qubit_unit(), alpha0=5.0, t_r=t_r, release=release)
        assert str(err.value) == (
            f"storage point {t_store!r} falls after the release time {t_r!r}")

    def test_three_level_rejected(self):
        with pytest.raises(ValueError, match="two-level"):
            pf.run_shaped_release(ladder())

    @pytest.mark.parametrize("t_end", [8.0, 5.0, math.nan])
    def test_window_must_end_after_release(self, t_end):
        # used to fail in counting: "window start 8.0 does not lie on the
        # simulation grid"
        with pytest.raises(ValueError, match="must exceed the release time"):
            pf.run_shaped_release(qubit_unit(), t_r=8.0, t_end=t_end)

    def test_rejects_non_finite_drive(self):
        with pytest.raises(ValueError, match="alpha0 and gamma_eff must be positive and finite"):
            pf.run_shaped_release(qubit_unit(), alpha0=math.nan)

    def test_rejects_non_finite_start(self):
        # used to fail as "phase segment has nonpositive duration"
        with pytest.raises(ValueError, match="t0 must be finite"):
            pf.run_shaped_release(qubit_unit(), t0=math.nan)


class TestPacketRelease:
    def test_gaussian_packet(self):
        packet = pf.WavePacket.gaussian(12.0, 1.0, t_start=8.0)
        res = pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=packet,
                                    clip_budget=0.1)
        assert abs(res.clip_fraction - GAUSSIAN_PIN["clip"]) < 1e-9
        assert abs(res.emitted_fraction - GAUSSIAN_PIN["emitted"]) < 1e-9
        assert abs(res.flux_match_l2 - GAUSSIAN_PIN["l2"]) < 1e-9
        assert abs(res.stats.prob(0) - GAUSSIAN_PIN["p0"]) < 1e-9
        assert abs(res.stats.prob(1) - GAUSSIAN_PIN["p1"]) < 1e-9
        assert res.flux_match_l2 < 0.03
        assert abs(res.stats.window[1] - 16.0) < 1e-6

    def test_exponential_packet(self):
        packet = pf.WavePacket.exponential(1.0, 8.0)
        res = pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=packet)
        assert abs(res.clip_fraction - EXP_PIN["clip"]) < 1e-9
        assert abs(res.emitted_fraction - EXP_PIN["emitted"]) < 1e-9
        assert abs(res.flux_match_l2 - EXP_PIN["l2"]) < 1e-9
        assert res.flux_match_l2 < 0.01

    def test_slow_exponential_packet(self):
        packet = pf.WavePacket.exponential(0.5, 8.0, duration=12.0)
        res = pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=packet)
        assert abs(res.clip_fraction - EXP_SLOW_PIN["clip"]) < 1e-9
        assert abs(res.emitted_fraction - EXP_SLOW_PIN["emitted"]) < 1e-9
        assert abs(res.flux_match_l2 - EXP_SLOW_PIN["l2"]) < 1e-9
        assert res.flux_match_l2 < 0.01

    def test_gaussian_needs_coupling_headroom(self):
        packet = pf.WavePacket.gaussian(12.0, 1.0, t_start=8.0)
        with pytest.raises(ValueError, match="1.336"):
            pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=packet)

    def test_packet_alignment_enforced(self):
        packet = pf.WavePacket.gaussian(12.0, 1.0, t_start=7.0)
        with pytest.raises(ValueError, match="rebuild it on the release window"):
            pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=packet,
                                  clip_budget=0.1)

    def test_packet_starting_just_after_release_time(self):
        # within the 1e-9 alignment tolerance; [t_r, start) is covered by
        # the release phase
        late = pf.WavePacket.exponential(1.0, 8.0 + 5e-10)
        aligned = pf.WavePacket.exponential(1.0, 8.0)
        a, b = (pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=packet)
                for packet in (late, aligned))
        for x, y in zip(a.stats.probabilities, b.stats.probabilities):
            assert abs(x - y) < 1e-9

    def test_packet_tail_clipping_warns(self):
        packet = pf.WavePacket.exponential(1.0, 8.0, duration=4.0)
        with pytest.warns(UserWarning, match="clipped"):
            pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=packet,
                                  t_end=10.0, clip_budget=0.05)


class TestWavePacket:
    def test_normalized_on_construction(self):
        packet = pf.WavePacket.gaussian(12.0, 1.0, t_start=8.0)
        assert abs(np.trapezoid(np.abs(packet.xi) ** 2, packet.grid) - 1.0) < 1e-12
        assert packet.start == 8.0
        assert abs(packet.end - 16.0) < 1e-9

    def test_exponential_default_duration(self):
        packet = pf.WavePacket.exponential(0.5, 3.0)
        assert abs(packet.end - (3.0 + 24.0)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="holds 2 grid points, fewer than 3"):
            pf.WavePacket(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="matching 1d"):
            pf.WavePacket(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]))
        # short and mismatched: the shape check comes first
        with pytest.raises(ValueError, match="matching 1d grid and amplitude arrays"):
            pf.WavePacket(np.array([0.0, 1.0]), np.ones(1))
        with pytest.raises(ValueError, match="increasing"):
            pf.WavePacket(np.array([0.0, 2.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError, match="no power"):
            pf.WavePacket(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        with pytest.raises(ValueError, match="kappa"):
            pf.WavePacket.exponential(0.0, 1.0)
        with pytest.raises(ValueError, match="width"):
            pf.WavePacket.gaussian(1.0, 0.0)

    def test_constructors_reject_non_finite_input(self):
        # NaN used to fail as "packet has no power" or inside numpy with
        # "arange: cannot compute length"
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            pf.WavePacket.exponential(math.nan, 1.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            pf.WavePacket.exponential(1.0, 1.0, dt=math.nan)
        with pytest.raises(ValueError, match="width must be positive and finite"):
            pf.WavePacket.gaussian(1.0, math.nan)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            pf.WavePacket.gaussian(1.0, 1.0, dt=math.nan)

    @pytest.mark.parametrize("make", [
        lambda: pf.WavePacket.gaussian(5.0, 1.0, t_start=20.0),
        lambda: pf.WavePacket.gaussian(5.0, 1.0, t_start=8.995),
        lambda: pf.WavePacket.exponential(1.0, 0.0, duration=0.005),
    ])
    def test_short_support_names_its_grid_points(self, make):
        # these used to blame the arrays ("matching 1d grid") instead of
        # the support, which ends before a third grid point
        with pytest.raises(ValueError, match="fewer than 3"):
            make()

    @pytest.mark.parametrize("kwargs, match", [
        ({"t_start": math.nan}, "t_start must be finite"),
        ({"t_start": math.inf}, "t_start must be finite"),
        ({"duration": math.nan}, "duration must be positive and finite"),
        ({"duration": -1.0}, "duration must be positive and finite"),
        ({"duration": 0.0}, "duration must be positive and finite"),
    ])
    def test_exponential_rejects_bad_span(self, kwargs, match):
        # these used to fail inside numpy ("arange: cannot compute
        # length") or on the grid ("matching 1d grid")
        with pytest.raises(ValueError, match=match):
            pf.WavePacket.exponential(1.0, **{"t_start": 0.0, **kwargs})

    @pytest.mark.parametrize("kwargs, match", [
        ({"center": math.nan}, "center must be finite"),
        ({"t_start": math.nan}, "t_start must be finite"),
        ({"t_start": -math.inf}, "t_start must be finite"),
    ])
    def test_gaussian_rejects_bad_span(self, kwargs, match):
        # these used to fail inside numpy, with "arange: cannot compute
        # length" or, for t_start = -inf, "Maximum allowed size exceeded"
        with pytest.raises(ValueError, match=match):
            pf.WavePacket.gaussian(**{"center": 5.0, "width": 1.0, **kwargs})

    def test_minimal_sufficient_gamma(self):
        packet = pf.WavePacket.gaussian(12.0, 1.0, t_start=8.0)
        assert abs(pf.minimal_sufficient_gamma(packet, 0.01) - GAMMA_MIN_PIN) < 1e-9

    def test_minimal_sufficient_gamma_is_the_clipping_threshold(self):
        # the packet mass is weighed with the grid trapezoid that
        # shape_to_schedule clips with, so the answer is the smallest rate
        # that passes
        packet = pf.WavePacket.exponential(0.3, 8.0, duration=12.0, dt=0.02)
        g = pf.minimal_sufficient_gamma(packet, 0.01)
        pf.shape_to_schedule(packet, g, 0.01)
        with pytest.raises(ValueError, match="would suffice"):
            pf.shape_to_schedule(packet, g * (1.0 - 1e-9), 0.01)

    def test_zero_budget_names_no_finite_rate(self):
        # the tail integral at the last point is 0, so the rate needed
        # there is infinite: no gamma releases the packet unclipped
        packet = pf.WavePacket.exponential(1.0, 0.0)
        assert pf.minimal_sufficient_gamma(packet, 0.0) == math.inf
        with pytest.raises(ValueError, match="no finite line rate keeps the clipped mass"):
            pf.shape_to_schedule(packet, 1.0, clip_budget=0.0)
        # the clipped mass is 6.1e-6, which a percentage printed as 0.00%
        with pytest.raises(ValueError, match=r"over 6\.14e-06 of its norm \(budget 0\)"):
            pf.shape_to_schedule(packet, 1.0, clip_budget=0.0)

    def test_shape_to_schedule_geometry(self):
        packet = pf.WavePacket.exponential(1.0, 8.0)
        sched = pf.shape_to_schedule(packet, 1.0)
        assert abs(sched.clip_fraction - EXP_PIN["clip"]) < 1e-9
        assert sched.phi_at(7.0) == PI
        assert 0.0 <= sched.phi_at(9.0) < PI
        times, values = sched.ramp
        assert times[0] == 8.0 and abs(times[-1] - 20.0) < 1e-9
        assert np.all((values >= 0.0) & (values <= PI))

    def test_shape_to_schedule_needs_positive_gamma(self):
        packet = pf.WavePacket.exponential(1.0, 8.0)
        with pytest.raises(ValueError, match="gamma"):
            pf.shape_to_schedule(packet, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_shape_to_schedule_rejects_non_finite_gamma(self, bad):
        packet = pf.WavePacket.exponential(1.0, 8.0)
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            pf.shape_to_schedule(packet, bad)

    @pytest.mark.parametrize("budget", [math.nan, -1.0, 1.0, math.inf])
    def test_clip_budget_must_lie_in_unit_interval(self, budget):
        # a NaN budget used to pass a schedule clipping 5.79% of the packet
        packet = pf.WavePacket.gaussian(12.0, 1.0, t_start=8.0)
        with pytest.raises(ValueError, match=r"clip_budget must lie in \[0, 1\)"):
            pf.shape_to_schedule(packet, 1.0, budget)
        with pytest.raises(ValueError, match=r"clip_budget must lie in \[0, 1\)"):
            pf.minimal_sufficient_gamma(packet, budget)


class TestCascade:
    def test_pair_metrics(self):
        res = pf.run_cascade(ladder(), 5.0)
        assert abs(res.g_ii - CASCADE_PIN["g_ii"]) < 1e-9
        assert abs(res.g_ss - CASCADE_PIN["g_ss"]) < 1e-9
        assert abs(res.g_is - CASCADE_PIN["g_is"]) < 1e-9
        assert abs(res.v - CASCADE_PIN["v"]) < 1e-9
        assert res.v > 0

    def test_stronger_direct_leak_degrades_pairs(self):
        res = pf.run_cascade(ladder().with_(gamma02=0.5), 5.0)
        assert abs(res.v - CASCADE_V_STRONG_LEAK) < 1e-9
        assert res.v < CASCADE_PIN["v"]

    def test_zero_drive_gives_empty_output(self):
        res = pf.run_cascade(ladder(), 0.0)
        assert res.g_ii == res.g_ss == res.g_is == res.v == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pf.run_cascade(ladder(), -1.0)
        with pytest.raises(ValueError, match="levels=3"):
            pf.run_cascade(qubit_unit(), 5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_drive(self, bad):
        # NaN used to fail as "segment ... has nonpositive duration"
        with pytest.raises(ValueError, match="alpha_d must be finite"):
            pf.run_cascade(ladder(), bad)

    def test_sweep_rows_in_grid_order(self):
        out = pf.sweep_cascade(ladder(), (4.0, 5.0), (0.1, 0.3), t_end=6.0,
                               dt=0.05)
        assert [(a, g) for a, g, _ in out] == [(4.0, 0.1), (4.0, 0.3),
                                               (5.0, 0.1), (5.0, 0.3)]

    def test_sweep_rows_equal_single_cell_runs(self):
        alphas, gammas = (4.0, 5.0), (0.1, 0.3)
        out = pf.sweep_cascade(ladder(), alphas, gammas, t_end=6.0, dt=0.05)
        cells = [(a, g) for a in alphas for g in gammas]
        assert [(a, g) for a, g, _ in out] == cells
        for (a, g), (_, _, res) in zip(cells, out):
            assert res == pf.run_cascade(ladder().with_(gamma02=g), a,
                                         t_end=6.0, dt=0.05)

    def test_sweep_cells_of_one_and_two_rows(self):
        # alpha_d = 0.4 at gamma02 = 0.05 is a pulse 12.4 long, past
        # t_end = 6, so that cell's table is one row beside two-row cells
        alphas, gammas = (0.4, 4.0), (0.05, 0.3)
        rows = {}
        for a in alphas:
            for g in gammas:
                drive = pf.DriveSchedule.square_pi_pulse(a, 0.0, 2.0 * g)
                run = pf.simulate(ladder().with_(gamma02=g), drive,
                                  pf.PhaseSchedule.constant(0.0), 6.0, dt=0.05)
                rows[a, g] = len(run.pieces.slot)
        assert rows == {(0.4, 0.05): 1, (0.4, 0.3): 2, (4.0, 0.05): 2, (4.0, 0.3): 2}
        with mock.patch.object(pf.scenarios, "_simulate",
                               wraps=pf.scenarios._simulate) as stack:
            out = pf.sweep_cascade(ladder(), alphas, gammas, t_end=6.0, dt=0.05)
        assert stack.call_count == 1  # every cell compiled in one stack
        for a, g, res in out:
            assert res == pf.run_cascade(ladder().with_(gamma02=g), a, t_end=6.0, dt=0.05)
            assert res.g_ii > 0

    def test_sweep_undriven_cell_among_driven_ones(self):
        out = pf.sweep_cascade(ladder(), (5.0, 0.0, 4.0), (0.1, 0.3), t_end=6.0, dt=0.05)
        for a, g, res in out:
            assert res == pf.run_cascade(ladder().with_(gamma02=g), a, t_end=6.0, dt=0.05)
            assert (res == pf.CrossPairResult(0.0, 0.0, 0.0)) == (a == 0.0)

    def test_zero_gamma02_rejects_a_drive(self):
        # it used to fail inside pi_pulse_width on alpha0 and gamma_eff
        with pytest.raises(ValueError, match=r"^gamma02 must be positive to drive the "
                                             r"0-2 line at alpha_d = 5.0, got 0.0$"):
            pf.run_cascade(ladder().with_(gamma02=0.0), 5.0)
        res = pf.run_cascade(ladder().with_(gamma02=0.0), 0.0)
        assert res == pf.CrossPairResult(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("alphas, gammas, message", [
        ((4.0, 5.0), (0.1, 0.0), "gamma02 must be positive"),
        ((4.0, -1.0), (0.1,), "alpha_d must be finite and nonnegative"),
        ((4.0, 5.0), (0.1, math.nan), "gamma02 must be finite and nonnegative"),
    ], ids=["zero_gamma02", "negative_alpha_d", "nan_gamma02"])
    def test_sweep_checks_every_cell_before_any_runs(self, alphas, gammas, message):
        with mock.patch.object(pf.scenarios, "_simulate") as run:
            with pytest.raises(ValueError, match=message):
                pf.sweep_cascade(ladder(), alphas, gammas, t_end=6.0, dt=0.05)
        run.assert_not_called()


class TestMarchOnRead:
    """A scenario marches the grid states only when it reads them: counting
    from the run's start and the pair chain read its first state alone.
    Nor does it build the grid times to resolve a window or a time."""

    @pytest.mark.parametrize("scenario, marches", [
        (lambda: pf.run_cascade(ladder(), 8.0), 0),
        (lambda: pf.sweep_cascade(ladder(), (0.0, 5.0, 8.0), (0.1, 0.35)), 0),
        (lambda: pf.run_beam_splitter(qubit_half(), pf.BeamSplitterConfig(alpha0=5.0)), 0),
        (lambda: pf.run_shaped_release(qubit_unit(), alpha0=5.0), 1),
        (lambda: pf.run_shaped_release(qubit_unit(), alpha0=10.0,
                                       release=pf.WavePacket.exponential(1.0, 8.0)), 1),
    ], ids=["cascade", "cascade_sweep", "beam_splitter", "release", "packet_release"])
    def test_march_count(self, scenario, marches):
        with mock.patch.object(pf.dynamics, "_march_table",
                               wraps=pf.dynamics._march_table) as march:
            scenario()
        assert march.call_count == marches

    @pytest.mark.parametrize("read, builds", [
        (lambda run: run.times, 1),
        (lambda run: pf.counting_statistics(run), 0),
        (lambda run: pf.counting_statistics(run, window=(run.drive.segments[0][1], 6.0)), 0),
        (lambda run: pf.correlator_gm(run, (run.drive.segments[0][1], 6.0)), 0),
        (lambda run: pf.run_beam_splitter(qubit_half(), pf.BeamSplitterConfig(alpha0=5.0)), 0),
    ], ids=["times", "counting", "counting_window", "correlator", "beam_splitter"])
    def test_times_count(self, read, builds, monkeypatch):
        # windows and correlator times resolve on the piece table, which
        # never builds the grid `ScenarioRun.times`
        run = pf.simulate(qubit_half(), pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0),
                          pf.PhaseSchedule.constant(0.0), 6.0)
        real, built = pf.ScenarioRun.times, []
        monkeypatch.setattr(pf.ScenarioRun, "times",
                            property(lambda r: built.append(r) or real.func(r)))
        read(run)
        assert len(built) == builds

    @pytest.mark.parametrize("release", [PI / 2, pf.WavePacket.exponential(1.0, 8.0)],
                             ids=["release", "packet_release"])
    def test_release_resolves_its_window_once(self, release):
        # one lookup per window end serves the chain, p_exc_at_release and
        # the flux match
        real = pf.dynamics.PieceTable.index
        with mock.patch.object(pf.dynamics.PieceTable, "index", autospec=True,
                               side_effect=real) as index:
            pf.run_shaped_release(qubit_unit(), alpha0=10.0, release=release)
        assert index.call_count == 2


class TestLossAndWaitSweeps:
    def test_nonradiative_survival(self):
        out = pf.sweep_nonradiative(qubit_half(), 10.0, 0.995,
                                    tuple(NR_PINS))
        p1_values = []
        for gnr, stats in out:
            want_p0, want_p1 = NR_PINS[gnr]
            assert abs(stats.prob(0) - want_p0) < 1e-9
            assert abs(stats.prob(1) - want_p1) < 1e-9
            p1_values.append(stats.prob(1))
        assert all(a > b for a, b in zip(p1_values, p1_values[1:]))

    def test_wait_time_decay(self):
        out = pf.sweep_wait_time(qubit_unit(), 10.0, 0.1, PI / 2.0,
                                 tuple(WAIT_PINS))
        p1_values = []
        for t_wait, res in out:
            want_pexc, want_p0, want_p1 = WAIT_PINS[t_wait]
            assert abs(res.p_exc_at_release - want_pexc) < 1e-9
            assert abs(res.stats.prob(0) - want_p0) < 1e-9
            assert abs(res.stats.prob(1) - want_p1) < 1e-9
            p1_values.append(res.stats.prob(1))
        assert all(a > b for a, b in zip(p1_values, p1_values[1:]))


def same(a, b) -> bool:
    """Every field of two results equal under np.array_equal, a nested
    result field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    return np.array_equal(a, b)


def in_one_stack(run):
    """run()'s result, after checking that it compiled once and chained once."""
    with mock.patch.object(pf.dynamics, "_compile", wraps=pf.dynamics._compile) as compiles, \
            mock.patch.object(pf.statistics, "_chain", wraps=pf.statistics._chain) as chains:
        out = run()
    assert (compiles.call_count, chains.call_count) == (1, 1)
    return out


def raises_before_any_run(run, match):
    with mock.patch.object(pf.scenarios, "_simulate") as simulate:
        with pytest.raises(ValueError, match=match):
            run()
    simulate.assert_not_called()


class TestScenarioStacks:
    """Every sweep and command-line list runs its cells as one stack: one
    compile and one chain, every cell checked before any runs, and each
    row equal on every field to its one-cell run."""

    def test_nonradiative_sweep(self):
        values = (0.0, 0.1, 0.2, 0.5, 1.0)
        rows = in_one_stack(lambda: pf.sweep_nonradiative(qubit_half(), 10.0, 0.995, values))
        assert [g for g, _ in rows] == list(values)
        for g, stats in rows:
            config = pf.BeamSplitterConfig(alpha0=10.0, r=0.995)
            assert same(stats, pf.run_beam_splitter(qubit_half().with_(gamma_nr=g), config))
        raises_before_any_run(
            lambda: pf.sweep_nonradiative(qubit_half(), 10.0, 0.995, values + (-1.0,)),
            "gamma_nr must be finite and nonnegative")

    def test_wait_sweep(self):
        values = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)
        rows = in_one_stack(lambda: pf.sweep_wait_time(qubit_unit(), 10.0, 0.1, PI / 2, values))
        assert [t for t, _ in rows] == list(values)
        geff = pf.effective_coupling(1.0, 0.9 * PI)
        t_store = pf.DriveSchedule.square_pi_pulse(10.0, 1.0, geff).segments[0][1]
        for t, res in rows:
            assert same(res, pf.run_shaped_release(
                qubit_unit().with_(gamma_nr=0.1), alpha0=10.0, t_r=t_store + t,
                t_end=t_store + t + 20.0, release=PI / 2))
        raises_before_any_run(
            lambda: pf.sweep_wait_time(qubit_unit(), 10.0, 0.1, PI / 2, values + (-1.0,)),
            "falls after the release time")

    @pytest.mark.parametrize("lines, one, message", [
        (["scenario = beam_splitter", "amp_error = 0.02"],
         lambda a: pf.run_beam_splitter(qubit_half(),
                                        pf.BeamSplitterConfig(alpha0=a, amp_error=0.02)),
         "alpha0 must be nonzero"),
        (["scenario = shaped_release"],
         lambda a: pf.run_shaped_release(qubit_unit(), alpha0=a),
         "alpha0 and gamma_eff must be positive"),
        (["scenario = shaped_release", "packet = gaussian"],
         lambda a: pf.run_shaped_release(qubit_unit(), alpha0=a,
                                         release=pf.WavePacket.gaussian(12.0, 1.5, t_start=8.0)),
         "alpha0 and gamma_eff must be positive"),
    ], ids=["beam_splitter", "release", "packet_release"])
    def test_command_line_list(self, lines, one, message):
        config = cli.parse_config("\n".join(lines + ["alpha0 = 5.0, 10.0"]))
        runner = cli.SCENARIOS[config.scenario].runner
        name = "_beam_splitter" if config.scenario == "beam_splitter" else "_release"
        real, stacks = getattr(cli, name), []

        def spy(*args, **kwargs):
            stacks.append(real(*args, **kwargs))
            return stacks[-1]

        with mock.patch.object(cli, name, spy):
            _, rows = in_one_stack(lambda: runner(config.values))
        results, = stacks
        for a, row, res in zip((5.0, 10.0), rows, results):
            assert same(res, one(a))
            assert row == (a,) + getattr(res, "stats", res).probabilities
        raises_before_any_run(lambda: runner(dict(config.values, alpha0=(5.0, 0.0))), message)

    def test_empty_sweeps_stay_empty(self):
        with mock.patch.object(pf.scenarios, "_simulate") as simulate:
            assert pf.sweep_nonradiative(qubit_half(), 10.0, 0.995, []) == []
            assert pf.sweep_wait_time(qubit_unit(), 10.0, 0.1, PI / 2, []) == []
        simulate.assert_not_called()

    @pytest.mark.parametrize("alphas, warns", [((5.0, 0.5), 1), ((5.0, 10.0), 0)],
                             ids=["one_coarse_cell", "no_coarse_cell"])
    def test_a_coarse_cell_warns_for_its_stack(self, alphas, warns):
        # at t_end = 2 the alpha0 = 0.5 pulse, 3.14 long, is cut to 13
        # steps of 0.157, 14 grid points
        cells = [(qubit_half(), pf.BeamSplitterConfig(alpha0=a, t_end=2.0, dt=0.2))
                 for a in alphas]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            pf.scenarios._beam_splitter(cells, 3)
        assert [(w.filename, str(w.message)) for w in seen] == [
            (__file__, "a drive pulse spans fewer than 20 grid points; refine dt "
                       "before trusting these moments")] * warns


class TestFlyingQubitEncoding:
    def test_trivial_vacuum_target(self):
        res = pf.encode_flying_qubit(pf.FlyingQubitTarget(1.0, 0.0),
                                     qubit_unit())
        assert res.fidelity == 1.0
        assert res.t_w == 0.0
        assert res.schedule.segments == ()

    def test_reference_targets(self):
        params = qubit_unit()
        ket1 = pf.encode_flying_qubit(pf.FlyingQubitTarget(0.0, 1.0), params)
        assert abs((1.0 - ket1.fidelity) - ENCODE_PINS["ket1"]["infid"]) < 1e-8
        assert abs(ket1.delta - ENCODE_PINS["ket1"]["delta"]) < 1e-6
        assert abs(ket1.t_w - ENCODE_PINS["ket1"]["t_w"]) < 1e-6

        s = 1.0 / math.sqrt(2.0)
        equal = pf.encode_flying_qubit(pf.FlyingQubitTarget(s, s), params)
        assert abs((1.0 - equal.fidelity) - ENCODE_PINS["equal"]["infid"]) < 1e-8
        assert abs(equal.t_w - ENCODE_PINS["equal"]["t_w"]) < 1e-6

        skew = pf.encode_flying_qubit(
            pf.FlyingQubitTarget(1.0 / math.sqrt(3.0),
                                 math.sqrt(2.0 / 3.0) * np.exp(1j * PI / 4.0)),
            params)
        assert abs((1.0 - skew.fidelity) - ENCODE_PINS["skew"]["infid"]) < 1e-8

    def test_large_amplitude_budget_reaches_contract(self):
        params = qubit_unit()
        targets = [
            pf.FlyingQubitTarget(0.0, 1.0),
            pf.FlyingQubitTarget(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
            pf.FlyingQubitTarget(1.0 / math.sqrt(3.0),
                                 math.sqrt(2.0 / 3.0) * np.exp(1j * PI / 4.0)),
        ]
        for target in targets:
            res = pf.encode_flying_qubit(target, params, alpha_max=2000.0)
            assert 1.0 - res.fidelity <= 1e-4

    @pytest.mark.parametrize("x", [(0.1, 7.0, 0.4, 0.3), (-0.5, 3.0, -2.0, 0.6),
                                   (0.8, 9.5, 2.7, 0.15)])
    def test_objective_gradient_matches_central_differences(self, x):
        params = pf.MirrorQubitParams(gamma=1.0, gamma_nr=0.1)
        psi = np.array([1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0) * np.exp(1j * PI / 4.0)])
        objective = pf.scenarios._encode_objective(params, 0.9 * PI, psi)
        x = np.array(x)
        infid, grad, rho = objective(x)
        h = 1e-5
        fd = [(objective(x + h * e)[0] - objective(x - h * e)[0]) / (2.0 * h)
              for e in np.eye(4)]
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=0.0)
        lv = pf.build_liouvillian(params.with_(delta=x[0]), 0.9 * PI,
                                  x[1] * np.exp(1j * x[2]))
        want = pf.unvec(pf.sup_exp(lv, x[3]).mat[:, 0], 2)
        assert np.max(np.abs(pf.unvec(rho, 2) - want)) < 1e-13
        assert abs(infid - (1.0 - (psi.conj() @ want @ psi).real)) < 1e-13

    def test_anharmonicity_guard_boundary(self):
        params = qubit_unit()
        target = pf.FlyingQubitTarget(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        clean = pf.encode_flying_qubit(target, params)
        rabi = 2.0 * abs(clean.alpha) * math.sqrt(
            pf.effective_coupling(1.0, 0.9 * PI))
        with pytest.warns(UserWarning, match="anharmonicity"):
            pf.encode_flying_qubit(target, params, anharmonicity=rabi * 0.999)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pf.encode_flying_qubit(target, params, anharmonicity=rabi * 1.001)

    def test_target_validation(self):
        with pytest.raises(ValueError, match="norm"):
            pf.FlyingQubitTarget(1.0, 1.0)
        t = pf.FlyingQubitTarget.of(3.0, 4.0)
        assert abs(t.mu - 0.6) < 1e-12 and abs(t.nu - 0.8) < 1e-12
        with pytest.raises(ValueError, match="zero"):
            pf.FlyingQubitTarget.of(0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_target_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pf.FlyingQubitTarget(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            pf.FlyingQubitTarget.of(bad, 1.0)

    def test_rejects_unworkable_setups(self):
        target = pf.FlyingQubitTarget(0.0, 1.0)
        with pytest.raises(ValueError, match="decouples"):
            pf.encode_flying_qubit(target, qubit_unit(), phi=PI)
        with pytest.raises(ValueError, match="alpha_max"):
            pf.encode_flying_qubit(target, qubit_unit(), alpha_max=0.0)
        with pytest.raises(ValueError, match="seeds must be an integer of at least 1"):
            pf.encode_flying_qubit(target, qubit_unit(), seeds=0)
        with pytest.raises(ValueError, match="seeds"):
            pf.encode_flying_qubit(target, qubit_unit(), seeds=2.5)
        with pytest.raises(ValueError, match="two-level"):
            pf.encode_flying_qubit(target, ladder())

    def test_rejects_bool_seeds(self):
        # True used to run silently as one seed
        with pytest.raises(ValueError,
                           match=r"^seeds must be an integer of at least 1, got True$"):
            pf.encode_flying_qubit(pf.FlyingQubitTarget(0.0, 1.0), qubit_unit(), seeds=True)

    def test_numpy_integer_seeds(self):
        target = pf.FlyingQubitTarget.of(1.0, 1.0)
        want = pf.encode_flying_qubit(target, qubit_unit(), seeds=2)
        got = pf.encode_flying_qubit(target, qubit_unit(), seeds=np.int64(2))
        assert (got.delta, got.alpha, got.t_w, got.fidelity) == (
            want.delta, want.alpha, want.t_w, want.fidelity)

    def test_rejects_non_finite_inputs(self):
        # a NaN phi used to fail as "delta must be finite"
        target = pf.FlyingQubitTarget(0.0, 1.0)
        with pytest.raises(ValueError, match="alpha_max must be positive and finite"):
            pf.encode_flying_qubit(target, qubit_unit(), alpha_max=math.nan)
        with pytest.raises(ValueError, match="phi must be finite"):
            pf.encode_flying_qubit(target, qubit_unit(), phi=math.nan)


class TestCancellationBudget:
    def test_static_phase_error(self):
        out = pf.cancellation_budget(
            pf.CancellationInputs(a1=1.0, a2=1.0, phi2=PI + 0.04))
        assert abs(out.residual_db - CANCEL_DB_PIN) < 1e-9
        assert abs(out.residual_ratio - 2.0 * math.sin(0.02)) < 1e-12
        assert not out.beat

    def test_matched_pair_cancels_below_noise(self):
        out = pf.cancellation_budget(pf.CancellationInputs.matched())
        assert out.residual_ratio < 1e-15
        assert out.residual_db < -300.0

    def test_matched_pair_with_unequal_transmissions(self):
        inputs = pf.CancellationInputs.matched(tau1=0.7, tau2=0.9, phi=0.4,
                                               n=2)
        out = pf.cancellation_budget(inputs)
        assert out.residual_ratio < 1e-12

    def test_detuned_paths_beat(self):
        out = pf.cancellation_budget(
            pf.CancellationInputs(a1=1.0, a2=1.0, omega2=0.3))
        assert out.beat
        assert abs(out.residual_ratio - 2.0) < 1e-12
        assert abs(out.residual_db - 20.0 * math.log10(2.0)) < 1e-9

    def test_silent_second_path(self):
        out = pf.cancellation_budget(pf.CancellationInputs(a1=1.0, a2=0.0))
        assert out.residual_ratio == 1.0
        assert out.residual_db == 0.0

    def test_rejects_blocked_reference_path(self):
        # the residual is relative to path 1: a blocked path 1 has none
        with pytest.raises(ValueError, match="tau1"):
            pf.CancellationInputs(a1=1.0, a2=1.0, tau1=0.0)

    @pytest.mark.parametrize("field", ["a1", "a2", "phi1", "phi2", "omega1",
                                       "omega2", "phi", "tau1", "tau2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        # a NaN phase or amplitude used to read as perfect cancellation
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            pf.CancellationInputs(**{"a1": 1.0, "a2": 1.0, field: bad})

    def test_validation(self):
        with pytest.raises(ValueError, match="a1"):
            pf.CancellationInputs(a1=0.0, a2=1.0)
        with pytest.raises(ValueError, match="a2"):
            pf.CancellationInputs(a1=1.0, a2=-0.1)
        with pytest.raises(ValueError, match="tau1"):
            pf.CancellationInputs(a1=1.0, a2=1.0, tau1=1.5)
        with pytest.raises(ValueError, match="tau2"):
            pf.CancellationInputs(a1=1.0, a2=1.0, tau2=-0.1)
        with pytest.raises(ValueError, match="tau2"):
            pf.CancellationInputs.matched(tau2=0.0)
