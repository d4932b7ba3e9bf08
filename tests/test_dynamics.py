"""Schedules, generators, and piecewise propagation."""

import math

import numpy as np
import pytest

import photonforge as pf

import oracles

PI = math.pi


def oracle_generator(gamma, phi, alpha=0.0, delta=0.0, gamma_nr=0.0):
    h, ls = oracles.mirror_qubit_ops(gamma, phi, delta=delta, alpha=alpha,
                                     gamma_nr=gamma_nr)
    return oracles.generator_matrix(h, ls)


class TestParams:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pf.MirrorQubitParams(gamma=-0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            pf.MirrorQubitParams(gamma_nr=-1.0)

    @pytest.mark.parametrize("field", [
        "gamma", "delta", "gamma_nr", "gamma01", "gamma12", "gamma02"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            pf.MirrorQubitParams(levels=3, **{field: value})

    @pytest.mark.parametrize("field", ["delta", "gamma_nr"])
    def test_three_levels_reject_the_two_level_knobs(self, field):
        with pytest.raises(ValueError, match=f"{field} is not modeled"):
            pf.MirrorQubitParams(levels=3, **{field: 0.7})

    def test_rejects_bad_level_count(self):
        with pytest.raises(ValueError, match="levels"):
            pf.MirrorQubitParams(levels=4)

    def test_with_replaces_fields(self):
        p = pf.MirrorQubitParams(gamma=0.5).with_(gamma_nr=0.2)
        assert p.gamma == 0.5 and p.gamma_nr == 0.2 and p.levels == 2


class TestRates:
    def test_effective_coupling_endpoints(self):
        assert abs(pf.effective_coupling(1.0, 0.0) - 2.0) < 1e-15
        assert abs(pf.effective_coupling(1.0, PI)) < 1e-15
        assert abs(pf.effective_coupling(0.5, PI / 2.0) - 0.5) < 1e-15
        with pytest.raises(ValueError, match="nonnegative"):
            pf.effective_coupling(-1.0, 0.0)

    def test_pi_pulse_width_reference_values(self):
        assert abs(pf.pi_pulse_width(5.0, 1.0) - 0.314159265359) < 1e-9
        assert abs(pf.pi_pulse_width(10.0, 1.0) - 0.157079632679) < 1e-9

    def test_pi_pulse_width_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="positive"):
            pf.pi_pulse_width(0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            pf.pi_pulse_width(5.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rates_reject_non_finite_input(self, bad):
        # NaN used to come back as a NaN rate or width, and fail later
        # with a message about segment durations or the detuning
        with pytest.raises(ValueError, match="gamma must be finite"):
            pf.effective_coupling(bad, 0.0)
        with pytest.raises(ValueError, match="phi must be finite"):
            pf.effective_coupling(1.0, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            pf.pi_pulse_width(bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            pf.pi_pulse_width(5.0, bad)


class TestDriveSchedule:
    def test_square_pulse_geometry(self):
        d = pf.DriveSchedule.square_pi_pulse(5.0, 1.0, 1.0)
        (t0, t1, a), = d.segments
        assert t0 == 1.0
        assert abs(t1 - (1.0 + 0.314159265359)) < 1e-9
        assert a == 5.0

    def test_amplitude_lookup_is_right_continuous(self):
        d = pf.DriveSchedule(((0.0, 1.0, 3.0), (1.0, 2.0, 7.0)))
        assert d.amplitude_at(-0.5) == 0.0
        assert d.amplitude_at(0.0) == 3.0
        assert d.amplitude_at(1.0) == 7.0
        assert d.amplitude_at(2.0) == 0.0

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            pf.DriveSchedule(((0.0, 2.0, 1.0), (1.0, 3.0, 1.0)))

    def test_negative_amplitude_keeps_sign_with_positive_width(self):
        d = pf.DriveSchedule.square_pi_pulse(-5.0, 0.0, 1.0)
        assert d.segments[0][2] == -5.0
        assert abs(d.segments[0][1] - 0.314159265359) < 1e-9


class TestPhaseSchedule:
    def test_constant_covers_all_times(self):
        p = pf.PhaseSchedule.constant(0.3)
        assert p.phi_at(-100.0) == 0.3
        assert p.phi_at(100.0) == 0.3

    def test_phi_range_validated(self):
        with pytest.raises(ValueError, match="outside"):
            pf.PhaseSchedule.constant(-0.1)
        with pytest.raises(ValueError, match="outside"):
            pf.PhaseSchedule.constant(2.0 * PI)

    def test_rejects_empty_segment(self):
        with pytest.raises(ValueError, match="nonpositive"):
            pf.PhaseSchedule(((1.0, 1.0, 0.3),))

    def test_storage_release_phases(self):
        p = pf.PhaseSchedule.storage_release(0.9 * PI, 2.0, 5.0, PI / 2.0)
        assert p.phi_at(0.0) == 0.9 * PI
        assert p.phi_at(2.0) == PI
        assert p.phi_at(4.999) == PI
        assert p.phi_at(5.0) == PI / 2.0

    def test_storage_release_immediate(self):
        p = pf.PhaseSchedule.storage_release(0.9 * PI, 2.0, 2.0, PI / 2.0)
        assert len(p.segments) == 2
        assert p.phi_at(1.999) == 0.9 * PI
        assert p.phi_at(2.0) == PI / 2.0

    def test_storage_release_rejects_early_release(self):
        with pytest.raises(ValueError, match="release"):
            pf.PhaseSchedule.storage_release(0.9 * PI, 2.0, 1.5, PI / 2.0)

    def test_uncovered_time_rejected(self):
        p = pf.PhaseSchedule(((0.0, 1.0, 0.3),))
        with pytest.raises(ValueError, match="does not cover"):
            p.phi_at(2.0)

    def test_ramp_overrides_segments(self):
        ramp = (np.array([1.0, 1.5, 2.0]), np.array([0.5, 1.0, 1.5]))
        p = pf.PhaseSchedule(((-math.inf, math.inf, 0.1),), ramp=ramp)
        assert p.phi_at(0.5) == 0.1
        assert p.phi_at(1.0) == 0.5
        assert p.phi_at(1.6) == 1.0
        assert p.phi_at(2.0) == 0.1

    def test_ramp_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            pf.PhaseSchedule(ramp=(np.array([0.0, 1.0]), np.array([0.3])))
        with pytest.raises(ValueError, match="increasing"):
            pf.PhaseSchedule(ramp=(np.array([1.0, 1.0]), np.array([0.3, 0.4])))
        with pytest.raises(ValueError, match="outside"):
            pf.PhaseSchedule(ramp=(np.array([0.0, 1.0]), np.array([0.3, 7.0])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ramp_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            pf.PhaseSchedule(ramp=(np.array([0.0, 1.0, bad]), np.array([0.3, 0.4, 0.5])))
        with pytest.raises(ValueError, match="outside"):
            pf.PhaseSchedule(ramp=(np.array([0.0, 1.0, 2.0]), np.array([0.3, bad, 0.5])))


ONE_ULP_BELOW_1 = 1.0 - 1e-16  # overlaps its predecessor by 1.1e-16

# schedules and the times at which their array and scalar lookups agree
LOOKUPS = {
    "drive": (pf.DriveSchedule(((0.0, 1.0, 3.0), (1.0, 2.0, 7.0 - 2.0j))),
              [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    "drive_empty": (pf.DriveSchedule(()), [-1.0, 0.0, 5.0]),
    "drive_overlap": (pf.DriveSchedule(((0.0, 1.0, 3.0), (ONE_ULP_BELOW_1, 2.0, 7.0))),
                      [0.5, ONE_ULP_BELOW_1, 1.0, 1.5]),
    "infinite_ends": (pf.PhaseSchedule.storage_release(0.9 * PI, 2.0, 5.0, PI / 2.0),
                      [-math.inf, -1e300, 2.0, 4.999, 5.0, 1e300]),
    "gap": (pf.PhaseSchedule(((0.0, 1.0, 0.3), (2.0, 3.0, 0.5))),
            [0.5, 1.0, 1.5, 2.0, 3.5]),
    "ramp": (pf.PhaseSchedule(((-math.inf, math.inf, 0.1),),
                              ramp=(np.array([1.0, 1.5, 2.0]), np.array([0.5, 1.0, 1.5]))),
             [0.5, 1.0, 1.6, 1.999, 2.0, 2.5]),
    "ramp_over_gap": (pf.PhaseSchedule(((0.0, 1.0, 0.3), (2.0, 3.0, 0.5)),
                                       ramp=(np.array([0.5, 2.5]), np.array([1.0, 1.2]))),
                      [0.0, 0.5, 1.5, 2.5, 3.5]),
    "one_sample_ramp": (pf.PhaseSchedule(((-math.inf, math.inf, 0.1),),
                                         ramp=(np.array([1.0]), np.array([0.5]))),
                        [0.5, 1.0, 1.5]),
    "phase_overlap": (pf.PhaseSchedule(((-math.inf, 1.0, 0.3),
                                        (ONE_ULP_BELOW_1, math.inf, 0.5))),
                      [0.5, ONE_ULP_BELOW_1, 1.0]),
}


class TestStepLookup:
    @pytest.mark.parametrize("name", LOOKUPS)
    def test_array_lookup_equals_scalar_lookups(self, name):
        sched, times = LOOKUPS[name]
        times = np.array(times)
        if isinstance(sched, pf.DriveSchedule):
            look = sched.amplitude_at
            want = [oracles.schedule_value(sched.segments, t) for t in times]
            want = [0.0 if w is None else w for w in want]
        else:
            look = sched.phi_at
            want = [oracles.schedule_value(sched.segments, t, sched.ramp) for t in times]
        if None in want:
            first = times[want.index(None)]
            with pytest.raises(ValueError, match=f"does not cover t = {first}$"):
                look(times)
        else:
            got = look(times)
            assert got.shape == times.shape
            assert got.tolist() == want
        for t, w in zip(times, want):
            if w is None:
                with pytest.raises(ValueError, match=f"does not cover t = {t}$"):
                    look(t)
            else:
                assert np.isscalar(look(t))
                assert look(t) == w

    def test_one_sample_ramp_is_a_cut_point(self):
        sched, _ = LOOKUPS["one_sample_ramp"]
        run = pf.simulate(pf.MirrorQubitParams(), pf.DriveSchedule(()), sched, 2.0, dt=0.3)
        assert run.pieces.t_a.tolist() == [0.0, 1.0]
        assert 1.0 in run.times.tolist()


class TestCouplings:
    def test_output_coupling_form(self):
        params = pf.MirrorQubitParams(gamma=0.8)
        for phi in (0.0, 0.9, 2.2):
            geff = 0.8 * (1.0 + math.cos(phi))
            want = math.sqrt(geff) * np.exp(1j * phi / 2.0)
            got = oracles.output_coupling(params, phi)
            assert abs(got[0, 1] - want) < 1e-14
            assert got[1, 0] == 0 and got[0, 0] == 0 and got[1, 1] == 0

    def test_output_coupling_needs_two_levels(self):
        with pytest.raises(ValueError, match="two-level"):
            oracles.output_coupling(pf.MirrorQubitParams(levels=3), 0.0)

    def test_channel_couplings_rates(self):
        params = pf.MirrorQubitParams(levels=3, gamma01=1.0, gamma12=2.0,
                                      gamma02=0.05)
        ch = pf.channel_couplings(params)
        assert abs(ch["signal"].mat[0, 1] - math.sqrt(2.0)) < 1e-14
        assert abs(ch["idler"].mat[1, 2] - 2.0) < 1e-14
        assert abs(ch["pump"].mat[0, 2] - math.sqrt(0.1)) < 1e-14

    def test_channel_couplings_needs_three_levels(self):
        with pytest.raises(ValueError, match="levels=3"):
            pf.channel_couplings(pf.MirrorQubitParams())


class TestBuildLiouvillian:
    @pytest.mark.parametrize("gamma,phi,alpha,gnr", [
        (0.5, 0.0, 5.0, 0.0),
        (1.0, 0.9 * PI, 10.0, 0.0),
        (0.5, 0.0, 10.0, 1.0),
        (1.0, PI / 2.0, 2.0 - 1.0j, 0.3),
    ])
    def test_matches_column_assembled_generator(self, gamma, phi, alpha, gnr):
        params = pf.MirrorQubitParams(gamma=gamma, gamma_nr=gnr)
        got = pf.build_liouvillian(params, phi, alpha).mat
        want = oracle_generator(gamma, phi, alpha=alpha, gamma_nr=gnr)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_annihilates_trace(self):
        for params, phi, alpha in [
            (pf.MirrorQubitParams(gamma=0.5, gamma_nr=0.4), 1.1, 3.0),
            (pf.MirrorQubitParams(levels=3), 0.0, 5.0),
        ]:
            assert pf.build_liouvillian(params, phi, alpha).annihilates_trace(1e-10)

    def test_three_level_guards(self):
        params = pf.MirrorQubitParams(levels=3)
        with pytest.raises(ValueError, match="phi = 0"):
            pf.build_liouvillian(params, 0.5, 1.0)
        with pytest.raises(ValueError, match="not modeled"):
            pf.build_liouvillian(params.with_(gamma_nr=0.1), 0.0, 1.0)


def ladder_generator(params, alpha):
    """Column-assembled three-level generator, for the compiler tests."""
    ch = pf.channel_couplings(params)
    x = alpha * ch["pump"].mat.conj().T
    return oracles.generator_matrix(-1j * (x - x.conj().T),
                                    [ch[k].mat for k in ("signal", "idler", "pump")])


def random_ramp(rng, t0, t1, n):
    times = np.linspace(t0, t1, n + 1)
    return pf.PhaseSchedule(ramp=(times, rng.uniform(0.0, 2.0 * PI, n + 1)))


def exponential_release(gamma=1.0):
    packet = pf.WavePacket.exponential(1.0, 8.0, duration=12.0, dt=0.005)
    return pf.shape_to_schedule(packet, gamma), pf.DensityMatrix.excited(2)


class TestCompiler:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_step_matrices_match_oracle_exponentials(self, seed):
        rng = np.random.default_rng(seed)
        params = pf.MirrorQubitParams(gamma=rng.uniform(0.3, 2.0),
                                      delta=rng.uniform(-2.0, 2.0),
                                      gamma_nr=rng.uniform(0.05, 0.5))
        alpha = complex(*rng.uniform(-4.0, 4.0, 2))
        drive = pf.DriveSchedule(((0.5, 1.7, alpha),))
        phase = random_ramp(rng, 0.2, 2.2, 40)
        run = pf.simulate(params, drive, phase, 2.5, dt=0.05)
        table = run.pieces
        for t, h, slot in zip(table.t_a, table.h, table.slot):
            gen = oracle_generator(params.gamma, phase.phi_at(t),
                                   alpha=drive.amplitude_at(t),
                                   delta=params.delta, gamma_nr=params.gamma_nr)
            step = table.step_mats[slot]
            assert np.max(np.abs(step - pf.sup_exp(gen, h).mat)) < 1e-13

    def test_three_level_step_matrices_match_oracle_exponentials(self):
        params = pf.MirrorQubitParams(levels=3, gamma02=0.2)
        drive = pf.DriveSchedule(((0.0, 0.8, 3.0 - 2.0j), (1.0, 1.5, 0.5j)))
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 2.0,
                          dt=0.05)
        table = run.pieces
        for t, h, slot in zip(table.t_a, table.h, table.slot):
            gen = ladder_generator(params, drive.amplitude_at(t))
            step = table.step_mats[slot]
            assert np.max(np.abs(step - pf.sup_exp(gen, h).mat)) < 1e-13

    def test_generators_annihilate_trace_and_keep_hermiticity(self):
        rng = np.random.default_rng(4)
        phi = rng.uniform(0.0, 2.0 * PI, 50)
        alpha = rng.normal(size=50) + 1j * rng.normal(size=50)
        for params, phis in [
            (pf.MirrorQubitParams(gamma=0.7, delta=1.3, gamma_nr=0.2), phi),
            (pf.MirrorQubitParams(levels=3), np.zeros(50)),
        ]:
            d = params.levels
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = pf.vec(a + a.conj().T)
            for gen in pf.dynamics._generators(params, phis, alpha):
                assert pf.Superoperator(gen).annihilates_trace(1e-13)
                out = pf.unvec(gen @ rho, d)
                assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_generators_equal_operator_assembly_bitwise(self):
        # optimizers over single generators (encode_flying_qubit) follow
        # last-bit differences, so the basis sum must round exactly as
        # core.liouvillian of the same H and L does
        rng = np.random.default_rng(5)
        params = pf.MirrorQubitParams(gamma=1.3, delta=-0.4, gamma_nr=0.15)
        phi = rng.uniform(0.0, 2.0 * PI, 200)
        alpha = 5.0 * (rng.normal(size=200) + 1j * rng.normal(size=200))
        stack = pf.dynamics._generators(params, phi, alpha)
        for k in range(200):
            h, ls = oracles.mirror_qubit_ops(1.3, phi[k], delta=-0.4,
                                             alpha=complex(alpha[k]), gamma_nr=0.15)
            want = pf.liouvillian(h, ls).mat
            assert np.array_equal(stack[k], want)
            assert np.array_equal(
                pf.build_liouvillian(params, phi[k], alpha[k]).mat, want)

    def test_packet_release_exponentiates_in_few_stacked_calls(self, monkeypatch):
        calls = []
        real = pf.dynamics.sup_exp

        def counting(lv, t):
            calls.append(np.shape(t))
            return real(lv, t)

        monkeypatch.setattr(pf.dynamics, "sup_exp", counting)
        phase, rho0 = exponential_release()
        run = pf.simulate(pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(()),
                          phase, 20.0, t_start=8.0, rho0=rho0, dt=0.005)
        assert len(run.pieces.slot) >= 2400
        assert len(calls) <= 3

    def test_packet_release_looks_up_each_schedule_once(self, monkeypatch):
        calls = []
        for cls, name in ((pf.PhaseSchedule, "phi_at"), (pf.DriveSchedule, "amplitude_at")):
            def counting(self, t, real=getattr(cls, name), name=name):
                calls.append((name, np.shape(t)))
                return real(self, t)

            monkeypatch.setattr(cls, name, counting)
        phase, rho0 = exponential_release()
        run = pf.simulate(pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(()),
                          phase, 20.0, t_start=8.0, rho0=rho0, dt=0.005)
        rows = (len(run.pieces.slot),)
        assert rows[0] >= 2400
        assert calls == [("phi_at", rows), ("amplitude_at", rows)]

    def test_flux_series_matches_recorded_states_on_a_ramp(self):
        params = pf.MirrorQubitParams(gamma=1.0)
        phase, rho0 = exponential_release()
        drive = pf.DriveSchedule(())
        run = pf.simulate(params, drive, phase, 20.0, t_start=8.0, rho0=rho0,
                          dt=0.005)
        ops = np.array(oracles.grid_ops(run))
        rho_t = run.states.reshape(-1, 2, 2)
        want = np.einsum("nki,nkj,nij->n", ops.conj(), ops, rho_t).real
        got = pf.flux_series(params, drive, phase, run.times, rho0=rho0)
        assert len(run.times) == 2401
        assert np.max(np.abs(got - want)) < 1e-12


def _release_run():
    phase, rho0 = exponential_release()
    return pf.simulate(pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(()),
                       phase, 20.0, t_start=8.0, rho0=rho0, dt=0.005)


# runs with pulses, phase switches, ramps and three levels
TABLE_RUNS = {
    "pulse": lambda: pf.simulate(
        pf.MirrorQubitParams(gamma=0.5),
        pf.DriveSchedule.square_pi_pulse(7.0, 0.0, 1.0),
        pf.PhaseSchedule.constant(0.0), 20.0, dt=0.005),
    "ramp": _release_run,
    "random_ramp": lambda: pf.simulate(
        pf.MirrorQubitParams(gamma=0.7, gamma_nr=0.2),
        pf.DriveSchedule(((0.5, 1.7, 2.0 - 1.0j),)),
        random_ramp(np.random.default_rng(6), 0.2, 2.2, 40), 2.5,
        t_start=0.1, dt=0.05),
    "release": lambda: pf.simulate(
        pf.MirrorQubitParams(gamma=1.0),
        pf.DriveSchedule.square_pi_pulse(5.0, 1.0, 1.9),
        pf.PhaseSchedule.storage_release(0.9 * PI, 1.3, 3.0, PI / 2.0),
        9.0, dt=0.01),
    "short_rows": lambda: pf.simulate(
        pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(((0.25, 0.75, 2.0),)),
        pf.PhaseSchedule.storage_release(0.9 * PI, 0.75, 1.0, PI / 2.0), 3.0,
        dt=0.25, min_pulse_steps=2),
    # rows of _BLOCK, _BLOCK + 1 and 2 _BLOCK + 3 steps of 1/64 around
    # three one-step ramp rows: the stacked-power fill's block edges
    "block_edges": lambda: pf.simulate(
        pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(((0.0, 2.0, 1.5),)),
        pf.PhaseSchedule(((-math.inf, 2.0, 0.3), (2.0, 4.0625, 1.1),
                          (4.0625, math.inf, 2.0)),
                         ramp=(np.arange(257, 261) / 64, np.array([0.4, 5.9, 2.5, 0.0]))),
        8.109375, dt=1 / 64),
    "three_level": lambda: pf.simulate(
        pf.MirrorQubitParams(levels=3, gamma02=0.1),
        pf.DriveSchedule(((0.0, 0.8, 5.0), (3.0, 3.5, 2.0j))),
        pf.PhaseSchedule.constant(0.0), 20.0, dt=0.005),
}


@pytest.fixture(scope="module", params=sorted(TABLE_RUNS))
def table_run(request):
    return TABLE_RUNS[request.param]()


class TestPieceTable:
    def test_rows_tile_the_span(self, table_run):
        table = table_run.pieces
        assert table.t_a[0] == table_run.times[0]
        assert table.t_b[-1] == table_run.times[-1]
        assert np.array_equal(table.t_a[1:], table.t_b[:-1])
        assert np.all(table.t_b > table.t_a)

    def test_step_counts_cover_the_grid(self, table_run):
        assert np.sum(table_run.pieces.n_steps) == len(table_run.times) - 1

    def test_short_rows(self):
        run = TABLE_RUNS["short_rows"]()
        assert run.pieces.n_steps.tolist() == [1, 2, 1, 8]

    def test_block_edge_rows(self):
        run = TABLE_RUNS["block_edges"]()
        assert pf.dynamics._BLOCK == 128
        assert run.pieces.n_steps.tolist() == [128, 129, 1, 1, 1, 259]

    def test_row_times_are_linspace(self, table_run):
        table = table_run.pieces
        for p, (lo, hi) in enumerate(zip(table.starts[:-1], table.starts[1:])):
            want = np.linspace(table.t_a[p], table.t_b[p], table.n_steps[p] + 1)
            assert np.array_equal(table_run.times[lo:hi + 1], want)

    def test_breakpoints_are_grid_points(self, table_run):
        run = table_run
        t1, t2 = run.times[0], run.times[-1]
        points = [x for x in run.drive.breakpoints() + run.phase.breakpoints()
                  if t1 < x < t2]
        assert points
        assert set(points) <= set(run.times.tolist())

    def test_states_equal_sequential_march(self, table_run):
        want = oracles.march_states(table_run)
        assert np.max(np.abs(table_run.states - want)) < 1e-13

    def test_one_step_rows_march_bitwise(self):
        # one product per one-step row, as the oracle takes one per step
        run = pf.simulate(pf.MirrorQubitParams(gamma=0.7, gamma_nr=0.2),
                          pf.DriveSchedule(((0.5, 1.2, 2.0 - 1.0j),)),
                          random_ramp(np.random.default_rng(7), 0.0, 2.0, 200), 2.0,
                          dt=0.05)
        assert run.pieces.n_steps.tolist() == [1] * 200
        assert np.array_equal(run.states, oracles.march_states(run))

    def test_counting_ops_by_row(self, table_run):
        table = table_run.pieces
        if table_run.params.levels == 3:
            want = pf.channel_couplings(table_run.params)
            assert set(table.channels) == set(want)
            for name, op in want.items():
                assert table.channels[name].shape == (len(table.phi), 3, 3)
                assert (table.channels[name] == op.mat).all()
            return
        for phi, op in zip(table.phi, table.channels["line"]):
            assert np.array_equal(op, oracles.output_coupling(table_run.params, phi))
        assert np.array_equal(table.per_point(table.channels["line"]),
                              np.array(oracles.grid_ops(table_run)))


class TestPropagator:
    def setup_method(self):
        self.params = pf.MirrorQubitParams(gamma=1.0)
        geff = pf.effective_coupling(1.0, 0.9 * PI)
        self.tw = pf.pi_pulse_width(5.0, geff)
        self.drive = pf.DriveSchedule.square_pi_pulse(5.0, 1.0, geff)
        self.phase = pf.PhaseSchedule.storage_release(
            0.9 * PI, 1.0 + self.tw, 3.0, PI / 2.0)

    def test_identity_and_reversal(self):
        p = pf.propagator(self.params, self.drive, self.phase, 2.0, 2.0)
        assert np.array_equal(p.mat, np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="reversed"):
            pf.propagator(self.params, self.drive, self.phase, 3.0, 2.0)

    @pytest.mark.parametrize("t1, t2", [(math.nan, 1.0), (0.0, math.nan),
                                        (0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite_times(self, t1, t2):
        with pytest.raises(ValueError, match="times must be finite"):
            pf.propagator(self.params, self.drive, self.phase, t1, t2)

    def test_composition_law(self):
        args = (self.params, self.drive, self.phase)
        full = pf.propagator(*args, 0.0, 4.0).mat
        split = pf.propagator(*args, 2.5, 4.0).mat @ pf.propagator(*args, 0.0, 2.5).mat
        assert np.max(np.abs(full - split)) < 1e-12

    def test_matches_adaptive_ode(self):
        t_store = 1.0 + self.tw
        pieces = [
            (0.0, 1.0, oracle_generator(1.0, 0.9 * PI)),
            (1.0, t_store, oracle_generator(1.0, 0.9 * PI, alpha=5.0)),
            (t_store, 3.0, oracle_generator(1.0, PI)),
            (3.0, 5.0, oracle_generator(1.0, PI / 2.0)),
        ]
        want = oracles.ode_propagator(pieces, 2)
        got = pf.propagator(self.params, self.drive, self.phase, 0.0, 5.0).mat
        assert np.max(np.abs(got - want)) < 1e-8


class TestSimulate:
    def test_grid_geometry(self):
        params = pf.MirrorQubitParams(gamma=0.5)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 4.0,
                          dt=0.01)
        assert run.times[0] == 0.0
        assert abs(run.times[-1] - 4.0) < 1e-9
        assert len(run.states) == len(run.times)
        assert np.all(np.diff(run.times) > 0)

    def test_trace_preserved_with_nonradiative_loss(self):
        params = pf.MirrorQubitParams(gamma=0.5, gamma_nr=0.3)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.5, 1.0)
        phase = pf.PhaseSchedule.storage_release(0.0, 1.0, 2.0, PI / 2.0)
        run = pf.simulate(params, drive, phase, 6.0, dt=0.01)
        d = run.dim
        traces = [abs(np.trace(s.reshape((d, d), order="F")) - 1.0)
                  for s in run.states]
        assert max(traces) < 1e-8

    def test_trace_preserved_three_level(self):
        params = pf.MirrorQubitParams(levels=3)
        tw = pf.pi_pulse_width(5.0, 2.0 * params.gamma02)
        drive = pf.DriveSchedule(((0.0, tw, 5.0),))
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 4.0,
                          dt=0.01)
        traces = [abs(np.trace(s.reshape((3, 3), order="F")) - 1.0)
                  for s in run.states]
        assert max(traces) < 1e-8
        assert set(run.pieces.channels) == {"signal", "idler", "pump"}

    def test_counting_op_right_continuous_at_release(self):
        params = pf.MirrorQubitParams(gamma=1.0)
        phase = pf.PhaseSchedule.storage_release(0.9 * PI, 1.0, 3.0, PI / 2.0)
        run = pf.simulate(params, pf.DriveSchedule(()), phase, 5.0, dt=0.1)
        idx = int(np.argmin(np.abs(run.times - 3.0)))
        ops = run.pieces.per_point(run.pieces.channels["line"])
        want = oracles.output_coupling(params, PI / 2.0)
        assert np.max(np.abs(ops[idx] - want)) < 1e-14
        before = oracles.output_coupling(params, PI)
        assert np.max(np.abs(ops[idx - 1] - before)) < 1e-14

    def test_subnormal_detuning_propagates_finitely(self):
        # a triangular exponential that divides by eigenvalue differences
        # of order 1e-311 turns this generator into NaN
        args = (pf.DriveSchedule(()), pf.PhaseSchedule.constant(0.0), 0.0, 4.0)
        got = pf.propagator(pf.MirrorQubitParams(delta=2.2e-311), *args).mat
        want = pf.propagator(pf.MirrorQubitParams(), *args).mat
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - want)) < 1e-12

    def test_non_finite_exponential_raises(self):
        with pytest.raises(FloatingPointError, match="not finite"):
            pf.sup_exp(np.full((4, 4), 1e308), 10.0)

    def test_dark_phase_freezes_the_state(self):
        params = pf.MirrorQubitParams(gamma=1.0)
        rho0 = pf.DensityMatrix.from_ket([0.6, 0.8])
        run = pf.simulate(params, pf.DriveSchedule(()),
                          pf.PhaseSchedule.constant(PI), 8.0, rho0=rho0,
                          dt=0.05)
        drift = np.max(np.abs(np.array(run.states) - run.states[0]))
        assert drift < 1e-10

    def test_pulse_grid_refinement(self):
        params = pf.MirrorQubitParams(gamma=0.5)
        drive = pf.DriveSchedule.square_pi_pulse(10.0, 0.0, 1.0)
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 2.0,
                          dt=0.05)
        assert run.drive_points >= 20

    def test_rejects_empty_span(self):
        params = pf.MirrorQubitParams()
        with pytest.raises(ValueError, match="exceed"):
            pf.simulate(params, pf.DriveSchedule(()),
                        pf.PhaseSchedule.constant(0.0), 0.0)

    @pytest.mark.parametrize("t_start, t_end", [(0.0, math.nan), (0.0, math.inf),
                                                (math.nan, 2.0), (-math.inf, 2.0)])
    def test_rejects_non_finite_span(self, t_start, t_end):
        with pytest.raises(ValueError, match="must be finite"):
            pf.simulate(pf.MirrorQubitParams(), pf.DriveSchedule(()),
                        pf.PhaseSchedule.constant(0.0), t_end, t_start=t_start)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
    def test_rejects_nonpositive_or_nonfinite_dt(self, dt):
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            pf.simulate(pf.MirrorQubitParams(), drive,
                        pf.PhaseSchedule.constant(0.0), 2.0, dt=dt)

    @pytest.mark.parametrize("rho0, match", [
        ([[math.nan, 0.0], [0.0, 1.0]], "finite"),
        (np.diag([0.0, 2.0]), "unit trace"),
        ([[0.5, 0.5], [0.0, 0.5]], "not Hermitian"),
        (np.eye(3) / 3.0, "rho0 has 3 levels, the run 2"),
    ])
    def test_rejects_an_invalid_initial_state(self, rho0, match):
        # each used to run: to NaN states, to a counting error blaming the
        # grid, to wrong probabilities, or to a reshape error
        args = (pf.MirrorQubitParams(), pf.DriveSchedule(()),
                pf.PhaseSchedule.constant(PI / 2.0))
        with pytest.raises(ValueError, match=match):
            pf.simulate(*args, 2.0, rho0=rho0, dt=0.01)
        with pytest.raises(ValueError, match=match):
            pf.flux_series(*args, [0.0, 2.0], rho0=rho0)

    def test_rejects_min_pulse_steps_below_one(self):
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="min_pulse_steps"):
            pf.simulate(pf.MirrorQubitParams(), drive,
                        pf.PhaseSchedule.constant(0.0), 2.0, min_pulse_steps=0)

    @pytest.mark.parametrize("steps", [math.nan, 2.5])
    def test_rejects_min_pulse_steps_that_are_not_integers(self, steps):
        # both used to pass silently; NaN refined nothing, as
        # min(dt, width / nan) is dt
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="min_pulse_steps must be an integer"):
            pf.simulate(pf.MirrorQubitParams(), drive,
                        pf.PhaseSchedule.constant(0.0), 2.0, min_pulse_steps=steps)


class TestObservables:
    def test_flux_of_released_excitation_decays_exponentially(self):
        params = pf.MirrorQubitParams(gamma=0.5)
        grid = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        flux = pf.flux_series(params, pf.DriveSchedule(()),
                              pf.PhaseSchedule.constant(0.0), grid,
                              rho0=pf.DensityMatrix.excited(2))
        assert np.max(np.abs(flux - np.exp(-grid))) < 1e-12

    def test_emitted_photon_number_is_unity(self):
        params = pf.MirrorQubitParams(gamma=0.5)
        dt = 0.0025
        grid = np.arange(0.0, 18.0 + dt / 2.0, dt)
        flux = pf.flux_series(params, pf.DriveSchedule(()),
                              pf.PhaseSchedule.constant(0.0), grid,
                              rho0=pf.DensityMatrix.excited(2))
        assert abs(np.trapezoid(flux, grid) - 1.0) < 1e-6

    def test_flux_trapezoid_is_n1_when_the_run_ends_on_a_switch(self):
        # the run ends at the release time t_r = 8, where the flux reads
        # the last row as counting does, not the reopened coupling
        params = pf.MirrorQubitParams(gamma=1.0)
        geff = pf.effective_coupling(1.0, 0.9 * PI)
        drive = pf.DriveSchedule.square_pi_pulse(10.0, 1.0, geff)
        phase = pf.PhaseSchedule.storage_release(
            0.9 * PI, 1.0 + pf.pi_pulse_width(10.0, geff), 8.0, PI / 2.0)
        run = pf.simulate(params, drive, phase, 8.0, dt=0.005)
        flux = pf.flux_series(params, drive, phase, run.times)
        n1 = pf.photon_mtiples(run, cutoff=1)[0]
        assert abs(np.trapezoid(flux, run.times) - n1) < 1e-12

    @pytest.mark.parametrize("grid, want", [([3.0], [1.0]), ([2.0, 2.0], [1.0, 1.0]),
                                            ([], [])],
                             ids=["one_point", "one_distinct_point", "empty"])
    def test_flux_on_a_grid_without_rows(self, grid, want):
        params = pf.MirrorQubitParams(gamma=0.5)
        flux = pf.flux_series(params, pf.DriveSchedule(()),
                              pf.PhaseSchedule.constant(0.0), grid,
                              rho0=pf.DensityMatrix.excited(2))
        assert flux.shape == (len(want),)
        assert np.max(np.abs(flux - want), initial=0.0) < 1e-15

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [math.nan], [0.0, math.inf]])
    def test_readouts_reject_non_finite_grid_times(self, grid):
        params = pf.MirrorQubitParams(gamma=0.5)
        args = (pf.DriveSchedule(()), pf.PhaseSchedule.constant(0.0))
        with pytest.raises(ValueError, match="finite times"):
            pf.flux_series(params, *args, grid)

    def test_flux_needs_two_levels(self):
        with pytest.raises(ValueError, match="two-level"):
            pf.flux_series(pf.MirrorQubitParams(levels=3), pf.DriveSchedule(()),
                           pf.PhaseSchedule.constant(0.0), [0.0, 1.0])

    @pytest.mark.parametrize("grid", [
        [0.0, 0.5, 0.5, 1.2, 1.2, 3.0, 4.5, 4.5],
        [1.1, 1.15, 1.6, 2.0, 3.5, 5.0],
        [1.2],
    ], ids=["repeated_points", "starts_inside_pulse", "single_point"])
    def test_expectation_equals_propagated_state(self, grid):
        # the drive pulse is [1.0, 1.1 + tw], the release switch at 3.0
        params = pf.MirrorQubitParams(gamma=1.0, delta=0.3, gamma_nr=0.1)
        geff = pf.effective_coupling(1.0, 0.9 * PI)
        drive = pf.DriveSchedule(((1.0, 1.1 + pf.pi_pulse_width(5.0, geff), 5.0 - 1.0j),))
        phase = pf.PhaseSchedule.storage_release(0.9 * PI, 1.6, 3.0, PI / 2.0)
        # no grid ends on a phase switch, so each point reads L at phi_at(t)
        rho0 = pf.DensityMatrix.from_ket([0.6, 0.8j])
        got = pf.flux_series(params, drive, phase, grid, rho0=rho0)
        want = []
        for t in grid:
            rho = pf.unvec(pf.propagator(params, drive, phase, grid[0], t).mat
                           @ pf.vec(rho0.mat), 2)
            op = oracles.output_coupling(params, phase.phi_at(t))
            want.append(np.trace(op.conj().T @ op @ rho).real)
        assert len(got) == len(grid)
        assert np.max(np.abs(got - np.array(want))) < 1e-12
