"""Schedules, generators, and piecewise propagation."""

import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import photonforge as pf

import oracles

PI = math.pi


def cut_values(times, drive=pf.DriveSchedule(()), phase=pf.PhaseSchedule()):
    """phi and alpha as `_cut` reads them on the rows starting at the sorted `times`,
    each a cut point of a span that ends one past the last."""
    _, t_a, _, phi, alpha, *_ = pf.dynamics._cut([(drive, phase, times[0], times[-1] + 1.0,
                                                   times)])
    rows = np.searchsorted(t_a, times)
    assert t_a[rows].tolist() == times
    return phi[rows].tolist(), alpha[rows].tolist()


def read_values(drive, phase, reads):
    """What a row reading at each of `reads` holds, by `oracles.schedule_value`: phi,
    alpha, the index of the drive segment holding it (-1 for none) and whether a ramp
    step holds it."""
    places = [(t0, t1, k) for k, (t0, t1, _) in enumerate(drive.segments)]
    steps = None if phase.ramp is None else (phase.ramp[0], [True] * len(phase.ramp[0]))
    return ([oracles.phi_value(phase, t) for t in reads],
            [oracles.alpha_value(drive, t) for t in reads],
            [oracles.schedule_value(places, t) for t in reads],
            [oracles.schedule_value((), t, steps) for t in reads])


def cut_points(drive, phase, extra=()):
    """Every cut point of a drive and a phase schedule, and the extra points."""
    ramp = [] if phase.ramp is None else phase.ramp[0].tolist()
    return np.array([x for seg in drive.segments + phase.segments for x in seg[:2]]
                    + ramp + list(extra))


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
        assert cut_values([-0.5, 0.0, 1.0, 2.0], drive=d)[1] == [0.0, 3.0, 7.0, 0.0]

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
        assert cut_values([-100.0, 100.0], phase=p)[0] == [0.3, 0.3]

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
        want = [0.9 * PI, PI, PI, PI / 2.0]
        assert cut_values([0.0, 2.0, 4.999, 5.0], phase=p)[0] == want

    def test_storage_release_immediate(self):
        p = pf.PhaseSchedule.storage_release(0.9 * PI, 2.0, 2.0, PI / 2.0)
        assert len(p.segments) == 2
        assert cut_values([1.999, 2.0], phase=p)[0] == [0.9 * PI, PI / 2.0]

    def test_storage_release_rejects_early_release(self):
        with pytest.raises(ValueError, match="release"):
            pf.PhaseSchedule.storage_release(0.9 * PI, 2.0, 1.5, PI / 2.0)

    def test_uncovered_time_rejected(self):
        p = pf.PhaseSchedule(((0.0, 1.0, 0.3),))
        with pytest.raises(ValueError, match="does not cover t = 2.0$"):
            cut_values([2.0], phase=p)

    def test_ramp_overrides_segments(self):
        ramp = (np.array([1.0, 1.5, 2.0]), np.array([0.5, 1.0, 1.5]))
        p = pf.PhaseSchedule(((-math.inf, math.inf, 0.1),), ramp=ramp)
        assert cut_values([0.5, 1.0, 1.6, 2.0], phase=p)[0] == [0.1, 0.5, 1.0, 0.1]

    def test_ramp_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            pf.PhaseSchedule(ramp=(np.array([0.0, 1.0]), np.array([0.3])))
        with pytest.raises(ValueError, match="nonempty"):
            pf.PhaseSchedule(ramp=([], []))
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

# schedules, and times whose finite ones are cut points of the span they cover
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
    """`_cut`'s one array lookup per schedule against the scalar comparisons of
    `oracles.schedule_value`, at every row's read point: the last point merged into its
    start (`oracles.merge_breakpoints`)."""

    @pytest.mark.parametrize("name", LOOKUPS)
    def test_array_lookup_equals_scalar_lookups(self, name):
        # the finite times are cut points of the span they cover, for one cell and for a
        # stack of two; a phase gap raises at its first read point, and the rows before
        # it are read as the oracle reads them. drive_overlap's second row starts at
        # ONE_ULP_BELOW_1 and reads at 1.0, on the second segment
        sched, times = LOOKUPS[name]
        drive, phase = ((sched, pf.PhaseSchedule()) if isinstance(sched, pf.DriveSchedule)
                        else (pf.DriveSchedule(()), sched))
        finite = [t for t in times if math.isfinite(t)]
        gap = any(oracles.phi_value(phase, t) is None for t in finite)
        for cells in (1, 2):
            end = max(finite)
            if gap:
                with pytest.raises(ValueError, match="does not cover t = ") as err:
                    pf.dynamics._cut([(drive, phase, min(finite), end, times)] * cells)
                end = float(str(err.value).rsplit(" ", 1)[1])
                assert oracles.phi_value(phase, end) is None
            *_, phi, alpha, segment, ramped = pf.dynamics._cut(
                [(drive, phase, min(finite), end, times)] * cells)
            reads = oracles.merge_breakpoints(cut_points(drive, phase, finite),
                                              min(finite), end)[2]
            want = read_values(drive, phase, reads)
            assert phi.tolist() == want[0] * cells
            assert alpha.tolist() == want[1] * cells
            assert segment.tolist() == [-1 if k is None else k for k in want[2]] * cells
            assert ramped.tolist() == [k is not None for k in want[3]] * cells
        if name == "drive_overlap":
            assert alpha.tolist() == [3.0, 7.0] * 2

    @pytest.mark.parametrize("entry", ["simulate", "propagator", "flux_series", "stack"])
    def test_every_entry_names_the_first_uncovered_time(self, entry):
        # the cut's coverage check is the one check: each entry raises it, naming the first
        # row start that no phase segment holds; in the stack, that of its second cell
        params, drive = pf.MirrorQubitParams(), pf.DriveSchedule(((0.5, 1.0, 2.0),))
        gap = pf.PhaseSchedule(((0.0, 1.5, 0.3), (2.5, 4.0, 0.5)))
        calls = {
            "simulate": lambda: pf.simulate(params, drive, gap, 3.0, dt=0.1),
            "propagator": lambda: pf.propagator(params, drive, gap, 0.0, 3.0),
            "flux_series": lambda: pf.flux_series(params, drive, gap, [0.0, 1.0, 3.0]),
            "stack": lambda: pf.dynamics._simulate([
                (params, drive, pf.PhaseSchedule.constant(0.3), 0.0, 3.0, 0.1),
                (params, drive, gap, 0.0, 3.0, 0.1)]),
        }
        with pytest.raises(ValueError, match="phase schedule does not cover t = 1.5$"):
            calls[entry]()

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
            lv = pf.build_liouvillian(params, phi, alpha)
            assert np.max(np.abs(oracles.trace_row(lv.dim) @ lv.mat)) <= 1e-10

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


def drive_free_table(case):
    """DRIVE_FREE[case]'s params, compiled table, and mask of its drive-free rows."""
    params, drive, phase, t1, t2, extra = DRIVE_FREE[case]()
    table = pf.dynamics._piece_table(params, drive, phase, t1, t2, extra)
    return params, table, (table.alpha == 0) | (table.phi == PI)


def table_generators(params, table):
    """Each row's coordinate generator, step and step matrix, in row order."""
    gens = pf.dynamics._generators(params, table.phi, table.alpha)
    return pf.core.to_coordinates(gens), table.h, table.steps(np.arange(len(table.t_a)))


def _random_drive_free(seed):
    # a random ramp with a drive that switches off, a drive held at the
    # dark point phi = pi, and a detuned, lossy emitter
    rng = np.random.default_rng(seed)
    params = pf.MirrorQubitParams(gamma=rng.uniform(0.3, 2.0), delta=rng.uniform(-2.0, 2.0),
                                  gamma_nr=rng.uniform(0.05, 0.5))
    times = np.linspace(0.2, 2.2, 41)
    phi = rng.uniform(0.0, 2.0 * PI, 41)
    phi[-5:] = PI
    drive = pf.DriveSchedule(((0.5, 1.0, complex(*rng.uniform(-4.0, 4.0, 2))),
                              (1.8, 2.4, complex(*rng.uniform(-4.0, 4.0, 2)))))
    return params, drive, pf.PhaseSchedule(ramp=(times, phi)), 0.0, 2.5, np.arange(0.0, 2.5, 0.05)


DRIVE_FREE = {
    "random_1": lambda: _random_drive_free(1),
    "random_2": lambda: _random_drive_free(2),
    "random_3": lambda: _random_drive_free(3),
    # a drive held at the dark point of a lossless emitter, whose decay weight is 0
    "dark": lambda: (pf.MirrorQubitParams(gamma=0.8, delta=-0.4),
                     pf.DriveSchedule(((0.2, 0.8, 3.0 - 1.0j),)),
                     pf.PhaseSchedule(((-math.inf, 1.0, PI), (1.0, math.inf, 0.5))), 0.0, 1.6,
                     np.arange(0.1, 1.6, 0.3)),
    # a detuning of 2.2e-311 over rows of five lengths and over one row of length 4
    "subnormal": lambda: (pf.MirrorQubitParams(delta=2.2e-311, gamma_nr=0.1), pf.DriveSchedule(()),
                          pf.PhaseSchedule.constant(0.0), 0.0, 2.0,
                          np.cumsum([0.1, 0.15, 0.2, 0.25, 0.3, 0.1, 0.2])),
    "long_row": lambda: (pf.MirrorQubitParams(delta=2.2e-311), pf.DriveSchedule(()),
                         pf.PhaseSchedule.constant(0.0), 0.0, 4.0, ()),
}


# two-level tables with free rows: the random `free_march_table`s and DRIVE_FREE
FREE_TABLES = {**{f"march_{seed}": lambda seed=seed: free_march_table(seed)
                  for seed in range(1, 5)},
               **{case: lambda case=case: drive_free_table(case)[:2] for case in DRIVE_FREE}}


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
        v, w = pf.core.coordinates(params.levels)
        for t, h, e in zip(table.t_a, table.h, table.steps(np.arange(len(table.t_a)))):
            gen = oracle_generator(params.gamma, oracles.phi_value(phase, t),
                                   alpha=oracles.alpha_value(drive, t),
                                   delta=params.delta, gamma_nr=params.gamma_nr)
            step = v @ e @ w
            assert np.max(np.abs(step - pf.sup_exp(gen, h).mat)) < 1e-13

    def test_three_level_step_matrices_match_oracle_exponentials(self):
        params = pf.MirrorQubitParams(levels=3, gamma02=0.2)
        drive = pf.DriveSchedule(((0.0, 0.8, 3.0 - 2.0j), (1.0, 1.5, 0.5j)))
        run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 2.0,
                          dt=0.05)
        table = run.pieces
        v, w = pf.core.coordinates(params.levels)
        for t, h, e in zip(table.t_a, table.h, table.steps(np.arange(len(table.t_a)))):
            gen = ladder_generator(params, oracles.alpha_value(drive, t))
            step = v @ e @ w
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
                assert np.max(np.abs(oracles.trace_row(d) @ gen)) <= 1e-13
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
        assert len(run.pieces.t_a) >= 2400
        assert len(calls) <= 3

    def test_flux_readout_exponentiates_each_driven_row_once(self, monkeypatch):
        # the beam-splitter readout: 4,001 rows, each compiled on its own, the
        # pulse's driven rows in one series call and the rest in closed form
        slices = []
        real = pf.dynamics.sup_exp

        def counting(lv, t):
            slices.append(len(t))
            return real(lv, t)

        params = pf.MirrorQubitParams(gamma=0.5)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        phase, grid = pf.PhaseSchedule.constant(0.0), np.linspace(0.0, 20.0, 4001)
        table = pf.dynamics._piece_table(params, drive, phase, 0.0, 20.0, grid)
        driven = np.count_nonzero(~table.free)
        assert len(table.t_a) > 4000 and 0 < driven < 100
        assert np.array_equal(table.free, table.alpha == 0)
        monkeypatch.setattr(pf.dynamics, "sup_exp", counting)
        pf.flux_series(params, drive, phase, grid)
        assert slices == [driven]

    def test_packet_release_looks_up_each_schedule_once(self, monkeypatch):
        # one lookup of the drive segments at every row; the ramp's rows read their step
        # from the merge of the cut, and the phase segments are read off the ramp only
        sizes, real = [], pf.dynamics._step_lookup

        def recording(starts, ends, t):
            sizes.append(np.size(t))
            return real(starts, ends, t)

        monkeypatch.setattr(pf.dynamics, "_step_lookup", recording)
        phase, rho0 = exponential_release()
        sched = replace(pf.PhaseSchedule.storage_release(0.9 * PI, 2.0, 8.0, PI / 2.0),
                        ramp=phase.ramp)
        run = pf.simulate(pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(((0.5, 1.5, 2.0),)),
                          sched, 20.0, rho0=rho0, dt=0.005)
        t_a = run.pieces.t_a
        off = (t_a < phase.ramp[0][0]) | (t_a >= phase.ramp[0][-1])
        assert sizes == [len(t_a), off.sum()] and 0 < off.sum() < 5 < 2400 < len(t_a)
        assert np.array_equal(run.pieces.phi, [oracles.phi_value(sched, t) for t in t_a])

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

    @pytest.mark.parametrize("case", sorted(DRIVE_FREE))
    def test_closed_form_steps_match_the_stacked_series(self, case):
        # a drive-free row's closed form against the series; a driven
        # row is the series' own slice, bit for bit
        params, table, free = drive_free_table(case)
        assert free.any() and free.all() == (case in ("dark", "long_row", "subnormal"))
        for g, h, e, f in zip(*table_generators(params, table), free):
            want = pf.sup_exp(g[None], h[None])[0]
            assert np.max(np.abs(e - want)) <= 1e-15 if f else np.array_equal(e, want)

    @pytest.mark.parametrize("case", sorted(FREE_TABLES))
    def test_assembled_free_steps_equal_the_stacked_closed_form(self, case):
        # a free row keeps its factors only; `steps` assembles its matrix as the
        # closed form on the stacked generators of every row does, bit for bit,
        # and a driven row's is the series of the driven rows alone
        params, table = FREE_TABLES[case]()
        c = pf.dynamics._line_coupling(params.gamma, table.phi)
        w = pf.dynamics._weights(params, table.phi, table.alpha, c).real
        gens, h = (w @ pf.dynamics._basis(2, True)).reshape(-1, 4, 4), table.h
        got, free = table.steps(np.arange(len(h))), table.free
        assert got[free].tobytes() == oracles.stacked_decay_steps(gens[free], h[free]).tobytes()
        assert table.driven.tobytes() == got[~free].tobytes()
        if not free.all():
            assert got[~free].tobytes() == pf.sup_exp(gens[~free], h[~free]).tobytes()
        if case.startswith("march"):
            # zero-length rows and a drive held at phi = pi, on a detuned, lossy emitter
            assert (free & (table.h == 0)).any()
            assert (free & (table.alpha != 0) & (table.phi == PI)).any()
            assert params.gamma_nr > 0 and params.delta != 0

    def test_packet_release_assembles_no_free_step(self, monkeypatch):
        # a packet release marches its free rows from their factors and reads
        # its flux from the channels: it asks for its pulse's step matrix only
        asked = []
        real = pf.PieceTable.steps

        def steps(table, rows):
            asked.append(table.free[rows].tolist())
            return real(table, rows)

        monkeypatch.setattr(pf.PieceTable, "steps", steps)
        for gamma, packet in ((1.0, pf.WavePacket.exponential(1.0, 8.0, duration=12.0)),
                              (1.5, pf.WavePacket.gaussian(12.8, 1.2, t_start=8.0))):
            result = pf.run_shaped_release(pf.MirrorQubitParams(gamma=gamma), release=packet)
            assert result.stats.probabilities[2:] == (0.0, 0.0)
        assert asked == [[False], [False]]

    @pytest.mark.parametrize("case", sorted(DRIVE_FREE))
    def test_closed_form_steps_keep_the_stacked_zeros(self, case):
        # the same entries are zero, each +0, so the chain's reach reads
        # the same pattern
        params, table, _ = drive_free_table(case)
        for g, h, e in zip(*table_generators(params, table)):
            want = pf.sup_exp(g[None], h[None])[0]
            assert np.array_equal(e == 0, want == 0)
            assert not np.signbit(e[e == 0]).any() and not np.signbit(want[want == 0]).any()

    def test_zero_length_rows_are_the_identity(self):
        phase = pf.PhaseSchedule.constant(2.0)  # a turning, decaying coherence
        for params in (pf.MirrorQubitParams(gamma=0.7, delta=-1.3, gamma_nr=0.2),
                       pf.MirrorQubitParams(delta=2.2e-311)):
            table = pf.dynamics._piece_table(params, pf.DriveSchedule(()), phase, 1.5, 1.5)
            assert table.h.tolist() == [0.0]
            assert table.steps([0]).tobytes() == np.eye(4)[None].tobytes()

    def test_packet_release_stacks_only_its_driven_row(self, monkeypatch):
        slices, sizes = [], []
        real_exp, real_compile = pf.dynamics.sup_exp, pf.dynamics._compile

        def counting(lv, t):
            slices.append(len(t))
            return real_exp(lv, t)

        def compiling(params, rows):
            tables = real_compile(params, rows)
            sizes.append(len(tables[0].free))
            stored.append((tables[0].driven.shape, np.shape(tables[0].decay)))
            return tables

        stored = []
        monkeypatch.setattr(pf.dynamics, "sup_exp", counting)
        monkeypatch.setattr(pf.dynamics, "_compile", compiling)
        packet = pf.WavePacket.exponential(1.0, 8.0, duration=12.0)
        result = pf.run_shaped_release(pf.MirrorQubitParams(gamma=1.0), release=packet)
        assert (slices, sizes) == ([1], [2403])
        # one driven step matrix; the 2,402 free rows keep their three factors each
        assert stored == [((1, 4, 4), (3, 2403))]
        # no drive in the release window: P2 and P3 stay the literal 0
        assert result.stats.probabilities[2:] == (0.0, 0.0)
        slices.clear()
        sizes.clear()
        pf.run_cascade(pf.MirrorQubitParams(levels=3, gamma02=0.35), 8.0)
        assert slices == sizes and len(sizes) == 1

    def test_non_finite_closed_form_raises(self):
        # a turn of 2 w1 h = inf, where no step matrix exists: compiling the
        # table raises, before any step is assembled or marched
        args = (pf.DriveSchedule(()), pf.PhaseSchedule.constant(0.0), 0.0, 4.0)
        with pytest.raises(FloatingPointError, match="not finite"):
            pf.dynamics._piece_table(pf.MirrorQubitParams(delta=1e308), *args)
        with pytest.raises(FloatingPointError, match="not finite"):
            pf.propagator(pf.MirrorQubitParams(delta=1e308), *args)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_coordinate_generators_annihilate_the_trace_exactly(self, levels):
        # row 0 of every basis superoperator is 0, so is every weighted sum's
        basis = pf.dynamics._basis(levels, True).reshape(-1, levels ** 2, levels ** 2)
        assert not basis[:, 0].any()

    @pytest.mark.parametrize("delta", [1e3, 1e12, 1e15, 1e50, 1e308])
    def test_driven_step_keeps_the_trace_at_any_detuning(self, delta):
        # the alpha0 = 5, gamma = 0.5 pulse slice (h = 0.0049867), whose
        # trace row once read 1.004987 at delta = 1e50: row 0 of its step
        # matrix is e_0 exactly, or compiling the run raises
        params = pf.MirrorQubitParams(gamma=0.5, delta=delta)
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 1.0, 1.0)
        try:
            run = pf.simulate(params, drive, pf.PhaseSchedule.constant(0.0), 4.0, dt=0.005)
        except FloatingPointError:
            return
        assert run.pieces.h[~run.pieces.free].tolist() == pytest.approx([0.0049867], abs=1e-7)
        assert run.pieces.driven[0][0].tolist() == [1.0, 0.0, 0.0, 0.0]


def free_march_table(seed):
    """A random two-level table of rows (t_a, t_b, n_steps, phi, alpha) on a
    detuned, lossy emitter: drive-free runs of long rows, one-step ramp rows
    and zero-length rows on both sides of a driven pulse, a drive on part of
    the ramp, and a drive held at the dark point phi = pi."""
    rng = np.random.default_rng(seed)
    params = pf.MirrorQubitParams(gamma=rng.uniform(0.3, 2.0), delta=rng.uniform(-2.0, 2.0),
                                  gamma_nr=rng.uniform(0.05, 0.5))
    ramp = np.linspace(2.0, 3.0, 21)
    phase = pf.PhaseSchedule(((-math.inf, 4.0, rng.uniform(0.0, 2.0 * PI)), (4.0, math.inf, PI)),
                             ramp=(ramp, rng.uniform(0.0, 2.0 * PI, 21)))
    drive = pf.DriveSchedule(tuple((a, b, complex(*rng.uniform(-4.0, 4.0, 2)))
                                   for a, b in ((1.0, 1.5), (2.5, 2.7), (4.5, 5.0))))
    _, t_a, t_b, phi, alpha, _, on_ramp = pf.dynamics._cut(
        [(drive, phase, 0.0, 6.0, [0.4, 0.7, 3.5, 5.5])])
    n = np.where(on_ramp, 1, rng.integers(1, 300, len(t_a)))
    # zero-length drive-free rows before the first row, the first pulse and two random rows
    pos = np.unique(np.concatenate([[0, np.searchsorted(t_a, 1.0)],
                                    rng.integers(1, len(t_a) + 1, 2)]))
    t = np.append(t_a, t_b[-1])[pos]
    rows = (np.insert(t_a, pos, t), np.insert(t_b, pos, t), np.insert(n, pos, 1),
            np.insert(phi, pos, np.append(phi, phi[-1])[pos]), np.insert(alpha, pos, 0.0))
    return params, pf.dynamics._compile([params], (np.zeros(len(rows[0]), dtype=int),) + rows)[0]


def march_oracle(table, v0):
    """`oracles.march_states` of a table from a coordinate state or matrix v0."""
    return oracles.march_states(SimpleNamespace(pieces=table, coords=v0[None], dim=2),
                                coords=True)


class TestFreeMarch:
    """Drive-free rows march by cumulative products (`dynamics._decay`)."""

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_closed_form_march_matches_the_step_by_step_march(self, seed):
        params, table = free_march_table(seed)
        free = table.free
        assert np.array_equal(free, (table.alpha == 0) | (table.phi == PI))
        # drive-free runs of zero-length, one-step ramp and long rows on both
        # sides of the first pulse, and a free drive at phi = pi
        pulse = np.flatnonzero(~free)[0]
        assert free[:pulse].all() and free[pulse + 1:].any() and not free.all()
        assert (table.h[free] == 0).any() and (table.n_steps[free] > 100).any()
        assert (free & (table.n_steps == 1) & (table.h > 0)).any()
        assert (free & (table.alpha != 0) & (table.phi == PI)).any()
        v0 = pf.dynamics._initial_state(params, pf.DensityMatrix(np.array([[0.3, 0.2 - 0.4j],
                                                                         [0.2 + 0.4j, 0.7]])))
        assert np.max(np.abs(pf.dynamics._march_table(table, v0) - march_oracle(table, v0))) < 4e-14
        got = pf.dynamics._march_table(table, np.eye(4))
        for j, e in enumerate(np.eye(4)):
            assert np.max(np.abs(got[..., j] - march_oracle(table, e))) < 4e-14

    def test_propagator_of_free_rows(self):
        # a matrix start through `propagator`: drive-free rows around a pulse
        params = pf.MirrorQubitParams(gamma=0.8, delta=0.6, gamma_nr=0.15)
        drive = pf.DriveSchedule(((1.0, 1.3, 2.0 + 1.0j), (2.0, 2.4, 3.0)))
        phase = pf.PhaseSchedule(((-math.inf, 2.0, 0.4), (2.0, 3.0, PI), (3.0, math.inf, 1.1)))
        table = pf.dynamics._piece_table(params, drive, phase, 0.0, 4.0)
        assert table.free.tolist() == [True, False, True, True, True, True]
        v, w = pf.core.coordinates(2)
        want = v @ march_oracle(table, np.eye(4))[-1] @ w
        got = pf.propagator(params, drive, phase, 0.0, 4.0).mat
        assert np.max(np.abs(got - want)) < 1e-15


def splitter_mode(run, r, amp_error=0.0, phase_error=0.0):
    """The run with its "line" channel replaced by the counting mode i r L + c(t)
    of a splitter of reflectivity r, c(t) = -i r alpha(t) (1 - (1 + amp_error)
    e^{i phase_error}), as `run_beam_splitter` counts."""
    table = run.pieces
    c = -1j * r * table.alpha * (1.0 - (1.0 + amp_error) * np.exp(1j * phase_error))
    line = 1j * r * table.channels["line"] + c[:, None, None] * np.eye(2)
    return replace(run, pieces=replace(table, channels={"line": line}))


def mismatched_splitter_run():
    """A beam-splitter run whose "line" channel is the counting mode
    i r L + c(t) of an amplitude- and phase-mismatched splitter: c(t) is
    zero outside the pulse, so its entries are zero on some rows only."""
    run = pf.simulate(pf.MirrorQubitParams(gamma=0.5),
                      pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0),
                      pf.PhaseSchedule.constant(0.0), 20.0, dt=0.005)
    return splitter_mode(run, 0.995, 0.02, 0.05)


class TestFluxReadout:
    def test_jump_rows_read_one_copy_of_the_entries(self):
        # the entry rows from one copy of the channel stack are the bytes of the two-copy
        # form: a packet release's line stack, a mismatched splitter's, a random
        # three-level stack, and a cascade's broadcast pump channel as chains concatenate it
        drive, phase, t1, t2 = CUT_CASES["exponential"]()
        release = pf.dynamics._piece_table(pf.MirrorQubitParams(), drive, phase, t1, t2)
        rng = np.random.default_rng(11)
        cascade = pf.simulate(pf.MirrorQubitParams(levels=3, gamma02=0.35),
                              pf.DriveSchedule.square_pi_pulse(8.0, 0.0, 0.7),
                              pf.PhaseSchedule.constant(0.0), 20.0).pieces.channels["pump"]
        stacks = (release.channels["line"], mismatched_splitter_run().pieces.channels["line"],
                  rng.normal(size=(30, 3, 3)) + 1j * rng.normal(size=(30, 3, 3)),
                  np.concatenate([cascade]))
        assert len(stacks[0]) > 2400 and cascade.strides[0] == 0
        for ops in stacks:
            for trace in (True, False):
                got = pf.dynamics._jump_rows(ops, trace)
                assert got.tobytes() == oracles.jump_rows_by_parts(ops, trace).tobytes()

    @pytest.mark.parametrize("make", [lambda: TABLE_RUNS["release"](), mismatched_splitter_run])
    def test_flux_matches_complex_ldl_route(self, make):
        run = make()
        got = pf.dynamics._flux(run.pieces, run.coords)
        want = oracles.ldl_flux(run.pieces, run.coords)
        assert got.shape == want.shape == run.times.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", range(1, 5))
    @pytest.mark.parametrize("kind", ["line", "splitter", "zero", "full"])
    def test_random_channels_share_the_jump_form(self, kind, seed):
        # random complex channels on a release's rows: the packet line
        # c sigma_minus, a splitter mode i r L + c(t) whose identity part is
        # zero on some rows, an all-zero channel and one with every entry live
        rng = np.random.default_rng(seed)
        run = TABLE_RUNS["release"]()
        p = len(run.pieces.t_a)
        c = rng.normal(size=p) + 1j * rng.normal(size=p)
        line = np.multiply.outer(c, [[0.0, 1.0], [0.0, 0.0]])
        ops = {"line": line,
               "splitter": 1j * 0.99 * line + np.multiply.outer(c * (rng.random(p) < 0.3),
                                                               np.eye(2)),
               "zero": np.zeros((p, 2, 2), dtype=complex),
               "full": rng.normal(size=(p, 2, 2)) + 1j * rng.normal(size=(p, 2, 2))}[kind]
        run.pieces = replace(run.pieces, channels={"line": ops})
        got = pf.dynamics._flux(run.pieces, run.coords)
        want = oracles.ldl_flux(run.pieces, run.coords)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        tr = (oracles.trace_row(2) @ pf.core.coordinates(2)[0]).real
        rows = tr @ pf.statistics._jumps([run], "line")
        by_jumps = np.einsum("ni,ni->n", run.pieces.per_point(rows), run.coords)
        assert np.max(np.abs(got - by_jumps)) <= 1e-15 * np.max(np.abs(by_jumps))
        if kind == "zero":
            assert not np.signbit(got).any() and not got.any()

    @pytest.mark.parametrize("params, phase", [
        (pf.MirrorQubitParams(gamma=0.0), pf.PhaseSchedule.constant(0.7)),
        (pf.MirrorQubitParams(gamma=1.3), pf.PhaseSchedule.constant(PI)),
    ])
    def test_a_decoupled_emitter_emits_plus_zero(self, params, phase):
        # Gamma = 0, or phi = pi throughout: a flux of exactly +0.0 from a
        # driven state with coherences of both signs
        rho0 = pf.DensityMatrix(np.array([[0.4, -0.3 + 0.2j], [-0.3 - 0.2j, 0.6]]))
        run = pf.simulate(params, pf.DriveSchedule(((0.5, 1.5, 2.0 - 1.0j),)), phase, 3.0,
                          rho0=rho0, dt=0.01)
        flux = pf.dynamics._flux(run.pieces, run.coords)
        assert (run.coords[:, 2:] < 0).any() and (run.coords[:, 2:] > 0).any()
        assert flux.shape == run.times.shape
        assert not np.signbit(flux).any() and not flux.any()


def packet_cut(packet, gamma, alpha0=8.0):
    """The drive, phase schedule and span of a packet release, as
    `run_shaped_release` builds them from t = 0 to 20."""
    drive = pf.DriveSchedule.square_pi_pulse(alpha0, 0.0, 2.0 * gamma)
    shaped = pf.shape_to_schedule(packet, gamma)
    phase = replace(pf.PhaseSchedule.storage_release(0.0, drive.segments[0][1], packet.start,
                                                     float(shaped.ramp[1][-1])),
                    ramp=shaped.ramp)
    return drive, phase, 0.0, 20.0


CUT_CASES = {
    "exponential": lambda: packet_cut(
        pf.WavePacket.exponential(1.0, 8.0, duration=12.0, dt=0.005), 1.0),
    "gaussian": lambda: packet_cut(
        pf.WavePacket.gaussian(12.8, 1.2, t_start=8.0, dt=0.005), 1.5),
}


class TestCut:
    """`_cut`'s rows against the sequential merge of `oracles.merge_breakpoints`."""

    @pytest.mark.parametrize("name", ["exponential", "gaussian", "random_ramp", "block_edges"])
    def test_rows_match_the_sequential_merge(self, name):
        if name in CUT_CASES:
            drive, phase, t1, t2 = CUT_CASES[name]()
        else:
            run = TABLE_RUNS[name]()
            drive, phase, t1, t2 = run.drive, run.phase, run.times[0], run.times[-1]
        cell, t_a, t_b, phi, alpha, segment, ramped = pf.dynamics._cut(
            [(drive, phase, t1, t2, ())])
        assert not cell.any()
        want_a, want_b, reads = oracles.merge_breakpoints(cut_points(drive, phase), t1, t2)
        assert np.array_equal(t_a, want_a) and np.array_equal(t_b, want_b)
        want = read_values(drive, phase, reads)
        assert np.array_equal(phi, want[0]) and np.array_equal(alpha, want[1])
        assert segment.tolist() == [-1 if k is None else k for k in want[2]]
        assert ramped.tolist() == [k is not None for k in want[3]]
        if phase.ramp is not None and name in CUT_CASES:
            assert len(t_a) > 1600

    def test_a_switch_merged_into_a_pulse_end_leaves_the_pulse(self):
        # a phase switch 5e-13 before the pulse's end starts the row that the end merges
        # into; that row reads past the end, so the pulse does not drive its 2 time units
        params, drive = pf.MirrorQubitParams(gamma=1.0), pf.DriveSchedule(((0.5, 1.0, 3.0),))
        near, at = (pf.PhaseSchedule(((-math.inf, s, PI / 2.0), (s, math.inf, 0.0)))
                    for s in (1.0 - 5e-13, 1.0))
        got, want = (pf.propagator(params, drive, ph, 0.0, 3.0).mat for ph in (near, at))
        assert np.max(np.abs(got - want)) < 1e-10
        got, want = (pf.photon_mtiples(pf.simulate(params, drive, ph, 3.0, dt=0.01))
                     for ph in (near, at))
        assert np.max(np.abs(np.subtract(got, want))) < 1e-6


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
        ramp = () if run.phase.ramp is None else run.phase.ramp[0]
        points = [x for seg in run.drive.segments + run.phase.segments for x in seg[:2]]
        points = [x for x in points + list(ramp) if t1 < x < t2]
        assert points
        assert set(points) <= set(run.times.tolist())

    def test_step_matrices_are_real_in_coordinates(self, table_run):
        # the complex vec-basis stack of every row, moved to coordinates
        table, params = table_run.pieces, table_run.params
        v, w = pf.core.coordinates(params.levels)
        gens = pf.dynamics._generators(params, table.phi, table.alpha)
        got = w @ pf.sup_exp(gens, table.h) @ v
        assert np.max(np.abs(got.imag)) <= 1e-15 * np.max(np.abs(got))
        steps = table.steps(np.arange(len(table.t_a)))
        assert steps.dtype == np.float64
        assert np.max(np.abs(steps - got.real)) < 1e-13

    @pytest.mark.parametrize("name", sorted(set(TABLE_RUNS) - {"three_level"}))
    def test_line_coupling_of_all_rows_holds_the_slots(self, name):
        # `_compile` evaluates c(phi) once over a cell's rows, and the rows'
        # weights read it there: the bits of c at any of those rows alone
        run = TABLE_RUNS[name]()
        table, params = run.pieces, run.params
        c = pf.dynamics._line_coupling(params.gamma, table.phi)
        line = table.channels["line"]
        assert line[:, 0, 1].tobytes() == c.tobytes()
        # the three other entries are +0 in both parts, whatever the sign of c
        dead = np.delete(line.reshape(len(c), 4), 1, axis=1)
        assert not dead.view(float).any() and not np.signbit(dead.view(float)).any()
        for rows in (np.flatnonzero(~table.free), np.arange(len(c))[1::3]):
            alone = pf.dynamics._line_coupling(params.gamma, table.phi[rows])
            assert np.array_equal(c[rows], alone)

    def test_states_derive_from_coords(self, table_run):
        v = pf.core.coordinates(table_run.dim)[0]
        assert table_run.coords.dtype == np.float64
        assert np.array_equal(table_run.states, table_run.coords @ v.T)
        assert "states" not in vars(table_run)

    def test_states_equal_sequential_march(self, table_run):
        want = oracles.march_states(table_run)
        assert np.max(np.abs(table_run.states - want)) < 1e-13

    def test_one_step_rows_march_bitwise(self):
        # with chunks of one row the scan is one product per one-step row,
        # as the oracle takes one per step; the run marches on first read.
        # The drive covers the whole ramp, so every row takes the scan
        with mock.patch.object(pf.dynamics, "_CHUNK", 1):
            run = pf.simulate(pf.MirrorQubitParams(gamma=0.7, gamma_nr=0.2),
                              pf.DriveSchedule(((0.0, 2.0, 2.0 - 1.0j),)),
                              random_ramp(np.random.default_rng(7), 0.0, 2.0, 200),
                              2.0, dt=0.05)
            run.coords
        assert run.pieces.n_steps.tolist() == [1] * 200
        assert not run.pieces.free.any()
        assert np.array_equal(run.coords, oracles.march_states(run, coords=True))

    def test_coords_march_once_on_first_read(self):
        with mock.patch.object(pf.dynamics, "_march_table",
                               wraps=pf.dynamics._march_table) as march:
            run = TABLE_RUNS["release"]()
            assert run.coords_at(0) is run.start
            assert march.call_count == 0
            first = run.coords
            assert run.coords is first
        assert march.call_count == 1
        assert np.array_equal(run.coords[0], run.start)
        assert np.array_equal(run.coords_at(7), run.coords[7])
        # a copy with its own table marches its own states
        assert "coords" not in vars(replace(run, pieces=run.pieces))

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

    def test_ramp_matches_ordered_step_product(self):
        # 300 one-step ramp rows, more than six chunks of the forward scan
        params = pf.MirrorQubitParams(gamma=0.7, gamma_nr=0.2)
        drive = pf.DriveSchedule(((0.5, 1.7, 2.0 - 1.0j),))
        phase = random_ramp(np.random.default_rng(8), 0.0, 3.0, 300)
        run = pf.simulate(params, drive, phase, 3.0, dt=0.05)
        assert run.pieces.n_steps.tolist() == [1] * 300
        want = np.eye(4)
        for e in oracles.grid_steps(run):
            want = e @ want
        got = pf.propagator(params, drive, phase, 0.0, 3.0).mat
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.array_equal(pf.propagator(params, drive, phase, 1.5, 1.5).mat,
                              np.eye(4, dtype=complex))

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
    def test_default_start_is_the_validated_ground_state(self):
        for levels in (2, 3):
            params = pf.MirrorQubitParams(levels=levels)
            got = pf.dynamics._initial_state(params, None)
            rho = pf.DensityMatrix.ground(levels)
            want = (pf.core.coordinates(levels)[1] @ pf.vec(rho)).real
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert np.array_equal(pf.dynamics._initial_state(params, rho.mat), want)

    @pytest.mark.parametrize("rho0", [None, np.diag([0.25, 0.0, 0.75])])
    def test_a_stack_shares_one_read_only_start(self, rho0):
        params = pf.MirrorQubitParams(levels=3)
        phase = pf.PhaseSchedule.constant(0.0)
        cells = [(params.with_(gamma02=g), pf.DriveSchedule(((0.0, 0.5, a),)), phase,
                  0.0, 2.0, 0.05) for g, a in ((0.05, 5.0), (0.2, 3.0), (0.5, 1.0))]
        runs = pf.dynamics._simulate(cells, rho0=rho0)
        want = pf.dynamics._initial_state(params, rho0)
        assert all(run.start is runs[0].start for run in runs)
        assert np.array_equal(runs[0].start, want)
        assert not runs[0].start.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            runs[0].start[0] = 0.0

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

    @pytest.mark.parametrize("steps", [math.nan, 2.5, True])
    def test_rejects_min_pulse_steps_that_are_not_integers(self, steps):
        # all used to pass silently; NaN refined nothing, as
        # min(dt, width / nan) is dt, and True ran as 1
        drive = pf.DriveSchedule.square_pi_pulse(5.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="min_pulse_steps must be an integer"):
            pf.simulate(pf.MirrorQubitParams(), drive,
                        pf.PhaseSchedule.constant(0.0), 2.0, min_pulse_steps=steps)


def stack_cells(levels):
    """Adversarial (params, drive, phase, t_start, t_end, dt) cells of one level count:
    spans that touch end to start, breakpoints within _CUT_TOL of other cells' points, a
    close run whose third point is kept, mixed dt and t_start, a ramp next to constant phases, a zero-amplitude
    drive segment, overlapping drive segments, a phase switch 0.5 _CUT_TOL before a pulse
    ends and a span shorter than _CUT_TOL."""
    tol, rng = pf.dynamics._CUT_TOL, np.random.default_rng(7 + levels)
    switch = 1.5 - 0.5 * tol
    if levels == 2:
        params = [pf.MirrorQubitParams(gamma=0.7, delta=0.3, gamma_nr=0.1),
                  pf.MirrorQubitParams(gamma=1.3, delta=-0.8), pf.MirrorQubitParams(gamma=1.0),
                  pf.MirrorQubitParams(gamma=0.9, gamma_nr=0.02),
                  pf.MirrorQubitParams(gamma=1.1, delta=0.4), pf.MirrorQubitParams()]
        phases = [pf.PhaseSchedule.storage_release(0.2, 1.0, 2.0, 1.1),
                  pf.PhaseSchedule(((-math.inf, 2.0 + 0.4 * tol, 0.5),
                                    (2.0 + 0.4 * tol, math.inf, PI))),
                  pf.PhaseSchedule(((-math.inf, math.inf, 0.4),), ramp=(
                      np.linspace(2.0, 3.0, 11), rng.uniform(0.0, 2.0 * PI, 11))),
                  pf.PhaseSchedule.constant(0.0),
                  pf.PhaseSchedule(((-math.inf, switch, 0.3), (switch, math.inf, 1.2))),
                  pf.PhaseSchedule.constant(2.5)]
    else:
        params = [pf.MirrorQubitParams(levels=3, gamma02=g)
                  for g in (0.05, 0.35, 0.2, 0.5, 0.25, 0.1)]
        phases = [pf.PhaseSchedule.constant(0.0)] * 6
        phases[2] = pf.PhaseSchedule(ramp=(np.linspace(2.0, 3.0, 11), np.zeros(11)))
        phases[4] = pf.PhaseSchedule(((-math.inf, switch, 0.0), (switch, math.inf, 0.0)))
    drives = [pf.DriveSchedule(((0.5, 1.0, 3.0 - 1.0j),)),
              pf.DriveSchedule(((2.0, 2.3, 0.0), (2.3 - 1e-16, 2.5, 4.0))),
              pf.DriveSchedule(((1.0 + 0.6 * tol, 1.0 + 1.2 * tol, 2.0), (2.5, 2.6, 1.0j))),
              pf.DriveSchedule.square_pi_pulse(6.0, 0.0, 1.0),
              pf.DriveSchedule(((1.0, 1.5, 3.0 + 0.5j),)), pf.DriveSchedule()]
    spans = [(0.0, 2.0, 0.01), (2.0, 4.0, 0.02), (1.0, 3.5, 0.05), (0.0, 3.0, 0.005),
             (0.5, 2.5, 0.01), (2.0, 2.0 + 0.5 * tol, 0.01)]
    return [(p, d, ph, *span) for p, d, ph, span in zip(params, drives, phases, spans)]


def one_step(rows):
    """`_compile`'s rows (cell, t_a, t_b, n_steps, phi, alpha) of `_cut` rows, one step
    each."""
    cell, t_a, t_b, phi, alpha, _, _ = rows
    return cell, t_a, t_b, np.ones(len(t_a), dtype=int), phi, alpha


def assert_cells_of_the_stack(stack, ones):
    """Each table of a stack is, field for field and bit for bit, its cell's one-cell table.
    A cell with no free row keeps no factors; in a stack with free rows it holds the
    unread factors of its driven rows."""
    for a, b in zip(stack, ones):
        for name in ("t_a", "t_b", "n_steps", "phi", "alpha", "free", "driven"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        if b.decay is None:
            assert not a.free.any()
        else:
            assert a.decay.tobytes() == b.decay.tobytes()
        assert a.channels.keys() == b.channels.keys()
        for k in b.channels:
            assert a.channels[k].tobytes() == b.channels[k].tobytes(), k
        rows = np.arange(len(b.t_a))
        assert a.steps(rows).tobytes() == b.steps(rows).tobytes()


class TestCellStack:
    """A stack of cells is cut and compiled in one pass, and each of its runs is, bit for
    bit, the cell's own one-cell run."""

    @pytest.mark.parametrize("levels", [2, 3])
    def test_stacked_runs_are_the_one_cell_runs(self, levels):
        cells = stack_cells(levels)
        runs = pf.dynamics._simulate(cells)
        ones = [pf.dynamics._simulate([cell])[0] for cell in cells]
        assert_cells_of_the_stack([r.pieces for r in runs], [r.pieces for r in ones])
        assert [r.drive_points for r in runs] == [r.drive_points for r in ones]
        assert len(ones[-1].pieces.t_a) == 1 and ones[-1].pieces.h[0] < pf.dynamics._CUT_TOL
        assert any(r.pieces.alpha.any() for r in ones) and ones[2].phase.ramp is not None

    @pytest.mark.parametrize("levels", [2, 3])
    def test_stacked_cuts_are_the_one_cell_cuts(self, levels):
        # zero-length spans and extra points too, through `_cut` and `_compile`
        cells = [(d, ph, t1, t1 if k % 2 else t2, [t1 + 0.3, t2 - 1e-13, 1.7])
                 for k, (_, d, ph, t1, t2, _) in enumerate(stack_cells(levels))]
        params = [c[0] for c in stack_cells(levels)]
        rows = pf.dynamics._cut(cells)
        ones = [pf.dynamics._cut([cell]) for cell in cells]
        assert rows[0].tolist() == [k for k, one in enumerate(ones) for _ in one[1]]
        for got, want in list(zip(rows, zip(*ones)))[1:]:
            assert got.dtype == want[0].dtype
            assert got.tobytes() == np.concatenate(want).tobytes()
        tables = pf.dynamics._compile(params, one_step(rows))
        assert_cells_of_the_stack(tables, [pf.dynamics._compile([p], one_step(one))[0]
                                           for p, one in zip(params, ones)])
        assert any(len(t.t_a) == 1 and t.h[0] == 0.0 for t in tables)
        # the row from the phase switch to the span's end reads past the pulse's end
        _, t_a, _, _, alpha, segment, _ = ones[4]
        p = np.searchsorted(t_a, 1.0)
        assert t_a[p + 1] == 1.5 - 0.5 * pf.dynamics._CUT_TOL
        assert (alpha[p + 1], segment[p + 1]) == (0.0, -1) and segment[p] == 0

    @pytest.mark.parametrize("levels", [2, 3])
    def test_driven_rows_step_within_their_segment(self, levels):
        # every row with a drive steps at most min(dt, width / min_pulse_steps) of the
        # drive segment its cut names, and a ramp row takes one step
        cells = stack_cells(levels)
        for steps in (20, 3):
            runs = pf.dynamics._simulate(cells, min_pulse_steps=steps)
            for (_, drive, phase, t1, t2, dt), run in zip(cells, runs):
                _, t_a, t_b, _, alpha, segment, ramped = pf.dynamics._cut(
                    [(drive, phase, t1, t2, ())])
                table = run.pieces
                assert np.array_equal(table.t_a, t_a) and np.array_equal(table.t_b, t_b)
                widths = np.array([e - s for s, e, _ in drive.segments] + [math.nan])
                bound = np.minimum(dt, widths[segment] / steps)
                driven = (alpha != 0) & ~ramped
                assert (segment[driven] >= 0).all()
                assert (table.h[driven] <= bound[driven]).all()
                assert (table.n_steps[ramped] == 1).all()

    def test_a_sweep_cuts_and_compiles_once(self):
        three = pf.MirrorQubitParams(levels=3)
        for sweep, cells in (
                (lambda: pf.sweep_cascade(three, (5.0, 6.0, 7.0, 8.0, 10.0),
                                          (0.05, 0.1, 0.2, 0.35, 0.5), t_end=4.0, dt=0.01), 25),
                (lambda: pf.sweep_nonradiative(pf.MirrorQubitParams(gamma=0.5), 7.0, 0.995,
                                               (0.0, 0.02, 0.05, 0.1, 0.2), t_end=4.0), 5)):
            with mock.patch.object(pf.dynamics, "_cut", wraps=pf.dynamics._cut) as cut, \
                    mock.patch.object(pf.dynamics, "_compile", wraps=pf.dynamics._compile) as comp:
                assert len(sweep()) == cells
            assert (cut.call_count, comp.call_count) == (1, 1)
            assert len(cut.call_args.args[0]) == len(comp.call_args.args[0]) == cells


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
        # no grid ends on a phase switch, so each point reads L at the phi of t
        rho0 = pf.DensityMatrix.from_ket([0.6, 0.8j])
        got = pf.flux_series(params, drive, phase, grid, rho0=rho0)
        want = []
        for t in grid:
            rho = pf.unvec(pf.propagator(params, drive, phase, grid[0], t).mat
                           @ pf.vec(rho0.mat), 2)
            op = oracles.output_coupling(params, oracles.phi_value(phase, t))
            want.append(np.trace(op.conj().T @ op @ rho).real)
        assert len(got) == len(grid)
        assert np.max(np.abs(got - np.array(want))) < 1e-12
