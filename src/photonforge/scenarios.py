"""Named end-to-end experiments built from the dynamics and statistics layers.

Each runner is a pure function from parameters to numbers; sweeps
return rows in grid order. Every scenario checks all its cells first,
then compiles them in one `_simulate`; a beam splitter counts and a
cascade correlates its cells in one chain, and a release counts each
cell from its flux, since its window holds no drive. `run_beam_splitter`,
`run_shaped_release` and `run_cascade` are one-cell stacks, sweeps and
the command line's lists longer ones.

The experiments:

* beam splitter: a square pi pulse drives the maximally coupled qubit
  (phi = 0); the emission interferes with the attenuated drive on an
  unbalanced splitter (reflectivity r) so the transmitted coherent
  background cancels, leaving the single-photon component. Counting
  statistics are taken in the splitter output mode.
* shaped release: prepare at low coupling (phi_i near pi), park in the
  dark point (phi = pi), then reopen the coupling at t_r, either at a
  constant phase or along a sampled ramp that shapes the released
  wave packet.
* cascade: a three-level ladder driven on the weak direct 0-2 line
  emits a photon pair (idler then signal); window-integrated
  cross-correlations quantify pair quality.
* flying-qubit encoding: optimize a single square drive segment so the
  emitted field carries a chosen superposition weight.
* cancellation budget: phasor algebra for how well two paths with
  amplitude, phase, or frequency mismatch can cancel.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, Union

import numpy as np

from .core import _check_count, sup_exp
from .dynamics import (
    DriveSchedule,
    MirrorQubitParams,
    PhaseSchedule,
    _GRID_TOL,
    _flux,
    _generators,
    _simulate,
    effective_coupling,
    pi_pulse_width,
)
from .statistics import (
    CrossPairResult,
    PhotonStatistics,
    _moments,
    _pair_correlations,
    _statistics,
    _windows,
)

__all__ = [
    "WavePacket",
    "minimal_sufficient_gamma",
    "shape_to_schedule",
    "BeamSplitterConfig",
    "run_beam_splitter",
    "ShapedReleaseResult",
    "run_shaped_release",
    "run_cascade",
    "sweep_cascade",
    "sweep_nonradiative",
    "sweep_wait_time",
    "FlyingQubitTarget",
    "EncodeResult",
    "encode_flying_qubit",
    "CancellationInputs",
    "CancellationOutcome",
    "cancellation_budget",
]


# ---------------------------------------------------------------------------
# wave packets and coupling schedules


def _check_positive(**values) -> None:
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")


def _check_finite(**values) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class WavePacket:
    """Target output envelope xi(t) on a time grid, normalized to unit power.

    grid holds absolute emission times; xi is the complex amplitude with
    Integral |xi|^2 dt = 1 (enforced on construction).
    """

    grid: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        xi = np.asarray(self.xi, dtype=complex)
        if grid.ndim != 1 or grid.shape != xi.shape:
            raise ValueError("packet needs matching 1d grid and amplitude arrays")
        if len(grid) < 3:
            raise ValueError(f"packet support holds {len(grid)} grid points, "
                             "fewer than 3")
        if not (np.isfinite(grid).all() and np.isfinite(xi).all()):
            raise ValueError("packet grid and amplitudes must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("packet grid must be strictly increasing")
        with np.errstate(over="ignore"):  # an overflow raises below
            power = np.trapezoid(np.abs(xi) ** 2, grid)
        if not power > 0:
            raise ValueError("packet has no power")
        if not power < math.inf:
            raise ValueError(f"packet power {power} is not finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "xi", xi / math.sqrt(power))

    @classmethod
    def exponential(cls, kappa: float, t_start: float,
                    duration: Optional[float] = None,
                    dt: float = 0.005) -> "WavePacket":
        """One-sided decaying exponential, |xi|^2 ~ e^{-kappa (t-t0)}.

        The hard cutoff at t_start + duration makes the required
        coupling diverge at the end; the scheduler clips it there.
        """
        _check_positive(kappa=kappa, dt=dt)
        if duration is None:
            duration = 12.0 / kappa
        _check_positive(duration=duration)
        _check_finite(t_start=t_start)
        grid = np.arange(t_start, t_start + duration + dt / 2, dt)
        xi = np.exp(-kappa * (grid - t_start) / 2.0).astype(complex)
        return cls(grid, xi)

    @classmethod
    def gaussian(cls, center: float, width: float,
                 t_start: Optional[float] = None,
                 dt: float = 0.005) -> "WavePacket":
        """Gaussian intensity profile of standard deviation `width`.

        |xi(t)|^2 ~ exp(-(t-center)^2 / (2 width^2)) on a support from
        t_start (default center - 4 width) to center + 4 width.
        """
        _check_positive(width=width, dt=dt)
        _check_finite(center=center)
        if t_start is None:
            t_start = center - 4.0 * width
        _check_finite(t_start=t_start)
        grid = np.arange(t_start, center + 4.0 * width + dt / 2, dt)
        xi = np.exp(-((grid - center) ** 2) / (4.0 * width ** 2)).astype(complex)
        return cls(grid, xi)

    @property
    def start(self) -> float:
        return float(self.grid[0])

    @property
    def end(self) -> float:
        return float(self.grid[-1])

    def intensity(self) -> np.ndarray:
        """|xi|^2, whose trapezoid over the grid is 1 to rounding."""
        return np.abs(self.xi) ** 2


def _release_rate(packet: WavePacket) -> np.ndarray:
    """Required coupling Gamma_eff(t) = |xi|^2 / Integral_t^end |xi|^2."""
    xi2 = packet.intensity()
    strips = 0.5 * (xi2[1:] + xi2[:-1]) * np.diff(packet.grid)
    tail = np.concatenate([np.cumsum(strips[::-1])[::-1], [0.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(tail > 0, xi2 / tail, np.inf)
    return rate


def _check_budget(clip_budget: float) -> None:
    if not 0.0 <= clip_budget < 1.0:
        raise ValueError(f"clip_budget must lie in [0, 1), got {clip_budget}")


def minimal_sufficient_gamma(packet: WavePacket,
                             clip_budget: float = 0.01) -> float:
    """Smallest line rate whose 2*Gamma ceiling clips at most the budget.

    Sorts the required rates descending and walks the cumulative packet
    mass, in the grid-trapezoid weights that `shape_to_schedule` clips
    with, until the budget is spent; the rate at that point, halved, is
    the answer.
    """
    _check_budget(clip_budget)
    rate = _release_rate(packet)
    order = np.argsort(rate)[::-1]
    w = np.gradient(packet.grid)
    w[[0, -1]] /= 2.0
    w = packet.intensity() * w
    cum = np.cumsum(w[order])
    idx = min(int(np.searchsorted(cum, clip_budget)), len(cum) - 1)
    return float(rate[order][idx] / 2.0)


def shape_to_schedule(packet: WavePacket, gamma: float,
                      clip_budget: float = 0.01) -> PhaseSchedule:
    """Phase ramp phi(t) releasing the stored excitation as `packet`.

    Inverts Gamma_eff(phi) = Gamma (1 + cos phi) against the required
    release rate; rates above the 2*Gamma ceiling are clipped, and if
    the clipped packet mass exceeds `clip_budget` the packet is
    declared unreachable at this Gamma.
    """
    _check_positive(gamma=gamma)
    _check_budget(clip_budget)
    grid, xi2 = packet.grid, packet.intensity()
    rate = _release_rate(packet)
    clip_mass = float(np.trapezoid(np.where(rate > 2.0 * gamma, xi2, 0.0), grid))
    if clip_mass > clip_budget:
        need = minimal_sufficient_gamma(packet, clip_budget)
        cure = (f"a line rate of at least {need:.4g} would suffice"
                if math.isfinite(need) else
                "no finite line rate keeps the clipped mass within the budget")
        raise ValueError(
            f"packet needs coupling above 2*gamma over {clip_mass:.3g} of its "
            f"norm (budget {clip_budget:.3g}); {cure}")
    rate_c = np.clip(rate, 0.0, 2.0 * gamma)
    phi = np.arccos(np.clip(rate_c / gamma - 1.0, -1.0, 1.0))
    t0, t1 = float(grid[0]), float(grid[-1])
    return PhaseSchedule(
        segments=((-math.inf, t0, math.pi), (t1, math.inf, float(phi[-1]))),
        ramp=(grid, phi),
        clip_fraction=clip_mass,
    )


# ---------------------------------------------------------------------------
# beam-splitter single-photon source


@dataclass(frozen=True)
class BeamSplitterConfig:
    """Unbalanced splitter extracting the emission from the drive path.

    The cancellation tone on the transmitted port is derived from
    (r, alpha_in), so it is exact unless the mismatch knobs
    amp_error / phase_error are set. Every field must be finite.
    """

    r: float = 0.995
    alpha0: complex = 5.0
    t0: float = 0.0
    t_end: float = 20.0
    dt: float = 0.005
    amp_error: float = 0.0
    phase_error: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not cmath.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not (0.0 < self.r <= 1.0):
            raise ValueError("reflectivity r must be in (0, 1]")
        if abs(self.alpha0) <= 0:
            raise ValueError("alpha0 must be nonzero")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")


def run_beam_splitter(params: MirrorQubitParams, config: BeamSplitterConfig,
                      cutoff: int = 3) -> PhotonStatistics:
    """Counting statistics of the splitter output over [t0, t_end].

    The counting mode, which replaces the run's "line" channel, is
    M(t) = i r L + c(t) with the residual drive
    c(t) = -i r alpha_in(t) (1 - (1 + eps) e^{i delta}), read per piece
    of the run like L, so both switch together at the pulse end; with
    perfect matching c vanishes and the statistics are the bare emission
    scaled by r^2 per photon order. This is the one-cell `_beam_splitter`.
    """
    return _beam_splitter([(params, config)], cutoff)[0]


def _beam_splitter(cells, cutoff: int) -> list:
    """`run_beam_splitter` of (params, config) cells, all checked first,
    then simulated as one stack and counted with one chain."""
    _check_count("cutoff", cutoff)
    if not cells:
        return []
    stack, phase = [], PhaseSchedule.constant(0.0)
    for params, config in cells:
        if params.levels != 2:
            raise ValueError("the beam-splitter source is a two-level scenario")
        geff = effective_coupling(params.gamma, 0.0)
        drive = DriveSchedule.square_pi_pulse(config.alpha0, config.t0, geff)
        stack.append((params, drive, phase, config.t0, config.t_end, config.dt))
    runs = []
    for run, (_, config) in zip(_simulate(stack), cells):
        mismatch = 1.0 - (1.0 + config.amp_error) * np.exp(1j * config.phase_error)
        c = -1j * config.r * run.pieces.alpha * mismatch
        line = 1j * config.r * run.pieces.channels["line"] + c[:, None, None] * np.eye(2)
        runs.append(replace(run, pieces=replace(run.pieces, channels={"line": line})))
    windows = _windows(runs, [None] * len(runs), cutoff)
    return _statistics(runs, windows, _moments(runs, windows, cutoff))


# ---------------------------------------------------------------------------
# shaped release


@dataclass
class ShapedReleaseResult:
    """Release statistics plus the full-timeline flux and phase traces."""

    stats: PhotonStatistics
    times: np.ndarray
    flux: np.ndarray
    phase: np.ndarray
    p_exc: np.ndarray
    p_exc_at_release: float
    emitted_fraction: float
    clip_fraction: float = 0.0
    flux_match_l2: Optional[float] = None


def run_shaped_release(params: MirrorQubitParams, *, alpha0: complex = 5.0,
                       phi_i: float = 0.9 * math.pi, t0: float = 1.0,
                       t_r: float = 8.0, t_end: float = 20.0,
                       release: Union[float, WavePacket] = math.pi / 2,
                       cutoff: int = 3, dt: float = 0.005,
                       clip_budget: float = 0.01) -> ShapedReleaseResult:
    """Prepare at phi_i, store at the dark point, release at t_r.

    `release` is one of two kinds: a constant phase, or a target
    WavePacket (converted to a phase ramp); `simulate` and
    `counting_statistics` run any other phase schedule. Counting covers
    [t_r, t_end], or a packet's support; that window holds no drive, so
    N_1 is the grid trapezoid of the flux there and N_2.. are 0. This is
    the one-cell `_release`.
    """
    return _release(params, [(alpha0, t_r, t_end)], phi_i=phi_i, t0=t0, release=release,
                    cutoff=cutoff, dt=dt, clip_budget=clip_budget)[0]


def _release(params: MirrorQubitParams, cells, *, phi_i: float, t0: float, release,
             cutoff: int, dt: float, clip_budget: float) -> list:
    """`run_shaped_release` of (alpha0, t_r, t_end) cells, all checked
    first (`_windows` too), then simulated as one stack; each cell counts
    from its flux. A drive-free two-level emitter emits at most one photon,
    and the window [t_r, t_end] holds no drive, as
    `PhaseSchedule.storage_release` rejects t_r < t_store: N_1 is the
    flux's grid trapezoid over the window and N_2.. the literal 0. A
    packet is shaped once, after the first cell's packet checks."""
    if params.levels != 2:
        raise ValueError("shaped release is a two-level scenario")
    _check_finite(t0=t0)
    _check_count("cutoff", cutoff)
    if not cells:
        return []
    packet = release if isinstance(release, WavePacket) else None
    stack, windows, shaped = [], [], None
    for alpha0, t_r, t_end in cells:
        if not t_r < t_end:
            raise ValueError(f"t_end = {t_end} must exceed the release time t_r = {t_r}")
        drive = DriveSchedule.square_pi_pulse(alpha0, t0,
                                              effective_coupling(params.gamma, phi_i))
        t_store = drive.segments[0][1]
        if packet is None:
            sched = PhaseSchedule.storage_release(phi_i, t_store, t_r, float(release))
        else:
            if abs(packet.start - t_r) > _GRID_TOL:
                raise ValueError(
                    f"packet starts at {packet.start}, not at the release "
                    f"time {t_r}; rebuild it on the release window")
            if packet.end > t_end + _GRID_TOL:
                warnings.warn(
                    "release window ends before the packet support; the tail "
                    "will be clipped", stacklevel=3)
            shaped = shaped or shape_to_schedule(packet, params.gamma, clip_budget)
            # the last ramp phase holds from t_r on, outside the ramp's span
            sched = replace(PhaseSchedule.storage_release(phi_i, t_store, t_r,
                                                          float(shaped.ramp[1][-1])),
                            ramp=shaped.ramp, clip_fraction=shaped.clip_fraction)
        stack.append((params, drive, sched, 0.0, t_end, dt))
        # packet releases count over the packet support only
        windows.append((t_r, t_end if packet is None else min(t_end, packet.end)))
    runs = _simulate(stack)
    windows = _windows(runs, windows, cutoff)
    out = []
    for run, (i0, i1) in zip(runs, windows):
        # p_exc = rho_11 (coordinate 1, the second population); the flux
        # reads each point's line channel as counting does
        table = run.pieces
        p_exc = run.coords[:, 1]
        flux = _flux(table, run.coords)
        # N_1, the emitted fraction, is the flux's grid trapezoid over the window
        wgrid = run.times[i0:i1 + 1]
        emitted = float(np.trapezoid(flux[i0:i1 + 1], wgrid))
        stats, = _statistics([run], [(i0, i1)], [[emitted] + [0.0] * (cutoff - 1)])
        l2 = None
        if packet is not None:
            target = np.interp(wgrid, packet.grid, packet.intensity())
            fn = flux[i0:i1 + 1] / emitted
            l2 = float(math.sqrt(np.trapezoid((fn - target) ** 2, wgrid) /
                                 np.trapezoid(target ** 2, wgrid)))
        out.append(ShapedReleaseResult(
            stats=stats, times=run.times, flux=flux, phase=table.per_point(table.phi),
            p_exc=p_exc, p_exc_at_release=float(p_exc[i0]), emitted_fraction=emitted,
            clip_fraction=run.phase.clip_fraction, flux_match_l2=l2))
    return out


# ---------------------------------------------------------------------------
# cascaded pair source


def run_cascade(params: MirrorQubitParams, alpha_d: float,
                t_end: float = 20.0, dt: float = 0.005) -> CrossPairResult:
    """Drive the 0-2 line with a pi pulse; integrate pair correlations.

    The pulse width ties to alpha_d through the effective (doubled) 0-2
    rate; alpha_d = 0 means no drive and an empty output. A drive needs
    gamma02 > 0. This is the one-cell `sweep_cascade`.
    """
    return _cascade(params, [(alpha_d, params.gamma02)], t_end, dt)[0]


def sweep_cascade(params: MirrorQubitParams, alpha_d_values: Sequence[float],
                  gamma02_values: Sequence[float], t_end: float = 20.0,
                  dt: float = 0.005) -> list:
    """Pair quality over the (alpha_d, gamma02) grid.

    Returns rows (alpha_d, gamma02, CrossPairResult) in row-major grid
    order. Every cell is checked before any runs; the driven cells are
    compiled and chained as one stack, each row bit for bit its
    `run_cascade`.
    """
    cells = [(a, g) for a in alpha_d_values for g in gamma02_values]
    return [(a, g, res) for (a, g), res in zip(cells, _cascade(params, cells, t_end, dt))]


def _cascade(params: MirrorQubitParams, cells, t_end: float, dt: float) -> list:
    """CrossPairResults of (alpha_d, gamma02) cells, all checked first."""
    if params.levels != 3:
        raise ValueError("the cascade source needs levels=3")
    driven, phase = [], PhaseSchedule.constant(0.0)
    for alpha_d, gamma02 in cells:
        if not 0 <= alpha_d < math.inf:
            raise ValueError(f"alpha_d must be finite and nonnegative, got {alpha_d}")
        p = params.with_(gamma02=gamma02)
        if alpha_d > 0:
            if gamma02 == 0:
                raise ValueError("gamma02 must be positive to drive the 0-2 line at "
                                 f"alpha_d = {alpha_d}, got {gamma02}")
            drive = DriveSchedule.square_pi_pulse(alpha_d, 0.0, 2.0 * gamma02)
            driven.append((p, drive, phase, 0.0, t_end, dt))
    pairs = iter(_pair_correlations(_simulate(driven)) if driven else ())
    return [next(pairs) if alpha_d > 0 else CrossPairResult(g_ii=0.0, g_ss=0.0, g_is=0.0)
            for alpha_d, _ in cells]


# ---------------------------------------------------------------------------
# loss and storage-time budget sweeps


def sweep_nonradiative(params: MirrorQubitParams, alpha0: complex, r: float,
                       gamma_nr_values: Sequence[float], cutoff: int = 3,
                       t0: float = 0.0, t_end: float = 20.0,
                       dt: float = 0.005) -> list:
    """Beam-splitter source quality against the non-radiative rate."""
    config = BeamSplitterConfig(r=r, alpha0=alpha0, t0=t0, t_end=t_end, dt=dt)
    cells = [(params.with_(gamma_nr=gnr), config) for gnr in gamma_nr_values]
    return list(zip(gamma_nr_values, _beam_splitter(cells, cutoff)))


def sweep_wait_time(params: MirrorQubitParams, alpha0: complex,
                    gamma_nr: float, phi_r: float,
                    t_wait_values: Sequence[float], *,
                    phi_i: float = 0.9 * math.pi, t0: float = 1.0,
                    window: float = 20.0, cutoff: int = 3,
                    dt: float = 0.005) -> list:
    """Stored-excitation survival against the dark-storage duration.

    Each row stores for t_wait after the preparation pulse, releases at
    phi_r, and counts over a window of fixed length.
    """
    p = params.with_(gamma_nr=gamma_nr)
    pulse = DriveSchedule.square_pi_pulse(alpha0, t0, effective_coupling(p.gamma, phi_i))
    t_store = pulse.segments[0][1]
    cells = [(alpha0, t_store + t_wait, t_store + t_wait + window) for t_wait in t_wait_values]
    return list(zip(t_wait_values, _release(p, cells, phi_i=phi_i, t0=t0, release=phi_r,
                                            cutoff=cutoff, dt=dt, clip_budget=0.01)))


# ---------------------------------------------------------------------------
# flying-qubit encoding


@dataclass(frozen=True)
class FlyingQubitTarget:
    """Superposition weight mu|0> + nu|1> carried by the emitted field."""

    mu: complex
    nu: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.mu) and cmath.isfinite(self.nu)):
            raise ValueError(f"target amplitudes must be finite, got {self.mu}, {self.nu}")
        norm = math.hypot(abs(self.mu), abs(self.nu))
        if abs(norm * norm - 1.0) > 1e-10:
            raise ValueError(f"target norm {norm} is not 1; use .of() to normalize")

    @classmethod
    def of(cls, mu: complex, nu: complex) -> "FlyingQubitTarget":
        norm = math.hypot(abs(mu), abs(nu))
        if norm == 0:
            raise ValueError("target amplitudes are both zero")
        return cls(complex(mu) / norm, complex(nu) / norm)


@dataclass
class EncodeResult:
    """Optimized preparation pulse and its achieved fidelity."""

    schedule: DriveSchedule
    delta: float
    alpha: complex
    t_w: float
    fidelity: float
    final_state: np.ndarray


def _encode_objective(params: MirrorQubitParams, phi: float, alpha_max: float,
                      target: FlyingQubitTarget):
    """t_w -> (1 - F, dF/dt_w, d2F/dt_w2, vec rho) over an array of widths t_w
    of the square segment at |alpha| = alpha_max and the detuning of params
    that loads rho from ground.

    rho is that of arg alpha = 0; a drive phase theta turns rho_01 into
    rho_01 e^{-i theta} and keeps the populations, so at its best theta
    F = |mu|^2 rho_00 + |nu|^2 rho_11 + 2 |mu| |nu| |rho_01|. The width
    derivatives read rho' = L rho and rho'' = L^2 rho.
    """
    lv = _generators(params, [phi], [alpha_max])[0]
    a, b = abs(target.mu) ** 2, abs(target.nu) ** 2
    c = 2.0 * abs(target.mu) * abs(target.nu)

    def objective(t_w):
        t_w = np.asarray(t_w, dtype=float)
        rho = sup_exp(np.broadcast_to(lv, t_w.shape + lv.shape), t_w)[:, :, 0]
        s = np.array([rho, rho @ lv.T, rho @ lv.T @ lv.T])  # rho, rho', rho''
        # rho_01 and its derivatives; |rho_01|, whose derivatives are taken as 0
        # where it is 0, as at a full Rabi turn without loss
        z, m = s[..., 2], np.abs(rho[:, 2])
        m1 = np.divide((z[0].conj() * z[1]).real, m, out=np.zeros_like(m), where=m > 0)
        m2 = np.divide((z[0].conj() * z[2]).real + np.abs(z[1]) ** 2 - m1 * m1, m,
                       out=np.zeros_like(m), where=m > 0)
        f = (a * s[..., 0] + b * s[..., 3]).real + c * np.array([m, m1, m2])
        return 1.0 - f[0], -f[1], -f[2], rho

    return objective


def encode_flying_qubit(target: FlyingQubitTarget, params: MirrorQubitParams,
                        *, phi: float = 0.9 * math.pi,
                        alpha_max: float = 10.0,
                        anharmonicity: Optional[float] = None) -> EncodeResult:
    """Find (detuning, amplitude, phase, width) loading the target state.

    One square segment at the amplitude ceiling, detuned by exactly the
    level shift lambda = (Gamma/2) sin phi, about which the fidelity is
    even (encode sets delta itself, so `params.delta` must be 0); the
    drive phase only turns rho_01, so it is set in closed form to line
    rho_01 up with the target's phase. Only the width t_w is searched: a
    161-point scan of [1e-6, 4] pi-pulse widths, then a safeguarded Newton
    refine inside the best point's bracket. The residual infidelity scales
    with Gamma_eff * t_w, so larger amplitude budgets encode more faithfully.
    """
    if params.levels != 2:
        raise ValueError("encoding is a two-level scenario")
    if params.delta != 0:
        raise ValueError("encode sets delta to lambda = (gamma/2) sin phi; params.delta "
                         f"must be 0, got {params.delta}")
    _check_positive(alpha_max=alpha_max)
    geff = effective_coupling(params.gamma, phi)
    if geff <= 0:
        raise ValueError(f"Gamma_eff(phi) = gamma (1 + cos phi) is 0 at gamma = {params.gamma}, "
                         f"phi = {phi}, which decouples the emitter; nothing can be encoded")

    if abs(target.nu) < 1e-9:
        return EncodeResult(schedule=DriveSchedule(()), delta=0.0, alpha=0.0,
                            t_w=0.0, fidelity=1.0,
                            final_state=np.diag([1.0 + 0j, 0.0]))

    params = params.with_(delta=(params.gamma / 2.0) * math.sin(phi))
    objective = _encode_objective(params, phi, alpha_max, target)
    grid = np.linspace(1e-6, 4.0, 161) * pi_pulse_width(alpha_max, geff)
    k = int(np.argmin(objective(grid)[0]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    # Newton on dF/dt_w = 0, bisecting where a step leaves the bracket
    step = grid[k]
    for _ in range(100):
        t_w = float(step)
        infid, d1, d2, rho = (v[0] for v in objective([t_w]))
        lo, hi = (lo, t_w) if d1 > 0 else (t_w, hi)
        step = t_w - d1 / d2 if d2 > 0 else math.nan
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(step - t_w) <= 1e-15 * t_w:
            break

    # rho_01 of arg alpha = theta is rho_01 e^{-i theta}
    theta = cmath.phase(np.conj(target.mu) * target.nu * rho[2])
    alpha = alpha_max * cmath.exp(1j * theta)
    turn = np.exp(1j * theta * np.array([0.0, 1.0, -1.0, 0.0]))

    rabi = 2.0 * alpha_max * math.sqrt(geff)
    if anharmonicity is not None and rabi >= anharmonicity:
        warnings.warn(
            f"drive strength {rabi:.4g} reaches the anharmonicity "
            f"{anharmonicity:.4g}; leakage outside the qubit space is "
            "not modeled", stacklevel=2)

    return EncodeResult(
        schedule=DriveSchedule(((0.0, t_w, alpha),)),
        delta=params.delta, alpha=alpha, t_w=t_w,
        fidelity=1.0 - float(infid), final_state=(rho * turn).reshape((2, 2), order="F"),
    )


# ---------------------------------------------------------------------------
# two-path cancellation budget


@dataclass(frozen=True)
class CancellationInputs:
    """Phasor description of two interfering emission paths.

    Path 1 (amplitude a1, emission phase phi1, frequency omega1) picks
    up the propagation phase `phi`; path 2 joins with (a2, phi2,
    omega2). tau1/tau2 are the path transmissions.
    """

    a1: float
    a2: float
    phi1: float = 0.0
    phi2: float = math.pi
    omega1: float = 0.0
    omega2: float = 0.0
    phi: float = 0.0
    tau1: float = 1.0
    tau2: float = 1.0

    def __post_init__(self):
        _check_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        if self.a1 <= 0:
            raise ValueError("reference amplitude a1 must be positive")
        if self.a2 < 0:
            raise ValueError("a2 must be nonnegative")
        if not (0.0 < self.tau1 <= 1.0):
            raise ValueError("reference transmission tau1 must lie in (0, 1]")
        if not (0.0 <= self.tau2 <= 1.0):
            raise ValueError("tau2 must lie in [0, 1]")

    @classmethod
    def matched(cls, a1: float = 1.0, phi1: float = 0.0, omega: float = 0.0,
                phi: float = 0.0, n: int = 1, tau1: float = 1.0,
                tau2: float = 1.0) -> "CancellationInputs":
        """Inputs satisfying the exact cancellation conditions."""
        if tau2 <= 0:
            raise ValueError("tau2 must be positive for a matched pair")
        return cls(a1=a1, a2=a1 * tau1 / tau2,
                   phi1=phi1, phi2=phi1 + phi + (2 * n - 1) * math.pi,
                   omega1=omega, omega2=omega, phi=phi,
                   tau1=tau1, tau2=tau2)


@dataclass(frozen=True)
class CancellationOutcome:
    residual_ratio: float
    residual_db: float
    beat: bool


def cancellation_budget(inputs: CancellationInputs) -> CancellationOutcome:
    """Residual field after two-path interference, relative to path 1.

    Equal frequencies give the static phasor sum; detuned paths cannot
    cancel and the worst point of the beat envelope is reported.
    """
    ref = inputs.tau1 * inputs.a1
    if inputs.omega1 == inputs.omega2:
        resid = abs(inputs.tau1 * inputs.a1 * np.exp(1j * (inputs.phi1 + inputs.phi))
                    + inputs.tau2 * inputs.a2 * np.exp(1j * inputs.phi2))
        ratio = resid / ref
        beat = False
    else:
        ratio = (inputs.tau1 * inputs.a1 + inputs.tau2 * inputs.a2) / ref
        beat = True
    db = 20.0 * math.log10(ratio) if ratio > 0 else -math.inf
    return CancellationOutcome(residual_ratio=float(ratio),
                               residual_db=float(db), beat=beat)
