"""Dynamics of a driven emitter coupled to a semi-infinite transmission line.

The emitter sits at distance d from the reflecting end of the line; the
round-trip phase phi of the reflected field sets an effective coupling

    Gamma_eff(phi) = Gamma (1 + cos phi),

tunable between 0 (phi = pi, emitter decoupled) and 2 Gamma (phi = 0).
In the rotating frame of the drive the master equation is

    rho' = -i[H, rho] + D[L] rho + Gamma_nr D[sigma_minus] rho
    H = ((Delta - (Gamma/2) sin phi)/2) sigma_z
        - i (alpha e^{i phi} L^dag - h.c.)
    L = sqrt(Gamma_eff(phi)) e^{i phi/2} sigma_minus

with sigma_z = |0><0| - |1><1| in the (ground, excited) basis. Drives
alpha(t) and phases phi(t) are piecewise constant (plus sampled ramps),
so propagation is an ordered product of constant-segment matrix
exponentials. A run is compiled once: every piece's generator is a
weighted sum of a few superoperators fixed per level count (D[sigma_minus]
with weight Gamma_eff(phi) + Gamma_nr, the sigma_z commutator with weight
(Delta - (Gamma/2) sin phi)/2, and the two drive quadratures), and the
distinct (phi, alpha, step) pieces are exponentiated in one stacked call.
A simulated run is its piece table, one row per constant piece with
each output channel's collapse operator on that row, plus the states on
the grid the rows span, one product per one-step row and stacked
powers of its step matrix for a longer row.

A three-level variant (levels=3) models a ladder 0-1-2 at the end of
the line with phi = 0: every transition couples at its doubled
effective rate 2*Gamma_ab, and the drive addresses the weak direct 0-2
transition only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import (
    DensityMatrix,
    Operator,
    Superoperator,
    _as_matrix,
    dissipator,
    liouvillian,
    lowering_op,
    sup_exp,
    vec,
)

__all__ = [
    "MirrorQubitParams",
    "DriveSchedule",
    "PhaseSchedule",
    "effective_coupling",
    "pi_pulse_width",
    "build_liouvillian",
    "channel_couplings",
    "propagator",
    "flux_series",
    "simulate",
    "PieceTable",
    "ScenarioRun",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MirrorQubitParams:
    """Physical parameters; rates in units of the full-line rate Gamma.

    Only the detuning Delta and the phase phi enter the model; bare
    transition and drive frequencies never appear individually. For
    levels=3 the three ladder rates are in units of gamma01, and delta
    and gamma_nr, which that model does not carry, must be zero.
    """

    gamma: float = 1.0
    delta: float = 0.0
    gamma_nr: float = 0.0
    levels: int = 2
    gamma01: float = 1.0
    gamma12: float = 2.0
    gamma02: float = 0.05

    def __post_init__(self):
        if self.levels not in (2, 3):
            raise ValueError(f"levels must be 2 or 3, got {self.levels}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        for name in ("gamma", "gamma_nr", "gamma01", "gamma12", "gamma02"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)}")
        for name in ("delta", "gamma_nr") if self.levels == 3 else ():
            if getattr(self, name) != 0:
                raise ValueError(f"{name} is not modeled for the three-level ladder")

    def with_(self, **kw) -> "MirrorQubitParams":
        return replace(self, **kw)


def effective_coupling(gamma: float, phi: float) -> float:
    """Gamma_eff(phi) = Gamma (1 + cos phi), between 0 and 2 Gamma."""
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    return gamma * (1.0 + math.cos(phi))


def pi_pulse_width(alpha0: float, gamma_eff: float) -> float:
    """Width of a resonant square pi pulse: pi / (2 alpha0 sqrt(Gamma_eff))."""
    if not (0 < alpha0 < math.inf and 0 < gamma_eff < math.inf):
        raise ValueError("alpha0 and gamma_eff must be positive and finite, "
                         f"got alpha0={alpha0}, gamma_eff={gamma_eff}")
    return math.pi / (2.0 * alpha0 * math.sqrt(gamma_eff))


@dataclass(frozen=True)
class DriveSchedule:
    """Piecewise-constant drive amplitude alpha(t).

    Segments are (t_start, t_end, alpha) with alpha = 0 outside all
    segments. Lookups are right-continuous: t_start belongs to the
    segment, t_end does not.
    """

    segments: Tuple[Tuple[float, float, complex], ...] = ()

    def __post_init__(self):
        prev_end = -math.inf
        norm = []
        for seg in self.segments:
            t0, t1, a = seg
            if not (t1 > t0):
                raise ValueError(f"segment {seg} has nonpositive duration")
            if t0 < prev_end - 1e-15:
                raise ValueError("drive segments overlap or are unordered")
            if not np.isfinite([t0, t1]).all() or not np.isfinite(complex(a)):
                raise ValueError("drive segment values must be finite")
            norm.append((float(t0), float(t1), complex(a)))
            prev_end = t1
        object.__setattr__(self, "segments", tuple(norm))

    @classmethod
    def square_pi_pulse(cls, alpha0, t0: float, gamma_eff: float) -> "DriveSchedule":
        """Square pulse of area pi starting at t0."""
        tw = pi_pulse_width(abs(alpha0), gamma_eff)
        return cls(((t0, t0 + tw, complex(alpha0)),))

    def amplitude_at(self, t):
        """alpha at a time or an array of times, 0 outside the segments."""
        t0, t1, a = np.array(self.segments, dtype=complex).reshape(-1, 3).T
        return _step_lookup(t0.real, t1.real, a, t, 0.0)

    def breakpoints(self) -> list:
        """Every segment's start and end."""
        return [x for seg in self.segments for x in seg[:2]]


@dataclass(frozen=True)
class PhaseSchedule:
    """Piecewise-constant phi(t) plus an optional sampled release ramp.

    `segments` are (t_start, t_end, phi) pieces; the first may start at
    -inf and the last may end at +inf. The ramp, when present, is a pair
    (times, values) interpreted as a step function (value i holds on
    [times[i], times[i+1])) and overrides the segments on its span.
    """

    segments: Tuple[Tuple[float, float, float], ...] = ((-math.inf, math.inf, 0.0),)
    ramp: Optional[Tuple[np.ndarray, np.ndarray]] = None
    clip_fraction: float = 0.0

    def __post_init__(self):
        prev = -math.inf
        for t0, t1, phi in self.segments:
            if not (t1 > t0):
                raise ValueError("phase segment has nonpositive duration")
            if t0 < prev - 1e-15:
                raise ValueError("phase segments overlap or are unordered")
            if not (0.0 <= phi < TWO_PI):
                raise ValueError(f"phi = {phi} outside [0, 2 pi)")
            prev = t1
        if self.ramp is not None:
            times, values = self.ramp
            times = np.asarray(times, dtype=float)
            values = np.asarray(values, dtype=float)
            if times.ndim != 1 or times.shape != values.shape:
                raise ValueError("ramp times and values must be 1d and equal length")
            if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
                raise ValueError("ramp times must be finite and strictly increasing")
            if not np.all((values >= 0) & (values < TWO_PI)):
                raise ValueError("ramp phi values outside [0, 2 pi)")
            object.__setattr__(self, "ramp", (times, values))

    @classmethod
    def constant(cls, phi: float) -> "PhaseSchedule":
        return cls(((-math.inf, math.inf, float(phi)),))

    @classmethod
    def storage_release(cls, phi_i: float, t_store: float, t_r: float,
                        phi_r: float) -> "PhaseSchedule":
        """Hold phi_i until t_store, park at pi, release at t_r with phi_r.

        With t_store == t_r the dark interval is empty and the schedule
        switches from phi_i to phi_r directly.
        """
        if t_r < t_store:
            raise ValueError(f"storage point {t_store!r} falls after the "
                             f"release time {t_r!r}")
        segs = [(-math.inf, t_store, float(phi_i))]
        if t_r > t_store:
            segs.append((t_store, t_r, math.pi))
        segs.append((t_r, math.inf, float(phi_r)))
        return cls(tuple(segs))

    def phi_at(self, t):
        """phi at a time or an array of times: the ramp's on its span, else
        the segments'. A time neither covers raises ValueError."""
        t0, t1, phi = np.array(self.segments, dtype=float).reshape(-1, 3).T
        phi = _step_lookup(t0, t1, phi, t, math.nan)
        if self.ramp is not None:
            times, values = self.ramp
            phi = _step_lookup(times[:-1], times[1:], values[:-1], t, phi)
        uncovered = np.isnan(phi)
        if uncovered.any():
            first = np.broadcast_to(t, uncovered.shape)[uncovered][0]
            raise ValueError(f"phase schedule does not cover t = {first}")
        return phi

    def breakpoints(self) -> list:
        """Every segment's start and end, infinite ones included, then
        every ramp time."""
        pts = [x for seg in self.segments for x in seg[:2]]
        if self.ramp is not None:
            pts.extend(self.ramp[0].tolist())
        return pts


def _step_lookup(starts, ends, values, t, fill):
    """At a time or an array of times t, values[i] of the first step
    [starts[i], ends[i]) holding it, or fill (broadcast against t) where
    none does. The ends are searched: segments longer than their 1e-15
    overlap allowance have nondecreasing ends, so the first end past t is
    the first step that can hold it, and where steps overlap it wins."""
    i = np.searchsorted(ends, t, side="right")
    held = np.append(starts, math.nan)[i] <= t
    return np.where(held, np.append(values, 0.0)[i], fill)[()]


def _line_coupling(gamma, phi):
    """c(phi) = sqrt(Gamma (1 + cos phi)) e^{i phi/2}, so L = c sigma_minus."""
    return np.sqrt(gamma * (1.0 + np.cos(phi))) * np.exp(1j * phi / 2.0)


def channel_couplings(params: MirrorQubitParams) -> dict:
    """Per-transition collapse operators of the three-level ladder.

    At the end of the line (phi = 0) every transition radiates at its
    doubled effective rate 2 Gamma_ab. Keys: 'signal' (1->0), 'idler'
    (2->1), 'pump' (2->0 direct).
    """
    if params.levels != 3:
        raise ValueError("channel_couplings requires levels=3")
    return {
        "signal": Operator(np.sqrt(2.0 * params.gamma01) * _as_matrix(lowering_op(3, 0, 1))),
        "idler": Operator(np.sqrt(2.0 * params.gamma12) * _as_matrix(lowering_op(3, 1, 2))),
        "pump": Operator(np.sqrt(2.0 * params.gamma02) * _as_matrix(lowering_op(3, 0, 2))),
    }


@functools.lru_cache(maxsize=None)
def _basis(levels: int) -> np.ndarray:
    """Fixed superoperators whose weighted sums are all the generators.

    Two levels: D[sigma_minus] and the commutators with sigma_z and the
    two drive quadratures -i(X - X^dag), X + X^dag of X = sigma_plus.
    Three levels: the three ladder dissipators and the same quadratures
    of X = |2><0|.
    """
    if levels == 2:
        sm = lowering_op(2, 0, 1)
        fixed = [dissipator(sm), liouvillian(np.diag([1.0, -1.0]))]
    else:
        sm = lowering_op(3, 0, 2)
        fixed = [dissipator(lowering_op(3, a, b)) for a, b in ((0, 1), (1, 2), (0, 2))]
    x = sm.dag().mat
    quads = [liouvillian(-1j * (x - x.conj().T)), liouvillian(x + x.conj().T)]
    return np.array([s.mat for s in fixed + quads])


def _generators(params: MirrorQubitParams, phi, alpha) -> np.ndarray:
    """Stacked generators at the pieces' (phi, alpha), shape (P, d^2, d^2).

    With L = c sigma_minus, c = sqrt(Gamma_eff) e^{i phi/2}, the phase
    cancels inside D[L]: its weight is conj(c) c, plus Gamma_nr. The
    drive -i(beta X - h.c.) enters through the real and imaginary parts
    of beta = alpha e^{i phi} conj(c). Each weight is rounded as the
    operator entry it stands for (alpha e^{i phi} as a scalar product,
    in real arithmetic), so a generator matches `core.liouvillian` of
    the same H and L to the bit, at any stack size.
    """
    phi = np.asarray(phi, dtype=float)
    alpha = np.asarray(alpha, dtype=complex)
    if params.levels == 2:
        c = _line_coupling(params.gamma, phi)
        e = np.exp(1j * phi)
        beta = (alpha.real * e + alpha.imag * (1j * e)) * c.conj()
        rnr = math.sqrt(params.gamma_nr)
        w = [c.conj() * c + rnr * rnr,
             (params.delta - (params.gamma / 2.0) * np.sin(phi)) / 2.0]
    else:
        if np.any(np.abs(phi) > 1e-12):
            raise ValueError("the three-level ladder model is defined at phi = 0")
        rates = [np.sqrt(2.0 * g) for g in (params.gamma01, params.gamma12, params.gamma02)]
        beta = alpha * rates[2]
        w = [np.full(phi.shape, r * r) for r in rates]
    w = np.stack(w + [beta.real, beta.imag], axis=-1)
    return np.tensordot(w, _basis(params.levels), axes=1)


def build_liouvillian(params: MirrorQubitParams, phi: float, alpha) -> Superoperator:
    """Constant-in-time master-equation generator at (phi, alpha).

    Two levels: the mirror-modified qubit model quoted in the module
    docstring, plus the non-radiative channel when gamma_nr > 0.

    Three levels: restricted to phi = 0; collapse operators are the
    three ladder channels at their doubled effective rates and the drive
    couples only to the direct 0-2 transition.
    """
    return Superoperator(_generators(params, [phi], [complex(alpha)])[0])


# ---------------------------------------------------------------------------
# piece tables: one row per constant piece, marched once

_BLOCK = 128  # powers of one step matrix, or rows' chain steps, held at once


@dataclass(frozen=True)
class PieceTable:
    """The constant pieces of a run, one row per piece; the rows tile it.

    Row p covers [t_a[p], t_b[p]] in n_steps[p] equal steps of length
    h[p] at (phi[p], alpha[p]), with step matrix step_mats[slot[p]],
    shared by rows of equal (phi, alpha, h). channels maps each output
    channel to its (P, d, d) stack of per-row collapse operators: "line"
    on two levels, "signal", "idler" and "pump" on three.
    """

    t_a: np.ndarray
    t_b: np.ndarray
    n_steps: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    slot: np.ndarray
    step_mats: np.ndarray
    channels: dict

    @property
    def h(self) -> np.ndarray:
        return (self.t_b - self.t_a) / self.n_steps

    @property
    def starts(self) -> np.ndarray:
        """Grid index of each row's first point, then of the last point."""
        return np.concatenate([[0], np.cumsum(self.n_steps)])

    def per_point(self, values) -> np.ndarray:
        """Per-row `values` at the grid points, right-continuous: a
        breakpoint takes the row starting there (so a window opening at a
        phase switch sees the new coupling), the end the last row."""
        return np.concatenate([np.repeat(values, self.n_steps, axis=0), values[-1:]])

    def spans(self, i0: int, i1: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows with steps between grid points i0 and i1, and the
        first and last grid index of each row's part there."""
        s = self.starts
        p = np.nonzero((s[:-1] < i1) & (s[1:] > i0))[0]
        return p, np.maximum(s[p], i0), np.minimum(s[p + 1], i1)


def _piece_table(params: MirrorQubitParams, drive: DriveSchedule,
                 phase: PhaseSchedule, t1: float, t2: float, extra=(),
                 steps=None) -> PieceTable:
    """The table of [t1, t2], cut at every breakpoint and every point of
    `extra` inside it into maximal constant pieces; a span of one point
    is one zero-length row, whose step matrix is the identity.

    steps(t_a, t_b) gives each row's step count (one by default); the
    distinct (phi, alpha, h) step matrices are exponentiated in one
    stacked call.
    """
    pts = np.concatenate([[t1, t2], drive.breakpoints(), extra, phase.breakpoints()])
    pts = np.unique(pts[(pts >= t1) & (pts <= t2)]).tolist()
    merged = [pts[0]]
    for x in pts[1:]:
        if x - merged[-1] > 1e-12:
            merged.append(x)
    merged[max(len(merged) - 1, 1):] = [t2]  # a one-point span keeps t1 and t2
    t_a, t_b = np.array(merged[:-1]), np.array(merged[1:])
    phi, alpha = phase.phi_at(t_a), drive.amplitude_at(t_a)
    n = np.ones(len(t_a), dtype=int) if steps is None else steps(t_a, t_b)
    h = (t_b - t_a) / n
    index = {}
    slots = np.array([index.setdefault(k, len(index))
                      for k in zip(phi.tolist(), alpha.tolist(), h.tolist())], dtype=int)
    keys = np.array(list(index), dtype=complex).reshape(-1, 3).T
    mats = sup_exp(_generators(params, keys[0].real, keys[1]), keys[2].real)
    if params.levels == 2:
        channels = {"line": np.multiply.outer(_line_coupling(params.gamma, phi),
                                              lowering_op(2, 0, 1).mat)}
    else:
        channels = {k: np.broadcast_to(op.mat, (len(phi), 3, 3))
                    for k, op in channel_couplings(params).items()}
    return PieceTable(t_a=t_a, t_b=t_b, n_steps=n, phi=phi, alpha=alpha,
                      slot=slots, step_mats=mats, channels=channels)


def _march_table(table: PieceTable, v0) -> np.ndarray:
    """v0, a state vector or a matrix whose columns all march, carried to
    every grid point of the table in one walk over its rows. A one-step
    row is one product with its step matrix E; a longer row stacks
    E^1 .. E^b, b = min(n_steps, _BLOCK), by doubling into one (b n, n)
    matrix, so one product with its latest state fills up to b points."""
    v0 = np.asarray(v0, dtype=complex)
    states = np.empty((int(table.starts[-1]) + 1,) + v0.shape, dtype=complex)
    states[0] = v0
    for i, k, s in zip(table.starts.tolist(), table.n_steps.tolist(), table.slot.tolist()):
        e = table.step_mats[s]
        if k == 1:
            states[i + 1] = e @ states[i]
            continue
        b = min(k, _BLOCK)
        p = np.empty((b + 1,) + e.shape, dtype=complex)
        p[0] = np.eye(len(e))
        em, m = e, 1
        while m <= b:
            top = min(2 * m, b + 1)
            p[m:top] = p[:top - m] @ em
            em, m = em @ em, 2 * m
        p = p[1:].reshape(-1, len(e))
        for lo in range(i, i + k, _BLOCK):
            c = min(_BLOCK, i + k - lo)
            states[lo + 1:lo + c + 1] = (p[:c * len(e)] @ states[lo]).reshape((c,) + v0.shape)
    return states


def propagator(params: MirrorQubitParams, drive: DriveSchedule,
               phase: PhaseSchedule, t1: float, t2: float) -> Superoperator:
    """Evolution superoperator P(t2, t1), t1 <= t2.

    Ordered product of constant-piece exponentials over the breakpoint
    partition of [t1, t2]; sampled phase ramps contribute one piece per
    sample interval. Satisfies P(t,t) = identity and the composition law
    P(t3,t2) P(t2,t1) = P(t3,t1).
    """
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError(f"times must be finite, got t1={t1}, t2={t2}")
    if t2 < t1:
        raise ValueError(f"reversed times: t1={t1} > t2={t2}")
    table = _piece_table(params, drive, phase, t1, t2)
    return Superoperator(_march_table(table, np.eye(params.levels ** 2))[-1])


def _initial_state(params: MirrorQubitParams, rho0) -> np.ndarray:
    """vec of rho0 (ground by default), checked as a state of the run's levels."""
    rho = (DensityMatrix.ground(params.levels) if rho0 is None
           else DensityMatrix(_as_matrix(rho0)))
    if rho.dim != params.levels:
        raise ValueError(f"rho0 has {rho.dim} levels, the run {params.levels}")
    return vec(rho)


def _flux(table: PieceTable, states, at=slice(None)) -> np.ndarray:
    """Output flux tr(L^dag L rho) of column-stacked states at grid points `at`,
    L each point's line operator by `per_point`; tr(A rho) = A.ravel() @ vec(rho)."""
    ops = table.channels["line"]
    ldl = (ops.conj().swapaxes(-1, -2) @ ops).reshape(-1, ops.shape[-1] ** 2)
    return np.einsum("ni,ni->n", table.per_point(ldl)[at], states[at]).real


def flux_series(params: MirrorQubitParams, drive: DriveSchedule,
                phase: PhaseSchedule, grid, rho0=None) -> np.ndarray:
    """Output flux <L^dag L>(t) on a nondecreasing grid of finite times,
    starting from rho0 (ground). The grid points cut the pieces of one
    table, which the state marches through once; L is the "line" channel
    of each point's row as counting reads it: right-continuous, the end
    point the last row."""
    if params.levels != 2:
        raise ValueError("flux_series reads the two-level line channel")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not np.isfinite(grid).all() or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be a 1d nondecreasing array of finite times")
    v0 = _initial_state(params, rho0)
    table = _piece_table(params, drive, phase,
                         *(grid[[0, -1]] if len(grid) else (0.0, 0.0)), grid)
    states = _march_table(table, v0)
    # a grid point reads the state after every piece ending at or before it
    return _flux(table, states, np.searchsorted(table.t_b, grid + 1e-12, side="right"))


# ---------------------------------------------------------------------------
# gridded simulation runs (consumed by the statistics module)


@dataclass
class ScenarioRun:
    """A propagated scenario on a fixed grid.

    `pieces` is the run's piece table, output channels included.
    times[i] are the grid instants, each row's np.linspace(t_a, t_b,
    n_steps + 1), so every breakpoint is a grid point exactly; states is
    an (n, d^2) array whose row i is the column-stacked density matrix
    at times[i].
    """

    params: MirrorQubitParams
    drive: DriveSchedule
    phase: PhaseSchedule
    times: np.ndarray
    states: np.ndarray
    pieces: PieceTable
    drive_points: int = 10 ** 9

    @property
    def dim(self) -> int:
        return self.params.levels


def simulate(params: MirrorQubitParams, drive: DriveSchedule,
             phase: PhaseSchedule, t_end: float, *, t_start: float = 0.0,
             rho0=None, dt: Optional[float] = None,
             min_pulse_steps: int = 20) -> ScenarioRun:
    """Propagate on a uniform-per-piece grid and record everything.

    The nominal step is dt (default 0.01/gamma); drive pulses are
    refined so each carries at least `min_pulse_steps` steps. A one-step
    piece is one product, a longer one fills from stacked matrix powers.
    """
    if dt is None:
        dt = 0.01 / params.gamma if params.gamma > 0 else 0.01
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (isinstance(min_pulse_steps, (int, np.integer)) and min_pulse_steps >= 1):
        raise ValueError(f"min_pulse_steps must be an integer of at least 1, "
                         f"got {min_pulse_steps}")
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError(f"t_start and t_end must be finite, got {t_start}, {t_end}")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    v0 = _initial_state(params, rho0)

    def in_pulse(t_a, t_b):
        return [(t_a >= s - 1e-12) & (t_b <= e + 1e-12) for s, e, _ in drive.segments]

    def steps(t_a, t_b):
        local_dt = np.full(len(t_a), float(dt))
        for rows, (s, e, _) in zip(in_pulse(t_a, t_b), drive.segments):
            local_dt[rows] = min(dt, (e - s) / min_pulse_steps)
        n = np.maximum(1, np.ceil((t_b - t_a) / local_dt)).astype(int)
        if phase.ramp is not None:
            # a sampled ramp defines its own integration grid: exactly one
            # step per sampling interval, never re-subdivided
            ramp = phase.ramp[0]
            n[(t_a >= ramp[0] - 1e-12) & (t_b <= ramp[-1] + 1e-12)] = 1
        return n

    table = _piece_table(params, drive, phase, t_start, t_end, steps=steps)
    # piece p's grid points are t_a + j h for j < n_steps, as np.linspace
    # places them, so each piece starts exactly on its breakpoint
    row = np.repeat(np.arange(len(table.n_steps)), table.n_steps)
    j = np.arange(len(row)) - np.repeat(table.starts[:-1], table.n_steps)
    times = np.append(j * table.h[row] + table.t_a[row], t_end)
    # the fewest grid points on a drive pulse, for resolution diagnostics
    dp = min((int(table.n_steps[rows].sum()) + 1
              for rows in in_pulse(table.t_a, table.t_b) if rows.any()), default=10 ** 9)
    return ScenarioRun(
        params=params,
        drive=drive,
        phase=phase,
        times=times,
        states=_march_table(table, v0),
        pieces=table,
        drive_points=dp,
    )
