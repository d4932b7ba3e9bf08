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
(Delta - (Gamma/2) sin phi)/2, and the two drive quadratures). A piece
that is two-level and drive-free keeps only the closed-form per-step factors of its
decay and turn (the terms commute); the rest are exponentiated in one stacked call.
Several runs, such as a sweep's cells, each with its own schedules, span and dt,
are cut and compiled as one stack in one pass over flat row arrays with a per-row cell
index, and share one read-only start state.
A simulated run is its piece table, one row per constant piece with
each output channel's collapse operator on that row, plus its first
state; the states on the grid the rows span are marched on first read:
a run of drive-free two-level rows is the cumulative products of its
per-step decay and turn factors, a run of other one-step rows (a
sampled ramp) is one chunked scan of stacked prefix products, a longer
row stacked powers of its step matrix. Step matrices (a drive-free one assembled from its
factors on request) and states are real `core.coordinates`; `ScenarioRun.states` and
`propagator` are vec.

A three-level variant (levels=3) models a ladder 0-1-2 at the end of
the line with phi = 0: every transition couples at its doubled
effective rate 2*Gamma_ab, and the drive addresses the weak direct 0-2
transition only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

from .core import (
    DensityMatrix,
    Operator,
    Superoperator,
    _as_matrix,
    _check_count,
    coordinates,
    dissipator,
    liouvillian,
    lowering_op,
    sup_exp,
    to_coordinates,
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
_ORDER_TOL = 1e-15  # a segment may start this far before the previous one ends
_CUT_TOL = 1e-12  # cut points merge, a flux point lies on a row end
_GRID_TOL = 1e-9  # a caller's time (a window end, a correlator time) lies on the grid


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
    segments. A segment holds its t_start and not its t_end, so the
    schedule is right-continuous.
    """

    segments: Tuple[Tuple[float, float, complex], ...] = ()

    def __post_init__(self):
        prev_end = -math.inf
        norm = []
        for seg in self.segments:
            t0, t1, a = seg
            if not (t1 > t0):
                raise ValueError(f"segment {seg} has nonpositive duration")
            if t0 < prev_end - _ORDER_TOL:
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
            if t0 < prev - _ORDER_TOL:
                raise ValueError("phase segments overlap or are unordered")
            if not (0.0 <= phi < TWO_PI):
                raise ValueError(f"phi = {phi} outside [0, 2 pi)")
            prev = t1
        if self.ramp is not None:
            times, values = self.ramp
            times = np.asarray(times, dtype=float)
            values = np.asarray(values, dtype=float)
            if times.ndim != 1 or times.shape != values.shape or not len(times):
                raise ValueError("ramp times and values must be 1d, nonempty and equal length")
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


def _step_lookup(starts, ends, t) -> np.ndarray:
    """At each time of t, the index i of the first step [starts[i], ends[i]) holding it, or
    len(starts) where none does. The ends are searched: segments longer than their
    _ORDER_TOL overlap allowance have nondecreasing ends, so the first end past t is the
    first step that can hold it, and where steps overlap it wins. Starts, ends and times
    may be `_keys`, so a step holds only its own cell's times; past the last step the start
    is +inf, so no NaN key is compared."""
    i = np.searchsorted(ends, t, side="right")
    return np.where(np.concatenate((starts, (math.inf,)))[i] <= t, i, len(starts))


def _keys(cell, t, stacked: bool):
    """Keys of times t in cells `cell`: for several cells complex cell + i t, which numpy
    sorts and compares by cell, then time; for one cell t itself."""
    return np.column_stack((cell, t)).view(complex).ravel() if stacked else t


def _by_row(values, cell, stacked: bool):
    """A list of per-cell values (numbers or equal tuples) at cells `cell`, an array (per
    tuple field); one cell's own values, which broadcast against the rows."""
    return np.array(values).T.take(cell, axis=-1) if stacked else values[0]


def _line_coupling(gamma, phi):
    """c(phi) = sqrt(Gamma (1 + cos phi)) e^{i phi/2}, so L = c sigma_minus."""
    return np.sqrt(gamma * (1.0 + np.cos(phi))) * np.exp(0.5j * phi)


def channel_couplings(params: MirrorQubitParams) -> dict:
    """Per-transition collapse operators of the three-level ladder.

    At the end of the line (phi = 0) every transition radiates at its
    doubled effective rate 2 Gamma_ab. Keys: 'signal' (1->0), 'idler'
    (2->1), 'pump' (2->0 direct).
    """
    if params.levels != 3:
        raise ValueError("channel_couplings requires levels=3")
    return {k: Operator(m[0]) for k, m in _ladder_channels(params, 1).items()}


@functools.lru_cache(maxsize=None)
def _ladder() -> tuple:
    """The ladder channels' names, their rates' names and their plain lowering matrices."""
    return (("signal", "idler", "pump"), ("gamma01", "gamma12", "gamma02"),
            np.array([lowering_op(3, a, b).mat for a, b in ((0, 1), (1, 2), (0, 2))]))


def _ladder_channels(params, rows: int) -> dict:
    """Each channel's (rows, 3, 3) lowering matrix times sqrt(2 Gamma_ab) of params' rates,
    floats or arrays over the rows."""
    names, rates, ops = _ladder()
    r = np.sqrt(2.0 * np.array([getattr(params, k) for k in rates]))
    return dict(zip(names, np.broadcast_to(r.reshape(3, -1, 1, 1) * ops[:, None], (3, rows, 3, 3))))


@functools.lru_cache(maxsize=None)
def _basis(levels: int, coords: bool = False) -> np.ndarray:
    """Fixed superoperators whose weighted sums are all the generators.

    Two levels: D[sigma_minus] and the commutators with sigma_z and the
    two drive quadratures -i(X - X^dag), X + X^dag of X = sigma_plus.
    Three levels: the three ladder dissipators and the same quadratures
    of X = |2><0|. With coords, in real coordinates, each flattened to a row.
    """
    if levels == 2:
        sm = lowering_op(2, 0, 1)
        fixed = [dissipator(sm), liouvillian(np.diag([1.0, -1.0]))]
    else:
        sm = lowering_op(3, 0, 2)
        fixed = [dissipator(lowering_op(3, a, b)) for a, b in ((0, 1), (1, 2), (0, 2))]
    x = sm.dag().mat
    quads = [liouvillian(-1j * (x - x.conj().T)), liouvillian(x + x.conj().T)]
    basis = np.array([s.mat for s in fixed + quads])
    return to_coordinates(basis).reshape(len(basis), -1) if coords else basis


def _generators(params: MirrorQubitParams, phi, alpha) -> np.ndarray:
    """Stacked vec-basis generators at the pieces' (phi, alpha), (P, d^2, d^2)."""
    phi = np.asarray(phi, dtype=float)
    return np.tensordot(_weights(params, phi, alpha, _line_coupling(params.gamma, phi)),
                        _basis(params.levels), axes=1)


def _weights(params: MirrorQubitParams, phi, alpha, c) -> np.ndarray:
    """The pieces' real-valued weights of the `_basis` superoperators.

    With L = c sigma_minus, where c = sqrt(Gamma_eff) e^{i phi/2} is the
    `_line_coupling` at phi (read by two levels only, so three may pass
    None), the phase cancels inside D[L]: its weight is conj(c) c, plus
    Gamma_nr. The drive -i(beta X - h.c.) enters through the real and
    imaginary parts of beta = alpha e^{i phi} conj(c), whose e^{i phi} is
    taken only where alpha is not 0 (beta is 0 elsewhere). Each weight is
    rounded as the operator entry it stands for (alpha e^{i phi} as a
    scalar product, in real arithmetic), so a `_generators` slice matches
    `core.liouvillian` of the same H and L to the bit, at any stack size.
    The rates of `params` may be arrays over the pieces, as `_compile` passes a stack's.
    """
    phi = np.asarray(phi, dtype=float)
    alpha = np.asarray(alpha, dtype=complex)
    if params.levels == 2:
        e = np.exp(1j * phi, where=alpha != 0, out=np.zeros(phi.shape, complex))
        beta = (alpha.real * e + alpha.imag * (1j * e)) * c.conj()
        rnr = np.sqrt(params.gamma_nr)
        w = [c.conj() * c + rnr * rnr,
             (params.delta - (params.gamma / 2.0) * np.sin(phi)) / 2.0]
    else:
        if np.any(np.abs(phi) > 1e-12):
            raise ValueError("the three-level ladder model is defined at phi = 0")
        rates = [np.sqrt(2.0 * g) for g in (params.gamma01, params.gamma12, params.gamma02)]
        beta = alpha * rates[2]
        w = [np.full(phi.shape, r * r) for r in rates]
    return np.array(w + [beta.real, beta.imag]).T


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

_BLOCK = 128  # powers of one step matrix held at once
_CHUNK = 48  # one-step rows per chunk of the forward scan


@dataclass(frozen=True)
class PieceTable:
    """The constant pieces of a run, one row per piece; the rows tile it.

    Row p covers [t_a[p], t_b[p]] in n_steps[p] equal steps of length h[p] at
    (phi[p], alpha[p]); `steps` gives rows' real step matrices in coordinates. free[p] says
    the row is a two-level decay without drive, which keeps no matrix, only decay[:, p]: its
    three per-step factors (`_decay_factors`; None if no row is free), by which it marches.
    The other rows' series step matrices are `driven`, in row order. channels maps each
    output channel to its (P, d, d) stack of per-row collapse operators: "line" on two
    levels, "signal", "idler" and "pump" on three.
    """

    t_a: np.ndarray
    t_b: np.ndarray
    n_steps: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    free: np.ndarray
    decay: Optional[np.ndarray]
    driven: np.ndarray
    channels: dict

    @functools.cached_property
    def h(self) -> np.ndarray:
        return (self.t_b - self.t_a) / self.n_steps

    def steps(self, rows) -> np.ndarray:
        """The step matrices of the rows at indices `rows`, a new array: a driven row's
        from `driven`, a free row's assembled from its `_decay_factors`. Row 0 of each
        is e_0: the trace coordinate is kept exactly."""
        free, k = self.free.take(rows), self._driven_index.take(rows)
        if not np.count_nonzero(free):
            return self.driven.take(k, axis=0)
        e11, e22, e32 = self.decay.take(rows, axis=1)
        out = np.zeros((len(e11), 4, 4))
        out[:, 0, 0], out[:, 1, 1] = 1.0, e11
        out[:, 2, 2] = out[:, 3, 3] = e22
        out[:, 3, 2], out[:, 2, 3] = e32, 0.0 - e32
        out[~free] = self.driven.take(k[~free], axis=0)
        return out

    @functools.cached_property
    def _driven_index(self) -> np.ndarray:  # driven row p's matrix is driven[index[p]]
        return (~self.free).cumsum() - 1

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """Grid index of each row's first point, then of the last point."""
        return np.concatenate([[0], np.cumsum(self.n_steps)])

    def per_point(self, values) -> np.ndarray:
        """Per-row `values` at the grid points, right-continuous: a
        breakpoint takes the row starting there (so a window opening at a
        phase switch sees the new coupling), the end the last row."""
        return np.concatenate([np.repeat(values, self.n_steps, axis=0), values[-1:]])

    def row_at(self, i) -> np.ndarray:
        """The row `per_point` reads at grid index (or indices) i."""
        return np.minimum(np.searchsorted(self.starts, i, side="right") - 1, len(self.t_a) - 1)

    def time(self, i: int) -> float:
        """Grid time i as `ScenarioRun.times` holds it: t_a + j h on its row, t_b at the end."""
        p = self.row_at(i)
        j = i - self.starts[p]
        return float(self.t_b[p] if j == self.n_steps[p] else j * self.h[p] + self.t_a[p])

    def index(self, t: float, what: str = "time") -> int:
        """The grid index of time t, the nearest point of the row holding t, within _GRID_TOL."""
        p = max(int(np.searchsorted(self.t_a, t, side="right")) - 1, 0)
        j = np.rint((t - self.t_a[p]) / self.h[p])  # NaN for a NaN t, which min and max keep
        i = self.starts[p] + min(max(j, 0.0), self.n_steps[p])
        if not abs(self.time(i) - t) <= _GRID_TOL:  # so a NaN t fails too
            raise ValueError(f"{what} {t} does not lie on the simulation grid; a "
                             "time outside the simulation grid is not snapped")
        return int(i)

    def spans(self, i0: int, i1: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows with steps between grid points i0 and i1, and the
        first and last grid index of each row's part there."""
        p = np.nonzero((self.starts[:-1] < i1) & (self.starts[1:] > i0))[0]
        return p, np.maximum(self.starts[p], i0), np.minimum(self.starts[p + 1], i1)


def _cut(cells) -> tuple:
    """The rows (cell, t_a, t_b, phi, alpha, segment, ramped) of (drive, phase, t1, t2,
    extra) cells, by cell, then time: each cell's [t1, t2] cut at its breakpoints and its
    points of `extra` into maximal constant pieces (one point, one zero-length row). All
    points are sorted and merged at once, a cell's ramp times first. A row reads each
    schedule once, right-continuously at the last point merged into its start (or the
    start), so it reads its interior: on a ramp the step of the last ramp time at or before
    it, else the first segment holding it. segment is the index in its cell of the drive
    segment holding that point (-1 for none), ramped whether a ramp step holds it. A row no
    phase holds raises, naming that point."""
    stacked, seqs, sizes, ramps = len(cells) > 1, [], [], []
    for drive, phase, t1, t2, extra in cells:
        ramps.append(phase.ramp or ((), ()))
        seqs += [ramps[-1][0], (t1, t2, *(x for s in drive.segments + phase.segments
                                           for x in s[:2])), extra]
        sizes.append(sum(map(len, seqs[-3:])))
    t, cell = np.concatenate(seqs, dtype=float), np.arange(len(cells)).repeat(sizes)
    lens, t2s = [len(r[0]) for r in ramps], [c[3] for c in cells]
    order = np.lexsort((t, cell))
    cell, t = cell.take(order), t.take(order)
    t1, t2 = _by_row([c[2:4] for c in cells], cell, stacked)
    inside = (t >= t1) & (t <= t2)
    if any(lens):  # the ramp times sorted at or before each point, counted before the cut
        starts = np.cumsum([0] + sizes[:-1])
        ramp = np.cumsum(order < _by_row(list(starts + lens), cell, stacked))[inside]
    cell, t = cell[inside], t[inside]
    # keep a point over _CUT_TOL past the last kept one of its cell, whose first is kept, a
    # pass per point of a close run; one after a kept one or equal to the one before is not
    d = t[1:] - t[:-1]
    keep = np.concatenate(((True,), d > _CUT_TOL))
    if stacked:
        first = np.concatenate(((True,), cell[1:] != cell[:-1]))
        keep |= first
    close = np.flatnonzero(~(keep[1:] | keep[:-1]) & (d > 0)) + 1
    while len(close):
        last = np.maximum.accumulate(np.where(keep, np.arange(len(t)), 0))[close - 1]
        settled = t[close] - t[last] > _CUT_TOL
        if (settled == keep[close]).all():
            break
        keep[close] = settled
    # a cell's last point gives way to its t2, which ends its last row, unless it is its
    # first; a row reads at the point before the next kept one, of its cell or the next
    pos = np.flatnonzero(keep)
    read = np.concatenate((pos[1:], (len(t),))) - 1
    if stacked:
        first = first[pos]
        rows = first | np.concatenate((~first[1:], (False,)))
        pos, read = pos[rows], read[rows]
        cell, t_a = cell.take(pos), t.take(pos)
        t_b = np.where(np.concatenate((cell[1:] != cell[:-1], (True,))), _by_row(
            t2s, cell, stacked), np.concatenate((t_a[1:], (0.0,))))
    else:
        pos = pos[:len(pos) - 1 or 1]
        read, cell, t_a = read[:len(pos)], cell[:len(pos)], t.take(pos)
        t_b = np.concatenate((t_a[1:], t2s))
    # (cell, index in the cell, start, end, value) of the drive segments of all cells, a row
    # for none (alpha 0, index -1), then of the phase segments and a row for none (phi NaN)
    at = t.take(read)
    drives = [(k, j, *g) for k, c in enumerate(cells) for j, g in enumerate(c[0].segments)]
    phases = [(k, 0, *g) for k, c in enumerate(cells) for g in c[1].segments]
    k, loc, s, e, v = np.array(drives + [(0, -1, 0, 0, 0)] + phases + [(0, 0, 0, 0, math.nan)],
                               dtype=complex).reshape(-1, 5).T
    key, nd = _keys(cell, at, stacked), len(drives)
    s, e = _keys(k.real, s.real, stacked), _keys(k.real, e.real, stacked)
    row = _step_lookup(s[:nd], e[:nd], key)
    alpha, segment = v.take(row), loc.real.astype(int).take(row)
    steps, values = (s[nd + 1:-1], e[nd + 1:-1]), v.real[nd + 1:]  # of the phase segments
    if any(lens):  # ramp step j of cell c's ramp: ends[c] - lens[c] <= j < ends[c] - 1
        ends, j = np.cumsum(lens), ramp.take(read) - 1
        ramped = (j >= _by_row(list(ends - lens), cell, stacked)) & (
            j < _by_row(list(ends - 1), cell, stacked))
        phi = np.concatenate([r[1] for r in ramps]).take(j)  # then the rows off a ramp
        phi[~ramped] = values.take(_step_lookup(*steps, key[~ramped]))
    else:
        ramped, phi = np.zeros(len(t_a), dtype=bool), values.take(_step_lookup(*steps, key))
    uncovered = np.isnan(phi)
    if uncovered.any():
        raise ValueError(f"phase schedule does not cover t = {at[uncovered][0]}")
    return cell, t_a, t_b, phi, alpha, segment, ramped


def _compile(params, rows) -> list:
    """The piece tables of cells k of params[k], of one level count, compiled in one pass
    from their rows (cell, t_a, t_b, n_steps, phi, alpha), `_cut`'s with step counts, each
    row on its own. The tables are views of the stack's rows, channels and `free` mask
    (two-level with both drive weights 0: no drive, or phi = pi), of every row's
    `_decay_factors`, kept when a row is free, and of the other rows' step matrices, from
    one `sup_exp` call. The line coupling c(phi) of the rows gives the "line" channel and
    their weights."""
    cell, t_a, t_b, n, phi, alpha = rows
    levels = params[0].levels
    h = (t_b - t_a) / n
    by_row = params[0]  # one cell's rates; a stack's are arrays by row
    if len(params) > 1:
        names = ("gamma", "delta", "gamma_nr") if levels == 2 else _ladder()[1]
        by_row = SimpleNamespace(levels=levels, **{
            k: np.array([getattr(p, k) for p in params]).take(cell) for k in names})
    if levels == 2:
        c, line = _line_coupling(by_row.gamma, phi), np.zeros((len(phi), 2, 2), complex)
        line[:, 0, 1] = c  # L = c sigma_minus
        channels = {"line": line}
    else:
        c, channels = None, _ladder_channels(by_row, len(phi))
    w = _weights(by_row, phi, alpha, c).real
    free = ~np.logical_or(w[:, -2], w[:, -1]) & (levels == 2)  # two-level, both drive weights 0
    decay = _decay_factors(w, h) if np.count_nonzero(free) else None  # every row's, in one pass
    gens = (w[~free] @ _basis(levels, True)).reshape(-1, levels ** 2, levels ** 2)
    driven = sup_exp(gens, h[~free]) if len(gens) else gens
    if len(params) == 1:
        return [PieceTable(t_a=t_a, t_b=t_b, n_steps=n, phi=phi, alpha=alpha, free=free,
                           decay=decay, driven=driven, channels=channels)]
    ends = np.searchsorted(cell, np.arange(len(params) + 1))
    ends = np.array([ends, np.append(0, np.cumsum(~free))[ends]]).T.tolist()  # row, driven row
    return [PieceTable(t_a=t_a[a:b], t_b=t_b[a:b], n_steps=n[a:b], phi=phi[a:b],
                       alpha=alpha[a:b], free=free[a:b], decay=None if decay is None else
                       decay[:, a:b], driven=driven[da:db],
                       channels={k: v[a:b] for k, v in channels.items()})
            for (a, da), (b, db) in zip(ends, ends[1:])]


def _decay_factors(w, h) -> np.ndarray:
    """exp(G h) of drive-free two-level coordinate generators G = w0 D[sigma_minus] + w1 Z
    of weights w, rows (E11, E22, E32) per piece: D and Z commute, so per step rho_11
    decays by E11 = e^x, x = -w0 h = G[1, 1] h, and the coherence x + i y by E22 + i E32
    = e^{x/2} e^{-2i w1 h}, 2 w1 h = G[2, 3] h (to the bit: G's other terms there are 0)."""
    with np.errstate(all="ignore"):
        x, a = -w[:, 0] * h, 2.0 * w[:, 1] * h
        r = np.exp(0.5 * x)  # E32 = 0.0 - r sin a is +0 where r sin a is 0, as in sup_exp
        out = np.array([np.exp(x), r * np.cos(a), 0.0 - r * np.sin(a)])
    if not np.isfinite(out).all():
        raise FloatingPointError("matrix exponential is not finite")
    return out


def _piece_table(params: MirrorQubitParams, drive: DriveSchedule,
                 phase: PhaseSchedule, t1: float, t2: float, extra=()) -> PieceTable:
    """The table of one run: `_compile` of its `_cut`, one step per row."""
    cell, t_a, t_b, phi, alpha, *_ = _cut([(drive, phase, t1, t2, extra)])
    return _compile([params], (cell, t_a, t_b, np.ones(len(t_a), dtype=int), phi, alpha))[0]


def _scan(e, states, i) -> None:
    """states[i] carried through one-step rows of step matrices e, in chunks
    of _CHUNK rows, the last padded with identities: the prefix products
    of all chunks are one stacked product per position in a chunk, the
    chunk starts are carried one product each, and one stacked product
    from the starts fills every point."""
    r, n = len(e), e.shape[-1]
    b = min(_CHUNK, r)
    c = -(-r // b)
    p = np.concatenate([e, np.broadcast_to(np.eye(n), (c * b - r, n, n))]).reshape(c, b, n, n)
    for j in range(1, b):
        p[:, j] = p[:, j] @ p[:, j - 1]
    for k in range(c):
        states[min(i + k * b + b, i + r)] = p[k, -1] @ states[i + k * b]
    fill = p @ states[i:i + r:b].reshape(c, 1, n, -1)
    states[i + 1:i + r + 1] = fill.reshape((-1,) + states.shape[1:])[:r]


def _march_table(table: PieceTable, v0) -> np.ndarray:
    """v0, a coordinate state or matrix, carried to every grid point of a table.

    A maximal run of drive-free rows (`PieceTable.free`) is one `_decay`. Of the
    other rows, a maximal run of one-step rows is one chunked scan (`_scan`), and a
    longer row stacks E^1 .. E^b, b = min(n_steps, _BLOCK), of its step matrix E by
    doubling into one (b n, n) matrix, so one product with its latest state fills up
    to b points. Driven one-step rows come from `simulate` under a driven ramp, from
    `propagator`'s driven pieces and from `flux_series` points on a pulse; no scenario
    makes them."""
    n_steps, starts, free = table.n_steps, table.starts, table.free
    states = np.empty((int(starts[-1]) + 1,) + v0.shape)
    states[0] = v0
    # a maximal run of free rows is one segment, and so is one of driven one-step
    # rows; each longer driven row is its own
    long = n_steps > 1
    cuts = np.flatnonzero((free[1:] != free[:-1])
                          | ~free[1:] & ~free[:-1] & (long[1:] | long[:-1])) + 1
    for rows in np.split(np.arange(len(n_steps)), cuts):
        i, k = int(starts[rows[0]]), int(n_steps[rows[0]])
        if free[rows[0]]:
            _decay(table.decay.take(rows, axis=1), n_steps.take(rows), states, i)
            continue
        if k == 1:
            _scan(table.steps(rows), states, i)
            continue
        e = table.steps(rows[:1])[0]
        b = min(k, _BLOCK)
        p = np.empty((b + 1,) + e.shape)
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


def _decay(decay, n_steps, states, i) -> None:
    """states[i] through drive-free two-level rows of `_decay_factors` decay, row p for
    n_steps[p] steps, by cumulative products of its per-step factors decay[:, p]: rho_11
    of E11, the coherence x + i y of E22 + i E32; the trace stays."""
    p1 = np.cumprod(np.repeat(decay[0], n_steps))
    z = np.cumprod(np.repeat(decay[1] + 1j * decay[2], n_steps))
    s, out = states[i], states[i + 1:i + 1 + len(p1)]
    out[:, 0], out[:, 1] = s[0], np.multiply.outer(p1, s[1])
    z = np.multiply.outer(z, s[2] + 1j * s[3])
    out[:, 2], out[:, 3] = z.real, z.imag


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
    v, w = coordinates(params.levels)
    return Superoperator(v @ _march_table(table, np.eye(params.levels ** 2))[-1] @ w)


def _initial_state(params: MirrorQubitParams, rho0) -> np.ndarray:
    """Coordinates of rho0 (ground by default), a state of the run's levels."""
    if rho0 is None:  # the ground state: trace 1, coordinate 0, and nothing else
        return np.eye(params.levels ** 2)[0]
    rho = DensityMatrix(_as_matrix(rho0))
    if rho.dim != params.levels:
        raise ValueError(f"rho0 has {rho.dim} levels, the run {params.levels}")
    return (coordinates(rho.dim)[1] @ vec(rho)).real


@functools.lru_cache(maxsize=None)
def _jump_form(d: int):
    """Pairs a <= b and real K_ab with conj(M) kron M in coordinates sum_ab m_a m_b K_ab,
    m the real and imaginary parts of M's entries, in which the jump is real and bilinear;
    each K_ab flattened, so its first d^2 entries are its trace row."""
    g = (np.array([1.0, 1j])[:, None, None] * np.eye(d * d)).reshape(-1, d, d)
    kron = np.einsum("aij,bkl->abikjl", g.conj(), g).reshape(-1, d * d, d * d)
    k, (a, b) = to_coordinates(kron).reshape(len(g), len(g), -1), np.triu_indices(len(g))
    return a, b, k[a, b] + (a < b)[:, None] * k[b, a]


def _jump_rows(ops, trace: bool) -> np.ndarray:
    """sum_ab m_a m_b K_ab (`_jump_form`) of each operator M of a (P, d, d) stack:
    its jump conj(M) kron M in coordinates, flattened (P, d^4), or with `trace` only its
    row 0, the trace row (P, d^2). A pair with an entry zero on every row adds nothing."""
    d = ops.shape[-1]
    a, b, form = _jump_form(d)
    # the entries' real and imaginary parts, rows (part, i, j) in one copy
    m = np.ascontiguousarray(ops, dtype=complex).view(float).reshape(len(ops), d * d, 2).T
    m = m.reshape(2 * d * d, -1)
    live = m.any(axis=1)
    pair = live[a] & live[b]
    return (m[a[pair]] * m[b[pair]]).T @ (form[pair, :d * d] if trace else form[pair])


def _flux(table: PieceTable, coords, at=slice(None)) -> np.ndarray:
    """Output flux tr(L^dag L rho) = tr(L rho L^dag) of coordinate states at grid
    points `at`, L each point's line operator by `per_point`: its jump's trace row."""
    ldl = _jump_rows(table.channels["line"], trace=True)
    return np.einsum("ni,ni->n", table.per_point(ldl)[at], coords[at])


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
    return _flux(table, states, np.searchsorted(table.t_b, grid + _CUT_TOL, side="right"))


# ---------------------------------------------------------------------------
# gridded simulation runs (consumed by the statistics module)


@dataclass
class ScenarioRun:
    """A scenario on a fixed grid, propagated when its states are read.

    `pieces` is the run's piece table, output channels included.
    times[i] are the grid instants, each row's np.linspace(t_a, t_b,
    n_steps + 1), so every breakpoint is a grid point exactly (the table's
    `time` and `index` map one point); coords, marched from `start` on
    first read, is the real (n, d^2) array whose row i is the density
    matrix at times[i] in `core.coordinates`. Both are derived from the
    table on first read.
    """

    params: MirrorQubitParams
    drive: DriveSchedule
    phase: PhaseSchedule
    start: np.ndarray
    pieces: PieceTable
    drive_points: int = 10 ** 9

    @property
    def dim(self) -> int:
        return self.params.levels

    @functools.cached_property
    def times(self) -> np.ndarray:
        # row p's grid points are t_a + j h for j < n_steps, as np.linspace
        # places them, so each row starts exactly on its breakpoint
        t = self.pieces
        row = np.repeat(np.arange(len(t.n_steps)), t.n_steps)
        j = np.arange(len(row)) - np.repeat(t.starts[:-1], t.n_steps)
        return np.append(j * t.h[row] + t.t_a[row], t.t_b[-1])

    @functools.cached_property
    def coords(self) -> np.ndarray:
        return _march_table(self.pieces, self.start)

    def coords_at(self, i: int) -> np.ndarray:
        """The state at grid index i; i = 0 is `start` and marches nothing."""
        return self.start if i == 0 else self.coords[i]

    @property
    def states(self) -> np.ndarray:
        """Column-stacked density matrices, (n, d^2), derived from coords."""
        return self.coords @ coordinates(self.dim)[0].T


def simulate(params: MirrorQubitParams, drive: DriveSchedule,
             phase: PhaseSchedule, t_end: float, *, t_start: float = 0.0,
             rho0=None, dt: Optional[float] = None,
             min_pulse_steps: int = 20) -> ScenarioRun:
    """Compile a run on a uniform-per-piece grid; its states march on first read.

    The nominal step is dt (default 0.01/gamma); drive pulses are
    refined so each carries at least `min_pulse_steps` steps. Drive-free
    two-level pieces march by cumulative products; of the others, one-step
    pieces are a chunked scan, a longer piece stacked matrix powers.
    """
    if dt is None:
        dt = 0.01 / params.gamma if params.gamma > 0 else 0.01
    return _simulate([(params, drive, phase, t_start, t_end, dt)], rho0, min_pulse_steps)[0]


def _simulate(cells, rho0=None, min_pulse_steps: int = 20) -> list:
    """The runs of (params, drive, phase, t_start, t_end, dt) cells of one level
    count, each checked as `simulate` checks it before any is cut; they share one
    read-only start state, and `_compile` compiles all their rows as one stack. A
    row's steps come from the drive segment and the ramp flag of its `_cut`."""
    for *_, t_start, t_end, dt in cells:
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        _check_count("min_pulse_steps", min_pulse_steps)
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise ValueError(f"t_start and t_end must be finite, got {t_start}, {t_end}")
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
    start = _initial_state(cells[0][0], rho0)
    start.setflags(write=False)
    cell, t_a, t_b, phi, alpha, segment, ramped = _cut(
        [(drive, phase, t1, t2, ()) for _, drive, phase, t1, t2, _ in cells])
    # steps of at most dt, on a drive segment of at most 1/min_pulse_steps of its width, on a
    # sampled ramp one per sampling interval. `steps` holds cell c's dt at dt_slot[c], then
    # its segments', so a row's slot is dt_slot[c] + 1 + segment (its dt's on none, -1)
    steps, dt_slot = [], []
    for _, drive, _, _, _, dt in cells:
        dt_slot.append(len(steps))
        steps += [dt] + [min(dt, (e - s) / min_pulse_steps) for s, e, _ in drive.segments]
    slot = _by_row(dt_slot, cell, len(cells) > 1) + (segment + 1)
    h = np.array(steps).take(slot)
    h[ramped] = math.inf
    n = np.maximum(1, np.ceil((t_b - t_a) / h)).astype(int)
    # each cell's fewest grid points on a drive segment, for resolution diagnostics
    on = segment >= 0
    count = np.bincount(slot[on], n[on], len(steps))
    points = np.minimum.reduceat(np.where(count > 0, count + 1, 10 ** 9), dt_slot)
    tables = _compile([c[0] for c in cells], (cell, t_a, t_b, n, phi, alpha))
    return [ScenarioRun(params=params, drive=drive, phase=phase, start=start, pieces=table,
                        drive_points=dp)
            for (params, drive, phase, *_), table, dp in zip(cells, tables, map(int, points))]
