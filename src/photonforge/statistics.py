"""Photon counting statistics from time-ordered correlation integrals.

The order-m counting moment of the output field over a window
[t_r, T] is the time-ordered integral

    N_m = Integral_{t_r <= t_1 <= ... <= t_m <= T}
              tr( J(t_m) E(t_m, t_{m-1}) J(t_{m-1}) ... J(t_1) rho(t_1) )

with J(t) rho = M(t) rho M(t)^dag the counting jump channel and
E(t', t) the two-time propagator, so N_m is the mean number of
unordered m-photon detection combinations, E[C(n, m)]. Rather than
nesting quadratures, each extra order adds one backward sweep of a
running functional over the grid: u_m(t_i) accumulates "everything
later than t_i", and N_m costs O(m n) matrix-vector products on an
n-point grid. The forward map from moments to photon-number
probabilities inverts through alternating binomial sums, computed by
two independent routes that must agree to near machine precision.

Every statistic reads the run's piece table (`dynamics.PieceTable`):
counting operators are expanded from its rows to the grid points,
right-continuously, and propagation between grid points walks its rows.
Pair correlations of a two-channel emitter are the same construction
with one jump from each channel. Their late-time row is constant, so
the backward sweep is evaluated one table row at a time from stacked
powers of the row's step matrix and its exact step; the quadrature is
the same grid trapezoid. The quality metric
v = G_is^2 - G_ii G_ss is positive only when the cross-channel
coincidence beats the geometric mean of the single-channel ones, which
no classical field can arrange.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import _as_matrix, spre_spost, trace_row
from .dynamics import _BLOCK, ScenarioRun, _powers

__all__ = [
    "photon_mtiples",
    "invert_to_probabilities",
    "counting_statistics",
    "correlator_gm",
    "ordered_pair_count",
    "cross_pair_integral",
    "csi_metric",
    "PhotonStatistics",
    "CrossPairResult",
]

logger = logging.getLogger(__name__)

MAX_ORDER = 3


@dataclass(frozen=True)
class PhotonStatistics:
    """Counting moments and photon-number probabilities over a window."""

    n_tiples: Tuple[float, ...]
    probabilities: Tuple[float, ...]
    cutoff: int
    window: Tuple[float, float]
    grid_step: float

    def prob(self, n: int) -> float:
        return self.probabilities[n]


@dataclass(frozen=True)
class CrossPairResult:
    """Integrated pair correlations of the two-channel cascade."""

    g_ii: float
    g_ss: float
    g_is: float
    v: float

    def __post_init__(self):
        for name in ("g_ii", "g_ss", "g_is"):
            if getattr(self, name) < -1e-9:
                raise ValueError(f"{name} = {getattr(self, name)} is negative")
        # with G_ii, G_ss >= 0, v = G_is^2 - G_ii G_ss cannot exceed G_is^2;
        # it can exceed 1 when re-excitation emits more than one pair
        if self.v > self.g_is ** 2 + 1e-6:
            raise ValueError(f"v = {self.v} exceeds g_is^2 = {self.g_is ** 2}")


def _grid_index(run: ScenarioRun, t: float, what: str) -> int:
    """Index of the grid time t, which must lie on the grid to 1e-9."""
    i = int(np.argmin(np.abs(run.times - t)))
    if abs(run.times[i] - t) > 1e-9:
        raise ValueError(f"{what} {t} does not lie on the simulation grid; a "
                         "time outside the simulation grid is not snapped")
    return i


def _window_indices(run: ScenarioRun, window) -> Tuple[int, int]:
    t_r, t_end = (run.times[0], run.times[-1]) if window is None else window
    i0 = _grid_index(run, t_r, "window start")
    i1 = _grid_index(run, t_end, "window end")
    if i1 <= i0:
        raise ValueError("empty counting window")
    return i0, i1


def _backward_functional(rows, steps, hs):
    """u[i] = trapezoid of Integral_{t_i}^{T} rows(s) E(s, t_i) ds.

    rows[i] is the integrand row vector at grid point i; one backward
    sweep folds the propagators in as the window end recedes.
    """
    n = len(rows)
    u = [None] * n
    u[n - 1] = np.zeros_like(rows[0])
    for i in range(n - 2, -1, -1):
        h = hs[i]
        u[i] = (u[i + 1] + (h / 2.0) * rows[i + 1]) @ steps[i] + (h / 2.0) * rows[i]
    return u


def _pair_functional(row, spans, n):
    """_backward_functional for a row that is the same at every point.

    `spans` are the piece table's (lo, hi, h, E) rows over grid points
    0..n-1. Within a row the recurrence is
    u[i] = u[i+1] E + c with c = (h/2)(row E + row), so
    u[hi-j] = u[hi] E^j + c (E^0 + ... + E^{j-1}); each block of up to
    _BLOCK points is one stacked matmul against the powers of E.
    """
    u = np.empty((n, len(row)), dtype=complex)
    u[-1] = 0.0
    for lo, hi, h, e in reversed(spans):
        c = (h / 2.0) * (row @ e + row)
        k = min(_BLOCK, hi - lo)
        p = _powers(e, k)
        q = np.cumsum(c @ p[:k], axis=0)
        j = hi
        while j > lo:
            b = min(k, j - lo)
            u[j - b:j] = (u[j] @ p[1:b + 1] + q[:b])[::-1]
            j -= b
    return u


def photon_mtiples(run: ScenarioRun, cutoff: int = 3,
                   window: Optional[Tuple[float, float]] = None) -> list:
    """Counting moments N_1..N_cutoff of the window's output field.

    The piece table's counting operators are expanded to the grid
    points, right-continuously, and its step matrices to the steps. N_1
    is checked against an independent direct flux quadrature to 1e-6.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if cutoff > MAX_ORDER:
        raise NotImplementedError(
            f"counting moments implemented up to order {MAX_ORDER}")
    i0, i1 = _window_indices(run, window)
    d = run.dim
    table = run.pieces
    if table.ops is None:
        raise ValueError("run carries no counting operators")
    mats = table.per_point(table.ops)[i0:i1 + 1]
    t = run.times[i0:i1 + 1]
    states = run.states[i0:i1 + 1]
    steps = table.step_mats[table.per_point(table.slot)[i0:i1]]
    if run.drive_points < 20:
        warnings.warn(
            "a drive pulse spans fewer than 20 grid points; refine dt "
            "before trusting these moments", stacklevel=2)

    # jump superoperators conj(M) kron M of the whole window at once
    n = len(t)
    js = np.einsum("nij,nkl->nikjl", mats.conj(), mats).reshape(n, d * d, d * d)
    jrows = trace_row(d) @ js
    hs = np.diff(t)

    def trapz(f):
        return float(np.sum(0.5 * hs * (f[:-1] + f[1:])).real)

    n1 = trapz(np.einsum("ni,ni->n", jrows, states))
    # independent route: direct flux expectation tr(M^dag M rho), with
    # rho[c, a] = states[a d + c] read from the unstacked state
    rho_t = states.reshape(n, d, d)
    n1_direct = trapz(np.einsum("nba,nbc,nac->n", mats.conj(), mats, rho_t))
    if abs(n1 - n1_direct) > 1e-6:
        raise RuntimeError(
            f"first-moment routes disagree: {n1} vs {n1_direct}")

    out = [n1]
    if cutoff >= 2:
        u1 = np.array(_backward_functional(jrows, steps, hs))
        out.append(trapz(np.einsum("ni,nij,nj->n", u1, js, states)))
    if cutoff >= 3:
        u2 = np.array(_backward_functional(
            np.einsum("ni,nij->nj", u1, js), steps, hs))
        out.append(trapz(np.einsum("ni,nij,nj->n", u2, js, states)))
    return out


def invert_to_probabilities(n_tiples: Sequence[float],
                            cutoff: Optional[int] = None) -> list:
    """Photon-number probabilities P_0..P_k from counting moments.

    Two independent inversion routes (back substitution of the upper
    triangular forward map, and the closed-form alternating binomial
    sum) must agree to 1e-12. Probabilities below -1e-3 abort; small
    negative values from quadrature error are clamped to zero with the
    whole vector renormalized.
    """
    k = len(n_tiples) if cutoff is None else cutoff
    if k < 1 or k > len(n_tiples):
        raise ValueError(f"cutoff {k} incompatible with {len(n_tiples)} moments")
    nm = [1.0] + [float(x) for x in n_tiples[:k]]

    # route 1: peel orders off from the top
    p_a = [0.0] * (k + 1)
    for nn in range(k, 0, -1):
        s = nm[nn]
        for m in range(nn + 1, k + 1):
            s -= math.comb(m, nn) * p_a[m]
        p_a[nn] = s
    p_a[0] = 1.0 - sum(p_a[1:])

    # route 2: closed-form alternating sum
    p_b = [
        sum((-1) ** (m - nn) * math.comb(m, nn) * nm[m] for m in range(nn, k + 1))
        for nn in range(k + 1)
    ]

    diff = max(abs(a - b) for a, b in zip(p_a, p_b))
    if diff > 1e-12:
        raise RuntimeError(f"inversion routes disagree by {diff}")

    probs = p_a
    worst = min(probs)
    if worst < -1e-3:
        raise ValueError(
            f"probability {worst} below -1e-3; the moment cutoff or grid "
            "is too coarse for this field")
    if worst < 0.0:
        logger.warning(
            "clamping small negative probabilities (worst %.3e) and "
            "renormalizing", worst)
        probs = [max(p, 0.0) for p in probs]
        total = sum(probs)
        probs = [p / total for p in probs]
    return probs


def counting_statistics(run: ScenarioRun, cutoff: int = 3,
                        window: Optional[Tuple[float, float]] = None) -> PhotonStatistics:
    """Moments and probabilities of a run's output field in one call."""
    nm = photon_mtiples(run, cutoff=cutoff, window=window)
    probs = invert_to_probabilities(nm)
    i0, i1 = _window_indices(run, window)
    return PhotonStatistics(
        n_tiples=tuple(nm),
        probabilities=tuple(probs),
        cutoff=cutoff,
        window=(float(run.times[i0]), float(run.times[i1])),
        grid_step=run.grid_step,
    )


def correlator_gm(run: ScenarioRun, at_times: Sequence[float]) -> float:
    """m-point intensity correlator G^(m)(t_1..t_m) at grid times.

    Each time must lie on the simulation grid to 1e-9. The quantum
    regression chain: jump at t_1, propagate piece by piece, jump at
    t_2, and so on, then trace.
    """
    ts = list(at_times)
    if len(ts) < 1:
        raise ValueError("need at least one time")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be nondecreasing")
    idx = [_grid_index(run, t, "time") for t in ts]
    table = run.pieces
    if table.ops is None:
        raise ValueError("run carries no counting operators")
    ops = table.per_point(table.ops)

    def jump(i, v):
        return spre_spost(ops[i], ops[i].conj().T) @ v

    v = jump(idx[0], run.states[idx[0]])
    for i_prev, i_next in zip(idx, idx[1:]):
        for lo, hi, _, e in table.spans(i_prev, i_next):
            v = np.linalg.matrix_power(e, hi - lo) @ v
        v = jump(i_next, v)
    val = float((trace_row(run.dim) @ v).real)
    if val < -1e-9:
        raise RuntimeError(f"correlator came out negative: {val}")
    return val


_CHANNEL_ALIASES = {
    "signal": "signal", "01": "signal", "s": "signal",
    "idler": "idler", "12": "idler", "i": "idler",
    "pump": "pump", "02": "pump",
}


def _channel_matrix(run: ScenarioRun, name: str) -> np.ndarray:
    if run.channels is None:
        raise ValueError("pair correlations require a three-level run")
    key = _CHANNEL_ALIASES.get(str(name).lower())
    if key is None or key not in run.channels:
        raise ValueError(f"unknown channel {name!r}")
    return _as_matrix(run.channels[key])


def ordered_pair_count(run: ScenarioRun, first: str, second: str,
                       horizon: Optional[float] = None) -> float:
    """A_{first,second}: both-jumps integral with `first` at the earlier time.

    A_ab = Integral_{0 <= t <= t' <= T} tr( J_b E(t', t) J_a rho(t) ) dt dt',
    the nested grid trapezoid from one backward sweep of the late-time
    functional of channel b against a forward trapezoid in the early
    time. The sweep walks the rows of the run's piece table with stacked
    matrix powers and each row's exact step (`_pair_functional`). T is
    the end of the run, or `horizon`, which must lie on the grid to 1e-9.
    """
    la = _channel_matrix(run, first)
    lb = _channel_matrix(run, second)
    d = run.dim
    i1 = len(run.times) - 1 if horizon is None else \
        _grid_index(run, horizon, "horizon")
    t = run.times[: i1 + 1]
    n = len(t)
    if n < 2:
        raise ValueError("horizon leaves no integration span")
    ja = spre_spost(la, la.conj().T)
    jb_row = trace_row(d) @ spre_spost(lb, lb.conj().T)
    hs = np.diff(t)
    u = _pair_functional(jb_row, run.pieces.spans(0, i1), n)
    f = np.einsum("ni,ni->n", u, run.states[:n] @ ja.T)
    return float(np.sum(0.5 * hs * (f[:-1] + f[1:])).real)


def cross_pair_integral(run: ScenarioRun, chan_a: str, chan_b: str,
                        horizon: Optional[float] = None) -> float:
    """Window-integrated two-channel coincidence G_ab, symmetric in a, b.

    G_ab = A_ab + A_ba for distinct channels and 2 A_aa for a single
    channel, so both time orderings of the pair are counted.
    """
    a = _CHANNEL_ALIASES.get(str(chan_a).lower())
    b = _CHANNEL_ALIASES.get(str(chan_b).lower())
    if a == b:
        return 2.0 * ordered_pair_count(run, chan_a, chan_a, horizon)
    return ordered_pair_count(run, chan_a, chan_b, horizon) + \
        ordered_pair_count(run, chan_b, chan_a, horizon)


def csi_metric(g_ii: float, g_ss: float, g_is: float) -> float:
    """v = G_is^2 - G_ii G_ss; positive means classically forbidden."""
    return g_is * g_is - g_ii * g_ss
