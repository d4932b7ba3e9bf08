"""Photon counting statistics from time-ordered correlation integrals.

The order-m counting moment of the output field over a window
[t_r, T] is the time-ordered integral

    N_m = Integral_{t_r <= t_1 <= ... <= t_m <= T}
              tr( J(t_m) E(t_m, t_{m-1}) J(t_{m-1}) ... J(t_1) rho(t_1) )

with J(t) rho = M(t) rho M(t)^dag the counting jump channel and
E(t', t) the two-time propagator, so N_m is the mean number of
unordered m-photon detection combinations, E[C(n, m)]. Rather than
nesting quadratures, one backward chain carries w = [1, u_1 .. u_L]
over the grid: u_m(t_i) accumulates "everything later than t_i" up to
order m, and the grid-trapezoid step of every level is one matrix M,
the trapezoid counterpart of Van Loan's block generator for integrals
of the matrix exponential. The states obey rho(t_{i+1}) = E rho(t_i) on
the grid, so the chain closes every integral itself: N_m is
u_m(t_r) rho(t_r), read at the window start. The forward map from
probabilities to moments, N_m = sum_n C(n, m) P_n, is upper triangular,
so the probabilities follow from the moments by back substitution.

Every statistic reads the run's piece table (`dynamics.PieceTable`),
whose output channels give each row's collapse operator M; `_jumps`
turns a channel into the rows' jump superoperators conj(M) kron M.
Counting uses the two-level "line" channel. The chain's step is
constant inside a table row except at the row's last step, whose later
point takes the jump of the next row (right-continuously), so the chain
walks the rows backward, one product for a row's last step and one
matrix power for its interior. Pair correlations of the three-level
cascade are the same chain with two levels, channel b's jump on the
first and channel a's on the second.
The quality metric v = G_is^2 - G_ii G_ss is positive only when the
cross-channel coincidence beats the geometric mean of the single-channel
ones, which no classical field can arrange.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import trace_row
from .dynamics import _BLOCK, ScenarioRun

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


@dataclass(frozen=True)
class PhotonStatistics:
    """Counting moments and photon-number probabilities over a window."""

    n_tiples: Tuple[float, ...]
    probabilities: Tuple[float, ...]
    window: Tuple[float, float]

    def prob(self, n: int) -> float:
        return self.probabilities[n]


@dataclass(frozen=True)
class CrossPairResult:
    """Integrated pair correlations of the two-channel cascade and their metric v."""

    g_ii: float
    g_ss: float
    g_is: float

    def __post_init__(self):
        for name in ("g_ii", "g_ss", "g_is"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is not finite")
            if getattr(self, name) < -1e-9:
                raise ValueError(f"{name} = {getattr(self, name)} is negative")

    @property
    def v(self) -> float:
        """`csi_metric` of the integrals; may pass 1 when several pairs are emitted."""
        return csi_metric(self.g_ii, self.g_ss, self.g_is)


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


def _jumps(run: ScenarioRun, channel: str = "line") -> np.ndarray:
    """Jump superoperators conj(M) kron M of a channel's collapse
    operator M on every table row, shape (P, d^2, d^2)."""
    ops = run.pieces.channels.get(channel)
    if ops is None:
        raise ValueError(f"unknown channel {channel!r}; this run has "
                         f"{', '.join(run.pieces.channels)}")
    d = ops.shape[-1]
    return np.einsum("pij,pkl->pikjl", ops.conj(), ops).reshape(len(ops), d * d, d * d)


def _chain_steps(e, jc, jn, h):
    """Stacked one-step matrices M of the chain w = [1, u_1 .. u_L].

    Level k's jump is jc[k-1] at a step's earlier point and jn[k-1] at
    its later one. With X_k = (h/2) Jc_k, Q_k = (h/2)(E Jc_k + Jn_k E)
    and c = (h/2)(tr Jc_1 + tr Jn_1 E), the blocks are M[u_a, u_a] = E,
    M[u_a, u_b] = Q_{a+1} X_{a+2} .. X_b and M[1, u_b] = c X_2 .. X_b:
    the grid trapezoid step u_k[i] = (u_k[i+1] + (h/2) u_{k-1}[i+1] Jn_k)
    E + (h/2) u_{k-1}[i] Jc_k of every level at once, with u_0 the trace.
    """
    r, d2 = e.shape[:2]
    hh = (h / 2.0)[:, None, None]
    tr = trace_row(math.isqrt(d2))
    m = np.zeros((r, 1 + len(jc) * d2, 1 + len(jc) * d2), dtype=complex)
    m[:, 0, 0] = 1.0
    blk = [slice(1 + k * d2, 1 + (k + 1) * d2) for k in range(len(jc))]
    m[:, :1, blk[0]] = hh * ((tr @ jc[0])[:, None] + (tr @ jn[0])[:, None] @ e)
    for k in range(len(jc)):
        m[:, blk[k], blk[k]] = e
        if k:
            # the scalar and u_1 .. u_{k-1} reach u_{k+1} through u_k's X,
            # and u_k reaches it through Q
            top = slice(0, blk[k - 1].start)
            m[:, top, blk[k]] = m[:, top, blk[k - 1]] @ (hh * jc[k])
            m[:, blk[k - 1], blk[k]] = hh * (e @ jc[k] + jn[k] @ e)
    return m


def _chain(run: ScenarioRun, i0: int, i1: int, jumps) -> np.ndarray:
    """Backward trapezoid functional w = [1, u_1 .. u_L] at grid point i0.

    u_k(t_i) is the grid trapezoid of Integral_{t_i}^{T} u_{k-1}(s) J_k(s)
    E(s, t_i) ds with u_0 the trace row and T = times[i1]; jumps[k-1][p]
    is J_k on table row p. Because the states obey rho(t_{i+1}) =
    E rho(t_i) on the grid, u_k(t_i0) rho(t_i0) is the grid trapezoid of
    u_{k-1} J_k rho over [t_i0, T]. w = w M walks the rows backward: a
    row's last step, whose later point takes the jumps of the row starting
    there (right-continuously), is one product, and its interior steps
    one power of the interior M.
    """
    table = run.pieces
    ps, lo, hi = table.spans(i0, i1)
    nxt = table.per_point(np.arange(len(table.slot)))[hi]
    w = np.zeros(1 + len(jumps) * jumps[0].shape[-1], dtype=complex)
    w[0] = 1.0
    # _BLOCK rows' last-step matrices at a time, which bounds memory on long ramps
    for stop in range(len(ps), 0, -_BLOCK):
        c = np.arange(max(stop - _BLOCK, 0), stop)[::-1]
        e, h = table.step_mats[table.slot[ps[c]]], table.h[ps[c]]
        jc = [j[ps[c]] for j in jumps]
        last = _chain_steps(e, jc, [j[nxt[c]] for j in jumps], h)
        for r, k in enumerate((hi[c] - lo[c]).tolist()):
            w = w @ last[r]
            if k > 1:
                row = [j[r:r + 1] for j in jc]
                m = _chain_steps(e[r:r + 1], row, row, h[r:r + 1])[0]
                w = w @ np.linalg.matrix_power(m, k - 1)
    return w


def photon_mtiples(run: ScenarioRun, cutoff: int = 3,
                   window: Optional[Tuple[float, float]] = None) -> list:
    """Counting moments N_1..N_cutoff of the window's output field.

    N_m = u_m(t_r) rho(t_r), read at the window start from one backward
    chain of `cutoff` levels over the piece table (`_chain`), every
    level with each row's jump of the "line" channel, right-continuously.
    The chain is generic in its level count: any cutoff of at least 1 runs.
    """
    if not (isinstance(cutoff, (int, np.integer)) and cutoff >= 1):
        raise ValueError(f"cutoff must be an integer of at least 1, got {cutoff!r}")
    i0, i1 = _window_indices(run, window)
    jumps = _jumps(run)
    if run.drive_points < 20:
        warnings.warn(
            "a drive pulse spans fewer than 20 grid points; refine dt "
            "before trusting these moments", stacklevel=2)
    w = _chain(run, i0, i1, [jumps] * cutoff)
    return (w[1:].reshape(cutoff, -1) @ run.states[i0]).real.tolist()


def invert_to_probabilities(n_tiples: Sequence[float]) -> list:
    """Photon-number probabilities P_0..P_k from the moments N_1..N_k.

    Back substitution of the upper triangular forward map N_m =
    sum_n C(n, m) P_n, peeling orders off from the top; a lower cutoff
    is a slice of the moments. Non-finite moments and probabilities
    below -1e-3 abort; small negative values from quadrature error are
    clamped to zero with the whole vector renormalized, so the
    probabilities sum to 1 to rounding.
    """
    k = len(n_tiples)
    if k < 1:
        raise ValueError("need at least one counting moment")
    nm = [1.0] + [float(x) for x in n_tiples]
    if not all(map(math.isfinite, nm)):
        raise ValueError(f"counting moments {nm[1:]} are not all finite")
    probs = [0.0] * (k + 1)
    for nn in range(k, 0, -1):
        s = nm[nn]
        for m in range(nn + 1, k + 1):
            s -= math.comb(m, nn) * probs[m]
        probs[nn] = s
    probs[0] = 1.0 - sum(probs[1:])

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
        window=(float(run.times[i0]), float(run.times[i1])),
    )


def correlator_gm(run: ScenarioRun, at_times: Sequence[float]) -> float:
    """m-point intensity correlator G^(m)(t_1..t_m) at grid times.

    Each time must lie on the simulation grid to 1e-9. The quantum
    regression chain: jump of the "line" channel at t_1, propagate piece
    by piece, jump at t_2, and so on, then trace.
    """
    ts = list(at_times)
    if len(ts) < 1:
        raise ValueError("need at least one time")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be nondecreasing")
    idx = [_grid_index(run, t, "time") for t in ts]
    table = run.pieces
    jumps = table.per_point(_jumps(run))
    v = jumps[idx[0]] @ run.states[idx[0]]
    for i_prev, i_next in zip(idx, idx[1:]):
        for p, lo, hi in zip(*table.spans(i_prev, i_next)):
            v = np.linalg.matrix_power(table.step_mats[table.slot[p]], hi - lo) @ v
        v = jumps[i_next] @ v
    val = float((trace_row(run.dim) @ v).real)
    if val < -1e-9:
        raise RuntimeError(f"correlator came out negative: {val}")
    return val


def ordered_pair_count(run: ScenarioRun, first: str, second: str) -> float:
    """A_{first,second}: both-jumps integral with `first` at the earlier time.

    A_ab = Integral_{0 <= t <= t' <= T} tr( J_b E(t', t) J_a rho(t) ) dt dt'
    over the whole run, T its end; a shorter span is a shorter run. The
    nested grid trapezoid is read as u_2(0) rho(0) from the same
    backward chain as the counting moments (`_chain`) with levels
    (J_b, J_a): u_1 carries the late jump of channel b, u_2 the early
    jump of channel a. The channels are "signal", "idler" and "pump".
    """
    if run.params.levels != 3:
        raise ValueError("pair correlations require a three-level run")
    ja, jb = _jumps(run, first), _jumps(run, second)
    w = _chain(run, 0, len(run.times) - 1, [jb, ja])
    return float((w[1 + run.dim ** 2:] @ run.states[0]).real)


def cross_pair_integral(run: ScenarioRun, chan_a: str, chan_b: str) -> float:
    """Run-integrated two-channel coincidence G_ab, symmetric in a, b.

    G_ab = A_ab + A_ba for distinct channels and 2 A_aa for a single
    channel, so both time orderings of the pair are counted.
    """
    if chan_a == chan_b:
        return 2.0 * ordered_pair_count(run, chan_a, chan_a)
    return ordered_pair_count(run, chan_a, chan_b) + \
        ordered_pair_count(run, chan_b, chan_a)


def csi_metric(g_ii: float, g_ss: float, g_is: float) -> float:
    """v = G_is^2 - G_ii G_ss; positive means classically forbidden."""
    return g_is * g_is - g_ii * g_ss
