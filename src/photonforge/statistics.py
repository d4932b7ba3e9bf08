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
turns a channel of several runs into their rows' jump superoperators
conj(M) kron M. These, the chain and w are real in `core.coordinates`,
whose coordinate 0 is the trace. Counting uses the two-level "line"
channel. A chain names one channel per level and builds each named
channel's jumps once. Its step is constant inside a table row except at
the row's last step, whose later point takes the jump of the next row
(right-continuously), so a row is its last step's M times a power of its
interior M, and the chain reduces a block of rows pairwise, applying w
to the block's product, for the rows of several runs at once; a block
holds up to `_FLOATS` floats of steps, so a wide chain's blocks hold
some hundred rows, which multiply faster than one long stack, and a
drive-free two-level window's three-level count (7 wide) goes in blocks
of 1,337 rows. A shaped release does not chain: its window holds no
drive, so it counts from its flux (`scenarios`). Levels hang under
parent levels: a path for counting, a tree for the pair correlations of
the three-level cascade (`pair_correlations`). A chain runs on the
coordinates its trace row can reach (`_reach`): the trace, closed under
the nonzero pattern of the window's step matrices and the jumps. The
rest stays exactly 0, so w is scattered back to its full length. Every
level is computed; one its parent's jumps cannot feed, such as N_2 of a
window without drive, which holds one excitation at most, comes out +0.0
from the products, each an exact 0 times a finite entry. The quality
metric v = G_is^2 - G_ii G_ss is positive only when the cross-channel
coincidence beats the geometric mean of the single-channel ones, which
no classical field can arrange.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import _check_count
from .dynamics import ScenarioRun, _jump_rows

__all__ = [
    "photon_mtiples",
    "invert_to_probabilities",
    "counting_statistics",
    "correlator_gm",
    "pair_correlations",
    "csi_metric",
    "PhotonStatistics",
    "CrossPairResult",
]

logger = logging.getLogger(__name__)

_FLOATS = 1 << 16  # floats of a chain block, rows x runs x width^2: 1,337 rows 7 wide (512 KiB)


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
        if not math.isfinite(self.v):
            raise ValueError(f"v = {self.v} is not finite")

    @property
    def v(self) -> float:
        """`csi_metric` of the integrals; may pass 1 when several pairs are emitted."""
        return csi_metric(self.g_ii, self.g_ss, self.g_is)


def _jumps(runs, channel: str) -> np.ndarray:
    """Jump superoperators conj(M) kron M, in coordinates, of a channel's
    collapse operator M on every table row of the runs, in run order,
    shape (P, d^2, d^2): the real bilinear form of `dynamics._jump_rows`,
    whose trace rows the flux reads."""
    for run in runs:
        if channel not in run.pieces.channels:
            raise ValueError(f"unknown channel {channel!r}; this run has "
                             f"{', '.join(run.pieces.channels)}")
    ops = np.concatenate([run.pieces.channels[channel] for run in runs])
    return _jump_rows(ops, trace=False).reshape((len(ops),) + (ops.shape[-1] ** 2,) * 2)


def _chain_steps(e, jc, jn, h, channels, parents=None):
    """Stacked grid trapezoid steps M of the chain w = [1, u_1 .. u_L].

    Level k's jump is jc[c] at a step's earlier point and jn[c] at its
    later one, c = channels[k-1]; it hangs under u_p, p = parents[k-1] + 1
    < k (k - 1 by default; -1 is a root under u_0, the trace, which is
    coordinate 0 of e and the jumps). With X_k = (h/2) Jc_k,
    Q_k = (h/2)(E Jc_k + Jn_k E) and c_k = (h/2)(Jc_k[0] + Jn_k[0] E), the
    blocks are M[u_a, u_a] = E, M[u_a, u_b] = Q_c X .. X_b down the tree
    path a <- c <- .. <- b and M[1, u_b] = c_r X .. X_b from b's root r,
    so u_k[i] = (u_k[i+1] + (h/2) u_p[i+1] Jn_k) E + (h/2) u_p[i] Jc_k.
    """
    r, d2 = e.shape[:2]
    hh = (h / 2.0)[:, None, None]
    m = np.zeros((r, 1 + len(channels) * d2, 1 + len(channels) * d2))
    m[:, 0, 0] = 1.0
    blk = [slice(1 + k * d2, 1 + (k + 1) * d2) for k in range(len(channels))]
    forms = {}  # per (root, channel): a root level's c, another level's X and Q
    for k, p in enumerate(range(-1, len(channels) - 1) if parents is None else parents):
        if (key := (p < 0, c := channels[k])) not in forms:
            forms[key] = (hh * (jc[c][:, :1] + jn[c][:, :1] @ e) if p < 0
                          else (hh * jc[c], hh * (e @ jc[c] + jn[c] @ e)))
        m[:, blk[k], blk[k]] = e
        if p < 0:  # a root hangs under the scalar row
            m[:, :1, blk[k]] = forms[key]
        else:  # rows above the parent reach u_{k+1} by its X, the parent by Q
            top = slice(0, blk[p].start)
            m[:, top, blk[k]] = m[:, top, blk[p]] @ forms[key][0]
            m[:, blk[p], blk[k]] = forms[key][1]
    return m


def _product(mats) -> np.ndarray:
    """mats[0] @ mats[1] @ ... @ mats[-1], in log2(len(mats)) stacked products."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        mats = np.concatenate([mats[0:even:2] @ mats[1:even:2], mats[even:]])
    return mats[0]


def _side_by_side(xs, size: int, fill) -> np.ndarray:
    """The row arrays xs as one (size, len(xs), ...) array, each shorter
    one ending in rows of `fill`."""
    if len(xs) == 1:  # a lone array is the longest
        return xs[0][:, None]
    out = np.empty((size, len(xs)) + xs[0].shape[1:], xs[0].dtype)
    out[:] = fill
    for i, x in enumerate(xs):
        out[:len(x), i] = x
    return out


def _reach(steps, jumps, d: int) -> np.ndarray:
    """The coordinates a chain's vectors u_k can reach (`_closure`), from one
    nonzero pattern: the union over the step stacks `steps` and the jump stacks."""
    e = functools.reduce(np.logical_or, [m.any(axis=0) for m in (*steps, *jumps)])
    return _closure(e.tobytes(), d)


@functools.lru_cache(maxsize=64)
def _closure(pattern: bytes, d: int) -> np.ndarray:
    """The trace coordinate 0 of d levels closed under a (d^2, d^2) boolean
    pattern, as bytes: u A is nonzero only at columns j with A[i, j] != 0
    for a nonzero u_i."""
    p = np.frombuffer(pattern, bool).reshape(d * d, d * d)
    s = np.arange(d * d) == 0
    while (more := s @ p & ~s).any():
        s |= more
    idx = np.flatnonzero(s)
    idx.flags.writeable = False
    return idx


def _chain(runs, windows, channels, parents=None) -> np.ndarray:
    """Backward trapezoid functionals w = [1, u_1 .. u_L] of several runs,
    each at the start i0 of its window (i0, i1) of grid points, (runs, 1 + L d^2).

    u_k(t_i) is the grid trapezoid of Integral_{t_i}^{T} u_p(s) J_k(s)
    E(s, t_i) ds, u_p its parent (`_chain_steps`) and T = times[i1]; J_k is
    the jump of channel channels[k-1], built once for all runs by `_jumps`.
    Because the states obey rho(t_{i+1}) = E rho(t_i) on the grid,
    u_k(t_i0) rho(t_i0) is the grid trapezoid of u_p J_k rho over [t_i0, T].
    The chain runs on the coordinates its trace row reaches through the
    window rows' E and the jumps (`_reach`), coordinate 0 (the trace row of
    the reached jumps) first; the rest of w is +0.0. A level that its
    parent's jumps cannot feed, such as N_2 of a window without drive, which
    holds one excitation at most, is computed like any other and comes out
    +0.0 from the products: each of its terms is an exact 0 times a finite
    entry. A row is the M of its last step, whose later point takes the
    jumps of the row starting there, times a `matrix_power` of its interior
    M. Each run takes its rows backward, and one `_product` reduces the same
    block of rows of every run at once, the shorter runs padded at their
    ends with zero-length rows (E = 1, h = 0), whose M is the identity
    exactly; x * 1 and x + 0 are exact, so the padding changes no run's w. A
    block's step stack holds _FLOATS floats at most, and the runs go in
    groups whose rows fill one block.
    """
    parts, off = [], 0  # per run, latest row first: E, h, steps, row, next row
    for run, (i0, i1) in zip(runs, windows):
        t = run.pieces
        ps, lo, hi = t.spans(i0, i1)
        ps, hi = ps[::-1], hi[::-1]
        parts.append((t.steps(ps), t.h.take(ps), hi - lo[::-1], ps + off,
                      t.row_at(hi) + off))
        off += len(t.n_steps)
    jumps = {c: _jumps(runs, c) for c in dict.fromkeys(channels)}
    d2 = jumps[channels[0]].shape[-1]
    idx = _reach([p[0] for p in parts], jumps.values(), math.isqrt(d2))
    sub = (..., idx[:, None], idx)
    jumps = {c: j[sub] for c, j in jumps.items()}
    pad = (np.eye(d2), 0.0, 1, 0, 0)  # its jumps, of row 0, scale by h/2 = 0
    d = 1 + len(channels) * len(idx)
    w = np.zeros((len(runs), d))
    w[:, 0] = 1.0
    sizes = [len(p[1]) for p in parts]
    block = max(1, _FLOATS // (d * d))  # rows of one block, over all its runs
    group = block // min(max(sizes), block)
    for g in range(0, len(runs), group):
        size = max(sizes[g:g + group])
        rows = [_side_by_side(xs, size, f) for xs, f in zip(zip(*parts[g:g + group]), pad)]
        rows[0] = rows[0][sub]
        sel = slice(g, g + rows[0].shape[1])
        for b in range(0, size, block):
            e, h, k, cur, nxt = (x[b:b + block].reshape((-1,) + x.shape[2:]) for x in rows)
            r = np.flatnonzero(k > 1)
            # each channel's jumps gathered once: at rows, next rows, long rows
            jc, jn = ({c: j[at] for c, j in jumps.items()} for at in (cur, nxt))
            m = _chain_steps(e, jc, jn, h, channels, parents)
            if len(r):
                inner = {c: j[r] for c, j in jc.items()}
                a = _chain_steps(e[r], inner, inner, h[r], channels, parents)
                for x, ax, n in zip(r.tolist(), a, (k[r] - 1).tolist()):
                    m[x] = m[x] @ np.linalg.matrix_power(ax, n)
            w[sel] = (w[sel, None] @ _product(m.reshape(-1, len(w[sel]), d, d)))[:, 0]
    out = np.zeros((len(runs), 1 + len(channels) * d2))  # the unreached: +0.0
    out[:, 0] = 1.0
    shape = (len(runs), len(channels), -1)  # (runs, level, coordinate) views of u_1 .. u_L
    out[:, 1:].reshape(shape)[..., idx] = w[:, 1:].reshape(shape)
    return out


def photon_mtiples(run: ScenarioRun, cutoff: int = 3,
                   window: Optional[Tuple[float, float]] = None) -> list:
    """Counting moments N_1..N_cutoff of the window's output field.

    N_m = u_m(t_r) rho(t_r), read at the window start from one backward
    chain of `cutoff` levels over the piece table (`_chain`), every
    level with each row's jump of the "line" channel, right-continuously.
    The chain is generic in its level count: any cutoff of at least 1 runs.
    """
    return _moments([run], _windows([run], [window], cutoff), cutoff)[0]


def _windows(runs, windows, cutoff) -> list:
    """A count's checks before its chain, in order: the cutoff, then each run's window
    (None the whole run) as grid indices (`PieceTable.index`). Warns, naming the
    caller's caller, when a drive pulse of a run spans fewer than 20 grid points."""
    _check_count("cutoff", cutoff)
    out = []
    for run, window in zip(runs, windows):
        i0, i1 = (0, int(run.pieces.starts[-1])) if window is None else (
            run.pieces.index(t, f"window {end}") for t, end in zip(window, ("start", "end")))
        if i1 <= i0:
            raise ValueError("empty counting window")
        out.append((i0, i1))
    if any(run.drive_points < 20 for run in runs):
        warnings.warn(
            "a drive pulse spans fewer than 20 grid points; refine dt "
            "before trusting these moments", stacklevel=3)
    return out


def _moments(runs, windows, cutoff: int) -> list:
    """`photon_mtiples` of several runs over windows of grid indices, from one `_chain`."""
    return [(wr[1:].reshape(cutoff, -1) @ run.coords_at(i0)).tolist()
            for run, (i0, _), wr in zip(runs, windows, _chain(runs, windows, ["line"] * cutoff))]


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
    windows = _windows([run], [window], cutoff)
    return _statistics([run], windows, _moments([run], windows, cutoff))[0]


def _statistics(runs, windows, moments) -> list:
    """The `PhotonStatistics` of several runs over windows of grid indices, from
    each run's moments N_1..N_cutoff."""
    return [PhotonStatistics(n_tiples=tuple(nm), probabilities=tuple(invert_to_probabilities(nm)),
                             window=(run.pieces.time(i0), run.pieces.time(i1)))
            for run, (i0, i1), nm in zip(runs, windows, moments)]


def correlator_gm(run: ScenarioRun, at_times: Sequence[float]) -> float:
    """m-point intensity correlator G^(m)(t_1..t_m) at grid times.

    Each time must lie on the simulation grid (`PieceTable.index`). The quantum
    regression chain: jump of the "line" channel at t_1, propagate by one
    `_product` of the rows' step-matrix powers, jump at t_2, and so on.
    """
    ts = list(at_times)
    if len(ts) < 1:
        raise ValueError("need at least one time")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be nondecreasing")
    idx = [run.pieces.index(t) for t in ts]
    table = run.pieces
    jumps = _jumps([run], "line")[table.row_at(idx)]
    v = jumps[0] @ run.coords_at(idx[0])
    for i_prev, i_next, jump in zip(idx, idx[1:], jumps[1:]):
        ps, lo, hi = table.spans(i_prev, i_next)
        if len(ps):
            e = table.steps(ps)
            for x in np.flatnonzero(hi - lo > 1).tolist():
                e[x] = np.linalg.matrix_power(e[x], hi[x] - lo[x])
            v = _product(e[::-1]) @ v
        v = jump @ v
    val = float(v[0])
    if val < -1e-9:
        raise RuntimeError(f"correlator came out negative: {val}")
    return val


def pair_correlations(run: ScenarioRun) -> CrossPairResult:
    """G_ii, G_ss and G_is of a three-level run from its ordered pair integrals

        A_ab = Integral_{0 <= t <= t' <= T} tr( J_b E(t', t) J_a rho(t) ) dt dt'

    over the whole run, T its end, with G_ab = A_ab + A_ba for the distinct channels and
    G_aa = 2 A_aa, so both time orderings of a pair are counted (`_pair_counts`)."""
    return _pair_correlations([run])[0]


def _pair_correlations(runs) -> list:
    """`pair_correlations` of several runs from one `_chain`."""
    return [CrossPairResult(g_ii=2.0 * a_ii, g_ss=2.0 * a_ss, g_is=a_is + a_si)
            for a_ii, a_si, a_is, a_ss in _pair_counts(runs)]


def _pair_counts(runs) -> list:
    """Per run, A_ii, A_si, A_is and A_ss, each A_ab the nested grid trapezoid u_2(0) rho(0)
    of one whole-run backward chain (`_chain`): its roots u_1 carry the late idler and
    signal jumps, each with the early idler and signal jumps as its children u_2."""
    if any(run.params.levels != 3 for run in runs):
        raise ValueError("pair correlations require a three-level run")
    w = _chain(runs, [(0, run.pieces.starts[-1]) for run in runs], ["idler", "signal"] * 3,
               [-1, -1, 0, 0, 1, 1])
    return [(wr[1:].reshape(6, -1)[2:] @ run.coords_at(0)).tolist()
            for run, wr in zip(runs, w)]


def csi_metric(g_ii: float, g_ss: float, g_is: float) -> float:
    """v = G_is^2 - G_ii G_ss; positive means classically forbidden."""
    return g_is * g_is - g_ii * g_ss
