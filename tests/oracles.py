"""Reference implementations used only by the tests.

Everything here deliberately uses different algorithms than the package:
adaptive ODE integration instead of exact piecewise exponentials,
forward-nested quadrature instead of backward sweeps (for counting
moments and for pair integrals), closed-form alternating binomial sums
instead of back substitution, Taylor series summed to convergence with
step doubling instead of fixed-degree Paterson-Stockmeyer Taylor
exponentials, complex Kronecker jumps instead of their real bilinear
form, the complex stacked product L^dag L instead of its broadcast sum,
a sequential merge loop over the breakpoints instead of passes over
runs of close points, basis-column assembly of generators instead
of Kronecker products, and drive-free closed forms read from the stacked
generators instead of from stored per-step factors. Agreement with the package is therefore a
meaningful cross-check, not a tautology.
"""

import math

import numpy as np
import photonforge as pf
from scipy.integrate import solve_ivp


def apply_master_equation(rho, h, collapse):
    """Right-hand side -i[H, rho] + sum_j D[L_j] rho, acting on a matrix."""
    out = -1j * (h @ rho - rho @ h)
    for lop in collapse:
        ldl = lop.conj().T @ lop
        out = out + lop @ rho @ lop.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def generator_matrix(h, collapse):
    """Column-stacked generator assembled column by column (no kron)."""
    d = h.shape[0]
    cols = []
    for j in range(d * d):
        basis = np.zeros((d, d), dtype=complex)
        basis[j % d, j // d] = 1.0
        cols.append(apply_master_equation(basis, h, collapse).reshape(-1, order="F"))
    return np.column_stack(cols)


def mirror_qubit_ops(gamma, phi, delta=0.0, alpha=0.0, gamma_nr=0.0):
    """(H, collapse list) of the phase-tunable qubit, assembled afresh."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    geff = gamma * (1.0 + math.cos(phi))
    lop = math.sqrt(geff) * np.exp(1j * phi / 2.0) * sm
    h = ((delta - (gamma / 2.0) * math.sin(phi)) / 2.0) * sz
    if alpha != 0:
        x = alpha * np.exp(1j * phi) * lop.conj().T
        h = h + (-1j) * (x - x.conj().T)
    collapse = [lop]
    if gamma_nr > 0:
        collapse.append(math.sqrt(gamma_nr) * sm)
    return h, collapse


def output_coupling(params, phi):
    """Two-level line operator L = sqrt(Gamma_eff) e^{i phi/2} sigma_minus."""
    if params.levels != 2:
        raise ValueError("output_coupling is the two-level line operator")
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return sm * (np.sqrt(params.gamma * (1.0 + np.cos(phi))) * np.exp(1j * phi / 2.0))


def schedule_value(segments, t, ramp=None):
    """A schedule's value at t by a loop over its pieces: the ramp sample
    i on [times[i], times[i+1]), else the first segment (t0, t1, v) with
    t0 <= t < t1, else None."""
    if ramp is not None:
        times, values = ramp
        for k in range(len(times) - 1):
            if times[k] <= t < times[k + 1]:
                return values[k]
    for t0, t1, v in segments:
        if t0 <= t < t1:
            return v
    return None


def spre_spost(a, b):
    """Matrix of rho -> a rho b under column stacking: (b^T kron a)."""
    return np.kron(np.asarray(b).T, np.asarray(a))


def ode_propagator(pieces, dim, rtol=1e-11, atol=1e-13):
    """Adaptive-step propagator over [(t0, t1, generator matrix), ...].

    Integrates the full matrix ODE dP/dt = L(t) P with an embedded
    Runge-Kutta method, chaining the pieces in order.
    """
    d2 = dim * dim
    p = np.eye(d2, dtype=complex)
    for a, b, gen in pieces:
        def rhs(t, y, gen=gen):
            return (gen @ y.reshape(d2, d2)).reshape(-1)

        sol = solve_ivp(rhs, (a, b), p.reshape(-1), method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"ODE integration failed on ({a}, {b})")
        p = sol.y[:, -1].reshape(d2, d2)
    return p


def number_resolved_probabilities(run, kmax=10, rtol=1e-12, atol=1e-20):
    """P_0..P_kmax of the photons a two-level run emits into the line,
    P_kmax the mass of n >= kmax, by adaptive ODE integration.

    The conditioned states x_n (n photons counted so far) obey
    x_n' = (L - J) x_n + J x_{n-1}, and the absorbing x_kmax' = L x_kmax
    + J x_{kmax-1}, with J rho = M rho M^dag the jump of the line
    operator M: a block-bidiagonal generator (P. Zoller, M. Marte &
    D. F. Walls, Phys. Rev. A 35, 198 (1987)). Each row of the run's
    piece table is one DOP853 integration of it, from the run's first
    state in x_0; the generators are assembled afresh from the row's
    phase and drive, and the counting covers the whole run.
    """
    p, table = run.params, run.pieces
    d2 = run.dim ** 2
    x = np.zeros((kmax + 1) * d2, dtype=complex)
    x[:d2] = run.states[0]
    for t_a, t_b, phi, alpha in zip(table.t_a, table.t_b, table.phi, table.alpha):
        h, collapse = mirror_qubit_ops(p.gamma, phi, p.delta, alpha, p.gamma_nr)
        jump = np.kron(collapse[0].conj(), collapse[0])
        gen = (np.kron(np.eye(kmax + 1), generator_matrix(h, collapse) - jump)
               + np.kron(np.eye(kmax + 1, k=-1), jump))
        gen[-d2:, -d2:] += jump
        sol = solve_ivp(lambda t, y: gen @ y, (t_a, t_b), x, method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"ODE integration failed on ({t_a}, {t_b})")
        x = sol.y[:, -1]
    tr = np.eye(run.dim).reshape(-1)
    return [float((tr @ x[n * d2:(n + 1) * d2]).real) for n in range(kmax + 1)]


def grid_steps(run, coords=False):
    """The step matrix of every grid interval of a run, from its piece
    table: row p's matrix repeated over its n_steps intervals, in the vec
    basis, V E W, or as stored in real coordinates with coords=True."""
    table = run.pieces
    v, w = pf.core.coordinates(run.dim)
    out = []
    for e, n in zip(table.steps(np.arange(len(table.slot))), table.n_steps):
        out.extend([e if coords else v @ e @ w] * int(n))
    return out


def grid_ops(run):
    """The counting operator at every grid point of a two-level run.

    A point carries the operator of the row whose span [t_a, t_b) holds
    its time, and the end point that of the last row.
    """
    table = run.pieces
    rows = [int(np.nonzero((table.t_a <= t) & (t < table.t_b))[0][0])
            for t in run.times[:-1]]
    ops = table.channels["line"]
    return [ops[p] for p in rows + [len(ops) - 1]]


def march_states(run, coords=False):
    """States on the grid by one matrix-vector product per step from the
    run's first state: column-stacked, or real coordinates with coords=True."""
    out = [run.coords[0] if coords else run.states[0]]
    for e in grid_steps(run, coords):
        out.append(e @ out[-1])
    return np.array(out)


def naive_counting_moments(times, steps, ops, states, mmax=3):
    """Ordered counting integrals by explicit forward-nested trapezoids.

    O(n^m) and meant for coarse grids only. `steps[k]` maps grid point k
    to k+1, `ops[k]` is the counting operator at point k, `states[k]`
    the column-stacked state.
    """
    t = np.asarray(times, dtype=float)
    n = len(t)
    d2 = states[0].shape[0]
    d = int(round(math.sqrt(d2)))
    js = [np.kron(m.conj(), m) for m in ops]
    tr = np.zeros(d2, dtype=complex)
    tr[:: d + 1] = 1.0
    jrows = [tr @ j for j in js]

    f1 = np.array([(jrows[i] @ states[i]).real for i in range(n)])
    out = [float(np.trapezoid(f1, t))]
    if mmax < 2:
        return out

    f2 = np.empty(n)
    for i in range(n):
        y = js[i] @ states[i]
        vals = np.empty(n - i)
        vals[0] = (jrows[i] @ y).real
        yk = y
        for k in range(i + 1, n):
            yk = steps[k - 1] @ yk
            vals[k - i] = (jrows[k] @ yk).real
        f2[i] = np.trapezoid(vals, t[i:])
    out.append(float(np.trapezoid(f2, t)))
    if mmax < 3:
        return out

    f3 = np.empty(n)
    for i in range(n):
        yj = js[i] @ states[i]
        g = np.empty(n - i)
        for jj in range(i, n):
            if jj > i:
                yj = steps[jj - 1] @ yj
            z = js[jj] @ yj
            vals = np.empty(n - jj)
            vals[0] = (jrows[jj] @ z).real
            zk = z
            for k in range(jj + 1, n):
                zk = steps[k - 1] @ zk
                vals[k - jj] = (jrows[k] @ zk).real
            g[jj - i] = np.trapezoid(vals, t[jj:])
        f3[i] = np.trapezoid(g, t[i:])
    out.append(float(np.trapezoid(f3, t)))
    return out


def nested_pair_count(run, first, second):
    """Ordered pair integral A_ab by explicit forward-nested trapezoids.

    For each early index i, J_a rho_i is propagated forward with
    `grid_steps(run)` and tr(J_b .) is trapezoid-integrated over the later
    grid points; the outer trapezoid runs over i. O(n^2), coarse grids
    only. `first` and `second` are keys of `pf.channel_couplings`, read
    from the run's parameters rather than its piece table.
    """
    t = np.asarray(run.times, dtype=float)
    n = len(t)
    d = run.dim
    channels = pf.channel_couplings(run.params)
    la = channels[first].mat
    lb = channels[second].mat
    ja = np.kron(la.conj(), la)
    jb = np.kron(lb.conj(), lb)
    tr = np.zeros(d * d, dtype=complex)
    tr[:: d + 1] = 1.0
    steps = grid_steps(run)
    g = np.empty(n)
    for i in range(n):
        y = ja @ run.states[i]
        vals = np.empty(n - i)
        vals[0] = (tr @ (jb @ y)).real
        for k in range(i + 1, n):
            y = steps[k - 1] @ y
            vals[k - i] = (tr @ (jb @ y)).real
        g[i] = np.trapezoid(vals, t[i:])
    return float(np.trapezoid(g, t))


def chain_walk(run, i0, i1, jumps, parents=None):
    """The backward chain w = [1, u_1 .. u_L] at grid point i0 by a walk
    over the rows from the window end: per row, one vector product with
    the chain step of its last grid step (whose later point takes the
    jumps of the row starting there) and one with a `matrix_power` of its
    interior step. The package reduces the same row matrices as a tree.
    `parents` are the levels' parents as `_chain_steps` takes them; the
    default is the linear path. The walk keeps every coordinate, its trace
    row the sum of all the populations. Each level is its own channel,
    named by its index, so no level shares another's forms."""
    table = run.pieces
    ps, lo, hi = table.spans(i0, i1)
    nxt = table.per_point(np.arange(len(table.slot)))[hi]
    d2 = jumps[0].shape[-1]
    tr = (np.arange(d2) < math.isqrt(d2)).astype(float)
    levels = range(len(jumps))
    w = np.zeros(1 + len(jumps) * d2)
    w[0] = 1.0
    for p, n, q in zip(ps[::-1], (hi - lo)[::-1], nxt[::-1]):
        e, h = table.steps([p]), table.h[p:p + 1]
        jc = {k: j[p:p + 1] for k, j in enumerate(jumps)}
        jn = {k: j[q:q + 1] for k, j in enumerate(jumps)}
        w = w @ pf.statistics._chain_steps(e, jc, jn, h, tr, levels, parents)[0]
        if n > 1:
            interior = pf.statistics._chain_steps(e, jc, jc, h, tr, levels, parents)[0]
            w = w @ np.linalg.matrix_power(interior, n - 1)
    return w


def per_point_correlator(run, idx):
    """`correlator_gm` at grid indices idx as it read its jumps before the
    row lookup: the jump stack expanded to every grid point by
    `PieceTable.per_point`, each time's jump read at its own point."""
    table = run.pieces
    jumps = table.per_point(pf.statistics._jumps([run], "line"))
    v = jumps[idx[0]] @ run.coords_at(idx[0])
    for i_prev, i_next in zip(idx, idx[1:]):
        ps, lo, hi = table.spans(i_prev, i_next)
        if len(ps):
            e = table.steps(ps)
            for x in np.flatnonzero(hi - lo > 1).tolist():
                e[x] = np.linalg.matrix_power(e[x], hi[x] - lo[x])
            v = pf.statistics._product(e[::-1]) @ v
        v = jumps[i_next] @ v
    return float(v[:run.dim].sum())


def forward_binomial_moments(probs, mmax):
    """N_m = sum_n C(n, m) P_n, the exact moment map of a finite P vector."""
    return [
        sum(math.comb(nn, m) * p for nn, p in enumerate(probs))
        for m in range(1, mmax + 1)
    ]


def alternating_binomial_inverse(n_tiples):
    """P_n = sum_{m >= n} (-1)^(m-n) C(m, n) N_m with N_0 = 1, the
    closed-form inverse of the moment map, summed term by term."""
    nm = [1.0] + [float(x) for x in n_tiples]
    k = len(n_tiples)
    return [sum((-1) ** (m - nn) * math.comb(m, nn) * nm[m] for m in range(nn, k + 1))
            for nn in range(k + 1)]


def poisson_moments(lam, mmax):
    """Ordered counting moments of a Poisson field: lam^m / m!."""
    return [lam ** m / math.factorial(m) for m in range(1, mmax + 1)]


def expm_series(mat, t):
    """exp(mat * t) by scaling, Taylor summation, and repeated squaring."""
    a = np.asarray(mat, dtype=complex) * t
    k = 0
    while np.linalg.norm(a, np.inf) > 0.25:
        a = a / 2.0
        k += 1
    d = a.shape[0]
    out = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    for j in range(1, 60):
        term = term @ a / j
        out = out + term
        if np.linalg.norm(term, np.inf) < 1e-20:
            break
    for _ in range(k):
        out = out @ out
    return out


def jump_rows_by_parts(ops, trace):
    """`dynamics._jump_rows` with its entry rows built as they first were: a stack of the
    real and the imaginary parts, transposed and reshaped, two full copies of `ops`."""
    d = ops.shape[-1]
    a, b, form, trace_form = pf.dynamics._jump_form(d)
    m = np.array([ops.real, ops.imag]).transpose(0, 2, 3, 1).reshape(2 * d * d, -1)
    live = m.any(axis=1)
    pair = live[a] & live[b]
    return (m[a[pair]] * m[b[pair]]).T @ (trace_form if trace else form)[pair]


def kron_jumps(ops):
    """conj(M) kron M, in coordinates, of a (P, d, d) stack of collapse
    operators: the complex Kronecker stack, then `core.to_coordinates`,
    against which `statistics._jumps` forms them from Re M and Im M."""
    d2 = ops.shape[-1] ** 2
    stack = np.einsum("pij,pkl->pikjl", ops.conj(), ops).reshape(-1, d2, d2)
    return pf.core.to_coordinates(stack)


def merge_breakpoints(points, t1, t2):
    """Row edges (t_a, t_b) of [t1, t2] cut at `points`, one point at a
    time: a point is kept when it lies more than 1e-12 past the last kept
    one, and the last kept point gives way to t2 (a one-point span keeps
    t1 and t2)."""
    pts = np.unique(np.concatenate([[t1, t2], points]))
    pts = pts[(pts >= t1) & (pts <= t2)].tolist()
    merged = [pts[0]]
    for x in pts[1:]:
        if x - merged[-1] > 1e-12:
            merged.append(x)
    merged[max(len(merged) - 1, 1):] = [t2]
    return np.array(merged[:-1]), np.array(merged[1:])


def stacked_decay_steps(gens, h):
    """exp(G h) of drive-free two-level coordinate generators G, a (P, 4, 4)
    zero stack filled from the generators' own entries G[1, 1] = -w0 and
    G[2, 3] = 2 w1: rho_11 decays as e^{-w0 h}, the coherence as
    e^{-w0 h/2} turning by 2 w1 h."""
    with np.errstate(all="ignore"):
        x, a = gens[:, 1, 1] * h, gens[:, 2, 3] * h
        r, out = np.exp(0.5 * x), np.zeros(gens.shape)
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 1] = 1.0, 0.0 - np.expm1(x), np.exp(x)
        out[:, 2, 2] = out[:, 3, 3] = r * np.cos(a)
        out[:, 3, 2] = 0.0 - r * np.sin(a)
        out[:, 2, 3] = 0.0 - out[:, 3, 2]
    return out


def ldl_flux(table, coords):
    """tr(L^dag L rho) at every grid point, L^dag L of each row's "line"
    operator by the complex stacked product, read right-continuously."""
    ops = table.channels["line"]
    ldl = (ops.conj().swapaxes(-1, -2) @ ops).reshape(len(ops), -1)
    ldl = table.per_point((ldl @ pf.core.coordinates(ops.shape[-1])[0]).real)
    return np.einsum("ni,ni->n", ldl, coords)
