"""Input-output network algebra with (S, L, H) triplets.

A node of a quantum network is described by a scattering matrix S
(scalar entries here), a vector L of coupling operators, and a
Hamiltonian H. Networks compose by the series product (output of one
node feeds the next), concatenation (independent nodes side by side),
and feedback (an output port looped back into an input port).

Coupling entries are (operator, offset) pairs so a purely coherent
channel like a laser tone, (S, L, H) = (1, alpha, 0), fits in the same
container; offsets ride along linearly through every product and are
turned into drive terms of the Hamiltonian by `to_master_equation`.
The products act on the stacked couplings, an (n, d, d) array of
operator parts beside an (n,) array of offsets, so each is a few array
products; in the Hamiltonian cross term an offset enters as that
multiple of the identity.

The closed-form triplet of a two-level emitter coupled to a
semi-infinite line (round-trip phase phi to the reflecting end) is
provided by `mirror_triplet` and is rederived network-algebraically in
`mirror_network`; the two must agree, which the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import HERM_TOL, Operator, Superoperator, _as_matrix, liouvillian, lowering_op

__all__ = [
    "CouplingEntry",
    "SlhTriplet",
    "series",
    "concatenate",
    "feedback",
    "to_master_equation",
    "mirror_triplet",
    "mirror_network",
    "drive_triplet",
    "emitter_triplet",
]


@dataclass(frozen=True)
class CouplingEntry:
    """One port coupling: operator part plus coherent amplitude offset."""

    op: np.ndarray
    offset: complex = 0.0


def _stack(g: SlhTriplet) -> Tuple[np.ndarray, np.ndarray]:
    """A triplet's couplings as (n, d, d) operator parts and (n,) offsets."""
    return (np.array([e.op for e in g.couplings]),
            np.array([e.offset for e in g.couplings], dtype=complex))


def _interaction(c: np.ndarray, a, b) -> np.ndarray:
    """(1/2i)(X - X^dag), X = sum_ij c_ij (A_i + alpha_i)^dag (B_j + beta_j),
    for stacked couplings a = (A, alpha) and b = (B, beta); each offset
    enters as that multiple of the identity."""
    ta, tb = (ops + offs[:, None, None] * np.eye(ops.shape[1]) for ops, offs in (a, b))
    x = np.einsum("ij,iqp,jqr->pr", c, ta.conj(), tb)
    return (x - x.conj().T) / 2j


def _entry(x, dim: int) -> CouplingEntry:
    """Coerce operators, scalars, or (op, offset) pairs into CouplingEntry."""
    if isinstance(x, CouplingEntry):
        return x
    if isinstance(x, (int, float, complex)):
        return CouplingEntry(np.zeros((dim, dim), dtype=complex), complex(x))
    if isinstance(x, tuple) and len(x) == 2:
        op, off = x
        return CouplingEntry(_as_matrix(op), complex(off))
    return CouplingEntry(_as_matrix(x), 0.0)


class SlhTriplet:
    """(S, L, H) with scalar unitary S, coupling entries L, Hermitian H.

    Parameters
    ----------
    s : array_like
        n x n complex scattering matrix (scalar entries).
    couplings : sequence
        n entries; each may be an operator, a plain complex amplitude,
        a (operator, offset) pair, or a CouplingEntry.
    h : array_like or Operator
        Hamiltonian; Hermitian within HERM_TOL.
    dim : int, optional
        Hilbert dimension, required only when every entry is scalar.
    """

    __slots__ = ("s", "couplings", "h", "dim")

    def __init__(self, s, couplings, h=None, dim: int | None = None):
        s = np.atleast_2d(np.asarray(s, dtype=complex))
        if s.shape[0] != s.shape[1]:
            raise ValueError(f"S must be square, got {s.shape}")
        n = s.shape[0]
        if dim is None:
            dim = self._infer_dim(couplings, h)
        entries = [_entry(x, dim) for x in couplings]
        if len(entries) != n:
            raise ValueError(f"S is {n}x{n} but {len(entries)} couplings given")
        for e in entries:
            if e.op.shape != (dim, dim):
                raise ValueError("coupling operator dimension mismatch")
        if h is None:
            h = np.zeros((dim, dim), dtype=complex)
        h = _as_matrix(h)
        if h.shape != (dim, dim):
            raise ValueError("Hamiltonian dimension mismatch")
        if np.max(np.abs(h - h.conj().T)) > HERM_TOL:
            raise ValueError("Hamiltonian must be Hermitian")
        if np.max(np.abs(s @ s.conj().T - np.eye(n))) > HERM_TOL:
            raise ValueError("scattering matrix must be unitary")
        self.s = s
        self.couplings = tuple(entries)
        self.h = h
        self.dim = dim

    @staticmethod
    def _infer_dim(couplings, h):
        if h is not None:
            return _as_matrix(h).shape[0]
        # a scalar coupling coerced at dimension 0 has no operator part
        for x in couplings:
            d = _entry(x, 0).op.shape[0]
            if d:
                return d
        raise ValueError("cannot infer Hilbert dimension; pass dim=")

    @property
    def n_ports(self) -> int:
        return self.s.shape[0]

    def __repr__(self):
        return f"SlhTriplet(n_ports={self.n_ports}, dim={self.dim})"


def series(g2: SlhTriplet, g1: SlhTriplet) -> SlhTriplet:
    """Feed every output of g1 into the matching input of g2.

    Returns (S2 S1, S2 L1 + L2, H1 + H2 + Im(L2^dag S2 L1)) where the
    imaginary part is taken entrywise as (1/2i)(X - X^dag). Scalar
    (offset x offset) products contribute a multiple of the identity so
    that the product stays associative.
    """
    if g1.n_ports != g2.n_ports:
        raise ValueError(f"port count mismatch: {g2.n_ports} vs {g1.n_ports}")
    if g1.dim != g2.dim:
        raise ValueError("Hilbert dimension mismatch")
    (ops2, offs2), (ops1, offs1) = _stack(g2), _stack(g1)
    ops = ops2 + np.tensordot(g2.s, ops1, axes=1)
    offs = offs2 + g2.s @ offs1
    h = g1.h + g2.h + _interaction(g2.s, (ops2, offs2), (ops1, offs1))
    return SlhTriplet(g2.s @ g1.s, list(zip(ops, offs)), h, dim=g1.dim)


def concatenate(g2: SlhTriplet, g1: SlhTriplet) -> SlhTriplet:
    """Stack two nodes into one, left argument's ports first."""
    if g1.dim != g2.dim:
        raise ValueError("Hilbert dimension mismatch")
    n2, n1 = g2.n_ports, g1.n_ports
    s = np.zeros((n2 + n1, n2 + n1), dtype=complex)
    s[:n2, :n2] = g2.s
    s[n2:, n2:] = g1.s
    return SlhTriplet(
        s, list(g2.couplings) + list(g1.couplings), g2.h + g1.h, dim=g1.dim
    )


def feedback(g: SlhTriplet, out_port: int, in_port: int) -> SlhTriplet:
    """Close the loop: output `out_port` is fed back into input `in_port`.

    Ports are 0-based. The eliminated loop requires 1 - S[k, l] to be
    invertible; a singular loop is rejected with a diagnostic.
    """
    k, l = out_port, in_port
    n = g.n_ports
    if n < 2:
        raise ValueError("feedback needs at least two ports")
    if not (0 <= k < n and 0 <= l < n):
        raise ValueError(f"ports out of range: out={k}, in={l} with n={n}")
    denom = 1.0 - g.s[k, l]
    if abs(denom) <= 1e-12:
        raise ValueError(
            f"singular feedback loop: S[{k},{l}] = {g.s[k, l]} makes "
            "1 - S[k,l] non-invertible"
        )
    c = g.s[:, l] / denom
    s = np.delete(np.delete(g.s + np.outer(c, g.s[k]), k, 0), l, 1)
    ops, offs = _stack(g)
    kept_ops = np.delete(ops + c[:, None, None] * ops[k], k, 0)
    kept_offs = np.delete(offs + c * offs[k], k, 0)
    # (1/2i)((sum_j L_j^dag S_jl) (1 - S_kl)^-1 L_k - h.c.)
    h = g.h + _interaction(c[:, None], (ops, offs), (ops[k:k + 1], offs[k:k + 1]))
    return SlhTriplet(s, list(zip(kept_ops, kept_offs)), h, dim=g.dim)


def to_master_equation(g: SlhTriplet) -> Tuple[Operator, list]:
    """Lower a triplet to (effective Hamiltonian, collapse operators).

    Each coupling entry alpha + L contributes its operator part as a
    collapse operator, while the cross terms of D[alpha + L] fold into
    the Hamiltonian as the drive -(i/2)(alpha L^dag - conj(alpha) L).
    Zero operator parts are dropped from the collapse list.
    """
    ops, offs = _stack(g)
    x = np.einsum("i,iqp->pq", offs, ops.conj())
    h = g.h + (x - x.conj().T) / 2j
    return Operator(h), list(map(Operator, ops[np.any(ops, axis=(1, 2))]))


def triplet_liouvillian(g: SlhTriplet) -> Superoperator:
    """Master-equation generator of a triplet (convenience wrapper)."""
    h, ls = to_master_equation(g)
    return liouvillian(h, ls)


def emitter_triplet(gamma: float) -> SlhTriplet:
    """Two-sided emitter: each line direction couples at rate gamma / 2."""
    entry = CouplingEntry(np.sqrt(gamma / 2.0) * lowering_op(2, 0, 1).mat)
    return SlhTriplet(np.eye(2), [entry, entry])


def mirror_network(gamma: float, phi: float) -> SlhTriplet:
    """Emitter in front of a reflecting line end, by network composition.

    The left-moving output acquires the round-trip phase phi and returns
    as the right-moving input: concatenate the phase shifter with an
    identity channel, feed the pair through the emitter in series, and
    close the loop from the delayed port into the second port.
    """
    phase = SlhTriplet(
        np.array([[np.exp(1j * phi), 0.0], [0.0, 1.0]]),
        [0.0, 0.0],
        np.zeros((2, 2)),
        dim=2,
    )
    emitter = emitter_triplet(gamma)
    return feedback(series(phase, emitter), out_port=0, in_port=1)


def mirror_triplet(gamma: float, phi: float) -> SlhTriplet:
    """Closed-form single-port triplet of the emitter-plus-mirror system.

    S = e^{i phi}, L = sqrt(gamma/2) (1 + e^{i phi}) sigma_minus,
    H = (gamma/2) sin(phi) sigma_plus sigma_minus.

    On phi in [0, pi] the coupling equals the polar form
    e^{i phi/2} sqrt(gamma (1 + cos phi)) sigma_minus; past pi the polar
    form picks up a sign from the square-root branch while this form
    stays continuous and exactly equal to the feedback composition.
    """
    sm = lowering_op(2, 0, 1).mat
    lop = np.sqrt(gamma / 2.0) * (1.0 + np.exp(1j * phi)) * sm
    h = (gamma / 2.0) * np.sin(phi) * (sm.conj().T @ sm)
    return SlhTriplet(np.array([[np.exp(1j * phi)]]), [CouplingEntry(lop)], h)


def drive_triplet(alpha: complex, dim: int = 2) -> SlhTriplet:
    """A purely coherent source channel: (1, alpha, 0)."""
    return SlhTriplet(
        np.eye(1), [complex(alpha)], np.zeros((dim, dim)), dim=dim
    )
