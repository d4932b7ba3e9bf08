"""Dense operator and superoperator algebra for small open quantum systems.

Everything downstream (mirror dynamics, counting statistics, network
composition) is built on the four objects defined here: operators,
density matrices, superoperators, and the Liouvillian constructors.

Vectorization is column-stacking throughout: vec(rho) stacks the columns
of rho, so that

    vec(A rho B) = (B^T kron A) vec(rho).

Under this convention the commutator part of a Liouvillian is
-i (I kron H - H^T kron I) and a dissipator D[X] becomes

    conj(X) kron X - (1/2) I kron X^dag X - (1/2) (X^dag X)^T kron I.

All code in this package assumes this one convention; do not mix in
row-stacked superoperators from elsewhere.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

__all__ = [
    "Operator",
    "DensityMatrix",
    "Superoperator",
    "lowering_op",
    "dissipator",
    "liouvillian",
    "sup_exp",
    "vec",
    "unvec",
]


HERM_TOL = 1e-10   # Hermiticity checks
TRACE_TOL = 1e-10  # trace-one / trace-annihilation checks
PSD_TOL = 1e-9     # eigenvalue floor for density matrices


def _as_matrix(x):
    """Accept an Operator/DensityMatrix/Superoperator or a bare array."""
    m = getattr(x, "mat", x)
    return np.asarray(m, dtype=complex)


class Operator:
    """A dense complex matrix on a finite Hilbert space.

    Hermiticity is not assumed; use `is_hermitian`. Instances are
    immutable (the underlying array is marked read-only).
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        mat = np.array(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        self.mat = mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        """Hermitian conjugate."""
        return Operator(self.mat.conj().T)

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= tol)

    def __matmul__(self, other):
        return Operator(self.mat @ _as_matrix(other))

    def __add__(self, other):
        return Operator(self.mat + _as_matrix(other))

    def __sub__(self, other):
        return Operator(self.mat - _as_matrix(other))

    def __mul__(self, c):
        return Operator(self.mat * complex(c))

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.mat)

    def __repr__(self):
        return f"Operator(dim={self.dim})"


class DensityMatrix:
    """A quantum state: Hermitian, unit trace, positive semidefinite.

    Validation runs on construction with the module tolerances.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        mat = np.array(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        mat.setflags(write=False)
        self.mat = mat
        self.validate()

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def validate(self):
        """Raise ValueError unless trace-one, Hermitian and PSD (module tolerances)."""
        if abs(np.trace(self.mat) - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {np.trace(self.mat)} violates unit trace")
        if np.max(np.abs(self.mat - self.mat.conj().T)) > HERM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(0.5 * (self.mat + self.mat.conj().T))
        if w.min() < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {w.min()} below -{PSD_TOL}")

    @classmethod
    def from_ket(cls, ket) -> "DensityMatrix":
        k = np.asarray(ket, dtype=complex).reshape(-1)
        k = k / np.linalg.norm(k)
        return cls(np.outer(k, k.conj()))

    @classmethod
    def ground(cls, dim: int = 2) -> "DensityMatrix":
        k = np.zeros(dim)
        k[0] = 1.0
        return cls.from_ket(k)

    @classmethod
    def excited(cls, dim: int = 2, level: int = 1) -> "DensityMatrix":
        k = np.zeros(dim)
        k[level] = 1.0
        return cls.from_ket(k)

    def expectation(self, op) -> complex:
        return complex(np.trace(_as_matrix(op) @ self.mat))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class Superoperator:
    """A linear map on vectorized density matrices (column-stacking).

    Holds a dim^2 x dim^2 dense matrix; dim is read off its side.
    Composition with another Superoperator is `@`. Use `apply` to act on
    a state and get the resulting matrix back.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, mat):
        mat = np.array(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"superoperator must be square, got {mat.shape}")
        d = int(round(np.sqrt(mat.shape[0])))
        if d * d != mat.shape[0]:
            raise ValueError(f"side {mat.shape[0]} is not a perfect square")
        mat.setflags(write=False)
        self.mat = mat
        self.dim = d

    def apply(self, rho) -> np.ndarray:
        """Apply to a density matrix (or bare matrix); returns a matrix."""
        r = _as_matrix(rho)
        v = self.mat @ r.reshape(-1, order="F")
        return v.reshape((self.dim, self.dim), order="F")

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.mat @ other.mat)

    def annihilates_trace(self, tol: float = TRACE_TOL) -> bool:
        """True if tr(S rho) = 0 for all rho, the Liouvillian property."""
        return bool(np.max(np.abs(trace_row(self.dim) @ self.mat)) <= tol)

    def __repr__(self):
        return f"Superoperator(dim={self.dim})"


def vec(rho) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return _as_matrix(rho).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    """Inverse of `vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def trace_row(d: int) -> np.ndarray:
    """Row vector r with r @ vec(rho) = tr(rho) on a d-level space."""
    r = np.zeros(d * d, dtype=complex)
    r[:: d + 1] = 1.0
    return r


def lowering_op(dim: int, lower: int, upper: int) -> Operator:
    """|lower><upper| on a dim-level system.

    (2, 0, 1) is the qubit sigma_minus; on three levels (1, 2) and (0, 2)
    give the upper-transition and the weak direct-transition operators.
    """
    if not (0 <= lower < upper < dim):
        raise ValueError(
            f"need 0 <= lower < upper < dim, got lower={lower} upper={upper} dim={dim}"
        )
    m = np.zeros((dim, dim), dtype=complex)
    m[lower, upper] = 1.0
    return Operator(m)


def dissipator(x) -> Superoperator:
    """Lindblad dissipator D[X]: rho -> X rho X^dag - (1/2){X^dag X, rho}."""
    X = _as_matrix(x)
    d = X.shape[0]
    XdX = X.conj().T @ X
    eye = np.eye(d)
    m = (
        np.kron(X.conj(), X)
        - 0.5 * np.kron(eye, XdX)
        - 0.5 * np.kron(XdX.T, eye)
    )
    return Superoperator(m)


def liouvillian(h, collapse_ops=()) -> Superoperator:
    """Generator of the master equation rho' = -i[H, rho] + sum_j D[L_j] rho.

    H must be Hermitian within HERM_TOL; rates are carried
    inside the collapse operators (sqrt(rate) * op).
    """
    H = _as_matrix(h)
    if np.max(np.abs(H - H.conj().T)) > HERM_TOL:
        raise ValueError(
            "Hamiltonian is not Hermitian within tolerance "
            f"(max deviation {np.max(np.abs(H - H.conj().T)):.3e})"
        )
    d = H.shape[0]
    eye = np.eye(d)
    m = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for L in collapse_ops:
        Lm = _as_matrix(L)
        if Lm.shape[0] != d:
            raise ValueError("collapse operator dimension mismatch")
        m = m + dissipator(Lm).mat
    return Superoperator(m)


def sup_exp(lv, t):
    """Propagator exp(L t) of a constant Liouvillian over a finite
    duration t >= 0; at t = 0 it is the identity exactly.

    A (P, n, n) stack of generators with P durations gives the (P, n, n)
    array of their propagators from one stacked call. Uses
    scaling-and-squaring Pade exponentiation; at these dimensions
    (<= 81) robustness matters more than speed. A non-finite result
    raises FloatingPointError instead of travelling on as NaN.
    """
    m = _as_matrix(lv)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise ValueError(f"duration must be finite and nonnegative, got {t}")
    out = expm(m * (t[:, None, None] if m.ndim == 3 else t))
    if not np.isfinite(out).all():
        raise FloatingPointError("matrix exponential is not finite")
    return out if m.ndim == 3 else Superoperator(out)
