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
row-stacked superoperators from elsewhere. Compiled runs use the real
`coordinates` of a Hermitian matrix instead (`to_coordinates`).
"""

from __future__ import annotations

import functools

import numpy as np

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


def _check_count(name: str, v) -> None:
    if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and v >= 1):
        raise ValueError(f"{name} must be an integer of at least 1, got {v!r}")


def _as_matrix(x):
    """Accept an Operator/DensityMatrix/Superoperator or a bare array."""
    m = getattr(x, "mat", x)
    return np.asarray(m, dtype=complex)


def _square(mat, what: str) -> np.ndarray:
    """A read-only complex copy of mat, which must be a square matrix."""
    mat = np.array(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be square, got shape {mat.shape}")
    mat.setflags(write=False)
    return mat


class Operator:
    """A dense complex matrix on a finite Hilbert space.

    Hermiticity is not assumed; use `is_hermitian`. Instances are
    immutable (the underlying array is marked read-only).
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = _square(mat, "operator")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        """Hermitian conjugate."""
        return Operator(self.mat.conj().T)

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= tol)

    def __repr__(self):
        return f"Operator(dim={self.dim})"


class DensityMatrix:
    """A quantum state: Hermitian, unit trace, positive semidefinite.

    Validation runs on construction with the module tolerances.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = _square(mat, "density matrix")
        if not np.isfinite(self.mat).all():
            raise ValueError("density matrix entries must be finite")
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
        self.mat = _square(mat, "superoperator")
        self.dim = int(round(np.sqrt(len(self.mat))))
        if self.dim ** 2 != len(self.mat):
            raise ValueError(f"side {len(self.mat)} is not a perfect square")

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


@functools.lru_cache(maxsize=None)
def coordinates(d: int):
    """Read-only (V, W), vec(rho) = V c and c = W vec(rho), for the real coordinates
    c of a Hermitian rho: rho_jj, then Re and Im rho_jk, j < k. V's entries are 0, 1,
    +-i, W's 0, 1, 1/2, +-i/2, so W V = V W = I exactly (Gorini et al. 1976)."""
    v = np.zeros((d * d, d * d), dtype=complex)
    v[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    for n, (j, k) in enumerate(zip(*np.triu_indices(d, 1))):
        v[[j + k * d, k + j * d], d + 2 * n:d + 2 * n + 2] = [[1.0, 1j], [1.0, -1j]]
    w = v.conj().T / (np.abs(v) ** 2).sum(axis=0)[:, None]
    v.flags.writeable = w.flags.writeable = False
    return v, w


@functools.lru_cache(maxsize=None)
def _sandwich(d: int) -> np.ndarray:
    return np.kron(coordinates(d)[1].T, coordinates(d)[0])


def to_coordinates(sups: np.ndarray) -> np.ndarray:
    """W S V, real, of each Hermiticity-preserving superoperator S of an
    array: the flattened rows of S times kron(W^T, V) in one product."""
    n = sups.shape[-1]
    return (sups.reshape(-1, n * n) @ _sandwich(round(n ** 0.5))).real.reshape(sups.shape)


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


# Scaling and squaring with truncated Taylor series: degree m = 1 .. 20 meets unit
# roundoff on 1-norms up to theta_m (A. H. Al-Mohy and N. J. Higham, SIAM J. Sci.
# Comput. 33, 488 (2011), Table 3.1). _TAYLOR[m] puts 1/k!, k <= m, at (j, i), k = 4j + i
# with i >= 1 past j = 0, of the Paterson-Stockmeyer form p(A) = sum_j (A^4)^j sum_i c_ji A^i.
_THETA = np.array([2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2,
                   5.00e-2, 8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1,
                   6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44])
_TAYLOR = np.zeros((21, 5, 5))
_TAYLOR[:, 0, 0] = 1.0
_TAYLOR[:, np.arange(20) // 4, np.arange(20) % 4 + 1] = (
    np.tril(np.ones((21, 20)), -1) / np.cumprod(np.arange(1.0, 21.0)))


def sup_exp(lv, t):
    """Propagator exp(L t) of a constant Liouvillian over a finite
    duration t >= 0; at t = 0 it is the identity exactly.

    A (P, n, n) stack of generators with P durations gives the (P, n, n)
    array of their propagators; a real stack stays real. Scaling and
    squaring with truncated Taylor series (Al-Mohy and Higham 2011): a
    slice is halved s times to a 1-norm of at most theta_20, takes the
    lowest degree its norm allows, and is squared back s times. Its
    coefficients above that degree are zero in one fixed shape of stacked
    products, so no slice depends on the rest of the stack. A non-finite
    result raises FloatingPointError instead of travelling on as NaN.
    """
    m = np.asarray(getattr(lv, "mat", lv))
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise ValueError(f"duration must be finite and nonnegative, got {t}")
    with np.errstate(all="ignore"):
        a = m * t[:, None, None] if m.ndim == 3 else (m * t)[None]
        norm = np.einsum("pij->jp", np.abs(a)).max(axis=0)
        # s halvings past theta_20 (none for NaN), then the lowest degree
        s = np.ceil(np.log2(norm / _THETA[-1]))
        s = np.where(np.isfinite(s) & (s > 0), s, 0.0).astype(int)
        degree = np.searchsorted(_THETA[:-1], np.ldexp(norm, -s)) + 1
        pw = np.empty(a.shape[:1] + (5,) + a.shape[1:], dtype=a.dtype)
        pw[:, 0] = np.eye(a.shape[-1])
        np.multiply(a, np.ldexp(1.0, -s)[:, None, None], out=pw[:, 1])
        for k in range(2, 5):
            np.matmul(pw[:, k // 2], pw[:, k - k // 2], out=pw[:, k])
        # Horner in A^4 from the top block; two blocks at least, as one would
        # round through a matrix-vector product; a slice's higher blocks are 0
        top = (int(degree.max(initial=1)) - 1) // 4
        blocks = _TAYLOR[degree, :max(top + 1, 2)] @ pw.reshape(len(a), 5, -1)
        out = blocks[:, top].reshape(a.shape)
        for j in range(top - 1, -1, -1):
            out = blocks[:, j].reshape(a.shape) + pw[:, 4] @ out
        for k in range(s.max(initial=0)):
            sel = s > k
            out[sel] = out[sel] @ out[sel]
    if not np.isfinite(out).all():
        raise FloatingPointError("matrix exponential is not finite")
    return out if m.ndim == 3 else Superoperator(out[0])
