"""Dense symmetric matrices and ordered eigenvalue decompositions.

Conventions used throughout the package:

* A symmetric matrix is stored by its lower triangle only, so symmetry is
  structural and cannot drift.
* An ordered eigenvalue decomposition writes ``Y = P.T @ M @ P`` with an
  orthogonal ``P`` whose ROWS are eigenvectors and ``M = diag(eigenvalues)``,
  eigenvalues sorted non-increasingly.
* ``pi`` collects indices of eigenvalues above the rank tolerance, ``omega``
  collects indices of eigenvalues within the tolerance of zero.  Indices are
  0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Module tolerances.  The eigensolver comfortably beats these; they guard the
# type invariants of OrderedEigenDecomposition.
ORTH_TOL = 1e-10
RECON_TOL = 1e-8

# Cyclic Jacobi parameters: off-diagonal target relative to ||Y||_F and the
# sweep cap after which non-convergence is reported.
JACOBI_OFFDIAG_REL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Default rank tolerance is DEFAULT_RANK_REL * max(1, largest |eigenvalue|).
DEFAULT_RANK_REL = 1e-8

# Off-diagonal weight of the isometric vectorization svec.
_SQRT2 = math.sqrt(2.0)


class JacobiConvergenceError(RuntimeError):
    """Raised when the Jacobi sweeps do not reach the off-diagonal target."""


def _tril_size(m: int) -> int:
    return m * (m + 1) // 2


@lru_cache(maxsize=64)
def _tril_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the row-major lower triangle."""
    i, j = np.tril_indices(m)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@lru_cache(maxsize=64)
def _tril_weights(m: int, off: float) -> np.ndarray:
    """Read-only lower-triangle weights: 1 on the diagonal, ``off`` below it.

    ``off = 2`` turns a sum over the triangle into a sum over the matrix;
    ``off = _SQRT2`` is the svec scaling.
    """
    i, j = _tril_indices(m)
    w = np.where(i == j, 1.0, off)
    w.setflags(write=False)
    return w


def lower_to_dense(m: int, lower: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense m x m matrices from lower triangles stacked along the last axis.

    ``lower`` has shape (..., m(m+1)/2); the result has shape (..., m, m).
    Every entry of ``out`` is overwritten, so a buffer can be reused.
    """
    if out is None:
        out = np.empty(lower.shape[:-1] + (m, m))
    i, j = _tril_indices(m)
    out[..., i, j] = lower
    out[..., j, i] = lower
    return out


def svec(a: np.ndarray) -> np.ndarray:
    """Lower triangle of a square array, scaled so that
    <A, B> = svec(A) . svec(B)."""
    m = a.shape[0]
    i, j = _tril_indices(m)
    return _tril_weights(m, _SQRT2) * a[i, j]


def svec_to_dense(m: int, vecs: np.ndarray) -> np.ndarray:
    """Inverse of svec for vectors stacked along the last axis."""
    return lower_to_dense(m, vecs / _tril_weights(m, _SQRT2))


@dataclass(frozen=True, eq=False)
class SymMat:
    """Real symmetric m x m matrix stored as its row-major lower triangle."""

    m: int
    lower: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"dimension must be positive, got {self.m}")
        lower = np.asarray(self.lower, dtype=float)
        if lower.shape != (_tril_size(self.m),):
            raise ValueError(
                f"lower triangle of a {self.m}x{self.m} matrix needs "
                f"{_tril_size(self.m)} entries, got shape {lower.shape}"
            )
        if not np.all(np.isfinite(lower)):
            raise ValueError("matrix entries must be finite")
        lower = lower.copy()
        lower.setflags(write=False)
        object.__setattr__(self, "lower", lower)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, a, check_symmetry: bool = True) -> "SymMat":
        """Build from a dense array; tiny asymmetry is averaged away."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if check_symmetry:
            asym = np.abs(a - a.T).max(initial=0.0)
            scale = max(1.0, np.abs(a).max(initial=0.0))
            if asym > 1e-8 * scale:
                raise ValueError(f"matrix is not symmetric (|A - A.T| = {asym:.3e})")
        sym = 0.5 * (a + a.T)
        return cls(a.shape[0], sym[_tril_indices(a.shape[0])])

    @classmethod
    def zeros(cls, m: int) -> "SymMat":
        return cls(m, np.zeros(_tril_size(m)))

    @classmethod
    def identity(cls, m: int) -> "SymMat":
        return cls.diagonal(np.ones(m))

    @classmethod
    def diagonal(cls, diag) -> "SymMat":
        diag = np.asarray(diag, dtype=float)
        return cls.from_dense(np.diag(diag), check_symmetry=False)

    # -- JSON wire format --------------------------------------------------

    def to_json(self) -> dict:
        """CLI encoding: {"m": ..., "lower": [row-major lower triangle]}."""
        return {"m": self.m, "lower": [float(v) for v in self.lower]}

    @classmethod
    def from_json(cls, obj: dict) -> "SymMat":
        if not isinstance(obj, dict) or "m" not in obj or "lower" not in obj:
            raise ValueError('symmetric matrix JSON needs keys "m" and "lower"')
        return cls(int(obj["m"]), np.asarray(obj["lower"], dtype=float))

    # -- basic arithmetic ---------------------------------------------------

    def dense(self) -> np.ndarray:
        return lower_to_dense(self.m, self.lower)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.sqrt(np.sum(_tril_weights(self.m, 2.0) * self.lower**2)))

    def _same_dim(self, other: "SymMat") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other: "SymMat") -> "SymMat":
        self._same_dim(other)
        return SymMat(self.m, self.lower + other.lower)

    def __sub__(self, other: "SymMat") -> "SymMat":
        self._same_dim(other)
        return SymMat(self.m, self.lower - other.lower)

    def __mul__(self, scalar: float) -> "SymMat":
        return SymMat(self.m, float(scalar) * self.lower)

    __rmul__ = __mul__

    def __neg__(self) -> "SymMat":
        return SymMat(self.m, -self.lower)

    def __repr__(self) -> str:
        return f"SymMat(m={self.m})"


def frobenius_inner(a: SymMat, b: SymMat) -> float:
    """trace(a @ b), i.e. the entrywise double sum."""
    a._same_dim(b)
    return float(np.sum(_tril_weights(a.m, 2.0) * a.lower * b.lower))


@dataclass(frozen=True, eq=False)
class OrderedEigenDecomposition:
    """Ordered eigenvalue decomposition ``source = P.T @ diag(eigenvalues) @ P``.

    Rows of ``p_matrix`` are eigenvectors; eigenvalues are sorted
    non-increasingly.  ``pi`` holds indices of eigenvalues > rank_tol and
    ``omega`` indices with |eigenvalue| <= rank_tol.  Eigenvalues below
    -rank_tol belong to neither set and flag the matrix as not PSD.
    """

    source: SymMat
    p_matrix: np.ndarray
    eigenvalues: np.ndarray
    pi: tuple = field(default=())
    omega: tuple = field(default=())
    rank_tol: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.p_matrix, dtype=float)
        lam = np.asarray(self.eigenvalues, dtype=float)
        m = self.source.m
        if p.shape != (m, m) or lam.shape != (m,):
            raise ValueError("decomposition shapes inconsistent with source dimension")
        if self.rank_tol <= 0:
            raise ValueError("rank_tol must be positive")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted non-increasingly")
        orth = np.linalg.norm(p @ p.T - np.eye(m))
        if orth > ORTH_TOL:
            raise ValueError(f"p_matrix is not orthogonal (defect {orth:.3e})")
        y = self.source.dense()
        recon = np.linalg.norm(p.T @ np.diag(lam) @ p - y)
        if recon > RECON_TOL * max(1.0, np.linalg.norm(y)):
            raise ValueError(f"decomposition does not reproduce source (defect {recon:.3e})")
        expect_pi = tuple(int(k) for k in np.nonzero(lam > self.rank_tol)[0])
        expect_omega = tuple(int(k) for k in np.nonzero(np.abs(lam) <= self.rank_tol)[0])
        if tuple(self.pi) != expect_pi or tuple(self.omega) != expect_omega:
            raise ValueError("pi/omega do not match the eigenvalues at rank_tol")
        p = p.copy()
        p.setflags(write=False)
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "p_matrix", p)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "pi", expect_pi)
        object.__setattr__(self, "omega", expect_omega)

    @property
    def psd(self) -> bool:
        """True when no eigenvalue lies below -rank_tol."""
        return bool(self.eigenvalues[-1] >= -self.rank_tol)

    @property
    def m(self) -> int:
        return self.source.m


def _jacobi(a: np.ndarray, off_target: float, max_sweeps: int, rng=None):
    """Cyclic Jacobi on a dense symmetric copy; returns (diag, Q) with
    a = Q @ diag @ Q.T.  ``rng`` shuffles the rotation order per sweep."""
    m = a.shape[0]
    a = a.copy()
    q = np.eye(m)
    if m == 1:
        return np.array([a[0, 0]]), q
    pairs = [(p, r) for p in range(m - 1) for r in range(p + 1, m)]
    # Rotations below this cannot keep off(A) above the target.
    rot_floor = off_target / (m * m)

    def offdiag() -> float:
        # summed directly over off-diagonal entries; a difference of squared
        # norms would drown small residuals in cancellation
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if offdiag() <= off_target:
            break
        order = list(pairs)
        if rng is not None:
            rng.shuffle(order)
        for p, r in order:
            apr = a[p, r]
            if abs(apr) <= rot_floor:
                continue
            tau = (a[r, r] - a[p, p]) / (2.0 * apr)
            t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            col_p, col_r = a[:, p].copy(), a[:, r].copy()
            a[:, p] = c * col_p - s * col_r
            a[:, r] = s * col_p + c * col_r
            row_p, row_r = a[p, :].copy(), a[r, :].copy()
            a[p, :] = c * row_p - s * row_r
            a[r, :] = s * row_p + c * row_r
            a[p, r] = a[r, p] = 0.0
            qp, qr = q[:, p].copy(), q[:, r].copy()
            q[:, p] = c * qp - s * qr
            q[:, r] = s * qp + c * qr
    else:
        raise JacobiConvergenceError(
            f"off-diagonal norm {offdiag():.3e} above target {off_target:.3e} "
            f"after {max_sweeps} sweeps"
        )
    return np.diag(a).copy(), q


def eigen_decompose(
    y: SymMat, rank_tol: float | None = None, rng=None
) -> OrderedEigenDecomposition:
    """Ordered eigenvalue decomposition of ``y`` via cyclic Jacobi rotations.

    ``rank_tol`` defaults to ``DEFAULT_RANK_REL * max(1, largest |eigenvalue|)``.
    ``rng`` (a numpy Generator) randomizes the sweep order; any orthogonal
    basis of a repeated eigenspace is acceptable, so results with different
    orders are equivalent for every consumer in this package.
    """
    if rank_tol is not None and rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    dense = y.dense()
    target = JACOBI_OFFDIAG_REL * max(np.linalg.norm(dense), np.finfo(float).tiny)
    lam, q = _jacobi(dense, target, JACOBI_MAX_SWEEPS, rng=rng)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    p = q[:, order].T
    if rank_tol is None:
        rank_tol = DEFAULT_RANK_REL * max(1.0, float(np.abs(lam).max()))
    pi = tuple(int(k) for k in np.nonzero(lam > rank_tol)[0])
    omega = tuple(int(k) for k in np.nonzero(np.abs(lam) <= rank_tol)[0])
    return OrderedEigenDecomposition(
        source=y, p_matrix=p, eigenvalues=lam, pi=pi, omega=omega, rank_tol=rank_tol
    )


def pseudoinverse(d: OrderedEigenDecomposition) -> SymMat:
    """Moore-Penrose pseudoinverse: invert eigenvalues on pi, zero on omega."""
    if not d.psd:
        raise ValueError("pseudoinverse requires a PSD-flagged decomposition")
    inv = np.zeros(d.m)
    for k in d.pi:
        inv[k] = 1.0 / d.eigenvalues[k]
    dense = d.p_matrix.T @ np.diag(inv) @ d.p_matrix
    return SymMat.from_dense(dense, check_symmetry=False)


def conjugate(a: SymMat, d: OrderedEigenDecomposition) -> SymMat:
    """Rotate into the decomposition's eigenbasis: P @ a @ P.T."""
    if a.m != d.m:
        raise ValueError(f"dimension mismatch: {a.m} vs {d.m}")
    return SymMat.from_dense(d.p_matrix @ a.dense() @ d.p_matrix.T, check_symmetry=False)


def block(a: SymMat, d: OrderedEigenDecomposition, rows, cols) -> np.ndarray:
    """Submatrix of conjugate(a, d) with the given row/column index lists."""
    rows = [int(r) for r in rows]
    cols = [int(c) for c in cols]
    for idx in (*rows, *cols):
        if idx < 0 or idx >= d.m:
            raise IndexError(f"index {idx} out of range for dimension {d.m}")
    conj = conjugate(a, d).dense()
    return conj[np.ix_(rows, cols)] if rows and cols else np.zeros((len(rows), len(cols)))
