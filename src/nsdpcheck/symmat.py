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

# Default rank tolerance is DEFAULT_RANK_REL * max(1, largest |eigenvalue|).
DEFAULT_RANK_REL = 1e-8

# Off-diagonal weight of the isometric vectorization svec.
_SQRT2 = math.sqrt(2.0)


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


def json_int(value, name: str) -> int:
    """An integer field read from JSON, which reads 1e999 as inf."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def row_squares(zs: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of the 2-d array zs, rounded as
    np.linalg.norm rounds the square of one row: stacked row-times-column
    products sum like a vector dot."""
    return (zs[:, None, :] @ zs[:, :, None]).reshape(len(zs))


def lower_to_dense(m: int, lower: np.ndarray) -> np.ndarray:
    """Dense m x m matrices from lower triangles stacked along the last axis.

    ``lower`` has shape (..., m(m+1)/2); the result has shape (..., m, m)."""
    out = np.empty(lower.shape[:-1] + (m, m))
    i, j = _tril_indices(m)
    out[..., i, j] = lower
    out[..., j, i] = lower
    return out


def svec(a: np.ndarray) -> np.ndarray:
    """Lower triangles of square arrays stacked along the leading axes,
    shape (..., m, m) to (..., m(m+1)/2), scaled so that
    <A, B> = svec(A) . svec(B)."""
    m = a.shape[-1]
    i, j = _tril_indices(m)
    return _tril_weights(m, _SQRT2) * a[..., i, j]


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
        # halve before adding: 0.5 * (a + a.T) overflows near 1e308
        sym = 0.5 * a + 0.5 * a.T
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
    def from_json(cls, obj: dict, name: str = "symmetric matrix JSON") -> "SymMat":
        """Parse the CLI encoding; an error names the JSON node ``name``."""
        if not isinstance(obj, dict):
            raise ValueError(f"{name} must be an object, got {type(obj).__name__}")
        if "m" not in obj or "lower" not in obj:
            raise ValueError(f'{name} needs keys "m" and "lower"')
        m = json_int(obj["m"], f"{name}.m")
        try:
            return cls(m, np.asarray(obj["lower"], dtype=float))
        except (TypeError, OverflowError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from exc

    # -- basic arithmetic ---------------------------------------------------

    def dense(self) -> np.ndarray:
        return lower_to_dense(self.m, self.lower)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(frobenius_norms(self.m, self.lower))

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


def frobenius_norms(m: int, lower: np.ndarray) -> np.ndarray:
    """Frobenius norms of the m x m matrices whose lower triangles are
    stacked along the last axis of ``lower``.

    The squares overflow from about 1.3e154.  A matrix whose plain sum of
    squares is not finite is summed again scaled by its largest |entry|;
    every other one keeps the bits of the plain sum.
    """
    weights = _tril_weights(m, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.sqrt(np.sum(weights * lower**2, axis=-1))
        if not np.isfinite(out).all():
            top = np.abs(lower).max(axis=-1)
            rescaled = top * np.sqrt(np.sum(weights * (lower / top[..., None]) ** 2, axis=-1))
            out = np.where(np.isfinite(out), out, rescaled)
    return out


def frobenius_inner(a: SymMat, b: SymMat) -> float:
    """trace(a @ b), i.e. the entrywise double sum."""
    a._same_dim(b)
    return float(np.sum(_tril_weights(a.m, 2.0) * a.lower * b.lower))


@dataclass(frozen=True, eq=False)
class OrderedEigenDecomposition:
    """Ordered eigenvalue decomposition ``source = P.T @ diag(eigenvalues) @ P``.

    Rows of ``p_matrix`` are eigenvectors; eigenvalues are sorted
    non-increasingly.  ``pi`` holds indices of eigenvalues > rank_tol and
    ``omega`` indices with |eigenvalue| <= rank_tol; both are derived from
    the eigenvalues.  Eigenvalues below -rank_tol belong to neither set and
    flag the matrix as not PSD.
    """

    source: SymMat
    p_matrix: np.ndarray
    eigenvalues: np.ndarray
    rank_tol: float = 0.0
    pi: tuple = field(init=False)
    omega: tuple = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p_matrix, dtype=float)
        lam = np.asarray(self.eigenvalues, dtype=float)
        m = self.source.m
        if p.shape != (m, m) or lam.shape != (m,):
            raise ValueError("decomposition shapes inconsistent with source dimension")
        if self.rank_tol <= 0:
            raise ValueError("rank_tol must be positive")
        if np.any(lam[1:] > lam[:-1]):  # no difference, which can overflow
            raise ValueError("eigenvalues must be sorted non-increasingly")
        orth = np.linalg.norm(p @ p.T - np.eye(m))
        if orth > ORTH_TOL:
            raise ValueError(f"p_matrix is not orthogonal (defect {orth:.3e})")
        # the reconstruction defect, in units of the largest |entry| when that
        # exceeds 1: squares of entries past about 1.3e154 overflow
        unit = max(1.0, float(np.abs(self.source.lower).max()))
        scaled = self.source.lower / unit
        recon = float(np.linalg.norm(p.T @ np.diag(lam / unit) @ p - lower_to_dense(m, scaled)))
        if recon > RECON_TOL * max(1.0, float(frobenius_norms(m, scaled))):
            raise ValueError(
                f"decomposition does not reproduce source (defect {unit * recon:.3e})"
            )
        p = p.copy()
        p.setflags(write=False)
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "p_matrix", p)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "pi", tuple(int(k) for k in np.nonzero(lam > self.rank_tol)[0]))
        object.__setattr__(
            self, "omega", tuple(int(k) for k in np.nonzero(np.abs(lam) <= self.rank_tol)[0])
        )

    @property
    def psd(self) -> bool:
        """True when no eigenvalue lies below -rank_tol."""
        return bool(self.eigenvalues[-1] >= -self.rank_tol)

    @property
    def m(self) -> int:
        return self.source.m


def eigen_decompose(y: SymMat, rank_tol: float | None = None) -> OrderedEigenDecomposition:
    """Ordered eigenvalue decomposition of ``y`` by LAPACK's ``eigh``.

    ``rank_tol`` defaults to ``DEFAULT_RANK_REL * max(1, largest |eigenvalue|)``.
    Any orthogonal basis of a repeated eigenspace is acceptable to every
    consumer in this package.  Non-convergence raises ``LinAlgError``.
    """
    if rank_tol is not None and not 0 < rank_tol < math.inf:
        raise ValueError("rank_tol must be positive and finite")
    lam, q = np.linalg.eigh(y.dense())
    # eigh sorts ascending with eigenvectors as columns
    lam = lam[::-1]
    p = q[:, ::-1].T
    if rank_tol is None:
        rank_tol = DEFAULT_RANK_REL * max(1.0, float(np.abs(lam).max()))
    return OrderedEigenDecomposition(source=y, p_matrix=p, eigenvalues=lam, rank_tol=rank_tol)


def pseudoinverse(d: OrderedEigenDecomposition) -> SymMat:
    """Moore-Penrose pseudoinverse: invert eigenvalues on pi, zero on omega."""
    if not d.psd:
        raise ValueError("pseudoinverse requires a PSD-flagged decomposition")
    inv = np.zeros(d.m)
    pi = list(d.pi)
    inv[pi] = 1.0 / d.eigenvalues[pi]
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


def split_blocks(a: SymMat, d: OrderedEigenDecomposition):
    """The pi-pi, pi-omega and omega-omega blocks of one conjugate(a, d);
    an empty index set gives empty blocks."""
    conj = conjugate(a, d).dense()
    return conj[np.ix_(d.pi, d.pi)], conj[np.ix_(d.pi, d.omega)], conj[np.ix_(d.omega, d.omega)]
