"""Variational geometry of the positive semidefinite cone.

Distance to the cone is eigenvalue based (numpy's LAPACK eigensolver; this
is plumbing).  The tangent/normal cone tests evaluate the closed-form block
criteria on the blocks of one conjugation into the eigenbasis of the base
point; ``normal_cone_residual`` is the one measure behind the normal-cone
test and the multiplier certificates' slack, and ``project_normal_cone`` the
nearest point of that cone.
"""

from __future__ import annotations

import numpy as np

from .symmat import OrderedEigenDecomposition, SymMat, lower_to_dense, split_blocks

DEFAULT_TOL = 1e-8


def dist_psd_from_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """Frobenius distances to the PSD cone of the matrices whose eigenvalues
    are the rows of ``lam``.  The squares overflow from about 1.3e154: a row
    whose plain sum is not finite is summed again by ``np.hypot``, which
    rescales; every other row keeps the bits of the plain sum."""
    neg = np.minimum(lam, 0.0)
    with np.errstate(over="ignore"):
        out = np.sqrt(np.sum(neg**2, axis=-1))
    big = np.isinf(out)
    if big.any():
        out[big] = np.hypot.reduce(neg[big], axis=-1)
    return out


def dist_psd_batch(m: int, lower: np.ndarray) -> np.ndarray:
    """Frobenius distances to the PSD cone of the m x m matrices whose lower
    triangles are the rows of ``lower``, with one stacked eigenvalue call."""
    return dist_psd_from_eigenvalues(np.linalg.eigvalsh(lower_to_dense(m, lower)))


def dist_psd(a: SymMat) -> float:
    """Frobenius distance to the PSD cone: sqrt(sum of squared negative eigenvalues)."""
    return float(dist_psd_batch(a.m, a.lower[None, :])[0])


def tangent_cone_contains(
    d: OrderedEigenDecomposition, v: SymMat, tol: float = DEFAULT_TOL
) -> bool:
    """Tangent-cone membership at d.source: the omega-omega block of v in
    d's eigenbasis must be PSD within tol.  Empty omega means an interior
    base point, where the tangent cone is the whole space."""
    if not d.psd:
        raise ValueError("tangent cone is defined at PSD base points only")
    if not d.omega:
        return True
    return float(np.linalg.eigvalsh(split_blocks(v, d)[2])[0]) >= -tol


def normal_cone_residual(d: OrderedEigenDecomposition, ystar: SymMat) -> float:
    """How far ystar lies from the normal cone at d.source, in d's
    eigenbasis: the largest of 0, the norms of its pi-pi and pi-omega blocks
    and the largest eigenvalue of its omega-omega block."""
    if not d.psd:
        raise ValueError("normal cone is defined at PSD base points only")
    pp, po, oo = split_blocks(ystar, d)
    top = float(np.linalg.eigvalsh(oo)[-1]) if d.omega else 0.0
    return max(0.0, float(np.linalg.norm(pp)), float(np.linalg.norm(po)), top)


def _embed_omega(d: OrderedEigenDecomposition, w: np.ndarray) -> SymMat:
    """Lift a |omega| x |omega| block to the full space through d's eigenbasis."""
    full = np.zeros((d.m, d.m))
    omega = list(d.omega)
    if omega:
        full[np.ix_(omega, omega)] = w
    dense = d.p_matrix.T @ full @ d.p_matrix
    return SymMat.from_dense(dense, check_symmetry=False)


def project_normal_cone(d: OrderedEigenDecomposition, ystar: SymMat) -> SymMat:
    """The point of the normal cone at d.source nearest to ystar: in d's
    eigenbasis, the negative part of ystar's omega-omega block, and 0 in
    the other blocks."""
    if not d.psd:
        raise ValueError("normal cone is defined at PSD base points only")
    lam, q = np.linalg.eigh(split_blocks(ystar, d)[2])
    return _embed_omega(d, (q * np.minimum(lam, 0.0)) @ q.T)


def normal_cone_contains(
    d: OrderedEigenDecomposition, ystar: SymMat, tol: float = DEFAULT_TOL
) -> bool:
    """Normal-cone membership at d.source: in d's eigenbasis the pi-pi and
    pi-omega blocks of ystar vanish and the omega-omega block is negative
    semidefinite, all within tol."""
    return normal_cone_residual(d, ystar) <= tol

