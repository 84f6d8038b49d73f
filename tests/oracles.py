"""Definition-based references that the tests check the package against.

None of the package's commands runs these: the direct PSD test and
projection, the difference-quotient tangent test, the one-sample Schur
feasibility criterion, the growth screen's former pair bound, and its two
bound tiers in their former row layout.
"""

import numpy as np

from nsdpcheck import sosc
from nsdpcheck.cone import DEFAULT_TOL, dist_psd, dist_psd_batch
from nsdpcheck.subderivative import _require_pivot, _schur_min_eigenvalues
from nsdpcheck.symmat import OrderedEigenDecomposition, SymMat, _tril_indices
from nsdpcheck.symmat import frobenius_norms, lower_to_dense

# Oracle default: decreasing step sizes for the difference quotient.
ORACLE_T_GRID = tuple(10.0**-k for k in range(1, 7))


def is_psd(a: SymMat, tol: float = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    lam_min = float(np.linalg.eigvalsh(a.dense())[0])
    return lam_min >= -tol


def project_psd(a: SymMat) -> SymMat:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero."""
    lam, q = np.linalg.eigh(a.dense())
    clipped = np.maximum(lam, 0.0)
    return SymMat.from_dense((q * clipped) @ q.T, check_symmetry=False)


def tangent_cone_contains_oracle(
    y: SymMat,
    v: SymMat,
    t_grid=ORACLE_T_GRID,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Definition-based tangent test: dist(y + t*v) / t must fall below
    max(tol, 10 * t_min) at the two smallest grid steps.

    This distinguishes the O(t) decay of a tangent direction from the
    constant quotient of a non-tangent one without claiming a limit.  Used
    as an independent test oracle for tangent_cone_contains.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid or t_grid[0] <= 0:
        raise ValueError("t_grid must contain positive step sizes")
    if not is_psd(y, tol):
        raise ValueError("oracle base point must be PSD within tol")
    slack = max(tol, 10.0 * t_grid[0])
    for t in t_grid[: min(2, len(t_grid))]:
        if dist_psd(y + t * v) / t > slack:
            return False
    return True


def schur_feasibility(
    d: OrderedEigenDecomposition, vprime: SymMat, t: float, tol: float = DEFAULT_TOL
) -> bool:
    """Feasibility of y + t*vprime via the omega-block Schur complement.

    Raises PivotNotPositiveDefinite when t is too large for the reduction.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if vprime.m != d.m:
        raise ValueError("dimension mismatch")
    ok, lam = _schur_min_eigenvalues(d, vprime.lower[None], t)
    _require_pivot(ok, t)
    return bool(lam[0] >= -tol)


def pair_block_distances(k: int):
    """The growth screen's former first tier, which its matching bound must
    never fall below: the function that maps k x k lower triangles, stacked
    as the columns of its argument, to the largest distance to the PSD cone
    among each matrix's principal 2 x 2 blocks (its 1 x 1 block at k = 1),
    in closed form: [[a, b], [b, c]] has eigenvalues h -+ r,
    h = (a + c) / 2, r = sqrt(d^2 + b^2), d = (a - c) / 2."""
    i, j = _tril_indices(k)
    diag = np.flatnonzero(i == j)
    off = np.flatnonzero(i != j)
    pick = np.stack((diag[i[off]], diag[j[off]], off))  # rows of a, c and b

    def distances(lower: np.ndarray) -> np.ndarray:
        if k == 1:
            squares = np.minimum(lower, 0.0) ** 2
        else:
            a, c, b = lower[pick]
            half, d = 0.5 * (a + c), 0.5 * (a - c)
            radius = np.sqrt(d * d + b * b)
            squares = np.minimum(half - radius, 0.0) ** 2 + np.minimum(half + radius, 0.0) ** 2
        return np.sqrt(squares.max(axis=0, initial=0.0))

    return distances


def row_block_distances(k: int):
    """The growth screen's matching bound in its former row layout: the
    function that maps k x k lower triangles, one per row, to the largest
    root-sum-square, over the rounds of ``sosc._round_robin(k)``, of the
    distances of the round's principal blocks (see
    ``sosc._principal_block_distances``)."""
    i, j = _tril_indices(k)
    diag = np.flatnonzero(i == j)
    off = np.flatnonzero(i != j)
    pick = np.stack((diag[i[off]], diag[j[off]], off))  # rows of a, c and b
    column = {(int(i[t]), int(j[t])): c for c, t in enumerate(off)}
    column.update({(int(t),): len(off) + int(t) for t in range(k)})
    rounds = sosc._round_robin(k)
    incidence = np.zeros((len(rounds), len(off) + k % 2 * k))
    for r, blocks in enumerate(rounds):
        incidence[r, [column[block] for block in blocks]] = 1.0

    def distances(lower: np.ndarray) -> np.ndarray:
        a, c, b = lower.T[pick]
        half, d = 0.5 * (a + c), 0.5 * (a - c)
        radius = np.sqrt(d * d + b * b)
        squares = np.minimum(half - radius, 0.0) ** 2 + np.minimum(half + radius, 0.0) ** 2
        if k % 2:
            squares = np.concatenate((squares, np.minimum(lower.T[diag], 0.0) ** 2))
        return np.sqrt((incidence @ squares).max(axis=0, initial=0.0))

    return distances


def row_distance_screen(p, d: OrderedEigenDecomposition):
    """(k, matching_bounds, bounds): the growth screen's two bound tiers in
    their former row layout, over all rows of x in one product, with the
    monomials z(x) one per row and the projected triangles one per row (see
    ``sosc._psd_distance_screen``)."""
    basis = d.p_matrix[list(d.omega)]
    k = len(basis)
    i, j = _tril_indices(k)
    qi, qj = _tril_indices(p.n)
    b = p.F.b
    parts = [p.F.a0.lower[None], p.F.a]
    if b is not None:
        parts.append(b[qi, qj] * np.where(qi == qj, 0.5, 1.0)[:, None])
    coeffs = np.concatenate(parts)
    projected = (basis @ lower_to_dense(p.m, coeffs) @ basis.T)[:, i, j]
    sizes = frobenius_norms(p.m, coeffs)
    slack = sosc._GROWTH_ROUNDING * (p.m + p.n) ** 2 * np.finfo(float).eps

    def monomials(x):
        z = np.empty((len(x), len(coeffs)))
        z[:, 0] = 1.0
        z[:, 1 : 1 + p.n] = x
        if b is not None:
            np.multiply(x[:, qi], x[:, qj], out=z[:, 1 + p.n :])
        return z

    def screen(distances):
        def bounds(x: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                z = monomials(x)
                lower = z @ projected
                size = np.abs(z) @ sizes
                ok = np.isfinite(size) & np.isfinite(lower).all(axis=1)
                lower[~ok] = 0.0
                dist = distances(lower)
            ok &= np.isfinite(dist)
            out = np.full(len(x), -np.inf)
            out[ok] = dist[ok] - slack * size[ok] - sosc._GROWTH_UNDERFLOW
            return out

        return bounds

    return k, screen(row_block_distances(k)), screen(lambda lower: dist_psd_batch(k, lower))
