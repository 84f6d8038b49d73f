"""Second subderivative of the PSD-cone indicator function.

The finite branch has the closed form ``-2 <ystar, v @ pinv(y) @ v>``.  It is
accompanied by two constructions:

* the Schur-complement criterion (``_schur_min_eigenvalues``): for small
  t > 0, membership of ``y + t*v'`` in the PSD cone reduces to positive
  semidefiniteness of a Schur complement taken in the eigenbasis of ``y``.
* ``recovery_sequence``: an explicit correction of the omega-omega block that
  makes ``y + t*v_t`` feasible while ``v_t -> v``, along which the
  difference quotients attain the closed-form value.

``estimate_subderivative_sampling`` estimates the defining lim inf by
sampling feasible directions at shrinking step sizes.  The samples of every
step are drawn first, in blocks of ``_TRACE_BLOCK``, and then judged and
scored together, one step size per row, in batches of at most one block a
step.  A sample is kept by the Schur-complement test, after an infeasibility
screen (``_infeasibility_screen``): a Rayleigh-quotient bound of the
complement along the eigenvectors of v's omega-omega block, linear in the
sample, that rejects most infeasible samples with two matrix products per
batch.  Only the samples it cannot decide get the exact test, so every trace
keeps the bits of the full computation.
"""

from __future__ import annotations

import math

import numpy as np

from .cone import DEFAULT_TOL, normal_cone_contains, project_normal_cone, tangent_cone_contains
from .symmat import ORTH_TOL, OrderedEigenDecomposition, SymMat, _tril_indices, _tril_weights
from .symmat import frobenius_inner, lower_to_dense, pseudoinverse, row_squares, split_blocks

# Sampling-oracle defaults.
SAMPLING_T_GRID = tuple(np.logspace(-1, -5, 8))
SAMPLING_RADIUS = 1.0
SAMPLING_N = 64

# Sampled directions drawn per block of the trace.  The candidates of every
# step go into one buffer of at most len(t_grid) blocks (each with v), which is
# judged and scored at once when the next block would not fit; so the trace's
# working memory does not grow with n_samples.
_TRACE_BLOCK = 256

# Feasibility slack of the sampler, relative to machine precision.  Accepted
# samples may violate the omega-block complement by at most slack + eigenvalue
# accuracy, which perturbs quotients by O(slack / t); keeping the slack at a
# few ulps keeps that perturbation below 1e-6 down to t ~ 3e-8.
_FEAS_SLACK = 8.0 * np.finfo(float).eps

# The infeasibility screen rejects a row only where its bound lies below the
# feasibility threshold by more than _SCREEN_ROUNDING * m^2 * eps times a
# bound of the entries that the exact test forms: more than its conjugation,
# pivot eigenvalue, solve and complement eigenvalue, and the screen's own
# products, can round apart.
_SCREEN_ROUNDING = 16.0


class HypothesisViolation(ValueError):
    """Inputs outside the domain of the closed form (base point not PSD, or
    multiplier not in the normal cone)."""


class PivotNotPositiveDefinite(ValueError):
    """Step size too large: the pi-pi pivot block lost positive definiteness."""


class NoFeasibleSampleError(RuntimeError):
    """The sampler found no feasible direction on the whole grid."""


class ToleranceAnomalyError(RuntimeError):
    """A branch that is unreachable under the enforced preconditions was hit;
    signals tolerance drift rather than a regular outcome."""


def require_multiplier(d: OrderedEigenDecomposition, ystar: SymMat, tol: float = DEFAULT_TOL):
    """Raise HypothesisViolation unless d.source is PSD at d.rank_tol and
    ystar lies in its normal cone within tol."""
    if not d.psd:
        raise HypothesisViolation("base point is not PSD within rank_tol")
    if not normal_cone_contains(d, ystar, tol):
        raise HypothesisViolation("ystar is not in the normal cone at the base point")


def second_subderivative(
    d: OrderedEigenDecomposition,
    ystar: SymMat,
    v: SymMat,
    tol: float = DEFAULT_TOL,
) -> float:
    """Second subderivative of the PSD-cone indicator at d.source with
    multiplier ystar, evaluated in direction v: a value in [0, +inf] up to
    the tolerance.

    Requires ystar in the normal cone at the base point (enforced).  Returns
    math.inf when v leaves the tangent cone or <ystar, v> is negative beyond
    tolerance; otherwise the finite value -2 <ystar, v pinv v>.  Raises
    FloatingPointError where that value overflows.
    """
    if ystar.m != d.m or v.m != d.m:
        raise ValueError("dimension mismatch")
    require_multiplier(d, ystar, tol)
    if not tangent_cone_contains(d, v, tol):
        return math.inf
    y_norm, v_norm = ystar.norm(), v.norm()
    # <ystar, v> is tested in units of y_top * v_top, the largest |entries|
    ys, vs, y_top, v_top = ystar, v, 1.0, 1.0
    if not (ystar.lower.any() and v.lower.any()):  # 0, without reading 0 * inf
        inner, scale = 0.0, 1.0
    elif math.isfinite(y_norm * v_norm):
        inner, scale = frobenius_inner(ystar, v), max(1.0, y_norm * v_norm)
    else:  # |ystar| |v| overflows: test copies scaled to a largest |entry| of 1
        y_top, v_top = float(np.abs(ystar.lower).max()), float(np.abs(v.lower).max())
        ys, vs = SymMat(ystar.m, ystar.lower / y_top), SymMat(v.m, v.lower / v_top)
        inner, scale = frobenius_inner(ys, vs), ys.norm() * vs.norm()
    if inner < -tol * scale:
        return math.inf
    if inner > tol * scale:
        # The two membership tests admit, in d's eigenbasis, pi-pi and
        # pi-omega blocks of ystar of norm up to tol, lambda_max(Y_oo) <= tol
        # and lambda_min(V_oo) >= -tol, which add up to tol (||V_pp|| +
        # 2 ||V_po|| + tr V_oo^+ + tr Y_oo^-) to the inner product.
        v_pp, v_po, v_oo = split_blocks(vs, d)
        y_oo = split_blocks(ys, d)[2]
        lam_v, lam_y = np.linalg.eigvalsh(v_oo), np.linalg.eigvalsh(y_oo)
        admitted = (
            np.linalg.norm(v_pp) + 2.0 * np.linalg.norm(v_po) + np.maximum(lam_v, 0.0).sum()
        ) / y_top + np.maximum(-lam_y, 0.0).sum() / v_top
        if inner > tol * (scale + admitted):
            # Would make the value minus infinity, impossible for a
            # normal-cone multiplier against a tangent direction (polar cones).
            raise ToleranceAnomalyError(
                f"<ystar, v> = {inner:.3e} > 0 despite enforced normal-cone membership"
            )
    ydag = pseudoinverse(d).dense()
    vd = v.dense()
    with np.errstate(over="ignore", invalid="ignore"):
        value = -2.0 * float(np.sum(ystar.dense() * (vd @ ydag @ vd)))
    if not math.isfinite(value):
        raise FloatingPointError(f"the closed form -2 <ystar, v pinv(y) v> overflows to {value}")
    return value + 0.0  # a zero reads 0, not -0


def _per_row(t, rows: int) -> np.ndarray:
    """A step size ``t``, a scalar or one value per row, as one value per row."""
    return np.broadcast_to(np.asarray(t, dtype=float), (rows,))


def _schur_terms(d: OrderedEigenDecomposition, lowers: np.ndarray, t):
    """Eigenbasis terms of y + t*v' for the directions v' whose lower
    triangles are the rows of ``lowers``, evaluated for all rows at once;
    ``t`` is a scalar or one step size per row.

    Returns ``(conj, ok, coupling)``.  ``conj`` stacks P v' P.T, symmetrised
    as ``SymMat.from_dense`` does.  ``ok`` flags the rows whose pi-pi pivot
    M_pp + t V'_pp keeps its smallest eigenvalue above rank_tol; only those
    rows are solved.  ``coupling`` stacks t V'_op inv(pivot) V'_po for the ok
    rows, or is None when pi or omega is empty.
    """
    p = d.p_matrix
    conj = p @ lower_to_dense(d.m, lowers) @ p.T
    conj *= 0.5  # halved before the sum, which would overflow near 1e308
    conj = conj + conj.swapaxes(-1, -2)
    pi, omega = np.array(d.pi, dtype=np.intp), np.array(d.omega, dtype=np.intp)
    ok = np.ones(len(conj), dtype=bool)
    coupling = None
    if len(pi):
        t = _per_row(t, len(conj))[:, None, None]
        pivot = np.diag(d.eigenvalues[pi]) + t * conj[:, pi[:, None], pi]
        ok = np.linalg.eigvalsh(pivot)[:, 0] > d.rank_tol
        if len(omega):
            cross = conj[ok][:, pi[:, None], omega]
            coupling = (t[ok] * cross.swapaxes(-1, -2)) @ np.linalg.solve(pivot[ok], cross)
    return conj, ok, coupling


def _schur_min_eigenvalues(d: OrderedEigenDecomposition, lowers: np.ndarray, t):
    """``(ok, lam)`` per row of ``lowers``: ``ok`` as in ``_schur_terms``, and
    ``lam`` the smallest eigenvalue of the omega-omega Schur complement, whose
    PSD-ness is equivalent to y + t*v' being PSD.  ``lam`` is +inf for an
    empty omega and NaN where the pivot failed."""
    conj, ok, coupling = _schur_terms(d, lowers, t)
    lam = np.full(len(conj), np.nan)
    if not d.omega:
        lam[ok] = np.inf
        return ok, lam
    omega = np.array(d.omega, dtype=np.intp)
    comp = conj[ok][:, omega[:, None], omega]
    if coupling is not None:
        comp = comp - coupling
    lam[ok] = np.linalg.eigvalsh(comp)[:, 0]
    return ok, lam


def _require_pivot(ok: np.ndarray, t: float) -> None:
    if not ok[0]:
        raise PivotNotPositiveDefinite(f"pi-pi block not positive definite at t = {t:g}")


def _recovery_points(d: OrderedEigenDecomposition, v: SymMat, t: np.ndarray):
    """``recovery_sequence`` at every step size of ``t`` in one stacked
    computation: ``(ok, lowers)``, with ``ok`` flagging the steps whose pivot
    stays positive definite and the rows of ``lowers`` the lower triangles of
    those steps' points, C-contiguous as ``SymMat.lower`` is, so that sums
    over a row keep its bits.  Raises FloatingPointError where the arithmetic
    overflows or meets a NaN."""
    with np.errstate(over="raise", invalid="raise"):
        conj, ok, coupling = _schur_terms(d, np.broadcast_to(v.lower, (len(t), len(v.lower))), t)
        corrected = conj[ok]
        if coupling is not None:
            omega = np.array(d.omega, dtype=np.intp)
            corrected[:, omega[:, None], omega] += 0.5 * (coupling + coupling.swapaxes(-1, -2))
        p = d.p_matrix
        dense = p.T @ corrected @ p
        # as SymMat.from_dense symmetrizes
        sym = 0.5 * dense + 0.5 * dense.swapaxes(-1, -2)
        i, j = _tril_indices(d.m)
        return ok, np.ascontiguousarray(sym[:, i, j])


def recovery_sequence(d: OrderedEigenDecomposition, v: SymMat, t: float) -> SymMat:
    """Feasible correction of v at step t: adds
    ``t * V_op @ inv(M_pp + t V_pp) @ V_po`` to the omega-omega block in the
    eigenbasis.  For tangent v this keeps y + t * result PSD and the
    correction vanishes like O(t).  Raises FloatingPointError where the
    arithmetic overflows or meets a NaN."""
    if t <= 0:
        raise ValueError("t must be positive")
    if v.m != d.m:
        raise ValueError("dimension mismatch")
    ok, lowers = _recovery_points(d, v, np.array([t], dtype=float))
    _require_pivot(ok, t)
    return SymMat(d.m, lowers[0])


def _grid_recovery(d: OrderedEigenDecomposition, v: SymMat, grid: np.ndarray):
    """``(ok, lowers, failure)``: ``_recovery_points`` over the steps of
    ``grid`` before the first whose recovery overflows, and that step's
    FloatingPointError, or None when no step overflows."""
    try:
        return (*_recovery_points(d, v, grid), None)
    except FloatingPointError as error:
        failure = error
    for stop in range(len(grid)):
        try:
            _recovery_points(d, v, grid[stop : stop + 1])
        except FloatingPointError as error:
            return (*_recovery_points(d, v, grid[:stop]), error)
    raise failure


def _infeasibility_screen(d: OrderedEigenDecomposition, v: SymMat):
    """A function ``(lowers, t, norms, slack) -> rejected`` that flags rows
    which the exact test of ``_samples_feasible`` provably rejects, or None
    when pi or omega is empty; ``t`` is a scalar or one step size per row.

    In d's eigenbasis a row v' has the pivot Pv = M_pp + t V'_pp and the
    complement S = V'_oo - t V'_op inv(Pv) V'_po.  Take a unit eigenvector z
    of v's own omega-omega block, w = P_omega^T z and c = P_pi v' w, so that
    z^T S z = w^T v' w - t c^T inv(Pv) c.  With s = ||P_pi||^2 ||v'||_F,
    Pv <= M_pp + t s I, and where lambda_min(M_pp) > t s also
    inv(Pv) >= inv(M_pp + t s I), so

        lambda_min(S) <= z^T S z / |z|^2
                      <= (w^T v' w - t sum_i c_i^2 / (lambda_i + t s)) / |z|^2.

    w^T v' w and c are linear in the lower triangle of v': products of a
    block's rows with an (m(m+1)/2) x k and an (m(m+1)/2) x k|pi| matrix,
    built here once, give them for every z, the second only for the rows
    that the first leaves open.  A row is rejected only where the exact test
    finds its pivot positive definite, lambda_min(M_pp) - t s above rank_tol
    by the rounding of lambda_max(M_pp) + t s, and where the smallest bound
    lies below -slack by the rounding of ||v'|| + t ||v'||^2 (lambda_max +
    t s) / (lambda_min - t s)^2, which bounds the entries of S and how far
    the computed S strays from it; both are scaled by max |z|^2, z's
    orthonormality defect.  A row on which any of this overflows or reads
    NaN is never rejected.
    """
    if not (d.pi and d.omega):
        return None
    m, p = d.m, d.p_matrix
    pi = list(d.pi)
    p_pi, basis = p[pi], p[list(d.omega)]
    with np.errstate(over="ignore", invalid="ignore"):
        v_oo = basis @ v.dense() @ basis.T
    if not np.isfinite(v_oo).all():
        return None
    z = np.linalg.eigh(v_oo)[1]
    k = len(z)
    zeta = max(1.0, float(np.max(np.sum(z * z, axis=0))))
    # the decomposition keeps ||P P^T - I||_F within ORTH_TOL as computed, so
    # this bounds ||P_pi||^2 and ||P_omega||^2
    stretch = 1.0 + 2.0 * ORTH_TOL
    lam = d.eigenvalues[pi]
    lam_hi, lam_lo = float(lam[0]), float(lam[-1])
    unit = _SCREEN_ROUNDING * m * m * np.finfo(float).eps

    # column j of quad_forms and column (j, a) of cross_forms hold the
    # coefficients of v''s lower triangle in w_j^T v' w_j and (P_pi v' w_j)_a:
    # (x_i y_j + x_j y_i) / 2 at entry (i, j), times _tril_weights
    i, j = _tril_indices(m)
    weights = _tril_weights(m, 2.0)
    w = z.T @ basis
    w_i, w_j, p_i, p_j = w[:, i].T, w[:, j].T, p_pi[:, i].T, p_pi[:, j].T
    quad_forms = weights[:, None] * w_i * w_j
    cross_forms = (0.5 * weights[:, None, None]) * (
        w_j[:, :, None] * p_i[:, None] + w_i[:, :, None] * p_j[:, None]
    )
    cross_forms = cross_forms.reshape(len(i), -1)

    def rejected(lowers: np.ndarray, t, norms: np.ndarray, slack: np.ndarray):
        out = np.zeros(len(lowers), dtype=bool)
        t = _per_row(t, len(lowers))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            quad = lowers @ quad_forms
            # |c|^2 <= ||P_pi||^2 ||v'||^2 |w|^2, so a row whose w^T v' w all
            # exceed t ||P_pi||^2 ||v'||^2 |w|^2 / lambda_lo has no negative
            # bound: its coupling terms are not formed
            open_pairs = quad < ((t * stretch**2 * zeta / lam_lo) * norms**2)[:, None]
            if not open_pairs.any():
                return out
            rows = np.flatnonzero(open_pairs.any(axis=1))
            quad, norms, slack, t = quad[rows], norms[rows], slack[rows], t[rows]
            shift = t * stretch * norms
            top, low = lam_hi + shift, lam_lo - shift
            size = norms + t * norms**2 * top / low**2
            cross = (lowers[rows] @ cross_forms).reshape(len(rows), k, len(pi))
            coupling = (cross**2 @ (1.0 / (lam + shift[:, None]))[..., None])[..., 0]
            bound = np.min(quad - t[:, None] * coupling, axis=1)
            sure = (low - unit * top > d.rank_tol) & np.isfinite(m * m * size) & np.isfinite(bound)
            out[rows] = sure & (bound < -zeta * (slack + unit * size))
        return out

    return rejected


def _samples_feasible(d: OrderedEigenDecomposition, screen, lowers: np.ndarray, t):
    """Tight feasibility filter for sampled directions, one flag per row of
    ``lowers``; ``t`` is a scalar or one step size per row.

    Uses the Schur complement, whose entries stay O(||vprime||) as t shrinks,
    so violations of order t remain detectable where the absolute eigenvalues
    of y + t*vprime would drown in rounding.  Rows whose pivot fails, where t
    is too large for the reduction, fall back to a direct PSD test.  The rows
    that ``screen`` (from ``_infeasibility_screen``, or None) rejects skip
    both tests; every other row gets the bits of the full computation.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.square(lowers)  # weighted in place: one batch-sized temporary
        squares *= _tril_weights(d.m, 2.0)
        norms = np.sqrt(np.sum(squares, axis=-1))
    del squares
    if not np.isfinite(norms).all():
        # an infinite slack would pass every test
        raise FloatingPointError(
            "a sampled direction has a norm that is not finite; the radius is too large"
        )
    slack = _FEAS_SLACK * np.maximum(1.0, norms)
    t = _per_row(t, len(lowers))
    if screen is not None:
        tested = ~screen(lowers, t, norms, slack)
        if not tested.all():
            feasible = np.zeros(len(lowers), dtype=bool)
            if tested.any():
                feasible[tested] = _samples_feasible(d, None, lowers[tested], t[tested])
            return feasible
    ok, lam = _schur_min_eigenvalues(d, lowers, t)
    feasible = lam >= -slack
    direct = ~ok
    if direct.any():
        shifted = lower_to_dense(d.m, d.source.lower + t[direct, None] * lowers[direct])
        feasible[direct] = np.linalg.eigvalsh(shifted)[:, 0] >= -slack[direct]
    return feasible


def _candidate_blocks(rng, v: SymMat, t: float, radius: float, n_samples: int):
    """Lower triangles of v and of n_samples random symmetric perturbations of
    v within radius*t: the samples in blocks of _TRACE_BLOCK draws, v ahead
    of the first.  A block takes one normal and then one uniform draw; a zero
    noise gives no row."""
    m = v.m
    i, j = _tril_indices(m)
    for start in range(0, n_samples, _TRACE_BLOCK):
        noise = rng.standard_normal((min(_TRACE_BLOCK, n_samples - start), m, m))
        scale = radius * t * rng.random(len(noise))
        noise = 0.5 * (noise + noise.swapaxes(1, 2))
        norms = np.sqrt(row_squares(noise.reshape(len(noise), m * m)))
        keep = norms != 0.0
        rows = v.lower + noise[keep][:, i, j] * (scale[keep] / norms[keep])[:, None]
        yield np.concatenate((v.lower[None], rows)) if start == 0 else rows
    if n_samples == 0:
        yield v.lower[None]


def _candidate_batches(rng, v: SymMat, t_values, radius: float, n_samples: int):
    """``(rows, steps)``: the ``_candidate_blocks`` of every step size, drawn
    step after step from one stream, gathered into one C-contiguous buffer of
    len(t_values) blocks with the index of each row's step.  A batch is handed
    out, as a view of the buffer, when the next block would not fit."""
    capacity = len(t_values) * (min(n_samples, _TRACE_BLOCK) + 1)
    buffer = np.empty((capacity, len(v.lower)))
    steps = np.empty(capacity, dtype=np.intp)
    fill = 0
    for k, t in enumerate(t_values):
        for rows in _candidate_blocks(rng, v, t, radius, n_samples):
            if fill + len(rows) > capacity:
                yield buffer[:fill], steps[:fill]
                fill = 0
            buffer[fill : fill + len(rows)] = rows
            steps[fill : fill + len(rows)] = k
            fill += len(rows)
    if fill:
        yield buffer[:fill], steps[:fill]


def _quotients(ystar: SymMat, lowers: np.ndarray, t) -> np.ndarray:
    """-2 <ystar, v'> / t for every row v' of ``lowers`` (``t`` a scalar or
    one step size per row), summed as
    frobenius_inner sums.  Where that overflows or reads inf - inf, the row
    is summed again with ystar and the row scaled to a largest |entry| of 1,
    and the scales are put back as powers of two, so an overflow keeps its
    sign and nothing warns.  Every finite quotient keeps its bits."""
    weights = _tril_weights(ystar.m, 2.0)
    t = _per_row(t, len(lowers))
    with np.errstate(over="ignore", invalid="ignore"):
        out = -2.0 * np.sum(weights * ystar.lower * lowers, axis=-1) / t
        bad = ~np.isfinite(out)
        if bad.any():
            y_top = np.abs(ystar.lower).max()
            rows = lowers[bad]
            top = np.abs(rows).max(axis=-1)
            top[top == 0.0] = 1.0
            inner = np.sum(weights * (ystar.lower / y_top) * (rows / top[:, None]), axis=-1)
            parts = (-2.0 * inner, y_top, top, t[bad])
            (mi, ei), (my, ey), (mr, er), (mt, et) = map(np.frexp, parts)
            out[bad] = np.ldexp(mi * my * mr / mt, ei + ey + er - et)
    return out + 0.0  # a zero reads 0, not -0


def subderivative_sampling_trace(
    d: OrderedEigenDecomposition,
    ystar: SymMat,
    v: SymMat,
    *,
    t_grid=SAMPLING_T_GRID,
    radius: float = SAMPLING_RADIUS,
    n_samples: int = SAMPLING_N,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Per-step record of the sampled difference quotients -2<ystar, v'>/t
    at y = d.source, with ystar replaced by the nearest point of the normal
    cone at y.

    At each t the candidate set is v itself, the recovery-sequence point and
    n_samples random symmetric perturbations of v within radius*t, every one
    kept only if y + t*v' stays PSD.  The recovery point is feasible by
    construction and enters unfiltered whenever the omega-omega block of v is
    PSD (tangent directions).

    The recovery points of all steps come from one stacked computation.  The
    perturbations are drawn from a seeded stream, step after step, in blocks,
    and the candidates of every step are judged and scored together, as one
    batch with a step size per row (``_candidate_batches``).  The
    infeasibility screen, built once per trace, bounds the complement's
    smallest eigenvalue of every sample from above by
    ``w^T v' w - t sum_i c_i^2 / (lambda_i + t ||v'||)`` along each
    eigenvector z of v's omega-omega block (w = P_omega^T z, c = P_pi v' w),
    and rejects the samples whose bound lies below the feasibility slack by
    more than its rounding term; only the undecided samples get the exact
    Schur-complement test, so the counts, minima and quotients are those of
    the full computation.
    Raises FloatingPointError when the radius is so large that a sample's
    norm overflows, which would make the feasibility slack infinite, or
    where the recovery point's arithmetic overflows; of the two, the one met
    first when the steps are walked in order, each recovery point before its
    samples.
    """
    require_multiplier(d, ystar, tol)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples!r}")
    # the quotients of a ystar that the tolerance admits outside the cone
    # would grow like 1/t down the grid
    ystar = project_normal_cone(d, ystar)
    t_values = sorted((float(t) for t in t_grid), reverse=True)
    if not t_values or t_values[-1] <= 0:
        raise ValueError("t_grid must contain positive step sizes")
    grid = np.array(t_values)
    rng = np.random.default_rng(seed)
    screen = _infeasibility_screen(d, v)

    counts = np.zeros(len(grid), dtype=np.intp)
    lowest = np.full(len(grid), np.inf)
    recovery_q = [None] * len(grid)
    sampled, failure = len(grid), None
    if tangent_cone_contains(d, v, tol):
        ok, points, failure = _grid_recovery(d, v, grid)
        # the steps from the first overflowing recovery on are never reached
        sampled = len(ok)
        at = np.flatnonzero(ok)
        lowest[at] = _quotients(ystar, points, grid[at])
        counts[at] = 1
        for k in at:
            recovery_q[k] = float(lowest[k])
    for rows, at in _candidate_batches(rng, v, t_values[:sampled], radius, n_samples):
        t = grid[at]
        kept = _samples_feasible(d, screen, rows, t)
        at = at[kept]
        counts += np.bincount(at, minlength=len(grid))
        np.minimum.at(lowest, at, _quotients(ystar, rows[kept], t[kept]))
    if failure is not None:
        raise failure
    return [
        {
            "t": t,
            "feasible_samples": int(count),
            "min_quotient": float(low) if count else None,
            "recovery_quotient": rec,
        }
        for t, count, low, rec in zip(t_values, counts, lowest, recovery_q)
    ]


def estimate_subderivative_sampling(
    d: OrderedEigenDecomposition,
    ystar: SymMat,
    v: SymMat,
    *,
    t_grid=SAMPLING_T_GRID,
    radius: float = SAMPLING_RADIUS,
    n_samples: int = SAMPLING_N,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> float:
    """Sampled estimate of the lim inf defining the second subderivative.

    Returns the smallest quotient observed at the finest step size that
    admitted feasible samples; the recovery-sequence point guarantees the
    estimate converges to the closed-form value as the grid refines.
    """
    trace = subderivative_sampling_trace(
        d, ystar, v, t_grid=t_grid, radius=radius, n_samples=n_samples, seed=seed, tol=tol
    )
    return estimate_from_trace(trace)


def estimate_from_trace(trace: list[dict]) -> float:
    """Smallest quotient at the finest step of a sampling trace that admitted
    feasible samples; raises NoFeasibleSampleError when no step did."""
    for level in reversed(trace):
        if level["feasible_samples"] > 0:
            return float(level["min_quotient"])
    raise NoFeasibleSampleError(
        "no feasible sample on the grid; the direction appears to leave the tangent cone"
    )
