"""Second subderivative of the PSD-cone indicator function.

The finite branch has the closed form ``-2 <ystar, v @ pinv(y) @ v>``.  It is
accompanied by two constructions used both internally and as test oracles:

* ``schur_feasibility``: for small t > 0, membership of ``y + t*v'`` in the
  PSD cone reduces to positive semidefiniteness of a Schur complement taken
  in the eigenbasis of ``y``.
* ``recovery_sequence``: an explicit correction of the omega-omega block that
  makes ``y + t*v_t`` feasible while ``v_t -> v``, along which the
  difference quotients attain the closed-form value.

``estimate_subderivative_sampling`` estimates the defining lim inf by
sampling feasible directions at shrinking step sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .cone import DEFAULT_TOL, normal_cone_contains, project_normal_cone, tangent_cone_contains
from .symmat import OrderedEigenDecomposition, SymMat, _tril_indices, _tril_weights
from .symmat import frobenius_inner, lower_to_dense, pseudoinverse, split_blocks

# Sampling-oracle defaults.
SAMPLING_T_GRID = tuple(np.logspace(-1, -5, 8))
SAMPLING_RADIUS = 1.0
SAMPLING_N = 64

# Sampled directions evaluated per stacked eigenvalue call of the trace; bounds
# its working memory independently of n_samples.
_TRACE_BLOCK = 256

# Feasibility slack of the sampler, relative to machine precision.  Accepted
# samples may violate the omega-block complement by at most slack + eigenvalue
# accuracy, which perturbs quotients by O(slack / t); keeping the slack at a
# few ulps keeps that perturbation below 1e-6 down to t ~ 3e-8.
_FEAS_SLACK = 8.0 * np.finfo(float).eps


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


def _schur_terms(d: OrderedEigenDecomposition, lowers: np.ndarray, t: float):
    """Eigenbasis terms of y + t*v' for the directions v' whose lower
    triangles are the rows of ``lowers``, evaluated for all rows at once.

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
        pivot = np.diag(d.eigenvalues[pi]) + t * conj[:, pi[:, None], pi]
        ok = np.linalg.eigvalsh(pivot)[:, 0] > d.rank_tol
        if len(omega):
            cross = conj[ok][:, pi[:, None], omega]
            coupling = (t * cross.swapaxes(-1, -2)) @ np.linalg.solve(pivot[ok], cross)
    return conj, ok, coupling


def _schur_min_eigenvalues(d: OrderedEigenDecomposition, lowers: np.ndarray, t: float):
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


def recovery_sequence(d: OrderedEigenDecomposition, v: SymMat, t: float) -> SymMat:
    """Feasible correction of v at step t: adds
    ``t * V_op @ inv(M_pp + t V_pp) @ V_po`` to the omega-omega block in the
    eigenbasis.  For tangent v this keeps y + t * result PSD and the
    correction vanishes like O(t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if v.m != d.m:
        raise ValueError("dimension mismatch")
    conj, ok, coupling = _schur_terms(d, v.lower[None], t)
    _require_pivot(ok, t)
    corrected = conj[0]
    if coupling is not None:
        delta = coupling[0]
        corrected[np.ix_(d.omega, d.omega)] += 0.5 * (delta + delta.T)
    p = d.p_matrix
    return SymMat.from_dense(p.T @ corrected @ p, check_symmetry=False)


def _samples_feasible(d: OrderedEigenDecomposition, lowers: np.ndarray, t: float) -> np.ndarray:
    """Tight feasibility filter for sampled directions, one flag per row of
    ``lowers``.

    Uses the Schur complement, whose entries stay O(||vprime||) as t shrinks,
    so violations of order t remain detectable where the absolute eigenvalues
    of y + t*vprime would drown in rounding.  Rows whose pivot fails, where t
    is too large for the reduction, fall back to a direct PSD test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.sum(_tril_weights(d.m, 2.0) * lowers**2, axis=-1))
    if not np.isfinite(norms).all():
        # an infinite slack would pass every test
        raise FloatingPointError(
            "a sampled direction has a norm that is not finite; the radius is too large"
        )
    slack = _FEAS_SLACK * np.maximum(1.0, norms)
    ok, lam = _schur_min_eigenvalues(d, lowers, t)
    feasible = lam >= -slack
    direct = ~ok
    if direct.any():
        shifted = lower_to_dense(d.m, d.source.lower + t * lowers[direct])
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
        flat = noise.reshape(len(noise), 1, m * m)
        norms = np.sqrt((flat @ flat.swapaxes(1, 2)).reshape(len(noise)))  # as np.linalg.norm
        keep = norms != 0.0
        rows = v.lower + noise[keep][:, i, j] * (scale[keep] / norms[keep])[:, None]
        yield np.concatenate((v.lower[None], rows)) if start == 0 else rows
    if n_samples == 0:
        yield v.lower[None]


def _quotients(ystar: SymMat, lowers: np.ndarray, t: float) -> np.ndarray:
    """-2 <ystar, v'> / t for every row v' of ``lowers``, summed as
    frobenius_inner sums.  Where that overflows or reads inf - inf, the row
    is summed again with ystar and the row scaled to a largest |entry| of 1,
    and the scales are put back as powers of two, so an overflow keeps its
    sign and nothing warns.  Every finite quotient keeps its bits."""
    weights = _tril_weights(ystar.m, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = -2.0 * np.sum(weights * ystar.lower * lowers, axis=-1) / t
        bad = ~np.isfinite(out)
        if bad.any():
            y_top = np.abs(ystar.lower).max()
            rows = lowers[bad]
            top = np.abs(rows).max(axis=-1)
            top[top == 0.0] = 1.0
            inner = np.sum(weights * (ystar.lower / y_top) * (rows / top[:, None]), axis=-1)
            (mi, ei), (my, ey), (mr, er), (mt, et) = map(np.frexp, (-2.0 * inner, y_top, top, t))
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

    The perturbations are drawn from a seeded stream in blocks, and the
    feasibility and quotients of a block are evaluated at once.
    Raises FloatingPointError when the radius is so large that a sample's
    norm overflows, which would make the feasibility slack infinite.
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
    rng = np.random.default_rng(seed)
    tangent = tangent_cone_contains(d, v, tol)

    trace = []
    for t in t_values:
        count, lowest, recovery_q = 0, None, None
        if tangent:
            try:
                v_rec = recovery_sequence(d, v, t)
                recovery_q = float(_quotients(ystar, v_rec.lower[None, :], t)[0])
                count, lowest = 1, recovery_q
            except PivotNotPositiveDefinite:
                pass
        for rows in _candidate_blocks(rng, v, t, radius, n_samples):
            kept = rows[_samples_feasible(d, rows, t)]
            if not len(kept):
                continue
            quotients = _quotients(ystar, kept, t)
            # the first of equal minima, as min() over the candidates keeps
            low = float(quotients[np.argmin(quotients)])
            count += len(kept)
            if lowest is None or low < lowest:
                lowest = low
        trace.append(
            {
                "t": t,
                "feasible_samples": count,
                "min_quotient": lowest,
                "recovery_quotient": recovery_q,
            }
        )
    return trace


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
