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

from dataclasses import dataclass

import numpy as np

from .cone import DEFAULT_TOL, is_psd, normal_cone_contains, tangent_cone_contains
from .symmat import OrderedEigenDecomposition, SymMat, conjugate, eigen_decompose
from .symmat import frobenius_inner, pseudoinverse

# Sampling-oracle defaults.
SAMPLING_T_GRID = tuple(np.logspace(-1, -5, 8))
SAMPLING_RADIUS = 1.0
SAMPLING_N = 64

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


@dataclass(frozen=True)
class ExtendedReal:
    """Value in R extended with plus/minus infinity, tagged explicitly."""

    tag: str
    value: float | None = None

    _TAGS = ("finite", "plus_infinity", "minus_infinity")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        if self.tag == "finite":
            if self.value is None or not np.isfinite(self.value):
                raise ValueError("finite tag requires a finite value")
        elif self.value is not None:
            raise ValueError("infinite tags carry no value")

    @classmethod
    def finite(cls, value: float) -> "ExtendedReal":
        return cls("finite", float(value))

    @classmethod
    def plus_infinity(cls) -> "ExtendedReal":
        return cls("plus_infinity")

    @classmethod
    def minus_infinity(cls) -> "ExtendedReal":
        return cls("minus_infinity")

    @property
    def is_finite(self) -> bool:
        return self.tag == "finite"

    def to_json(self) -> dict:
        return {"tag": self.tag, "value": self.value}


def second_subderivative(
    d: OrderedEigenDecomposition,
    ystar: SymMat,
    v: SymMat,
    tol: float = DEFAULT_TOL,
) -> ExtendedReal:
    """Second subderivative of the PSD-cone indicator at d.source with
    multiplier ystar, evaluated in direction v.

    Requires ystar in the normal cone at the base point (enforced).  Returns
    plus infinity when v leaves the tangent cone or <ystar, v> is negative
    beyond tolerance; otherwise the finite value -2 <ystar, v pinv v>.
    """
    if not d.psd:
        raise HypothesisViolation("base point is not PSD within rank_tol")
    if ystar.m != d.m or v.m != d.m:
        raise ValueError("dimension mismatch")
    if not normal_cone_contains(d, ystar, tol):
        raise HypothesisViolation("ystar is not in the normal cone at the base point")
    if not tangent_cone_contains(d, v, tol):
        return ExtendedReal.plus_infinity()
    inner = frobenius_inner(ystar, v)
    scale = max(1.0, ystar.norm() * v.norm())
    if inner < -tol * scale:
        return ExtendedReal.plus_infinity()
    if inner > tol * scale:
        # Would be the minus-infinity branch, impossible for a normal-cone
        # multiplier against a tangent direction (polar cones).
        raise ToleranceAnomalyError(
            f"<ystar, v> = {inner:.3e} > 0 despite enforced normal-cone membership"
        )
    ydag = pseudoinverse(d).dense()
    vd = v.dense()
    curvature = float(np.sum(ystar.dense() * (vd @ ydag @ vd)))
    return ExtendedReal.finite(-2.0 * curvature)


def _pivot(d: OrderedEigenDecomposition, conj_dense: np.ndarray, t: float) -> np.ndarray:
    pi = list(d.pi)
    m_pp = np.diag(np.asarray(d.eigenvalues)[pi]) if pi else np.zeros((0, 0))
    pivot = m_pp + t * conj_dense[np.ix_(pi, pi)]
    if pi and float(np.linalg.eigvalsh(pivot)[0]) <= d.rank_tol:
        raise PivotNotPositiveDefinite(
            f"pi-pi block not positive definite at t = {t:g}"
        )
    return pivot


def _schur_complement(
    d: OrderedEigenDecomposition, vprime: SymMat, t: float
) -> np.ndarray:
    """omega-omega complement whose PSD-ness is equivalent to
    y + t*vprime being PSD (for admissible t)."""
    vp = conjugate(vprime, d).dense()
    pivot = _pivot(d, vp, t)
    pi, omega = list(d.pi), list(d.omega)
    comp = vp[np.ix_(omega, omega)]
    if pi and omega:
        cross = vp[np.ix_(pi, omega)]
        comp = comp - t * cross.T @ np.linalg.solve(pivot, cross)
    return comp


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
    comp = _schur_complement(d, vprime, t)
    if comp.shape[0] == 0:
        return True
    return float(np.linalg.eigvalsh(comp)[0]) >= -tol


def recovery_sequence(d: OrderedEigenDecomposition, v: SymMat, t: float) -> SymMat:
    """Feasible correction of v at step t: adds
    ``t * V_op @ inv(M_pp + t V_pp) @ V_po`` to the omega-omega block in the
    eigenbasis.  For tangent v this keeps y + t * result PSD and the
    correction vanishes like O(t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if v.m != d.m:
        raise ValueError("dimension mismatch")
    vp = conjugate(v, d).dense()
    pivot = _pivot(d, vp, t)
    pi, omega = list(d.pi), list(d.omega)
    corrected = vp.copy()
    if pi and omega:
        cross = vp[np.ix_(pi, omega)]
        delta = t * cross.T @ np.linalg.solve(pivot, cross)
        corrected[np.ix_(omega, omega)] += 0.5 * (delta + delta.T)
    p = d.p_matrix
    return SymMat.from_dense(p.T @ corrected @ p, check_symmetry=False)


def _sample_feasible(
    d: OrderedEigenDecomposition, vprime: SymMat, t: float
) -> bool:
    """Tight feasibility filter for sampled directions.

    Uses the Schur complement, whose entries stay O(||vprime||) as t shrinks,
    so violations of order t remain detectable where the absolute eigenvalues
    of y + t*vprime would drown in rounding.  Falls back to a direct PSD test
    when t is too large for the reduction.
    """
    slack = _FEAS_SLACK * max(1.0, vprime.norm())
    try:
        comp = _schur_complement(d, vprime, t)
    except PivotNotPositiveDefinite:
        return is_psd(d.source + t * vprime, slack)
    if comp.shape[0] == 0:
        return True
    return float(np.linalg.eigvalsh(comp)[0]) >= -slack


def subderivative_sampling_trace(
    y: SymMat,
    ystar: SymMat,
    v: SymMat,
    t_grid=SAMPLING_T_GRID,
    radius: float = SAMPLING_RADIUS,
    n_samples: int = SAMPLING_N,
    seed: int = 0,
    rank_tol: float | None = None,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Per-step record of the sampled difference quotients -2<ystar, v'>/t.

    At each t the candidate set is v itself, the recovery-sequence point and
    n_samples random symmetric perturbations of v within radius*t, every one
    kept only if y + t*v' stays PSD.  The recovery point is feasible by
    construction and enters unfiltered whenever the omega-omega block of v is
    PSD (tangent directions).
    """
    d = eigen_decompose(y, rank_tol)
    if not d.psd:
        raise HypothesisViolation("base point is not PSD within rank_tol")
    if not normal_cone_contains(d, ystar, tol):
        raise HypothesisViolation("ystar is not in the normal cone at the base point")
    t_values = sorted((float(t) for t in t_grid), reverse=True)
    if not t_values or t_values[-1] <= 0:
        raise ValueError("t_grid must contain positive step sizes")
    rng = np.random.default_rng(seed)
    m = y.m
    tangent = tangent_cone_contains(d, v, tol)
    tril = np.tril_indices(m)

    trace = []
    for t in t_values:
        quotients = []
        recovery_q = None
        if tangent:
            try:
                v_rec = recovery_sequence(d, v, t)
                recovery_q = -2.0 * frobenius_inner(ystar, v_rec) / t
                quotients.append(recovery_q)
            except PivotNotPositiveDefinite:
                pass
        if _sample_feasible(d, v, t):
            quotients.append(-2.0 * frobenius_inner(ystar, v) / t)
        for _ in range(n_samples):
            noise = rng.standard_normal((m, m))
            noise = 0.5 * (noise + noise.T)
            nrm = np.linalg.norm(noise)
            if nrm == 0.0:
                continue
            noise *= radius * t * rng.uniform() / nrm
            vprime = v + SymMat(m, noise[tril])
            if _sample_feasible(d, vprime, t):
                quotients.append(-2.0 * frobenius_inner(ystar, vprime) / t)
        trace.append(
            {
                "t": t,
                "feasible_samples": len(quotients),
                "min_quotient": min(quotients) if quotients else None,
                "recovery_quotient": recovery_q,
            }
        )
    return trace


def estimate_subderivative_sampling(
    y: SymMat,
    ystar: SymMat,
    v: SymMat,
    t_grid=SAMPLING_T_GRID,
    radius: float = SAMPLING_RADIUS,
    n_samples: int = SAMPLING_N,
    seed: int = 0,
    rank_tol: float | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Sampled estimate of the lim inf defining the second subderivative.

    Returns the smallest quotient observed at the finest step size that
    admitted feasible samples; the recovery-sequence point guarantees the
    estimate converges to the closed-form value as the grid refines.
    """
    trace = subderivative_sampling_trace(
        y, ystar, v, t_grid, radius, n_samples, seed, rank_tol, tol
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
