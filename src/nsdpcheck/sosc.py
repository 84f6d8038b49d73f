"""Second-order sufficient condition checks at a candidate point.

``check_sosc`` samples the critical cone, from candidates that repeat none
of one another (so no dedup pass follows), searches a directional
multiplier for every sampled direction and evaluates the curvature margin

    Lxx[u, u] - 2 <ystar, (dF u) pinv(F) (dF u)>,

which must be positive along every critical direction.  Its curvature term
is the second subderivative of the cone's indicator (``second_subderivative``),
evaluated once, with no second route to compare against.  The multiplier
search is a one-block semidefinite program, solved by a two-phase
log-barrier Newton method.  ``verify_growth`` samples the quadratic-growth
inequality that this condition guarantees.  It screens the samples with
lower bounds of dist(F(x), PSD), taken from M, F(x) compressed onto the
eigenvectors omega of F(xbar) (eigenvalues within the rank tolerance of 0),
a k x k matrix: the largest distance of a 2 x 2 principal block of M, in
closed form, and, only where that leaves a count or the minimum open, the
distance of M from one stacked eigenvalue call; both minus a rounding
slack.  The full m x m distance is computed only where the bounds could
decide a count, the feasible set or the minimum ratio, so the report is the
one that the full computation gives, bit for bit.  Once a bound leaves most of a block open,
the remaining blocks go without it.

The verdicts are explicitly sampled statements: VERIFIED_SAMPLED means every
checked direction carried a positive margin, not that all of the critical
cone was proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .cone import DEFAULT_TOL, _embed_omega, dist_psd_batch, dist_psd_from_eigenvalues
from .cone import normal_cone_residual
from .nlsdp import (
    NlsdpProblem,
    _jacobian,
    _quadratic_rows,
    dF,
    eval_F,
    eval_F_batch,
    eval_f,
    eval_f_batch,
    grad_f,
    lagrangian_grad,
    lagrangian_hess_form,
)
from .subderivative import ToleranceAnomalyError, second_subderivative
from .symmat import OrderedEigenDecomposition, SymMat, _tril_indices, eigen_decompose
from .symmat import frobenius_inner, frobenius_norms, lower_to_dense, svec, svec_to_dense

VERIFIED_SAMPLED = "VERIFIED_SAMPLED"
FAILED_AT_DIRECTION = "FAILED_AT_DIRECTION"
CRITICAL_CONE_TRIVIAL = "CRITICAL_CONE_TRIVIAL"
INCONCLUSIVE = "INCONCLUSIVE"

# Candidates with alpha above this (on the unit-norm scale) are rescaled to
# alpha = 1; below it the certificate is normalized to unit Frobenius norm.
_ALPHA_NORMALIZE = 1e-6

# Angular resolution of the deterministic direction grids.
_GRID_STEP_DEG = {2: 2.0, 3: 10.0}

N_DIRS = 512  # check_sosc's default number of random direction draws
GROWTH_SAMPLES = 10_000  # verify_growth's default number of ball samples
# Growth samples whose constraint values are eigen-solved together; bounds the
# (block, m, m) work buffer.
_GROWTH_BLOCK = 256
# Growth samples with dist(F(x), PSD) at most this count as feasible.
_GROWTH_FEAS_TOL = 1e-9
# The growth screen lowers its distance bound by _GROWTH_ROUNDING * (m + n)^2
# * eps times a bound of ||F(x)||: more than both eigenvalue routes and the
# sums that form F(x) can round apart.
_GROWTH_ROUNDING = 16.0
# The growth screen stops after a block whose bounds left more than this share
# of its samples open: such a block costs more screened than computed in full.
# Its pair bound stops likewise once it leaves that share to the k x k bound.
_GROWTH_SCREEN_OPEN = 0.5

# The multiplier search's barrier method: a centering ends at Newton
# decrement _NEWTON_TOL, or where rounding keeps the decrement from halving
# below _QUADRATIC, where steps are full and converge quadratically.
_BARRIER_MU = 100.0
_BARRIER_GAP = 1e-9
_MAX_NEWTON_STEPS = 200  # per multiplier search, both phases
_NEWTON_TOL = 1e-7
_QUADRATIC = 0.25
# The search finds no multiplier below interiority -_CERT_TOL; check_sosc
# fails a direction whose margin is at most _MARGIN_TOL.
_CERT_TOL = 1e-7
_MARGIN_TOL = 1e-9


class InfeasiblePointError(ValueError):
    """Candidate point violates the matrix constraint beyond tolerance."""

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = distance


@dataclass(frozen=True)
class MultiplierCandidate:
    """Directional multiplier pair (alpha, ystar) with measured residuals."""

    alpha: float
    ystar: SymMat
    stationarity_residual: float
    normal_cone_slack: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


@dataclass(frozen=True)
class DirectionCertificate:
    direction: np.ndarray
    candidate: MultiplierCandidate
    margin: float

    def to_json(self) -> dict:
        cand = self.candidate
        return {
            "direction": self.direction,
            "margin": self.margin,
            "alpha": cand.alpha,
            "ystar": cand.ystar.to_json(),
            "stationarity_residual": cand.stationarity_residual,
            "normal_cone_slack": cand.normal_cone_slack,
        }


@dataclass(frozen=True)
class SoscReport:
    verdict: str
    directions_checked: int
    min_margin: float
    worst_direction: np.ndarray | None
    certificates: list
    diagnostics: str
    decomposition: OrderedEigenDecomposition  # of F(xbar); fixes pi and omega

    def to_json(self) -> dict:
        """The result object of the JSON report.  Arrays and non-finite
        floats are left for the writer to encode; the decomposition is
        reported with the problem it belongs to."""
        return {
            "verdict": self.verdict,
            "directions_checked": self.directions_checked,
            "min_margin": self.min_margin,
            "worst_direction": self.worst_direction,
            "certificates": [cert.to_json() for cert in self.certificates],
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class GrowthReport:
    epsilon: float
    beta: float
    samples: int
    violations: int
    min_ratio: float
    worst_point: np.ndarray
    feasible_samples: int
    feasible_violations: int
    feasible_min_ratio: float | None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# -- critical cone -------------------------------------------------------------


def require_feasible(p: NlsdpProblem, xbar, tol: float, rank_tol=None):
    """The decomposition of F(xbar), which must be PSD both within tol of
    the cone and at the rank tolerance: no eigenvalue below -rank_tol.  Both
    rules read the eigenvalues of this one decomposition."""
    d = eigen_decompose(eval_F(p, xbar), rank_tol)
    dist = float(dist_psd_from_eigenvalues(d.eigenvalues[None, :])[0])
    if dist > tol:
        raise InfeasiblePointError(f"F(xbar) is not PSD (dist to PSD cone: {dist:.6e})", dist)
    if not d.psd:
        raise InfeasiblePointError(
            f"F(xbar) is not PSD at the rank tolerance (smallest eigenvalue "
            f"{d.eigenvalues[-1]:.6e} < -rank_tol = {-d.rank_tol:.6e})", dist
        )
    return d


def _linearized_rows(p: NlsdpProblem, xbar, d: OrderedEigenDecomposition) -> np.ndarray:
    """Matrix of the linearized map L(u) = (grad f . u, P_omega dF(u) P_omega^T)
    into R x S^k, k = |omega|, in svec coordinates: u @ rows is L(u).

    Row i, L(e_i) = (df/dx_i, svec(P_omega J_i P_omega^T)), is also the
    stationarity row of x_i in the multiplier unknowns (alpha, svec W)."""
    p_omega = d.p_matrix[list(d.omega)]
    blocks = p_omega @ lower_to_dense(p.m, _jacobian(p, xbar)) @ p_omega.T
    return np.column_stack((grad_f(p, xbar), svec(blocks)))


def _margin_coefficients(p: NlsdpProblem, xbar, d: OrderedEigenDecomposition) -> np.ndarray:
    """The margin's W part, quadratic in u: for ystar = P_omega^T W P_omega,
    <ystar, d2F(u) - 2 dF(u) pinv(F) dF(u)> = svec(W) . sum_ab u_a u_b T[a, b]
    with T[a, b] = svec(P_omega (B_ab - 2 J_a pinv(F) J_b) P_omega^T), J_a =
    dF(xbar, e_a) and pinv(F) = P_pi^T diag(1 / lambda_pi) P_pi."""
    p_omega, p_pi = d.p_matrix[list(d.omega)], d.p_matrix[list(d.pi)]
    cross = p_pi @ lower_to_dense(p.m, _jacobian(p, xbar)) @ p_omega.T
    inv = 1.0 / d.eigenvalues[list(d.pi)]
    coeffs = -2.0 * np.einsum("arp,r,brq->abpq", cross, inv, cross)
    if p.F.b is not None:
        coeffs += p_omega @ lower_to_dense(p.m, p.F.b) @ p_omega.T
    return svec(coeffs)


def _row_norms(zs: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of zs, rounded as np.linalg.norm rounds
    one row: stacked row-times-column products sum like a vector dot."""
    return np.sqrt((zs[:, None, :] @ zs[:, :, None]).reshape(len(zs)))


def _critical_mask(
    rows: np.ndarray, us: np.ndarray, d: OrderedEigenDecomposition, tol: float
) -> np.ndarray:
    """Which rows u of us are critical: the slope grad f . u is at most
    tol * max(1, |u|), and the omega-omega block of dF(u) is PSD within tol.
    One product with the matrix of L and one stacked eigvalsh test them all."""
    images = us @ rows
    critical = ~(images[:, 0] > tol * np.maximum(1.0, _row_norms(us)))
    if not critical.any():
        return critical
    if not d.psd:
        raise ValueError("tangent cone is defined at PSD base points only")
    k = len(d.omega)
    if k:
        least = np.linalg.eigvalsh(svec_to_dense(k, images[critical, 1:]))[:, 0]
        critical[critical] = least >= -tol
    return critical


def critical_cone_contains(
    p: NlsdpProblem,
    xbar,
    u,
    tol: float = DEFAULT_TOL,
    d: OrderedEigenDecomposition | None = None,
) -> bool:
    """u is critical iff the objective does not increase to first order and
    the linearized constraint direction is tangent to the cone."""
    u = np.asarray(u, dtype=float)
    d = d or require_feasible(p, xbar, tol)
    return bool(_critical_mask(_linearized_rows(p, xbar, d), u[None, :], d, tol)[0])


def sample_critical_directions(
    p: NlsdpProblem,
    xbar,
    n_dirs: int = N_DIRS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    d: OrderedEigenDecomposition | None = None,
) -> list[np.ndarray]:
    """Unit directions inside the critical cone, in candidate order: the
    coordinate axes, a deterministic angular grid for n <= 3 without the
    points that repeat an axis, and normalized sphere draws for n >= 2 (at
    n = 1 every draw is an axis).  The candidates are tested together, as
    the rows of one array, and no candidate repeats another."""
    d = d or require_feasible(p, xbar, tol)
    if n_dirs < 1:
        raise ValueError("n_dirs must be positive")
    n = p.n
    eye = np.eye(n)
    candidates = [np.stack((eye, -eye), axis=1).reshape(2 * n, n)]
    if n == 2:
        deg = np.arange(0.0, 360.0, _GRID_STEP_DEG[2])
        a = np.radians(deg[deg % 90.0 != 0.0])
        candidates.append(np.column_stack((np.cos(a), np.sin(a))))
    elif n == 3:
        step = _GRID_STEP_DEG[3]
        theta_deg = np.arange(step, 180.0, step)[:, None]
        phi_deg = np.arange(0.0, 360.0, step)
        theta, phi = np.radians(theta_deg), np.radians(phi_deg)
        sphere = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
        on_axis = (theta_deg == 90.0) & (phi_deg % 90.0 == 0.0)
        grid = np.stack(np.broadcast_arrays(*sphere), axis=-1)
        candidates.append(grid[~on_axis])
    if n >= 2:
        raw = np.random.default_rng([seed, 1]).standard_normal((n_dirs, n))
        nrm = _row_norms(raw)
        candidates.append(raw[nrm > 0] / nrm[nrm > 0, None])
    us = np.concatenate(candidates)
    return list(us[_critical_mask(_linearized_rows(p, xbar, d), us, d, tol)])


# -- multiplier search ----------------------------------------------------------


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a."""
    if a.size == 0:
        return np.eye(a.shape[1])
    u, s, vt = np.linalg.svd(a)
    cutoff = max(a.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > max(cutoff, 1e-14 * (s[0] if s.size else 1.0))))
    return vt[rank:].T


@dataclass(frozen=True)
class _SearchOutcome:
    certificate: DirectionCertificate | None
    best_interiority: float  # phase I's s or its start's, at most the largest interiority s*
    hit_cap: bool  # stopped at the Newton-step cap or on a numerical breakdown


def _lmi_blocks(k: int, vecs: np.ndarray) -> np.ndarray:
    """G(v) = diag(alpha, -W) for every row v = (alpha, svec W) of vecs: the
    multiplier v lies in the normal-cone face exactly when G(v) is PSD."""
    out = np.zeros((len(vecs), k + 1, k + 1))
    out[:, 0, 0] = vecs[:, 0]
    if k:
        out[:, 1:, 1:] = -svec_to_dense(k, vecs[:, 1:])
    return out


def _barrier_max(f0, fs, b, x, scale: float, budget: int, reach=math.inf, floor=-math.inf):
    """Maximize b . x over {x : S(x) = f0 + sum_j x_j fs[j] positive definite}
    from a strictly feasible x by the log-barrier method (Boyd and
    Vandenberghe, Convex Optimization, ch. 11): Newton centerings of
    t b . x + log det S(x), damped by 1 / (1 + decrement) so that every step
    stays in the domain, for t = K / scale, K / scale * _BARRIER_MU, ...
    (K the order of S, scale the expected range of b . x).  Stops at the
    first point whose value exceeds ``reach``, or at a central point whose
    gap K / t is at most _BARRIER_GAP * scale or whose value plus gap, an
    upper bound of the optimum, is below ``floor``.  Returns x, the Newton
    steps taken and whether it stopped short: at ``budget`` steps or on a
    breakdown (S(x) not numerically positive definite)."""
    if not b.any():  # a constant objective: the start is optimal
        return x, 0, False
    size = f0.shape[0]
    flat = fs.reshape(len(fs), size * size)
    t, steps = size / scale, 0
    try:
        while True:
            prev = math.inf
            while True:
                root = np.linalg.inv(np.linalg.cholesky(f0 + (x @ flat).reshape(size, size)))
                a = (root @ fs @ root.T).reshape(len(fs), size * size)
                grad = t * b + a[:, :: size + 1].sum(axis=1)
                step = np.linalg.solve(a @ a.T, grad)
                lam = math.sqrt(max(float(grad @ step), 0.0))
                if lam <= _NEWTON_TOL or (prev <= _QUADRATIC and lam > 0.5 * prev):
                    break
                if steps == budget:
                    return x, steps, True
                x = x + (step if lam <= _QUADRATIC else step / (1.0 + lam))
                steps += 1
                prev = lam
                if b @ x > reach:
                    return x, steps, False
            gap = size / t
            if gap <= _BARRIER_GAP * scale or b @ x + gap < floor:
                return x, steps, False
            t *= _BARRIER_MU
    except np.linalg.LinAlgError:
        return x, steps, True


def _multiplier_search(
    p: NlsdpProblem,
    xbar,
    u,
    d: OrderedEigenDecomposition,
    rows: np.ndarray,
    coeffs: np.ndarray,
    tol: float,
) -> _SearchOutcome:
    """Search a multiplier for direction u.  ``rows`` is the matrix of the
    linearized map (``_linearized_rows``): its rows are the stationarity rows
    in the unknowns (alpha, svec W), where ystar = P.T [[0, 0], [0, W]] P
    ranges over the normal-cone face.  ``coeffs`` is the margin's W part
    (``_margin_coefficients``).

    On the null space of those rows and of the orthogonality row, the
    multipliers are the z with G(z) = diag(alpha, -W) PSD; tr G = 1 fixes
    their scale.  Phase I maximizes s with G(z) - s I PSD (s* < -_CERT_TOL:
    no multiplier), phase II the margin, linear in z, with G(z) +
    (_CERT_TOL / 2) I PSD.  Both run _barrier_max in the free variables y of
    z = z0 + free @ y and share the _MAX_NEWTON_STEPS Newton steps.  Phase I
    stops at its first point with s > -_CERT_TOL / 2, so where its start
    y = 0 already has lambda_min(G0) above that, phase I takes no step:
    lambda_min(G0) is the lower bound of s*, and phase II starts at y = 0
    with every Newton step."""
    xbar = np.asarray(xbar, dtype=float)
    u = np.asarray(u, dtype=float)
    k = len(d.omega)

    # The stationarity rows, then the orthogonality row <W, (dF u)_omega> = 0.
    orthogonality = np.concatenate(([0.0], (u @ rows)[1:]))
    basis = _null_space(np.vstack((rows, orthogonality)))
    trace = basis.T @ np.concatenate(([1.0], -svec(np.eye(k))))
    norm2 = float(trace @ trace)
    # G PSD gives tr G >= |G| = |z|, so a null space without trace holds no
    # multiplier but 0
    if not norm2 > 1e-24:
        return _SearchOutcome(None, -math.inf, False)
    z0, free = trace / norm2, _null_space(trace[None, :])
    blocks = _lmi_blocks(k, (basis @ np.column_stack((z0, free))).T)
    g0, g_free = blocks[0], blocks[1:]
    size, delta = k + 1, 0.5 * _CERT_TOL

    lam0 = float(np.linalg.eigvalsh(g0)[0])
    if lam0 > -delta:  # phase I's stopping rule holds at its start, y = 0
        y, used, hit_cap, best_interiority = np.zeros(len(g_free)), 0, False, lam0
    else:  # phase I in (y, s) from y = 0 and s below lambda_min(G0); s <= 1 / size
        s0 = lam0 - 1.0
        lmi_s = np.concatenate((g_free, -np.eye(size)[None]))
        x, used, hit_cap = _barrier_max(
            g0, lmi_s, np.eye(len(lmi_s))[-1], np.append(np.zeros(len(g_free)), s0),
            1.0 / size - s0, _MAX_NEWTON_STEPS, reach=-delta, floor=-_CERT_TOL,
        )
        y, best_interiority = x[:-1], float(x[-1])
    if best_interiority < -_CERT_TOL:
        return _SearchOutcome(None, best_interiority, hit_cap)
    if best_interiority > -delta:  # the point is inside phase II's set
        # The margin is linear in (alpha, svec W): its coefficient row.
        margin_row = np.concatenate(([u @ p.f.h @ u], np.einsum("a,b,abl->l", u, u, coeffs)))
        gain = (basis @ free).T @ margin_row
        y, _, capped = _barrier_max(
            g0 + delta * np.eye(size), g_free, gain, y, float(np.linalg.norm(gain)),
            _MAX_NEWTON_STEPS - used,
        )
        hit_cap = hit_cap or capped

    vec = basis @ (z0 + free @ y)
    alpha = max(float(vec[0]), 0.0)
    w = svec_to_dense(k, vec[1:])
    scale = 1.0 / alpha if alpha > _ALPHA_NORMALIZE else 1.0 / math.hypot(
        alpha, np.linalg.norm(w)
    )
    alpha *= scale
    w = w * scale
    ystar = _embed_omega(d, w)
    cand = MultiplierCandidate(
        alpha=alpha,
        ystar=ystar,
        stationarity_residual=float(
            np.linalg.norm(lagrangian_grad(p, alpha, xbar, ystar))
        ),
        normal_cone_slack=max(
            abs(frobenius_inner(ystar, dF(p, xbar, u))), normal_cone_residual(d, ystar)
        ),
    )
    margin = sosc_margin(p, xbar, u, cand, tol=tol, d=d)
    return _SearchOutcome(DirectionCertificate(u, cand, margin), best_interiority, hit_cap)


def find_multiplier(
    p: NlsdpProblem,
    xbar,
    u,
    *,
    tol: float = DEFAULT_TOL,
    rank_tol: float | None = None,
    d: OrderedEigenDecomposition | None = None,
) -> MultiplierCandidate | None:
    """Search the directional multiplier set at (xbar, u).

    Returns the best candidate found (alpha normalized to 1 when bounded away
    from zero, otherwise unit Frobenius norm) or None when the feasible set
    reduces to the origin.  A u outside the critical cone raises ValueError.
    """
    d = d or require_feasible(p, xbar, tol, rank_tol)
    if not critical_cone_contains(p, xbar, u, tol, d):
        raise ValueError("direction is not in the critical cone")
    rows, coeffs = _linearized_rows(p, xbar, d), _margin_coefficients(p, xbar, d)
    cert = _multiplier_search(p, xbar, u, d, rows, coeffs, tol).certificate
    return None if cert is None else cert.candidate


def sosc_margin(
    p: NlsdpProblem,
    xbar,
    u,
    cand: MultiplierCandidate,
    tol: float = DEFAULT_TOL,
    d: OrderedEigenDecomposition | None = None,
) -> float:
    """Curvature margin Lxx[u, u] - 2 <ystar, (dF u) pinv(F) (dF u)>: the
    Lagrangian's Hessian form plus the second subderivative of the cone's
    indicator at F(xbar) in direction dF u.  The subderivative checks that
    ystar is a normal-cone multiplier and that dF u is tangent; an infinite
    value there is a tolerance anomaly."""
    d = d or require_feasible(p, xbar, tol)
    g_dir = dF(p, xbar, u)
    hess = lagrangian_hess_form(p, cand.alpha, xbar, cand.ystar, u)
    cross_tol = max(tol, 10.0 * cand.normal_cone_slack + 1e-12)
    sub = second_subderivative(d, cand.ystar, g_dir, cross_tol)
    if not math.isfinite(sub):
        raise ToleranceAnomalyError("second subderivative is infinite along a critical direction")
    return hess + sub


def check_sosc(
    p: NlsdpProblem,
    xbar,
    *,
    tol: float = DEFAULT_TOL,
    rank_tol: float | None = None,
    n_dirs: int = N_DIRS,
    seed: int = 0,
) -> SoscReport:
    """Sampled verification of the second-order sufficient condition at xbar."""
    # a NaN tolerance fails every comparison and so empties the critical cone
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    xbar = np.asarray(xbar, dtype=float)
    d = require_feasible(p, xbar, tol, rank_tol)
    dirs = sample_critical_directions(p, xbar, n_dirs, seed, tol, d)
    rows, coeffs = _linearized_rows(p, xbar, d), _margin_coefficients(p, xbar, d)
    certificates: list[DirectionCertificate] = []
    failures = []  # ((rank key, slope), direction, reason)
    inconclusive = []
    gf = grad_f(p, xbar)
    for u in dirs:
        outcome = _multiplier_search(p, xbar, u, d, rows, coeffs, tol)
        cert, slope = outcome.certificate, float(gf @ u)
        if cert is not None:
            certificates.append(cert)
            if cert.margin <= _MARGIN_TOL:
                if outcome.hit_cap:
                    inconclusive.append(u)
                else:
                    failures.append(((cert.margin, slope), u, "non-positive margin"))
        elif outcome.hit_cap:
            inconclusive.append(u)
        else:
            failures.append(((outcome.best_interiority, slope), u, "no multiplier"))

    notes = [
        f"F(xbar) eigenvalues: {np.array2string(np.asarray(d.eigenvalues), precision=6)}; "
        f"pi = {list(d.pi)}, omega = {list(d.omega)} at rank_tol = {d.rank_tol:.3e}",
        f"sampled verification over {len(dirs)} unit directions; "
        "not a proof over all of the critical cone"
        if dirs
        else "no sampled unit direction lies in the critical cone",
    ]
    if not dirs:
        verdict, worst, no_margin = CRITICAL_CONE_TRIVIAL, None, math.inf
    elif failures:
        # min keeps the first of equal keys
        (_, slope), worst, reason = min(failures, key=lambda rec: rec[0])
        verdict, no_margin = FAILED_AT_DIRECTION, -math.inf
        notes.append(
            f"direction {np.array2string(worst, precision=6)} fails: {reason} "
            f"(objective slope {slope:.3e})"
        )
    elif inconclusive:
        verdict, worst, no_margin = INCONCLUSIVE, inconclusive[0], math.inf
        notes.append(
            "multiplier search stopped at its Newton-step cap or on a numerical "
            f"breakdown on {len(inconclusive)} direction(s)"
        )
    else:  # every direction carries a margin
        verdict, no_margin = VERIFIED_SAMPLED, None
        worst = min(certificates, key=lambda cert: cert.margin).direction
    return SoscReport(
        verdict=verdict,
        directions_checked=len(dirs),
        min_margin=min((cert.margin for cert in certificates), default=no_margin),
        worst_direction=worst,
        certificates=certificates,
        diagnostics="\n".join(notes),
        decomposition=d,
    )


def _growth_offsets(rng, n: int, epsilon: float, n_samples: int) -> np.ndarray:
    """Offsets from xbar of the growth samples, one per row: the 4n axis
    points at +-epsilon and +-epsilon/2, then max(1, n_samples // 10) points
    of the epsilon-sphere and up to n_samples points of the epsilon-ball.
    A zero draw gives no row.

    One normal draw fills the sphere and ball rows in place, then one
    uniform draw gives the ball radii epsilon u^(1/n).  A row's
    ``row @ row`` is the square that np.linalg.norm takes the root of, and
    each row is scaled as ``radius * raw / norm``."""
    n_boundary = max(1, n_samples // 10)
    xs = np.empty((4 * n + n_boundary + n_samples, n))
    axes = epsilon * np.eye(n)
    xs[: 4 * n] = np.stack((axes, -axes, 0.5 * axes, -0.5 * axes), axis=1).reshape(4 * n, n)
    drawn = xs[4 * n :]
    rng.standard_normal(out=drawn)
    radii = np.full(len(drawn), epsilon)
    radii[n_boundary:] = epsilon * rng.random(n_samples) ** (1.0 / max(n, 1))  # no row at n = 0
    squares = (drawn[:, None, :] @ drawn[:, :, None]).reshape(len(drawn))
    kept = squares != 0.0  # every row, unless a draw is zero
    rows = int(np.count_nonzero(kept))
    if rows < len(drawn):
        drawn[:rows], squares, radii = drawn[kept], squares[kept], radii[kept]
    drawn[:rows] *= radii[:, None]
    drawn[:rows] /= np.sqrt(squares)[:, None]
    return xs[: 4 * n + rows]


def _principal_block_distances(k: int):
    """The function that maps stacked k x k lower triangles to the largest
    distance to the PSD cone among each matrix's principal 2 x 2 blocks (its
    1 x 1 block at k = 1), in closed form: [[a, b], [b, c]] has eigenvalues
    h -+ hypot((a - c) / 2, b), h = (a + c) / 2.  At k <= 2 that block is
    the matrix itself."""
    i, j = _tril_indices(k)
    diag = np.flatnonzero(i == j)
    off = np.flatnonzero(i != j)
    first, second = diag[i[off]], diag[j[off]]

    def distances(lower: np.ndarray) -> np.ndarray:
        if k == 1:
            squares = np.minimum(lower, 0.0) ** 2
        else:
            a, c, b = lower[:, first], lower[:, second], lower[:, off]
            half, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
            squares = np.minimum(half - radius, 0.0) ** 2 + np.minimum(half + radius, 0.0) ** 2
        return np.sqrt(squares.max(axis=1, initial=0.0))

    return distances


def _psd_distance_screen(p: NlsdpProblem, d: OrderedEigenDecomposition, rows: int):
    """(k, pair_bounds, bounds): both functions map up to ``rows`` rows x at
    a time to lower bounds of dist(F(x), PSD), rounding included; -inf where
    none is computed.

    P = P_omega holds the eigenvector rows of omega in d, the decomposition
    of F(xbar).  For orthonormal rows, dist(P A P^T) <= dist(A): P applied
    to A's PSD projection is PSD and no farther from P A P^T.  F's
    coefficients are projected to k x k once.  ``bounds`` takes dist(P F(x)
    P^T) from one stacked k x k eigvalsh per block of samples;
    ``pair_bounds`` takes the largest distance of a principal 2 x 2 block of
    P F(x) P^T in closed form (``_principal_block_distances``), which is a
    distance of E P F(x) P^T E^T for two orthonormal rows E, so again a lower
    bound, and at k <= 2 the same distance.  Both are lowered by
    _GROWTH_ROUNDING (m + n)^2 eps ||F(x)||, where the same quadratic map, in
    |x| and with the coefficients' Frobenius norms, bounds ||F(x)||.  A row
    on which any of this overflows gets -inf."""
    basis = d.p_matrix[list(d.omega)]
    k = len(basis)
    i, j = _tril_indices(k)

    def project(lower):
        return (basis @ lower_to_dense(p.m, lower) @ basis.T)[..., i, j]

    def norms(lower):
        return frobenius_norms(p.m, lower)[..., None]

    b = p.F.b
    coeffs = (project(p.F.a0.lower), project(p.F.a), None if b is None else project(b))
    sizes = (norms(p.F.a0.lower), norms(p.F.a), None if b is None else norms(b))
    slack = _GROWTH_ROUNDING * (p.m + p.n) ** 2 * np.finfo(float).eps
    work = np.empty((rows, k, k))

    def screen(distances):
        def bounds(x: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                lower = _quadratic_rows(*coeffs, x)
                size = _quadratic_rows(*sizes, np.abs(x))[:, 0]
                ok = np.isfinite(size) & np.isfinite(lower).all(axis=1)
                lower[~ok] = 0.0
                dist = distances(lower)
            ok &= np.isfinite(dist)
            out = np.full(len(x), -np.inf)
            out[ok] = dist[ok] - slack * size[ok]
            return out

        return bounds

    def eigenvalue_distances(lower):
        return dist_psd_batch(k, lower, work[: len(lower)])

    return k, screen(_principal_block_distances(k)), screen(eigenvalue_distances)


def _exact_psd_distances(p: NlsdpProblem, xs, mask, out: np.ndarray, work: np.ndarray):
    """Set out[mask] to dist(F(x), PSD) for the rows of xs that mask selects,
    with the bits of one blocked pass over all of xs; xs is the sample array
    or one of its _GROWTH_BLOCK blocks, out its distances.  BLAS rounds a
    row of a product differently in stacks of different heights, so F is
    evaluated on each whole _GROWTH_BLOCK block that holds a selected row;
    eigvalsh solves each matrix alone, so it takes the selected rows only."""
    for start in range(0, len(xs), _GROWTH_BLOCK):
        sel = mask[start : start + _GROWTH_BLOCK]
        if sel.any():
            lower = eval_F_batch(p, xs[start : start + _GROWTH_BLOCK])[sel]
            out[start : start + _GROWTH_BLOCK][sel] = dist_psd_batch(
                p.m, lower, work[: len(lower)]
            )


def verify_growth(
    p: NlsdpProblem,
    xbar,
    epsilon: float,
    beta: float,
    n_samples: int = GROWTH_SAMPLES,
    seed: int = 0,
    d: OrderedEigenDecomposition | None = None,
) -> GrowthReport:
    """Sample max(f(x) - f(xbar), dist(F(x))) >= beta ||x - xbar||^2 over the
    epsilon-ball, plus boundary and axis points.  Also reports the variant
    restricted to (numerically) feasible samples.

    The samples are drawn from a seeded stream and scaled to their radii in
    bulk (``_growth_offsets``).  A block of samples first gets lower bounds
    of its distances from F's projection M onto the near-kernel omega of
    ``d``, the decomposition of F(xbar), made here when None
    (``_psd_distance_screen``), hence lower bounds of its ratios, in two
    tiers.  The pair bound, the largest distance of a 2 x 2 principal block
    of M, takes no eigenvalue call; the k x k bound, the distance of M,
    takes one stacked call and replaces it where the pair bound leaves a
    sample undecided, on the first block, and for the minimum below.  At
    k <= 2 the two are the same and the pair bound is used alone.

    The full m x m distance is computed only on the set E of samples whose
    bound could decide the report: a bound ratio below beta, a bound distance
    at or below the feasibility tolerance or a non-finite value; then, after
    the k x k bound has replaced the _GROWTH_BLOCK smallest pair bounds, the
    sample with the smallest k x k bound ratio; then, after the k x k bound
    has replaced every pair bound that does not exceed the smallest exact
    ratio, every sample whose bound ratio does not exceed it either.  Any
    other sample provably has a ratio of at least beta, above the minimum,
    and is infeasible, so the counts, the minimum and its first sample are
    those of the full computation, whose bits the exact distances keep
    (``_exact_psd_distances``).  Which bound decided a sample does not
    matter: both are lower bounds.

    The screen stops after a block whose bounds left more than
    _GROWTH_SCREEN_OPEN of its samples open, and does not start where k = m;
    a block that is not screened puts all of its samples in E.  The pair
    bound stops, leaving the k x k bound alone, after a block where more
    than that share is undecided or not above the smallest k x k bound
    ratio so far: those samples would need both."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    xbar = np.asarray(xbar, dtype=float)
    f0 = eval_f(p, xbar)
    xs = _growth_offsets(np.random.default_rng([seed, 2]), p.n, epsilon, n_samples)
    rows = len(xs)
    # Row-wise dot products with the rounding of a one-vector dot product.
    sq = (xs[:, None, :] @ xs[:, :, None]).reshape(rows)
    xs += xbar
    nonzero = sq != 0.0
    xs, sq = xs[nonzero], sq[nonzero]
    total = len(xs)
    gaps = eval_f_batch(p, xs) - f0
    d = d or eigen_decompose(eval_F(p, xbar))
    k, pair_bounds, bounds = _psd_distance_screen(p, d, min(_GROWTH_BLOCK, total))
    work = np.empty((min(_GROWTH_BLOCK, total), p.m, p.m))
    dists = np.full(total, -np.inf)  # lower bounds until settled
    ratios = np.empty(total)  # likewise
    settled = np.zeros(total, dtype=bool)
    coarse = np.zeros(total, dtype=bool)  # bounded by 2 x 2 blocks only, at k > 2

    def ratio(i):  # max(gap, dist) as Python's max takes it: the gap unless dist is larger
        with np.errstate(over="ignore"):  # a ratio past the largest float is inf, above beta
            return np.where(dists[i] > gaps[i], dists[i], gaps[i]) / sq[i]

    def undecided(i):  # the sample may violate or be feasible
        return ~((ratio(i) >= beta) & (dists[i] > _GROWTH_FEAS_TOL))

    def settle(rows, mask):
        _exact_psd_distances(p, xs[rows], mask, dists[rows], work)
        settled[rows] |= mask
        ratios[rows] = ratio(rows)

    def refine(rows):  # the k x k bound for these coarse rows
        for start in range(0, len(rows), _GROWTH_BLOCK):
            chunk = rows[start : start + _GROWTH_BLOCK]
            dists[chunk] = np.maximum(dists[chunk], bounds(xs[chunk]))
            ratios[chunk] = ratio(chunk)
        coarse[rows] = False

    screen = k < p.m  # at k = m, P is a rotation: its bound costs as much as the distance
    pairs = screen  # at k <= 2 the pair bound is the k x k bound
    best = math.inf  # the smallest ratio bound from the k x k bound so far
    for start in range(0, total, _GROWTH_BLOCK):
        block = slice(start, start + _GROWTH_BLOCK)
        if pairs:
            dists[block] = pair_bounds(xs[block])
            if k > 2:
                # The pair bound leaves to the k x k bound its undecided rows
                # and its candidates for the minimum, the rows whose ratio
                # bound does not exceed the best one.  The first block takes
                # the k x k bound everywhere, which sets the best one.
                pair_ratios, left = ratio(block), undecided(block)
                sharp = left if start else np.ones_like(left)
                if sharp.any():
                    view = dists[block]
                    view[sharp] = np.maximum(view[sharp], bounds(xs[block][sharp]))
                coarse[block] = ~sharp
                best = min(best, ratio(block)[sharp].min(initial=math.inf))
                pairs = np.mean(left | (pair_ratios <= best)) <= _GROWTH_SCREEN_OPEN
        elif screen:
            dists[block] = bounds(xs[block])
        left = undecided(block)
        settle(block, left)
        screen = screen and left.mean() <= _GROWTH_SCREEN_OPEN
        pairs = pairs and screen
    if not settled.all():
        everything = slice(None)
        # The sample with the smallest k x k bound ratio is settled, once the
        # _GROWTH_BLOCK smallest pair bounds are refined; then every pair
        # bound that does not exceed the smallest exact ratio is refined, the
        # smallest bound is settled if it does not exceed it either, and then
        # every bound that does not: the rest lie above the minimum.
        lowest = np.flatnonzero(coarse)
        if len(lowest) > _GROWTH_BLOCK:
            part = np.argpartition(ratios[lowest], _GROWTH_BLOCK - 1)
            lowest = lowest[part[:_GROWTH_BLOCK]]
        refine(lowest)
        fine = ~settled & ~coarse
        settle(everything, fine & (ratios == ratios[fine].min()))
        refine(np.flatnonzero(coarse & ~settled & (ratios <= ratios[settled].min())))
        smallest = ratios[~settled].min(initial=math.inf)
        if smallest <= ratios[settled].min():
            settle(everything, ~settled & (ratios == smallest))
        settle(everything, ~settled & (ratios <= ratios[settled].min()))
    feasible = dists <= _GROWTH_FEAS_TOL
    feasible_ratios = gaps[feasible] / sq[feasible]
    if total:
        first = int(np.argmin(ratios))  # first minimum, as a strict-< scan keeps
        min_ratio, worst = float(ratios[first]), xs[first].copy()
    else:
        min_ratio, worst = math.inf, xbar.copy()
    return GrowthReport(
        epsilon=epsilon,
        beta=beta,
        samples=total,
        violations=int(np.count_nonzero(ratios < beta)),
        min_ratio=min_ratio,
        worst_point=worst,
        feasible_samples=len(feasible_ratios),
        feasible_violations=int(np.count_nonzero(feasible_ratios < beta)),
        feasible_min_ratio=(
            float(feasible_ratios.min()) if len(feasible_ratios) else None
        ),
    )
