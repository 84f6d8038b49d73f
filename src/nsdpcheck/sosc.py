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
a k x k matrix, and both evaluated from one monomial product: the matching
bound and the distance of M from one stacked eigenvalue call; both minus a
rounding slack.  The matching bound pinches M: a round-robin schedule splits
omega's indices into rounds of disjoint 2 x 2 principal blocks (and one
1 x 1 block at odd k), and M's block-diagonal part for a round, the average
of M's similarities by +-1 on each block, is no farther from the cone than
M.  The bound is the largest root-sum-square of a round's closed-form block
distances.  Three passes run over all samples: the matching bound
everywhere; the k x k bound on the samples with the smallest matching ratio
bounds, the smallest of which is computed in full and bounds the minimum
ratio from above; then the k x k bound wherever the matching bound leaves a
count or the minimum open.  The full m x m distance is computed only where
the bounds could decide a count, the feasible set or the minimum ratio, so
the report is the one that the full computation gives, bit for bit.  Where
the matching bound leaves most of the first samples undecided, nothing is
screened.

The verdicts are explicitly sampled statements: VERIFIED_SAMPLED means every
checked direction carried a positive margin, not that all of the critical
cone was proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .cone import DEFAULT_TOL, _embed_omega, dist_psd_batch, dist_psd_from_eigenvalues
from .cone import normal_cone_residual
from .nlsdp import (
    NlsdpProblem,
    _jacobian,
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
from .symmat import OrderedEigenDecomposition, SymMat, _tril_indices, eigen_decompose, svec
from .symmat import frobenius_inner, frobenius_norms, lower_to_dense, row_squares, svec_to_dense

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
# Growth samples whose constraint values are evaluated and eigen-solved
# together, and the head block whose matching bounds decide the bail-out.
_GROWTH_BLOCK = 256
# The growth screen's bound tiers run on chunks of samples whose largest
# arrays (the monomials, the projected triangles and the k x k stack) stay
# within this many bytes: glibc's default M_MMAP_THRESHOLD.  Larger
# temporaries come back from the allocator as fresh pages, mapped anew or
# past a trimmed heap top, and are faulted in on every call.  One matching
# pass over 10,768 samples of a k = 6, n = 6 problem (one BLAS thread)
# took 2.7 ms and no page fault in chunks of this size, and 6.0 ms and 2,885
# faults in chunks of 512 KiB; with glibc's mmap and trim thresholds raised,
# the 512 KiB chunks faulted no page and took 3.2 ms.
_SCREEN_BYTES = 2**17
# Growth samples with dist(F(x), PSD) at most this count as feasible.
_GROWTH_FEAS_TOL = 1e-9
# The growth screen lowers its distance bound by _GROWTH_ROUNDING * (m + n)^2
# * eps times a bound of ||F(x)||: more than both eigenvalue routes and the
# sums that form F(x) can round apart.
_GROWTH_ROUNDING = 16.0
# ... and by this much more: squares below 2^-1022 round to a multiple of
# 2^-1074, off by up to 2^-1075 each however small the operands, which no
# relative slack covers.  In both bounds and in the exact distance they move
# the roots by at most (3 + 3 sqrt(m)) 2^-537, below 2^-500 at any m: the
# matching bound sums the squares of at most ceil(k / 2) blocks, k <= m.
_GROWTH_UNDERFLOW = 2.0**-500
# Nothing is screened where the matching bound leaves more than this share of
# the first _GROWTH_BLOCK growth samples undecided: they predict a screen that
# costs more than it saves.
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


def _critical_mask(
    rows: np.ndarray, us: np.ndarray, d: OrderedEigenDecomposition, tol: float
) -> np.ndarray:
    """Which rows u of us are critical: the slope grad f . u is at most
    tol * max(1, |u|), and the omega-omega block of dF(u) is PSD within tol.
    One product with the matrix of L and one stacked eigvalsh test them all."""
    images = us @ rows
    critical = ~(images[:, 0] > tol * np.maximum(1.0, np.sqrt(row_squares(us))))
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
    candidates = [np.stack((eye, 0.0 - eye), axis=1).reshape(2 * n, n)]  # 0, not -0
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
        nrm = np.sqrt(row_squares(raw))
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
    uniform draw gives the ball radii epsilon u^(1/n).  Each row is scaled
    as ``radius * raw / norm``, with the norm np.linalg.norm gives."""
    n_boundary = max(1, n_samples // 10)
    xs = np.empty((4 * n + n_boundary + n_samples, n))
    axes = epsilon * np.eye(n)
    xs[: 4 * n] = np.stack((axes, -axes, 0.5 * axes, -0.5 * axes), axis=1).reshape(4 * n, n)
    drawn = xs[4 * n :]
    rng.standard_normal(out=drawn)
    radii = np.full(len(drawn), epsilon)
    radii[n_boundary:] = epsilon * rng.random(n_samples) ** (1.0 / max(n, 1))  # no row at n = 0
    squares = row_squares(drawn)
    kept = squares != 0.0  # every row, unless a draw is zero
    rows = int(np.count_nonzero(kept))
    if rows < len(drawn):
        drawn[:rows], squares, radii = drawn[kept], squares[kept], radii[kept]
    with np.errstate(over="ignore"):  # verify_growth rejects offsets whose squares overflow
        drawn[:rows] *= radii[:, None]
        drawn[:rows] /= np.sqrt(squares)[:, None]
    return xs[: 4 * n + rows]


def _round_robin(k: int) -> list[list[tuple[int, ...]]]:
    """A round-robin schedule of the indices 0, ..., k - 1 (the circle
    method): rounds of disjoint blocks that hold every pair (i, j), i > j,
    exactly once.  At even k there are k - 1 rounds of k / 2 pairs; at odd k
    there are k rounds, each of (k - 1) / 2 pairs and one bye (i,)."""
    size = k + k % 2  # at odd k, index k is the bye
    rounds = []
    for r in range(size - 1):
        games = [(size - 1, r)]
        games += [((r + s) % (size - 1), (r - s) % (size - 1)) for s in range(1, size // 2)]
        rounds.append([(b,) if a == k else (max(a, b), min(a, b)) for a, b in games])
    return rounds


@lru_cache(maxsize=64)
def _principal_block_distances(k: int):
    """The function that maps k x k lower triangles M, stacked as the
    columns of its argument, to the matching bound of dist(M, PSD): the
    largest root-sum-square, over the rounds of ``_round_robin(k)``, of the
    distances of the round's principal blocks.  A 2 x 2 block
    [[a, b], [b, c]] has eigenvalues h -+ r in closed form, h = (a + c) / 2,
    r = sqrt(d^2 + b^2), d = (a - c) / 2.  It is built once per k.

    By pinching, the matching bound is a lower bound.  A round's blocks
    partition the indices, and M's block-diagonal part for them is the
    average of D M D over the sign matrices D that are +-1 on each block.
    dist(., PSD) is convex and invariant under those similarities, so that
    part is no farther from the cone than M, and its distance is the
    root-sum-square of its blocks'.  Each pair lies in one round, so the
    bound is at least the largest 2 x 2 block distance; at k <= 2 it is
    that block distance, the matrix's own."""
    i, j = _tril_indices(k)
    diag = np.flatnonzero(i == j)
    off = np.flatnonzero(i != j)
    pick = (diag[i[off]], diag[j[off]], off)  # rows of a, c and b
    # Round r sums the squared distances of its blocks: pairs in the order
    # of ``off``, then, at odd k, the byes.
    column = {(int(i[t]), int(j[t])): c for c, t in enumerate(off)}
    column.update({(int(t),): len(off) + int(t) for t in range(k)})
    rounds = _round_robin(k)
    incidence = np.zeros((len(rounds), len(off) + k % 2 * k))
    for r, blocks in enumerate(rounds):
        incidence[r, [column[block] for block in blocks]] = 1.0

    def distances(lower: np.ndarray) -> np.ndarray:
        a, c, b = (lower[rows] for rows in pick)
        half, d = 0.5 * (a + c), 0.5 * (a - c)
        radius = np.sqrt(d * d + b * b)
        squares = np.minimum(half - radius, 0.0) ** 2 + np.minimum(half + radius, 0.0) ** 2
        if k % 2:
            squares = np.concatenate((squares, np.minimum(lower[diag], 0.0) ** 2))
        return np.sqrt((incidence @ squares).max(axis=0, initial=0.0))

    return distances


def _psd_distance_screen(p: NlsdpProblem, d: OrderedEigenDecomposition):
    """(k, matching_bounds, bounds): both functions map rows x to lower
    bounds of dist(F(x), PSD), rounding included; -inf where none is
    computed.

    P = P_omega holds the eigenvector rows of omega in d, the decomposition
    of F(xbar).  For orthonormal rows, dist(P A P^T) <= dist(A): P applied
    to A's PSD projection is PSD and no farther from P A P^T.  F(x) is
    linear in the monomials z(x) = (1, x_i, x_i x_j for i >= j), with the
    coefficients A0, A_i, B_ij for i > j and B_ii / 2, which are projected
    to k x k once.  Both functions work in chunks of samples, held as
    columns: the monomials of a chunk are the rows of one array, and one
    product with the projected coefficients gives the triangles of
    P F(x) P^T as columns, so the matching bound reads each triangle entry
    as one contiguous row; one product with the coefficients' Frobenius
    norms, taken at |z(x)|, bounds ||F(x)||.  A chunk holds as many samples
    as keep the monomials, the triangles and the k x k stack within
    _SCREEN_BYTES, and at least one.  ``bounds`` takes dist(P F(x) P^T)
    from one stacked k x k eigvalsh per chunk;
    ``matching_bounds`` takes the matching bound of P F(x) P^T, a pinching
    of it (``_principal_block_distances``), with no eigenvalue call, and at
    k <= 2 the same distance.  Both are lowered by _GROWTH_ROUNDING
    (m + n)^2 eps ||F(x)||.  That covers the rounding of the projected sum
    in any order and chunk height, and of the exact route, and that of the
    matching bound's sum of at most ceil(k / 2) nonnegative squares, which
    moves its root by less than k eps times the bound.  Both are also
    lowered by _GROWTH_UNDERFLOW for squares that round in the subnormal
    range.  A row on which any of this overflows gets -inf."""
    basis = d.p_matrix[list(d.omega)]
    k = len(basis)
    i, j = _tril_indices(k)
    qi, qj = _tril_indices(p.n)
    xi, xj = 1 + qi, 1 + qj  # the rows of x_i and x_j in z
    b = p.F.b
    parts = [p.F.a0.lower[None], p.F.a]
    if b is not None:
        parts.append(b[qi, qj] * np.where(qi == qj, 0.5, 1.0)[:, None])
    coeffs = np.concatenate(parts)
    projected = np.ascontiguousarray((basis @ lower_to_dense(p.m, coeffs) @ basis.T)[:, i, j].T)
    sizes = frobenius_norms(p.m, coeffs)
    slack = _GROWTH_ROUNDING * (p.m + p.n) ** 2 * np.finfo(float).eps
    height = max(1, _SCREEN_BYTES // (8 * max(len(coeffs), k * k)))

    def monomials(x):
        z = np.empty((len(coeffs), len(x)))
        z[0] = 1.0
        z[1 : 1 + p.n] = x.T
        if b is not None:
            np.multiply(z[xi], z[xj], out=z[1 + p.n :])
        return z

    def screen(distances):
        def bounds(x: np.ndarray) -> np.ndarray:
            out = np.full(len(x), -np.inf)
            for start in range(0, len(x), height):
                chunk = slice(start, start + height)
                with np.errstate(over="ignore", invalid="ignore"):
                    z = monomials(x[chunk])
                    lower = projected @ z
                    size = sizes @ np.abs(z)
                    ok = np.isfinite(size) & np.isfinite(lower).all(axis=0)
                    lower[:, ~ok] = 0.0
                    dist = distances(lower)
                ok &= np.isfinite(dist)
                out[chunk][ok] = dist[ok] - slack * size[ok] - _GROWTH_UNDERFLOW
            return out

        return bounds

    return k, screen(_principal_block_distances(k)), screen(lambda lower: dist_psd_batch(k, lower.T))


def _exact_psd_distances(p: NlsdpProblem, xs, mask, out: np.ndarray):
    """Set out[mask] to dist(F(x), PSD) for the rows of xs that mask selects,
    with the bits of one blocked pass over all of xs; xs is the sample array
    or one of its _GROWTH_BLOCK blocks, out its distances.  BLAS rounds a
    row of a product differently in stacks of different heights, so F is
    evaluated on each whole _GROWTH_BLOCK block that holds a selected row,
    and on no other; eigvalsh solves each matrix alone, so it takes the
    selected rows only."""
    starts = np.arange(0, len(xs), _GROWTH_BLOCK)
    for start in starts[np.logical_or.reduceat(mask, starts)].tolist():
        sel = mask[start : start + _GROWTH_BLOCK]
        lower = eval_F_batch(p, xs[start : start + _GROWTH_BLOCK])[sel]
        out[start : start + _GROWTH_BLOCK][sel] = dist_psd_batch(p.m, lower)


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
    bulk (``_growth_offsets``).  Their distances get lower bounds from F's
    projection M onto the near-kernel omega of ``d``, the decomposition of
    F(xbar), made here when None (``_psd_distance_screen``), hence lower
    bounds of their ratios, in two tiers.  The matching bound takes no
    eigenvalue call: by the pinching inequality, the distance of a
    block-diagonal part of M is at most that of M, and for the blocks of
    one round of a round-robin schedule of omega (disjoint 2 x 2 principal
    blocks, and one 1 x 1 block at odd k) it is the root-sum-square of
    closed-form block distances; the bound takes the largest round.  The
    k x k bound, the distance of M, takes one stacked eigenvalue call per
    chunk.  At k <= 2 the two are the same.  Both tiers run in chunks of
    samples sized from k and n so that their largest arrays stay below
    _SCREEN_BYTES, where the allocator would hand out fresh pages on every
    call.  _GROWTH_BLOCK sizes only the bail-out's head block and the
    blocks of the exact distances.

    The screen makes three passes over the whole sample array: the matching
    bound of every sample; at k > 2, the k x k bound of the _GROWTH_BLOCK
    samples with the smallest matching ratio bounds and the full m x m
    distance of the smallest of these, whose ratio U bounds the minimum from
    above; then the k x k bound of every other sample that is undecided (a
    bound ratio below beta, a bound distance at or below the feasibility
    tolerance or a non-finite value) or whose ratio bound is at most U.  The
    full distance is then computed for every sample still undecided, for
    the smallest bound if it does not exceed the smallest exact ratio, and
    then for every bound that does not.  Any other sample provably has a
    ratio of at least beta, above the minimum, and is infeasible, so the
    counts, the minimum and its first sample are those of the full
    computation, whose bits the exact distances keep
    (``_exact_psd_distances``).  Which bound decided a sample does not
    matter: both are lower bounds.

    Nothing is screened where the matching bound leaves more than
    _GROWTH_SCREEN_OPEN of the first _GROWTH_BLOCK samples undecided: there
    the bounds would cost more than they save.

    An epsilon at which some ||x - xbar||^2 overflows raises
    FloatingPointError: every ratio would read 0."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    xbar = np.asarray(xbar, dtype=float)
    f0 = eval_f(p, xbar)
    xs = _growth_offsets(np.random.default_rng([seed, 2]), p.n, epsilon, n_samples)
    with np.errstate(over="ignore"):
        sq = row_squares(xs)
    if not np.isfinite(sq).all():
        raise FloatingPointError(f"||x - xbar||^2 overflows at epsilon = {epsilon!r}")
    xs += xbar
    nonzero = sq != 0.0
    if not nonzero.all():  # a zero offset is all but impossible
        xs, sq = xs[nonzero], sq[nonzero]
    total = len(xs)
    gaps = eval_f_batch(p, xs) - f0
    d = d or eigen_decompose(eval_F(p, xbar))
    k, matching_bounds, bounds = _psd_distance_screen(p, d)
    dists = np.full(total, -np.inf)  # lower bounds until settled
    settled = np.zeros(total, dtype=bool)
    everything = slice(None)

    def ratio(i):  # max(gap, dist) as Python's max takes it: the gap unless dist is larger
        with np.errstate(over="ignore"):  # a ratio past the largest float is inf, above beta
            return np.where(dists[i] > gaps[i], dists[i], gaps[i]) / sq[i]

    def undecided(i):  # the sample may violate or be feasible
        return ~((ratio(i) >= beta) & (dists[i] > _GROWTH_FEAS_TOL))

    def settle(mask):
        _exact_psd_distances(p, xs, mask, dists)
        settled[mask] = True

    def refine(rows):  # the k x k bound for these rows
        dists[rows] = np.maximum(dists[rows], bounds(xs[rows]))

    head = slice(_GROWTH_BLOCK)
    dists[head] = matching_bounds(xs[head])
    if total and undecided(head).mean() <= _GROWTH_SCREEN_OPEN:
        dists[_GROWTH_BLOCK:] = matching_bounds(xs[_GROWTH_BLOCK:])
        if k > 2:  # at k <= 2 the matching bound is the k x k bound
            # The smallest of the _GROWTH_BLOCK smallest ratio bounds, once
            # refined, is settled: its ratio bounds the minimum from above.
            # Then every other bound that may decide the report is refined.
            part = np.argpartition(ratio(everything), min(_GROWTH_BLOCK, total) - 1)
            lowest = part[:_GROWTH_BLOCK]
            refine(lowest)
            upper = lowest[np.argmin(ratio(lowest))]
            settle(np.arange(total) == upper)
            sharp = undecided(everything) | (ratio(everything) <= ratio(upper))
            sharp[lowest] = False
            refine(np.flatnonzero(sharp))
    settle(~settled & undecided(everything))
    # The smallest bound is settled if it does not exceed the smallest exact
    # ratio, then every bound that does not: the rest lie above the minimum.
    smallest = ratio(~settled).min(initial=math.inf)
    if smallest <= ratio(settled).min(initial=math.inf):
        settle(~settled & (ratio(everything) == smallest))
    settle(~settled & (ratio(everything) <= ratio(settled).min(initial=math.inf)))
    ratios = ratio(everything)
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
