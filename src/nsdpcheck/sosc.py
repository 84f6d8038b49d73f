"""Second-order sufficient condition checks at a candidate point.

``check_sosc`` samples the critical cone, searches a directional multiplier
for every sampled direction and evaluates the curvature margin

    Lxx[u, u] - 2 <ystar, (dF u) pinv(F) (dF u)>,

which must be positive along every critical direction.  ``verify_growth``
samples the quadratic-growth inequality that this condition guarantees.

The verdicts are explicitly sampled statements: VERIFIED_SAMPLED means every
checked direction carried a positive margin, not that all of the critical
cone was proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import DEFAULT_TOL, dist_psd, dist_psd_batch, tangent_cone_contains
from .nlsdp import (
    NlsdpProblem,
    dF,
    d2F,
    eval_F,
    eval_F_batch,
    eval_f,
    eval_f_batch,
    grad_f,
    lagrangian_grad,
    lagrangian_hess_form,
)
from .subderivative import ToleranceAnomalyError, second_subderivative
from .symmat import OrderedEigenDecomposition, SymMat, block, eigen_decompose
from .symmat import frobenius_inner, pseudoinverse, svec, svec_to_dense

VERIFIED_SAMPLED = "VERIFIED_SAMPLED"
FAILED_AT_DIRECTION = "FAILED_AT_DIRECTION"
CRITICAL_CONE_TRIVIAL = "CRITICAL_CONE_TRIVIAL"
INCONCLUSIVE = "INCONCLUSIVE"

# Candidates with alpha above this (on the unit-norm scale) are rescaled to
# alpha = 1; below it the certificate is normalized to unit Frobenius norm.
_ALPHA_NORMALIZE = 1e-6

# Angular resolution of the deterministic direction grids.
_GRID_STEP_DEG = {2: 2.0, 3: 10.0}
_DEDUP_ANGLE = 1e-3

# Growth samples whose constraint values are eigen-solved together; bounds the
# (block, m, m) work buffer.
_GROWTH_BLOCK = 256

# Signed coordinate steps of the multiplier search, in the order one move
# tries them: each step size, plus before minus.
_STEPS = np.array(
    [
        sign * size
        for size in (4.0, 2.0, 1.0, 0.5, 0.2, 0.08, 0.03, 0.01, 0.003)
        for sign in (1.0, -1.0)
    ]
)


class InfeasiblePointError(ValueError):
    """Candidate point violates the matrix constraint beyond tolerance."""

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = distance


@dataclass(frozen=True)
class SoscOptions:
    tol: float = DEFAULT_TOL
    rank_tol: float | None = None
    cert_tol: float = 1e-7
    margin_tol: float = 1e-9
    n_dirs: int = 512
    n_starts: int = 32
    max_iters: int = 200
    seed: int = 0


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


@dataclass(frozen=True)
class SoscReport:
    verdict: str
    directions_checked: int
    min_margin: float
    worst_direction: np.ndarray | None
    certificates: list
    diagnostics: str
    decomposition: OrderedEigenDecomposition  # of F(xbar); fixes pi and omega


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


# -- critical cone -------------------------------------------------------------


def _decompose_at(p: NlsdpProblem, xbar, tol: float, rank_tol=None):
    fx = eval_F(p, xbar)
    dist = dist_psd(fx)
    if dist > tol:
        raise InfeasiblePointError(
            f"F(xbar) is not PSD: distance to the cone is {dist:.3e}", dist
        )
    return eigen_decompose(fx, rank_tol)


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
    if d is None:
        d = _decompose_at(p, xbar, tol)
    slope = float(grad_f(p, xbar) @ u)
    if slope > tol * max(1.0, float(np.linalg.norm(u))):
        return False
    return tangent_cone_contains(d, dF(p, xbar, u), tol)


def sample_critical_directions(
    p: NlsdpProblem,
    xbar,
    n_dirs: int = 512,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    d: OrderedEigenDecomposition | None = None,
) -> list[np.ndarray]:
    """Unit directions inside the critical cone: coordinate axes, a
    deterministic angular grid for n <= 3, and rejection-sampled sphere
    points, deduplicated within an angular tolerance."""
    if n_dirs < 1:
        raise ValueError("n_dirs must be positive")
    if d is None:
        d = _decompose_at(p, xbar, tol)
    n = p.n
    candidates: list[np.ndarray] = []
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = 1.0
        candidates.append(axis.copy())
        candidates.append(-axis)
    if n == 2:
        for deg in np.arange(0.0, 360.0, _GRID_STEP_DEG[2]):
            a = math.radians(deg)
            candidates.append(np.array([math.cos(a), math.sin(a)]))
    elif n == 3:
        step = _GRID_STEP_DEG[3]
        for theta_deg in np.arange(step, 180.0, step):
            theta = math.radians(theta_deg)
            for phi_deg in np.arange(0.0, 360.0, step):
                phi = math.radians(phi_deg)
                candidates.append(
                    np.array(
                        [
                            math.sin(theta) * math.cos(phi),
                            math.sin(theta) * math.sin(phi),
                            math.cos(theta),
                        ]
                    )
                )
    rng = np.random.default_rng([seed, 1])
    for _ in range(n_dirs):
        raw = rng.standard_normal(n)
        nrm = np.linalg.norm(raw)
        if nrm > 0:
            candidates.append(raw / nrm)

    kept: list[np.ndarray] = []
    cos_dedup = math.cos(_DEDUP_ANGLE)
    for u in candidates:
        if not critical_cone_contains(p, xbar, u, tol, d=d):
            continue
        if any(float(u @ v) > cos_dedup for v in kept):
            continue
        kept.append(u)
    return kept


# -- multiplier search ----------------------------------------------------------


def _embed_omega(d: OrderedEigenDecomposition, w: np.ndarray) -> SymMat:
    """Lift a |omega| x |omega| block to the full space through d's eigenbasis."""
    full = np.zeros((d.m, d.m))
    omega = list(d.omega)
    if omega:
        full[np.ix_(omega, omega)] = w
    dense = d.p_matrix.T @ full @ d.p_matrix
    return SymMat.from_dense(dense, check_symmetry=False)


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
    candidate: MultiplierCandidate | None
    margin: float | None
    best_interiority: float
    hit_cap: bool


def _row_norms(zs: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of zs, rounded as np.linalg.norm rounds
    one row: stacked row-times-column products sum like a vector dot."""
    return np.sqrt((zs[:, None, :] @ zs[:, :, None]).reshape(len(zs)))


def _coordinate_ascent(objective, z0: np.ndarray, max_iters: int):
    """Maximize over the unit sphere by normalized coordinate steps.

    ``objective`` maps a stack of points (rows) to their values.  A move along
    one coordinate scores every signed step at once, then takes the first
    step, in _STEPS order, that beats the best value seen so far."""
    z = z0 / np.linalg.norm(z0)
    val = float(objective(z[None])[0])
    r = z.size
    for _ in range(max_iters):
        improved = False
        for j in range(r):
            trial = np.repeat(z[None], len(_STEPS), axis=0)
            trial[:, j] += _STEPS
            nrm = _row_norms(trial)
            keep = ~(nrm < 1e-12)
            trial = trial[keep] / nrm[keep, None]
            best_val, best_row = val, None
            for row, v in enumerate(objective(trial).tolist()):
                if v > best_val + 1e-15:
                    best_val, best_row = v, row
            if best_row is not None:
                z, val = trial[best_row], best_val
                improved = True
        if not improved:
            return z, val, False
    return z, val, True


def _multiplier_search(
    p: NlsdpProblem,
    xbar,
    u,
    d: OrderedEigenDecomposition,
    opts: SoscOptions,
    rng,
) -> _SearchOutcome:
    xbar = np.asarray(xbar, dtype=float)
    u = np.asarray(u, dtype=float)
    n = p.n
    omega = list(d.omega)
    k = len(omega)
    gf = grad_f(p, xbar)
    g_dir = dF(p, xbar, u)

    # Stationarity rows and the orthogonality row in unknowns (alpha, svec W),
    # where ystar = P.T [[0, 0], [0, W]] P ranges over the normal-cone face.
    rows = []
    for i in range(n):
        e_i = np.zeros(n)
        e_i[i] = 1.0
        d_i = dF(p, xbar, e_i)
        rows.append(np.concatenate(([gf[i]], svec(block(d_i, d, omega, omega)))))
    rows.append(np.concatenate(([0.0], svec(block(g_dir, d, omega, omega)))))
    system = np.vstack(rows)
    basis = _null_space(system)
    r = basis.shape[1]
    if r == 0:
        return _SearchOutcome(None, None, -math.inf, False)

    def interiority(zs: np.ndarray) -> np.ndarray:
        """min(alpha, -lambda_max(W)) of the multiplier basis @ z, per row z."""
        # Stacked matrix-vector products round like basis @ z for one z.
        vecs = (basis @ zs[:, :, None])[:, :, 0]
        alpha = vecs[:, 0]
        if k == 0:
            return alpha
        top = -np.linalg.eigvalsh(svec_to_dense(k, vecs[:, 1:]))[:, -1]
        return np.where(top < alpha, top, alpha)

    # Margin is linear in (alpha, svec W); precompute its coefficient row.
    fdag = pseudoinverse(d).dense()
    g_dense = g_dir.dense()
    curv_mat = SymMat.from_dense(g_dense @ fdag @ g_dense, check_symmetry=False)
    quad = d2F(p, xbar, u)
    margin_row = np.concatenate(
        (
            [float(u @ p.f.h @ u)],
            svec(block(quad, d, omega, omega) - 2.0 * block(curv_mat, d, omega, omega)),
        )
    )
    margin_of = basis.T @ margin_row

    hit_cap = False
    if r == 1:
        scored = list(zip(interiority(np.array([[1.0], [-1.0]])).tolist(), (1.0, -1.0)))
        best_interiority, best_sign = max(scored)
        feasible = [s for g0, s in scored if g0 >= -opts.cert_tol]
        if not feasible:
            return _SearchOutcome(None, None, best_interiority, False)
        z_best = np.array([max(feasible, key=lambda s: s * margin_of[0])])
    else:
        starts = [np.ones(r)]
        for j in range(r):
            e = np.zeros(r)
            e[j] = 1.0
            starts.extend((e.copy(), -e))
        while len(starts) < opts.n_starts:
            starts.append(rng.standard_normal(r))
        best_interiority, z_int = -math.inf, None
        for z0 in starts[: opts.n_starts]:
            if np.linalg.norm(z0) == 0:
                continue
            z, val, capped = _coordinate_ascent(interiority, z0, opts.max_iters)
            hit_cap = hit_cap or capped
            if val > best_interiority:
                best_interiority, z_int = val, z
        if best_interiority < -opts.cert_tol:
            return _SearchOutcome(None, None, best_interiority, hit_cap)

        # Polish for margin over the feasible slice: the feasible multipliers
        # form a convex cone section, so penalized ascent on the linear margin
        # keeps the search honest about "no positive-margin certificate".
        rho = 1e3 * (1.0 + np.linalg.norm(margin_of))

        def penalized(zs: np.ndarray) -> np.ndarray:
            slack = interiority(zs) + 0.5 * opts.cert_tol
            gain = (zs[:, None, :] @ margin_of[:, None]).reshape(len(zs))
            return gain + rho * np.where(slack < 0.0, slack, 0.0)

        def at(objective, z: np.ndarray) -> float:
            return float(objective(z[None])[0])

        z_best, best_pen = z_int, at(penalized, z_int)
        polish_starts = [z_int] + [rng.standard_normal(r) for _ in range(7)]
        for z0 in polish_starts:
            z, _, capped = _coordinate_ascent(penalized, z0, opts.max_iters)
            hit_cap = hit_cap or capped
            if at(interiority, z) >= -opts.cert_tol and at(penalized, z) > best_pen:
                z_best, best_pen = z, at(penalized, z)

    vec = basis @ z_best
    alpha = max(float(vec[0]), 0.0)
    w = svec_to_dense(k, vec[1:])
    scale = 1.0 / alpha if alpha > _ALPHA_NORMALIZE else 1.0 / math.hypot(
        alpha, np.linalg.norm(w)
    )
    alpha *= scale
    w = w * scale
    ystar = _embed_omega(d, w)

    pi = list(d.pi)
    slack_terms = [abs(frobenius_inner(ystar, g_dir))]
    if k:
        slack_terms.append(max(0.0, float(np.linalg.eigvalsh(w)[-1])))
    if pi:
        slack_terms.append(float(np.linalg.norm(block(ystar, d, pi, pi))))
        if omega:
            slack_terms.append(float(np.linalg.norm(block(ystar, d, pi, omega))))
    cand = MultiplierCandidate(
        alpha=alpha,
        ystar=ystar,
        stationarity_residual=float(
            np.linalg.norm(lagrangian_grad(p, alpha, xbar, ystar))
        ),
        normal_cone_slack=max(slack_terms),
    )
    margin = sosc_margin(p, xbar, u, cand, tol=opts.tol, d=d)
    return _SearchOutcome(cand, margin, best_interiority, hit_cap)


def find_multiplier(
    p: NlsdpProblem,
    xbar,
    u,
    search_opts: SoscOptions | None = None,
    d: OrderedEigenDecomposition | None = None,
) -> MultiplierCandidate | None:
    """Search the directional multiplier set at (xbar, u).

    Returns the best candidate found (alpha normalized to 1 when bounded away
    from zero, otherwise unit Frobenius norm) or None when the feasible set
    reduces to the origin.
    """
    opts = search_opts or SoscOptions()
    if d is None:
        d = _decompose_at(p, xbar, opts.tol, opts.rank_tol)
    rng = np.random.default_rng([opts.seed, 0])
    return _multiplier_search(p, xbar, u, d, opts, rng).candidate


def sosc_margin(
    p: NlsdpProblem,
    xbar,
    u,
    cand: MultiplierCandidate,
    tol: float = DEFAULT_TOL,
    d: OrderedEigenDecomposition | None = None,
) -> float:
    """Curvature margin Lxx[u, u] - 2 <ystar, (dF u) pinv(F) (dF u)>.

    Cross-checked against the second-subderivative route, which must produce
    the same number whenever it is finite."""
    if d is None:
        d = _decompose_at(p, xbar, tol)
    g_dir = dF(p, xbar, u)
    g_dense = g_dir.dense()
    fdag = pseudoinverse(d).dense()
    curvature = 2.0 * float(np.sum(cand.ystar.dense() * (g_dense @ fdag @ g_dense)))
    hess = lagrangian_hess_form(p, cand.alpha, xbar, cand.ystar, u)
    margin = hess - curvature

    cross_tol = max(tol, 10.0 * cand.normal_cone_slack + 1e-12)
    sub = second_subderivative(d, cand.ystar, g_dir, cross_tol)
    if not sub.is_finite:
        raise ToleranceAnomalyError(
            "second subderivative is infinite although the closed-form margin is finite"
        )
    alt = hess + sub.value
    if abs(alt - margin) > 1e-6 * max(1.0, abs(margin)):
        raise ToleranceAnomalyError(
            f"margin mismatch between curvature routes: {margin!r} vs {alt!r}"
        )
    return margin


def check_sosc(p: NlsdpProblem, xbar, opts: SoscOptions | None = None) -> SoscReport:
    """Sampled verification of the second-order sufficient condition at xbar."""
    opts = opts or SoscOptions()
    xbar = np.asarray(xbar, dtype=float)
    d = _decompose_at(p, xbar, opts.tol, opts.rank_tol)
    dirs = sample_critical_directions(
        p, xbar, n_dirs=opts.n_dirs, seed=opts.seed, tol=opts.tol, d=d
    )
    eig_note = (
        f"F(xbar) eigenvalues: {np.array2string(np.asarray(d.eigenvalues), precision=6)}; "
        f"pi = {list(d.pi)}, omega = {list(d.omega)} at rank_tol = {d.rank_tol:.3e}"
    )
    if not dirs:
        return SoscReport(
            verdict=CRITICAL_CONE_TRIVIAL,
            directions_checked=0,
            min_margin=math.inf,
            worst_direction=None,
            certificates=[],
            diagnostics=eig_note
            + "\nno sampled unit direction lies in the critical cone",
            decomposition=d,
        )

    certificates: list[DirectionCertificate] = []
    failures = []  # (rank_key, slope, direction, reason)
    inconclusive = []
    margins = []
    gf = grad_f(p, xbar)
    for idx, u in enumerate(dirs):
        rng = np.random.default_rng([opts.seed, idx])
        outcome = _multiplier_search(p, xbar, u, d, opts, rng)
        slope = float(gf @ u)
        if outcome.candidate is not None:
            certificates.append(DirectionCertificate(u, outcome.candidate, outcome.margin))
            margins.append((outcome.margin, u))
            if outcome.margin <= opts.margin_tol:
                if outcome.hit_cap:
                    inconclusive.append(u)
                else:
                    failures.append((outcome.margin, slope, u, "non-positive margin"))
        elif outcome.hit_cap:
            inconclusive.append(u)
        else:
            failures.append((outcome.best_interiority, slope, u, "no multiplier"))

    sampled_note = (
        f"sampled verification over {len(dirs)} unit directions; "
        "not a proof over all of the critical cone"
    )
    if failures:
        failures.sort(key=lambda rec: (rec[0], rec[1]))
        key, slope, worst, reason = failures[0]
        detail = (
            f"direction {np.array2string(worst, precision=6)} fails: {reason} "
            f"(objective slope {slope:.3e})"
        )
        return SoscReport(
            verdict=FAILED_AT_DIRECTION,
            directions_checked=len(dirs),
            min_margin=min((m for m, _ in margins), default=-math.inf),
            worst_direction=worst,
            certificates=certificates,
            diagnostics="\n".join([eig_note, sampled_note, detail]),
            decomposition=d,
        )
    if inconclusive:
        worst = inconclusive[0]
        return SoscReport(
            verdict=INCONCLUSIVE,
            directions_checked=len(dirs),
            min_margin=min((m for m, _ in margins), default=math.inf),
            worst_direction=worst,
            certificates=certificates,
            diagnostics="\n".join(
                [
                    eig_note,
                    sampled_note,
                    f"multiplier search hit its iteration cap on "
                    f"{len(inconclusive)} direction(s)",
                ]
            ),
            decomposition=d,
        )
    min_margin, worst = min(margins, key=lambda rec: rec[0])
    return SoscReport(
        verdict=VERIFIED_SAMPLED,
        directions_checked=len(dirs),
        min_margin=min_margin,
        worst_direction=worst,
        certificates=certificates,
        diagnostics="\n".join([eig_note, sampled_note]),
        decomposition=d,
    )


def verify_growth(
    p: NlsdpProblem,
    xbar,
    epsilon: float,
    beta: float,
    n_samples: int = 10_000,
    seed: int = 0,
    feas_tol: float = 1e-9,
) -> GrowthReport:
    """Sample max(f(x) - f(xbar), dist(F(x))) >= beta ||x - xbar||^2 over the
    epsilon-ball, plus boundary and axis points.  Also reports the variant
    restricted to (numerically) feasible samples.

    The samples are drawn one by one from a seeded stream; F and its PSD
    distance are then evaluated for blocks of samples at once."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    xbar = np.asarray(xbar, dtype=float)
    f0 = eval_f(p, xbar)
    n = p.n
    rng = np.random.default_rng([seed, 2])
    n_boundary = max(1, n_samples // 10)
    # One row per sample: its offset from xbar, then the sample point itself.
    xs = np.empty((4 * n + n_boundary + n_samples, n))
    axes = epsilon * np.eye(n)
    axis_points = np.stack((axes, -axes, 0.5 * axes, -0.5 * axes), axis=1)
    xs[: 4 * n] = axis_points.reshape(4 * n, n)
    rows = 4 * n
    for _ in range(n_boundary):
        raw = rng.standard_normal(n)
        nrm = np.linalg.norm(raw)
        if nrm > 0:
            xs[rows] = epsilon * raw / nrm
            rows += 1
    for _ in range(n_samples):
        raw = rng.standard_normal(n)
        nrm = np.linalg.norm(raw)
        if nrm == 0:
            continue
        radius = epsilon * rng.uniform() ** (1.0 / n)
        xs[rows] = radius * raw / nrm
        rows += 1

    xs = xs[:rows]
    # Row-wise dot products with the rounding of a one-vector dot product.
    sq = (xs[:, None, :] @ xs[:, :, None]).reshape(rows)
    xs += xbar
    nonzero = sq != 0.0
    xs, sq = xs[nonzero], sq[nonzero]
    total = len(xs)
    gaps = eval_f_batch(p, xs) - f0
    dists = np.empty(total)
    work = np.empty((min(_GROWTH_BLOCK, total), p.m, p.m))
    for start in range(0, total, _GROWTH_BLOCK):
        stop = min(start + _GROWTH_BLOCK, total)
        dists[start:stop] = dist_psd_batch(
            p.m, eval_F_batch(p, xs[start:stop]), work[: stop - start]
        )
    # max(gap, dist) as Python's max takes it: the gap unless dist is larger.
    ratios = np.where(dists > gaps, dists, gaps) / sq
    feasible = dists <= feas_tol
    feasible_ratios = gaps[feasible] / sq[feasible]
    if total:
        k = int(np.argmin(ratios))  # first minimum, as a strict-< scan keeps
        min_ratio, worst = float(ratios[k]), xs[k].copy()
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
