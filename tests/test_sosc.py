"""Critical cone sampling, multiplier search, margins, verdicts and growth."""

import math

import numpy as np
import pytest

from nsdpcheck import (
    CRITICAL_CONE_TRIVIAL,
    FAILED_AT_DIRECTION,
    INCONCLUSIVE,
    VERIFIED_SAMPLED,
    InfeasiblePointError,
    MultiplierCandidate,
    NlsdpProblem,
    QuadraticMatrixMap,
    QuadraticScalar,
    SoscOptions,
    GrowthReport,
    SymMat,
    check_sosc,
    critical_cone_contains,
    dist_psd,
    eigen_decompose,
    eval_F,
    eval_f,
    find_multiplier,
    frobenius_inner,
    grad_f,
    normal_cone_contains,
    problem_from_json,
    sample_critical_directions,
    sosc_margin,
    verify_growth,
)
from nsdpcheck import sosc
from nsdpcheck.nlsdp import d2F, dF, lagrangian_grad
from nsdpcheck.symmat import block, pseudoinverse

from conftest import build_p1, build_trivial_cone, kkt_consistent_problem

XBAR = np.zeros(2)
FAST = SoscOptions(n_dirs=64, n_starts=8)


def test_critical_cone_p1_examples(p1):
    assert critical_cone_contains(p1, XBAR, [1.0, 0.0])
    assert critical_cone_contains(p1, XBAR, [-1.0, 0.0])
    assert not critical_cone_contains(p1, XBAR, [0.0, 1.0])  # objective increases
    assert not critical_cone_contains(p1, XBAR, [0.0, -1.0])  # leaves the tangent cone
    assert critical_cone_contains(p1, XBAR, [0.0, 0.0])


def test_critical_cone_interior_is_halfspace():
    # strictly feasible point: only the slope condition remains
    f = QuadraticScalar(c=0.0, g=np.array([1.0, 0.0]), h=np.zeros((2, 2)))
    cap = QuadraticMatrixMap(a0=SymMat.identity(2), a=build_p1().F.a)
    p = NlsdpProblem(n=2, m=2, f=f, F=cap)
    assert critical_cone_contains(p, XBAR, [-1.0, 0.3])
    assert not critical_cone_contains(p, XBAR, [1.0, 0.3])


def test_critical_cone_infeasible_point(p1):
    with pytest.raises(InfeasiblePointError):
        critical_cone_contains(p1, np.array([0.0, -1.0]), [1.0, 0.0])


def test_sample_directions_p1(p1):
    dirs = sample_critical_directions(p1, XBAR, n_dirs=128, seed=0)
    assert len(dirs) == 2
    assert all(abs(abs(u[0]) - 1.0) < 1e-9 and abs(u[1]) < 1e-7 for u in dirs)


def test_sample_directions_full_sphere():
    f = QuadraticScalar(c=1.0, g=np.zeros(2), h=np.zeros((2, 2)))
    p = NlsdpProblem(n=2, m=2, f=f, F=QuadraticMatrixMap(a0=SymMat.identity(2),
                                                         a=build_p1().F.a))
    dirs = sample_critical_directions(p, XBAR, n_dirs=64, seed=1)
    assert len(dirs) > 100  # axes + 2-degree grid + random survivors
    assert all(abs(np.linalg.norm(u) - 1.0) < 1e-12 for u in dirs)


def test_sample_directions_trivial_cone():
    p = build_trivial_cone()
    assert sample_critical_directions(p, np.zeros(1), n_dirs=32, seed=0) == []


def test_find_multiplier_p1(p1):
    cand = find_multiplier(p1, XBAR, np.array([1.0, 0.0]), FAST)
    assert cand is not None
    assert cand.alpha == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cand.ystar.dense(), np.diag([0.0, -1.0]), atol=1e-9)
    assert cand.stationarity_residual <= 1e-10
    assert cand.normal_cone_slack <= 1e-10


def test_find_multiplier_absent_for_descent_direction(p1_negated):
    assert find_multiplier(p1_negated, XBAR, np.array([0.0, 1.0]), FAST) is None
    assert find_multiplier(p1_negated, XBAR, np.array([1.0, 0.0]), FAST) is None


def test_find_multiplier_interior_point():
    a = build_p1().F.a
    cap = QuadraticMatrixMap(a0=SymMat.identity(2), a=a)
    stationary = NlsdpProblem(
        n=2, m=2, f=QuadraticScalar(c=0.0, g=np.zeros(2), h=np.eye(2)), F=cap
    )
    cand = find_multiplier(stationary, XBAR, np.array([1.0, 0.0]), FAST)
    assert cand is not None and cand.alpha == pytest.approx(1.0)
    assert cand.ystar.norm() <= 1e-12

    sloped = NlsdpProblem(
        n=2, m=2, f=QuadraticScalar(c=0.0, g=np.array([1.0, 0.0]), h=np.eye(2)), F=cap
    )
    assert find_multiplier(sloped, XBAR, np.array([0.0, 1.0]), FAST) is None


def test_sosc_margin_p1(p1):
    u = np.array([1.0, 0.0])
    cand = MultiplierCandidate(
        alpha=1.0,
        ystar=SymMat.diagonal([0.0, -1.0]),
        stationarity_residual=0.0,
        normal_cone_slack=0.0,
    )
    # hand computation: G = [[0,1],[1,0]], pinv F = diag(1,0), so the
    # curvature term is 2<Ystar, diag(0,1)> = -2 and the margin is +2
    assert sosc_margin(p1, XBAR, u, cand) == pytest.approx(2.0, abs=1e-12)

    trivial = MultiplierCandidate(
        alpha=0.0, ystar=SymMat.zeros(2), stationarity_residual=0.0, normal_cone_slack=0.0
    )
    assert sosc_margin(p1, XBAR, u, trivial) == 0.0


def test_sosc_margin_quadratic_in_direction(p1):
    rng = np.random.default_rng(3)
    cand = MultiplierCandidate(
        alpha=1.0,
        ystar=SymMat.diagonal([0.0, -1.0]),
        stationarity_residual=0.0,
        normal_cone_slack=0.0,
    )
    base = sosc_margin(p1, XBAR, np.array([1.0, 0.0]), cand)
    for _ in range(10):
        c = float(rng.uniform(0.1, 5.0))
        scaled = sosc_margin(p1, XBAR, np.array([c, 0.0]), cand)
        assert scaled == pytest.approx(c * c * base, rel=1e-12)


def test_check_sosc_verified(p1):
    report = check_sosc(p1, XBAR, FAST)
    assert report.verdict == VERIFIED_SAMPLED
    assert report.decomposition.omega == (1,)
    assert np.array_equal(report.decomposition.source.lower, eval_F(p1, XBAR).lower)
    assert report.directions_checked == 2
    assert 1.99 <= report.min_margin <= 2.01
    assert report.certificates
    for cert in report.certificates:
        assert cert.margin == pytest.approx(2.0, abs=1e-9)
    assert "sampled" in report.diagnostics


def test_check_sosc_failed(p1_negated):
    report = check_sosc(p1_negated, XBAR, FAST)
    assert report.verdict == FAILED_AT_DIRECTION
    assert np.linalg.norm(report.worst_direction - np.array([0.0, 1.0])) < 0.05


def test_check_sosc_trivial_cone():
    report = check_sosc(build_trivial_cone(), np.zeros(1), FAST)
    assert report.verdict == CRITICAL_CONE_TRIVIAL
    assert report.directions_checked == 0


def test_check_sosc_inconclusive_on_exhausted_search():
    f = QuadraticScalar(c=0.0, g=np.zeros(1), h=np.zeros((1, 1)))
    cap = QuadraticMatrixMap(a0=SymMat.zeros(2), a=(SymMat.diagonal([1.0, 0.0]),))
    p = NlsdpProblem(n=1, m=2, f=f, F=cap)
    report = check_sosc(
        p, np.zeros(1), SoscOptions(n_dirs=4, n_starts=3, max_iters=0, seed=5)
    )
    assert report.verdict == INCONCLUSIVE

    # with a real search budget the same problem fails honestly: every
    # feasible point is optimal but none strictly, the margin is exactly 0
    report = check_sosc(p, np.zeros(1), SoscOptions(n_dirs=4, n_starts=8))
    assert report.verdict == FAILED_AT_DIRECTION
    assert report.min_margin == pytest.approx(0.0, abs=1e-12)


def test_check_sosc_rejects_infeasible_point(p1):
    with pytest.raises(InfeasiblePointError) as err:
        check_sosc(p1, np.array([0.0, -0.5]), FAST)
    assert err.value.distance > 0.1


def test_certificate_soundness_on_random_problems(p1):
    rng = np.random.default_rng(7)
    opts = SoscOptions(n_dirs=8, n_starts=8, seed=3)
    problems = [(p1, np.zeros(2))]
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        problems.append((kkt_consistent_problem(rng, n, m), np.zeros(n)))
    found = 0
    for p, xbar in problems:
        d = eigen_decompose(eval_F(p, xbar), opts.rank_tol)
        report = check_sosc(p, xbar, opts)
        for cert in report.certificates:
            cand = cert.candidate
            found += 1
            assert cand.stationarity_residual <= opts.cert_tol
            assert cand.normal_cone_slack <= opts.cert_tol
            assert max(cand.alpha, cand.ystar.norm()) > opts.cert_tol
            assert normal_cone_contains(d, cand.ystar, 10 * opts.cert_tol)
            g = dF(p, xbar, cert.direction)
            assert abs(frobenius_inner(cand.ystar, g)) <= 10 * opts.cert_tol
            assert np.linalg.norm(
                lagrangian_grad(p, cand.alpha, xbar, cand.ystar)
            ) <= opts.cert_tol
    assert found >= 5


def test_check_sosc_deterministic(p1_negated):
    opts = SoscOptions(n_dirs=32, seed=11)
    r1 = check_sosc(p1_negated, XBAR, opts)
    r2 = check_sosc(p1_negated, XBAR, opts)
    assert r1.verdict == r2.verdict
    assert r1.directions_checked == r2.directions_checked
    assert np.array_equal(r1.worst_direction, r2.worst_direction)


def test_verify_growth_p1(p1):
    report = verify_growth(p1, XBAR, epsilon=0.1, beta=0.25, n_samples=4000, seed=0)
    assert report.violations == 0
    assert report.min_ratio >= 0.25
    assert report.samples >= 4000
    assert report.feasible_samples > 0
    assert report.feasible_violations == 0
    # on the feasible branch x2 >= x1^2 the gap/distance ratio is at least
    # 1/(1 + x1^2), close to 1 inside a 0.1-ball
    assert report.feasible_min_ratio >= 0.9


def test_verify_growth_refuted(p1_negated):
    for beta in (1e-9, 1e-3, 0.25):
        report = verify_growth(
            p1_negated, XBAR, epsilon=0.1, beta=beta, n_samples=500, seed=0
        )
        assert report.violations > 0
    assert report.min_ratio <= 0.0


def test_verify_growth_beta_zero_counts_negative_ratios(p1, p1_negated):
    ok = verify_growth(p1, XBAR, epsilon=0.1, beta=0.0, n_samples=500, seed=1)
    refuted = verify_growth(
        p1_negated, XBAR, epsilon=0.1, beta=0.0, n_samples=500, seed=1
    )
    # max(f(x) - f(xbar), dist) is never negative, because the distance is
    # not: at beta = 0 the full ratio cannot be violated on either problem
    for report in (ok, refuted):
        assert report.min_ratio >= 0.0
        assert report.violations == 0
    # the feasible-only ratio is the bare objective gap, which the descent
    # direction of p1_negated drives below zero
    assert refuted.feasible_violations > 0
    assert refuted.feasible_min_ratio < 0.0
    assert ok.feasible_violations == 0


def test_verify_growth_consistency_with_report_fields(p1):
    report = verify_growth(p1, XBAR, epsilon=0.05, beta=0.3, n_samples=800, seed=2)
    assert (report.violations == 0) == (report.min_ratio >= report.beta)
    assert math.isfinite(report.min_ratio)
    for epsilon, beta in ((-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan),
                          (0.1, math.inf), (0.1, -1.0)):
        with pytest.raises(ValueError):
            verify_growth(p1, XBAR, epsilon=epsilon, beta=beta)


def test_direction_slope_breaks_ties_for_worst_direction(p1_negated):
    # every direction in the upper half plane fails; the steepest descent
    # direction (0, 1) must be reported as the witness
    report = check_sosc(p1_negated, XBAR, SoscOptions(n_dirs=256, seed=3))
    slope = float(grad_f(p1_negated, XBAR) @ report.worst_direction)
    assert slope == pytest.approx(-1.0, abs=1e-9)


def reference_growth(p, xbar, epsilon, beta, n_samples, seed, feas_tol=1e-9):
    """verify_growth as a per-sample loop: the same draws, then one eval_F,
    one dist_psd and one strict-< update per sample."""
    n = p.n
    rng = np.random.default_rng([seed, 2])
    offsets = []
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = epsilon
        offsets.extend((axis.copy(), -axis, 0.5 * axis, -0.5 * axis))
    for _ in range(max(1, n_samples // 10)):
        raw = rng.standard_normal(n)
        nrm = np.linalg.norm(raw)
        if nrm > 0:
            offsets.append(epsilon * raw / nrm)
    for _ in range(n_samples):
        raw = rng.standard_normal(n)
        nrm = np.linalg.norm(raw)
        if nrm == 0:
            continue
        radius = epsilon * rng.uniform() ** (1.0 / n)
        offsets.append(radius * raw / nrm)

    f0 = eval_f(p, xbar)
    min_ratio, worst = math.inf, xbar.copy()
    violations = feasible_samples = feasible_violations = total = 0
    feasible_min_ratio = None
    for off in offsets:
        sq = float(off @ off)
        if sq == 0.0:
            continue
        total += 1
        x = xbar + off
        gap = eval_f(p, x) - f0
        dist = dist_psd(eval_F(p, x))
        ratio = max(gap, dist) / sq
        if ratio < min_ratio:
            min_ratio, worst = ratio, x
        violations += ratio < beta
        if dist <= feas_tol:
            feasible_samples += 1
            fr = gap / sq
            if feasible_min_ratio is None or fr < feasible_min_ratio:
                feasible_min_ratio = fr
            feasible_violations += fr < beta
    return GrowthReport(
        epsilon, beta, total, violations, min_ratio, worst,
        feasible_samples, feasible_violations, feasible_min_ratio,
    )


def samples_for_rows(n, rows):
    """n_samples whose sample rows 4n + max(1, N // 10) + N total `rows`."""
    return next(k for k in range(1, rows) if 4 * n + max(1, k // 10) + k == rows)


def growth_problems():
    rng = np.random.default_rng(23)
    return {
        "p1": build_p1(1.0),
        "p1_negated": build_p1(-1.0),
        "kkt_n3_m4": kkt_consistent_problem(rng, 3, 4),
        "kkt_n5_m3": kkt_consistent_problem(rng, 5, 3),
    }


def assert_same_growth(new, ref):
    assert new.samples == ref.samples
    assert new.violations == ref.violations
    assert new.feasible_samples == ref.feasible_samples
    assert new.feasible_violations == ref.feasible_violations
    assert np.array_equal(new.worst_point, ref.worst_point)
    assert new.min_ratio == pytest.approx(ref.min_ratio, rel=1e-12, abs=0.0)
    if ref.feasible_min_ratio is None:
        assert new.feasible_min_ratio is None
    else:
        assert new.feasible_min_ratio == pytest.approx(
            ref.feasible_min_ratio, rel=1e-12, abs=0.0
        )


@pytest.mark.parametrize("name", ["p1", "p1_negated", "kkt_n3_m4", "kkt_n5_m3"])
@pytest.mark.parametrize("rows", [255, 256, 257, 1000])
def test_verify_growth_matches_per_sample_reference(name, rows):
    p = growth_problems()[name]
    assert (p.F.b is not None) == name.startswith("kkt")
    n_samples = samples_for_rows(p.n, rows)
    for seed, beta, shift in ((0, 0.25, 0.0), (5, 2.0, 0.01)):
        xbar = np.full(p.n, shift)
        new = verify_growth(p, xbar, 0.1, beta, n_samples=n_samples, seed=seed)
        ref = reference_growth(p, xbar, 0.1, beta, n_samples, seed)
        assert new.samples == rows
        assert_same_growth(new, ref)


def test_verify_growth_without_variables():
    p, xbar = problem_from_json(
        {"n": 0, "m": 1, "f": {"c": 0, "g": [], "h": []},
         "F": {"A0": {"m": 1, "lower": [1]}, "A": [], "B": None}, "xbar": []}
    )
    report = verify_growth(p, xbar, epsilon=0.1, beta=0.25, n_samples=100)
    assert report.samples == 0
    assert report.violations == 0
    assert report.min_ratio == math.inf
    assert report.worst_point.shape == (0,)
    assert report.feasible_min_ratio is None
    assert_same_growth(report, reference_growth(p, xbar, 0.1, 0.25, 100, 0))


# -- multiplier search against the scalar reference ------------------------------


def reference_svec(a):
    k = a.shape[0]
    i, j = np.tril_indices(k)
    return np.where(i == j, 1.0, math.sqrt(2.0)) * a[i, j]


def reference_unsvec(vec, k):
    a = np.zeros((k, k))
    i, j = np.tril_indices(k)
    vals = vec / np.where(i == j, 1.0, math.sqrt(2.0))
    a[i, j] = vals
    a[j, i] = vals
    return a


def reference_ascent(objective, z0, max_iters):
    """The coordinate ascent one trial point at a time: scalar objective,
    one norm per point, first improvement in step order."""
    steps = (4.0, 2.0, 1.0, 0.5, 0.2, 0.08, 0.03, 0.01, 0.003)
    z = z0 / np.linalg.norm(z0)
    val = objective(z)
    r = z.size
    for _ in range(max_iters):
        improved = False
        for j in range(r):
            best_val, best_z = val, None
            for s in steps:
                for sign in (1.0, -1.0):
                    zc = z.copy()
                    zc[j] += sign * s
                    nrm = np.linalg.norm(zc)
                    if nrm < 1e-12:
                        continue
                    zc /= nrm
                    v = objective(zc)
                    if v > best_val + 1e-15:
                        best_val, best_z = v, zc
            if best_z is not None:
                z, val = best_z, best_val
                improved = True
        if not improved:
            return z, val, False
    return z, val, True


def reference_multiplier_search(p, xbar, u, d, opts, rng):
    """sosc._multiplier_search on a multiplier null space of dimension
    r >= 2, with scalar interiority and penalized objectives that score one
    point at a time."""
    n = p.n
    omega = list(d.omega)
    k = len(omega)
    gf = grad_f(p, xbar)
    g_dir = dF(p, xbar, u)
    rows = []
    for i in range(n):
        e_i = np.zeros(n)
        e_i[i] = 1.0
        rows.append(np.concatenate(
            ([gf[i]], reference_svec(block(dF(p, xbar, e_i), d, omega, omega)))
        ))
    rows.append(np.concatenate(([0.0], reference_svec(block(g_dir, d, omega, omega)))))
    basis = sosc._null_space(np.vstack(rows))
    r = basis.shape[1]
    assert r >= 2, "the references are meant for multi-dimensional searches"

    def interiority(z):
        vec = basis @ z
        alpha = vec[0]
        if k == 0:
            return float(alpha)
        return float(min(alpha, -np.linalg.eigvalsh(reference_unsvec(vec[1:], k))[-1]))

    fdag = pseudoinverse(d).dense()
    g_dense = g_dir.dense()
    curv_mat = SymMat.from_dense(g_dense @ fdag @ g_dense, check_symmetry=False)
    margin_row = np.concatenate((
        [float(u @ p.f.h @ u)],
        reference_svec(
            block(d2F(p, xbar, u), d, omega, omega) - 2.0 * block(curv_mat, d, omega, omega)
        ),
    ))
    margin_of = basis.T @ margin_row

    hit_cap = False
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
        z, val, capped = reference_ascent(interiority, z0, opts.max_iters)
        hit_cap = hit_cap or capped
        if val > best_interiority:
            best_interiority, z_int = val, z
    if best_interiority < -opts.cert_tol:
        return sosc._SearchOutcome(None, None, best_interiority, hit_cap)
    rho = 1e3 * (1.0 + np.linalg.norm(margin_of))

    def penalized(z):
        return float(margin_of @ z + rho * min(0.0, interiority(z) + 0.5 * opts.cert_tol))

    z_best, best_pen = z_int, penalized(z_int)
    for z0 in [z_int] + [rng.standard_normal(r) for _ in range(7)]:
        z, _, capped = reference_ascent(penalized, z0, opts.max_iters)
        hit_cap = hit_cap or capped
        if interiority(z) >= -opts.cert_tol and penalized(z) > best_pen:
            z_best, best_pen = z, penalized(z)

    vec = basis @ z_best
    alpha = max(float(vec[0]), 0.0)
    w = reference_unsvec(vec[1:], k)
    scale = 1.0 / alpha if alpha > sosc._ALPHA_NORMALIZE else 1.0 / math.hypot(
        alpha, np.linalg.norm(w)
    )
    alpha *= scale
    w = w * scale
    ystar = sosc._embed_omega(d, w)
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
        stationarity_residual=float(np.linalg.norm(lagrangian_grad(p, alpha, xbar, ystar))),
        normal_cone_slack=max(slack_terms),
    )
    margin = sosc_margin(p, xbar, u, cand, tol=opts.tol, d=d)
    return sosc._SearchOutcome(cand, margin, best_interiority, hit_cap)


def multiplier_workload_problem(rng):
    """n = 1, m = 3, f = h x^2 / 2, F(0) = diag(lam, 0, 0) and A1 with kernel
    block 2I: the only critical direction is +1 and W is forced to 0 on a
    multi-dimensional multiplier null space."""
    h = float(rng.uniform(0.5, 2.0))
    lam = float(rng.uniform(0.5, 2.0))
    a1 = np.diag([float(rng.uniform(-1.0, 1.0)), 2.0, 2.0])
    a1[0, 1:] = a1[1:, 0] = rng.uniform(-1.0, 1.0, 2)
    f = QuadraticScalar(c=0.0, g=np.zeros(1), h=np.array([[h]]))
    cap = QuadraticMatrixMap(a0=SymMat.diagonal([lam, 0.0, 0.0]), a=(SymMat.from_dense(a1),))
    return NlsdpProblem(n=1, m=3, f=f, F=cap)


# The false refutation on record: f = |x|^2 / 2 at its global minimiser 0,
# where alpha = 1, Ystar = 0 gives margin |u|^2 > 0 on every direction, yet
# check-sosc --dirs 16 reports FAILED_AT_DIRECTION at 50 degrees.
FALSE_REFUTATION = {
    "n": 2, "m": 3, "f": {"c": 0, "g": [0, 0], "h": [1, 0, 1]},
    "F": {"A0": {"m": 3, "lower": [1, 0, 0, 0, 0, 0]},
          "A": [{"m": 3, "lower": [0, 1, 2, 0, 0, 2]},
                {"m": 3, "lower": [1, 0, 0, 1, 1, -1]}],
          "B": None},
    "xbar": [0, 0],
}
FALSE_REFUTATION_DIRECTION = np.array(
    [math.cos(math.radians(50.0)), math.sin(math.radians(50.0))]
)


def tangent_boundary_direction(p):
    """Unit u in R^2 on the boundary of the tangent cone at 0: the
    omega-omega block of dF(u) is PSD and singular.  Bisects between the
    angles of the largest and smallest least eigenvalue on a 1-degree grid."""
    d = eigen_decompose(eval_F(p, np.zeros(2)))
    omega = list(d.omega)

    def least(theta):
        u = np.array([math.cos(theta), math.sin(theta)])
        return np.linalg.eigvalsh(block(dF(p, np.zeros(2), u), d, omega, omega))[0]

    grid = np.radians(np.arange(360.0))
    values = [least(t) for t in grid]
    inside, outside = grid[int(np.argmax(values))], grid[int(np.argmin(values))]
    assert least(inside) > 0 > least(outside)
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        if least(mid) >= 0:
            inside = mid
        else:
            outside = mid
    return np.array([math.cos(inside), math.sin(inside)])


def multiplier_search_cases():
    """(problem, xbar, direction) with multiplier null spaces of dimension
    r >= 2: both multiplier-workload shapes, which find a certificate after
    the penalized polish; two KKT-consistent problems with a 3-dimensional
    kernel at a tangent direction, where no multiplier exists; and the false
    refutation at its failing direction, where the search misses one."""
    rng = np.random.default_rng(41)
    cases = [(multiplier_workload_problem(rng), np.zeros(1), np.ones(1)) for _ in range(2)]
    for seed in (1, 3):
        p = kkt_consistent_problem(np.random.default_rng(seed), 2, 5)
        cases.append((p, np.zeros(2), tangent_boundary_direction(p)))
    p, xbar = problem_from_json(FALSE_REFUTATION)
    cases.append((p, xbar, FALSE_REFUTATION_DIRECTION))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_multiplier_search_matches_scalar_reference(case):
    p, xbar, u = multiplier_search_cases()[case]
    opts = SoscOptions(seed=4)
    d = eigen_decompose(eval_F(p, xbar), opts.rank_tol)
    new = sosc._multiplier_search(p, xbar, u, d, opts, np.random.default_rng([4, 0]))
    ref = reference_multiplier_search(p, xbar, u, d, opts, np.random.default_rng([4, 0]))
    assert (new.candidate is None) == (case >= 2)
    assert new.best_interiority == ref.best_interiority
    assert new.hit_cap == ref.hit_cap
    assert new.margin == ref.margin
    if ref.candidate is None:
        assert new.candidate is None
        return
    assert new.candidate.alpha == ref.candidate.alpha
    assert np.array_equal(new.candidate.ystar.lower, ref.candidate.ystar.lower)
    assert new.candidate.stationarity_residual == ref.candidate.stationarity_residual
    assert new.candidate.normal_cone_slack == ref.candidate.normal_cone_slack


def test_coordinate_ascent_skips_zero_trial_points():
    # from e_0, the step -1 along coordinate 0 lands on the origin, which
    # cannot be normalized and is left out of the scored batch
    sizes = []

    def objective(zs):
        sizes.append(len(zs))
        return zs[:, 1] - np.abs(zs[:, 0] - 0.6)

    z0 = np.array([1.0, 0.0])
    new = sosc._coordinate_ascent(objective, z0, 50)
    ref = reference_ascent(lambda z: float(objective(z[None])[0]), z0, 50)
    assert sizes[:3] == [1, 17, 18]
    assert np.array_equal(new[0], ref[0])
    assert new[1:] == ref[1:]


def test_coordinate_ascent_keeps_the_first_of_near_ties():
    # plateaus whose values differ by less than the 1e-15 acceptance margin:
    # the first improving step in step order wins, not the largest value
    def objective(zs):
        return np.round(3.0 * zs[:, 1], 0) + 4e-16 * zs[:, 0] * zs[:, 2]

    for z0 in np.random.default_rng(8).standard_normal((6, 3)):
        new = sosc._coordinate_ascent(objective, z0, 50)
        ref = reference_ascent(lambda z: float(objective(z[None])[0]), z0, 50)
        assert np.array_equal(new[0], ref[0])
        assert new[1:] == ref[1:]


@pytest.mark.xfail(
    strict=True,
    reason="false refutation: the coordinate ascent never steps below 0.003, so "
    "it cannot reach the multiplier alpha = 1, Ystar = 0 within cert_tol",
)
def test_global_minimiser_is_not_refuted():
    p, xbar = problem_from_json(FALSE_REFUTATION)
    assert check_sosc(p, xbar, SoscOptions(n_dirs=16)).verdict == VERIFIED_SAMPLED
