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
from nsdpcheck.nlsdp import dF, lagrangian_grad

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
    assert ok.violations == 0
    refuted = verify_growth(
        p1_negated, XBAR, epsilon=0.1, beta=0.0, n_samples=500, seed=1
    )
    # the descent axis gives strictly negative numerators
    assert refuted.min_ratio < 0.0 or refuted.violations == 0


def test_verify_growth_consistency_with_report_fields(p1):
    report = verify_growth(p1, XBAR, epsilon=0.05, beta=0.3, n_samples=800, seed=2)
    assert (report.violations == 0) == (report.min_ratio >= report.beta)
    assert math.isfinite(report.min_ratio)
    with pytest.raises(ValueError):
        verify_growth(p1, XBAR, epsilon=-1.0, beta=0.1)


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
