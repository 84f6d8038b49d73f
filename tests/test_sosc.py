"""Critical cone sampling, multiplier search, margins, verdicts and growth."""

import dataclasses
import json
import math
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from nsdpcheck import cli, sosc, symmat
from nsdpcheck.cone import DEFAULT_TOL, dist_psd_batch, normal_cone_residual
from nsdpcheck.cone import tangent_cone_contains
from nsdpcheck.nlsdp import _quadratic_rows, dF, d2F, eval_F_batch, eval_f_batch
from nsdpcheck.nlsdp import adjoint_dF, lagrangian_grad, lagrangian_hess_form
from nsdpcheck.subderivative import second_subderivative
from nsdpcheck.symmat import block, frobenius_norms, lower_to_dense, pseudoinverse, svec

from conftest import build_p1, build_trivial_cone, kkt_consistent_problem, linalg_calls
from conftest import random_orthogonal, random_psd, random_symmat
from oracles import pair_block_distances, row_block_distances, row_distance_screen

XBAR = np.zeros(2)
FAST = {"n_dirs": 64}


def test_critical_cone_p1_examples(p1):
    assert critical_cone_contains(p1, XBAR, [1.0, 0.0])
    assert critical_cone_contains(p1, XBAR, [-1.0, 0.0])
    assert not critical_cone_contains(p1, XBAR, [0.0, 1.0])  # objective increases
    assert not critical_cone_contains(p1, XBAR, [0.0, -1.0])  # leaves the tangent cone
    assert critical_cone_contains(p1, XBAR, [0.0, 0.0])


def test_critical_cone_slope_tolerance_scales_with_norm(p1):
    # slope 5e-8 against tol * max(1, |u|) with tol = 1e-8
    assert critical_cone_contains(p1, XBAR, [10.0, 5e-8])
    assert not critical_cone_contains(p1, XBAR, [1.0, 5e-8])


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


def reference_critical_contains(p, xbar, u, tol, d):
    """The critical-cone test of one direction as a chain of single calls:
    the objective slope, then dF(u) and the tangent-cone block test."""
    slope = float(grad_f(p, xbar) @ u)
    if slope > tol * max(1.0, float(np.linalg.norm(u))):
        return False
    return tangent_cone_contains(d, dF(p, xbar, u), tol)


def reference_candidates(n, n_dirs, seed, axis_repeats=False):
    """The sampler's candidates one at a time: the axes, math-module grids
    and one normal draw and one np.linalg.norm per random candidate.  With
    axis_repeats, the grid points that repeat an axis and the draws at
    n = 1 stay in, as the sampler took them when a dedup pass followed."""
    candidates = []
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = 1.0
        candidates.extend((axis.copy(), -axis))
    if n == 2:
        for deg in np.arange(0.0, 360.0, 2.0):
            if deg % 90.0 or axis_repeats:
                a = math.radians(deg)
                candidates.append(np.array([math.cos(a), math.sin(a)]))
    elif n == 3:
        for theta_deg in np.arange(10.0, 180.0, 10.0):
            theta = math.radians(theta_deg)
            for phi_deg in np.arange(0.0, 360.0, 10.0):
                if theta_deg == 90.0 and phi_deg % 90.0 == 0.0 and not axis_repeats:
                    continue
                phi = math.radians(phi_deg)
                candidates.append(np.array([
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                ]))
    if n >= 2 or axis_repeats:
        rng = np.random.default_rng([seed, 1])
        for _ in range(n_dirs):
            raw = rng.standard_normal(n)
            nrm = np.linalg.norm(raw)
            if nrm > 0:
                candidates.append(raw / nrm)
    return candidates


def reference_critical_directions(p, xbar, n_dirs, seed, tol=1e-8, axis_repeats=False):
    """sample_critical_directions one candidate at a time: one
    reference_critical_contains call per reference candidate."""
    d = eigen_decompose(eval_F(p, xbar))
    return [
        u for u in reference_candidates(p.n, n_dirs, seed, axis_repeats)
        if reference_critical_contains(p, xbar, u, tol, d)
    ]


def greedy_dedup(dirs, angle=1e-3):
    """The dedup pass that the sampler used to end with: each direction is
    dropped within the angle of an earlier kept one."""
    kept = []
    for u in dirs:
        if not any(float(u @ v) > math.cos(angle) for v in kept):
            kept.append(u)
    return kept


def sampler_problems():
    """(name, problem, xbar): the fixtures, an interior point whose cone is
    the whole space, no variables at all, and KKT-consistent problems."""
    cap = QuadraticMatrixMap(a0=SymMat.identity(2), a=build_p1().F.a)
    full_sphere = NlsdpProblem(
        n=2, m=2, f=QuadraticScalar(c=1.0, g=np.zeros(2), h=np.zeros((2, 2))), F=cap
    )
    no_variables, empty_xbar = problem_from_json(
        {"n": 0, "m": 1, "f": {"c": 0, "g": [], "h": []},
         "F": {"A0": {"m": 1, "lower": [0]}, "A": [], "B": None}, "xbar": []}
    )
    cases = [
        ("p1", build_p1(1.0), XBAR),
        ("p1_negated", build_p1(-1.0), XBAR),
        ("trivial_cone", build_trivial_cone(), np.zeros(1)),
        ("full_sphere", full_sphere, XBAR),
        ("no_variables", no_variables, empty_xbar),
    ]
    for seed in (5, 6):
        rng = np.random.default_rng(seed)
        for n in range(1, 8):
            cases.append((f"kkt_n{n}_s{seed}", kkt_consistent_problem(rng, n, n + 2), np.zeros(n)))
    return cases


@pytest.mark.parametrize("case", range(19))
def test_sample_directions_match_per_candidate_reference(case):
    name, p, xbar = sampler_problems()[case]
    new = sample_critical_directions(p, xbar, n_dirs=64, seed=3)
    ref = reference_critical_directions(p, xbar, 64, 3)
    assert len(new) == len(ref), name
    assert all(np.array_equal(u, v) for u, v in zip(new, ref)), name
    # single directions, some of them off the unit sphere
    d = eigen_decompose(eval_F(p, xbar))
    eye = np.eye(p.n)
    scaled = 3.0 * np.random.default_rng(case).standard_normal((8, p.n))
    for u in np.vstack((eye, -eye, scaled)):
        expect = reference_critical_contains(p, xbar, u, 1e-8, d)
        assert critical_cone_contains(p, xbar, u, d=d) == expect, (name, u)


@pytest.mark.parametrize("case", range(19))
def test_sample_directions_repeat_nothing(case):
    # the candidates hold no duplicates, so the sampler needs no dedup pass:
    # it keeps every direction that the pass kept, plus near-duplicates of
    # them among the sphere draws
    name, p, xbar = sampler_problems()[case]
    new = sample_critical_directions(p, xbar, n_dirs=64, seed=3)
    assert len({tuple(u) for u in new}) == len(new), name
    if p.n == 1:
        assert {tuple(u) for u in new} <= {(1.0,), (-1.0,)}, name
    deduped = greedy_dedup(reference_critical_directions(p, xbar, 64, 3, axis_repeats=True))
    kept = greedy_dedup(new)
    assert len(kept) == len(deduped), name
    assert all(np.array_equal(u, v) for u, v in zip(kept, deduped)), name


def reference_linearized_rows(p, xbar, d):
    """sosc._linearized_rows one axis at a time: row i is grad f . e_i and
    svec of the omega-omega block of dF(e_i)."""
    omega = list(d.omega)
    gf = grad_f(p, xbar)
    rows = np.empty((p.n, 1 + len(omega) * (len(omega) + 1) // 2))
    for i, e_i in enumerate(np.eye(p.n)):
        rows[i, 0] = gf[i]
        rows[i, 1:] = svec(block(dF(p, xbar, e_i), d, omega, omega))
    return rows


def reference_margin_row(p, xbar, u, d):
    """The margin's coefficient row in (alpha, svec W) for one direction,
    built from dF(u), d2F(u) and pinv(F):
    (u.h.u, svec((d2F(u) - 2 dF(u) pinv(F) dF(u))_omega,omega))."""
    omega = list(d.omega)
    g = dF(p, xbar, u).dense()
    curv = SymMat.from_dense(g @ pseudoinverse(d).dense() @ g, check_symmetry=False)
    quad = block(d2F(p, xbar, u), d, omega, omega) - 2.0 * block(curv, d, omega, omega)
    return np.concatenate(([float(u @ p.f.h @ u)], svec(quad)))


def linearized_map_cases():
    """(name, problem, xbar): sampler_problems() (p1 and its negation, the
    trivial cone, an interior point with empty omega, n = 0, KKT-consistent
    problems with B), the other tests/data fixtures, and p1 with
    B_11 = [[0, 0], [0, 0.6]]."""
    cases = sampler_problems()
    for name in ("false_refutation", "p1", "p1_negated", "trivial_cone"):
        doc = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
        cases.append((f"data/{name}", *problem_from_json(doc)))
    p1 = build_p1()
    quad = np.zeros((2, 2, 3))
    quad[0, 0, 2] = 0.6
    cap = QuadraticMatrixMap(a0=p1.F.a0, a=p1.F.a, b=quad)
    cases.append(("p1_b", NlsdpProblem(n=2, m=2, f=p1.f, F=cap), XBAR))
    return cases


def assert_close(new, ref):
    assert new.shape == ref.shape
    assert np.abs(new - ref).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(ref).max(initial=0.0))


@pytest.mark.parametrize("case", range(24))
def test_linearized_map_matches_per_axis_reference(case):
    _, p, xbar = linearized_map_cases()[case]
    d = eigen_decompose(eval_F(p, xbar))
    rows = sosc._linearized_rows(p, xbar, d)
    assert_close(rows, reference_linearized_rows(p, xbar, d))
    coeffs = sosc._margin_coefficients(p, xbar, d)
    assert coeffs.shape == (p.n, p.n, rows.shape[1] - 1)
    omega = list(d.omega)
    us = np.vstack((np.eye(p.n), np.random.default_rng(case).standard_normal((6, p.n))))
    for u in us:
        # the search's orthogonality row and phase-II objective, per direction
        assert_close((u @ rows)[1:], svec(block(dF(p, xbar, u), d, omega, omega)))
        new = np.concatenate(([u @ p.f.h @ u], np.einsum("a,b,abl->l", u, u, coeffs)))
        assert_close(new, reference_margin_row(p, xbar, u, d))


def test_linearized_map_is_one_contraction(monkeypatch):
    # neither matrix is built from per-axis dF, eigenbasis-block or pinv calls
    p, xbar = kkt_consistent_problem(np.random.default_rng(0), 3, 9), np.zeros(3)
    d = eigen_decompose(eval_F(p, xbar))
    k = len(d.omega)
    for module in (sosc, symmat):
        for name in ("dF", "block", "split_blocks", "conjugate", "pseudoinverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, None)
    assert sosc._linearized_rows(p, xbar, d).shape == (3, 1 + k * (k + 1) // 2)
    assert sosc._margin_coefficients(p, xbar, d).shape == (3, 3, k * (k + 1) // 2)


def _kkt_at_rank(rng, n, m, rank):
    """A KKT point at the origin, as in kkt_consistent_problem, with F(0) of
    the given rank (0 empties pi, m empties omega) and A_1 = 0, so that the
    axis e_1 is critical."""
    base = kkt_consistent_problem(rng, n, m)
    a = base.F.a.copy()
    a[0] = 0.0
    cap = QuadraticMatrixMap(a0=random_psd(rng, m, rank), a=a, b=base.F.b)
    p_omega = eigen_decompose(cap.a0).p_matrix[rank:]
    ystar = SymMat.from_dense(-p_omega.T @ p_omega, check_symmetry=False)
    g = -adjoint_dF(NlsdpProblem(n=n, m=m, f=base.f, F=cap), np.zeros(n), ystar)
    return NlsdpProblem(n=n, m=m, f=QuadraticScalar(c=0.0, g=g, h=base.f.h), F=cap)


@pytest.mark.parametrize("rank", [0, 2, 4])
def test_margin_is_hessian_form_plus_subderivative(rank):
    # one curvature route: every certificate's margin is the Lagrangian's
    # Hessian form plus the second subderivative, bit for bit, and its slack
    # bounds the normal-cone residual of its multiplier
    rng = np.random.default_rng(61 + rank)
    seen = 0
    for _ in range(5):
        n, m = int(rng.integers(2, 6)), 4
        p, xbar = _kkt_at_rank(rng, n, m, rank), np.zeros(n)
        report = check_sosc(p, xbar, n_dirs=32)
        d = report.decomposition
        assert (len(d.pi), len(d.omega)) == (rank, m - rank)
        for cert in report.certificates:
            cand, u = cert.candidate, cert.direction
            cross_tol = max(DEFAULT_TOL, 10.0 * cand.normal_cone_slack + 1e-12)
            sub = second_subderivative(d, cand.ystar, dF(p, xbar, u), cross_tol)
            hess = lagrangian_hess_form(p, cand.alpha, xbar, cand.ystar, u)
            assert cert.margin == hess + sub
            assert sosc_margin(p, xbar, u, cand, d=d) == cert.margin
            assert cand.normal_cone_slack >= normal_cone_residual(d, cand.ystar)
            seen += 1
    assert seen >= 10


def test_check_sosc_samples_through_the_public_sampler(monkeypatch, p1):
    # a tracer that wraps sample_critical_directions by name sees each check
    calls = []
    sampler = sosc.sample_critical_directions

    def counted(*args, **kwargs):
        calls.append(args)
        return sampler(*args, **kwargs)

    monkeypatch.setattr(sosc, "sample_critical_directions", counted)
    report = check_sosc(p1, XBAR, **FAST)
    assert len(calls) == 1
    assert report.directions_checked == 2


def test_sample_directions_eigvalsh_calls_do_not_grow_with_candidates(monkeypatch, p1):
    # one stacked eigvalsh tests every candidate that passes the slope test;
    # one call per such candidate grew with n_dirs
    d = eigen_decompose(eval_F(p1, XBAR))
    counts = [
        linalg_calls(monkeypatch, lambda: sample_critical_directions(p1, XBAR, n_dirs=k, d=d))
        for k in (64, 4096)
    ]
    assert counts[0]["eigvalsh"] == counts[1]["eigvalsh"] == 1


def test_find_multiplier_p1(p1):
    cand = find_multiplier(p1, XBAR, np.array([1.0, 0.0]))
    assert cand is not None
    assert cand.alpha == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cand.ystar.dense(), np.diag([0.0, -1.0]), atol=1e-9)
    assert cand.stationarity_residual <= 1e-10
    assert cand.normal_cone_slack <= 1e-10


def test_find_multiplier_rejects_non_critical_direction():
    # the margin's subderivative route is +inf off the cone; the search used
    # to end in its ToleranceAnomalyError
    p = kkt_consistent_problem(np.random.default_rng(0), 3, 9)
    u = np.random.default_rng(5).standard_normal(3)
    u /= np.linalg.norm(u)
    assert not critical_cone_contains(p, np.zeros(3), u)
    with pytest.raises(ValueError, match="direction is not in the critical cone"):
        find_multiplier(p, np.zeros(3), u)


def test_find_multiplier_absent_for_descent_direction(p1_negated):
    assert find_multiplier(p1_negated, XBAR, np.array([0.0, 1.0])) is None
    assert find_multiplier(p1_negated, XBAR, np.array([1.0, 0.0])) is None


def test_find_multiplier_interior_point():
    a = build_p1().F.a
    cap = QuadraticMatrixMap(a0=SymMat.identity(2), a=a)
    stationary = NlsdpProblem(
        n=2, m=2, f=QuadraticScalar(c=0.0, g=np.zeros(2), h=np.eye(2)), F=cap
    )
    cand = find_multiplier(stationary, XBAR, np.array([1.0, 0.0]))
    assert cand is not None and cand.alpha == pytest.approx(1.0)
    assert cand.ystar.norm() <= 1e-12

    sloped = NlsdpProblem(
        n=2, m=2, f=QuadraticScalar(c=0.0, g=np.array([1.0, 0.0]), h=np.eye(2)), F=cap
    )
    assert find_multiplier(sloped, XBAR, np.array([0.0, 1.0])) is None


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
    report = check_sosc(p1, XBAR, **FAST)
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
    report = check_sosc(p1_negated, XBAR, **FAST)
    assert report.verdict == FAILED_AT_DIRECTION
    assert np.linalg.norm(report.worst_direction - np.array([0.0, 1.0])) < 0.05


@pytest.mark.parametrize("h, verdict", [(-1.0, FAILED_AT_DIRECTION), (1.0, VERIFIED_SAMPLED)])
def test_worst_direction_is_the_first_of_equal_keys(h, verdict):
    # F = [1] leaves omega empty: both axes carry the multiplier alpha = 1
    # with margin h and slope 0, so their keys tie and the first axis wins
    f = QuadraticScalar(c=0.0, g=np.zeros(1), h=np.array([[h]]))
    p = NlsdpProblem(n=1, m=1, f=f, F=QuadraticMatrixMap(a0=SymMat.identity(1), a=[[0.0]]))
    report = check_sosc(p, np.zeros(1), n_dirs=8)
    assert report.verdict == verdict
    assert [cert.margin for cert in report.certificates] == [h, h]
    assert report.worst_direction.tolist() == [1.0]


def test_check_sosc_trivial_cone():
    report = check_sosc(build_trivial_cone(), np.zeros(1), **FAST)
    assert report.verdict == CRITICAL_CONE_TRIVIAL
    assert report.directions_checked == 0


def test_check_sosc_inconclusive_on_exhausted_search(monkeypatch):
    # F(x) = x1 [[0, 1], [1, 0]] + x2 diag(1, 2) at 0 forces W = w diag(2, -1):
    # the one multiplier ray is alpha > 0, W = 0, while the search's start,
    # the least-norm point of trace 1, has W = -diag(1, -1/2) / 3 and so
    # lambda_min(G0) = -1/6, so phase I must run and the cap stops it
    f = QuadraticScalar(c=0.0, g=np.zeros(2), h=np.eye(2))
    swap = SymMat.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cap = QuadraticMatrixMap(a0=SymMat.zeros(2), a=[swap.lower, SymMat.diagonal([1.0, 2.0]).lower])
    p = NlsdpProblem(n=2, m=2, f=f, F=cap)
    with monkeypatch.context() as patch:
        patch.setattr(sosc, "_MAX_NEWTON_STEPS", 0)
        report = check_sosc(p, np.zeros(2), n_dirs=4, seed=5)
    assert report.verdict == INCONCLUSIVE

    # F(x) = x diag(1, 0) at 0 starts inside phase II's set, so the cap
    # stops nothing; with a real search budget it fails honestly as well:
    # every feasible point is optimal but none strictly, the margin is 0
    f = QuadraticScalar(c=0.0, g=np.zeros(1), h=np.zeros((1, 1)))
    cap = QuadraticMatrixMap(a0=SymMat.zeros(2), a=[SymMat.diagonal([1.0, 0.0]).lower])
    p = NlsdpProblem(n=1, m=2, f=f, F=cap)
    with monkeypatch.context() as patch:
        patch.setattr(sosc, "_MAX_NEWTON_STEPS", 0)
        report = check_sosc(p, np.zeros(1), n_dirs=4, seed=5)
    assert report.verdict == FAILED_AT_DIRECTION

    report = check_sosc(p, np.zeros(1), n_dirs=4)
    assert report.verdict == FAILED_AT_DIRECTION
    assert report.min_margin == pytest.approx(0.0, abs=1e-12)


def test_check_sosc_rejects_infeasible_point(p1):
    with pytest.raises(InfeasiblePointError) as err:
        check_sosc(p1, np.array([0.0, -0.5]), **FAST)
    assert err.value.distance > 0.1


def test_certificate_soundness_on_random_problems(p1):
    rng = np.random.default_rng(7)
    problems = [(p1, np.zeros(2))]
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        problems.append((kkt_consistent_problem(rng, n, m), np.zeros(n)))
    found = 0
    for p, xbar in problems:
        d = eigen_decompose(eval_F(p, xbar))
        report = check_sosc(p, xbar, n_dirs=8, seed=3)
        for cert in report.certificates:
            cand = cert.candidate
            found += 1
            assert cand.stationarity_residual <= sosc._CERT_TOL
            assert cand.normal_cone_slack <= sosc._CERT_TOL
            assert max(cand.alpha, cand.ystar.norm()) > sosc._CERT_TOL
            assert normal_cone_contains(d, cand.ystar, 10 * sosc._CERT_TOL)
            g = dF(p, xbar, cert.direction)
            assert abs(frobenius_inner(cand.ystar, g)) <= 10 * sosc._CERT_TOL
            assert np.linalg.norm(
                lagrangian_grad(p, cand.alpha, xbar, cand.ystar)
            ) <= sosc._CERT_TOL
    assert found >= 5


def test_check_sosc_deterministic(p1_negated):
    r1 = check_sosc(p1_negated, XBAR, n_dirs=32, seed=11)
    r2 = check_sosc(p1_negated, XBAR, n_dirs=32, seed=11)
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
    report = check_sosc(p1_negated, XBAR, n_dirs=256, seed=3)
    slope = float(grad_f(p1_negated, XBAR) @ report.worst_direction)
    assert slope == pytest.approx(-1.0, abs=1e-9)


def reference_offsets(n, epsilon, n_samples, seed):
    """The growth samples' offsets from xbar, scaled one at a time: axis
    points, then sphere and ball points, each normalised by its own
    np.linalg.norm.  The draws are those of _growth_offsets: every normal
    at once, then every ball radius epsilon u^(1/n) at once."""
    rng = np.random.default_rng([seed, 2])
    n_boundary = max(1, n_samples // 10)
    raws = rng.standard_normal((n_boundary + n_samples, n))
    radii = [epsilon] * n_boundary
    if n:
        radii.extend(epsilon * rng.random(n_samples) ** (1.0 / n))
    offsets = []
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = epsilon
        offsets.extend((axis.copy(), -axis, 0.5 * axis, -0.5 * axis))
    for raw, radius in zip(raws, radii):
        nrm = np.linalg.norm(raw)
        if nrm > 0:
            offsets.append(radius * raw / nrm)
    return offsets


def reference_growth(p, xbar, epsilon, beta, n_samples, seed, feas_tol=1e-9):
    """verify_growth as a per-sample loop: the draws of reference_offsets,
    then one eval_F, one dist_psd and one strict-< update per sample."""
    offsets = reference_offsets(p.n, epsilon, n_samples, seed)
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


def assert_offsets_match_reference(n, epsilon, n_samples, seed):
    new = sosc._growth_offsets(np.random.default_rng([seed, 2]), n, epsilon, n_samples)
    ref = reference_offsets(n, epsilon, n_samples, seed)
    ref = np.array(ref, dtype=float).reshape(len(ref), n)
    assert new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12, 20])
def test_growth_offsets_match_per_sample_draws(n):
    for epsilon in (1e-3, 0.1, 10.0):
        for n_samples in (1, 9, 10, 11, 255, 1000):
            for seed in range(4):
                assert_offsets_match_reference(n, epsilon, n_samples, seed)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(0, 24),
    epsilon=st.floats(1e-6, 1e3),
    n_samples=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_growth_offsets_match_per_sample_draws_property(n, epsilon, n_samples, seed):
    assert_offsets_match_reference(n, epsilon, n_samples, seed)


def test_growth_samples_lie_on_the_sphere_and_in_the_ball():
    # checked apart from reference_offsets, which draws as _growth_offsets does
    for n in (1, 2, 6, 20):
        xs = sosc._growth_offsets(np.random.default_rng([4, 2]), n, 0.3, 2000)
        assert xs.shape == (4 * n + 200 + 2000, n)
        norms = np.linalg.norm(xs[4 * n :], axis=1)
        assert norms[:200] == pytest.approx(np.full(200, 0.3), rel=4 * np.finfo(float).eps)
        assert (norms[200:] <= 0.3 * (1 + 4 * np.finfo(float).eps)).all()


@pytest.mark.parametrize("n", [1, 2, 6])
def test_growth_ball_radii_follow_the_uniform_law(n):
    # in the epsilon-ball of R^n, P(|x| <= r) = (r / epsilon)^n: the
    # Kolmogorov-Smirnov statistic of 10k radii stays below 1.95 / sqrt(10k),
    # its 0.1% critical value; the power 1/(n + 1) in place of 1/n reads 0.05
    # or more at these n
    epsilon, n_samples = 0.3, 10_000
    xs = sosc._growth_offsets(np.random.default_rng([7, 2]), n, epsilon, n_samples)
    radii = np.sort(np.linalg.norm(xs[-n_samples:], axis=1))
    cdf = (radii / epsilon) ** n
    steps = np.arange(1, n_samples + 1) / n_samples
    ks = max((steps - cdf).max(), (cdf - steps + 1 / n_samples).max())
    assert ks < 1.95 / math.sqrt(n_samples)


def test_cli_growth_distance_overflow_exits_quietly(tmp_path, capsys):
    # F(x) = -1e200 x: on x > 0 the distance is about 1e200 x, whose square
    # overflowed to an infinite distance with a RuntimeWarning
    problem = {
        "n": 1, "m": 1, "f": {"c": 0, "g": [0], "h": [2]},
        "F": {"A0": {"m": 1, "lower": [0]}, "A": [{"m": 1, "lower": [-1e200]}], "B": None},
        "xbar": [0],
    }
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(
            ["growth", str(path), "--epsilon", "0.1", "--beta", "0.1", "--json", str(out)]
        )
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert result["violations"] == 0 and result["min_ratio"] == 1.0
    assert 0 < result["feasible_samples"] < result["samples"]


def test_verify_growth_norm_calls_do_not_grow_with_samples(monkeypatch, p1):
    # the draws are squared by one stacked row product; a per-sample
    # np.linalg.norm would add one call per draw
    counts = [
        linalg_calls(monkeypatch, lambda: verify_growth(p1, XBAR, 0.1, 0.25, n_samples=k))
        for k in (100, 5000)
    ]
    assert counts[0]["norm"] == counts[1]["norm"]
    assert counts[0]["eigvalsh"] < counts[1]["eigvalsh"]  # the counter sees calls


def growth_screen_problem(rng, n, m, kind, quadratic, shift):
    """Random problem and xbar for the growth screen.  F(xbar) is singular
    (rank 0 to m - 1), 0 ("flat", so k = m), nonsingular or not PSD.  Two
    singular kinds are bordered by a block that the kernel of F(xbar) does
    not see: "huge" by a 1 x 1 block near 1e150 in every coefficient,
    "overflow" by A0's 2 x 2 block 1.5e308 I, whose Frobenius norm
    overflows.  A smaller m is raised to the border plus 1.  "tiny" is singular with every coefficient near
    1e-161, where the squares of the matching bound's closed form are subnormal.
    F is centred on xbar, so F(xbar) has the chosen spectrum."""
    corner = {"huge": 1, "overflow": 2}.get(kind, 0)
    m = max(m, corner + 1)
    size = m - corner
    lam = rng.uniform(1.0, 2.0, size)
    if kind == "not_psd":
        lam[rng.integers(0, size) :] *= -1.0
    elif kind != "nonsingular":
        lam[0 if kind == "flat" else rng.integers(0, size) :] = 0.0
    q = random_orthogonal(rng, size)
    a0 = (q * lam) @ q.T
    a = [random_symmat(rng, size).dense() for _ in range(n)]
    b = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            b[i][j] = b[j][i] = random_symmat(rng, size, 0.5).dense() * quadratic
    if kind == "tiny":
        a0, a = 1e-161 * a0, [1e-161 * ai for ai in a]
        b = [[1e-161 * bij for bij in row] for row in b]
    if corner:
        def border(mat, scale):
            out = np.zeros((m, m))
            out[:corner, :corner], out[corner:, corner:] = scale * np.eye(corner), mat
            return out

        huge = kind == "huge"
        a0 = border(a0, 1e150 if huge else 1.5e308)
        a = [border(ai, float(rng.uniform(-1e150, 1e150)) * huge) for ai in a]
        b = [[border(bij, 1e149 * quadratic * huge) for bij in row] for row in b]
    lower = np.tril_indices(m)
    a0, a, b = a0[lower], np.array([ai[lower] for ai in a]), np.array(
        [[bij[lower] for bij in row] for row in b]
    ).reshape(n, n, len(lower[0]))
    xbar = rng.uniform(-shift, shift, n)
    # F(x) = G(x - xbar) for the map G with coefficients (a0, a, b)
    a0 = a0 - xbar @ a + 0.5 * np.einsum("i,j,ijl->l", xbar, xbar, b)
    a = a - np.tensordot(xbar, b, 1)
    h = rng.uniform(-1.0, 1.0, (n, n))
    f = QuadraticScalar(c=0.0, g=rng.uniform(-1.0, 1.0, n), h=h + h.T)
    cap_f = QuadraticMatrixMap(a0=SymMat(m, a0), a=a, b=b if quadratic else None)
    return NlsdpProblem(n=n, m=m, f=f, F=cap_f), xbar


def unscreened_growth(p, xbar, epsilon, beta, n_samples, seed):
    """verify_growth without the screen: the full distance of every sample,
    from F evaluated in the same blocks of sosc._GROWTH_BLOCK samples."""
    xs = sosc._growth_offsets(np.random.default_rng([seed, 2]), p.n, epsilon, n_samples)
    sq = (xs[:, None, :] @ xs[:, :, None]).reshape(len(xs))
    xs, sq = (xs + xbar)[sq != 0.0], sq[sq != 0.0]
    gaps = eval_f_batch(p, xs) - eval_f(p, xbar)
    block = sosc._GROWTH_BLOCK
    dists = np.concatenate(
        [dist_psd_batch(p.m, eval_F_batch(p, xs[i : i + block])) for i in range(0, len(xs), block)]
        or [np.empty(0)]
    )
    ratios = np.where(dists > gaps, dists, gaps) / sq
    feasible = dists <= sosc._GROWTH_FEAS_TOL
    k = int(np.argmin(ratios)) if len(xs) else None
    fr = gaps[feasible] / sq[feasible]
    return GrowthReport(
        epsilon, beta, len(xs), int(np.count_nonzero(ratios < beta)),
        math.inf if k is None else float(ratios[k]), xbar.copy() if k is None else xs[k],
        len(fr), int(np.count_nonzero(fr < beta)), float(fr.min()) if len(fr) else None,
    )


def assert_identical_growth(new, ref):
    for field in dataclasses.fields(GrowthReport):
        a, b = getattr(new, field.name), getattr(ref, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 12),
    kind=st.sampled_from(["singular", "nonsingular", "not_psd", "huge", "overflow", "tiny"]),
    quadratic=st.booleans(),
    shift=st.sampled_from([0.0, 0.05]),
    epsilon=st.sampled_from([0.01, 0.1, 1.0]),
    beta=st.sampled_from([0.0, 0.01, 2.0, 1e3]),
    n_samples=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, m=12, kind="flat", quadratic=True, shift=0.05, epsilon=0.1, beta=0.01,
         n_samples=700, seed=0)  # rank 0: k = m, and P is a rotation
def test_screened_growth_matches_per_sample_reference_property(
    n, m, kind, quadratic, shift, epsilon, beta, n_samples, seed
):
    rng = np.random.default_rng(seed)
    p, xbar = growth_screen_problem(rng, n, m, kind, quadratic, shift)
    new = verify_growth(p, xbar, epsilon, beta, n_samples=n_samples, seed=seed)
    assert_same_growth(new, reference_growth(p, xbar, epsilon, beta, n_samples, seed))
    # and bit for bit what the same blocks give without the screen
    assert_identical_growth(new, unscreened_growth(p, xbar, epsilon, beta, n_samples, seed))


def test_growth_distance_bounds_stay_below_exact_distances():
    # both tiers, the closed-form matching bound and the k x k bound, are checked
    # against distances of F evaluated one sample at a time, which rounds
    # apart from the blocked evaluation
    for case in range(30):
        rng = np.random.default_rng([case, 7])
        kind = ("singular", "nonsingular", "not_psd", "huge", "overflow", "tiny")[case % 6]
        n, m = int(rng.integers(1, 7)), int(rng.integers(2, 13))
        p, xbar = growth_screen_problem(rng, n, m, kind, case % 3 > 0, 0.05)
        xs = xbar + rng.uniform(-0.2, 0.2, (600, n))
        d = eigen_decompose(eval_F(p, xbar))
        _, matching_bounds, bounds = sosc._psd_distance_screen(p, d)
        exact = np.array([dist_psd(eval_F(p, x)) for x in xs])
        for tier in (matching_bounds, bounds):
            tight = tier(xs)
            assert (tight <= exact).all()
            if kind == "singular":
                assert (tight > 0).any()  # the screen sees the kernel's negativity


@pytest.mark.parametrize("k", range(1, 13))
def test_round_robin_holds_every_pair_once(k):
    rounds = sosc._round_robin(k)
    assert len(rounds) == (k if k % 2 else k - 1)
    pairs = Counter()
    for blocks in rounds:
        indices = [i for block in blocks for i in block]
        assert len(indices) == len(set(indices))  # the blocks are disjoint
        assert all(0 <= i < k for i in indices)
        byes = [block for block in blocks if len(block) == 1]
        assert len(byes) == k % 2
        pairs.update(block for block in blocks if len(block) == 2)
    assert pairs == Counter({(i, j): 1 for i in range(k) for j in range(i)})


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(2, 12),
    kind=st.sampled_from(["singular", "nonsingular", "not_psd", "huge", "overflow", "tiny"]),
    quadratic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_growth_matching_bound_lies_between_pair_bound_and_distance(
    n, m, kind, quadratic, seed
):
    # the matching bound pinches P F(x) P^T over every round of the
    # round-robin schedule: never below the largest 2 x 2 block distance,
    # the same at k <= 2, and never above the distance of F(x) evaluated
    # one sample at a time
    rng = np.random.default_rng(seed)
    p, xbar = growth_screen_problem(rng, n, m, kind, quadratic, 0.05)
    xs = xbar + rng.uniform(-0.2, 0.2, (300, n))
    d = eigen_decompose(eval_F(p, xbar))
    k, matching_bounds, _ = sosc._psd_distance_screen(p, d)
    new = matching_bounds(xs)
    with mock.patch.object(sosc, "_principal_block_distances", pair_block_distances):
        old = sosc._psd_distance_screen(p, d)[1](xs)
    exact = np.array([dist_psd(eval_F(p, x)) for x in xs])
    assert (old <= new).all()
    assert (new <= exact).all()
    if k <= 2:
        assert np.array_equal(old, new)


def screen_slack(p, xs):
    """The rounding slack that both growth bound tiers subtract at the rows
    of xs: _GROWTH_ROUNDING (m + n)^2 eps times the bound of ||F(x)||, F's
    quadratic map at |x| with the coefficients' Frobenius norms."""
    norms = [None if c is None else frobenius_norms(p.m, c)[..., None]
             for c in (p.F.a0.lower, p.F.a, p.F.b)]
    size = _quadratic_rows(*norms, np.abs(xs))[:, 0]
    return sosc._GROWTH_ROUNDING * (p.m + p.n) ** 2 * np.finfo(float).eps * size


def screen_terms(n, quadratic):
    """Monomials of F: 1, the x_i and, with B, the x_i x_j for i >= j."""
    return 1 + n + quadratic * n * (n + 1) // 2


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 12),
    kind=st.sampled_from(
        ["singular", "nonsingular", "not_psd", "huge", "overflow", "tiny", "flat"]
    ),
    quadratic=st.booleans(),
    chunks=st.integers(0, 2),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, m=6, kind="flat", quadratic=True, chunks=2, share=0.5, seed=0)  # even k
@example(n=6, m=9, kind="flat", quadratic=True, chunks=2, share=0.5, seed=0)  # odd k
def test_growth_screen_columns_match_the_row_layout_oracle(
    n, m, kind, quadratic, chunks, share, seed
):
    # the bound tiers, with samples as columns and in chunks, against the
    # former row layout over all rows at once: -inf on the same rows, and
    # apart by no more than the slack that both subtract (a row of a BLAS
    # product rounds with the layout and the stack height); the matching
    # bound's closed form keeps the oracle's bits on the same triangles
    rng = np.random.default_rng(seed)
    p, xbar = growth_screen_problem(rng, n, m, kind, quadratic, 0.05)
    d = eigen_decompose(eval_F(p, xbar))
    k, matching_bounds, bounds = sosc._psd_distance_screen(p, d)
    _, row_matching_bounds, row_bounds = row_distance_screen(p, d)
    height = max(1, sosc._SCREEN_BYTES // (8 * max(screen_terms(n, quadratic), k * k)))
    rows = chunks * height + 1 + int(share * max(height - 2, 0))  # a partial last chunk
    xs = xbar + rng.uniform(-0.2, 0.2, (rows, n))
    slack = screen_slack(p, xs)
    for tier, row_tier in ((matching_bounds, row_matching_bounds), (bounds, row_bounds)):
        new, old = tier(xs), row_tier(xs)
        assert np.array_equal(np.isneginf(new), np.isneginf(old))
        finite = ~np.isneginf(new)
        assert (np.abs(new[finite] - old[finite]) <= slack[finite]).all()
    triangles = rng.standard_normal((k * (k + 1) // 2, rows))
    assert np.array_equal(
        sosc._principal_block_distances(k)(triangles),
        row_block_distances(k)(np.ascontiguousarray(triangles.T)),
    )


def screened_chunks(p, d, xs):
    """(triangles, samples) of each chunk that the growth screen's two bound
    tiers hand to their distance functions for the rows xs."""
    shapes = []
    block_distances = sosc._principal_block_distances

    def recording(k):
        distances = block_distances(k)

        def recorded(lower):
            shapes.append(lower.shape)
            return distances(lower)

        return recorded

    def recorded_batch(k, lower):
        shapes.append(lower.T.shape)
        return dist_psd_batch(k, lower)

    with mock.patch.object(sosc, "_principal_block_distances", recording), \
            mock.patch.object(sosc, "dist_psd_batch", recorded_batch):
        _, matching_bounds, bounds = sosc._psd_distance_screen(p, d)
        matching_bounds(xs)
        bounds(xs)
    return shapes


@pytest.mark.parametrize("quadratic", [False, True])
def test_growth_screen_chunks_stay_below_the_mmap_threshold(quadratic):
    # per chunk, the largest arrays of a bound tier (the monomials, the
    # projected triangles and the k x k stack) fit in _SCREEN_BYTES, and a
    # chunk holds at least one sample and as many as fit
    rows = 1000
    for n in range(1, 7):
        terms = screen_terms(n, quadratic)
        for k in range(1, 13):
            rng = np.random.default_rng([n, k])
            p, xbar = growth_screen_problem(rng, n, k, "flat", quadratic, 0.0)
            d = eigen_decompose(eval_F(p, xbar))
            assert len(d.omega) == k
            xs = xbar + rng.uniform(-0.2, 0.2, (rows, n))
            shapes = screened_chunks(p, d, xs)
            assert sum(samples for _, samples in shapes) == 2 * rows
            for triangles, samples in shapes:
                assert triangles == k * (k + 1) // 2
                assert samples >= 1
                assert 8 * samples * max(terms, triangles, k * k) <= sosc._SCREEN_BYTES
            fit = sosc._SCREEN_BYTES // (8 * max(terms, k * k))
            assert max(samples for _, samples in shapes) == min(rows, fit)


def test_principal_block_distances_are_built_once_per_k():
    assert sosc._principal_block_distances(7) is sosc._principal_block_distances(7)
    assert sosc._principal_block_distances(7) is not sosc._principal_block_distances(8)


def test_growth_pair_bound_is_the_projected_distance_at_k_up_to_2():
    # at k <= 2 the closed form is the distance of P F(x) P^T itself, short
    # of the rounding slack that both tiers subtract
    seen = Counter()
    for case in range(200):
        rng = np.random.default_rng([case, 11])
        n, m = int(rng.integers(1, 7)), int(rng.integers(2, 13))
        p, xbar = growth_screen_problem(rng, n, m, "singular", case % 2 > 0, 0.05)
        d = eigen_decompose(eval_F(p, xbar))
        basis = d.p_matrix[d.eigenvalues <= d.rank_tol]
        k = len(basis)
        if k not in (1, 2) or seen[k] == 4:
            continue
        seen[k] += 1
        xs = xbar + rng.uniform(-0.2, 0.2, (300, n))
        projected = np.array([basis @ eval_F(p, x).dense() @ basis.T for x in xs])
        dist = np.sqrt((np.minimum(np.linalg.eigvalsh(projected), 0.0) ** 2).sum(axis=1))
        slack = screen_slack(p, xs)
        screen_k, matching_bounds, _ = sosc._psd_distance_screen(p, d)
        assert screen_k == k
        pair = matching_bounds(xs)
        assert (pair <= dist).all()
        assert (dist - pair <= 2.0 * slack).all()
        assert (dist > slack).any()  # not every sample sits in the slack
    assert seen == {1: 4, 2: 4}


@pytest.mark.parametrize("seed", range(6))
def test_screened_growth_keeps_the_blocked_bits(seed):
    # a row of a BLAS product rounds differently in stacks of other heights:
    # F evaluated for the settled rows alone moves min_ratio in its last bits
    p = kkt_consistent_problem(np.random.default_rng(seed), 6, 12)
    xbar = np.zeros(6)
    new = verify_growth(p, xbar, 0.1, 0.01, n_samples=10_000)
    assert_identical_growth(new, unscreened_growth(p, xbar, 0.1, 0.01, 10_000, 0))


def eigvalsh_matrices(monkeypatch, fn):
    """Result of fn() and the number of matrices of each size that it passes
    to np.linalg.eigvalsh."""
    solved = Counter()

    def counted(a, *args, _orig=np.linalg.eigvalsh, **kwargs):
        a = np.asarray(a)
        solved[a.shape[-1]] += len(a) if a.ndim == 3 else 1
        return _orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    out = fn()
    monkeypatch.undo()
    return out, solved


def test_growth_screen_solves_few_full_matrices(monkeypatch):
    p = kkt_consistent_problem(np.random.default_rng(0), 6, 12)
    xbar = np.zeros(6)
    assert eigen_decompose(eval_F(p, xbar)).omega  # F(0) is singular
    report, solved = eigvalsh_matrices(
        monkeypatch, lambda: verify_growth(p, xbar, 0.1, 0.01, n_samples=10_000)
    )
    assert report.samples == 11_024
    assert solved[12] <= 0.02 * report.samples


def test_growth_screen_solves_few_kxk_matrices(monkeypatch):
    # the closed-form matching bound decides most samples; the k x k eigvalsh
    # runs on the _GROWTH_BLOCK smallest matching ratio bounds, the undecided
    # rows and the candidates for the minimum only
    p = kkt_consistent_problem(np.random.default_rng(0), 6, 12)
    xbar = np.zeros(6)
    k = len(eigen_decompose(eval_F(p, xbar)).omega)
    assert 2 < k < 12
    report, solved = eigvalsh_matrices(
        monkeypatch, lambda: verify_growth(p, xbar, 0.1, 0.01, n_samples=10_000)
    )
    assert report.samples == 11_024
    assert 0 < solved[k] <= 0.1 * report.samples


def test_growth_matching_bound_solves_few_kxk_matrices_at_k_9(monkeypatch):
    # the largest 2 x 2 block distance left about half of these samples to
    # the k x k bound; the matching bound, a sum over a round of blocks,
    # leaves far fewer
    p = kkt_consistent_problem(np.random.default_rng(3), 6, 12)
    xbar = np.zeros(6)
    assert len(eigen_decompose(eval_F(p, xbar)).omega) == 9
    report, solved = eigvalsh_matrices(
        monkeypatch, lambda: verify_growth(p, xbar, 0.1, 0.01, n_samples=10_000)
    )
    assert report.samples == 11_024
    assert 0 < solved[9] <= 0.25 * report.samples


def fixture_problem(name, ref):
    """The problem of tests/data/<name> at xbar = 0, checked to hold ref's data."""
    path = Path(__file__).parent / "data" / name
    p, xbar = problem_from_json(json.loads(path.read_text()))
    for got, want in ((p.f.g, ref.f.g), (p.f.h, ref.f.h), (p.F.a0.lower, ref.F.a0.lower),
                      (p.F.a, ref.F.a), (p.F.b, ref.F.b)):
        assert np.array_equal(got, want)
    assert not xbar.any()
    return p, xbar


def test_growth_k6_fixture_is_the_kkt_consistent_problem():
    # tests/data/growth_k6.json holds kkt_consistent_problem(default_rng(2),
    # 6, 12) at xbar = 0, the growth fixture with k > 2
    ref = kkt_consistent_problem(np.random.default_rng(2), 6, 12)
    p, xbar = fixture_problem("growth_k6.json", ref)
    assert len(eigen_decompose(eval_F(p, xbar)).omega) == 6
    report = verify_growth(p, xbar, 0.1, 0.01)
    assert report.violations == 0
    assert round(report.min_ratio, 1) == 9.2
    assert_identical_growth(report, unscreened_growth(p, xbar, 0.1, 0.01, 10_000, 0))


def test_growth_k9_fixture_is_the_kkt_consistent_problem():
    # tests/data/growth_k9.json holds kkt_consistent_problem(default_rng(3),
    # 6, 12) at xbar = 0, the growth fixture whose 45-entry triangles make
    # the screen's chunks shorter than at k = 6
    ref = kkt_consistent_problem(np.random.default_rng(3), 6, 12)
    p, xbar = fixture_problem("growth_k9.json", ref)
    assert len(eigen_decompose(eval_F(p, xbar)).omega) == 9
    report = verify_growth(p, xbar, 0.1, 0.01)
    assert report.violations == 0
    assert round(report.min_ratio, 1) == 18.1
    assert_identical_growth(report, unscreened_growth(p, xbar, 0.1, 0.01, 10_000, 0))


def test_growth_pair_bound_stops_where_it_is_weak(monkeypatch):
    # at k = 11 of m = 12 most matching ratio bounds lie below the minimum, so
    # most samples also take the k x k bound, but none takes it twice and
    # the full distance stays rare
    p = kkt_consistent_problem(np.random.default_rng(5), 6, 12)
    xbar = np.zeros(6)
    assert len(eigen_decompose(eval_F(p, xbar)).omega) == 11
    report, solved = eigvalsh_matrices(
        monkeypatch, lambda: verify_growth(p, xbar, 0.1, 0.01, n_samples=10_000)
    )
    assert report.samples == 11_024
    assert solved[11] <= report.samples
    assert solved[12] <= 0.02 * report.samples


def test_growth_screen_stops_where_it_does_not_pay(monkeypatch):
    # where every sample violates, the matching bound leaves the first block
    # open and every sample is computed in full without a screen
    p = kkt_consistent_problem(np.random.default_rng(0), 6, 12)
    xbar = np.zeros(6)
    k = len(eigen_decompose(eval_F(p, xbar)).omega)
    assert 0 < k < 12
    report, solved = eigvalsh_matrices(
        monkeypatch, lambda: verify_growth(p, xbar, 0.1, 1e3, n_samples=10_000)
    )
    assert report.violations == report.samples == 11_024
    assert solved[k] <= sosc._GROWTH_BLOCK
    assert solved[12] == report.samples


def flat_problem():
    """kkt_consistent_problem(default_rng(0), 6, 12) with A0 = 0: at xbar =
    0, F(xbar) = 0, so omega is every index (k = m) and P is a rotation."""
    p = kkt_consistent_problem(np.random.default_rng(0), 6, 12)
    return NlsdpProblem(
        n=6, m=12, f=p.f, F=QuadraticMatrixMap(a0=SymMat.zeros(12), a=p.F.a, b=p.F.b)
    )


def test_growth_screen_runs_at_k_equal_m(monkeypatch):
    # at k = m both tiers are m x m, but the matching bound takes no
    # eigenvalue call and decides most samples
    flat, xbar = flat_problem(), np.zeros(6)
    assert len(eigen_decompose(eval_F(flat, xbar)).omega) == 12
    report, solved = eigvalsh_matrices(
        monkeypatch, lambda: verify_growth(flat, xbar, 0.1, 0.01, n_samples=10_000)
    )
    assert report.samples == 11_024
    assert solved[12] <= 0.3 * report.samples
    assert_identical_growth(report, unscreened_growth(flat, xbar, 0.1, 0.01, 10_000, 0))


def test_growth_flat_fixture_is_the_flat_problem():
    # tests/data/growth_flat.json holds flat_problem() at xbar = 0, the
    # growth fixture with k = m
    p, xbar = fixture_problem("growth_flat.json", flat_problem())
    assert len(eigen_decompose(eval_F(p, xbar)).omega) == 12
    report = verify_growth(p, xbar, 0.1, 0.01)
    assert report.violations == 0
    assert round(report.min_ratio, 1) == 18.9


# -- multiplier search -------------------------------------------------------


def multiplier_workload_problem(rng):
    """n = 1, m = 3, f = h x^2 / 2, F(0) = diag(lam, 0, 0) and A1 with kernel
    block 2I: the only critical direction is +1 and W is forced to 0 on a
    multi-dimensional multiplier null space."""
    h = float(rng.uniform(0.5, 2.0))
    lam = float(rng.uniform(0.5, 2.0))
    a1 = np.diag([float(rng.uniform(-1.0, 1.0)), 2.0, 2.0])
    a1[0, 1:] = a1[1:, 0] = rng.uniform(-1.0, 1.0, 2)
    f = QuadraticScalar(c=0.0, g=np.zeros(1), h=np.array([[h]]))
    cap = QuadraticMatrixMap(a0=SymMat.diagonal([lam, 0.0, 0.0]), a=[SymMat.from_dense(a1).lower])
    return NlsdpProblem(n=1, m=3, f=f, F=cap)


# f = |x|^2 / 2 at its global minimiser 0, where alpha = 1, Ystar = 0 gives
# margin |u|^2 > 0 on every direction; at 50 degrees it is the one multiplier.
FALSE_REFUTATION = json.loads(
    (Path(__file__).parent / "data" / "false_refutation.json").read_text()
)
FALSE_REFUTATION_DIRECTION = np.array(
    [math.cos(math.radians(50.0)), math.sin(math.radians(50.0))]
)


def open_multiplier_problem(h):
    """n = 1, m = 3, f = h x^2 / 2, F(0) = diag(1, 0, 0) and A1 zero on the
    kernel block: every alpha >= 0, W <= 0 is a multiplier of u = 1, and
    margin / trace peaks at max(h, 2 |a|^2) with a = (0.6, 0.8)."""
    a1 = np.zeros((3, 3))
    a1[0, 1:] = a1[1:, 0] = (0.6, 0.8)
    f = QuadraticScalar(c=0.0, g=np.zeros(1), h=np.array([[h]]))
    cap = QuadraticMatrixMap(a0=SymMat.diagonal([1.0, 0.0, 0.0]), a=[SymMat.from_dense(a1).lower])
    return NlsdpProblem(n=1, m=3, f=f, F=cap)


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
    """(problem, xbar, direction): both multiplier-workload shapes, whose
    multiplier set is one ray inside a 3-dimensional null space; two
    KKT-consistent problems with a 3-dimensional kernel at a tangent
    direction, where no multiplier exists; the false refutation at 50
    degrees, where alpha = 1, Ystar = 0 is the one multiplier; and two open
    multiplier sets, whose best margin sits at either end of the slice."""
    rng = np.random.default_rng(41)
    cases = [(multiplier_workload_problem(rng), np.zeros(1), np.ones(1)) for _ in range(2)]
    for seed in (1, 3):
        p = kkt_consistent_problem(np.random.default_rng(seed), 2, 5)
        cases.append((p, np.zeros(2), tangent_boundary_direction(p)))
    p, xbar = problem_from_json(FALSE_REFUTATION)
    cases.append((p, xbar, FALSE_REFUTATION_DIRECTION))
    cases.extend((open_multiplier_problem(h), np.zeros(1), np.ones(1)) for h in (0.5, 3.0))
    return cases


def multiplier_slice(p, xbar, u):
    """The multiplier set of direction u, from the problem's matrices and
    numpy alone: an orthonormal basis (columns) of the pairs (alpha, W) that
    satisfy stationarity and <Ystar, dF(u)> = 0, where Ystar = E W E^T for
    an orthonormal basis E of ker F(xbar) at the default rank tolerance;
    and, per basis column, G = diag(alpha, -W), the trace alpha - tr W and
    the margin alpha u.h.u + <W, E^T (d2F(u) - 2 dF(u) pinv(F) dF(u)) E>."""
    n, m = p.n, p.m
    a = lower_to_dense(m, p.F.a)
    b = np.zeros((n, n, m, m)) if p.F.b is None else lower_to_dense(m, p.F.b)
    fx = p.F.a0.dense() + np.einsum("i,ikl->kl", xbar, a) + 0.5 * np.einsum(
        "i,j,ijkl->kl", xbar, xbar, b
    )
    jac = a + np.einsum("j,ijkl->ikl", xbar, b)  # dF(xbar, e_i)
    lam, vec = np.linalg.eigh(fx)
    tol = 1e-8 * max(1.0, float(np.abs(lam).max()))
    e = vec[:, np.abs(lam) <= tol]
    k = e.shape[1]
    big = lam > tol
    pinv = (vec[:, big] / lam[big]) @ vec[:, big].T
    v = np.einsum("i,ikl->kl", u, jac)
    curv = np.einsum("i,j,ijkl->kl", u, u, b) - 2.0 * v @ pinv @ v

    # W = sum of w_ab S_ab over a <= b, with S_ab the symmetric 0/1 pattern
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    units = np.zeros((len(pairs), k, k))
    for idx, (i, j) in enumerate(pairs):
        units[idx, i, j] = units[idx, j, i] = 1.0

    def inner(mat):  # <W, E^T mat E> per unit
        return np.einsum("pab,ab->p", units, e.T @ mat @ e)

    grad = p.f.g + p.f.h @ xbar
    rows = [np.concatenate(([grad[i]], inner(jac[i]))) for i in range(n)]
    rows.append(np.concatenate(([0.0], inner(v))))
    _, s, vt = np.linalg.svd(np.array(rows))
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    basis = vt[rank:].T
    blocks = np.zeros((basis.shape[1], k + 1, k + 1))
    blocks[:, 0, 0] = basis[0]
    blocks[:, 1:, 1:] = -np.einsum("pc,pab->cab", basis[1:], units)
    traces = np.trace(blocks, axis1=1, axis2=2)
    margins = basis[0] * float(u @ p.f.h @ u) + basis[1:].T @ inner(curv)

    def coords(alpha, ystar):
        """The multiplier (alpha, Ystar) in the basis' coordinates."""
        w = e.T @ ystar @ e
        return basis.T @ np.concatenate(([alpha], [w[i, j] for i, j in pairs]))

    return blocks, traces, margins, coords


def search(p, xbar, u, d):
    """sosc._multiplier_search with the two matrices check_sosc builds once
    per check."""
    rows, coeffs = sosc._linearized_rows(p, xbar, d), sosc._margin_coefficients(p, xbar, d)
    return sosc._multiplier_search(p, xbar, u, d, rows, coeffs, DEFAULT_TOL)


def reference_multiplier_search(p, xbar, u, d):
    """The outcome each of the first five multiplier_search_cases() is built
    to have, one scalar at a time: where grad f(xbar) = 0 the one multiplier
    is alpha = 1, Ystar = 0, with margin u.h.u; elsewhere there is none."""
    if np.any(grad_f(p, xbar)):
        return sosc._SearchOutcome(None, -math.inf, False)
    ystar = SymMat.zeros(p.m)
    cand = MultiplierCandidate(
        alpha=1.0,
        ystar=ystar,
        stationarity_residual=float(np.linalg.norm(lagrangian_grad(p, 1.0, xbar, ystar))),
        normal_cone_slack=0.0,
    )
    margin = sosc_margin(p, xbar, u, cand, d=d)
    return sosc._SearchOutcome(sosc.DirectionCertificate(u, cand, margin), 0.0, False)


@pytest.mark.parametrize("case", range(5))
def test_multiplier_search_matches_scalar_reference(case):
    p, xbar, u = multiplier_search_cases()[case]
    d = eigen_decompose(eval_F(p, xbar))
    new = search(p, xbar, u, d)
    ref = reference_multiplier_search(p, xbar, u, d)
    assert (new.certificate is None) == (ref.certificate is None) == (case in (2, 3))
    assert not new.hit_cap
    if ref.certificate is None:
        assert new.best_interiority < -sosc._CERT_TOL
        return
    # phase I reaches -cert_tol / 2, phase II's set reaches cert_tol / 2 past
    # the PSD cone: the certificate is the reference one up to cert_tol
    assert new.best_interiority >= -0.5 * sosc._CERT_TOL
    new, ref = new.certificate, ref.certificate
    assert new.candidate.alpha == pytest.approx(ref.candidate.alpha, abs=sosc._CERT_TOL)
    assert np.abs(new.candidate.ystar.dense()).max() <= sosc._CERT_TOL
    assert new.candidate.stationarity_residual <= sosc._CERT_TOL
    assert new.candidate.normal_cone_slack <= sosc._CERT_TOL
    assert new.margin == pytest.approx(ref.margin, abs=sosc._CERT_TOL)


def search_case(data):
    """One search input: a multiplier_search_cases() entry, or a random
    KKT-consistent problem with a random direction of ker L, which is
    critical: slope 0 and a zero omega-omega block."""
    if data.draw(st.booleans(), label="random problem"):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        p, xbar = kkt_consistent_problem(rng, n, m), np.zeros(n)
        d = eigen_decompose(eval_F(p, xbar))
        kernel = sosc._null_space(sosc._linearized_rows(p, xbar, d).T)
        if kernel.shape[1]:
            u = kernel @ rng.standard_normal(kernel.shape[1])
            return p, xbar, u / np.linalg.norm(u)
    cases = multiplier_search_cases()
    return cases[data.draw(st.integers(0, len(cases) - 1), label="case")]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_multiplier_search_optimum_bounds_every_multiplier(data):
    # the search maximizes margin / trace over the multipliers: no multiplier
    # drawn at random, near the search's own point or near alpha = 1, W = 0
    # may beat it; a "no multiplier" outcome must admit none with interiority
    # lambda_min(G) / trace above -cert_tol
    p, xbar, u = search_case(data)
    d = eigen_decompose(eval_F(p, xbar))
    outcome = search(p, xbar, u, d)
    blocks, traces, margins, coords = multiplier_slice(p, xbar, u)
    r = len(traces)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="draw seed"))
    anchors = [np.zeros(r)]
    if r and abs(blocks[:, 0, 0] @ blocks[:, 0, 0] - 1.0) < 1e-12:
        anchors.append(blocks[:, 0, 0])  # alpha = 1, W = 0 is in the span
    cert = outcome.certificate
    cand = None if cert is None else cert.candidate
    if cand is not None:
        anchors.append(coords(cand.alpha, cand.ystar.dense()))
    zs = [anchor + scale * rng.standard_normal((16, r))
          for anchor in anchors for scale in (1.0, 1e-2, 1e-5)]
    zs = np.concatenate([anchors] + zs) if r else np.zeros((0, 0))
    if not len(zs):
        assert cand is None
        return
    g = np.einsum("sc,cab->sab", zs, blocks)
    least = np.linalg.eigvalsh(g)[:, 0]
    trace = zs @ traces
    if cand is None:
        assert not np.any((trace > 0) & (least >= -sosc._CERT_TOL * trace))
        return
    ystar_trace = float(np.trace(cand.ystar.dense()))
    optimum = cert.margin / (cand.alpha - ystar_trace)
    feasible = (trace > 0) & (least >= -1e-12 * trace)  # PSD up to rounding
    scale = max(1.0, float(np.linalg.norm(margins)))
    values = zs[feasible] @ margins / trace[feasible]
    assert np.all(values <= optimum + 1e-7 * scale)


def test_multiplier_search_linalg_calls_are_bounded(monkeypatch):
    # 15 Newton steps of phase II make 21 solves, 31 calls in all; with
    # phase I, 46 steps made 66 calls, and the coordinate ascent 139
    p = multiplier_workload_problem(np.random.default_rng(41))
    xbar, u = np.zeros(1), np.ones(1)
    d = eigen_decompose(eval_F(p, xbar))
    rows, coeffs = sosc._linearized_rows(p, xbar, d), sosc._margin_coefficients(p, xbar, d)
    calls = linalg_calls(
        monkeypatch, lambda: sosc._multiplier_search(p, xbar, u, d, rows, coeffs, DEFAULT_TOL)
    )
    assert 0 < sum(calls.values()) < 40


def newton_steps(monkeypatch, run):
    """(run(), the _barrier_max calls that run() makes): each call's
    positional and keyword arguments and its returned (steps, stopped short)."""
    calls = []

    def counted(*args, _orig=sosc._barrier_max, **kwargs):
        x, steps, short = _orig(*args, **kwargs)
        calls.append((args, kwargs, steps, short))
        return x, steps, short

    with monkeypatch.context() as mp:
        mp.setattr(sosc, "_barrier_max", counted)
        return run(), calls


def test_check_sosc_on_p1_takes_no_newton_step(monkeypatch):
    # P1's one multiplier, alpha = 1 and W = 0, is the search's start, and
    # it lies inside phase II's set, where no variable is free
    p, xbar = problem_from_json(json.loads((Path(__file__).parent / "data" / "p1.json").read_text()))
    report, calls = newton_steps(monkeypatch, lambda: check_sosc(p, xbar))
    assert report.verdict == VERIFIED_SAMPLED
    assert sum(steps for _, _, steps, _ in calls) == 0


def test_start_inside_phase_two_skips_phase_one(monkeypatch):
    # W is forced to 0, so s* = 0 sits on the boundary; the start's
    # lambda_min(G0) is already above -cert_tol / 2
    p = multiplier_workload_problem(np.random.default_rng(41))
    xbar, u = np.zeros(1), np.ones(1)
    d = eigen_decompose(eval_F(p, xbar))
    outcome, calls = newton_steps(monkeypatch, lambda: search(p, xbar, u, d))
    # phase I alone stops at a reach; phase II takes the whole step budget
    assert [kwargs for _, kwargs, _, _ in calls] == [{}]
    (args, _, steps, short), = calls
    assert args[5] == sosc._MAX_NEWTON_STEPS
    assert 0 < steps < sosc._MAX_NEWTON_STEPS and not short
    assert not outcome.hit_cap
    assert outcome.best_interiority > -0.5 * sosc._CERT_TOL
    assert outcome.certificate.margin == pytest.approx(p.f.h[0, 0], abs=sosc._CERT_TOL)


def test_global_minimiser_is_not_refuted():
    p, xbar = problem_from_json(FALSE_REFUTATION)
    report = check_sosc(p, xbar, n_dirs=16)
    assert report.verdict == VERIFIED_SAMPLED
    assert report.min_margin == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("field", ["tol", "rank_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-8])
def test_sosc_options_reject_bad_tolerances(p1, field, value):
    # a NaN tol makes every tangency test false and so empties the cone
    with pytest.raises(ValueError, match=field):
        check_sosc(p1, XBAR, **{field: value})


def test_sosc_options_zero_tolerances(p1):
    for field in ("tol", "rank_tol"):
        with pytest.raises(ValueError, match=field):
            check_sosc(p1, XBAR, **{field: 0.0})
