"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Randomized checks run at desk scale (m <= 8, n <= 6) with fixed
seeds; scales keep positive eigenvalues in [1, 2] and direction norms O(1),
which bounds the quotient errors analyzed for the sampling oracle.
"""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from nsdpcheck import (
    MultiplierCandidate,
    SymMat,
    check_sosc,
    eigen_decompose,
    estimate_subderivative_sampling,
    eval_F,
    eval_f,
    frobenius_inner,
    is_psd,
    lagrangian_grad,
    lagrangian_hess_form,
    normal_cone_contains,
    project_psd,
    schur_feasibility,
    second_subderivative,
    sosc_margin,
    subderivative_sampling_trace,
    tangent_cone_contains,
    tangent_cone_contains_oracle,
    verify_growth,
)
from nsdpcheck import sosc
from nsdpcheck.cli import REPORT_SCHEMA, main as cli_main
from nsdpcheck.subderivative import PivotNotPositiveDefinite
from nsdpcheck.sosc import CRITICAL_CONE_TRIVIAL, FAILED_AT_DIRECTION, VERIFIED_SAMPLED

from conftest import (
    build_p1,
    build_trivial_cone,
    kkt_consistent_problem,
    random_problem,
    random_psd,
    random_symmat,
    valid_triple,
)

DATA = Path(__file__).parent / "data"
DEEP_T_GRID = tuple(np.logspace(-2, -7.5, 8))


def _report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_1_closed_form_vs_sampling_oracle():
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    worst_under = 0.0
    for trial in range(200):
        m = int(rng.integers(2, 6))
        rank = int(rng.integers(1, m))
        y, ystar, v, d = valid_triple(rng, m, rank)
        closed = second_subderivative(d, ystar, v)
        assert math.isfinite(closed)
        trace = subderivative_sampling_trace(
            d, ystar, v, t_grid=DEEP_T_GRID, n_samples=8, seed=trial
        )
        recovery_limit = trace[-1]["recovery_quotient"]
        assert recovery_limit is not None
        gap = abs(closed - recovery_limit)
        assert gap <= 1e-6
        estimate = estimate_subderivative_sampling(
            d, ystar, v, t_grid=DEEP_T_GRID, n_samples=8, seed=trial
        )
        assert estimate >= closed - 1e-6
        worst_gap = max(worst_gap, gap)
        worst_under = max(worst_under, closed - estimate)
    _report(
        1,
        f"200 triples: |closed - recovery limit| <= {worst_gap:.2e}, "
        f"estimate undercut <= {max(worst_under, 0.0):.2e} (tol 1e-6)",
    )


def test_criterion_2_schur_vs_direct_psd():
    rng = np.random.default_rng(102)
    checked = 0
    skipped_band = 0
    while checked < 500:
        m = int(rng.integers(2, 6))
        y = random_psd(rng, m, rank=int(rng.integers(0, m + 1)))
        d = eigen_decompose(y)
        vprime = random_symmat(rng, m)
        t = float(10.0 ** rng.uniform(-3, -0.5))
        try:
            schur_ok = schur_feasibility(d, vprime, t, tol=0.0)
        except PivotNotPositiveDefinite:
            continue
        shifted = y + t * vprime
        lam_min = float(np.linalg.eigvalsh(shifted.dense())[0])
        if abs(lam_min) < 1e-9:
            skipped_band += 1
            continue
        assert schur_ok == is_psd(shifted, tol=0.0), (
            f"disagreement outside the boundary band: lam_min={lam_min:.3e}"
        )
        checked += 1
    _report(
        2,
        f"500 instances agree (|lam_min| < 1e-9 band skipped {skipped_band} times)",
    )


def test_criterion_3_cone_formulas_vs_definitions():
    rng = np.random.default_rng(103)
    t_grid = tuple(10.0**-k for k in range(1, 8))
    polarity_worst = -math.inf
    for _ in range(200):
        m = int(rng.integers(2, 6))
        rank = int(rng.integers(1, m))
        y, ystar, v, d = valid_triple(rng, m, rank)

        # members: block formulas, the projection-based oracles and polarity
        assert tangent_cone_contains(d, v)
        assert tangent_cone_contains_oracle(y, v, t_grid=t_grid)
        assert normal_cone_contains(d, ystar)
        assert (project_psd(y + ystar) - y).norm() <= 1e-8
        polarity_worst = max(polarity_worst, frobenius_inner(ystar, v))
        assert frobenius_inner(ystar, v) <= 1e-8

        # clear non-members must be rejected by formula and oracle alike
        omega = list(d.omega)
        q_omega = d.p_matrix[omega[0]]
        v_bad = v - SymMat.from_dense(
            0.2 * np.outer(q_omega, q_omega), check_symmetry=False
        )
        assert not tangent_cone_contains(d, v_bad, tol=1e-9)
        assert not tangent_cone_contains_oracle(y, v_bad, t_grid=t_grid)
        q_pi = d.p_matrix[d.pi[0]]
        y_bad = ystar + SymMat.from_dense(
            0.2 * np.outer(q_pi, q_pi), check_symmetry=False
        )
        assert not normal_cone_contains(d, y_bad, tol=1e-6)
        assert (project_psd(y + y_bad) - y).norm() > 1e-6
    _report(3, f"200 instances; worst polarity gap {polarity_worst:.2e} <= 1e-8")


def test_criterion_4_worked_fixture_p1():
    p1 = build_p1()
    xbar = np.zeros(2)
    report = check_sosc(p1, xbar)
    assert report.verdict == VERIFIED_SAMPLED
    assert 1.99 <= report.min_margin <= 2.01
    growth = verify_growth(p1, xbar, epsilon=0.1, beta=0.25, n_samples=10_000, seed=0)
    assert growth.violations == 0
    _report(
        4,
        f"P1 verified with min margin {report.min_margin:.6f}; "
        f"growth 0 violations over {growth.samples} samples",
    )


def test_criterion_5_negative_fixture():
    neg = build_p1(-1.0)
    xbar = np.zeros(2)
    report = check_sosc(neg, xbar)
    assert report.verdict == FAILED_AT_DIRECTION
    witness = report.worst_direction / np.linalg.norm(report.worst_direction)
    angle = math.acos(min(1.0, max(-1.0, float(witness @ np.array([0.0, 1.0])))))
    assert angle <= 0.05
    for beta in (1e-12, 1e-6, 1e-2, 1.0):
        growth = verify_growth(neg, xbar, epsilon=0.1, beta=beta, n_samples=2000, seed=0)
        assert growth.violations > 0
    assert growth.min_ratio <= 0.0
    _report(
        5,
        f"negated P1 fails at witness angle {angle:.2e} from (0,1); "
        "growth refuted for every beta > 0",
    )


def test_criterion_6_trivial_cone_fixture():
    report = check_sosc(build_trivial_cone(), np.zeros(1))
    assert report.verdict == CRITICAL_CONE_TRIVIAL
    _report(6, "f=x with F=diag(x,x) at 0 reports a trivial critical cone")


def test_criterion_7_derivative_exactness():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        n, m = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        p = random_problem(rng, n, m, quadratic=True)
        x = rng.uniform(-1, 1, n)
        u = rng.uniform(-1, 1, n)
        u /= np.linalg.norm(u)
        ystar = random_symmat(rng, m)
        alpha = float(rng.uniform(0, 2))

        def scalar(z):
            return alpha * eval_f(p, z) + frobenius_inner(ystar, eval_F(p, z))

        h = 1e-6
        fd_grad = np.array(
            [
                (scalar(x + h * e) - scalar(x - h * e)) / (2 * h)
                for e in np.eye(n)
            ]
        )
        grad_err = float(
            np.linalg.norm(lagrangian_grad(p, alpha, x, ystar) - fd_grad, ord=np.inf)
        )
        assert grad_err <= 1e-5
        hq = 1e-3
        fd_quad = (scalar(x + hq * u) - 2 * scalar(x) + scalar(x - hq * u)) / hq**2
        quad_err = abs(lagrangian_hess_form(p, alpha, x, ystar, u) - fd_quad)
        assert quad_err <= 1e-5
        worst = max(worst, grad_err, quad_err)
    _report(7, f"50 instances; worst finite-difference deviation {worst:.2e} <= 1e-5")


def test_criterion_8_homogeneity():
    rng = np.random.default_rng(108)

    # margin is exactly quadratic in the direction
    p1 = build_p1()
    cand = MultiplierCandidate(
        alpha=1.0,
        ystar=SymMat.diagonal([0.0, -1.0]),
        stationarity_residual=0.0,
        normal_cone_slack=0.0,
    )
    base = sosc_margin(p1, np.zeros(2), np.array([1.0, 0.0]), cand)
    for _ in range(20):
        c = float(rng.uniform(0.05, 20.0))
        scaled = sosc_margin(p1, np.zeros(2), np.array([c, 0.0]), cand)
        assert scaled == pytest.approx(c * c * base, rel=1e-12)

    # the subderivative value is quadratic in v and linear in ystar
    for _ in range(30):
        m = int(rng.integers(2, 6))
        _, ystar, v, d = valid_triple(rng, m, rank=int(rng.integers(1, m)))
        base_val = second_subderivative(d, ystar, v)
        c, s = float(rng.uniform(0.1, 8.0)), float(rng.uniform(0.1, 8.0))
        scaled_val = second_subderivative(d, s * ystar, c * v)
        assert scaled_val == pytest.approx(s * c * c * base_val, rel=1e-12, abs=1e-14)
    _report(8, "margins quadratic in u; subderivative quadratic in V, linear in Y*")


def test_criterion_9_certificate_non_triviality():
    rng = np.random.default_rng(109)
    problems = [(build_p1(), np.zeros(2))]
    for _ in range(8):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        problems.append((kkt_consistent_problem(rng, n, m), np.zeros(n)))
    positive = 0
    for p, xbar in problems:
        report = check_sosc(p, xbar, n_dirs=8, seed=9)
        for cert in report.certificates:
            if cert.margin > sosc._MARGIN_TOL:
                positive += 1
                assert max(cert.candidate.alpha, cert.candidate.ystar.norm()) > sosc._CERT_TOL
    assert positive >= 3
    _report(9, f"{positive} positive-margin certificates, all nontrivial")


def test_criterion_10_cli_determinism_and_schema(tmp_path, capsys):
    runs = {
        "check-sosc": ["check-sosc", str(DATA / "p1.json"), "--dirs", "64"],
        "growth": [
            "growth", str(DATA / "p1.json"),
            "--epsilon", "0.1", "--beta", "0.25", "--samples", "1000",
        ],
        "subderivative": [
            "subderivative", str(DATA / "triple_basic.json"), "--samples", "8",
        ],
    }
    for command, argv in runs.items():
        paths = [tmp_path / f"{command}-{i}.json" for i in (1, 2)]
        for path in paths:
            code = cli_main(argv + ["--seed", "3", "--json", str(path)])
            assert code == 0
        capsys.readouterr()
        first, second = (p.read_text() for p in paths)
        assert first == second
        report = json.loads(first)
        jsonschema.validate(report, REPORT_SCHEMA[command])
        assert report["schema_version"] == "1"
    _report(10, "identical reports for repeated seeds; schema validation passed")
