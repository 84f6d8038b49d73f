"""The paper's two claims, checked on a one-parameter family.

Family p1_c: minimize f(x) = x2 - c x1**2 subject to F(x) = [[1, x1], [x1, x2]]
PSD, at xbar = 0.  The critical cone is the x1 axis and the multiplier is
unique up to scale: alpha = 1, Y* = diag(0, -1).  Along u = e1 the Hessian of
the Lagrangian is -2c and the curvature term -2<Y*, V pinv(F) V> adds 2, so

* with the curvature term the margin is 2(1 - c): the condition holds, and
  quadratic growth is seen, exactly for c < 1;
* without it the margin is -2c, which refutes every c in (0, 1) although the
  point has quadratic growth there.  The curvature term is what makes the
  condition sharp on this family.

The sampled growth constant follows margin / 2 here; that is an observation
for this family, not a constant of the theorem, so it is not asserted.
"""

import math

import numpy as np
import pytest

from nsdpcheck import (
    FAILED_AT_DIRECTION,
    VERIFIED_SAMPLED,
    NlsdpProblem,
    QuadraticMatrixMap,
    QuadraticScalar,
    SymMat,
    check_sosc,
    dF,
    eigen_decompose,
    estimate_subderivative_sampling,
    eval_F,
    lagrangian_hess_form,
    second_subderivative,
    verify_growth,
)

XBAR = np.zeros(2)
OPTS = {"n_dirs": 8}
HOLDS = (0.0, 0.5, 0.9)
FAILS = (1.5, 2.0)  # c near 1 is skipped: sampling misses the boundary there


def p1_c(c: float, b: float = 0.0) -> NlsdpProblem:
    """The family; b != 0 adds x1**2 b to the (2, 2) entry of F through
    B_11 = [[0, 0], [0, 2b]]."""
    quad = None
    if b != 0.0:
        quad = np.zeros((2, 2, 3))  # lower triangles of B_ij
        quad[0, 0] = [0.0, 0.0, 2.0 * b]
    return NlsdpProblem(
        n=2,
        m=2,
        f=QuadraticScalar(c=0.0, g=np.array([0.0, 1.0]), h=np.diag([-2.0 * c, 0.0])),
        F=QuadraticMatrixMap(
            a0=SymMat.diagonal([1.0, 0.0]),
            # lower triangles of [[0, 1], [1, 0]] and diag(0, 1)
            a=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            b=quad,
        ),
    )


def _growth(c: float):
    return verify_growth(p1_c(c), XBAR, epsilon=0.01, beta=0.0, n_samples=1000)


@pytest.mark.parametrize("c", HOLDS)
def test_condition_with_curvature_term_holds_below_c_1(c):
    report = check_sosc(p1_c(c), XBAR, **OPTS)
    assert report.verdict == VERIFIED_SAMPLED
    assert report.min_margin == pytest.approx(2.0 * (1.0 - c), abs=1e-9)
    assert _growth(c).feasible_min_ratio > 0


@pytest.mark.parametrize("c", FAILS)
def test_condition_and_growth_fail_above_c_1(c):
    report = check_sosc(p1_c(c), XBAR, **OPTS)
    assert report.verdict == FAILED_AT_DIRECTION
    assert report.min_margin == pytest.approx(2.0 * (1.0 - c), abs=1e-9)
    assert _growth(c).feasible_min_ratio < 0


@pytest.mark.parametrize("c", (0.25, 0.5, 0.9))
def test_margin_without_curvature_term_refutes_a_point_with_growth(c):
    report = check_sosc(p1_c(c), XBAR, **OPTS)
    assert report.verdict == VERIFIED_SAMPLED
    assert _growth(c).feasible_min_ratio > 0
    for cert in report.certificates:
        cand = cert.candidate
        bare = lagrangian_hess_form(p1_c(c), cand.alpha, XBAR, cand.ystar, cert.direction)
        assert bare == pytest.approx(-2.0 * c, abs=1e-9)
        assert bare < 0 < cert.margin


@pytest.mark.parametrize("c", HOLDS + FAILS)
def test_closed_form_matches_sampling_oracle_on_the_family(c):
    p = p1_c(c)
    report = check_sosc(p, XBAR, **OPTS)
    for cert in report.certificates:
        y, ystar, v = eval_F(p, XBAR), cert.candidate.ystar, dF(p, XBAR, cert.direction)
        d = eigen_decompose(y)
        closed = second_subderivative(d, ystar, v)
        assert math.isfinite(closed)
        assert closed == pytest.approx(2.0, abs=1e-9)
        assert estimate_subderivative_sampling(d, ystar, v) == pytest.approx(
            closed, abs=1e-6
        )


@pytest.mark.parametrize("c, b, margin", [(0.2, 0.3, 1.0), (0.2, 0.9, -0.2)])
def test_quadratic_constraint_term_enters_the_margin(c, b, margin):
    # <Y*, B[u, u]> = -2b joins the Hessian term: margin 2(1 - c - b)
    report = check_sosc(p1_c(c, b), XBAR, **OPTS)
    assert report.min_margin == pytest.approx(margin, abs=1e-9)
    assert report.verdict == (VERIFIED_SAMPLED if margin > 0 else FAILED_AT_DIRECTION)
