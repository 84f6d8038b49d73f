"""Closed-form second subderivative, Schur criterion, recovery sequence and
the sampling oracle."""

import numpy as np
import pytest

from nsdpcheck.cone import is_psd
from nsdpcheck.subderivative import (
    ExtendedReal,
    HypothesisViolation,
    NoFeasibleSampleError,
    PivotNotPositiveDefinite,
    ToleranceAnomalyError,
    estimate_from_trace,
    estimate_subderivative_sampling,
    recovery_sequence,
    schur_feasibility,
    second_subderivative,
    subderivative_sampling_trace,
)
from nsdpcheck.symmat import SymMat, eigen_decompose, frobenius_inner, pseudoinverse

from conftest import random_psd, random_symmat, valid_triple

Y_CORNER = SymMat.diagonal([1.0, 0.0])
YS_CORNER = SymMat.diagonal([0.0, -1.0])
V_CROSS = SymMat.from_dense([[0.0, 1.0], [1.0, 0.0]])

# Deep grid for quantitative comparisons: quotient errors scale like
# C*t + eps/t, both below 1e-6 near t ~ 3e-8 for O(1)-scaled triples.
DEEP_T_GRID = tuple(np.logspace(-2, -7.5, 8))


def closed_form_value(d, ystar, v):
    res = second_subderivative(d, ystar, v)
    assert res.is_finite
    return res.value


def test_extended_real_invariants():
    assert ExtendedReal.finite(2.0).is_finite
    assert not ExtendedReal.plus_infinity().is_finite
    with pytest.raises(ValueError):
        ExtendedReal("finite", None)
    with pytest.raises(ValueError):
        ExtendedReal("plus_infinity", 1.0)
    with pytest.raises(ValueError):
        ExtendedReal("nonsense", 0.0)


def test_second_subderivative_examples():
    d = eigen_decompose(Y_CORNER)
    # by hand: V pinv(Y) V = diag(0, 1), so the value is -2<Ystar, diag(0,1)> = 2
    assert second_subderivative(d, YS_CORNER, V_CROSS) == ExtendedReal.finite(2.0)

    # descent into the cone's interior along omega makes <Ystar, V> negative
    assert second_subderivative(d, YS_CORNER, SymMat.diagonal([0.0, 1.0])).tag == (
        "plus_infinity"
    )

    interior = eigen_decompose(SymMat.identity(2))
    assert second_subderivative(interior, SymMat.zeros(2), V_CROSS) == (
        ExtendedReal.finite(0.0)
    )

    origin = eigen_decompose(SymMat.zeros(2))
    assert second_subderivative(
        origin, -1.0 * SymMat.identity(2), SymMat.zeros(2)
    ) == ExtendedReal.finite(0.0)


def test_second_subderivative_infinite_outside_tangent():
    d = eigen_decompose(Y_CORNER)
    assert second_subderivative(d, YS_CORNER, SymMat.diagonal([0.0, -1.0])).tag == (
        "plus_infinity"
    )


def test_second_subderivative_rejects_bad_multiplier():
    d = eigen_decompose(Y_CORNER)
    with pytest.raises(HypothesisViolation):
        second_subderivative(d, SymMat.diagonal([1.0, 0.0]), V_CROSS)
    indefinite = eigen_decompose(SymMat.diagonal([1.0, -1.0]))
    with pytest.raises(HypothesisViolation):
        second_subderivative(indefinite, SymMat.zeros(2), V_CROSS)


def test_second_subderivative_reports_unreachable_branch():
    # a multiplier just inside the tolerance band paired with a large
    # omega-block direction drives <Ystar, V> past +tol: tolerance drift
    d = eigen_decompose(Y_CORNER)
    tol = 1e-8
    drifted = SymMat.diagonal([0.0, 0.99 * tol])
    v = SymMat.diagonal([0.0, 5.0])
    with pytest.raises(ToleranceAnomalyError):
        second_subderivative(d, drifted, v, tol)


def test_schur_feasibility_examples():
    d = eigen_decompose(Y_CORNER)
    # complement 0.1 - 0.1 * 1 * 1 * 1 = 0, on the boundary
    vprime = SymMat.from_dense([[0.0, 1.0], [1.0, 0.1]])
    assert schur_feasibility(d, vprime, 0.1, tol=1e-12)
    assert is_psd(Y_CORNER + 0.1 * vprime, tol=1e-12)
    # complement -0.1; the perturbed matrix has determinant -0.01
    assert not schur_feasibility(d, V_CROSS, 0.1, tol=1e-12)
    assert not is_psd(Y_CORNER + 0.1 * V_CROSS, tol=1e-12)

    interior = eigen_decompose(SymMat.identity(2))
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert schur_feasibility(interior, random_symmat(rng, 2), 1e-3)


def test_schur_feasibility_pivot_error():
    d = eigen_decompose(Y_CORNER)
    with pytest.raises(PivotNotPositiveDefinite):
        schur_feasibility(d, SymMat.diagonal([-1.0, 0.0]), 2.0)
    with pytest.raises(ValueError):
        schur_feasibility(d, V_CROSS, -0.1)


def test_schur_agrees_with_direct_psd_test():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 150:
        m = int(rng.integers(2, 6))
        y = random_psd(rng, m, rank=int(rng.integers(0, m + 1)))
        d = eigen_decompose(y)
        vprime = random_symmat(rng, m)
        t = float(10.0 ** rng.uniform(-3, -0.5))
        try:
            comp_ok = schur_feasibility(d, vprime, t, tol=0.0)
        except PivotNotPositiveDefinite:
            continue
        direct_ok = is_psd(y + t * vprime, tol=0.0)
        # skip the boundary band where the two zero-tests may round apart
        lam_direct = np.linalg.eigvalsh((y + t * vprime).dense())[0]
        if abs(lam_direct) < 1e-9:
            continue
        assert comp_ok == direct_ok
        checked += 1


def test_recovery_sequence_examples():
    d = eigen_decompose(Y_CORNER)
    v_t = recovery_sequence(d, V_CROSS, 0.1)
    assert np.allclose(v_t.dense(), [[0.0, 1.0], [1.0, 0.1]], atol=1e-14)
    shifted = Y_CORNER + 0.1 * v_t
    assert np.allclose(shifted.dense(), [[1.0, 0.1], [0.1, 0.01]], atol=1e-14)
    assert is_psd(shifted, tol=1e-12)

    # no pi-omega coupling leaves v untouched
    diag_v = SymMat.diagonal([1.0, 1.0])
    assert np.allclose(recovery_sequence(d, diag_v, 0.05).dense(), diag_v.dense())

    for t in (1e-2, 1e-4, 1e-6):
        drift = (recovery_sequence(d, V_CROSS, t) - V_CROSS).norm()
        assert drift == pytest.approx(t, rel=1e-6)


def test_recovery_sequence_feasibility_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        y, _, v, d = valid_triple(rng, m, rank=int(rng.integers(1, m)))
        for t in (1e-1, 1e-2, 1e-3):
            v_t = recovery_sequence(d, v, t)
            assert is_psd(y + t * v_t, tol=1e-10)
            assert (v_t - v).norm() <= 10.0 * t


def test_estimate_examples():
    est = estimate_subderivative_sampling(Y_CORNER, YS_CORNER, V_CROSS, seed=2)
    assert est == pytest.approx(2.0, abs=1e-3)

    zero_mult = estimate_subderivative_sampling(
        Y_CORNER, SymMat.zeros(2), V_CROSS, seed=2
    )
    assert zero_mult == 0.0

    zero_dir = estimate_subderivative_sampling(
        Y_CORNER, YS_CORNER, SymMat.zeros(2), seed=2
    )
    assert zero_dir == pytest.approx(0.0, abs=1e-9)


def test_estimate_from_trace_takes_finest_feasible_step():
    trace = [
        {"t": 1e-1, "feasible_samples": 3, "min_quotient": 2.5, "recovery_quotient": 2.5},
        {"t": 1e-2, "feasible_samples": 2, "min_quotient": 2.1, "recovery_quotient": 2.1},
        {"t": 1e-3, "feasible_samples": 0, "min_quotient": None, "recovery_quotient": None},
    ]
    assert estimate_from_trace(trace) == 2.1
    with pytest.raises(NoFeasibleSampleError):
        estimate_from_trace(trace[2:])

    full = subderivative_sampling_trace(Y_CORNER, YS_CORNER, V_CROSS, seed=2)
    assert estimate_from_trace(full) == estimate_subderivative_sampling(
        Y_CORNER, YS_CORNER, V_CROSS, seed=2
    )


def test_estimate_requires_hypotheses():
    with pytest.raises(HypothesisViolation):
        estimate_subderivative_sampling(Y_CORNER, SymMat.identity(2), V_CROSS)


def test_estimate_signals_non_tangent_direction():
    with pytest.raises(NoFeasibleSampleError):
        estimate_subderivative_sampling(
            Y_CORNER, YS_CORNER, SymMat.diagonal([0.0, -1.0]), seed=4
        )


def test_closed_form_vs_sampling_two_sided():
    # upper side: the sampled estimate never undercuts the closed form, and
    # the recovery quotients attain it as t shrinks; lower side: per-level
    # minima approach the closed form at a rate linear in t
    rng = np.random.default_rng(11)
    for trial in range(40):
        m = int(rng.integers(2, 6))
        y, ystar, v, d = valid_triple(rng, m, rank=int(rng.integers(1, m)))
        closed = closed_form_value(d, ystar, v)
        trace = subderivative_sampling_trace(
            y, ystar, v, t_grid=DEEP_T_GRID, n_samples=8, seed=trial
        )
        est = estimate_subderivative_sampling(
            y, ystar, v, t_grid=DEEP_T_GRID, n_samples=8, seed=trial
        )
        assert est >= closed - 1e-6
        assert trace[-1]["recovery_quotient"] == pytest.approx(closed, abs=1e-6)

        # fit the linear rate on the coarse half, check it on the fine half
        devs = [
            (lvl["t"], max(closed - lvl["min_quotient"], 0.0))
            for lvl in trace
            if lvl["min_quotient"] is not None
        ]
        coarse = [r / t for t, r in devs[: len(devs) // 2] if t > 0]
        rate = max(coarse, default=0.0)
        for t, r in devs[len(devs) // 2 :]:
            assert r <= 1.5 * rate * t + 1e-7


def test_closed_form_sign_and_homogeneity():
    rng = np.random.default_rng(13)
    for _ in range(40):
        m = int(rng.integers(2, 6))
        _, ystar, v, d = valid_triple(rng, m, rank=int(rng.integers(1, m)))
        base = closed_form_value(d, ystar, v)
        assert base >= -1e-12
        for c, s in ((2.0, 3.0), (0.25, 10.0), (7.5, 0.125)):
            scaled = closed_form_value(d, s * ystar, c * v)
            assert scaled == pytest.approx(
                s * c * c * base, rel=1e-12, abs=1e-13
            )


def test_closed_form_matches_eigenbasis_evaluation():
    # independent route: evaluate -2 <W, V_op inv(M_pp) V_po> from raw blocks
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = int(rng.integers(2, 6))
        _, ystar, v, d = valid_triple(rng, m, rank=int(rng.integers(1, m)))
        p = d.p_matrix
        pi, omega = list(d.pi), list(d.omega)
        vp = p @ v.dense() @ p.T
        wp = p @ ystar.dense() @ p.T
        m_inv = np.diag(1.0 / np.asarray(d.eigenvalues)[pi])
        cross = vp[np.ix_(pi, omega)]
        expected = -2.0 * float(
            np.sum(wp[np.ix_(omega, omega)] * (cross.T @ m_inv @ cross))
        )
        assert closed_form_value(d, ystar, v) == pytest.approx(expected, abs=1e-10)


def test_trace_reports_levels():
    trace = subderivative_sampling_trace(
        Y_CORNER, YS_CORNER, V_CROSS, t_grid=(1e-1, 1e-3), n_samples=4, seed=0
    )
    assert [lvl["t"] for lvl in trace] == [1e-1, 1e-3]
    for lvl in trace:
        assert lvl["feasible_samples"] >= 1
        assert lvl["recovery_quotient"] == pytest.approx(2.0, abs=1e-9)
