"""Closed-form second subderivative, Schur criterion, recovery sequence and
the sampling oracle."""

import json
import math
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdpcheck import cli, subderivative
from nsdpcheck.cone import DEFAULT_TOL, normal_cone_contains, project_normal_cone
from nsdpcheck.cone import tangent_cone_contains
from nsdpcheck.subderivative import (
    SAMPLING_T_GRID,
    HypothesisViolation,
    NoFeasibleSampleError,
    PivotNotPositiveDefinite,
    ToleranceAnomalyError,
    estimate_from_trace,
    estimate_subderivative_sampling,
    recovery_sequence,
    second_subderivative,
    subderivative_sampling_trace,
)
from nsdpcheck.symmat import (
    OrderedEigenDecomposition,
    SymMat,
    _tril_indices,
    conjugate,
    eigen_decompose,
    frobenius_inner,
    pseudoinverse,
)

from conftest import linalg_calls, random_psd, random_symmat, valid_triple
from oracles import is_psd, schur_feasibility

DATA = Path(__file__).parent / "data"

Y_CORNER = SymMat.diagonal([1.0, 0.0])
YS_CORNER = SymMat.diagonal([0.0, -1.0])
V_CROSS = SymMat.from_dense([[0.0, 1.0], [1.0, 0.0]])
D_CORNER = eigen_decompose(Y_CORNER)

# Deep grid for quantitative comparisons: quotient errors scale like
# C*t + eps/t, both below 1e-6 near t ~ 3e-8 for O(1)-scaled triples.
DEEP_T_GRID = tuple(np.logspace(-2, -7.5, 8))


def closed_form_value(d, ystar, v):
    res = second_subderivative(d, ystar, v)
    assert math.isfinite(res)
    return res


def test_second_subderivative_examples():
    d = eigen_decompose(Y_CORNER)
    # by hand: V pinv(Y) V = diag(0, 1), so the value is -2<Ystar, diag(0,1)> = 2
    assert second_subderivative(d, YS_CORNER, V_CROSS) == 2.0

    # descent into the cone's interior along omega makes <Ystar, V> negative
    assert second_subderivative(d, YS_CORNER, SymMat.diagonal([0.0, 1.0])) == math.inf

    interior = eigen_decompose(SymMat.identity(2))
    assert second_subderivative(interior, SymMat.zeros(2), V_CROSS) == 0.0

    origin = eigen_decompose(SymMat.zeros(2))
    assert second_subderivative(origin, -1.0 * SymMat.identity(2), SymMat.zeros(2)) == 0.0


def test_second_subderivative_infinite_outside_tangent():
    d = eigen_decompose(Y_CORNER)
    assert second_subderivative(d, YS_CORNER, SymMat.diagonal([0.0, -1.0])) == math.inf


@pytest.mark.parametrize("s", [1.0, 1e100, 1e160, 1e300])
def test_second_subderivative_negative_inner_product_at_any_scale(s):
    # |ystar| |v| = s^2 overflows from s = 1.3e154, which made the relative
    # test of <ystar, v> = -s^2 vacuous and returned finite(-0.0)
    d = eigen_decompose(SymMat.diagonal([1.0, 0.0]))
    ystar, v = SymMat.diagonal([0.0, -s]), SymMat.diagonal([0.0, s])
    assert second_subderivative(d, ystar, v) == math.inf


HUGE = 1.5e308  # two such diagonal entries give a Frobenius norm above DBL_MAX


def test_second_subderivative_negative_inner_product_beyond_dbl_max():
    # |ystar| and |v| are inf, so dividing by them would zero both copies
    d = eigen_decompose(SymMat.diagonal([1.0, 0.0, 0.0]))
    ystar, v = SymMat.diagonal([0.0, -HUGE, -HUGE]), SymMat.diagonal([0.0, HUGE, HUGE])
    assert second_subderivative(d, ystar, v) == math.inf


@pytest.mark.parametrize(
    "ystar, v",
    [([0.0, 0.0, 0.0], [0.0, HUGE, HUGE]), ([0.0, -HUGE, -HUGE], [0.0, 0.0, 0.0])],
)
def test_second_subderivative_zero_partner_of_an_infinite_norm(ystar, v):
    # |ystar| |v| reads 0 * inf = nan; the inner product is 0, so finite
    d = eigen_decompose(SymMat.diagonal([1.0, 0.0, 0.0]))
    value = second_subderivative(d, SymMat.diagonal(ystar), SymMat.diagonal(v))
    assert value == 0.0


def test_second_subderivative_rejects_bad_multiplier():
    d = eigen_decompose(Y_CORNER)
    with pytest.raises(HypothesisViolation):
        second_subderivative(d, SymMat.diagonal([1.0, 0.0]), V_CROSS)
    indefinite = eigen_decompose(SymMat.diagonal([1.0, -1.0]))
    with pytest.raises(HypothesisViolation):
        second_subderivative(indefinite, SymMat.zeros(2), V_CROSS)


def test_second_subderivative_reports_unreachable_branch():
    # a multiplier just inside the tolerance band of the omega-omega block,
    # against a large omega-block direction, gives <Ystar, V> = 5e-8 > tol:
    # the membership tests admit tol tr V_oo^+ of it, so this is no anomaly
    d = eigen_decompose(Y_CORNER)
    tol = 1e-8
    drifted = SymMat.diagonal([0.0, 0.99 * tol])
    v = SymMat.diagonal([0.0, 5.0])
    value = second_subderivative(d, drifted, v, tol)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0

    # an eigenbasis that drifts from orthogonal within the decomposition's own
    # tolerance shrinks both blocks by s^2 = 1 - 5e-11, so the admitted
    # slack no longer covers <Ystar, V> = 1: tolerance drift
    s = math.sqrt(1.0 - 5e-11)
    skewed = OrderedEigenDecomposition(
        source=Y_CORNER, p_matrix=np.diag([1.0, s]), eigenvalues=np.array([1.0, 0.0]),
        rank_tol=d.rank_tol,
    )
    ystar, v = SymMat.diagonal([0.0, 1e-12]), SymMat.diagonal([0.0, 1e12])
    assert second_subderivative(d, ystar, v, 1e-12) == 0.0
    with pytest.raises(ToleranceAnomalyError):
        second_subderivative(skewed, ystar, v, 1e-12)


def test_polarity_allowance_keeps_units_in_the_scaled_branch():
    # |Ystar| overflows, so <Ystar, V> is tested on copies scaled to a
    # largest |entry| of 1: lambda_min(V_oo) = -tol admits tol tr (Ystar_oo)^-,
    # which stays in V's units, 2.5e-8 > 2.2e-8 (tol |Ystar| |V| there)
    tol = 1e-8
    d = eigen_decompose(SymMat.diagonal([1.0] + [0.0] * 5))
    ystar = SymMat.diagonal([0.0] + [-1e308] * 5)
    v = SymMat.diagonal([2.0] + [-tol] * 5)
    assert normal_cone_contains(d, ystar, tol) and tangent_cone_contains(d, v, tol)
    assert second_subderivative(d, ystar, v, tol) == 0.0


def test_closed_form_and_quotients_read_zero_not_negative_zero():
    # Ystar = 0 gives -2 * 0 = -0 in the closed form and every quotient
    zero = SymMat.zeros(2)
    value = second_subderivative(eigen_decompose(Y_CORNER), zero, V_CROSS)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    trace = subderivative_sampling_trace(D_CORNER, zero, V_CROSS, n_samples=8)
    quotients = [lv[key] for lv in trace for key in ("min_quotient", "recovery_quotient")]
    assert all(q == 0.0 and math.copysign(1.0, q) == 1.0 for q in quotients)


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
    est = estimate_subderivative_sampling(D_CORNER, YS_CORNER, V_CROSS, seed=2)
    assert est == pytest.approx(2.0, abs=1e-3)

    zero_mult = estimate_subderivative_sampling(
        D_CORNER, SymMat.zeros(2), V_CROSS, seed=2
    )
    assert zero_mult == 0.0

    zero_dir = estimate_subderivative_sampling(
        D_CORNER, YS_CORNER, SymMat.zeros(2), seed=2
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

    full = subderivative_sampling_trace(D_CORNER, YS_CORNER, V_CROSS, seed=2)
    assert estimate_from_trace(full) == estimate_subderivative_sampling(
        D_CORNER, YS_CORNER, V_CROSS, seed=2
    )


def test_estimate_requires_hypotheses():
    with pytest.raises(HypothesisViolation):
        estimate_subderivative_sampling(D_CORNER, SymMat.identity(2), V_CROSS)


def test_estimate_signals_non_tangent_direction():
    with pytest.raises(NoFeasibleSampleError):
        estimate_subderivative_sampling(
            D_CORNER, YS_CORNER, SymMat.diagonal([0.0, -1.0]), seed=4
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
            d, ystar, v, t_grid=DEEP_T_GRID, n_samples=8, seed=trial
        )
        est = estimate_subderivative_sampling(
            d, ystar, v, t_grid=DEEP_T_GRID, n_samples=8, seed=trial
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


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(m=st.integers(1, 5), rank_share=st.floats(0.0, 0.99), seed=st.integers(0, 2**32 - 1))
def test_estimate_does_not_undercut_closed_form_at_an_admitted_multiplier(m, rank_share, seed):
    # a PSD omega-omega tilt of Ystar of norm tol / 2 passes the normal-cone
    # test; the quotients at the tilted Ystar itself fell like -tol / t
    rng = np.random.default_rng(seed)
    y, ystar, v, d = valid_triple(rng, m, rank=int(rank_share * m))
    p_omega = d.p_matrix[list(d.omega)]
    r = rng.standard_normal((len(d.omega),) * 2)
    tilt = p_omega.T @ (r @ r.T) @ p_omega
    tilted = ystar + SymMat.from_dense(0.5 * DEFAULT_TOL / np.linalg.norm(tilt) * tilt)
    assert normal_cone_contains(d, tilted)
    closed = closed_form_value(d, tilted, v)
    est = estimate_subderivative_sampling(
        d, tilted, v, t_grid=DEEP_T_GRID, n_samples=8, seed=seed
    )
    assert est >= closed - 1e-6


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
        D_CORNER, YS_CORNER, V_CROSS, t_grid=(1e-1, 1e-3), n_samples=4, seed=0
    )
    assert [lvl["t"] for lvl in trace] == [1e-1, 1e-3]
    for lvl in trace:
        assert lvl["feasible_samples"] >= 1
        assert lvl["recovery_quotient"] == pytest.approx(2.0, abs=1e-9)


def test_trace_reuses_a_given_decomposition(monkeypatch):
    # the trace samples at d.source and never decomposes it again
    calls = linalg_calls(
        monkeypatch,
        lambda: subderivative_sampling_trace(D_CORNER, YS_CORNER, V_CROSS, n_samples=8, seed=3),
        of=Y_CORNER.dense(),
    )
    assert not any(calls.values())


# -- the stacked trace against the per-sample reference ----------------------------


class ReferencePivotError(Exception):
    pass


def reference_schur(d, vprime, t):
    """Eigenbasis form and pi-pi pivot of one direction, as the trace formed
    them one sample at a time; raises when the pivot is not positive
    definite beyond rank_tol."""
    vp = conjugate(vprime, d).dense()
    pi, omega = list(d.pi), list(d.omega)
    m_pp = np.diag(np.asarray(d.eigenvalues)[pi]) if pi else np.zeros((0, 0))
    pivot = m_pp + t * vp[np.ix_(pi, pi)]
    if pi and float(np.linalg.eigvalsh(pivot)[0]) <= d.rank_tol:
        raise ReferencePivotError
    return vp, pivot


def reference_recovery(d, v, t):
    vp, pivot = reference_schur(d, v, t)
    pi, omega = list(d.pi), list(d.omega)
    corrected = vp.copy()
    if pi and omega:
        cross = vp[np.ix_(pi, omega)]
        delta = t * cross.T @ np.linalg.solve(pivot, cross)
        corrected[np.ix_(omega, omega)] += 0.5 * (delta + delta.T)
    p = d.p_matrix
    return SymMat.from_dense(p.T @ corrected @ p, check_symmetry=False)


def reference_feasible(d, vprime, t, stats):
    slack = subderivative._FEAS_SLACK * max(1.0, vprime.norm())
    try:
        vp, pivot = reference_schur(d, vprime, t)
    except ReferencePivotError:
        ok = is_psd(d.source + t * vprime, slack)
        stats["direct_feasible" if ok else "direct_infeasible"] += 1
        return ok
    pi, omega = list(d.pi), list(d.omega)
    comp = vp[np.ix_(omega, omega)]
    if pi and omega:
        cross = vp[np.ix_(pi, omega)]
        comp = comp - t * cross.T @ np.linalg.solve(pivot, cross)
    ok = comp.shape[0] == 0 or float(np.linalg.eigvalsh(comp)[0]) >= -slack
    stats["schur_feasible" if ok else "schur_infeasible"] += 1
    return ok


def reference_trace(
    y, ystar, v, t_grid=SAMPLING_T_GRID, radius=1.0, n_samples=64, seed=0,
    rank_tol=None, tol=1e-8, stats=None,
):
    """subderivative_sampling_trace as a per-sample loop: one conjugation,
    pivot test, solve and complement eigenvalue call per candidate.  ``stats``
    counts the candidates by the route and outcome of their feasibility test.
    The quotients take ystar's nearest point of the normal cone."""
    stats = Counter() if stats is None else stats
    d = eigen_decompose(y, rank_tol)
    assert d.psd and normal_cone_contains(d, ystar, tol)
    ystar = project_normal_cone(d, ystar)
    rng = np.random.default_rng(seed)
    m = y.m
    tangent = tangent_cone_contains(d, v, tol)
    tril = _tril_indices(m)
    trace = []
    for t in sorted((float(t) for t in t_grid), reverse=True):
        quotients = []
        recovery_q = None
        if tangent:
            try:
                recovery_q = -2.0 * frobenius_inner(ystar, reference_recovery(d, v, t)) / t
                quotients.append(recovery_q)
            except ReferencePivotError:
                pass
        if reference_feasible(d, v, t, stats):
            quotients.append(-2.0 * frobenius_inner(ystar, v) / t)
        for start in range(0, n_samples, subderivative._TRACE_BLOCK):
            # the draws of one block, all normals first, as the trace makes them
            size = min(subderivative._TRACE_BLOCK, n_samples - start)
            noises, uniforms = rng.standard_normal((size, m, m)), rng.random(size)
            for noise, u in zip(noises, uniforms):
                noise = 0.5 * (noise + noise.T)
                nrm = np.linalg.norm(noise)
                if nrm == 0.0:
                    continue
                noise *= radius * t * u / nrm
                vprime = v + SymMat(m, noise[tril])
                if reference_feasible(d, vprime, t, stats):
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


def triple_from_file(name):
    obj = json.loads((DATA / name).read_text())
    return tuple(SymMat.from_json(obj[key]) for key in ("Y", "Ystar", "V"))


def reference_cases():
    rng = np.random.default_rng(29)
    y4, ystar4, v4, _ = valid_triple(rng, 4, rank=2)
    return {
        "triple_basic": (triple_from_file("triple_basic.json"), {}),
        "corner": ((Y_CORNER, YS_CORNER, V_CROSS), {}),
        "corner_zero_multiplier": ((Y_CORNER, SymMat.zeros(2), V_CROSS), {}),
        "corner_zero_direction": ((Y_CORNER, YS_CORNER, SymMat.zeros(2)), {}),
        # empty pi: the tangent cone at 0 is the PSD cone itself
        "empty_pi": (
            (SymMat.zeros(3), -1.0 * SymMat.identity(3), SymMat.diagonal([1.0, 0.5, 0.0])),
            {},
        ),
        # empty omega: every direction is tangent at an interior point
        "empty_omega": (
            (SymMat.diagonal([2.0, 1.0, 1.5]), SymMat.zeros(3), random_symmat(rng, 3)),
            {},
        ),
        "non_tangent": ((Y_CORNER, YS_CORNER, SymMat.diagonal([0.0, -1.0])), {}),
        # the pivot 1 + 0.1 * (-20 + noise) fails for every row at the first step
        "pivot_fails_for_all": ((Y_CORNER, YS_CORNER, SymMat.diagonal([-20.0, 1.0])), {}),
        # the pivot 1 + 0.1 * (-5 + noise) straddles rank_tol = 0.5 at the
        # first step, so direct-test rows and Schur rows share a block
        "mixed_pivot_routes": (
            (Y_CORNER, YS_CORNER, SymMat.diagonal([-5.0, 1.0])),
            {"rank_tol": 0.5, "n_samples": 300},
        ),
        # v's complement -5e-15 passes only the norm-scaled slack (||v|| = 10)
        "within_scaled_slack": (
            (Y_CORNER, YS_CORNER, SymMat.diagonal([10.0, -5e-15])),
            {},
        ),
        **{
            f"samples_{n}": ((y4, ystar4, v4), {"n_samples": n, "seed": 3})
            for n in (0, 1, 255, 256, 257, 1000)
        },
        # 20 steps of 258 candidates overrun the buffer of 20 * 257 rows, so it
        # is judged once mid-grid and once at the end
        "grid_20_samples_257": (
            (y4, ystar4, v4),
            {"t_grid": tuple(np.logspace(-0.5, -6, 20)), "n_samples": 257, "seed": 4},
        ),
        # the pivot 1 - 300 t of the recovery point fails at the three largest
        # steps only, and its pi-omega coupling corrects the later ones
        "recovery_pivot_fails_at_large_steps": (
            (Y_CORNER, YS_CORNER, SymMat.from_dense([[-300.0, 1.0], [1.0, 1.0]])),
            {},
        ),
    }


def assert_same_trace(triple, kwargs, stats=None):
    y, ystar, v = triple
    d = eigen_decompose(y, kwargs.get("rank_tol"))
    options = {key: value for key, value in kwargs.items() if key != "rank_tol"}
    got = subderivative_sampling_trace(d, ystar, v, **options)
    assert got == reference_trace(*triple, **kwargs, stats=stats)
    return got


@pytest.mark.parametrize("name", sorted(reference_cases()))
def test_trace_matches_per_sample_reference(name):
    triple, kwargs = reference_cases()[name]
    for seed in (0, 1, 2) if "seed" not in kwargs else (kwargs["seed"],):
        stats = Counter()
        assert_same_trace(triple, {**kwargs, "seed": seed}, stats)
        if name == "mixed_pivot_routes":
            assert stats["direct_feasible"] > 0 and stats["schur_feasible"] > 0
        if name == "within_scaled_slack":
            # v passes at every step by the norm-scaled slack alone
            y, _, v = triple
            d = eigen_decompose(y)
            for t in SAMPLING_T_GRID:
                assert not schur_feasibility(d, v, t, tol=subderivative._FEAS_SLACK)
                assert schur_feasibility(d, v, t, tol=v.norm() * subderivative._FEAS_SLACK)


def assert_trace_matches_reference(m, rank, triple_seed, tilt, scale, n_samples, radius, seed):
    rng = np.random.default_rng(triple_seed)
    y, ystar, v, d = valid_triple(rng, m, rank=rank)
    if tilt:  # a tilted direction may leave the tangent cone
        v = v + random_symmat(rng, m, tilt)
    assert_same_trace(
        (y, ystar, scale * v), {"n_samples": n_samples, "radius": radius, "seed": seed}
    )
    return d


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    m=st.integers(2, 6),
    rank_share=st.floats(0.0, 1.0),
    triple_seed=st.integers(0, 2**32 - 1),
    tilt=st.sampled_from([0.0, 0.3]),
    scale=st.sampled_from([1.0, 12.0]),
    n_samples=st.integers(0, 40),
    radius=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_matches_reference_on_random_triples(
    m, rank_share, triple_seed, tilt, scale, n_samples, radius, seed
):
    # a rank in 1..m-1 leaves pi and omega nonempty, so every example forms a
    # pivot and a complement; the empty cases are the explicit examples below
    rank = 1 + round(rank_share * (m - 2))
    d = assert_trace_matches_reference(
        m, rank, triple_seed, tilt, scale, n_samples, radius, seed
    )
    assert d.pi and d.omega


@pytest.mark.parametrize("m, rank", [(1, 0), (1, 1), (4, 0), (4, 4)])
@pytest.mark.parametrize("tilt", [0.0, 0.3])
def test_trace_matches_reference_where_pi_or_omega_is_empty(m, rank, tilt):
    assert_trace_matches_reference(
        m, rank, triple_seed=m + rank, tilt=tilt, scale=12.0, n_samples=40, radius=1.0, seed=7
    )


def trace_calls(monkeypatch, d, ystar, v, n_samples):
    return linalg_calls(
        monkeypatch,
        lambda: subderivative_sampling_trace(d, ystar, v, n_samples=n_samples, seed=1),
    )


def test_trace_linalg_calls_do_not_grow_with_samples(monkeypatch):
    # the kernels run once per buffer of candidates, which holds a block of
    # every step, never once per sample.  The identity added to v's
    # omega-omega block keeps every sample's screen bound positive, so no
    # buffer is screened and each makes the same calls.
    _, ystar, v, d = valid_triple(np.random.default_rng(31), 6, rank=3)
    basis = d.p_matrix[list(d.omega)]
    v = v + SymMat.from_dense(basis.T @ basis, check_symmetry=False)
    base = trace_calls(monkeypatch, d, ystar, v, 64)
    assert base["eigvalsh"] > 0 and base["solve"] > 0
    assert trace_calls(monkeypatch, d, ystar, v, 200) == base
    monkeypatch.setattr(subderivative, "_TRACE_BLOCK", 1024)
    assert trace_calls(monkeypatch, d, ystar, v, 512) == base


def test_trace_linalg_calls_stay_within_a_per_block_bound_when_screened(monkeypatch):
    # where the screen decides a whole block, that block makes no call; any
    # block makes at most a pivot, a complement and a direct eigvalsh and one
    # solve.  n_samples = 0 still tests v, one block per step.
    _, ystar, v, d = valid_triple(np.random.default_rng(31), 6, rank=3)
    steps = len(SAMPLING_T_GRID)
    calls = {n: trace_calls(monkeypatch, d, ystar, v, n) for n in (0, 64, 200, 1000)}
    base = calls[0]
    for n_samples in (64, 200, 1000):
        blocks = steps * math.ceil(n_samples / subderivative._TRACE_BLOCK)
        got = calls[n_samples]
        assert got["eigvalsh"] <= base["eigvalsh"] + 3 * blocks
        assert got["solve"] <= base["solve"] + blocks
        assert got["eigh"] == base["eigh"] and got["norm"] == base["norm"]
    # the screen decides whole blocks on this triple: at 64 samples, one
    # block a step, the sampled blocks add fewer solves than one a block
    assert calls[64]["solve"] < base["solve"] + steps


def test_trace_judges_the_whole_grid_in_one_batch(monkeypatch):
    # at 64 samples the candidates of all 8 steps fit one buffer: the screen
    # runs once per trace, not once per step, and the exact test takes the
    # rows that it leaves open in one further call
    _, ystar, v, d = valid_triple(np.random.default_rng(1), 12, rank=6)
    calls = Counter()
    build, feasible = subderivative._infeasibility_screen, subderivative._samples_feasible

    def counted_screen(d, v):
        rejected = build(d, v)

        def counted(*args):
            calls["rejected"] += 1
            return rejected(*args)

        return counted

    def counted_feasible(*args):
        calls["samples_feasible"] += 1
        return feasible(*args)

    monkeypatch.setattr(subderivative, "_infeasibility_screen", counted_screen)
    monkeypatch.setattr(subderivative, "_samples_feasible", counted_feasible)
    trace = subderivative_sampling_trace(d, ystar, v, n_samples=64, seed=0)
    assert len(trace) == len(SAMPLING_T_GRID)
    assert calls["rejected"] == 1
    assert calls["samples_feasible"] <= 2


def test_trace_raises_the_first_overflow_of_a_walk_down_the_grid():
    # on Y = diag(1, 0) the pivot 1 - 99.9 t fails at t = 0.1, and at t = 0.01
    # the recovery's coupling 0.01 (5e153)^2 / 0.001 overflows.  A walk down
    # the grid meets the overflowing sample norms of t = 0.1 first, so the
    # recovery of a later step must not raise ahead of them
    v = SymMat.from_dense([[-99.9, 5e153], [5e153, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="norm that is not finite"):
            subderivative_sampling_trace(
                D_CORNER, YS_CORNER, v, t_grid=(0.1, 0.01), radius=1e200, n_samples=8
            )
        # without the step t = 0.1 the recovery point overflows first
        with pytest.raises(FloatingPointError, match="overflow encountered"):
            subderivative_sampling_trace(
                D_CORNER, YS_CORNER, v, t_grid=(0.01,), radius=1e200, n_samples=8
            )
        # and with sample norms that stay finite, after the steps before it
        with pytest.raises(FloatingPointError, match="overflow encountered"):
            subderivative_sampling_trace(D_CORNER, YS_CORNER, v, t_grid=(0.1, 0.01, 1e-3))


# -- the infeasibility screen ---------------------------------------------------------


def threshold_rows(d, v, count=256):
    """Directions whose omega-omega complement has its smallest eigenvalue at
    the filter's threshold -slack, give or take a few ulps: v in d's
    eigenbasis with its pi-omega block zeroed and the smallest eigenvalue of
    its omega-omega block moved there.  Without a coupling term the screen's
    bound along that eigenvector is exact, so only the screen's rounding
    term keeps it from rejecting the rows that the exact test accepts."""
    p, pi, omega = d.p_matrix, list(d.pi), list(d.omega)
    x = p @ v.dense() @ p.T
    x[np.ix_(pi, omega)] = 0.0
    x[np.ix_(omega, pi)] = 0.0
    lam, z = np.linalg.eigh(x[np.ix_(omega, omega)])
    size = max(1.0, SymMat.from_dense(x, check_symmetry=False).norm())
    slack = subderivative._FEAS_SLACK * size
    ulp = np.finfo(float).eps * size
    rows = []
    for step in range(-count // 2, count // 2):
        moved = x.copy()
        shift = step * ulp / 16 - slack - lam[0]
        moved[np.ix_(omega, omega)] += shift * np.outer(z[:, 0], z[:, 0])
        rows.append(SymMat.from_dense(p.T @ moved @ p, check_symmetry=False).lower)
    return np.array(rows)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    m=st.integers(2, 6),
    rank_share=st.floats(0.0, 1.0),
    triple_seed=st.integers(0, 2**32 - 1),
    tilt=st.sampled_from([0.0, 0.3]),
    scale=st.sampled_from([1.0, 12.0, 1e75, 1e150]),
    n_samples=st.integers(0, 40),
    radius=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_rejects_no_row_that_the_exact_filter_accepts(
    m, rank_share, triple_seed, tilt, scale, n_samples, radius, seed
):
    # the strategies of test_trace_matches_reference_on_random_triples, with
    # large scales, a rank that leaves pi and omega nonempty, and rows placed
    # at the feasibility threshold
    rng = np.random.default_rng(triple_seed)
    _, _, v, d = valid_triple(rng, m, rank=1 + round(rank_share * (m - 2)))
    if tilt:
        v = v + random_symmat(rng, m, tilt)
    v = scale * v
    screen = subderivative._infeasibility_screen(d, v)
    verdicts = []

    def spy(*args):
        verdicts.append(screen(*args))
        return verdicts[-1]

    draws = np.random.default_rng(seed)
    for t in SAMPLING_T_GRID:
        blocks = subderivative._candidate_blocks(draws, v, t, radius, n_samples)
        rows = np.concatenate([*blocks, threshold_rows(d, v)])
        exact = subderivative._samples_feasible(d, None, rows, t)
        screened = subderivative._samples_feasible(d, spy, rows, t)
        assert not (verdicts.pop() & exact).any()
        assert (screened == exact).all()


def test_screen_rejects_most_candidates_of_a_rank_deficient_triple(monkeypatch):
    # v's omega-omega block is singular, so most samples leave the cone; at
    # least 80% of the candidates must never reach the exact test, and the
    # samples that it accepts still count beside the recovery points
    _, ystar, v, d = valid_triple(np.random.default_rng(1), 12, rank=6)
    tested = []
    exact = subderivative._schur_min_eigenvalues

    def counted(d, lowers, t):
        tested.append(len(lowers))
        return exact(d, lowers, t)

    monkeypatch.setattr(subderivative, "_schur_min_eigenvalues", counted)
    trace = subderivative_sampling_trace(d, ystar, v, seed=0)
    candidates = len(SAMPLING_T_GRID) * (1 + subderivative.SAMPLING_N)
    assert sum(level["feasible_samples"] for level in trace) > len(SAMPLING_T_GRID)
    assert sum(tested) <= 0.2 * candidates


def test_trace_perturbations_lie_within_radius_t():
    # checked apart from reference_trace, which draws as the trace does: every
    # perturbation of v lies within radius * t, at a norm uniform on that
    # interval (KS statistic of 10k norms below 1.95 / sqrt(10k))
    v, radius, t, n_samples = random_symmat(np.random.default_rng(8), 3), 0.7, 1e-3, 10_000
    rng = np.random.default_rng(9)
    rows = np.concatenate(list(subderivative._candidate_blocks(rng, v, t, radius, n_samples)))
    assert rows.shape == (1 + n_samples, 6)
    assert rows[0].tolist() == v.lower.tolist()
    norms = np.sort([(SymMat(3, row) - v).norm() for row in rows[1:]]) / (radius * t)
    assert norms.max() <= 1 + 1e-9
    steps = np.arange(1, n_samples + 1) / n_samples
    ks = max((steps - norms).max(), (norms - steps + 1 / n_samples).max())
    assert ks < 1.95 / np.sqrt(n_samples)


def test_trace_memory_does_not_grow_with_samples():
    # one draw of all 50k 12 x 12 noise matrices would allocate 57.6 MB; the
    # blocks of _TRACE_BLOCK draws peak at about 1.4 MB
    _, ystar, v, d = valid_triple(np.random.default_rng(33), 12, rank=6)
    tracemalloc.start()
    try:
        trace = subderivative_sampling_trace(d, ystar, v, t_grid=(0.1,), n_samples=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 1
    assert peak < 57.6e6 / 10


def test_trace_memory_on_the_default_grid_does_not_grow_with_samples():
    # the buffer holds at most one block of each of the 8 steps; it is judged
    # whenever the next block would not fit, 8 times at 2,000 samples and 196
    # times at 50,000
    _, ystar, v, d = valid_triple(np.random.default_rng(33), 12, rank=6)
    peaks = {}
    for n_samples in (2_000, 50_000):
        tracemalloc.start()
        try:
            subderivative_sampling_trace(d, ystar, v, n_samples=n_samples)
            peaks[n_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[50_000] <= 1.1 * peaks[2_000]


def test_recovery_overflow_raises_floating_point_error():
    # the correction t V_op inv(pivot) V_po = t 1e400 overflows: a numerical
    # anomaly, not the input error of the infinite entry reaching SymMat
    v = SymMat.from_dense([[0.0, 1e200], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            estimate_subderivative_sampling(D_CORNER, YS_CORNER, v)


@pytest.mark.parametrize("entry", [1e154, 1e200])
def test_cli_subderivative_closed_form_overflow_exits_4(tmp_path, capsys, entry):
    # -2 <ystar, v pinv(y) v> = 2 entry^2 overflows: a numerical anomaly, not
    # the input error that the infinite "finite" value raised, and no warning
    triple = {
        "Y": {"m": 2, "lower": [1, 0, 0]},
        "Ystar": {"m": 2, "lower": [0, 0, -1]},
        "V": {"m": 2, "lower": [0, entry, 0]},
    }
    path, out = tmp_path / "triple.json", tmp_path / "report.json"
    path.write_text(json.dumps(triple))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["subderivative", str(path), "--json", str(out)])
    assert code == 4
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.ERROR_SCHEMA)
    assert report["error"]["kind"] == "numerical_anomaly"
    assert "numerical anomaly" in capsys.readouterr().err


def test_schur_terms_symmetrize_without_overflow():
    # off-diagonal entries near the largest float: 0.5 * (c + c.T) overflowed
    d = eigen_decompose(SymMat.diagonal([1.0, 0.0, 0.0]))
    lowers = np.array([[0.0, 0.0, 0.0, 0.0, 1e308, 0.0]])  # V_21 = V_12 = 1e308
    conj, ok, _ = subderivative._schur_terms(d, lowers, 1.0)
    assert ok.all()
    assert np.isfinite(conj).all()
    assert np.abs(conj).max() == 1e308


def test_trace_quotients_overflow_with_their_sign():
    # -2 <ystar, v'> / t past the largest float: an overflow is an infinity of
    # the quotient's sign, inf - inf is summed again at scale, and every
    # quotient that the plain formula gets finite keeps its bits
    t = 0.5
    ystar = SymMat(2, np.array([-1.5e308, 1e308, 0.0]))  # 2 * 1e308 overflows
    rows = np.array([
        [1.0, 0.0, 0.0],  # -2 * (-1.5e308) / 0.5
        [0.0, -1e-10, 0.0],  # 2 * 1e308 * -1e-10, finite
        [-1.0, 0.0, 0.0],
        [1e-300, 0.0, 0.0],
        [0.0, 0.0, 3.0],  # 0, although 2 * 1e308 * 0 reads NaN
    ])
    with np.errstate(all="raise"):
        got = subderivative._quotients(ystar, rows, t)
    assert got[0] == np.inf and got[2] == -np.inf
    assert got[1] == pytest.approx(8e298, rel=1e-15)
    assert got[3] == pytest.approx(6e8, rel=1e-15)  # 2 * 1.5e308 * 1e-300 / 0.5
    assert got[4] == 0.0
    plain = SymMat(2, np.array([-1.5, 1.0, 0.25]))
    finite = np.random.default_rng(3).standard_normal((50, 3))
    expected = [-2.0 * frobenius_inner(plain, SymMat(2, row)) / t for row in finite]
    assert subderivative._quotients(plain, finite, t).tolist() == expected


def test_cli_subderivative_quotients_overflow_quietly(tmp_path, capsys):
    # Ystar near -DBL_MAX on the kernel of Y: the quotients of the feasible
    # samples overflow to +inf, and the report keeps the finite minimum
    triple = {
        "Y": {"m": 3, "lower": [1, 0, 0, 0, 0, 0]},
        "Ystar": {"m": 3, "lower": [0, 0, -1.5e308, 0, 0, -1.5e308]},
        "V": {"m": 3, "lower": [0, 0, 0, 0, 0, 0]},
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(triple))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["subderivative", str(path), "--json", str(out)])
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert [level["min_quotient"] for level in result["trace"]] == [0.0] * 8
    assert all(level["feasible_samples"] > 1 for level in result["trace"])
