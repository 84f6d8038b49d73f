"""Quadratic problem family: exact derivatives and the generalized Lagrangian."""

import json
from pathlib import Path

import numpy as np
import pytest

from nsdpcheck import (
    NlsdpProblem,
    QuadraticMatrixMap,
    QuadraticScalar,
    SymMat,
    adjoint_dF,
    dF,
    d2F,
    eval_F,
    eval_f,
    frobenius_inner,
    grad_f,
    lagrangian_grad,
    lagrangian_hess_form,
    problem_from_json,
)

from conftest import build_p1, random_problem, random_symmat


def central_diff_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def second_diff_along(fun, x, u, h=1e-3):
    return (fun(x + h * u) - 2 * fun(x) + fun(x - h * u)) / (h * h)


def test_objective_examples():
    p = build_p1()
    x = np.array([3.0, 5.0])
    assert eval_f(p, x) == 5.0
    assert np.array_equal(grad_f(p, x), [0.0, 1.0])
    assert np.array_equal(p.f.h, np.zeros((2, 2)))

    sq = NlsdpProblem(
        n=2,
        m=2,
        f=QuadraticScalar(c=0.0, g=np.zeros(2), h=np.eye(2)),
        F=build_p1().F,
    )
    assert np.array_equal(grad_f(sq, x), x)
    assert eval_f(sq, x) == pytest.approx(0.5 * (9 + 25))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        p = random_problem(rng, n, m)
        x = rng.uniform(-1, 1, n)
        fd = central_diff_grad(lambda z: eval_f(p, z), x)
        assert np.allclose(grad_f(p, x), fd, atol=1e-6)


def test_constraint_map_examples():
    p = build_p1()
    x0 = np.zeros(2)
    assert np.allclose(eval_F(p, x0).dense(), np.diag([1.0, 0.0]))
    u = np.array([0.7, -0.3])
    assert np.allclose(dF(p, x0, u).dense(), [[0.0, 0.7], [0.7, -0.3]])
    assert np.array_equal(d2F(p, x0, u).dense(), np.zeros((2, 2)))
    x = np.array([0.4, 1.2])
    assert np.allclose(eval_F(p, x).dense(), [[1.0, 0.4], [0.4, 1.2]])


def test_adjoint_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, m = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        p = random_problem(rng, n, m)
        x = rng.uniform(-1, 1, n)
        u = rng.uniform(-1, 1, n)
        ystar = random_symmat(rng, m)
        lhs = frobenius_inner(ystar, dF(p, x, u))
        rhs = float(adjoint_dF(p, x, ystar) @ u)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_taylor_expansion_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        p = random_problem(rng, n, m)
        x = rng.uniform(-1, 1, n)
        u = rng.uniform(-1, 1, n)
        pred_f = eval_f(p, x) + grad_f(p, x) @ u + 0.5 * u @ p.f.h @ u
        assert eval_f(p, x + u) == pytest.approx(pred_f, abs=1e-12)
        pred_F = eval_F(p, x) + dF(p, x, u) + 0.5 * d2F(p, x, u)
        assert (eval_F(p, x + u) - pred_F).norm() <= 1e-12


def test_lagrangian_examples():
    p = build_p1()
    xbar = np.zeros(2)
    ystar = SymMat.diagonal([0.0, -1.0])
    assert np.allclose(lagrangian_grad(p, 1.0, xbar, ystar), np.zeros(2), atol=1e-15)
    assert np.array_equal(lagrangian_grad(p, 0.0, xbar, SymMat.zeros(2)), np.zeros(2))
    assert np.allclose(
        lagrangian_grad(p, 2.5, xbar, SymMat.zeros(2)), 2.5 * grad_f(p, xbar)
    )
    with pytest.raises(ValueError):
        lagrangian_grad(p, -1.0, xbar, ystar)


def test_lagrangian_hess_form_examples():
    p = build_p1()  # affine constraint, linear objective
    for u in (np.array([1.0, 0.0]), np.array([0.3, -2.0])):
        assert lagrangian_hess_form(p, 1.0, np.zeros(2), SymMat.identity(2), u) == 0.0

    sq = NlsdpProblem(
        n=2,
        m=2,
        f=QuadraticScalar(c=0.0, g=np.zeros(2), h=np.eye(2)),
        F=build_p1().F,
    )
    u = np.array([0.6, -0.8])
    assert lagrangian_hess_form(sq, 1.0, np.zeros(2), SymMat.zeros(2), u) == (
        pytest.approx(1.0)
    )


def test_lagrangian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        p = random_problem(rng, n, m)
        x = rng.uniform(-1, 1, n)
        u = rng.uniform(-1, 1, n)
        u /= np.linalg.norm(u)
        ystar = random_symmat(rng, m)
        alpha = float(rng.uniform(0, 2))

        def scalar(z):
            return alpha * eval_f(p, z) + frobenius_inner(ystar, eval_F(p, z))

        fd_grad = central_diff_grad(scalar, x)
        assert np.allclose(lagrangian_grad(p, alpha, x, ystar), fd_grad, atol=1e-5)
        fd_quad = second_diff_along(scalar, x, u)
        assert lagrangian_hess_form(p, alpha, x, ystar, u) == pytest.approx(
            fd_quad, abs=1e-5
        )


def test_problem_json_roundtrip_and_validation():
    obj = json.loads((Path(__file__).parent / "data" / "p1.json").read_text())
    p, xbar = problem_from_json(obj)
    assert (p.n, p.m) == (2, 2)
    assert np.array_equal(xbar, np.zeros(2))
    assert np.allclose(eval_F(p, xbar).dense(), np.diag([1.0, 0.0]))

    with pytest.raises(ValueError):
        problem_from_json({"n": 2, "m": 2})
    bad = json.loads(json.dumps(obj))
    bad["xbar"] = [0.0]
    with pytest.raises(ValueError):
        problem_from_json(bad)
    bad = json.loads(json.dumps(obj))
    bad["F"]["A"] = bad["F"]["A"][:1]
    with pytest.raises(ValueError):
        problem_from_json(bad)


def test_quadratic_coefficients_must_be_symmetric_in_indices():
    m1 = SymMat.identity(2).lower
    m2 = SymMat.diagonal([2.0, 0.0]).lower
    with pytest.raises(ValueError, match=r"b\[i, j\] == b\[j, i\]"):
        QuadraticMatrixMap(
            a0=SymMat.zeros(2),
            a=[m1, m1],
            b=[[m1, m1], [m2, m1]],
        )


P1_A = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # lower triangles of p1's A_1, A_2


@pytest.mark.parametrize(
    "a, b, message",
    [
        ([[0.0, 1.0, np.inf]], None, "must be finite"),
        (P1_A, [[[0.0] * 3, [0.0] * 3], [[0.0] * 3, [np.nan, 0.0, 0.0]]], "must be finite"),
        ([[0.0, 1.0]], None, r"must have shape \(n, 3\)"),
        ([0.0, 1.0, 0.0], None, r"must have shape \(n, 3\)"),
        (P1_A, np.zeros((2, 1, 3)), r"must have shape \(2, 2, 3\)"),
        (P1_A, np.zeros((2, 2, 6)), r"must have shape \(2, 2, 3\)"),
        (P1_A, [[[0.0] * 3, [0.0, 1.0, 0.0]], [[0.0] * 3, [0.0] * 3]], r"b\[i, j\] == b\[j, i\]"),
    ],
)
def test_matrix_map_validates_its_arrays(a, b, message):
    with pytest.raises(ValueError, match=message):
        QuadraticMatrixMap(a0=SymMat.zeros(2), a=a, b=b)


def test_matrix_map_keeps_read_only_copies():
    a, b = np.array(P1_A), np.zeros((2, 2, 3))
    cap = QuadraticMatrixMap(a0=SymMat.zeros(2), a=a, b=b)
    a[0, 1] = b[0, 0, 0] = 5.0
    assert cap.a[0, 1] == 1.0 and cap.b[0, 0, 0] == 0.0
    assert not cap.a.flags.writeable and not cap.b.flags.writeable
    assert (cap.n, cap.m) == (2, 2)
    empty = QuadraticMatrixMap(a0=SymMat.zeros(1), a=np.zeros((0, 1)), b=np.zeros((0, 0, 1)))
    assert (empty.n, empty.m) == (0, 1)


def test_problem_from_json_stacks_quadratic_coefficients():
    obj = json.loads((Path(__file__).parent / "data" / "p1.json").read_text())
    obj["F"]["B"] = [[{"m": 2, "lower": [0.0, 0.0, 0.6]}, None], [None, None]]
    p, _ = problem_from_json(obj)
    assert p.F.a.tolist() == P1_A
    assert p.F.b.shape == (2, 2, 3)
    assert p.F.b[0, 0].tolist() == [0.0, 0.0, 0.6] and not p.F.b[1:].any()
    for grid, message in (
        ([[None, None]], "square grid"),
        ([[None, None], [None]], "square grid"),
        ([[None], [None]], "square grid"),
        ([[{"m": 3, "lower": [0.0] * 6}, None], [None, None]], "dimension m = 2"),
        ([[{"m": 2, "lower": [0.0, 1.0, 0.0]}, None], [None, None]], None),
    ):
        obj["F"]["B"] = grid
        if message is None:
            problem_from_json(obj)  # B_11 and its own transpose: symmetric
            continue
        with pytest.raises(ValueError, match=message):
            problem_from_json(obj)
    obj["F"]["B"] = None
    obj["F"]["A"][1] = {"m": 3, "lower": [0.0] * 6}
    with pytest.raises(ValueError, match="dimension m = 2"):
        problem_from_json(obj)


def test_dimension_validation():
    with pytest.raises(ValueError):
        NlsdpProblem(
            n=2,
            m=2,
            f=QuadraticScalar(c=0.0, g=np.zeros(3), h=np.zeros((3, 3))),
            F=build_p1().F,
        )
    p = build_p1()
    with pytest.raises(ValueError):
        eval_f(p, np.zeros(3))
    with pytest.raises(ValueError):
        adjoint_dF(p, np.zeros(2), SymMat.identity(3))
