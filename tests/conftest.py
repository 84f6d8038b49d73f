"""Shared builders for randomized fixtures.

Valid subderivative triples are constructed in the eigenbasis of the base
point with the multiplier block and the omega-omega direction block supported
on orthogonal eigenspaces, so their inner product vanishes to machine
precision.  Scales are kept O(1) with positive eigenvalues bounded away from
zero; the quotient analysis of the sampling oracle relies on that.
"""

from collections import Counter

import numpy as np
import pytest

from nsdpcheck import (
    NlsdpProblem,
    QuadraticMatrixMap,
    QuadraticScalar,
    SymMat,
    eigen_decompose,
)


def random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def random_symmat(rng, m, scale=1.0):
    a = rng.uniform(-scale, scale, (m, m))
    return SymMat.from_dense(0.5 * (a + a.T), check_symmetry=False)


def random_psd(rng, m, rank=None, eig_low=1.0, eig_high=2.0):
    """PSD matrix with the given rank and positive eigenvalues in range."""
    if rank is None:
        rank = int(rng.integers(0, m + 1))
    q = random_orthogonal(rng, m)
    lam = np.zeros(m)
    lam[:rank] = rng.uniform(eig_low, eig_high, rank)
    return SymMat.from_dense((q * lam) @ q.T, check_symmetry=False)


def valid_triple(rng, m, rank):
    """(y, ystar, v, d): ystar in the normal cone, v in the tangent cone,
    <ystar, v> = 0 up to machine precision, all norms <= O(1)."""
    assert 0 <= rank <= m
    y = random_psd(rng, m, rank)
    d = eigen_decompose(y)
    pi, omega = list(d.pi), list(d.omega)
    k = len(omega)
    p = d.p_matrix

    w = np.zeros((k, k))
    v_oo = np.zeros((k, k))
    if k:
        q = random_orthogonal(rng, k)
        n_neg = int(rng.integers(1, k + 1))
        diag_w = np.zeros(k)
        diag_w[:n_neg] = -rng.uniform(0.2, 1.0, n_neg)
        w = (q * diag_w) @ q.T
        w /= max(1.0, np.linalg.norm(w))
        diag_v = np.zeros(k)
        diag_v[n_neg:] = rng.uniform(0.0, 1.0, k - n_neg)
        v_oo = (q * diag_v) @ q.T

    v_full = np.zeros((m, m))
    if pi:
        blk = rng.uniform(-0.5, 0.5, (len(pi), len(pi)))
        v_full[np.ix_(pi, pi)] = 0.5 * (blk + blk.T)
        if omega:
            cross = rng.uniform(-0.5, 0.5, (len(pi), k))
            v_full[np.ix_(pi, omega)] = cross
            v_full[np.ix_(omega, pi)] = cross.T
    if omega:
        v_full[np.ix_(omega, omega)] = v_oo

    v = SymMat.from_dense(p.T @ v_full @ p, check_symmetry=False)
    nrm = v.norm()
    if nrm > 1.0:
        v = (1.0 / nrm) * v

    w_full = np.zeros((m, m))
    if omega:
        w_full[np.ix_(omega, omega)] = w
    ystar = SymMat.from_dense(p.T @ w_full @ p, check_symmetry=False)
    return y, ystar, v, d


def build_p1(objective_sign=1.0):
    """min sign * x2 subject to [[1, x1], [x1, x2]] PSD; candidate the origin."""
    f = QuadraticScalar(c=0.0, g=np.array([0.0, objective_sign]), h=np.zeros((2, 2)))
    # rows: lower triangles of A_1 = [[0, 1], [1, 0]] and A_2 = diag(0, 1)
    cap_f = QuadraticMatrixMap(
        a0=SymMat.diagonal([1.0, 0.0]), a=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    return NlsdpProblem(n=2, m=2, f=f, F=cap_f)


def build_trivial_cone():
    """min x subject to diag(x, x) PSD; the critical cone at 0 is {0}."""
    f = QuadraticScalar(c=0.0, g=np.array([1.0]), h=np.zeros((1, 1)))
    cap_f = QuadraticMatrixMap(a0=SymMat.zeros(2), a=[SymMat.identity(2).lower])
    return NlsdpProblem(n=1, m=2, f=f, F=cap_f)


def random_problem(rng, n, m, quadratic=True):
    """Random problem with F(0) PSD, so the origin is always feasible."""
    h = rng.uniform(-1, 1, (n, n))
    f = QuadraticScalar(
        c=float(rng.uniform(-1, 1)),
        g=rng.uniform(-1, 1, n),
        h=0.5 * (h + h.T),
    )
    a0 = random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
    t = m * (m + 1) // 2
    a = np.array([random_symmat(rng, m).lower for _ in range(n)]).reshape(n, t)
    b = None
    if quadratic:
        b = np.empty((n, n, t))
        for i in range(n):
            for j in range(i, n):
                b[i, j] = b[j, i] = random_symmat(rng, m, scale=0.5).lower
    return NlsdpProblem(n=n, m=m, f=f, F=QuadraticMatrixMap(a0=a0, a=a, b=b))


def kkt_consistent_problem(rng, n, m):
    """Random problem whose origin carries a stationary multiplier: the
    objective gradient cancels the adjoint of a normal-cone element, and the
    objective Hessian is positive definite."""
    base = random_problem(rng, n, m, quadratic=True)
    a0 = SymMat.from_dense(base.F.a0.dense() @ base.F.a0.dense(), check_symmetry=False)
    cap = QuadraticMatrixMap(a0=a0, a=base.F.a, b=base.F.b)
    d = eigen_decompose(a0)
    k = len(d.omega)
    full = np.zeros((m, m))
    if k:
        full[np.ix_(d.omega, d.omega)] = -np.eye(k)
    ystar = SymMat.from_dense(d.p_matrix.T @ full @ d.p_matrix, check_symmetry=False)
    from nsdpcheck.nlsdp import adjoint_dF

    g = -adjoint_dF(NlsdpProblem(n=n, m=m, f=base.f, F=cap), np.zeros(n), ystar)
    h = rng.uniform(-1, 1, (n, n))
    f = QuadraticScalar(c=0.0, g=g, h=h @ h.T + np.eye(n))
    return NlsdpProblem(n=n, m=m, f=f, F=cap)


@pytest.fixture
def p1():
    return build_p1(1.0)


@pytest.fixture
def p1_negated():
    return build_p1(-1.0)


def linalg_calls(monkeypatch, run, of=None) -> Counter:
    """Calls of numpy's eigh, eigvalsh, solve and norm made by run().  Given
    a matrix ``of``, counts instead the matrices equal to it that the calls
    take, each matrix of a stack on its own."""
    counts = Counter()
    with monkeypatch.context() as mp:
        for name in ("eigh", "eigvalsh", "solve", "norm"):
            def counted(a, *args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
                if of is None:
                    counts[_name] += 1
                elif np.shape(a)[-2:] == of.shape:
                    stack = np.reshape(a, (-1, *of.shape))
                    counts[_name] += int(np.count_nonzero((stack == of).all(axis=(1, 2))))
                return _orig(a, *args, **kwargs)

            mp.setattr(np.linalg, name, counted)
        run()
    return counts
