"""PSD-cone membership, projection and the tangent/normal block criteria."""

import numpy as np
import pytest

from nsdpcheck.cone import (
    dist_psd,
    dist_psd_batch,
    normal_cone_contains,
    normal_cone_residual,
    project_normal_cone,
    tangent_cone_contains,
)
from nsdpcheck.symmat import (
    OrderedEigenDecomposition,
    SymMat,
    block,
    eigen_decompose,
    frobenius_inner,
    lower_to_dense,
)

from conftest import random_orthogonal, random_psd, random_symmat, valid_triple
from oracles import is_psd, project_psd, tangent_cone_contains_oracle


def test_is_psd_examples():
    assert is_psd(SymMat.identity(2), tol=0.0)
    assert not is_psd(SymMat.diagonal([1.0, -1.0]), tol=1e-9)
    # eigenvalues of the all-ones matrix are 2 and 0
    assert is_psd(SymMat.from_dense([[1.0, 1.0], [1.0, 1.0]]), tol=1e-9)
    with pytest.raises(ValueError):
        is_psd(SymMat.identity(2), tol=-1.0)


def test_project_psd_examples():
    assert np.allclose(project_psd(SymMat.diagonal([1.0, -3.0])).dense(), np.diag([1.0, 0.0]))
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = random_psd(rng, 4)
        assert np.allclose(project_psd(z).dense(), z.dense(), atol=1e-9)
    # clip the eigenvalue -1 of [[0,1],[1,0]] in the basis (1, +-1)/sqrt(2)
    proj = project_psd(SymMat.from_dense([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(proj.dense(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_dist_psd_examples():
    assert dist_psd(SymMat.diagonal([1.0, -3.0])) == pytest.approx(3.0, abs=1e-12)
    assert dist_psd(SymMat.from_dense([[2.0, 1.0], [1.0, 2.0]])) == 0.0
    assert dist_psd(SymMat.from_dense([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_dist_psd_overflow_keeps_finite_distances():
    # eigenvalues below -1.3e154 overflowed the squares to an infinite
    # distance with a RuntimeWarning; rows whose plain sum is finite keep it
    big = np.array([[-1e200], [1e300], [-3e-200], [-2.5]])
    with np.errstate(over="raise", invalid="raise"):
        assert dist_psd_batch(1, big).tolist() == [1e200, 0.0, 0.0, 2.5]
        assert dist_psd(SymMat.diagonal([-3e200, 1.0, -4e200])) == pytest.approx(5e200)
    rows = np.random.default_rng(5).standard_normal((40, 6))
    lam = np.linalg.eigvalsh(lower_to_dense(3, rows))
    plain = np.sqrt(np.sum(np.minimum(lam, 0.0) ** 2, axis=-1))
    assert dist_psd_batch(3, rows).tobytes() == plain.tobytes()


def test_projection_optimality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        a = random_symmat(rng, m)
        z = random_psd(rng, m, eig_low=0.0)
        proj = project_psd(a)
        assert (a - proj).norm() <= (a - z).norm() + 1e-9


def test_normal_cone_projection_optimality():
    # the nearest point of the normal cone: inside it, no farther from a than
    # any other point of it, and a fixed point on the cone's own points
    rng = np.random.default_rng(47)
    for trial in range(50):
        m = int(rng.integers(1, 6))
        _, ystar, _, d = valid_triple(rng, m, rank=trial % (m + 1))
        a = random_symmat(rng, m)
        proj = project_normal_cone(d, a)
        assert normal_cone_residual(d, proj) <= 1e-12
        for scale in (0.0, 0.5, 2.0):
            assert (a - proj).norm() <= (a - scale * ystar).norm() + 1e-9
        assert (project_normal_cone(d, ystar) - ystar).norm() <= 1e-12


def test_tangent_cone_examples():
    d = eigen_decompose(SymMat.diagonal([1.0, 0.0]))
    assert tangent_cone_contains(d, SymMat.from_dense([[-5.0, 7.0], [7.0, 0.0]]))
    assert not tangent_cone_contains(d, SymMat.diagonal([0.0, -1.0]), tol=1e-9)
    interior = eigen_decompose(SymMat.identity(2))
    rng = np.random.default_rng(9)
    for _ in range(5):
        assert tangent_cone_contains(interior, random_symmat(rng, 2))


def test_normal_cone_examples():
    d = eigen_decompose(SymMat.diagonal([1.0, 0.0]))
    assert normal_cone_contains(d, SymMat.diagonal([0.0, -2.0]))
    assert not normal_cone_contains(d, SymMat.from_dense([[0.0, 1.0], [1.0, -1.0]]))
    interior = eigen_decompose(SymMat.identity(2))
    assert normal_cone_contains(interior, SymMat.zeros(2))
    assert not normal_cone_contains(interior, SymMat.diagonal([0.0, -1e-3]))


def test_normal_cone_membership_is_its_residual_within_tol():
    # one measure: the residual is the largest of 0, |Y*_pp|, |Y*_po| and
    # lambda_max(Y*_oo), and membership is residual <= tol, at every rank
    rng = np.random.default_rng(59)
    for trial in range(60):
        m = int(rng.integers(1, 5))
        d = eigen_decompose(random_psd(rng, m, rank=trial % (m + 1)))
        ystar = valid_triple(rng, m, rank=len(d.pi))[1] if trial % 3 else random_symmat(rng, m)
        ystar = ystar + random_symmat(rng, m, scale=10.0 ** rng.uniform(-10, -6))
        pp, po, oo = (block(ystar, d, r, c) for r, c in
                      ((d.pi, d.pi), (d.pi, d.omega), (d.omega, d.omega)))
        top = np.linalg.eigvalsh(oo)[-1] if d.omega else 0.0
        residual = normal_cone_residual(d, ystar)
        assert residual == max(0.0, np.linalg.norm(pp), np.linalg.norm(po), top)
        for tol in (1e-12, 1e-8, residual, 1.0):
            assert normal_cone_contains(d, ystar, tol) == (residual <= tol)


def test_degenerate_base_points():
    # at the origin of the cone the tangent cone is the cone itself and the
    # normal cone is its negative
    d = eigen_decompose(SymMat.zeros(3))
    rng = np.random.default_rng(21)
    for _ in range(10):
        v = random_symmat(rng, 3)
        assert tangent_cone_contains(d, v) == is_psd(v, 1e-8)
        assert normal_cone_contains(d, v) == is_psd(-1.0 * v, 1e-8)


def test_tangent_oracle_examples():
    y = SymMat.diagonal([1.0, 0.0])
    v_in = SymMat.from_dense([[0.0, 1.0], [1.0, 0.0]])
    v_out = SymMat.diagonal([0.0, -1.0])
    assert tangent_cone_contains_oracle(y, v_in)
    assert not tangent_cone_contains_oracle(y, v_out)
    rng = np.random.default_rng(31)
    for _ in range(5):
        assert tangent_cone_contains_oracle(SymMat.identity(3), random_symmat(rng, 3))


def _tangent_samples(rng, m):
    """(d, v, expected) with v clearly inside or outside the tangent cone."""
    rank = int(rng.integers(0, m + 1))
    y = random_psd(rng, m, rank)
    d = eigen_decompose(y)
    k = len(d.omega)
    v_dense = rng.uniform(-0.2, 0.2, (m, m))
    v_dense = 0.5 * (v_dense + v_dense.T)
    inside = bool(rng.integers(0, 2)) or k == 0
    if k:
        blk = rng.uniform(-0.5, 0.5, (k, k))
        blk = 0.5 * (blk + blk.T)
        lam, q = np.linalg.eigh(blk)
        if inside:
            blk = (q * np.maximum(lam, 0.0)) @ q.T
        else:
            lam[0] = min(lam[0], -0.05)
            blk = (q * lam) @ q.T
        # replace the omega-omega block in the eigenbasis, rotate back
        vp = d.p_matrix @ v_dense @ d.p_matrix.T
        vp[np.ix_(d.omega, d.omega)] = blk
        v_dense = d.p_matrix.T @ vp @ d.p_matrix
    v = SymMat.from_dense(v_dense, check_symmetry=False)
    return d, v, inside


def test_tangent_formula_vs_oracle():
    rng = np.random.default_rng(37)
    t_grid = tuple(10.0**-k for k in range(1, 8))
    for _ in range(200):
        m = int(rng.integers(2, 6))
        d, v, expected = _tangent_samples(rng, m)
        assert tangent_cone_contains(d, v) == expected
        assert tangent_cone_contains_oracle(d.source, v, t_grid=t_grid) == expected


def test_normal_formula_vs_projection_oracle():
    # x* is normal at x exactly when projecting x + x* lands back on x
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        y, ystar, _, d = valid_triple(rng, m, rank=int(rng.integers(1, m)))
        assert normal_cone_contains(d, ystar)
        assert (project_psd(y + ystar) - y).norm() <= 1e-8

        # mass on a positive eigendirection leaves the normal cone
        q = d.p_matrix[0]
        bad = ystar + SymMat.from_dense(0.2 * np.outer(q, q), check_symmetry=False)
        assert not normal_cone_contains(d, bad, tol=1e-6)
        assert (project_psd(y + bad) - y).norm() > 1e-6


def test_polarity_on_samples():
    rng = np.random.default_rng(43)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        _, ystar, v, d = valid_triple(rng, m, rank=int(rng.integers(0, m + 1)))
        assert tangent_cone_contains(d, v)
        assert normal_cone_contains(d, ystar)
        assert frobenius_inner(ystar, v) <= 1e-8


def test_membership_invariant_under_positive_scaling():
    rng = np.random.default_rng(47)
    for _ in range(40):
        m = int(rng.integers(2, 5))
        d, v, _ = _tangent_samples(rng, m)
        ystar = valid_triple(rng, m, rank=len(d.pi))[1]
        for c in (1e-3, 0.5, 7.0, 1e4):
            assert tangent_cone_contains(d, v) == tangent_cone_contains(d, c * v)
            assert normal_cone_contains(d, ystar) == normal_cone_contains(d, c * ystar)


def test_membership_invariant_across_eigenbasis_ties():
    # repeated eigenvalues leave the eigenbasis free; membership must not
    # depend on which orthogonal basis of each eigenspace is chosen
    rng = np.random.default_rng(53)
    seen = set()
    for trial in range(25):
        m = 4
        q = random_orthogonal(rng, m)
        lam = np.array([2.0, 2.0, 0.0, 0.0])
        y = SymMat.from_dense((q * lam) @ q.T, check_symmetry=False)
        d1 = eigen_decompose(y)
        p2 = d1.p_matrix.copy()
        for tie in (d1.pi, d1.omega):
            rows = list(tie)
            p2[rows] = random_orthogonal(rng, len(rows)) @ p2[rows]
        d2 = OrderedEigenDecomposition(
            source=y,
            p_matrix=p2,
            eigenvalues=d1.eigenvalues,
            rank_tol=d1.rank_tol,
        )
        assert not np.allclose(d1.p_matrix, d2.p_matrix)
        v = random_symmat(rng, m)
        # supported on the kernel: in the normal cone iff its block is NSD
        w = random_symmat(rng, 2).dense()
        if trial % 2:
            w = -(w @ w)
        p_omega = d1.p_matrix[list(d1.omega)]
        ystar = SymMat.from_dense(p_omega.T @ w @ p_omega, check_symmetry=False)
        tangent = tangent_cone_contains(d1, v)
        normal = normal_cone_contains(d1, ystar)
        assert tangent_cone_contains(d2, v) == tangent
        assert normal_cone_contains(d2, ystar) == normal
        seen.add((tangent, normal))
    assert {t for t, _ in seen} == {n for _, n in seen} == {True, False}
