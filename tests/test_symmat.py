"""Symmetric storage, the ordered eigendecomposition and block notation."""

import numpy as np
import pytest

from nsdpcheck.symmat import (
    OrderedEigenDecomposition,
    SymMat,
    block,
    conjugate,
    eigen_decompose,
    frobenius_inner,
    frobenius_norms,
    pseudoinverse,
    split_blocks,
    svec,
)

from conftest import random_orthogonal, random_psd, random_symmat


def test_frobenius_inner_examples():
    eye2 = SymMat.identity(2)
    assert frobenius_inner(eye2, eye2) == 2.0
    assert frobenius_inner(SymMat.diagonal([1, 0]), SymMat.diagonal([0, -1])) == 0.0
    a = SymMat.from_dense([[1, 2], [2, 3]])
    b = SymMat.from_dense([[0, 1], [1, 0]])
    # oracle: direct double sum over dense entries
    expected = float(np.sum(a.dense() * b.dense()))
    assert expected == 4.0
    assert frobenius_inner(a, b) == pytest.approx(expected, abs=1e-14)


def test_frobenius_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        frobenius_inner(SymMat.identity(2), SymMat.identity(3))


def test_frobenius_inner_matches_trace():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        a, b = random_symmat(rng, m), random_symmat(rng, m)
        assert frobenius_inner(a, b) == pytest.approx(
            float(np.trace(a.dense() @ b.dense())), abs=1e-12
        )


def test_eigen_decompose_examples():
    d = eigen_decompose(SymMat.diagonal([2.0, 0.0]), rank_tol=1e-9)
    assert np.allclose(d.eigenvalues, [2.0, 0.0])
    assert d.pi == (0,) and d.omega == (1,)
    assert d.psd

    d = eigen_decompose(SymMat.identity(3))
    assert np.allclose(d.eigenvalues, [1.0, 1.0, 1.0])
    assert d.pi == (0, 1, 2) and d.omega == ()

    # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
    d = eigen_decompose(SymMat.from_dense([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d.eigenvalues, [1.0, -1.0])
    assert d.pi == (0,) and d.omega == ()
    assert not d.psd


def test_eigen_roundtrip_property():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        y = random_symmat(rng, m)
        d = eigen_decompose(y)
        p, lam = d.p_matrix, np.asarray(d.eigenvalues)
        dense = y.dense()
        assert np.linalg.norm(p @ p.T - np.eye(m)) <= 1e-10
        assert np.linalg.norm(p.T @ np.diag(lam) @ p - dense) <= 1e-8 * max(
            1.0, np.linalg.norm(dense)
        )
        assert np.all(np.diff(lam) <= 0)


def test_eigenvalues_match_lapack():
    # independent oracle: numpy's LAPACK eigensolver
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        y = random_symmat(rng, m)
        lam = np.asarray(eigen_decompose(y).eigenvalues)
        ref = np.sort(np.linalg.eigvalsh(y.dense()))[::-1]
        assert np.allclose(lam, ref, atol=1e-11)


def test_eigen_decompose_rejects_bad_rank_tol():
    for rank_tol in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError):
            eigen_decompose(SymMat.identity(2), rank_tol=rank_tol)


def test_pseudoinverse_examples():
    for diag, expected in [
        ([2.0, 0.0], [0.5, 0.0]),
        ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
        ([4.0, 1.0, 0.0], [0.25, 1.0, 0.0]),
    ]:
        d = eigen_decompose(SymMat.diagonal(diag))
        assert np.allclose(pseudoinverse(d).dense(), np.diag(expected), atol=1e-12)


def test_pseudoinverse_penrose_identities():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        g = rng.standard_normal((m, m))
        y = SymMat.from_dense(g.T @ g, check_symmetry=False)
        d = eigen_decompose(y)
        ydag = pseudoinverse(d).dense()
        dense = y.dense()
        assert np.linalg.norm(dense @ ydag @ dense - dense) <= 1e-8 * max(
            1.0, np.linalg.norm(dense)
        )
        assert np.linalg.norm(ydag @ dense @ ydag - ydag) <= 1e-8 * max(
            1.0, np.linalg.norm(ydag)
        )


def test_pseudoinverse_rejects_indefinite():
    d = eigen_decompose(SymMat.diagonal([1.0, -1.0]))
    with pytest.raises(ValueError):
        pseudoinverse(d)


def test_conjugate_identity_and_isometry():
    rng = np.random.default_rng(19)
    d = eigen_decompose(SymMat.diagonal([3.0, 2.0, 1.0]))
    assert np.allclose(d.p_matrix, np.eye(3))
    a = random_symmat(rng, 3)
    assert np.allclose(conjugate(a, d).dense(), a.dense())

    y = random_symmat(rng, 5)
    dy = eigen_decompose(y)
    b = random_symmat(rng, 5)
    assert conjugate(b, dy).norm() == pytest.approx(b.norm(), abs=1e-10)
    # in its own eigenbasis the source becomes diagonal
    assert np.allclose(
        conjugate(y, dy).dense(), np.diag(dy.eigenvalues), atol=1e-10
    )


def test_conjugate_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        d = eigen_decompose(random_symmat(rng, m))
        a = random_symmat(rng, m)
        p = d.p_matrix
        back = p.T @ conjugate(a, d).dense() @ p
        assert np.linalg.norm(back - a.dense()) <= 1e-10


def test_conjugate_dimension_mismatch():
    d = eigen_decompose(SymMat.identity(3))
    with pytest.raises(ValueError):
        conjugate(SymMat.identity(2), d)


def test_block_examples():
    d = eigen_decompose(SymMat.diagonal([3.0, 2.0, 1.0]))
    assert np.allclose(block(SymMat.diagonal([3.0, 2.0, 1.0]), d, [1, 2], [1, 2]),
                       np.diag([2.0, 1.0]))
    a = SymMat.from_dense([[1.0, 0.5, 0], [0.5, 2, -1], [0, -1, 3]])
    assert np.allclose(block(a, d, range(3), range(3)), conjugate(a, d).dense())

    dy = eigen_decompose(SymMat.diagonal([1.0, 0.0]))
    a2 = SymMat.from_dense([[5.0, 7.0], [7.0, 9.0]])
    assert np.allclose(block(a2, dy, dy.pi, dy.omega), [[7.0]])


def test_block_rejects_out_of_range():
    d = eigen_decompose(SymMat.identity(2))
    with pytest.raises(IndexError):
        block(SymMat.identity(2), d, [0, 2], [0])


def test_symmat_json_roundtrip():
    a = SymMat.from_dense([[1.0, -2.0], [-2.0, 4.0]])
    again = SymMat.from_json(a.to_json())
    assert again.m == 2
    assert np.array_equal(again.lower, a.lower)
    with pytest.raises(ValueError):
        SymMat.from_json({"m": 2})
    with pytest.raises(ValueError):
        SymMat.from_json({"m": 2, "lower": [1.0, 2.0]})


def test_symmat_validation():
    with pytest.raises(ValueError):
        SymMat(2, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        SymMat.from_dense([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SymMat.from_dense(np.zeros((2, 3)))


def test_from_dense_near_overflow():
    # symmetrizing by 0.5 * (a + a.T) overflowed to inf and rejected the matrix
    a = SymMat.from_dense([[1.5e308, 1e308], [1e308, 0.0]])
    assert a.lower.tolist() == [1.5e308, 1e308, 0.0]


def test_norm_beyond_squared_overflow():
    # the squares overflow from about 1.3e154; rescaled rows keep the norm finite
    assert SymMat.diagonal([0.0, 1e160]).norm() == 1e160
    assert SymMat(2, [1e300, 1e300, -1e300]).norm() == pytest.approx(2e300, rel=1e-15)
    assert SymMat(1, [1e308]).norm() == 1e308


def test_stacked_norms_keep_the_plain_sums_bits():
    rng = np.random.default_rng(4)
    for m in (1, 2, 5, 12):
        i, j = np.tril_indices(m)
        weights = np.where(i == j, 1.0, 2.0)
        scales = 10.0 ** rng.uniform(-50, 150, (3, 2, 1))
        lowers = rng.standard_normal((3, 2, len(i))) * scales
        norms = frobenius_norms(m, lowers)
        assert norms.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            plain = np.sqrt(np.sum(weights * lowers[idx] ** 2))
            assert norms[idx] == plain == SymMat(m, lowers[idx]).norm()
        # past the squares' overflow the rows are rescaled, not rounded apart
        unit = lowers / scales
        big = frobenius_norms(m, 1e200 * unit)
        assert big == pytest.approx(1e200 * frobenius_norms(m, unit), rel=1e-14)


def test_svec_of_stacked_matrices():
    rng = np.random.default_rng(2)
    mats = np.array([random_symmat(rng, 3).dense() for _ in range(6)]).reshape(2, 3, 3, 3)
    vecs = svec(mats)
    assert vecs.shape == (2, 3, 6)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(vecs[idx], svec(mats[idx]))
        assert float(vecs[idx] @ vecs[idx]) == pytest.approx(float(np.sum(mats[idx] ** 2)))
    assert svec(np.zeros((4, 0, 0))).shape == (4, 0)


def test_decomposition_invariants_enforced():
    y = SymMat.diagonal([2.0, 1.0])
    with pytest.raises(ValueError):
        OrderedEigenDecomposition(
            source=y,
            p_matrix=np.eye(2) * 2.0,
            eigenvalues=np.array([2.0, 1.0]),
            rank_tol=1e-8,
        )
    with pytest.raises(ValueError):
        OrderedEigenDecomposition(
            source=y,
            p_matrix=np.eye(2),
            eigenvalues=np.array([1.0, 2.0]),
            rank_tol=1e-8,
        )


def test_pi_and_omega_follow_rank_tol_at_the_boundary():
    # pi is lambda > rank_tol and omega |lambda| <= rank_tol, derived from the
    # eigenvalues: |lambda| == rank_tol lands in omega, one ulp less in pi
    lam = np.array([2.0, 0.5, 0.25, 0.0, -0.5])
    y = SymMat.diagonal(lam)
    below = float(np.nextafter(0.5, 0.0))
    for d in (
        eigen_decompose(y, 0.5),
        OrderedEigenDecomposition(source=y, p_matrix=np.eye(5), eigenvalues=lam, rank_tol=0.5),
    ):
        assert (d.pi, d.omega, d.psd) == ((0,), (1, 2, 3, 4), True)
    d = eigen_decompose(y, below)
    assert (d.pi, d.omega, d.psd) == ((0, 1), (2, 3), False)


def test_split_blocks_are_the_blocks_of_one_conjugation():
    # bit for bit the blocks that block() cuts, empty pi and omega included
    rng = np.random.default_rng(31)
    for rank in (0, 1, 2, 3):
        d = eigen_decompose(random_psd(rng, 3, rank))
        a = random_symmat(rng, 3)
        pi, omega = d.pi, d.omega
        for got, (rows, cols) in zip(split_blocks(a, d), ((pi, pi), (pi, omega), (omega, omega))):
            assert got.shape == (len(rows), len(cols))
            assert np.array_equal(got, block(a, d, rows, cols))


def test_rank_classification_follows_tolerance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        rank = int(rng.integers(0, m + 1))
        y = random_psd(rng, m, rank)
        d = eigen_decompose(y)
        assert len(d.pi) == rank
        assert len(d.omega) == m - rank
        assert sorted(d.pi + d.omega) == list(range(m))
        assert d.psd

    # rotated spectra with eigenvalues just inside and just outside
    # +-rank_tol: pi and omega must equal the constructed index sets
    edge = [1.0 - 1e-3, 1.0 + 1e-3]
    for trial in range(40):
        m = int(rng.integers(2, 13))
        big = rng.uniform(0.5, 5.0, m)
        scale = float(big.max())
        rank_tol = None if trial % 2 else float(10.0 ** rng.uniform(-8, -4))
        tol = 1e-8 * max(1.0, scale) if rank_tol is None else rank_tol
        factor = rng.choice(edge, m) * rng.choice([1.0, -1.0], m)
        lam = np.where(rng.random(m) < 0.3, big, tol * factor)
        lam[0] = scale
        lam = np.sort(lam)[::-1]
        q = random_orthogonal(rng, m)
        y = SymMat.from_dense((q * lam) @ q.T, check_symmetry=False)
        d = eigen_decompose(y, rank_tol)
        assert d.rank_tol == pytest.approx(tol, rel=1e-12)
        assert d.pi == tuple(int(k) for k in np.nonzero(lam > tol)[0])
        assert d.omega == tuple(int(k) for k in np.nonzero(np.abs(lam) <= tol)[0])
