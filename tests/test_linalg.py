import numpy as np
import pytest

from fairfactor.linalg import (
    RankDeficientError,
    nearest_orthonormal,
    principal_angle,
    top_r_eigs,
)


def test_identity_case():
    values, vectors = top_r_eigs(np.eye(3), 2)
    assert np.allclose(values, [1.0, 1.0])
    assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)


def test_diagonal_case():
    values, vectors = top_r_eigs(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(values, [3.0, 2.0])
    assert np.allclose(np.abs(vectors), np.eye(3)[:, :2], atol=1e-12)


def test_random_symmetric_residuals_and_oracle():
    # oracle: numpy's full-spectrum eigensolver, an independent implementation
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        S = rng.standard_normal((n, n))
        S = S + S.T
        r = int(rng.integers(1, n + 1))
        values, vectors = top_r_eigs(S, r)
        norm_s = np.linalg.norm(S)
        for j in range(r):
            resid = np.linalg.norm(S @ vectors[:, j] - values[j] * vectors[:, j])
            assert resid <= 1e-8 * max(1.0, norm_s)
        assert np.allclose(vectors.T @ vectors, np.eye(r), atol=1e-10)
        assert np.all(np.diff(values) <= 1e-12)
        ref = np.linalg.eigh(S)[0][::-1][:r]
        assert np.allclose(values, ref, atol=1e-9 * max(1.0, norm_s))


def test_top_span_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        S = rng.standard_normal((n, n))
        S = S @ S.T + np.diag(np.linspace(1.0, 2.0, n))  # spread the spectrum
        r = int(rng.integers(1, n))
        _, vectors = top_r_eigs(S, r)
        w, full = np.linalg.eigh(S)
        if w[-r] - w[-r - 1] < 1e-6:  # degenerate split: span comparison unstable
            continue
        assert principal_angle(vectors, full[:, -r:]) <= 1e-7


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        top_r_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        top_r_eigs(np.eye(3), 0)
    with pytest.raises(ValueError):
        top_r_eigs(np.eye(3), 4)
    # LAPACK returns NaNs without complaint, and NaN passes the symmetry check
    for bad in (np.nan, np.inf):
        S = np.eye(3)
        S[1, 2] = S[2, 1] = bad
        with pytest.raises(FloatingPointError):
            top_r_eigs(S, 1)


def test_orthonormal_fixed_point():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(nearest_orthonormal(A), A, atol=1e-14)


def test_single_column_normalization():
    A = np.array([[2.0], [0.0]])
    assert np.allclose(nearest_orthonormal(A), [[1.0], [0.0]], atol=1e-14)


def test_polar_decomposition_property():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 2))
    Q = nearest_orthonormal(A)
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-10)
    H = Q.T @ A
    assert np.allclose(H, H.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(0.5 * (H + H.T)) > 0)
    # optimality against small rotations of Q within the same plane pencil
    base = np.linalg.norm(A - Q)
    for angle in np.linspace(-0.3, 0.3, 13):
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s], [s, c]])
        assert base <= np.linalg.norm(A - Q @ R) + 1e-12


def test_orthonormal_idempotent_and_optimal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, r = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        if r > n:
            continue
        A = rng.standard_normal((n, r))
        Q = nearest_orthonormal(A)
        assert np.allclose(nearest_orthonormal(Q), Q, atol=1e-12)
        for _ in range(20):
            Q0 = nearest_orthonormal(rng.standard_normal((n, r)))
            assert np.linalg.norm(A - Q) <= np.linalg.norm(A - Q0) + 1e-12


def test_rank_deficient_rejected():
    A = np.ones((4, 2))
    with pytest.raises(RankDeficientError):
        nearest_orthonormal(A)



@pytest.mark.parametrize("r", [True, 1.5, 1.0, "1"])
def test_top_r_eigs_rejects_a_rank_that_is_not_an_integer(r):
    # True used to count as 1, and 1.5 failed inside numpy's slicing
    with pytest.raises(ValueError, match="is not an integer in \\[1, 3\\]"):
        top_r_eigs(np.eye(3), r)


def test_top_r_eigs_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="expected a square matrix, got shape \\(2, 3\\)"):
        top_r_eigs(np.ones((2, 3)), 1)
