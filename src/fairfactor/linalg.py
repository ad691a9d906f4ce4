"""Dense symmetric eigendecomposition and orthonormal-projection primitives."""

import numbers

import numpy as np

__all__ = [
    "RankDeficientError",
    "top_r_eigs",
    "nearest_orthonormal",
    "principal_angle",
]

_SYMMETRY_RTOL = 1e-10
_RANK_RTOL = 1e-12


class RankDeficientError(ValueError):
    """Numerically dependent columns; the orthonormal projection is undefined."""


def _is_integer(value) -> bool:
    """An integral value that is not a bool (bool is an Integral subclass)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def top_r_eigs(S: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of a symmetric matrix, eigenvalues in descending order.

    The eigenpairs come from LAPACK's symmetric solver (numpy.linalg.eigh) on
    the symmetrized input. Raises ValueError on a non-square or non-symmetric
    input or r not an integer in [1, N], and FloatingPointError on a non-finite entry,
    on which LAPACK would return NaNs without complaint.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise FloatingPointError("matrix has non-finite entries")
    n = S.shape[0]
    asym = float(np.abs(S - S.T).max()) if n > 1 else 0.0
    if asym > _SYMMETRY_RTOL * max(1.0, float(np.abs(S).max())):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    if not (_is_integer(r) and 1 <= r <= n):
        raise ValueError(f"r={r!r} is not an integer in [1, {n}]")
    values, vectors = np.linalg.eigh(0.5 * (S + S.T))
    return values[::-1][:r], vectors[:, ::-1][:, :r]


def nearest_orthonormal(A: np.ndarray) -> np.ndarray:
    """Closest column-orthonormal matrix to A in Frobenius norm (polar factor).

    Raises RankDeficientError when the smallest singular value is below
    1e-12 times the largest; the caller is expected to re-randomize.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= _RANK_RTOL * s[0]:
        raise RankDeficientError(
            f"rank-deficient input (singular values {s[0]:.3e} .. {s[-1]:.3e})"
        )
    return u @ vt


def principal_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of A and B."""
    Qa = nearest_orthonormal(np.asarray(A, dtype=float))
    Qb = nearest_orthonormal(np.asarray(B, dtype=float))
    sigma = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return float(np.arccos(np.clip(sigma.min(), -1.0, 1.0)))
