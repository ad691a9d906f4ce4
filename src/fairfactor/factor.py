"""Factor-model estimation and the per-group error quantities built on it.

All loadings follow the scaling convention loading.T @ loading / N = I_r, so
the rank-r projector is loading @ loading.T / N. Fits are compared through
projectors; raw loadings are only sign-normalized for stable serialization.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import GroupedPanel
from .linalg import top_r_eigs

__all__ = [
    "Loading",
    "FactorPath",
    "FitResult",
    "fit_pca",
    "reconstruction_error",
    "group_errors",
    "unfairness",
    "pairwise_unfairness",
    "fix_column_signs",
]

FIT_SCHEMA_VERSION = 1

_LOADING_ATOL = 1e-8
_DEGENERACY_ATOL = 1e-10


@dataclass(frozen=True)
class Loading:
    """N x r loading matrix with loading.T @ loading / N = I_r (checked)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"loading must be 2-d, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("loading has non-finite entries")
        object.__setattr__(self, "matrix", m)
        n, r = m.shape
        gram = m.T @ m / n
        gram.flat[:: r + 1] -= 1.0
        worst = float(np.abs(gram).max())
        if worst > _LOADING_ATOL:
            raise ValueError(f"loading violates the orthonormality convention by {worst:.3e}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def r(self) -> int:
        return self.matrix.shape[1]

    def projector(self) -> np.ndarray:
        return self.matrix @ self.matrix.T / self.n


@dataclass(frozen=True)
class FactorPath:
    """Estimated factor series for one group: panel_y @ loading / N."""

    group: str
    matrix: np.ndarray


@dataclass(frozen=True)
class FitResult:
    loading: Loading
    factors: tuple[FactorPath, ...]
    objective_trace: tuple[float, ...]
    group_errors: np.ndarray
    unfairness: float
    iterations: int
    converged: bool
    degenerate_spectrum: bool
    groups: tuple[str, ...]
    iteration_log: tuple[dict, ...] = field(default=(), repr=False)
    clipped_rates: int = 0
    # the kept run's stop (small_change | no_descent | max_iterations),
    # the Riemannian gradient norm at the returned loading and the candidate
    # loadings the kept run priced; None, None, 0 for PCA and older files
    stop_reason: str | None = None
    gradient_norm: float | None = None
    evaluations: int = 0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": FIT_SCHEMA_VERSION,
            "groups": list(self.groups),
            "loading": self.loading.matrix.tolist(),
            "factors": {f.group: f.matrix.tolist() for f in self.factors},
            "objective_trace": [float(v) for v in self.objective_trace],
            "group_errors": [float(v) for v in self.group_errors],
            "unfairness": float(self.unfairness),
            "iterations": self.iterations,
            "converged": self.converged,
            "degenerate_spectrum": self.degenerate_spectrum,
            "clipped_rates": self.clipped_rates,
            "stop_reason": self.stop_reason,
            "gradient_norm": self.gradient_norm,
            "evaluations": self.evaluations,
            "iteration_log": [dict(rec) for rec in self.iteration_log],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FitResult":
        version = payload.get("schema_version")
        if version != FIT_SCHEMA_VERSION:
            raise ValueError(f"unsupported fit schema version {version!r}")
        groups = tuple(payload["groups"])
        return cls(
            loading=Loading(np.array(payload["loading"], dtype=float)),
            factors=tuple(
                FactorPath(g, np.array(payload["factors"][g], dtype=float)) for g in groups
            ),
            objective_trace=tuple(payload["objective_trace"]),
            group_errors=np.array(payload["group_errors"], dtype=float),
            unfairness=float(payload["unfairness"]),
            iterations=int(payload["iterations"]),
            converged=bool(payload["converged"]),
            degenerate_spectrum=bool(payload["degenerate_spectrum"]),
            groups=groups,
            iteration_log=tuple(payload.get("iteration_log", ())),
            clipped_rates=int(payload.get("clipped_rates", 0)),
            stop_reason=payload.get("stop_reason"),
            gradient_norm=payload.get("gradient_norm"),
            evaluations=int(payload.get("evaluations", 0)),
        )


def fix_column_signs(matrix: np.ndarray) -> np.ndarray:
    """Flip columns so each column's first non-negligible entry is positive."""
    out = matrix.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, float(np.abs(col).max())))[0]
        if nz.size and col[nz[0]] < 0.0:
            out[:, j] = -col
    return out


def reconstruction_error(Y: np.ndarray, loading: Loading) -> float:
    """Average squared distance (1/T) * ||Y - Y L L^T / N||_F^2."""
    Y = np.asarray(Y, dtype=float)
    L = loading.matrix
    if Y.ndim != 2 or Y.shape[1] != L.shape[0]:
        raise ValueError(f"data shape {Y.shape} does not match loading with N={L.shape[0]}")
    resid = Y - (Y @ L) @ L.T / loading.n
    return float((resid * resid).sum() / Y.shape[0])


def group_errors(data: GroupedPanel, loading: Loading) -> np.ndarray:
    return np.array([reconstruction_error(p.y, loading) for p in data.panels])


def pairwise_unfairness(errors: np.ndarray):
    """Sum of squared pairwise differences; (e1 - e2)^2 when K = 2.

    Takes the K group errors along the last axis: a float for a (K,) vector,
    an array of one value per row for a (B, K) batch.
    """
    errors = np.asarray(errors, dtype=float)
    K = errors.shape[-1]
    total = np.zeros(errors.shape[:-1])
    for k in range(K):
        for kp in range(k + 1, K):
            total += (errors[..., k] - errors[..., kp]) ** 2
    return float(total) if total.ndim == 0 else total


def unfairness(data: GroupedPanel, loading: Loading) -> float:
    return pairwise_unfairness(group_errors(data, loading))


def fit_pca(data: GroupedPanel, r: int) -> FitResult:
    """Principal-components fit: loading / sqrt(N) = top-r eigenvectors of Y^T Y."""
    Y = data.stacked()
    T, N = Y.shape
    if not 1 <= r <= min(N, T):
        raise ValueError(f"r={r} out of range [1, {min(N, T)}]")
    S = Y.T @ Y
    probe = min(r + 1, N)
    values, vectors = top_r_eigs(S, probe)
    degenerate = False
    if probe > r:
        gap_scale = max(1.0, abs(float(values[0])))
        degenerate = abs(float(values[r - 1] - values[r])) <= _DEGENERACY_ATOL * gap_scale
    loading = Loading(fix_column_signs(np.sqrt(N) * vectors[:, :r]))
    errors = group_errors(data, loading)
    return FitResult(
        loading=loading,
        factors=tuple(FactorPath(p.group, p.y @ loading.matrix / N) for p in data.panels),
        objective_trace=(reconstruction_error(Y, loading),),
        group_errors=errors,
        unfairness=pairwise_unfairness(errors),
        iterations=0,
        converged=True,
        degenerate_spectrum=degenerate,
        groups=data.groups,
    )

