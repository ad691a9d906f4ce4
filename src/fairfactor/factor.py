"""Factor-model estimation and the per-group error quantities built on it.

All loadings follow the scaling convention loading.T @ loading / N = I_r, so
the rank-r projector is loading @ loading.T / N. Fits are compared through
projectors; raw loadings are only sign-normalized for stable serialization.
"""

from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .dataset import GroupedPanel
from .linalg import _is_integer, top_r_eigs

__all__ = [
    "Loading",
    "FactorPath",
    "FitResult",
    "FactorDual",
    "fit_pca",
    "fair_factor_dual",
    "reconstruction_error",
    "group_errors",
    "unfairness",
    "pairwise_unfairness",
    "fix_column_signs",
]

FIT_SCHEMA_VERSION = 1

_LOADING_ATOL = 1e-8
_DEGENERACY_ATOL = 1e-10
_DUAL_RTOL = 1e-12  # the dual stops once its loading is this close to its bound (relative)
_DUAL_EVALUATIONS = 100  # eigensolves at most: some 50 bisections narrow the bracket to rounding


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
    """One fit; to_json_dict and from_json_dict walk these fields, so a new
    one needs one line here (with a default, for files written before it)."""

    loading: Loading
    factors: tuple[FactorPath, ...]
    objective_trace: tuple[float, ...]
    group_errors: np.ndarray
    iterations: int
    converged: bool
    degenerate_spectrum: bool
    iteration_log: tuple[dict, ...] = field(default=(), repr=False)
    clipped_rates: int = 0
    # the kept run's stop (small_change | no_descent | max_iterations),
    # the Riemannian gradient norm at the returned loading and the candidate
    # loadings the kept run priced; None, None, 0 for PCA and older files
    stop_reason: str | None = None
    gradient_norm: float | None = None
    evaluations: int = 0
    # two-group fits in trace form: the dual's lower bound on the objective and
    # the final objective's relative distance above it; None for other fits, PCA and older files
    lower_bound: float | None = None
    certified_gap: float | None = None

    @classmethod
    def from_panel(cls, data: GroupedPanel, loading: Loading, errors: np.ndarray, **diagnostics) -> "FitResult":
        """The fit of a loading to a panel, with its factor paths panel_y @ loading / N."""
        factors = tuple(FactorPath(p.group, p.y @ loading.matrix / data.n_ages) for p in data.panels)
        return cls(loading=loading, factors=factors, group_errors=errors, **diagnostics)

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(f.group for f in self.factors)

    @property
    def unfairness(self) -> float:
        return pairwise_unfairness(self.group_errors)

    def to_json_dict(self) -> dict:
        """Every field, tuples as lists, with the schema version, groups and unfairness."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update({name: list(value) for name, value in payload.items() if isinstance(value, tuple)})
        payload.update(
            schema_version=FIT_SCHEMA_VERSION,
            groups=list(self.groups),
            unfairness=float(self.unfairness),
            loading=self.loading.matrix.tolist(),
            factors={f.group: f.matrix.tolist() for f in self.factors},
            group_errors=[float(v) for v in self.group_errors],
        )
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FitResult":
        """Reads to_json_dict's payload. A field with a default may be missing
        (older files); keys that are not fields, such as meta, are ignored. A
        missing required key, or factors and group errors that do not match
        groups and the loading's rank, is a ValueError."""
        version = payload.get("schema_version")
        if version != FIT_SCHEMA_VERSION:
            raise ValueError(f"unsupported fit schema version {version!r}")
        required = ["groups", *(f.name for f in fields(cls) if f.default is MISSING)]
        missing = [name for name in required if name not in payload]
        if missing:
            raise ValueError(f"fit record lacks the required keys {missing}")
        groups = list(payload["groups"])
        if sorted(payload["factors"]) != sorted(groups):
            raise ValueError(f"fit record's factors name groups {sorted(payload['factors'])}, its groups {groups}")
        if len(payload["group_errors"]) != len(groups):
            raise ValueError(f"fit record has {len(payload['group_errors'])} group_errors for {len(groups)} groups")
        values = {}
        for f in fields(cls):
            value = payload[f.name] if f.default is MISSING else payload.get(f.name, f.default)
            if f.type in (int, bool):  # f.type is the annotation itself
                value = f.type(value)
            values[f.name] = tuple(value) if isinstance(value, list) else value
        loading = Loading(np.array(payload["loading"], dtype=float))
        factors = tuple(FactorPath(g, np.array(payload["factors"][g], dtype=float)) for g in groups)
        for f in factors:
            if f.matrix.ndim != 2 or f.matrix.shape[1] != loading.r:
                raise ValueError(f"group {f.group!r}'s factors have shape {f.matrix.shape}, not (T, {loading.r})")
        values.update(loading=loading, factors=factors, group_errors=np.array(payload["group_errors"], dtype=float))
        return cls(**values)


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
    if not (_is_integer(r) and 1 <= r <= min(N, T)):
        raise ValueError(f"r must be an integer in [1, {min(N, T)}], got {r!r}")
    S = Y.T @ Y
    probe = min(r + 1, N)
    values, vectors = top_r_eigs(S, probe)
    degenerate = False
    if probe > r:
        gap_scale = max(1.0, abs(float(values[0])))
        degenerate = abs(float(values[r - 1] - values[r])) <= _DEGENERACY_ATOL * gap_scale
    loading = Loading(fix_column_signs(np.sqrt(N) * vectors[:, :r]))
    return FitResult.from_panel(
        data, loading, group_errors(data, loading), objective_trace=(reconstruction_error(Y, loading),),
        iterations=0, converged=True, degenerate_spectrum=degenerate,
    )


def _relative_gap(objective: float, lower_bound: float) -> float:
    """How far an objective lies above a lower bound, relative to it; 0 when both are 0."""
    return max(0.0, objective - lower_bound) / max(abs(objective), np.finfo(float).tiny)


class FactorDual(NamedTuple):
    loading: Loading
    lower_bound: float


def fair_factor_dual(data: GroupedPanel, r: int, penalty: float) -> FactorDual:
    """Two-group fair-factor fit from the Lagrangian dual of the parity penalty.

    Group errors are linear in P = L L^T / N. With S_k = Y_k^T Y_k / T_k,
    w_k = T_k / T and c = (w_1 + mu, w_2 - mu), every multiplier mu bounds
    the objective from below by the concave d(mu) = sum_k c_k tr S_k -
    (top-r eigenvalue sum of sum_k c_k S_k) - mu^2 / (4 penalty), attained by
    the top-r eigenvectors V. Safeguarded Newton on the supergradient
    (e_1 - e_2)(V) - mu / (2 penalty), with d'' from the same
    eigendecomposition, maximizes d; it bisects when a step leaves the
    bracket or fails to halve the last one. At r = 1 the bound is tight
    (Brickman 1961); when the top two eigenvalues tie at the maximizer, the
    loading is solved for in their span. Returns the evaluated loading of
    least objective and the largest bound. A zero penalty gives PCA.
    """
    rank_ok = _is_integer(r) and 1 <= r <= data.n_ages
    if len(data.panels) != 2 or not rank_ok or not 0.0 <= penalty < np.inf:
        raise ValueError(f"the dual takes two groups, an integer r in [1, {data.n_ages}] and a finite "
                         f"penalty >= 0, got {len(data.panels)}, {r!r} and {penalty}")
    N, w = data.n_ages, data.group_rows / data.total_rows
    S = [p.y.T @ p.y / p.n_years for p in data.panels]
    sq, D = np.array([np.trace(Sk) for Sk in S]), S[0] - S[1]
    inv = 0.5 / penalty if penalty > 0.0 else 0.0  # mu / (2 penalty) per unit of mu; mu stays 0 unpenalized

    def objective(V):
        e = sq - [np.einsum("ij,ij->", V, Sk @ V) for Sk in S]
        with np.errstate(over="ignore"):  # an overflowing value loses to every finite one
            return float(w @ e) + penalty * (e[0] - e[1]) ** 2, e[0] - e[1]

    lo, hi = -2.0 * penalty * sq[1], 2.0 * penalty * sq[0]  # the supergradient is >= 0 at lo, <= 0 at hi
    mu, step, best, bound = 0.0, hi - lo, np.inf, -np.inf
    for _ in range(_DUAL_EVALUATIONS):
        values, vectors = top_r_eigs((w[0] + mu) * S[0] + (w[1] - mu) * S[1], N)
        value, spread = objective(vectors[:, :r])
        if value < best:
            best, V = value, vectors[:, :r]
        d = float((w + [mu, -mu]) @ sq - values[:r].sum()) - 0.5 * inv * mu * mu
        if d > bound:
            bound, peak = d, (mu, vectors[:, :2])
        slope = spread - inv * mu
        lo, hi = (mu, hi) if slope > 0.0 else (lo, mu)
        if _relative_gap(best, bound) <= _DUAL_RTOL or hi - lo <= 4 * np.finfo(float).eps * max(abs(lo), abs(hi)):
            break
        coupling, gaps = vectors[:, :r].T @ D @ vectors[:, r:], values[:r, None] - values[r:]
        newton = mu + slope / (2.0 * (coupling**2 / np.where(gaps > 0.0, gaps, np.inf)).sum() + inv)
        good = lo < newton < hi and abs(newton - mu) <= 0.5 * step
        step, mu = (abs(newton - mu), newton) if good else (0.5 * (hi - lo), 0.5 * (lo + hi))
    if best == np.inf:
        raise FloatingPointError(f"every objective the dual evaluated overflows at penalty {penalty:g}")
    if r == 1 and N > 1 and _relative_gap(best, bound) > _DUAL_RTOL:
        # near a tie the optimum mixes the top two eigenvectors Q: in the
        # eigenbasis of D on their span, take the mixes u with a zero
        # supergradient, u^T D u = tr S_1 - tr S_2 - mu / (2 penalty)
        mu, Q = peak
        m, R = np.linalg.eigh(Q.T @ D @ Q)
        a = np.sqrt(np.clip((sq[0] - sq[1] - inv * mu - m[0]) / (m[1] - m[0]), 0.0, 1.0)) if m[1] > m[0] else 1.0
        for u in (Q @ R @ [b, a] for b in (np.sqrt(1.0 - a * a), -np.sqrt(1.0 - a * a))):
            if (value := objective(u[:, None])[0]) < best:
                best, V = value, u[:, None]
    return FactorDual(Loading(fix_column_signs(np.sqrt(N) * V)), bound)
