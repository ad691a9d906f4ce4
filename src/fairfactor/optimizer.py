"""Penalized objectives, analytic gradients, and projected gradient descent.

Both fair fits minimize

    total_error(L) + penalty * sum_{k<k'} (err_k(L) - err_k'(L))^2

over loadings with L^T L / N = I_r, by gradient steps followed by the scaled
polar projection L <- sqrt(N) * nearest_orthonormal(L - eta * grad). The
factor model measures reconstruction error per group; the decision model
measures the error of a transform g applied to reconstructions.

The factor gradient follows the classical trace form: it is the exact
gradient of the objective with the orthonormality constraint substituted in,
which differs from the unconstrained Frobenius gradient by a component normal
to the constraint set. Finite-difference checks must therefore target the
substituted (restricted) objective; on feasible loadings the two objective
forms coincide.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataset import GroupedPanel
from .factor import (
    FactorPath,
    FitResult,
    Loading,
    fit_pca,
    fix_column_signs,
    pairwise_unfairness,
)
from .linalg import RankDeficientError, nearest_orthonormal
from .transforms import (
    DecisionTransform,
    apply_transform,
    decision_errors,
    decision_residual,
    epv_weight_bands,
    identity_transform,
)

__all__ = [
    "OptimizerOptions",
    "fair_factor_objective",
    "fair_factor_gradient",
    "fit_fair_factor",
    "fair_decision_objective",
    "fair_decision_gradient",
    "annuity_taylor_objective",
    "fit_fair_decision",
    "random_loading",
]

_STEP_GRID = np.geomspace(1e-6, 10.0, 25)  # step sizes, in units of ||L||_F / ||grad||_F
_IMPROVEMENT_TOL = 1e-12  # a step may never lose more than this
_STAGNATION_TOL = 1e-14
_STAGNATION_LIMIT = 20


@dataclass(frozen=True)
class OptimizerOptions:
    penalty: float = 0.0
    max_iterations: int = 2000
    convergence_epsilon: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.penalty < 0.0:
            raise ValueError("penalty must be non-negative")
        if self.convergence_epsilon <= 0.0:
            raise ValueError("convergence epsilon must be positive")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be at least 1")


def random_loading(rng: np.random.Generator, n: int, r: int) -> Loading:
    """Random draw on the scaled orthonormal set (Gaussian then projection)."""
    while True:
        try:
            return Loading(np.sqrt(n) * nearest_orthonormal(rng.standard_normal((n, r))))
        except RankDeficientError:  # pragma: no cover - probability zero
            continue


def _combine(errors: np.ndarray, rows: np.ndarray, total_rows: int, penalty: float):
    """Penalized objective of (K,) group errors, or one per row of a (B, K) batch."""
    return errors @ rows / total_rows + penalty * pairwise_unfairness(errors)


def _penalized_gradient(
    errors: np.ndarray, grads: list[np.ndarray], rows: np.ndarray, total_rows: int, penalty: float
) -> np.ndarray:
    out = sum((rows[k] / total_rows) * grads[k] for k in range(len(grads)))
    if penalty:
        for k in range(len(grads)):
            for kp in range(k + 1, len(grads)):
                out = out + 2.0 * penalty * (errors[k] - errors[kp]) * (grads[k] - grads[kp])
    return out


class _Problem:
    """Penalized objective and gradient from a subclass's per-group errors:
    errors_batch for a (B, N, r) stack of candidates, and errors_and_grads."""

    def __init__(self, data: GroupedPanel, penalty: float):
        self.penalty = penalty
        self.N = data.n_ages
        self.rows = data.group_rows
        self.total_rows = data.total_rows

    def errors(self, loading: Loading) -> np.ndarray:
        return self.errors_batch(loading.matrix[None])[0]

    def objective(self, loading: Loading) -> float:
        return _combine(self.errors(loading), self.rows, self.total_rows, self.penalty)

    def gradient(self, loading: Loading) -> np.ndarray:
        errors, grads = self.errors_and_grads(loading)
        return _penalized_gradient(errors, grads, self.rows, self.total_rows, self.penalty)


class _FactorProblem(_Problem):
    """Reconstruction errors in the substituted trace form, from Gram matrices."""

    def __init__(self, data: GroupedPanel, penalty: float):
        super().__init__(data, penalty)
        self.grams = [p.y.T @ p.y for p in data.panels]
        self.sq = [float((p.y**2).sum()) for p in data.panels]
        self.Y = data.stacked()

    def errors_batch(self, stack: np.ndarray) -> np.ndarray:
        """(B, K) errors for a (B, N, r) stack of candidate loadings."""
        out = np.empty((stack.shape[0], len(self.grams)))
        for k, gram in enumerate(self.grams):
            GM = np.matmul(gram, stack)
            out[:, k] = (self.sq[k] - (stack * GM).sum(axis=(1, 2)) / self.N) / self.rows[k]
        return out

    def errors_and_grads(self, loading: Loading):
        grads = [(-2.0 / (t * self.N)) * (gram @ loading.matrix) for t, gram in zip(self.rows, self.grams)]
        return self.errors(loading), grads

    def stop_signal(self, loading: Loading) -> np.ndarray:
        return (self.Y @ loading.matrix) @ loading.matrix.T / self.N


def _band_apply(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W_t x_t for every row t, through the band of W (see epv_weight_bands).

    x is (..., T, N), with any leading candidate axes; the result is
    (..., T, width).
    """
    width = band.shape[1]
    out = np.zeros(x.shape[:-1] + (width,))
    for j in range(band.shape[2]):
        out += band[:, :, j] * x[..., j : j + width]
    return out


def _band_adjoint(band: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """W_t^T z_t for every row t of a (T, width) array; the result is (T, n)."""
    width = band.shape[1]
    out = np.zeros((z.shape[0], n))
    for j in range(band.shape[2]):
        out[:, j : j + width] += band[:, :, j] * z
    return out


class _DecisionProblem(_Problem):
    """Decision errors for a non-identity transform g, with the matching analytic gradients.

    Per sample the gradient of ||g(L L^T y / N) - g(y)||^2 is
    (2/N) [z y^T L + y z^T L] with z = g'(recon) * (g(recon) - g(y)); group
    terms stack as (2/(T_k N)) (Z^T Y + Y^T Z) L. For the annuity transform in
    taylor mode, g(recon) - g(y) is replaced by W (m_recon - m_obs) with the
    derivative weights W frozen at the observed rates.
    """

    def __init__(self, data: GroupedPanel, g: DecisionTransform, penalty: float):
        super().__init__(data, penalty)
        self.g = g
        self.groups = data.groups
        self.ys = [p.y for p in data.panels]
        self.taylor = g.kind == "annuity" and g.annuity_mode == "taylor"
        if g.kind == "annuity":
            self.intercepts = [g.intercept_for(p.group) for p in data.panels]
        if self.taylor:
            self.m_obs = [np.clip(np.exp(y + a), 0.0, 1.0) for y, a in zip(self.ys, self.intercepts)]
            self.bands = [epv_weight_bands(m, g.term, g.discount) for m in self.m_obs]

    def _recon(self, k: int, M: np.ndarray) -> np.ndarray:
        return (self.ys[k] @ M) @ M.T / self.N

    def _residual(self, k: int, recon: np.ndarray) -> np.ndarray:
        """g(recon) - g(y) for group k, or in taylor mode W (m_recon - m_obs).

        recon is (..., T, N) with any leading candidate axes.
        """
        if self.taylor:
            return _band_apply(self.bands[k], np.exp(recon + self.intercepts[k]) - self.m_obs[k])
        return decision_residual(self.g, self.groups[k], self.ys[k], recon)

    def _error_parts(self, k: int, M: np.ndarray):
        """Return (error_k, Z_k) where Z_k stacks the per-sample z vectors."""
        recon = self._recon(k, M)
        d = self._residual(k, recon)
        error = float((d * d).sum()) / self.rows[k]
        if self.g.kind == "elementwise":
            return error, self.g.funcs()[1](recon) * d
        m_recon = np.exp(recon + self.intercepts[k])
        if self.taylor:
            return error, m_recon * _band_adjoint(self.bands[k], d, self.N)  # W^T W e
        inside = m_recon <= 1.0  # clipping zeroes the sensitivity above 1
        bands = epv_weight_bands(np.clip(m_recon, 0.0, 1.0), self.g.term, self.g.discount)
        u = _band_adjoint(bands, d, self.N)  # W(m_recon)^T d
        return error, np.where(inside, m_recon, 0.0) * u

    def errors_batch(self, stack: np.ndarray) -> np.ndarray:
        """(B, K) errors for a (B, N, r) stack of candidate loadings."""
        out = np.empty((stack.shape[0], len(self.ys)))
        for k, Y in enumerate(self.ys):
            C = np.matmul(Y, stack)  # (B, T, r)
            e = self._residual(k, np.matmul(C, stack.transpose(0, 2, 1)) / self.N)
            out[:, k] = (e * e).sum(axis=(1, 2)) / self.rows[k]
        return out

    def errors_and_grads(self, loading: Loading):
        M = loading.matrix
        errors, grads = [], []
        for k, Y in enumerate(self.ys):
            err, Z = self._error_parts(k, M)
            errors.append(err)
            C = Z.T @ Y + Y.T @ Z
            grads.append((2.0 / (self.rows[k] * self.N)) * (C @ M))
        return np.array(errors), grads

    def stop_signal(self, loading: Loading) -> np.ndarray:
        M = loading.matrix
        blocks = [apply_transform(self.g, group, self._recon(k, M)) for k, group in enumerate(self.groups)]
        return np.vstack(blocks)


def _problem(data: GroupedPanel, g: DecisionTransform, penalty: float):
    """The identity decision error is the reconstruction error: fit it in trace form."""
    if g.kind == "identity":
        return _FactorProblem(data, penalty)
    return _DecisionProblem(data, g, penalty)


def fair_factor_objective(data: GroupedPanel, loading: Loading, penalty: float) -> float:
    """Reconstruction error of the stacked panel plus the pairwise parity penalty."""
    return fair_decision_objective(data, loading, penalty, identity_transform())


def fair_factor_gradient(data: GroupedPanel, loading: Loading, penalty: float) -> np.ndarray:
    """Analytic gradient of the substituted fair-factor objective.

    Equals -(2/(T N)) Y^T Y L plus, per group pair, the parity chain-rule term
    4 * penalty * (err_k - err_k') * (G_k' L / (T_k' N) - G_k L / (T_k N)).
    """
    return fair_decision_gradient(data, loading, penalty, identity_transform())


def fair_decision_objective(
    data: GroupedPanel, loading: Loading, penalty: float, g: DecisionTransform
) -> float:
    """Decision error of the stacked panel plus the pairwise parity penalty.

    Uses the transform itself (exact annuity pricing, not the taylor
    surrogate); with g = identity this equals fair_factor_objective.
    """
    if penalty < 0.0:
        raise ValueError("penalty must be non-negative")
    return _combine(decision_errors(data, loading, g), data.group_rows, data.total_rows, penalty)


def annuity_taylor_objective(
    data: GroupedPanel, loading: Loading, penalty: float, g: DecisionTransform
) -> float:
    """Quadratic pricing surrogate: per sample ||W_t (m_recon - m_obs)||^2 with
    derivative weights frozen at the observed rates. This is the objective the
    default annuity fit actually minimizes, and the one whose exact gradient
    the annuity decision gradient is."""
    if g.kind != "annuity":
        raise ValueError("the taylor surrogate is defined for the annuity transform only")
    frozen = replace(g, annuity_mode="taylor") if g.annuity_mode != "taylor" else g
    problem = _DecisionProblem(data, frozen, penalty)
    return problem.objective(loading)


def fair_decision_gradient(
    data: GroupedPanel, loading: Loading, penalty: float, g: DecisionTransform
) -> np.ndarray:
    """Analytic gradient of the substituted fair-decision objective.

    Element-wise transforms use the diag(g') sandwich form; the annuity
    transform inserts W^T W with weights frozen at the observed rates (taylor
    mode) or evaluated at the reconstruction (exact mode).
    """
    if penalty < 0.0:
        raise ValueError("penalty must be non-negative")
    return _problem(data, g, penalty).gradient(loading)


def _step(problem, loading: Loading, grad: np.ndarray, current: float):
    """Exact search along -grad over _STEP_GRID, with the scaled polar projection.

    Projects every grid candidate with one batched SVD and evaluates all of
    them through the problem's batched error kernel. Returns
    (eta, next_loading, next_objective, next_errors), or
    (0, loading, current, None) when every step loses more than _IMPROVEMENT_TOL.
    """
    L = loading.matrix
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        return 0.0, loading, current, None
    etas = _STEP_GRID * (float(np.linalg.norm(L)) / gnorm)
    stack = L[None] - etas[:, None, None] * grad[None]
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    valid = (s[:, 0] > 0.0) & (s[:, -1] > 1e-12 * s[:, 0])
    if not valid.any():
        # unreachable for finite input: the smallest step keeps
        # sigma_min >= sqrt(N) (1 - 1e-6 sqrt(r)) > 0
        raise FloatingPointError("every grid step is rank-deficient")
    projected = np.sqrt(L.shape[0]) * np.einsum("bij,bjk->bik", u, vt)
    errors = problem.errors_batch(projected)
    values = _combine(errors, problem.rows, problem.total_rows, problem.penalty)
    values = np.where(valid & np.isfinite(values), values, np.inf)
    best = int(np.argmin(values))
    if values[best] > current + _IMPROVEMENT_TOL:
        return 0.0, loading, current, None
    return float(etas[best]), Loading(projected[best]), float(values[best]), errors[best]


@dataclass
class _RunState:
    loading: Loading
    objective: float
    trace: list[float]
    log: list[dict]
    iterations: int
    converged: bool


def _pgd(problem, start: Loading, opts: OptimizerOptions) -> _RunState:
    loading = start
    errors = problem.errors(loading)
    obj = _combine(errors, problem.rows, problem.total_rows, problem.penalty)
    trace = [obj]
    log: list[dict] = []
    signal = problem.stop_signal(loading)
    signal_norm = float(np.linalg.norm(signal))
    stagnant = 0
    converged = False
    for iterations in range(1, opts.max_iterations + 1):
        grad = problem.gradient(loading)
        eta, nxt, obj_next, errors_next = _step(problem, loading, grad, obj)
        if errors_next is not None:  # None: no admissible improvement, the iterate stays
            errors = errors_next
        trace.append(obj_next)
        log.append(
            {
                "iteration": iterations,
                "objective": obj_next,
                "unfairness": pairwise_unfairness(errors),
                "step_size": eta,
            }
        )
        new_signal = problem.stop_signal(nxt)
        diff = float(np.linalg.norm(new_signal - signal))
        rel = 0.0 if diff == 0.0 else diff / max(signal_norm, 1e-300)
        improvement = obj - obj_next
        loading, obj, signal, signal_norm = nxt, obj_next, new_signal, float(np.linalg.norm(new_signal))
        if rel <= opts.convergence_epsilon:
            converged = True
            break
        stagnant = stagnant + 1 if improvement < _STAGNATION_TOL else 0
        if stagnant >= _STAGNATION_LIMIT:
            converged = True
            break
    return _RunState(loading, obj, trace, log, iterations, converged)


def _fit(data: GroupedPanel, r: int, opts: OptimizerOptions, g: DecisionTransform) -> FitResult:
    N = data.n_ages
    if not 1 <= r <= min(N, data.total_rows):
        raise ValueError(f"r={r} out of range [1, {min(N, data.total_rows)}]")
    problem = _problem(data, g, opts.penalty)
    pca = fit_pca(data, r)
    rng = np.random.default_rng(opts.seed)
    starts = [pca.loading] + [random_loading(rng, N, r) for _ in range(opts.restarts - 1)]
    best: _RunState | None = None
    for start in starts:
        run = _pgd(problem, start, opts)
        if best is None or run.objective < best.objective:
            best = run
    assert best is not None
    loading = Loading(fix_column_signs(best.loading.matrix))
    errors = decision_errors(data, loading, g)
    clipped = 0  # reconstructed annuity rates above 1, which pricing clips
    if g.kind == "annuity":
        P = loading.projector()
        clipped = sum(
            int((np.exp(p.y @ P + g.intercept_for(p.group)) > 1.0).sum()) for p in data.panels
        )
    return FitResult(
        loading=loading,
        factors=tuple(FactorPath(p.group, p.y @ loading.matrix / N) for p in data.panels),
        objective_trace=tuple(best.trace),
        group_errors=errors,
        unfairness=pairwise_unfairness(errors),
        iterations=best.iterations,
        converged=best.converged,
        degenerate_spectrum=pca.degenerate_spectrum,
        groups=data.groups,
        iteration_log=tuple(best.log),
        clipped_rates=clipped,
    )


def fit_fair_factor(data: GroupedPanel, r: int, opts: OptimizerOptions) -> FitResult:
    """Projected gradient descent on the fair-factor objective.

    Starts at the principal-components solution plus restarts-1 random draws
    and keeps the best final objective. Stops when the relative change of the
    reconstruction Y L L^T / N drops below convergence_epsilon, when the
    objective stagnates, or at max_iterations (converged=False).
    """
    return _fit(data, r, opts, identity_transform())


def fit_fair_decision(
    data: GroupedPanel, r: int, opts: OptimizerOptions, g: DecisionTransform
) -> FitResult:
    """Projected gradient descent on the fair-decision objective.

    Same scheme as the fair-factor fit with the transform-aware gradient; the
    stopping rule tracks the relative change of g applied to reconstructions.
    The returned group_errors are the exact per-group decision errors, also
    when the annuity fit optimizes the taylor surrogate. With g = identity
    this is the fair-factor fit.
    """
    return _fit(data, r, opts, g)
