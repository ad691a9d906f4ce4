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

import math
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
_TILE = 16  # rows of the annuity weight matrices per dense tile (_weight_tiles)


@dataclass(frozen=True)
class OptimizerOptions:
    penalty: float = 0.0
    max_iterations: int = 2000
    convergence_epsilon: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.penalty) and self.penalty >= 0.0):
            raise ValueError(f"penalty must be finite and non-negative, got {self.penalty}")
        if not (math.isfinite(self.convergence_epsilon) and self.convergence_epsilon > 0.0):
            raise ValueError(f"convergence epsilon must be finite and positive, got {self.convergence_epsilon}")
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
    _errors_batch for a (B, N, r) stack of candidates, and errors_and_grads.
    `evaluations` counts the candidates priced through errors_batch."""

    def __init__(self, data: GroupedPanel, penalty: float):
        self.penalty = penalty
        self.N = data.n_ages
        self.rows = data.group_rows
        self.total_rows = data.total_rows
        self.evaluations = 0

    def errors_batch(self, stack: np.ndarray) -> np.ndarray:
        """(B, K) errors for a (B, N, r) stack of candidate loadings."""
        self.evaluations += len(stack)
        return self._errors_batch(stack)

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

    def _errors_batch(self, stack: np.ndarray) -> np.ndarray:
        B, N, r = stack.shape
        columns = stack.transpose(0, 2, 1).reshape(B * r, N)  # one product for every candidate
        out = np.empty((B, len(self.grams)))
        for k, gram in enumerate(self.grams):
            quad = ((columns @ gram) * columns).sum(axis=1).reshape(B, r).sum(axis=1)
            out[:, k] = (self.sq[k] - quad / self.N) / self.rows[k]
        return out

    def errors_and_grads(self, loading: Loading):
        M = loading.matrix
        products = [gram @ M for gram in self.grams]
        errors = [(sq - float((M * GM).sum()) / self.N) / t for sq, GM, t in zip(self.sq, products, self.rows)]
        grads = [(-2.0 / (t * self.N)) * GM for t, GM in zip(self.rows, products)]
        return np.array(errors), grads

    def stop_signal(self, loading: Loading) -> np.ndarray:
        return (self.Y @ loading.matrix) @ loading.matrix.T / self.N


def _weight_tiles(M: np.ndarray, term: int, discount: float) -> list:
    """The EPV weight matrices W_t of every row t of a (T, N) rate matrix, in tiles.

    Row i of W_t is zero outside columns i .. i + term - 2 (epv_weight_bands).
    Tile (lo, hi, A) covers rows lo .. hi-1: A is (T, hi - lo + term - 2,
    hi - lo) and holds their transpose over the columns from lo that they
    reach. Dense tiles let BLAS weigh candidates row by row, at a fraction
    of the memory and work of the dense (T, width, N) stack.
    """
    bands = epv_weight_bands(M, term, discount)
    T, width, depth = bands.shape
    tiles = []
    for lo in range(0, width, _TILE):
        hi = min(lo + _TILE, width)
        A = np.zeros((T, hi - lo + depth - 1, hi - lo))
        idx = np.arange(hi - lo)
        for j in range(depth):
            A[:, idx + j, idx] = bands[:, lo:hi, j]
        tiles.append((lo, hi, A))
    return tiles


def _weigh(tiles: list, x: np.ndarray) -> np.ndarray:
    """W_t x_tb for every row t and candidate b of a (T, B, N) stack; the
    result is (T, B, width)."""
    out = np.empty(x.shape[:2] + (tiles[-1][1],))
    for lo, hi, A in tiles:
        np.matmul(x[:, :, lo : lo + A.shape[1]], A, out=out[:, :, lo:hi])
    return out


def _weigh_adjoint(tiles: list, z: np.ndarray, n: int) -> np.ndarray:
    """W_t^T z_t for every row t of a (T, width) array; the result is (T, n)."""
    out = np.zeros((z.shape[0], n))
    for lo, hi, A in tiles:
        out[:, lo : lo + A.shape[1]] += np.matmul(A, z[:, lo:hi, None])[:, :, 0]
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
            self.tiles = [_weight_tiles(m, g.term, g.discount) for m in self.m_obs]
            self._workspace: dict = {}  # (rows, batch) -> (rates, tile) buffers of _errors_batch

    def _recon(self, k: int, M: np.ndarray) -> np.ndarray:
        return (self.ys[k] @ M) @ M.T / self.N

    def _residual(self, k: int, recon: np.ndarray) -> np.ndarray:
        """g(recon) - g(y) for group k; recon may carry leading candidate axes."""
        return decision_residual(self.g, self.groups[k], self.ys[k], recon)

    def _error_parts(self, k: int, M: np.ndarray):
        """Return (error_k, Z_k) where Z_k stacks the per-sample z vectors."""
        recon = self._recon(k, M)
        if self.g.kind == "elementwise":
            d = self._residual(k, recon)
            return float((d * d).sum()) / self.rows[k], self.g.funcs()[1](recon) * d
        m_recon = np.exp(recon + self.intercepts[k])
        if self.taylor:
            d = _weigh(self.tiles[k], (m_recon - self.m_obs[k])[:, None, :])[:, 0, :]
            error = float((d * d).sum()) / self.rows[k]
            return error, m_recon * _weigh_adjoint(self.tiles[k], d, self.N)  # W^T W e
        d = self._residual(k, recon)
        error = float((d * d).sum()) / self.rows[k]
        inside = m_recon <= 1.0  # clipping zeroes the sensitivity above 1
        tiles = _weight_tiles(np.clip(m_recon, 0.0, 1.0), self.g.term, self.g.discount)
        u = _weigh_adjoint(tiles, d, self.N)  # W(m_recon)^T d
        return error, np.where(inside, m_recon, 0.0) * u

    def _errors_batch(self, stack: np.ndarray) -> np.ndarray:
        """In taylor mode the reconstructions are laid out row by row,
        (T, B, N), so that each row's W_t weighs all candidates in one
        matrix product. They are written into a workspace kept per (T, B),
        and weighed one tile at a time, so a step allocates no (T, B, N)
        array.
        """
        B = stack.shape[0]
        out = np.empty((B, len(self.ys)))
        for k, Y in enumerate(self.ys):
            scores = np.matmul(Y, stack) / self.N  # (B, T, r)
            if self.taylor:
                key = (len(Y), B)
                if key not in self._workspace:
                    self._workspace[key] = (np.empty((len(Y), B, self.N)), np.empty((len(Y), B, _TILE)))
                e, buffer = self._workspace[key]
                np.einsum("btq,bnq->tbn", scores, stack, out=e)
                e += self.intercepts[k]
                np.exp(e, out=e)
                e -= self.m_obs[k][:, None, :]
                sums = np.zeros(B)
                for lo, hi, A in self.tiles[k]:  # d = W_t e, one tile of its columns at a time
                    d = buffer[:, :, : hi - lo]
                    np.matmul(e[:, :, lo : lo + A.shape[1]], A, out=d)
                    sums += np.einsum("tbw,tbw->b", d, d)
                out[:, k] = sums / self.rows[k]
            else:
                d = self._residual(k, np.matmul(scores, stack.transpose(0, 2, 1)))
                out[:, k] = (d * d).sum(axis=(1, 2)) / self.rows[k]
        return out

    def errors_and_grads(self, loading: Loading):
        M = loading.matrix
        errors, grads = [], []
        for k, Y in enumerate(self.ys):
            err, Z = self._error_parts(k, M)
            errors.append(err)
            grads.append((2.0 / (self.rows[k] * self.N)) * (Z.T @ (Y @ M) + Y.T @ (Z @ M)))
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


def _scaled_polar(stack: np.ndarray):
    """sqrt(N) times the polar factor of every (N, r) matrix of a stack, and
    which of them have one: singular values above 1e-12 of the largest.

    A single column's polar factor is the column over its norm, at a
    fraction of the cost of the batched SVD that wider loadings take.
    """
    n, r = stack.shape[1:]
    if r == 1:
        norms = np.linalg.norm(stack, axis=1, keepdims=True)
        valid = norms[:, 0, 0] > 0.0
        return np.sqrt(n) * stack / np.where(norms > 0.0, norms, 1.0), valid
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    valid = (s[:, 0] > 0.0) & (s[:, -1] > 1e-12 * s[:, 0])
    return np.sqrt(n) * np.einsum("bij,bjk->bik", u, vt), valid


def _step(problem, loading: Loading, grad: np.ndarray, current: float):
    """Exact search along -grad over _STEP_GRID, with the scaled polar projection.

    Projects every grid candidate at once (_scaled_polar) and evaluates all
    of them through the problem's batched error kernel. Returns
    (eta, next_loading, next_objective, next_errors), or
    (0, loading, current, None) when every step loses more than _IMPROVEMENT_TOL.
    """
    L = loading.matrix
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        return 0.0, loading, current, None
    etas = _STEP_GRID * (float(np.linalg.norm(L)) / gnorm)
    projected, valid = _scaled_polar(L[None] - etas[:, None, None] * grad[None])
    if not valid.any():
        # unreachable for finite input: the smallest step keeps
        # sigma_min >= sqrt(N) (1 - 1e-6 sqrt(r)) > 0
        raise FloatingPointError("every grid step is rank-deficient")
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
    stop_reason: str
    evaluations: int  # candidate loadings priced, the start included

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iterations"


def _pgd(problem, start: Loading, opts: OptimizerOptions) -> _RunState:
    priced = problem.evaluations
    loading = start
    errors = problem.errors(loading)
    obj = _combine(errors, problem.rows, problem.total_rows, problem.penalty)
    trace = [obj]
    log: list[dict] = []
    signal = problem.stop_signal(loading)
    signal_norm = float(np.linalg.norm(signal))
    stagnant = 0
    stop = "max_iterations"
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
        if errors_next is None:
            stop = "no_descent"
            break
        new_signal = problem.stop_signal(nxt)
        diff = float(np.linalg.norm(new_signal - signal))
        rel = 0.0 if diff == 0.0 else diff / max(signal_norm, 1e-300)
        improvement = obj - obj_next
        loading, obj, signal, signal_norm = nxt, obj_next, new_signal, float(np.linalg.norm(new_signal))
        if rel <= opts.convergence_epsilon:
            stop = "small_change"
            break
        stagnant = stagnant + 1 if improvement < _STAGNATION_TOL else 0
        if stagnant >= _STAGNATION_LIMIT:
            stop = "stagnation"
            break
    return _RunState(loading, obj, trace, log, iterations, stop, problem.evaluations - priced)


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
    M, grad = best.loading.matrix, problem.gradient(best.loading)
    gradient_norm = float(np.linalg.norm(grad - M @ (M.T @ grad) / N))  # Riemannian: tangent part
    loading = Loading(fix_column_signs(M))
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
        stop_reason=best.stop_reason,
        gradient_norm=gradient_norm,
        evaluations=best.evaluations,
    )


def fit_fair_factor(data: GroupedPanel, r: int, opts: OptimizerOptions) -> FitResult:
    """Projected gradient descent on the fair-factor objective.

    Starts at the principal-components solution plus restarts-1 random draws
    and keeps the best final objective. A run stops when the relative change
    of the reconstruction Y L L^T / N drops below convergence_epsilon
    (stop_reason "small_change"), after _STAGNATION_LIMIT steps that each gain
    less than _STAGNATION_TOL ("stagnation"), when no grid step improves the
    objective ("no_descent"), or at max_iterations ("max_iterations", the only
    one with converged=False).
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
