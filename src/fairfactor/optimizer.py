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
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from .dataset import GroupedPanel
from .factor import (
    FactorPath,
    FitResult,
    Loading,
    _relative_gap,
    fair_factor_dual,
    fit_pca,
    fix_column_signs,
    pairwise_unfairness,
)
from .linalg import RankDeficientError, nearest_orthonormal
from .transforms import (
    DecisionTransform,
    apply_transform,
    decision_errors,
    epv_matrix,
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
_TILE = 16  # rows of the annuity weight matrices per dense tile (_weight_tiles)
_CERTIFIED_GAP = 1e-9  # a start this close above the dual's bound (relative) is optimal: no restarts


def _check_penalty(penalty: float) -> None:
    if not (math.isfinite(penalty) and penalty >= 0.0):
        raise ValueError(f"penalty must be finite and non-negative, got {penalty}")


@dataclass(frozen=True)
class OptimizerOptions:
    penalty: float = 0.0
    max_iterations: int = 2000
    convergence_epsilon: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_penalty(self.penalty)
        if not (math.isfinite(self.convergence_epsilon) and self.convergence_epsilon > 0.0):
            raise ValueError(f"convergence epsilon must be finite and positive, got {self.convergence_epsilon}")
        for name, least in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def random_loading(rng: "np.random.Generator", n: int, r: int) -> Loading:
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
    """Penalized (N, r) gradient from (K,) group errors and K (N, r) group gradients."""
    out = sum((rows[k] / total_rows) * grads[k] for k in range(len(grads)))
    if penalty:
        for k in range(len(grads)):
            for kp in range(k + 1, len(grads)):
                out = out + 2.0 * penalty * (errors[k] - errors[kp]) * (grads[k] - grads[kp])
    return out


class _Problem:
    """Penalized objective and gradient from a subclass's per-group errors:
    errors_batch prices a (B, N, r) stack of candidates, and _pass gives one
    (N, r) loading's (K,) group errors, K (N, r) group gradients and stop signal.
    """

    def __init__(self, data: GroupedPanel, penalty: float):
        self.penalty = penalty
        self.N = data.n_ages
        self.rows = data.group_rows
        self.total_rows = data.total_rows

    def objective(self, loading: Loading) -> float:
        return _combine(self.errors_batch(loading.matrix[None])[0], self.rows, self.total_rows, self.penalty)

    def descent(self, M: np.ndarray):
        """The (N, r) penalized gradient of an (N, r) loading and its stop signal, from one _pass."""
        errors, grads, signal = self._pass(M)
        grad = _penalized_gradient(errors, grads, self.rows, self.total_rows, self.penalty)
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"the penalized gradient has non-finite entries at penalty {self.penalty:g}")
        return grad, signal


class _FactorProblem(_Problem):
    """Reconstruction errors in the substituted trace form, from Gram matrices."""

    def __init__(self, data: GroupedPanel, penalty: float):
        super().__init__(data, penalty)
        self.grams = [p.y.T @ p.y for p in data.panels]
        self.sq = [float((p.y**2).sum()) for p in data.panels]
        self.Y = data.stacked()

    def errors_batch(self, stack: np.ndarray) -> np.ndarray:
        B, N, r = stack.shape
        columns = stack.transpose(0, 2, 1).reshape(B * r, N)  # one product for every candidate
        out = np.empty((B, len(self.grams)))
        for k, gram in enumerate(self.grams):
            product = columns @ gram
            product *= columns
            quad = product.sum(axis=1).reshape(B, r).sum(axis=1)
            out[:, k] = (self.sq[k] - quad / self.N) / self.rows[k]
        return out

    def _pass(self, M: np.ndarray):
        """The stop signal is the reconstruction Y L L^T / N."""
        products = [gram @ M for gram in self.grams]
        errors = np.array([(sq - (M * GM).sum() / self.N) / t for sq, GM, t in zip(self.sq, products, self.rows)])
        grads = [(-2.0 / (t * self.N)) * GM for t, GM in zip(self.rows, products)]
        recon = self.Y @ M @ M.T
        recon /= self.N
        return errors, grads, recon


def _weight_tiles(M: np.ndarray, term: int, discount: float) -> Iterator[tuple]:
    """The EPV weight matrices W_t of every row t of a (T, N) rate matrix, in tiles.

    Row i of W_t is zero outside columns i .. i + term - 2 (epv_weight_bands).
    Tile (lo, hi, A) covers rows lo .. hi-1: A is (T, hi - lo + term - 2,
    hi - lo) and holds their transpose over the columns from lo that they
    reach. Dense tiles let BLAS weigh candidates row by row, at a fraction
    of the memory and work of the dense (T, width, N) stack. The tiles are
    built as they are taken, so a single pass over them holds one at a time.
    """
    bands = epv_weight_bands(M, term, discount)
    T, width, depth = bands.shape
    for lo in range(0, width, _TILE):
        hi = min(lo + _TILE, width)
        A = np.zeros((T, hi - lo + depth - 1, hi - lo))
        idx = np.arange(hi - lo)
        for j in range(depth):
            A[:, idx + j, idx] = bands[:, lo:hi, j]
        yield lo, hi, A


def _weigh(tiles: list, x: np.ndarray) -> np.ndarray:
    """W_t x_t for every row t of a (T, N) matrix, one vector-matrix product per row: (T, width)."""
    out = np.empty((len(x), tiles[-1][1]))
    for lo, hi, A in tiles:
        np.matmul(x[:, None, lo : lo + A.shape[1]], A, out=out[:, None, lo:hi])
    return out


def _weigh_adjoint(tiles: Iterable, z: np.ndarray, n: int) -> np.ndarray:
    """W_t^T z_t for every row t of a (T, width) matrix; the result is (T, n)."""
    out = np.zeros((len(z), n))
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
            self.tiles = [list(_weight_tiles(m, g.term, g.discount)) for m in self.m_obs]
            size = max(self.rows) * len(_STEP_GRID)  # the largest group and batch of errors_batch
            self._rates, self._tile = np.empty(size * self.N), np.empty(size * _TILE)  # its flat workspace
        else:
            self.g_ys = [apply_transform(g, group, y) for group, y in zip(self.groups, self.ys)]

    def errors_batch(self, stack: np.ndarray) -> np.ndarray:
        """Group errors of at most len(_STEP_GRID) candidates. In taylor mode
        the reconstructions are laid out row by row, (T, B, N), so that each
        row's W_t weighs all candidates in one matrix product. They are
        written into the problem's workspace, laid out as a fresh (T, B, N)
        array would be, and weighed one tile at a time, so a step allocates
        no (T, B, N) array.
        """
        B = stack.shape[0]
        out = np.empty((B, len(self.ys)))
        for k, Y in enumerate(self.ys):
            scores = np.matmul(Y, stack) / self.N  # (B, T, r)
            if self.taylor:
                e = self._rates[: len(Y) * B * self.N].reshape(len(Y), B, self.N)
                buffer = self._tile[: len(Y) * B * _TILE].reshape(len(Y), B, _TILE)
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
                recon = np.matmul(scores, stack.transpose(0, 2, 1))
                d = apply_transform(self.g, self.groups[k], recon) - self.g_ys[k]
                out[:, k] = (d * d).sum(axis=(1, 2)) / self.rows[k]
        return out

    def _pass(self, M: np.ndarray):
        """Z stacks a group's per-sample z vectors; the stop signal, every group's g(recon) by rows."""
        errors, grads, signals = np.empty(len(self.ys)), [], []
        for k, Y in enumerate(self.ys):
            YL = Y @ M
            recon = YL @ M.T / self.N
            if self.g.kind == "elementwise":
                func, derivative = self.g.funcs()
                priced = func(recon)
                d = priced - self.g_ys[k]
                Z = derivative(recon) * d
            else:
                m_recon = np.exp(np.add(recon, self.intercepts[k], out=recon), out=recon)  # in place of recon
                priced = epv_matrix(m_recon, self.g.term, self.g.discount)  # apply_transform, to the bit
                if self.taylor:
                    d = _weigh(self.tiles[k], m_recon - self.m_obs[k])
                    Z = m_recon * _weigh_adjoint(self.tiles[k], d, self.N)  # W^T W e
                else:
                    d = priced - self.g_ys[k]
                    tiles = _weight_tiles(np.clip(m_recon, 0.0, 1.0), self.g.term, self.g.discount)
                    # W(m_recon)^T d, one tile at a time; clipping zeroes the sensitivity above 1
                    Z = np.where(m_recon <= 1.0, m_recon, 0.0) * _weigh_adjoint(tiles, d, self.N)
            errors[k] = (d * d).sum() / self.rows[k]
            grads.append((2.0 / (self.rows[k] * self.N)) * (Z.T @ YL + Y.T @ (Z @ M)))
            signals.append(priced)
            del d, Z  # so that the next group's pricing does not hold them too
        return errors, grads, np.concatenate(signals)


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
    _check_penalty(penalty)
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
    _check_penalty(penalty)
    return _problem(data, g, penalty).descent(loading.matrix)[0]


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


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a finite array, rescaled by its largest entry only where the sum of squares overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if math.isinf(norm):
        scale = float(np.abs(x).max())
        norm = scale * float(np.linalg.norm(x / scale))
    return norm


def _step(problem, M: np.ndarray, grad: np.ndarray, current: float):
    """Exact search along -grad over _STEP_GRID from an (N, r) loading, with
    the scaled polar projection: all len(_STEP_GRID) candidates are
    projected at once (_scaled_polar) and priced with one errors_batch call.

    Returns (step size, next loading, its objective, its (K,) group errors,
    moved). The loading stays, with step 0, the current objective and NaN
    errors, when its gradient is zero or every step loses more than
    _IMPROVEMENT_TOL against the current objective.
    """
    gnorm = _norm(grad)
    if gnorm != 0.0:  # a zero gradient's grid would hold the loading itself: price nothing
        etas = _STEP_GRID * (np.linalg.norm(M) / gnorm)
        projected, valid = _scaled_polar(M - etas[:, None, None] * grad)
        if not valid.any():
            # unreachable for finite input: the smallest step keeps
            # sigma_min >= sqrt(N) (1 - 1e-6 sqrt(r)) > 0
            raise FloatingPointError("every grid step is rank-deficient")
        errors = problem.errors_batch(projected)
        values = _combine(errors, problem.rows, problem.total_rows, problem.penalty)
        values = np.where(valid & np.isfinite(values), values, np.inf)
        best = int(np.argmin(values))
        value = float(values[best])
        if not value - current > _IMPROVEMENT_TOL:  # the loss itself: current + tol can round up
            return float(etas[best]), projected[best].copy(), value, errors[best], True  # pins no batch
    return 0.0, M, current, np.full(len(problem.rows), np.nan), False


@dataclass
class _RunState:
    """One start's run and its history, until the fit keeps the run of lowest objective."""

    matrix: np.ndarray  # (N, r) loading, the final one once the run stops
    trace: list[float]  # objective at the start and after every iteration
    steps: list[float] = field(default_factory=list)  # step size per iteration; 0 where it stayed
    unfairness: list[float] = field(default_factory=list)  # pairwise unfairness per iteration
    stop_reason: str = "max_iterations"
    gradient: np.ndarray | None = None  # (N, r) penalized gradient at the final loading

    @property
    def objective(self) -> float:
        return self.trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iterations"

    @property
    def evaluations(self) -> int:
        """Candidate loadings priced, the start included: one grid per
        iteration, but none in a last step from a zero gradient."""
        unpriced = self.stop_reason == "no_descent" and not self.gradient.any()
        return 1 + len(_STEP_GRID) * (self.iterations - unpriced)

    @property
    def log(self) -> list[dict]:
        return [
            {"iteration": i, "objective": obj, "unfairness": u, "step_size": eta}
            for i, (obj, u, eta) in enumerate(zip(self.trace[1:], self.unfairness, self.steps), start=1)
        ]


def _descend(problem, M: np.ndarray, opts: OptimizerOptions) -> _RunState:
    """Projected gradient descent from one (N, r) start.

    Each iteration takes one grid step (_step), then one pass at the new
    loading gives its gradient and stop signal. The run stops when no grid
    step improves the objective ("no_descent"), when the stop signal's
    relative change is at most convergence_epsilon ("small_change"), or
    after max_iterations ("max_iterations").
    """
    errors = problem.errors_batch(M[None])[0]
    objective = float(_combine(errors, problem.rows, problem.total_rows, problem.penalty))
    run = _RunState(M, [objective])
    grad, signal = problem.descent(M)
    for _ in range(opts.max_iterations):
        eta, M, objective, step_errors, moved = _step(problem, M, grad, objective)
        errors = step_errors if moved else errors  # a step that stays has no errors of its own
        run.trace.append(objective)
        run.steps.append(eta)
        run.unfairness.append(pairwise_unfairness(errors))
        if not moved:
            run.stop_reason = "no_descent"
            break
        grad, new = problem.descent(M)
        diff = np.linalg.norm(new - signal)
        change = 0.0 if diff == 0.0 else diff / max(np.linalg.norm(signal), 1e-300)
        signal = new
        if change <= opts.convergence_epsilon:
            run.stop_reason = "small_change"
            break
    run.matrix, run.gradient = M, grad
    return run


def _dual_start(data: GroupedPanel, r: int, problem):
    """The dual's loading and bound for two groups in trace form; None for other fits, which start at PCA."""
    if isinstance(problem, _FactorProblem) and len(problem.rows) == 2:
        return fair_factor_dual(data, r, problem.penalty)


def _fit(data: GroupedPanel, r: int, opts: OptimizerOptions, g: DecisionTransform) -> FitResult:
    N = data.n_ages
    pca = fit_pca(data, r)  # checks r
    problem = _problem(data, g, opts.penalty)
    dual = _dual_start(data, r, problem)
    starts = [pca.loading if dual is None else dual.loading]
    if dual is not None and _relative_gap(problem.objective(starts[0]), dual.lower_bound) <= _CERTIFIED_GAP:
        # an optimal start draws no restarts, and its one step counts as a small change whatever its size
        opts = replace(opts, restarts=1, convergence_epsilon=np.finfo(float).max)
    if opts.restarts > 1:  # a single-start fit draws nothing, so it never loads numpy.random
        rng = np.random.default_rng(opts.seed)
        starts += [random_loading(rng, N, r) for _ in range(opts.restarts - 1)]
    # the first run of the lowest objective: min drops every other run as soon as it has lost
    best = min((_descend(problem, start.matrix, opts) for start in starts), key=lambda run: run.objective)
    M, grad = best.matrix, best.gradient
    gradient_norm = _norm(grad - M @ (M.T @ grad) / N)  # Riemannian: tangent part
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
        lower_bound=None if dual is None else dual.lower_bound,
        certified_gap=None if dual is None else _relative_gap(best.objective, dual.lower_bound),
    )


def fit_fair_factor(data: GroupedPanel, r: int, opts: OptimizerOptions) -> FitResult:
    """Projected gradient descent on the fair-factor objective.

    Two groups start at the dual's loading (factor.fair_factor_dual) and
    report its lower_bound and the final objective's certified_gap above it;
    a start within 1e-9 of the bound is optimal, draws no restarts and stops
    after one step. More groups start at the principal-components solution
    (both fields None). Then restarts-1 random draws follow. The starts
    descend one after another, each on its own, and the first run of the
    lowest final objective is kept; `evaluations` counts the kept run's
    candidates only. A run stops when the relative change of the
    reconstruction Y L L^T / N drops below convergence_epsilon
    (stop_reason "small_change"), when no grid step improves the objective
    ("no_descent"), or at max_iterations ("max_iterations", the only one
    with converged=False).
    """
    return _fit(data, r, opts, identity_transform())


def fit_fair_decision(
    data: GroupedPanel, r: int, opts: OptimizerOptions, g: DecisionTransform
) -> FitResult:
    """Projected gradient descent on the fair-decision objective.

    Same scheme as the fair-factor fit with the transform-aware gradient,
    one start at a time; the stopping rule tracks the relative change of g
    applied to reconstructions. The returned group_errors are the exact per-group decision errors, also
    when the annuity fit optimizes the taylor surrogate. With g = identity
    this is the fair-factor fit, dual start included; other transforms
    start at the principal-components solution.
    """
    return _fit(data, r, opts, g)
