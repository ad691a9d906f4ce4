"""RMSE accuracy/fairness reporting and k-fold cross-validation of the penalty.

Accuracy is reported as RMSE per group, per age, per year, and in total, with
the total satisfying total^2 * T = sum_k T_k * group_k^2. Fairness is the
largest difference between any two groups' RMSEs.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataset import GroupedPanel
from .linalg import _is_integer
from .optimizer import OptimizerOptions, fit_fair_decision
from .transforms import DecisionTransform, decision_errors

__all__ = [
    "MetricsReport",
    "CvRow",
    "CvTable",
    "metrics",
    "cross_validate_lambda",
]


@dataclass(frozen=True)
class MetricsReport:
    quantity: str  # "mortality" or "epv"
    groups: tuple[str, ...]
    group_rows: np.ndarray  # T_k per group
    rmse_by_group: np.ndarray
    rmse_total: float
    fairness_difference: float
    rmse_by_age: dict[str, np.ndarray]  # per group, one value per column
    rmse_by_year: dict[str, np.ndarray]  # per group, one value per row

    def aggregation_residual(self) -> float:
        """Relative defect of total^2 * T = sum_k T_k * group_k^2 (ideally 0)."""
        T = int(self.group_rows.sum())
        lhs = self.rmse_total**2 * T
        rhs = float(self.group_rows @ (self.rmse_by_group**2))
        return abs(lhs - rhs) / max(abs(rhs), 1e-300)

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "groups": list(self.groups),
            "group_rows": [int(v) for v in self.group_rows],
            "rmse_by_group": {g: float(v) for g, v in zip(self.groups, self.rmse_by_group)},
            "rmse_total": self.rmse_total,
            "fairness_difference": self.fairness_difference,
            "rmse_by_age": {g: [float(v) for v in self.rmse_by_age[g]] for g in self.groups},
            "rmse_by_year": {g: [float(v) for v in self.rmse_by_year[g]] for g in self.groups},
        }


def _group_gap(errors: np.ndarray) -> float:
    """The largest difference between any two groups' errors: max - min, which in
    floating point equals the largest pairwise |difference| exactly."""
    return float(errors.max() - errors.min())


def metrics(
    actual: dict[str, np.ndarray],
    predicted: dict[str, np.ndarray],
    quantity: str,
) -> MetricsReport:
    """RMSE report for per-group matrices of rates or EPVs (rows are years)."""
    if quantity not in ("mortality", "epv"):
        raise ValueError(f"unknown quantity {quantity!r}")
    if set(actual) != set(predicted):
        raise ValueError("actual and predicted cover different groups")
    groups = tuple(sorted(actual))
    by_group = []
    rows = []
    by_age: dict[str, np.ndarray] = {}
    by_year: dict[str, np.ndarray] = {}
    sq_sum = 0.0
    cells = 0
    for g in groups:
        a = np.asarray(actual[g], dtype=float)
        p = np.asarray(predicted[g], dtype=float)
        if a.shape != p.shape:
            raise ValueError(f"group {g!r}: actual {a.shape} vs predicted {p.shape}")
        err2 = (a - p) ** 2
        by_group.append(float(np.sqrt(err2.mean())))
        rows.append(a.shape[0])
        by_age[g] = np.sqrt(err2.mean(axis=0))
        by_year[g] = np.sqrt(err2.mean(axis=1))
        sq_sum += float(err2.sum())
        cells += err2.size
    by_group = np.array(by_group)
    return MetricsReport(
        quantity=quantity,
        groups=groups,
        group_rows=np.array(rows, dtype=int),
        rmse_by_group=by_group,
        rmse_total=float(np.sqrt(sq_sum / cells)),
        fairness_difference=_group_gap(by_group),
        rmse_by_age=by_age,
        rmse_by_year=by_year,
    )


@dataclass(frozen=True)
class CvRow:
    penalty: float
    cv_error: float
    mean_gap: float
    feasible: bool


@dataclass(frozen=True)
class CvTable:
    rows: tuple[CvRow, ...]
    chosen: float
    gap_cap: float
    fallback: bool  # no feasible row; chose the smallest-gap one instead

    def row(self, penalty: float) -> CvRow:
        for r in self.rows:
            if r.penalty == penalty:
                return r
        raise KeyError(penalty)


def _fold_indices(n: int, k: int) -> list[np.ndarray]:
    """k contiguous blocks of the rows 0 .. n-1, in order."""
    return np.array_split(np.arange(n), k)


def _evaluate_fold(args):
    """Fit on the rows outside one fold, then score the fold's rows: the mean
    decision error per held-out row and the largest gap between groups."""
    data, r, opts, g, fold_sets = args
    train_panels, valid_panels = [], []
    for p, fold in zip(data.panels, fold_sets):
        train = np.ones(p.n_years, dtype=bool)  # np.setdiff1d would import numpy.ma into every worker
        train[fold] = False
        train_panels.append(p.take_rows(train))
        valid_panels.append(p.take_rows(fold))
    fit = fit_fair_decision(GroupedPanel(tuple(train_panels)), r, opts, g)
    valid = GroupedPanel(tuple(valid_panels))
    errors = decision_errors(valid, fit.loading, g)
    return float(errors @ valid.group_rows) / valid.total_rows, _group_gap(errors)


def cross_validate_lambda(
    data: GroupedPanel,
    r: int,
    lambda_grid,
    k: int,
    lambda_cap: float | None,
    g: DecisionTransform,
    opts: OptimizerOptions,
    jobs: int = 1,
) -> CvTable:
    """k-fold search over the penalty grid under the fairness-gap constraint.

    Folds partition each group's rows into k contiguous blocks of years. A
    grid point is feasible when its mean validation fairness gap is at most
    lambda_cap; with lambda_cap=None the cap defaults to half the
    penalty-free gap. The chosen penalty minimizes the mean validation error
    among feasible rows, falling back to the smallest-gap row (flagged) when
    none is feasible.
    """
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("empty penalty grid")
    if len(set(grid)) < len(grid):
        raise ValueError(f"the penalty grid repeats a value: {grid}")
    if any(v < 0 for v in grid):
        raise ValueError("penalties must be non-negative")
    if lambda_cap is not None and not lambda_cap >= 0:  # nan fails this too; inf caps nothing
        raise ValueError(f"the gap cap must be non-negative, got {lambda_cap}")
    if not (_is_integer(k) and k >= 2):
        raise ValueError(f"k must be an integer of at least 2 folds, got {k!r}")
    if not (_is_integer(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be an integer of at least 1, got {jobs!r}")
    for p in data.panels:
        if p.n_years < k:
            raise ValueError(f"group {p.group!r} has {p.n_years} rows, fewer than {k} folds")
    fold_sets = list(zip(*(_fold_indices(p.n_years, k) for p in data.panels)))

    # the default cap is half the penalty-free gap, so lambda = 0 must be run
    penalties = sorted(set(grid) | {0.0}) if lambda_cap is None else sorted(set(grid))
    tasks = [(data, r, replace(opts, penalty=lam), g, folds) for lam in penalties for folds in fold_sets]
    workers = min(jobs, len(tasks))  # a fork pool starts all its workers on the first submit
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_evaluate_fold, tasks))
    else:
        outcomes = list(map(_evaluate_fold, tasks))
    scores = np.array(outcomes).reshape(len(penalties), k, 2)  # (penalty, fold, error | gap)
    # each mean runs over one contiguous row, so it rounds as np.mean of that penalty's folds alone
    mean_errors, mean_gaps = np.ascontiguousarray(scores.transpose(2, 0, 1)).mean(axis=2).tolist()
    cap = float(lambda_cap) if lambda_cap is not None else mean_gaps[penalties.index(0.0)] / 2.0
    rows = []
    for lam in grid:
        i = penalties.index(lam)
        rows.append(CvRow(penalty=lam, cv_error=mean_errors[i], mean_gap=mean_gaps[i], feasible=mean_gaps[i] <= cap))
    feasible = [row for row in rows if row.feasible]
    if feasible:
        chosen = min(feasible, key=lambda row: (row.cv_error, row.penalty))
        fallback = False
    else:
        chosen = min(rows, key=lambda row: (row.mean_gap, row.penalty))
        fallback = True
    return CvTable(rows=tuple(rows), chosen=chosen.penalty, gap_cap=cap, fallback=fallback)
