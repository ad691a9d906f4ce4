"""Drift-AR forecasting of factor paths and the mapping back to rates.

Model family: ARIMA(p, d, 0) with drift, p <= p_max, d <= d_max, coefficients
and drift fitted by least squares on the d-times differenced series, order
chosen by the corrected Akaike criterion. The family contains the random walk
with drift (p=0, d=1), the canonical choice for log-mortality indices.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .factor import FitResult
from .linalg import _is_integer

__all__ = [
    "DriftARModel",
    "ForecastResult",
    "fit_drift_ar",
    "min_history",
    "forecast",
    "fit_factor_models",
    "predict_mortality",
]

_RESOLUTION = 1e-10  # SSE below (resolution * scale)^2 per point counts as an exact fit


@dataclass(frozen=True)
class DriftARModel:
    order: int  # p
    differencing: int  # d
    drift: float
    ar_coefficients: tuple[float, ...]
    innovation_variance: float
    aicc: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _is_stationary(coeffs: np.ndarray) -> bool:
    p = len(coeffs)
    if p == 0:
        return True
    # roots of 1 - phi_1 z - ... - phi_p z^p must lie outside the unit circle;
    # roots within 1% of it behave as integrated, so reject and let a higher d
    # carry the trend instead
    roots = np.roots(np.concatenate((-coeffs[::-1], [1.0])))
    return bool(np.all(np.abs(roots) > 1.01))


def _fit_candidate(z: np.ndarray, p: int) -> tuple[np.ndarray, float, int] | None:
    """Least-squares AR(p)+drift on a differenced series; None when unusable."""
    T_eff = len(z) - p
    k = p + 2  # drift and innovation variance count as parameters
    if T_eff - k - 1 < 1:
        return None
    X = np.ones((T_eff, p + 1))
    for lag in range(1, p + 1):
        X[:, lag] = z[p - lag : len(z) - lag]
    target = z[p:]
    beta, *_ = np.linalg.lstsq(X, target, rcond=None)
    resid = target - X @ beta
    sse = float(resid @ resid)
    if not np.isfinite(sse):
        return None
    return beta, sse, T_eff


def min_history(p_max: int = 5, d_max: int = 2) -> int:
    """The shortest series fit_drift_ar accepts for this order search."""
    return p_max + d_max + 8


def fit_drift_ar(series: np.ndarray, p_max: int = 5, d_max: int = 2) -> DriftARModel:
    """Search p in 0..p_max, d in 0..d_max and keep the smallest-AICc candidate.

    Candidates whose AR polynomial is not stationary on the differenced scale
    are rejected. Raises ValueError when the series holds a non-finite value
    or is too short, or every candidate is rejected.
    """
    if not (_is_integer(p_max) and _is_integer(d_max) and p_max >= 0 and d_max >= 0):
        raise ValueError(f"p_max and d_max must be non-negative integers, got {p_max!r} and {d_max!r}")
    series = np.asarray(series, dtype=float).ravel()
    if not np.isfinite(series).all():
        raise ValueError("the drift-AR series holds a non-finite value")
    if len(series) < min_history(p_max, d_max):
        raise ValueError(
            f"series of length {len(series)} is too short for p_max={p_max}, d_max={d_max}"
        )
    best: tuple[float, DriftARModel] | None = None
    # candidates fitting to machine precision share one floored SSE, so the
    # AICc comparison then prefers fewer differences and fewer lags
    sse_unit = (_RESOLUTION * max(1.0, float(np.sqrt(np.mean(series**2))))) ** 2
    for d in range(d_max + 1):
        z = np.diff(series, n=d) if d else series
        for p in range(p_max + 1):
            fitted = _fit_candidate(z, p)
            if fitted is None:
                continue
            beta, sse, T_eff = fitted
            coeffs = beta[1:]
            if not _is_stationary(coeffs):
                continue
            k = p + 2
            aicc = (
                T_eff * np.log(max(sse, sse_unit * T_eff) / T_eff)
                + 2 * k
                + 2 * k * (k + 1) / (T_eff - k - 1)
            )
            model = DriftARModel(
                order=p,
                differencing=d,
                drift=float(beta[0]),
                ar_coefficients=tuple(float(c) for c in coeffs),
                innovation_variance=max(sse / T_eff, 0.0),
                aicc=float(aicc),
            )
            if best is None or aicc < best[0]:
                best = (float(aicc), model)
    if best is None:
        raise ValueError("no admissible drift-AR candidate (all unstable or too short)")
    return best[1]


def forecast(model: DriftARModel, history: np.ndarray, h: int) -> np.ndarray:
    """Iterated point forecasts h steps past the end of the history."""
    if not (_is_integer(h) and h >= 1):
        raise ValueError(f"forecast horizon h must be an integer of at least 1, got {h!r}")
    history = np.asarray(history, dtype=float).ravel()
    if not np.isfinite(history).all():
        raise ValueError("the forecast history holds a non-finite value")
    d, p = model.differencing, model.order
    if len(history) < p + d:
        raise ValueError(f"history of length {len(history)} too short for the model")
    z = np.diff(history, n=d) if d else history.copy()
    z = list(z)
    for _ in range(h):
        value = model.drift
        for lag in range(1, p + 1):
            value += model.ar_coefficients[lag - 1] * z[-lag]
        z.append(value)
    steps = np.array(z[len(z) - h :])
    # integrate d times, anchoring each level at the tail of its own history
    for level in range(d, 0, -1):
        anchor_series = np.diff(history, n=level - 1) if level - 1 else history
        steps = anchor_series[-1] + np.cumsum(steps)
    return steps


def fit_factor_models(
    fit: FitResult, p_max: int = 5, d_max: int = 2
) -> dict[str, list[DriftARModel]]:
    """One drift-AR model per (group, factor column), fitted independently."""
    return {
        f.group: [fit_drift_ar(f.matrix[:, j], p_max, d_max) for j in range(f.matrix.shape[1])]
        for f in fit.factors
    }


@dataclass(frozen=True)
class ForecastResult:
    rates: dict[str, np.ndarray]  # group -> (h, N)
    log_rates: dict[str, np.ndarray]
    factors: dict[str, np.ndarray]  # group -> (h, r) forecast factor paths
    clipped: int


def predict_mortality(
    fit: FitResult,
    models: dict[str, list[DriftARModel]],
    intercepts: dict[str, np.ndarray],
    h: int,
    scales: dict[str, np.ndarray] | None = None,
) -> ForecastResult:
    """Forecast factors per group, map through the loading, exponentiate.

    Rates are exp(loading @ factor + intercept) clipped into [0, 1] with the
    clip count reported.
    """
    L = fit.loading.matrix
    clipped = 0
    rates: dict[str, np.ndarray] = {}
    logs: dict[str, np.ndarray] = {}
    paths: dict[str, np.ndarray] = {}
    for f in fit.factors:
        group = f.group
        if group not in models:
            raise KeyError(f"no forecasting models for group {group!r}")
        cols = models[group]
        if len(cols) != f.matrix.shape[1]:
            raise ValueError(
                f"group {group!r} has {f.matrix.shape[1]} factor columns but {len(cols)} models"
            )
        future = np.column_stack([forecast(cols[j], f.matrix[:, j], h) for j in range(len(cols))])
        y_hat = future @ L.T
        if scales is not None and scales.get(group) is not None:
            y_hat = y_hat * scales[group]
        log_m = y_hat + np.asarray(intercepts[group], dtype=float)
        m = np.exp(log_m)
        clipped += int((m > 1.0).sum())  # exp is positive: only rates above 1 clip
        rates[group] = np.clip(m, 0.0, 1.0)
        logs[group] = log_m
        paths[group] = future
    return ForecastResult(rates=rates, log_rates=logs, factors=paths, clipped=clipped)
