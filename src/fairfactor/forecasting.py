"""Drift-AR forecasting of factor paths and the mapping back to rates.

Model family, fixed: ARIMA(p, d, 0) with drift, p <= 5, d <= 2, coefficients
and drift fitted by least squares on the d-times differenced series, order
chosen by the corrected Akaike criterion. The family contains the random walk
with drift (p=0, d=1), the canonical choice for log-mortality indices.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import GroupedPanel
from .factor import FitResult
from .linalg import _is_integer

__all__ = [
    "DriftARModel",
    "ForecastResult",
    "fit_drift_ar",
    "MIN_HISTORY",
    "forecast",
    "fit_factor_models",
    "predict_mortality",
]

_RESOLUTION = 1e-10  # SSE below (resolution * scale)^2 per point counts as an exact fit
_P_MAX = 5  # the family's largest AR order
_D_MAX = 2  # and its most differences
MIN_HISTORY = _P_MAX + _D_MAX + 8  # the shortest series fit_drift_ar accepts


@dataclass(frozen=True)
class DriftARModel:
    differencing: int  # d
    drift: float
    ar_coefficients: tuple[float, ...]  # phi_1 .. phi_p
    innovation_variance: float
    aicc: float

    def __post_init__(self):
        if not (_is_integer(self.differencing) and 0 <= self.differencing <= _D_MAX):
            raise ValueError(f"differencing must be an integer in 0..{_D_MAX}, got {self.differencing!r}")
        if len(self.ar_coefficients) > _P_MAX:
            raise ValueError(f"ar_coefficients holds {len(self.ar_coefficients)} values, more than {_P_MAX}")
        for name in ("drift", "ar_coefficients", "innovation_variance", "aicc"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.innovation_variance < 0.0:
            raise ValueError(f"innovation_variance must be non-negative, got {self.innovation_variance!r}")

    @property
    def order(self) -> int:  # p
        return len(self.ar_coefficients)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "order": self.order}


def _is_stationary(coeffs: np.ndarray) -> bool:
    # roots of 1 - phi_1 z - ... - phi_p z^p (none when p = 0) must lie outside the unit circle;
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


def fit_drift_ar(series: np.ndarray) -> DriftARModel:
    """Search p in 0..5, d in 0..2 and keep the smallest-AICc candidate.

    Candidates whose AR polynomial is not stationary on the differenced scale
    are rejected. Raises ValueError when the series holds a non-finite value
    or is too short, or every candidate is rejected.
    """
    series = np.asarray(series, dtype=float).ravel()
    if not np.isfinite(series).all():
        raise ValueError("the drift-AR series holds a non-finite value")
    if len(series) < MIN_HISTORY:
        raise ValueError(f"series of length {len(series)} is too short: the drift-AR search needs {MIN_HISTORY}")
    best: tuple[float, DriftARModel] | None = None
    # candidates fitting to machine precision share one floored SSE, so the
    # AICc comparison then prefers fewer differences and fewer lags
    sse_unit = (_RESOLUTION * max(1.0, float(np.sqrt(np.mean(series**2))))) ** 2
    for d in range(_D_MAX + 1):
        z = np.diff(series, n=d)
        for p in range(_P_MAX + 1):
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
    z = list(np.diff(history, n=d))
    for _ in range(h):
        value = model.drift
        for lag, phi in enumerate(model.ar_coefficients, start=1):
            value += phi * z[-lag]
        z.append(value)
    steps = np.array(z[len(z) - h :])
    # integrate d times, anchoring each level at the tail of its own history
    for level in range(d, 0, -1):
        steps = np.diff(history, n=level - 1)[-1] + np.cumsum(steps)
    return steps


def fit_factor_models(fit: FitResult) -> dict[str, list[DriftARModel]]:
    """One drift-AR model per (group, factor column), fitted independently."""
    return {group: [fit_drift_ar(column) for column in f.T] for group, f in fit.factors.items()}


@dataclass(frozen=True)
class ForecastResult:
    rates: dict[str, np.ndarray]  # group -> (h, N)
    log_rates: dict[str, np.ndarray]
    clipped: int


def predict_mortality(
    fit: FitResult, models: dict[str, list[DriftARModel]], panels: GroupedPanel, h: int
) -> ForecastResult:
    """Forecast factors per group, map through the loading, exponentiate.

    Each group's forecast centered values F L^T become log rates through its
    training panel in `panels` (Panel.log_rates); rates are their
    exponentials clipped into [0, 1], with the clip count reported.
    """
    L = fit.loading.matrix
    by_group = {p.group: p for p in panels.panels}
    clipped = 0
    rates: dict[str, np.ndarray] = {}
    logs: dict[str, np.ndarray] = {}
    for group, f in fit.factors.items():
        if group not in models:
            raise KeyError(f"no forecasting models for group {group!r}")
        if group not in by_group:
            raise KeyError(f"no training panel for group {group!r}")
        cols = models[group]
        if len(cols) != f.shape[1]:
            raise ValueError(f"group {group!r} has {f.shape[1]} factor columns but {len(cols)} models")
        future = np.column_stack([forecast(model, column, h) for model, column in zip(cols, f.T)])
        log_m = by_group[group].log_rates(future @ L.T)
        m = np.exp(log_m)
        clipped += int((m > 1.0).sum())  # exp is positive: only rates above 1 clip
        rates[group] = np.clip(m, 0.0, 1.0)
        logs[group] = log_m
    return ForecastResult(rates=rates, log_rates=logs, clipped=clipped)
