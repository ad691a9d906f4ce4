from dataclasses import replace

import numpy as np
import pytest

from fairfactor.dataset import GroupedPanel, synthesize
from fairfactor.factor import fit_pca
from fairfactor.forecasting import (
    DriftARModel,
    fit_drift_ar,
    fit_factor_models,
    forecast,
    min_history,
    predict_mortality,
)
from fairfactor.optimizer import OptimizerOptions, fit_fair_factor
from fairfactor.transforms import annuity_transform, apply_transform, epv_matrix, epv_width


def test_constant_series():
    model = fit_drift_ar(np.full(40, 3.25))
    assert model.differencing == 0 and model.order == 0
    assert model.drift == pytest.approx(3.25)
    assert np.allclose(forecast(model, np.full(40, 3.25), 4), 3.25)


def test_exact_linear_trend():
    t = np.arange(40, dtype=float)
    series = 3.0 + 2.0 * t
    model = fit_drift_ar(series)
    assert model.differencing == 1 and model.order == 0
    assert model.drift == pytest.approx(2.0)
    assert np.allclose(forecast(model, series, 3), series[-1] + 2.0 * np.arange(1, 4))


def test_random_walk_drift_recovery():
    # Monte Carlo coverage: the fitted drift stays near the generating 0.5
    drifts = []
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        series = np.cumsum(0.5 + rng.standard_normal(500))
        model = fit_drift_ar(series)
        drifts.append(model.drift)
        if abs(model.drift - 0.5) <= 0.1:
            hits += 1
    assert hits >= 40  # per-seed noise keeps this a coverage check, not a sup bound
    assert abs(np.mean(drifts) - 0.5) <= 0.03


def test_aicc_selection_sanity_floor():
    # truth ARIMA(1,1,0) with phi=-0.5: selection is noisy, 60% is the floor
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z = np.zeros(501)
        for t in range(1, 501):
            z[t] = -0.5 * z[t - 1] + rng.standard_normal()
        series = np.cumsum(z + 0.3)
        model = fit_drift_ar(series)
        if (model.order, model.differencing) == (1, 1):
            hits += 1
    assert hits >= 60


def test_forecast_closed_forms():
    mean_model = DriftARModel(0, 0, 1.7, (), 1.0, 0.0)
    assert np.allclose(forecast(mean_model, np.array([5.0, 1.7]), 3), 1.7)

    rw = DriftARModel(0, 1, 2.0, (), 1.0, 0.0)
    assert np.allclose(forecast(rw, np.array([4.0, 10.0]), 3), [12.0, 14.0, 16.0])

    ar1 = DriftARModel(1, 0, 0.0, (0.5,), 1.0, 0.0)
    assert np.allclose(forecast(ar1, np.array([3.0, 8.0]), 3), [4.0, 2.0, 1.0])

    with pytest.raises(ValueError):
        forecast(ar1, np.array([1.0, 2.0]), 0)


def test_forecast_double_differencing():
    # perfect squares: second differences are the constant 2
    history = np.arange(12, dtype=float) ** 2
    model = fit_drift_ar(history, p_max=2, d_max=2)
    assert model.differencing == 2 and model.order == 0
    assert model.drift == pytest.approx(2.0)
    assert np.allclose(forecast(model, history, 3), [144.0, 169.0, 196.0])


def test_series_too_short():
    with pytest.raises(ValueError, match="too short"):
        fit_drift_ar(np.arange(10.0), p_max=5, d_max=2)


def test_forecast_determinism():
    rng = np.random.default_rng(9)
    series = np.cumsum(rng.standard_normal(120))
    a = fit_drift_ar(series)
    b = fit_drift_ar(series.copy())
    assert a == b
    assert np.array_equal(forecast(a, series, 7), forecast(b, series, 7))


def test_predict_mortality_constant_factors():
    data, _ = synthesize(N=6, r=1, group_sizes=[30, 30], noise_scales=[0.0, 0.0], seed=3)
    fit = fit_pca(data, 1)
    # constant factor path: forecasts repeat the last fitted log rates
    models = {g: [DriftARModel(0, 1, 0.0, (), 1.0, 0.0)] for g in data.groups}
    out = predict_mortality(fit, models, data, h=4)
    for p in data.panels:
        last_log = (p.y @ fit.loading.projector())[-1] + p.intercept
        assert np.allclose(out.log_rates[p.group], np.tile(last_log, (4, 1)), atol=1e-10)


def test_predict_mortality_monotone_decline():
    data, _ = synthesize(N=5, r=1, group_sizes=[25, 25], noise_scales=[0.0, 0.0], seed=4)
    fit = fit_pca(data, 1)
    data = GroupedPanel(tuple(replace(p, intercept=np.full(5, -3.0)) for p in data.panels))
    col = fit.loading.matrix[:, 0]
    drift = -0.2 if np.all(col > 0) else 0.2 if np.all(col < 0) else None
    if drift is None:  # mixed-sign loading: pick a sign and check per age below
        drift = -0.2
    models = {g: [DriftARModel(0, 1, drift, (), 1.0, 0.0)] for g in data.groups}
    out = predict_mortality(fit, models, data, h=5)
    for g, log_m in out.log_rates.items():
        diffs = np.diff(log_m, axis=0)
        expected = np.sign(col * drift)
        for i in range(5):
            assert np.all(np.sign(diffs[:, i]) == expected[i]) or np.allclose(diffs[:, i], 0.0)


def test_predict_mortality_closed_form_oracle():
    data, truth = synthesize(N=7, r=1, group_sizes=[60, 50], noise_scales=[0.0, 0.0], seed=5)
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=0.0, restarts=1, seed=0))
    # restrict to drift-only candidates: the trending path selects (0, 1),
    # whose forecasts have the closed form f_T + h * drift
    models = fit_factor_models(fit, p_max=0, d_max=1)
    intercepts = {p.group: p.intercept for p in data.panels}
    h = 6
    out = predict_mortality(fit, models, data, h=h)
    for f in fit.factors:
        g = f.group
        model = models[g][0]
        assert (model.order, model.differencing) == (0, 1)
        path = f.matrix[:, 0]
        drift = float(np.diff(path).mean())
        assert model.drift == pytest.approx(drift, rel=1e-10)
        steps = path[-1] + drift * np.arange(1, h + 1)
        analytic = fit.loading.matrix[:, 0][None, :] * steps[:, None] + intercepts[g]
        assert np.allclose(out.log_rates[g], analytic, atol=1e-8)
        # round trip: forecast log rates minus intercept lie in the loading span
        centered = out.log_rates[g] - intercepts[g]
        proj = centered @ fit.loading.projector()
        assert np.allclose(proj, centered, atol=1e-10)


def test_predict_mortality_clipping_counted():
    data, _ = synthesize(N=4, r=1, group_sizes=[30, 30], noise_scales=[0.0, 0.0], seed=6)
    fit = fit_pca(data, 1)
    data = GroupedPanel(tuple(replace(p, intercept=np.full(4, 5.0)) for p in data.panels))  # forces rates > 1
    models = {g: [DriftARModel(0, 1, 0.0, (), 1.0, 0.0)] for g in data.groups}
    out = predict_mortality(fit, models, data, h=2)
    assert out.clipped > 0
    for m in out.rates.values():
        assert np.all((0.0 <= m) & (m <= 1.0))


def test_predict_epv_trivial_and_consistency():
    rng = np.random.default_rng(7)
    rates = {"g1": rng.uniform(0.01, 0.4, size=(3, 8)), "g2": rng.uniform(0.01, 0.4, size=(3, 8))}
    for m in rates.values():
        assert np.all(epv_matrix(m, 1, 0.9) == 1.0)

    assert np.allclose(epv_matrix(np.zeros((2, 6)), 4, 1.0), 4.0)

    g = annuity_transform(5, 0.95, {k: np.zeros(8) for k in rates})
    for k, m in rates.items():
        via_transform = apply_transform(g, k, np.log(m))
        assert via_transform.shape == (3, epv_width(8, 5))
        assert np.allclose(epv_matrix(m, 5, 0.95), via_transform, atol=1e-12)


@pytest.mark.parametrize("h", [2.5, True])
def test_forecast_rejects_a_horizon_that_is_not_an_integer(h):
    # 2.5 used to fail inside range() with a TypeError
    with pytest.raises(ValueError, match="forecast horizon h must be an integer"):
        forecast(DriftARModel(0, 0, 1.7, (), 1.0, 0.0), np.array([5.0, 1.7]), h)


@pytest.mark.parametrize("orders", [dict(p_max=1.5), dict(d_max=True), dict(p_max=-1)])
def test_fit_drift_ar_rejects_orders_that_are_not_non_negative_integers(orders):
    with pytest.raises(ValueError, match="p_max and d_max must be non-negative integers"):
        fit_drift_ar(np.arange(40.0), **orders)


def test_fit_drift_ar_with_no_finite_candidate_is_rejected():
    # every candidate's sum of squared residuals overflows
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="no admissible drift-AR candidate"):
        fit_drift_ar(np.array([1e300, -1e300] * 10), p_max=1, d_max=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_fit_drift_ar_rejects_a_non_finite_series(bad, capfd):
    # an all-NaN series made LAPACK print to stderr and raise LinAlgError; one
    # inf gave "no admissible drift-AR candidate"
    series = np.arange(20.0)
    series[7] = bad
    for values in (series, np.full(20, bad)):
        with pytest.raises(ValueError, match="the drift-AR series holds a non-finite value"):
            fit_drift_ar(values, 1, 1)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_forecast_rejects_a_non_finite_history(bad):
    # forecast(model, [1, nan, 2], 2) used to return [2.1, 2.2]
    model = DriftARModel(0, 1, 0.1, (), 1.0, 0.0)
    with pytest.raises(ValueError, match="the forecast history holds a non-finite value"):
        forecast(model, np.array([1.0, bad, 2.0]), 2)


def test_fit_drift_ar_skips_a_candidate_with_no_residual_degree_of_freedom():
    # at min_history() points the (p=5, d=2) candidate fits 7 parameters to 8
    # rows, and its AICc correction would divide by zero; on this walk that
    # candidate's AR polynomial is stationary, so only the skip keeps it out
    series = np.cumsum(np.random.default_rng(1).standard_normal(min_history()))
    assert len(series) == 15
    model = fit_drift_ar(series)
    assert (model.order, model.differencing) != (5, 2)
    assert np.isfinite(model.aicc)


def test_forecast_rejects_a_history_shorter_than_the_model():
    model = DriftARModel(2, 1, 0.0, (0.5, 0.1), 1.0, 0.0)
    with pytest.raises(ValueError, match="history of length 2 too short"):
        forecast(model, np.array([1.0, 2.0]), 1)


def test_predict_mortality_rejects_missing_or_mismatched_models():
    data, _ = synthesize(N=5, r=2, group_sizes=[20, 20], noise_scales=[0.1, 0.1], seed=4)
    fit = fit_pca(data, 2)
    models = fit_factor_models(fit)
    with pytest.raises(KeyError, match="no forecasting models for group 'g2'"):
        predict_mortality(fit, {"g1": models["g1"]}, data, 3)
    with pytest.raises(ValueError, match="group 'g1' has 2 factor columns but 1 models"):
        predict_mortality(fit, {**models, "g1": models["g1"][:1]}, data, 3)
    other = GroupedPanel((data.panels[0], replace(data.panels[1], group="g3")))
    with pytest.raises(KeyError, match="no training panel for group 'g2'"):
        predict_mortality(fit, models, other, 3)
