import numpy as np
import pytest

from fairfactor.dataset import GroupedPanel, Panel, synthesize
from fairfactor.factor import Loading, fit_pca, group_errors, pairwise_unfairness, reconstruction_error
from fairfactor.linalg import nearest_orthonormal, principal_angle
from fairfactor.optimizer import (
    _STEP_GRID,
    OptimizerOptions,
    _FactorProblem,
    _step,
    annuity_taylor_objective,
    fair_decision_gradient,
    fair_decision_objective,
    fair_factor_gradient,
    fair_factor_objective,
    fit_fair_decision,
    fit_fair_factor,
    random_loading,
)
from fairfactor.transforms import (
    annuity_transform_for,
    decision_errors,
    elementwise_transform,
    epv_weights_stack,
    identity_transform,
)


def panel_pair(y1, y2, intercept=None):
    N = y1.shape[1]
    ages = np.arange(N)
    a = np.zeros(N) if intercept is None else np.asarray(intercept, float)
    return GroupedPanel(
        (
            Panel("g1", np.arange(len(y1)), ages, np.asarray(y1, float), a),
            Panel("g2", np.arange(len(y2)), ages, np.asarray(y2, float), a.copy()),
        )
    )


def random_instance(rng, T1=6, T2=5, N=6):
    return panel_pair(rng.standard_normal((T1, N)), rng.standard_normal((T2, N)))


# ---------------------------------------------------------------- objectives


def test_factor_objective_lambda_zero_reduction():
    rng = np.random.default_rng(0)
    data = random_instance(rng)
    L = random_loading(rng, 6, 2)
    assert fair_factor_objective(data, L, 0.0) == pytest.approx(
        reconstruction_error(data.stacked(), L), rel=1e-13
    )


def test_factor_objective_equal_groups_penalty_free():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((5, 4))
    data = panel_pair(y, y.copy())
    L = random_loading(rng, 4, 2)
    assert fair_factor_objective(data, L, 0.0) == pytest.approx(
        fair_factor_objective(data, L, 7.5), rel=1e-12
    )


def test_factor_objective_termwise_oracle():
    rng = np.random.default_rng(2)
    data = random_instance(rng)
    L = random_loading(rng, 6, 2)
    errs = group_errors(data, L)
    T = data.total_rows
    expected = float(errs @ data.group_rows) / T + 3.0 * (errs[0] - errs[1]) ** 2
    assert fair_factor_objective(data, L, 3.0) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        fair_factor_objective(data, L, -1.0)


# ----------------------------------------------------------------- gradients


def restricted_factor_objective(data, M, lam):
    """Independent evaluator of the substituted objective at a raw matrix."""
    N = data.n_ages
    errs = [
        (float((p.y**2).sum()) - float((M * ((p.y.T @ p.y) @ M)).sum()) / N) / p.n_years
        for p in data.panels
    ]
    total = sum(p.n_years * e for p, e in zip(data.panels, errs)) / data.total_rows
    pen = sum(
        (errs[i] - errs[j]) ** 2 for i in range(len(errs)) for j in range(i + 1, len(errs))
    )
    return total + lam * pen


def fd_gradient(objective, M, h):
    out = np.zeros_like(M)
    for idx in np.ndindex(*M.shape):
        up, dn = M.copy(), M.copy()
        up[idx] += h
        dn[idx] -= h
        out[idx] = (objective(up) - objective(dn)) / (2.0 * h)
    return out


def test_factor_gradient_lambda_zero_formula():
    rng = np.random.default_rng(3)
    data = random_instance(rng)
    L = random_loading(rng, 6, 2)
    Y = data.stacked()
    expected = -(2.0 / (data.total_rows * 6)) * (Y.T @ Y) @ L.matrix
    assert np.allclose(fair_factor_gradient(data, L, 0.0), expected, rtol=1e-12, atol=1e-14)


def test_factor_gradient_zero_penalty_at_parity():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((5, 4))
    data = panel_pair(y, y.copy())  # parity by construction
    L = random_loading(rng, 4, 1)
    g0 = fair_factor_gradient(data, L, 0.0)
    g9 = fair_factor_gradient(data, L, 9.0)
    assert np.allclose(g0, g9, atol=1e-12)


def test_factor_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(5):
        data = random_instance(rng, T1=7, T2=6, N=8)
        L = random_loading(rng, 8, 2)
        lam = 1.5
        grad = fair_factor_gradient(data, L, lam)
        h = 1e-6 * np.linalg.norm(L.matrix)
        fd = fd_gradient(lambda M: restricted_factor_objective(data, M, lam), L.matrix, h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)


def test_factor_gradient_three_groups_matches_finite_differences():
    rng = np.random.default_rng(22)
    N = 6
    panels = tuple(
        Panel(f"g{k}", np.arange(4 + k), np.arange(N), rng.standard_normal((4 + k, N)), np.zeros(N))
        for k in range(3)
    )
    data = GroupedPanel(panels)
    L = random_loading(rng, N, 2)
    lam = 0.9
    grad = fair_factor_gradient(data, L, lam)
    h = 1e-6 * np.linalg.norm(L.matrix)
    fd = fd_gradient(lambda M: restricted_factor_objective(data, M, lam), L.matrix, h)
    assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)


def test_decision_objective_identity_reduction():
    rng = np.random.default_rng(6)
    data = random_instance(rng)
    L = random_loading(rng, 6, 2)
    for lam in (0.0, 2.5):
        a = fair_decision_objective(data, L, lam, identity_transform())
        b = fair_factor_objective(data, L, lam)
        assert abs(a - b) <= 1e-12


def test_decision_objective_exp_in_span_is_zero():
    rng = np.random.default_rng(7)
    L = random_loading(rng, 5, 2)
    y = rng.standard_normal((4, 2)) @ L.matrix.T
    data = panel_pair(y, y.copy())
    assert fair_decision_objective(data, L, 0.0, elementwise_transform("exp")) <= 1e-18


def test_decision_objective_exp_termwise_oracle():
    rng = np.random.default_rng(8)
    data = random_instance(rng, T1=5, T2=6, N=4)
    L = random_loading(rng, 4, 2)
    P = L.projector()
    errs = []
    for p in data.panels:
        diff = np.exp(p.y @ P) - np.exp(p.y)
        errs.append(float((diff**2).sum()) / p.n_years)
    lam = 1.2
    expected = sum(p.n_years * e for p, e in zip(data.panels, errs)) / data.total_rows
    expected += lam * (errs[0] - errs[1]) ** 2
    got = fair_decision_objective(data, L, lam, elementwise_transform("exp"))
    assert got == pytest.approx(expected, rel=1e-12)


def tangent_part(L, G):
    M = L.matrix
    sym = (M.T @ G + G.T @ M) / 2.0
    return G - M @ sym / L.n


def test_decision_gradient_identity_matches_factor_on_tangent():
    rng = np.random.default_rng(9)
    data = random_instance(rng)
    L = random_loading(rng, 6, 2)
    for lam in (0.0, 3.0):
        g_dec = fair_decision_gradient(data, L, lam, identity_transform())
        g_fac = fair_factor_gradient(data, L, lam)
        assert np.allclose(tangent_part(L, g_dec), tangent_part(L, g_fac), atol=1e-10)


def test_decision_gradient_zero_data():
    data = panel_pair(np.zeros((4, 5)), np.zeros((3, 5)))
    rng = np.random.default_rng(10)
    L = random_loading(rng, 5, 2)
    g = fair_decision_gradient(data, L, 4.0, elementwise_transform("exp"))
    assert np.allclose(g, 0.0, atol=1e-14)


def substituted_decision_objective(data, M, lam):
    N = data.n_ages
    errs = []
    for p in data.panels:
        recon = (p.y @ M) @ M.T / N
        errs.append(float(((np.exp(recon) - np.exp(p.y)) ** 2).sum()) / p.n_years)
    total = sum(p.n_years * e for p, e in zip(data.panels, errs)) / data.total_rows
    pen = sum((errs[i] - errs[j]) ** 2 for i in range(len(errs)) for j in range(i + 1, len(errs)))
    return total + lam * pen


def test_decision_gradient_exp_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(5):
        data = panel_pair(0.4 * rng.standard_normal((5, 6)), 0.4 * rng.standard_normal((6, 6)))
        L = random_loading(rng, 6, 2)
        lam = 0.8
        grad = fair_decision_gradient(data, L, lam, elementwise_transform("exp"))
        h = 1e-6 * np.linalg.norm(L.matrix)
        fd = fd_gradient(lambda M: substituted_decision_objective(data, M, lam), L.matrix, h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)


def annuity_panels(rng, T1=5, T2=4, N=6, level=-2.5, spread=0.3):
    y1 = spread * rng.standard_normal((T1, N))
    y2 = spread * rng.standard_normal((T2, N))
    return panel_pair(y1, y2, intercept=np.full(N, level))


def test_annuity_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(4):
        data = annuity_panels(rng)
        g = annuity_transform_for(data, term=3, discount=0.95)
        L = random_loading(rng, 6, 1)
        lam = 1.1
        grad = fair_decision_gradient(data, L, lam, g)

        weights = {p.group: epv_weights_stack(np.exp(p.y + p.intercept), 3, 0.95) for p in data.panels}
        m_obs = {p.group: np.exp(p.y + p.intercept) for p in data.panels}

        def taylor_oracle(M):
            errs = []
            for p in data.panels:
                recon = (p.y @ M) @ M.T / data.n_ages
                e = np.exp(recon + p.intercept) - m_obs[p.group]
                we = np.einsum("tij,tj->ti", weights[p.group], e)
                errs.append(float((we**2).sum()) / p.n_years)
            total = sum(p.n_years * e for p, e in zip(data.panels, errs)) / data.total_rows
            return total + lam * (errs[0] - errs[1]) ** 2

        assert annuity_taylor_objective(data, L, lam, g) == pytest.approx(
            taylor_oracle(L.matrix), rel=1e-12
        )
        h = 1e-6 * np.linalg.norm(L.matrix)
        fd = fd_gradient(taylor_oracle, L.matrix, h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)


def test_annuity_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    data = annuity_panels(rng, T1=4, T2=4, N=5)
    g = annuity_transform_for(data, term=3, discount=0.9, annuity_mode="exact")
    L = random_loading(rng, 5, 1)
    lam = 0.7
    grad = fair_decision_gradient(data, L, lam, g)

    def exact_oracle(M):
        errs = []
        for p in data.panels:
            recon = (p.y @ M) @ M.T / data.n_ages
            from fairfactor.transforms import epv_matrix

            d = epv_matrix(np.exp(recon + p.intercept), 3, 0.9) - epv_matrix(
                np.exp(p.y + p.intercept), 3, 0.9
            )
            errs.append(float((d**2).sum()) / p.n_years)
        total = sum(p.n_years * e for p, e in zip(data.panels, errs)) / data.total_rows
        return total + lam * (errs[0] - errs[1]) ** 2

    h = 1e-6 * np.linalg.norm(L.matrix)
    fd = fd_gradient(exact_oracle, L.matrix, h)
    assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)


# ---------------------------------------------------------------- line search


def test_line_search_zero_direction():
    rng = np.random.default_rng(14)
    problem = _FactorProblem(random_instance(rng, N=4), 1.0)
    L = random_loading(rng, 4, 2)
    eta, nxt, value, errors = _step(problem, L, np.zeros((4, 2)), 1.0)
    assert eta == 0.0 and nxt is L and value == 1.0 and errors is None


def test_grid_step_matches_line_search():
    # the batched step must pick the argmin of a per-candidate line search
    rng = np.random.default_rng(21)
    for _ in range(10):
        data = random_instance(rng, T1=7, T2=6, N=7)
        problem = _FactorProblem(data, 3.0)
        L = random_loading(rng, 7, 2)
        grad = problem.gradient(L)
        etas = _STEP_GRID * np.linalg.norm(L.matrix) / np.linalg.norm(grad)
        values = [
            problem.objective(Loading(np.sqrt(7) * nearest_orthonormal(L.matrix - eta * grad)))
            for eta in etas
        ]
        best = int(np.argmin(values))
        assert values[best] < problem.objective(L)
        eta, nxt, value, _ = _step(problem, L, grad, problem.objective(L))
        assert eta == pytest.approx(etas[best], rel=1e-12)
        assert value == pytest.approx(values[best], rel=1e-10)
        assert problem.objective(nxt) == pytest.approx(value, rel=1e-10)


def test_line_search_never_worse():
    rng = np.random.default_rng(15)
    data = random_instance(rng)
    problem = _FactorProblem(data, 2.0)
    for _ in range(5):
        L = random_loading(rng, 6, 2)
        current = fair_factor_objective(data, L, 2.0)
        for grad in (fair_factor_gradient(data, L, 2.0), -fair_factor_gradient(data, L, 2.0)):
            eta, nxt, value, _ = _step(problem, L, grad, current)
            assert fair_factor_objective(data, nxt, 2.0) <= current + 1e-12
            assert value == pytest.approx(fair_factor_objective(data, nxt, 2.0), rel=1e-10)


# ----------------------------------------------------------------------- fits


def test_fit_fair_factor_lambda_zero_matches_pca():
    rng = np.random.default_rng(16)
    for seed in range(3):
        data = random_instance(rng, T1=8, T2=7, N=6)
        pca = fit_pca(data, 2)
        fit = fit_fair_factor(data, 2, OptimizerOptions(penalty=0.0, restarts=3, seed=seed))
        assert principal_angle(fit.loading.matrix, pca.loading.matrix) <= 1e-6


def test_fit_fair_factor_noiseless_recovery():
    data, truth = synthesize(N=8, r=2, group_sizes=[10, 12], noise_scales=[0.0, 0.0], seed=21)
    fit = fit_fair_factor(data, 2, OptimizerOptions(penalty=5.0, restarts=2, seed=0))
    assert principal_angle(fit.loading.matrix, truth.loading) <= 1e-6
    assert fit.unfairness <= 1e-10


def test_fit_fair_factor_tradeoff():
    data, _ = synthesize(N=12, r=1, group_sizes=[50, 50], noise_scales=[2.0, 1.0], seed=33)
    opts0 = OptimizerOptions(penalty=0.0, restarts=5, seed=1)
    opts10 = OptimizerOptions(penalty=10.0, restarts=5, seed=1)
    fit0 = fit_fair_factor(data, 1, opts0)
    fit10 = fit_fair_factor(data, 1, opts10)
    assert fit10.unfairness < fit0.unfairness
    err0 = float(fit0.group_errors @ data.group_rows) / data.total_rows
    err10 = float(fit10.group_errors @ data.group_rows) / data.total_rows
    assert err10 >= err0 - 1e-12


def test_objective_trace_non_increasing():
    data, _ = synthesize(N=10, r=1, group_sizes=[30, 30], noise_scales=[1.5, 0.5], seed=5)
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=4.0, restarts=3, seed=2))
    trace = np.array(fit.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert fit.iterations == len(fit.iteration_log)
    assert {"iteration", "objective", "unfairness", "step_size"} <= set(fit.iteration_log[0])


def test_fit_fair_decision_identity_matches_fair_factor():
    rng = np.random.default_rng(17)
    data = random_instance(rng, T1=9, T2=8, N=6)
    # the two gradients share their tangential part, so the models share
    # stationary points; a tight epsilon keeps both stops inside the 1e-6 cone
    opts = OptimizerOptions(penalty=2.0, restarts=3, seed=3, convergence_epsilon=1e-10)
    ff = fit_fair_factor(data, 1, opts)
    fd = fit_fair_decision(data, 1, opts, identity_transform())
    assert principal_angle(fd.loading.matrix, ff.loading.matrix) <= 1e-6
    assert np.allclose(fd.group_errors, ff.group_errors, rtol=1e-6)


def test_fit_fair_decision_lambda_zero_identity_matches_pca():
    rng = np.random.default_rng(18)
    data = random_instance(rng, T1=8, T2=8, N=5)
    pca = fit_pca(data, 2)
    fd = fit_fair_decision(data, 2, OptimizerOptions(penalty=0.0, restarts=2, seed=4), identity_transform())
    assert principal_angle(fd.loading.matrix, pca.loading.matrix) <= 1e-6


def test_fit_fair_decision_annuity_narrows_gap():
    rng = np.random.default_rng(19)
    y1 = 0.45 * rng.standard_normal((12, 6))
    y2 = 0.15 * rng.standard_normal((12, 6))
    data = panel_pair(y1, y2, intercept=np.full(6, -2.2))
    g = annuity_transform_for(data, term=3, discount=0.95)
    opts0 = OptimizerOptions(penalty=0.0, restarts=3, seed=5)
    optsL = OptimizerOptions(penalty=200.0, restarts=3, seed=5)
    d0 = fit_fair_decision(data, 1, opts0, g).group_errors
    dL = fit_fair_decision(data, 1, optsL, g).group_errors
    assert abs(dL[0] - dL[1]) < abs(d0[0] - d0[1])


def test_penalty_monotonicity_over_grid():
    # nonconvex objective: with 20 restarts this holds statistically, so a
    # couple of violating seeds are tolerated and reported
    grid = [0.0, 0.1, 1.0, 10.0]
    violations = []
    for seed in range(21):
        data, _ = synthesize(N=16, r=1, group_sizes=[30, 30], noise_scales=[2.0, 1.0], seed=seed)
        values = [
            fit_fair_factor(data, 1, OptimizerOptions(penalty=lam, restarts=20, seed=seed)).unfairness
            for lam in grid
        ]
        drops = np.diff(values)
        if np.any(drops > 1e-9):
            violations.append((seed, values))
    assert len(violations) <= 2, f"unfairness not non-increasing in the penalty: {violations}"


def test_fit_reports_nonconvergence_without_raising():
    data, _ = synthesize(N=10, r=1, group_sizes=[40, 40], noise_scales=[2.0, 0.5], seed=6)
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=8.0, restarts=1, max_iterations=2, seed=0))
    assert fit.iterations <= 2
    # with such a tiny budget from a random-free PCA start convergence may
    # happen, but the call must not raise and must report the flag honestly
    assert isinstance(fit.converged, bool)


def test_annuity_exact_mode_validates_taylor_fit():
    rng = np.random.default_rng(24)
    data = annuity_panels(rng, T1=8, T2=8, N=5, spread=0.1)
    opts = OptimizerOptions(penalty=1.0, restarts=2, seed=1, max_iterations=400)
    g_taylor = annuity_transform_for(data, term=3, discount=0.95)
    g_exact = annuity_transform_for(data, term=3, discount=0.95, annuity_mode="exact")
    taylor = fit_fair_decision(data, 1, opts, g_taylor)
    exact = fit_fair_decision(data, 1, opts, g_exact)
    for fit in (taylor, exact):
        assert np.all(np.diff(np.array(fit.objective_trace)) <= 1e-12)
    # the exact objective judges both solutions; with small reconstruction
    # gaps the surrogate's minimizer must be near-optimal for the exact one
    val_taylor = fair_decision_objective(data, taylor.loading, 1.0, g_exact)
    val_exact = fair_decision_objective(data, exact.loading, 1.0, g_exact)
    assert val_exact <= val_taylor * 1.05 + 1e-12
    assert val_taylor <= val_exact * 1.10 + 1e-12
    # and the surrogate value approximates the exact value at its solution
    surrogate = annuity_taylor_objective(data, taylor.loading, 1.0, g_taylor)
    assert surrogate == pytest.approx(val_taylor, rel=0.15)


def test_decision_errors_reported_for_annuity_fit():
    rng = np.random.default_rng(20)
    data = annuity_panels(rng, T1=8, T2=8, N=6)
    g = annuity_transform_for(data, term=3, discount=0.9)
    fit = fit_fair_decision(data, 1, OptimizerOptions(penalty=1.0, restarts=2, seed=7), g)
    assert np.allclose(fit.group_errors, decision_errors(data, fit.loading, g), rtol=1e-12)
    assert fit.unfairness == pytest.approx(pairwise_unfairness(fit.group_errors), rel=1e-12)


@pytest.mark.parametrize("mode", ["taylor", "exact"])
def test_clipped_rates_count_reconstructions_only(mode):
    rng = np.random.default_rng(8)
    data = annuity_panels(rng, T1=10, T2=10, N=6, level=-0.3, spread=0.5)
    g = annuity_transform_for(data, term=3, discount=0.95, annuity_mode=mode)
    opts = OptimizerOptions(penalty=1.0, restarts=2, seed=3, max_iterations=100)
    fit = fit_fair_decision(data, 1, opts, g)
    P = fit.loading.projector()
    reconstructed = sum(int((np.exp(p.y @ P + p.intercept) > 1.0).sum()) for p in data.panels)
    observed = sum(int((np.exp(p.y + p.intercept) > 1.0).sum()) for p in data.panels)
    assert reconstructed > 0 and observed > 0  # observed rates above 1 do not depend on the fit
    assert fit.clipped_rates == reconstructed
