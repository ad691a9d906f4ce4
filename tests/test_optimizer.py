import json
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import hmd_text

from fairfactor import optimizer
from fairfactor.dataset import GroupedPanel, Panel, build_panel, parse_hmd_1x1, split_train_test, synthesize
from fairfactor.factor import (
    Loading,
    fair_factor_dual,
    fit_pca,
    fix_column_signs,
    group_errors,
    pairwise_unfairness,
    reconstruction_error,
)
from fairfactor.linalg import nearest_orthonormal, principal_angle
from fairfactor.optimizer import (
    _STEP_GRID,
    OptimizerOptions,
    _DecisionProblem,
    _FactorProblem,
    _step,
    _weight_tiles,
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
    apply_transform,
    decision_errors,
    elementwise_transform,
    epv_matrix,
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


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("kind", ["exp", "taylor", "exact"])
def test_three_group_decision_gradients_match_finite_differences(kind, r):
    # the penalty's pair loop beyond K = 2, against group errors priced by hand
    rng = np.random.default_rng(23)
    N, level = 6, np.full(6, -2.5)
    data = GroupedPanel(
        tuple(
            Panel(f"g{k}", np.arange(T), np.arange(N), 0.3 * rng.standard_normal((T, N)), level.copy())
            for k, T in enumerate((5, 4, 6))
        )
    )
    lam = 1.7
    if kind == "exp":
        g = elementwise_transform("exp")
    else:
        g = annuity_transform_for(data, term=3, discount=0.95, annuity_mode=kind)
    weights = [epv_weights_stack(np.exp(p.y + level), 3, 0.95) for p in data.panels]

    def price(k, y):
        if kind == "exp":
            return np.exp(y)
        if kind == "taylor":  # linear in the rates, with the weights of the observed rates
            return np.einsum("tij,tj->ti", weights[k], np.exp(y + level))
        return epv_matrix(np.exp(y + level), 3, 0.95)

    def oracle(M):
        errs = []
        for k, p in enumerate(data.panels):
            d = price(k, (p.y @ M) @ M.T / N) - price(k, p.y)
            errs.append(float((d**2).sum()) / p.n_years)
        total = sum(p.n_years * e for p, e in zip(data.panels, errs)) / data.total_rows
        return total + lam * sum((errs[i] - errs[j]) ** 2 for i in range(3) for j in range(i + 1, 3))

    L = random_loading(rng, N, r)
    grad = fair_decision_gradient(data, L, lam, g)
    fd = fd_gradient(oracle, L.matrix, 1e-6 * np.linalg.norm(L.matrix))
    assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)


@pytest.mark.parametrize("mode", ["taylor", "exact"])
def test_annuity_kernel_across_weight_tiles(mode):
    # term 5 at N = 40 gives weight bands 37 rows wide: several tiles, whose
    # overlapping column ranges the batched errors and the gradient must add up
    rng = np.random.default_rng(16)
    data = annuity_panels(rng, T1=7, T2=6, N=40, spread=0.1)
    g = annuity_transform_for(data, term=5, discount=0.95, annuity_mode=mode)
    assert sum(1 for _ in _weight_tiles(np.exp(data.panels[0].y + data.panels[0].intercept), 5, 0.95)) > 1
    lam = 1.3
    weights = {p.group: epv_weights_stack(np.exp(p.y + p.intercept), 5, 0.95) for p in data.panels}

    def group_errors_oracle(M):
        errs = []
        for p in data.panels:
            recon = (p.y @ M) @ M.T / data.n_ages
            if mode == "taylor":
                e = np.exp(recon + p.intercept) - np.exp(p.y + p.intercept)
                d = np.einsum("tij,tj->ti", weights[p.group], e)
            else:
                d = apply_transform(g, p.group, recon) - apply_transform(g, p.group, p.y)
            errs.append(float((d**2).sum()) / p.n_years)
        return np.array(errs)

    def oracle(M):
        errs = group_errors_oracle(M)
        return errs @ data.group_rows / data.total_rows + lam * (errs[0] - errs[1]) ** 2

    problem = _DecisionProblem(data, g, lam)
    # batches of 5, 1 and 5 on groups of 7 and 6 rows: in taylor mode every
    # call and group reuses one workspace, so no result may alias it
    stacks = [np.stack([random_loading(rng, 40, 2).matrix for _ in range(b)]) for b in (5, 1, 5)]
    results = [problem.errors_batch(stack) for stack in stacks]
    for stack, result in zip(stacks, results):
        np.testing.assert_allclose(result, [group_errors_oracle(M) for M in stack], rtol=1e-12)
    L = Loading(stacks[0][0])
    grad = fair_decision_gradient(data, L, lam, g)
    fd = fd_gradient(oracle, L.matrix, 1e-6 * np.linalg.norm(L.matrix))
    assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)


def test_taylor_step_allocates_no_candidate_stack():
    # after a warm-up step, the taylor step prices its 25 candidates inside
    # the problem's workspace: no (T, 25, N) array is allocated per step
    rng = np.random.default_rng(18)
    data = annuity_panels(rng, T1=60, T2=60, N=80, spread=0.1)
    problem = _DecisionProblem(data, annuity_transform_for(data, term=10, discount=0.95), 2.0)
    M = random_loading(rng, 80, 1).matrix
    grad, current = problem.descent(M)[0], problem.objective(Loading(M))
    _step(problem, M, grad, current)
    tracemalloc.start()
    try:
        _step(problem, M, grad, current)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * len(_STEP_GRID) * 80 * 8 / 4


@pytest.mark.parametrize("mode, bound", [("taylor", 600_000), ("exact", 1_400_000)], ids=["taylor", "exact"])
def test_decision_pass_keeps_its_memory_budget(mode, bound):
    # a decision pass takes one loading. At paper shape (86 ages,
    # 2 x 69 training rows) a taylor pass holds about 4.3 (rows, N) arrays,
    # 400 KB, per loading: 507 KB here, where taking two at a time traced
    # 979 KB. An exact pass holds about 12.6, 1.2 MB: 1.29 MB here, where
    # building every weight tile of the reconstruction before weighing with
    # any traced 1.83 MB
    table = parse_hmd_1x1(hmd_text(years=(1921, 2019), ages=(0, 85)))
    panels = [build_panel(table, group, ages=(0, 85), years=(1921, 2019)) for group in ("male", "female")]
    data = GroupedPanel(tuple(split_train_test(panel, 1989)[0] for panel in panels))
    g = annuity_transform_for(data, term=10, discount=1 / 1.05, annuity_mode=mode)
    problem = _DecisionProblem(data, g, 2.0)
    M = random_loading(np.random.default_rng(27), 86, 1).matrix
    problem.descent(M)
    tracemalloc.start()
    try:
        problem.descent(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def restart_cases():
    data, _ = synthesize(N=10, r=2, group_sizes=[20, 15], noise_scales=[1.5, 0.5], seed=3)
    for r in (1, 2):
        for lam in (0.0, 10.0):
            yield f"factor-r{r}-lambda{lam:g}", data, r, identity_transform(), lam
    rng = np.random.default_rng(25)
    annuity = annuity_panels(rng, T1=8, T2=7, N=12, spread=0.2)
    for mode in ("taylor", "exact"):
        yield mode, annuity, 1, annuity_transform_for(annuity, term=4, discount=0.95, annuity_mode=mode), 2.0
    exp_data = panel_pair(0.4 * rng.standard_normal((9, 7)), 0.4 * rng.standard_normal((8, 7)))
    yield "elementwise", exp_data, 2, elementwise_transform("exp"), 1.5


@pytest.mark.parametrize("case", list(restart_cases()), ids=lambda case: case[0])
def test_restarts_descend_one_at_a_time(case, pca_start):
    # each start descends alone and stops at its own iteration; the fit with
    # the same seed returns the first run of the lowest objective
    _, data, r, g, penalty = case
    problem = optimizer._problem(data, g, penalty)
    rng = np.random.default_rng(26)
    randoms = [random_loading(rng, data.n_ages, r).matrix for _ in range(4)]
    opts = OptimizerOptions(penalty=penalty, max_iterations=400, restarts=5, seed=26)
    runs = [optimizer._descend(problem, M, opts) for M in [fit_pca(data, r).loading.matrix] + randoms]
    for run in runs:
        assert run.evaluations == 1 + run.iterations * len(_STEP_GRID)
    assert len({run.iterations for run in runs}) > 1
    best = min(runs, key=lambda run: run.objective)
    fit = fit_fair_decision(data, r, opts, g)
    assert fit.objective_trace == tuple(best.trace) and fit.iteration_log == tuple(best.log)
    assert (fit.stop_reason, fit.iterations, fit.evaluations) == (best.stop_reason, best.iterations, best.evaluations)
    assert np.array_equal(fit.loading.matrix, fix_column_signs(best.matrix))


# ------------------------------------------------------------------ grid step


def test_grid_step_zero_direction():
    rng = np.random.default_rng(14)
    problem = _FactorProblem(random_instance(rng, N=4), 1.0)
    L = random_loading(rng, 4, 2)
    eta, M, objective, errors, moved = _step(problem, L.matrix, np.zeros((4, 2)), 1.0)
    assert eta == 0.0 and np.array_equal(M, L.matrix) and objective == 1.0
    assert not moved and np.isnan(errors).all()


def test_grid_step_matches_per_candidate_search():
    # the batched step must pick the argmin of the candidates priced one at a time
    rng = np.random.default_rng(21)
    for _ in range(10):
        data = random_instance(rng, T1=7, T2=6, N=7)
        problem = _FactorProblem(data, 3.0)
        L = random_loading(rng, 7, 2)
        grad = problem.descent(L.matrix)[0]
        etas = _STEP_GRID * np.linalg.norm(L.matrix) / np.linalg.norm(grad)
        values = [
            problem.objective(Loading(np.sqrt(7) * nearest_orthonormal(L.matrix - eta * grad)))
            for eta in etas
        ]
        best = int(np.argmin(values))
        assert values[best] < problem.objective(L)
        eta, M, objective, _, _ = _step(problem, L.matrix, grad, problem.objective(L))
        assert eta == pytest.approx(etas[best], rel=1e-12)
        assert objective == pytest.approx(values[best], rel=1e-10)
        assert problem.objective(Loading(M)) == pytest.approx(objective, rel=1e-10)


def test_grid_step_never_worse():
    rng = np.random.default_rng(15)
    data = random_instance(rng)
    problem = _FactorProblem(data, 2.0)
    for _ in range(5):
        L = random_loading(rng, 6, 2)
        current = fair_factor_objective(data, L, 2.0)
        for grad in (fair_factor_gradient(data, L, 2.0), -fair_factor_gradient(data, L, 2.0)):
            _, M, objective, _, _ = _step(problem, L.matrix, grad, current)
            nxt = Loading(M)
            assert fair_factor_objective(data, nxt, 2.0) <= current + 1e-12
            assert objective == pytest.approx(fair_factor_objective(data, nxt, 2.0), rel=1e-10)


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
    # exact two-group optima are monotone in the penalty: no seed may violate it
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
    assert not violations, f"unfairness not non-increasing in the penalty: {violations}"


# ----------------------------------------------------------- dual certificate


def test_lambda_zero_fit_is_pca_with_zero_gap():
    for r, seed in ((1, 0), (2, 1), (3, 2)):
        data, _ = synthesize(N=12, r=r, group_sizes=[20, 15], noise_scales=[2.0, 1.0], seed=seed)
        pca = fit_pca(data, r)
        fit = fit_fair_factor(data, r, OptimizerOptions(penalty=0.0, restarts=5))
        assert np.abs(fit.loading.projector() - pca.loading.projector()).max() <= 1e-12
        # the bound is the PCA objective, up to the rounding of its two forms
        assert fit.lower_bound == pytest.approx(pca.objective_trace[0], rel=1e-13)
        assert fit.certified_gap <= 1e-13 and fit.iterations == 1


@pytest.mark.parametrize("r", [2, 3])
def test_dual_bound_holds_at_higher_rank(r, monkeypatch):
    # the bound lies below the certified fit and below the grid's restarts from PCA
    panels = [synthesize(N=16, r=r, group_sizes=[30, 25], noise_scales=[2.0, 1.0], seed=seed)[0] for seed in range(4)]
    opts = OptimizerOptions(penalty=10.0, restarts=4, max_iterations=200)
    bounds = [fair_factor_dual(data, r, 10.0).lower_bound for data in panels]
    for data, bound in zip(panels, bounds):
        fit = fit_fair_factor(data, r, opts)
        assert fit.lower_bound == bound and fit.objective_trace[-1] >= bound * (1 - 1e-12)
    monkeypatch.setattr(optimizer, "_dual_start", lambda *args: None)
    for data, bound in zip(panels, bounds):
        assert fit_fair_factor(data, r, opts).objective_trace[-1] >= bound * (1 - 1e-12)


@pytest.mark.parametrize(
    "groups, r, penalty",
    [(3, 1, 1.0), (2, 0, 1.0), (2, 7, 1.0), (2, 1.5, 1.0), (2, 2.0, 1.0), (2, True, 1.0),
     (2, 1, -1.0), (2, 1, np.nan), (2, 1, np.inf)],
)
def test_dual_rejects_what_it_cannot_bound(groups, r, penalty):
    data, _ = synthesize(N=6, r=1, group_sizes=[5] * groups, noise_scales=[1.0] * groups, seed=0)
    with pytest.raises(ValueError, match="the dual takes two groups"):
        fair_factor_dual(data, r, penalty)


def test_tied_eigenvalues_are_mixed_in_their_span():
    # commuting (diagonal) Gram matrices: the dual's matrix keeps the axes as
    # eigenvectors, its top two eigenvalues cross at the optimal multiplier,
    # and the optimum mixes the first two axes
    y1, y2 = np.array([3.0, 1.5, 0.5]), np.array([1.0, 2.0, 0.5])
    data, penalty = panel_pair(np.diag(y1), np.diag(y2)), 50.0
    dual = fair_factor_dual(data, 1, penalty)
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=penalty))
    v = dual.loading.matrix[:, 0] / np.sqrt(3)
    assert min(abs(v[0]), abs(v[1])) > 0.1 and abs(v[2]) <= 1e-12
    assert fit.certified_gap <= 1e-9 and fit.iterations == 1
    theta, phi = np.meshgrid(np.linspace(0, np.pi / 2, 1001), np.linspace(0, np.pi / 2, 1001))
    u2 = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]) ** 2
    e1, e2 = (((y * y).sum() - np.tensordot(y * y, u2, 1)) / 3 for y in (y1, y2))
    scan = float((0.5 * (e1 + e2) + penalty * (e1 - e2) ** 2).min())
    objective = fair_factor_objective(data, dual.loading, penalty)
    assert dual.lower_bound * (1 - 1e-12) <= objective <= dual.lower_bound * (1 + 1e-12)
    assert objective <= scan * (1 + 1e-12) and fit.objective_trace[-1] <= scan * (1 + 1e-12)


def test_fits_without_a_two_group_dual_keep_their_path():
    # three groups and decision transforms take the PCA start and the
    # restarts as before, and report no bound
    data, _ = synthesize(N=8, r=1, group_sizes=[10, 12, 9], noise_scales=[1.5, 1.0, 0.5], seed=4)
    opts = OptimizerOptions(penalty=3.0, restarts=3, seed=2, max_iterations=300)
    fit = fit_fair_factor(data, 1, opts)
    rng = np.random.default_rng(2)
    starts = [fit_pca(data, 1).loading.matrix] + [random_loading(rng, 8, 1).matrix for _ in range(2)]
    problem = _FactorProblem(data, 3.0)
    best = min((optimizer._descend(problem, M, opts) for M in starts), key=lambda run: run.objective)
    assert fit.objective_trace == tuple(best.trace) and fit.iterations == best.iterations
    assert (fit.lower_bound, fit.certified_gap) == (None, None)
    annuity = annuity_panels(np.random.default_rng(5), T1=6, T2=6, N=5)
    g = annuity_transform_for(annuity, term=3, discount=0.95)
    decision = fit_fair_decision(annuity, 1, OptimizerOptions(penalty=1.0, restarts=1, max_iterations=5), g)
    assert (decision.lower_bound, decision.certified_gap) == (None, None)


def test_a_certified_start_takes_no_step_that_loses_more_than_the_tolerance():
    # at this panel's optimum the grid's best step loses 1.02e-12, within
    # current + 1e-12 as rounded at 657: the loss itself must be compared
    data, _ = synthesize(N=40, r=1, group_sizes=[60, 60], noise_scales=[2.0, 1.0], seed=18154)
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=10.0))
    before, after = fit.objective_trace
    assert fit.certified_gap <= 1e-9 and after - before <= 1e-12


def test_zero_panels_certify_a_zero_gap_without_warnings():
    data = panel_pair(np.zeros((4, 5)), np.zeros((3, 5)))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=1.0, restarts=3))
    assert (fit.lower_bound, fit.certified_gap, fit.iterations) == (0.0, 0.0, 1)


def test_fair_factor_fit_is_continuous_in_the_data():
    # a last-bit change of the paper-shape panel moves the certified fit by
    # no more than the change itself
    table = parse_hmd_1x1(hmd_text(years=(1921, 2019), ages=(0, 85), seed=1001))
    panels = [build_panel(table, group, ages=(0, 85), years=(1921, 2019)) for group in ("male", "female")]
    data = GroupedPanel(tuple(split_train_test(panel, 1989)[0] for panel in panels))
    male = data.panels[0]
    perturbed = Panel(male.group, male.years, male.ages, male.y * (1 + 1e-13), male.intercept)
    scaled = GroupedPanel((perturbed, data.panels[1]))
    opts = OptimizerOptions(penalty=11.0)
    fits = [fit_fair_factor(d, 1, opts) for d in (data, scaled)]
    assert all(fit.certified_gap <= 1e-9 for fit in fits)
    assert np.abs(fits[0].loading.projector() - fits[1].loading.projector()).max() <= 1e-9


def test_fit_reports_nonconvergence_without_raising():
    data, _ = synthesize(N=10, r=1, group_sizes=[40, 40], noise_scales=[2.0, 0.5], seed=6)
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=8.0, restarts=1, max_iterations=2, seed=0))
    assert fit.iterations <= 2
    # with such a tiny budget from a random-free PCA start convergence may
    # happen, but the call must not raise and must report the flag honestly
    assert isinstance(fit.converged, bool)


@pytest.mark.parametrize(
    "field,value",
    [("penalty", np.nan), ("penalty", np.inf), ("penalty", -1.0),
     ("convergence_epsilon", np.nan), ("convergence_epsilon", np.inf), ("convergence_epsilon", 0.0),
     ("seed", -1), ("seed", 1.5), ("seed", "3"),
     ("max_iterations", 0), ("max_iterations", 2.5), ("restarts", 0), ("restarts", 2.5), ("restarts", 3.0),
     ("max_iterations", True), ("restarts", True), ("seed", False)],
)
def test_options_reject_non_finite_and_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field.split("_")[-1]):
        OptimizerOptions(**{field: value})


@pytest.mark.parametrize("penalty", [np.nan, np.inf, -1.0])
def test_objective_and_gradient_check_penalty_as_options_do(penalty):
    data = random_instance(np.random.default_rng(30))
    L = random_loading(np.random.default_rng(31), 6, 1)
    for fn in (fair_decision_objective, fair_decision_gradient):
        with pytest.raises(ValueError, match="penalty must be finite and non-negative"):
            fn(data, L, penalty, identity_transform())


@pytest.fixture
def pca_start(monkeypatch):
    """Fits start at PCA, as fits without the dual's start do."""
    monkeypatch.setattr(optimizer, "_dual_start", lambda *args: None)


@pytest.mark.parametrize("restarts", [1, 3])
def test_fit_on_zero_panels_stops_without_pricing_a_grid(restarts, pca_start):
    # every gradient is zero, so the first step prices no grid and stays
    data = panel_pair(np.zeros((4, 5)), np.zeros((3, 5)))
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=1.0, restarts=restarts))
    assert fit.stop_reason == "no_descent" and fit.iterations == 1 and fit.evaluations == 1


def test_capped_fit_reports_its_stop_and_diagnostics():
    rng = np.random.default_rng(17)
    data = annuity_panels(rng, T1=8, T2=8, N=6)
    g = annuity_transform_for(data, term=3, discount=0.95)
    fit = fit_fair_decision(data, 1, OptimizerOptions(penalty=4.0, restarts=2, max_iterations=3), g)
    assert fit.stop_reason == "max_iterations" and not fit.converged and fit.iterations == 3
    assert fit.evaluations == 1 + 3 * len(_STEP_GRID)  # the start, then one grid per step
    M, G = fit.loading.matrix, fair_decision_gradient(data, fit.loading, 4.0, g)
    assert fit.gradient_norm == pytest.approx(np.linalg.norm(G - M @ (M.T @ G) / 6), rel=1e-9)
    assert fit.gradient_norm > 0.0


@pytest.mark.parametrize(
    "seed, penalty, epsilon, cap, reason, iterations",
    [
        (5, 1.0, 1e-14, 2000, "small_change", 38),
        (6, 10.0, 1e-14, 2000, "no_descent", 11),
        (1, 1.0, 1e-6, 2000, "small_change", None),
        (1, 1.0, 1e-6, 3, "max_iterations", 3),
    ],
)
def test_fit_reports_gradient_and_evaluations_for_every_stop_reason(
    seed, penalty, epsilon, cap, reason, iterations, pca_start
):
    # the final gradient comes out of the fit's own last pass: it must be the
    # gradient at the returned loading, whichever rule stopped the run
    data, _ = synthesize(N=6, r=1, group_sizes=[8, 7], noise_scales=[1.0, 0.3], seed=seed)
    opts = OptimizerOptions(penalty=penalty, restarts=1, convergence_epsilon=epsilon, max_iterations=cap)
    fit = fit_fair_factor(data, 1, opts)
    assert fit.stop_reason == reason and iterations in (None, fit.iterations)
    M, G = fit.loading.matrix, fair_decision_gradient(data, fit.loading, penalty, identity_transform())
    assert fit.gradient_norm == pytest.approx(np.linalg.norm(G - M @ (M.T @ G) / 6), rel=1e-9)
    # every step prices its grid, but a last step from a zero gradient
    priced = fit.iterations - (reason == "no_descent" and not G.any())
    assert fit.evaluations == 1 + len(_STEP_GRID) * priced


def test_ascent_direction_stops_as_no_descent(monkeypatch, pca_start):
    # a 0/1 panel with total Gram matrix diag(4, 2, 1, 0): the PCA start is
    # exactly 2 e_1; against the reversed gradient no grid step improves it
    data = panel_pair(
        np.array([[1.0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]]),
        np.array([[1.0, 0, 0, 0], [1, -1, 0, 0]]),
    )
    pca = fit_pca(data, 1)
    assert np.array_equal(pca.loading.matrix[:, 0], [2.0, 0.0, 0.0, 0.0])
    penalized = optimizer._penalized_gradient
    monkeypatch.setattr(optimizer, "_penalized_gradient", lambda *args: -penalized(*args))
    fit = fit_fair_factor(data, 1, OptimizerOptions(penalty=8.0, restarts=1))
    assert fit.stop_reason == "no_descent" and fit.converged
    assert fit.iterations == 1 and fit.iteration_log[0]["step_size"] == 0.0
    assert fit.objective_trace[1] == fit.objective_trace[0]
    assert fit.evaluations == 1 + len(_STEP_GRID)
    assert np.array_equal(fit.loading.matrix, pca.loading.matrix)


def huge_penalty_fits(penalty):
    rng = np.random.default_rng(12)
    annuity = annuity_panels(rng)
    g = annuity_transform_for(annuity, term=3, discount=0.95)
    yield lambda: fit_fair_decision(annuity, 1, OptimizerOptions(penalty=penalty), g)
    three, _ = synthesize(N=10, r=1, group_sizes=[20, 20, 20], noise_scales=[2.0, 1.0, 0.5], seed=0)
    yield lambda: fit_fair_factor(three, 1, OptimizerOptions(penalty=penalty))
    two, _ = synthesize(N=10, r=1, group_sizes=[20, 20], noise_scales=[2.0, 1.0], seed=0)
    yield lambda: fit_fair_factor(two, 1, OptimizerOptions(penalty=penalty))


def test_a_gradient_whose_squares_overflow_still_descends():
    # at penalty 1e200 the gradient's sum of squares overflows: its norm must
    # not read inf, which made every grid step 0 and reported convergence
    for fit in huge_penalty_fits(1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit()
        stopped_in_place = result.stop_reason == "no_descent"
        steps = [rec["step_size"] for rec in result.iteration_log]
        assert all(step > 0.0 for step in steps[: len(steps) - stopped_in_place])
        assert result.objective_trace[-1] < result.objective_trace[0]
        json.dumps(result.to_json_dict(), allow_nan=False)


def test_a_non_finite_gradient_fails_naming_the_penalty():
    for fit in huge_penalty_fits(1e308):
        with pytest.raises(FloatingPointError, match="penalty 1e\\+308"):
            fit()


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


def test_annuity_taylor_objective_rejects_other_transforms():
    data = panel_pair(np.zeros((3, 4)), np.ones((3, 4)))
    L = Loading(nearest_orthonormal(np.ones((4, 1))) * 2.0)
    with pytest.raises(ValueError, match="annuity transform only"):
        annuity_taylor_objective(data, L, 1.0, identity_transform())
