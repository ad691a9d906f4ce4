"""Acceptance gate: one printed PASS/FAIL line per criterion, tolerances pinned here.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Criterion 5
needs real Australian 1x1 period death rates (not shipped); point
FAIRFACTOR_HMD_AU at the Mx_1x1 file to enable it.
"""

import os
import time

import numpy as np
import pytest

from fairfactor.cli import main as cli_main
from fairfactor.dataset import GroupedPanel, Panel, synthesize
from fairfactor.factor import fit_pca
from fairfactor.linalg import principal_angle
from fairfactor.metrics import metrics
from fairfactor.optimizer import (
    OptimizerOptions,
    fair_decision_gradient,
    fair_decision_objective,
    fair_factor_gradient,
    fair_factor_objective,
    fit_fair_factor,
    random_loading,
)
from fairfactor.transforms import (
    annuity_transform_for,
    epv_annuity,
    epv_matrix,
    epv_weights,
    epv_width,
    identity_transform,
)

from conftest import hmd_text


def report(number: int, description: str, passed: bool, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.1f}s): {description}")


def random_grouped(rng, N, r_hint=None, T1=None, T2=None, min_gap=0.0):
    """Random two-group panel; optionally resample until the eigengap clears min_gap."""
    while True:
        T1_ = T1 or int(rng.integers(5, 10))
        T2_ = T2 or int(rng.integers(5, 10))
        y1 = rng.standard_normal((T1_, N))
        y2 = rng.standard_normal((T2_, N))
        data = GroupedPanel(
            (
                Panel("g1", np.arange(T1_), np.arange(N), y1, np.zeros(N)),
                Panel("g2", np.arange(T2_), np.arange(N), y2, np.zeros(N)),
            )
        )
        if min_gap == 0.0:
            return data
        Y = data.stacked()
        w = np.linalg.eigvalsh(Y.T @ Y)[::-1]
        r = r_hint or 1
        if (w[r - 1] - w[r]) / max(w[0], 1e-300) > min_gap:
            return data


def fd_gradient(objective, M, h):
    out = np.zeros_like(M)
    for idx in np.ndindex(*M.shape):
        up, dn = M.copy(), M.copy()
        up[idx] += h
        dn[idx] -= h
        out[idx] = (objective(up) - objective(dn)) / (2.0 * h)
    return out


def test_criterion_1_reduction_equivalences():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_angle = 0.0
    worst_gap = 0.0
    for i in range(50):
        r = 1 + (i % 2)
        data = random_grouped(rng, N=int(rng.integers(4, 8)), r_hint=r, min_gap=1e-3)
        pca = fit_pca(data, r)
        fit = fit_fair_factor(data, r, OptimizerOptions(penalty=0.0, restarts=2, seed=i))
        worst_angle = max(worst_angle, principal_angle(fit.loading.matrix, pca.loading.matrix))
        for lam in (0.0, 1.7):
            for loading in (pca.loading, random_loading(rng, data.n_ages, r)):
                a = fair_decision_objective(data, loading, lam, identity_transform())
                b = fair_factor_objective(data, loading, lam)
                worst_gap = max(worst_gap, abs(a - b))
    elapsed = time.time() - start
    ok = worst_angle <= 1e-6 and worst_gap <= 1e-12 and elapsed < 10.0
    report(
        1,
        f"reductions: max projector angle {worst_angle:.2e} (<=1e-6), "
        f"max identity objective gap {worst_gap:.2e} (<=1e-12)",
        ok,
        elapsed,
    )
    assert worst_angle <= 1e-6
    assert worst_gap <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = {"factor": 0.0, "annuity": 0.0, "exact": 0.0}
    for i in range(20):
        N = 6
        r = 1 + (i % 2)
        lam = float(rng.uniform(0.2, 3.0))

        data = random_grouped(rng, N=N)
        grams = [(p.y, p.y.T @ p.y, float((p.y**2).sum()), p.n_years) for p in data.panels]
        T = data.total_rows

        def factor_obj(M):
            errs = [(sq - (M * (G @ M)).sum() / N) / Tk for _, G, sq, Tk in grams]
            return sum(Tk * e for (_, _, _, Tk), e in zip(grams, errs)) / T + lam * (
                errs[0] - errs[1]
            ) ** 2

        ann = GroupedPanel(
            tuple(
                Panel(p.group, p.years, p.ages, 0.3 * p.y, np.full(N, -2.5)) for p in data.panels
            )
        )
        g_ann = annuity_transform_for(ann, term=3, discount=0.95)
        Ws = {p.group: [epv_weights(m, 3, 0.95) for m in np.exp(p.y + p.intercept)] for p in ann.panels}

        def annuity_obj(M):
            errs = []
            for p in ann.panels:
                recon = (p.y @ M) @ M.T / N
                m_obs = np.exp(p.y + p.intercept)
                m_rec = np.exp(recon + p.intercept)
                total = 0.0
                for t in range(p.n_years):
                    we = Ws[p.group][t] @ (m_rec[t] - m_obs[t])
                    total += float(we @ we)
                errs.append(total / p.n_years)
            return sum(p.n_years * e for p, e in zip(ann.panels, errs)) / T + lam * (
                errs[0] - errs[1]
            ) ** 2

        g_exact = annuity_transform_for(ann, term=3, discount=0.95, annuity_mode="exact")

        def exact_obj(M):
            errs = []
            for p in ann.panels:
                recon = (p.y @ M) @ M.T / N
                d = epv_matrix(np.exp(recon + p.intercept), 3, 0.95) - epv_matrix(
                    np.exp(p.y + p.intercept), 3, 0.95
                )
                errs.append(float((d**2).sum()) / p.n_years)
            return sum(p.n_years * e for p, e in zip(ann.panels, errs)) / T + lam * (
                errs[0] - errs[1]
            ) ** 2

        for _ in range(10):
            L = random_loading(rng, N, r)
            h = 1e-6 * np.linalg.norm(L.matrix)

            grad = fair_factor_gradient(data, L, lam)
            fd = fd_gradient(factor_obj, L.matrix, h)
            worst["factor"] = max(worst["factor"], np.linalg.norm(fd - grad) / np.linalg.norm(fd))

            grad = fair_decision_gradient(ann, L, lam, g_ann)
            fd = fd_gradient(annuity_obj, L.matrix, h)
            worst["annuity"] = max(worst["annuity"], np.linalg.norm(fd - grad) / np.linalg.norm(fd))

            grad = fair_decision_gradient(ann, L, lam, g_exact)
            fd = fd_gradient(exact_obj, L.matrix, h)
            worst["exact"] = max(worst["exact"], np.linalg.norm(fd - grad) / np.linalg.norm(fd))
    elapsed = time.time() - start
    ok = all(v <= 1e-5 for v in worst.values()) and elapsed < 30.0
    report(
        2,
        "gradients vs central differences, worst relative error "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " (<=1e-5)",
        ok,
        elapsed,
    )
    for name, value in worst.items():
        assert value <= 1e-5, name
    assert elapsed < 30.0


def brute_force_epv(m, i, n, v):
    total = 0.0
    for death in range(n - 1):
        prob = np.prod([1.0 - m[i + k] for k in range(death)]) * m[i + death]
        total += prob * sum(v**s for s in range(death + 1))
    survive = np.prod([1.0 - m[i + k] for k in range(n - 1)])
    return total + survive * sum(v**s for s in range(n))


def test_criterion_3_epv_oracle():
    start = time.time()
    rng = np.random.default_rng(303)
    worst_price = 0.0
    worst_weight = 0.0
    bounds_ok = True
    for trial in range(1000):
        N = int(rng.integers(3, 10))
        n = int(rng.integers(1, min(N, 6) + 1))
        v = float(rng.uniform(0.3, 1.0))
        m = rng.uniform(0.0, 1.0, size=N)
        i = int(rng.integers(0, epv_width(N, n)))
        value = epv_annuity(m, i, n, v)
        worst_price = max(worst_price, abs(value - brute_force_epv(m, i, n, v)))
        cap = sum(v**s for s in range(n))
        bounds_ok = bounds_ok and (1.0 - 1e-12 <= value <= cap + 1e-12)
        if trial < 100:
            W = epv_weights(m, n, v)
            h = 1e-6
            for row in range(W.shape[0]):
                for j in range(N):
                    up, dn = m.copy(), m.copy()
                    up[j] = min(1.0, up[j] + h)
                    dn[j] = max(0.0, dn[j] - h)
                    fd = (epv_annuity(up, row, n, v) - epv_annuity(dn, row, n, v)) / (up[j] - dn[j])
                    worst_weight = max(worst_weight, abs(W[row, j] - fd))
    elapsed = time.time() - start
    ok = worst_price <= 1e-12 and worst_weight <= 1e-8 and bounds_ok and elapsed < 5.0
    report(
        3,
        f"EPV vs path enumeration {worst_price:.2e} (<=1e-12), weights vs FD "
        f"{worst_weight:.2e} (<=1e-8), bounds on 1000 inputs {'held' if bounds_ok else 'violated'}",
        ok,
        elapsed,
    )
    assert worst_price <= 1e-12
    assert worst_weight <= 1e-8
    assert bounds_ok
    assert elapsed < 5.0


def test_criterion_4_optimization_contract():
    start = time.time()
    wins = 0
    monotone = True
    certified = 0  # fits certified optimal: within 1e-9 (relative) of the dual's lower bound
    for seed in range(21):
        data, _ = synthesize(N=40, r=1, group_sizes=[60, 60], noise_scales=[2.0, 1.0], seed=seed)
        fit0 = fit_fair_factor(data, 1, OptimizerOptions(penalty=0.0, restarts=20, seed=seed))
        fit10 = fit_fair_factor(data, 1, OptimizerOptions(penalty=10.0, restarts=20, seed=seed))
        for fit in (fit0, fit10):
            diffs = np.diff(np.array(fit.objective_trace))
            monotone = monotone and bool(np.all(diffs <= 1e-12))
            final = fit.objective_trace[-1]
            certified += fit.certified_gap <= 1e-9 and abs(final - fit.lower_bound) <= 1e-9 * final
        if fit10.unfairness < fit0.unfairness:
            wins += 1
    elapsed = time.time() - start
    ok = monotone and wins >= 19 and certified == 42 and elapsed < 120.0
    report(
        4,
        f"traces monotone: {monotone}; penalty lowered unfairness in {wins}/21 seeds (>=19); "
        f"{certified}/42 fits within 1e-9 of their lower bound",
        ok,
        elapsed,
    )
    assert monotone
    assert wins >= 19
    assert certified == 42
    assert elapsed < 120.0


HMD_ENV = "FAIRFACTOR_HMD_AU"


@pytest.mark.skipif(
    HMD_ENV not in os.environ,
    reason=f"set {HMD_ENV} to the Australian Mx_1x1 file to run the table reproduction",
)
def test_criterion_5_table_reproduction(tmp_path):
    from fairfactor.config import load_config
    from fairfactor.pipeline import ArtifactWriter, run_repro

    start = time.time()
    config = load_config(
        None,
        [
            f"data={os.environ[HMD_ENV]}",
            "groups=male,female",
            "age_min=0",
            "age_max=85",
            "train_cutoff=1989",
            "r=1",
            "term=10",
            "repro_lambda_factor=11",
            "repro_lambda_decision=2",
            f"out={tmp_path / 'repro'}",
        ],
    )
    writer = ArtifactWriter(config.out, config.config_hash(), config.seed)
    reports = run_repro(config, writer)
    elapsed = time.time() - start

    mort = {m: reports[m]["mortality"].fairness_difference for m in reports}
    epv_fair = {m: reports[m]["epv"].fairness_difference for m in reports}
    epv_total = {m: reports[m]["epv"].rmse_total for m in reports}

    mort_order = mort["fair-decision"] < mort["fair-factor"] < mort["factor"]
    mort_levels = mort["fair-decision"] <= 0.002 and 0.0041 * 0.7 <= mort["factor"] <= 0.0041 * 1.3
    epv_order = epv_fair["fair-decision"] < epv_fair["fair-factor"] < epv_fair["factor"]
    epv_levels = (
        epv_fair["fair-decision"] <= 0.03 and 0.0916 * 0.6 <= epv_fair["factor"] <= 0.0916 * 1.4
    )
    total_order = (
        epv_total["fair-decision"] < epv_total["fair-factor"] < epv_total["factor"]
    )
    ok = mort_order and mort_levels and epv_order and epv_levels and total_order and elapsed < 180.0
    report(
        5,
        f"mortality fairness {mort}, annuity fairness {epv_fair}, annuity totals {epv_total}",
        ok,
        elapsed,
    )
    assert mort_order, f"mortality fairness ordering violated: {mort}"
    assert mort_levels, f"mortality fairness levels out of range: {mort}"
    assert epv_order, f"annuity fairness ordering violated: {epv_fair}"
    assert epv_levels, f"annuity fairness levels out of range: {epv_fair}"
    assert total_order, f"annuity total RMSE ordering violated: {epv_total}"
    assert elapsed < 180.0


def test_criterion_6_metrics_identities():
    start = time.time()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        groups = [f"g{k}" for k in range(int(rng.integers(2, 5)))]
        actual = {g: rng.uniform(0, 1, (int(rng.integers(2, 8)), 4)) for g in groups}
        predicted = {g: v + 0.05 * rng.standard_normal(v.shape) for g, v in actual.items()}
        rep = metrics(actual, predicted, "mortality")
        worst = max(worst, rep.aggregation_residual())
    hand = metrics(
        {"g1": np.zeros((2, 2)), "g2": np.zeros((2, 2))},
        {"g1": np.array([[1.0, 0.0], [0.0, 1.0]]), "g2": np.zeros((2, 2))},
        "epv",
    )
    hand_ok = (
        hand.rmse_by_group[0] == np.sqrt(0.5)
        and hand.rmse_by_group[1] == 0.0
        and hand.rmse_total == 0.5
        and hand.fairness_difference == np.sqrt(0.5)
    )
    elapsed = time.time() - start
    ok = worst <= 1e-10 and hand_ok and elapsed < 1.0
    report(
        6,
        f"aggregation identity residual {worst:.2e} (<=1e-10); 2x2 hand case exact: {hand_ok}",
        ok,
        elapsed,
    )
    assert worst <= 1e-10
    assert hand_ok
    assert elapsed < 1.0


def test_criterion_7_determinism(tmp_path):
    start = time.time()
    hmd = tmp_path / "Mx_1x1.txt"
    hmd.write_text(hmd_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data={hmd}\ngroups=male,female\nage_min=0\nage_max=15\ntrain_cutoff=1989\n"
        "term=4\nr=1\nrestarts=2\nmax_iterations=300\n"
        "repro_lambda_factor=3\nrepro_lambda_decision=1\nseed=5\n"
    )

    def run_twice(command, *extra):
        outputs = []
        for sub in ("x", "y"):
            out = tmp_path / f"{command}_{sub}"
            code = cli_main([command, "--config", str(cfg), "--out", str(out), *extra])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        return outputs

    repro_a, repro_b = run_twice("repro")
    sim_a, sim_b = run_twice("simulate")
    elapsed = time.time() - start
    repro_same = repro_a == repro_b and set(repro_a) == {
        "table1.csv",
        "table2.csv",
        "metrics.csv",
        "metrics.json",
        "convergence.jsonl",
    }
    sim_same = sim_a == sim_b and set(sim_a) == {"panels.csv", "truth.json"}
    ok = repro_same and sim_same and elapsed < 300.0
    report(
        7,
        f"repro byte-identical: {repro_a == repro_b}; simulate byte-identical: {sim_a == sim_b}",
        ok,
        elapsed,
    )
    assert repro_same
    assert sim_same
    assert elapsed < 300.0
