import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from fairfactor.dataset import GroupedPanel, Panel, synthesize
from fairfactor.metrics import cross_validate_lambda, metrics
from fairfactor.optimizer import OptimizerOptions, fit_fair_decision
from fairfactor.transforms import annuity_transform_for, epv_annuity, epv_width, identity_transform


def test_metrics_identity_predictions():
    rng = np.random.default_rng(0)
    actual = {"m": rng.uniform(0, 1, (4, 3)), "f": rng.uniform(0, 1, (5, 3))}
    rep = metrics(actual, {k: v.copy() for k, v in actual.items()}, "mortality")
    assert np.all(rep.rmse_by_group == 0.0)
    assert rep.rmse_total == 0.0
    assert rep.fairness_difference == 0.0
    for g in actual:
        assert np.all(rep.rmse_by_age[g] == 0.0)
        assert np.all(rep.rmse_by_year[g] == 0.0)


def test_metrics_uniform_error_magnitude():
    rng = np.random.default_rng(1)
    actual = {"m": rng.uniform(0, 1, (4, 3)), "f": rng.uniform(0, 1, (4, 3))}
    signs = {k: np.where(rng.uniform(size=v.shape) < 0.5, -1.0, 1.0) for k, v in actual.items()}
    predicted = {k: actual[k] + 0.2 * signs[k] for k in actual}
    rep = metrics(actual, predicted, "mortality")
    assert np.allclose(rep.rmse_by_group, 0.2, atol=1e-14)
    assert rep.fairness_difference == pytest.approx(0.0, abs=1e-14)
    assert rep.rmse_total == pytest.approx(0.2, abs=1e-14)


def test_metrics_hand_computed_example():
    # group 1: 2x2 errors (1,0),(0,1); group 2 exact; group 0 errs by 0.5 everywhere,
    # an RMSE between the other two. T0 = T1 = T2 = 2, N = 2
    actual = {"g0": np.zeros((2, 2)), "g1": np.zeros((2, 2)), "g2": np.zeros((2, 2))}
    predicted = {"g0": np.full((2, 2), 0.5), "g1": np.array([[1.0, 0.0], [0.0, 1.0]]), "g2": np.zeros((2, 2))}
    rep = metrics(actual, predicted, "epv")
    assert rep.groups == ("g0", "g1", "g2")
    assert rep.rmse_by_group[0] == 0.5
    assert rep.rmse_by_group[1] == pytest.approx(np.sqrt(0.5))
    assert rep.rmse_by_group[2] == 0.0
    assert rep.rmse_total == pytest.approx(0.5)
    # the largest pairwise gap (g1 against g2), neither neighbour in group order
    assert rep.fairness_difference == pytest.approx(np.sqrt(0.5))


def test_metrics_aggregation_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t1, t2, n = rng.integers(2, 9), rng.integers(2, 9), rng.integers(2, 6)
        actual = {"a": rng.uniform(0, 1, (t1, n)), "b": rng.uniform(0, 1, (t2, n))}
        predicted = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in actual.items()}
        rep = metrics(actual, predicted, "mortality")
        assert rep.aggregation_residual() <= 1e-10


def test_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        metrics({"a": np.zeros((2, 2))}, {"a": np.zeros((3, 2))}, "mortality")
    with pytest.raises(ValueError):
        metrics({"a": np.zeros((2, 2))}, {"b": np.zeros((2, 2))}, "mortality")
    with pytest.raises(ValueError):
        metrics({"a": np.zeros((2, 2))}, {"a": np.zeros((2, 2))}, "prices")


def quick_opts(lam=0.0):
    return OptimizerOptions(penalty=lam, restarts=1, max_iterations=200, seed=0)


def test_cv_single_point_grid():
    data, _ = synthesize(N=6, r=1, group_sizes=[12, 12], noise_scales=[1.0, 1.0], seed=3)
    table = cross_validate_lambda(
        data, 1, [0.7], k=3, lambda_cap=np.inf, g=identity_transform(), opts=quick_opts()
    )
    assert table.chosen == 0.7
    assert not table.fallback
    assert len(table.rows) == 1


def test_cv_duplicate_groups_gap_near_zero():
    data, _ = synthesize(N=6, r=1, group_sizes=[12, 12], noise_scales=[1.0, 1.0], seed=4)
    p = data.panels[0]
    dup = GroupedPanel((p, Panel("copy", p.years, p.ages, p.y.copy(), p.intercept.copy())))
    table = cross_validate_lambda(
        dup, 1, [0.0, 1.0], k=3, lambda_cap=None, g=identity_transform(), opts=quick_opts()
    )
    for row in table.rows:
        assert row.mean_gap <= 1e-12
    best = min(table.rows, key=lambda r: (r.cv_error, r.penalty))
    assert table.chosen == best.penalty


def test_cv_disparity_prefers_positive_penalty():
    data, _ = synthesize(N=10, r=1, group_sizes=[30, 30], noise_scales=[2.0, 0.5], seed=5)
    table = cross_validate_lambda(
        data,
        1,
        [0.0, 1.0, 10.0],
        k=3,
        lambda_cap=None,  # cap = half the penalty-free gap, infeasible at 0 by construction
        g=identity_transform(),
        opts=OptimizerOptions(restarts=3, seed=0),
    )
    assert not table.row(0.0).feasible
    assert table.chosen > 0.0


def test_cv_fold_partition_covers_each_group():
    from fairfactor.metrics import _fold_indices

    for n, k in ((11, 3), (9, 4)):
        folds = _fold_indices(n, k)
        assert len(folds) == k
        assert np.array_equal(np.concatenate(folds), np.arange(n))  # contiguous blocks, in order


def test_cv_holds_out_the_same_contiguous_blocks_at_every_penalty(monkeypatch):
    held_out = []

    def record(args):
        held_out.append([fold.tolist() for fold in args[4]])
        return 0.0, 0.0

    # the package re-exports the function metrics, so fairfactor.metrics is not the module
    monkeypatch.setattr(sys.modules[cross_validate_lambda.__module__], "_evaluate_fold", record)
    data, _ = synthesize(N=4, r=1, group_sizes=[7, 5], noise_scales=[1.0, 0.5], seed=4)
    cross_validate_lambda(data, 1, [0.0, 2.0], k=3, lambda_cap=np.inf, g=identity_transform(), opts=quick_opts())
    blocks = [[[0, 1, 2], [0, 1]], [[3, 4], [2, 3]], [[5, 6], [4]]]  # (group 1, group 2) per fold
    assert held_out == blocks + blocks


def test_cv_leave_one_out_degenerates_gracefully():
    data, _ = synthesize(N=4, r=1, group_sizes=[6, 6], noise_scales=[1.0, 0.5], seed=7)
    table = cross_validate_lambda(
        data, 1, [0.0, 2.0], k=6, lambda_cap=np.inf, g=identity_transform(), opts=quick_opts()
    )
    assert len(table.rows) == 2
    assert all(np.isfinite(row.cv_error) for row in table.rows)


def test_cv_parallel_matches_sequential():
    data, _ = synthesize(N=5, r=1, group_sizes=[9, 9], noise_scales=[1.5, 0.5], seed=10)
    kwargs = dict(
        lambda_grid=[0.0, 3.0], k=3, lambda_cap=np.inf, g=identity_transform(), opts=quick_opts()
    )
    sequential = cross_validate_lambda(data, 1, jobs=1, **kwargs)
    parallel = cross_validate_lambda(data, 1, jobs=2, **kwargs)
    assert sequential == parallel


def test_cv_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # a fork pool launches all max_workers on its first submit, so the pool
    # is sized by the fold tasks; a serial stand-in records the size asked for
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    data, _ = synthesize(N=5, r=1, group_sizes=[9, 9], noise_scales=[1.5, 0.5], seed=10)
    kwargs = dict(lambda_grid=[3.0], k=2, lambda_cap=np.inf, g=identity_transform(), opts=quick_opts())
    pooled = cross_validate_lambda(data, 1, jobs=64, **kwargs)  # 1 penalty x 2 folds
    assert sizes == [2]
    assert pooled == cross_validate_lambda(data, 1, jobs=1, **kwargs)


def test_cv_rejects_bad_arguments():
    data, _ = synthesize(N=4, r=1, group_sizes=[5, 5], noise_scales=[1, 1], seed=9)
    with pytest.raises(ValueError, match="folds"):
        cross_validate_lambda(data, 1, [0.0], k=1, lambda_cap=None, g=identity_transform(), opts=quick_opts())
    with pytest.raises(ValueError, match="fewer"):
        cross_validate_lambda(data, 1, [0.0], k=6, lambda_cap=None, g=identity_transform(), opts=quick_opts())
    with pytest.raises(ValueError, match="non-negative"):
        cross_validate_lambda(data, 1, [-1.0], k=2, lambda_cap=None, g=identity_transform(), opts=quick_opts())
    for cap in (-1.0, np.nan):  # a nan cap would make every row infeasible
        with pytest.raises(ValueError, match="cap must be non-negative"):
            cross_validate_lambda(data, 1, [0.0], k=2, lambda_cap=cap, g=identity_transform(), opts=quick_opts())
    with pytest.raises(ValueError, match="repeats"):  # it would fill two rows of the table
        cross_validate_lambda(data, 1, [2.0, 0.0, 2.0], k=2, lambda_cap=None, g=identity_transform(), opts=quick_opts())


@pytest.mark.parametrize(
    "groups",
    [
        (("g1", 9, 0.4), ("g2", 8, 0.15)),
        (("g1", 9, 0.4), ("g2", 8, 0.15), ("g3", 10, 0.25)),
    ],
    ids=["two-groups", "three-groups"],
)
def test_cv_annuity_fold_scores_match_brute_force_pricing(groups):
    rng = np.random.default_rng(12)
    N, term, v = 6, 3, 0.95
    level = np.full(N, -2.4)
    data = GroupedPanel(
        tuple(
            Panel(group, np.arange(T), np.arange(N), spread * rng.standard_normal((T, N)), level)
            for group, T, spread in groups
        )
    )
    g = annuity_transform_for(data, term=term, discount=v)
    k, grid = 3, [0.0, 4.0]
    table = cross_validate_lambda(data, 1, grid, k=k, lambda_cap=np.inf, g=g, opts=quick_opts())

    def priced_error(y, recon, a):
        """Squared EPV error summed over a block, one annuity at a time."""
        total = 0.0
        for t in range(len(y)):
            for i in range(epv_width(N, term)):
                predicted = epv_annuity(np.exp(recon[t] + a), i, term, v)
                total += (predicted - epv_annuity(np.exp(y[t] + a), i, term, v)) ** 2
        return total

    for lam in grid:
        errors, gaps = [], []
        for j in range(k):
            folds = [np.array_split(np.arange(p.n_years), k)[j] for p in data.panels]
            train = GroupedPanel(
                tuple(p.take_rows(np.setdiff1d(np.arange(p.n_years), f)) for p, f in zip(data.panels, folds))
            )
            P = fit_fair_decision(train, 1, replace(quick_opts(), penalty=lam), g).loading.projector()
            sq = [priced_error(p.y[f], p.y[f] @ P, p.intercept) for p, f in zip(data.panels, folds)]
            errors.append(sum(sq) / sum(len(f) for f in folds))
            per_group = [e / len(f) for e, f in zip(sq, folds)]
            gaps.append(max(abs(a - b) for a, b in combinations(per_group, 2)))
        row = table.row(lam)
        assert row.cv_error == pytest.approx(np.mean(errors), rel=1e-10)
        assert row.mean_gap == pytest.approx(np.mean(gaps), rel=1e-10)


@pytest.mark.parametrize(
    "setting, fragment",
    [
        (dict(k=2.5), "k must be an integer"),
        (dict(k=True), "k must be an integer"),
        (dict(jobs=1.5), "jobs must be an integer"),
        (dict(jobs=0), "jobs must be an integer of at least 1"),
    ],
    ids=["float-k", "bool-k", "float-jobs", "zero-jobs"],
)
def test_cv_rejects_counts_that_are_not_integers(setting, fragment):
    # float counts used to fail with a TypeError, and jobs=0 ran serially
    data, _ = synthesize(N=4, r=1, group_sizes=[5, 5], noise_scales=[1, 1], seed=9)
    kwargs = {"k": 2, "lambda_cap": None, "g": identity_transform(), "opts": quick_opts(), **setting}
    with pytest.raises(ValueError, match=fragment):
        cross_validate_lambda(data, 1, [0.0], **kwargs)


def test_cv_rejects_an_empty_penalty_grid():
    data, _ = synthesize(N=4, r=1, group_sizes=[5, 5], noise_scales=[1, 1], seed=9)
    with pytest.raises(ValueError, match="empty penalty grid"):
        cross_validate_lambda(data, 1, [], k=2, lambda_cap=None, g=identity_transform(), opts=quick_opts())


def test_cv_table_row_of_an_absent_penalty_is_a_key_error():
    from fairfactor.metrics import CvRow, CvTable

    table = CvTable(rows=(CvRow(0.0, 1.0, 0.5, True),), chosen=0.0, gap_cap=1.0, fallback=False)
    assert table.row(0.0).cv_error == 1.0
    with pytest.raises(KeyError, match="2.0"):
        table.row(2.0)
