import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import hmd_text

from fairfactor.dataset import GroupedPanel, Panel, build_panel, parse_hmd_1x1, split_train_test, synthesize
from fairfactor.factor import (
    FitResult,
    Loading,
    fit_pca,
    group_errors,
    pairwise_unfairness,
    reconstruction_error,
    unfairness,
)
from fairfactor.linalg import nearest_orthonormal
from fairfactor.optimizer import OptimizerOptions, fit_fair_decision, fit_fair_factor
from fairfactor.transforms import annuity_transform_for


def panel_pair(y1, y2):
    N = y1.shape[1]
    ages = np.arange(N)
    return GroupedPanel(
        (
            Panel("g1", np.arange(len(y1)), ages, np.asarray(y1, float), np.zeros(N)),
            Panel("g2", np.arange(len(y2)), ages, np.asarray(y2, float), np.zeros(N)),
        )
    )


def random_loading(rng, n, r):
    return Loading(np.sqrt(n) * nearest_orthonormal(rng.standard_normal((n, r))))


def test_loading_invariant_enforced():
    with pytest.raises(ValueError, match="orthonormality"):
        Loading(2.0 * np.ones((3, 1)))
    # NaN would pass the orthonormality check, since every comparison with it is false
    with pytest.raises(ValueError, match="non-finite"):
        Loading(np.full((3, 1), np.nan))
    Loading(np.sqrt(3) * np.eye(3)[:, :2])  # valid


def test_fit_pca_overflowing_panel_raises():
    # finite data whose Gram matrix overflows: a numerical failure, not a loading
    data, _ = synthesize(N=5, r=1, group_sizes=[6, 6], noise_scales=[1.0, 1.0], seed=1)
    huge = GroupedPanel(
        tuple(Panel(p.group, p.years, p.ages, 1e160 * p.y, p.intercept) for p in data.panels)
    )
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        fit_pca(huge, 1)


@pytest.mark.parametrize("r", [0, 9, 1.5, 2.0, True])
def test_fit_pca_and_fair_fits_reject_a_rank_that_is_not_an_integer_in_range(r):
    data, _ = synthesize(N=8, r=1, group_sizes=[6, 6], noise_scales=[1.0, 1.0], seed=2)
    for fit in (fit_pca, lambda data, r: fit_fair_factor(data, r, OptimizerOptions(penalty=1.0))):
        with pytest.raises(ValueError, match="r must be an integer in \\[1, 8\\]"):
            fit(data, r)


def test_fit_pca_exact_low_rank():
    data, _ = synthesize(N=8, r=1, group_sizes=[6, 6], noise_scales=[0.0, 0.0], seed=2)
    fit = fit_pca(data, 1)
    assert fit.objective_trace[-1] <= 1e-10
    assert np.all(fit.group_errors <= 1e-10)


def test_fit_pca_full_rank_zero_error():
    rng = np.random.default_rng(4)
    data = panel_pair(rng.standard_normal((5, 3)), rng.standard_normal((4, 3)))
    fit = fit_pca(data, 3)
    assert fit.objective_trace[-1] <= 1e-12


def test_fit_pca_matches_full_eigensolve_projector():
    rng = np.random.default_rng(8)
    data = panel_pair(rng.standard_normal((6, 4)), rng.standard_normal((4, 4)))
    fit = fit_pca(data, 2)
    Y = data.stacked()
    w, v = np.linalg.eigh(Y.T @ Y)  # brute-force full spectrum
    best = v[:, -2:]
    assert np.allclose(fit.loading.projector(), best @ best.T, atol=1e-8)


def test_fit_pca_minimizes_over_random_candidates():
    rng = np.random.default_rng(15)
    data = panel_pair(rng.standard_normal((7, 5)), rng.standard_normal((6, 5)))
    fit = fit_pca(data, 2)
    Y = data.stacked()
    base = reconstruction_error(Y, fit.loading)
    for _ in range(200):
        cand = random_loading(rng, 5, 2)
        assert reconstruction_error(Y, cand) >= base - 1e-10


def test_reconstruction_error_hand_case():
    # Y = I_2, loading = sqrt(2) e1: projector keeps the first coordinate only
    Y = np.eye(2)
    L = Loading(np.array([[np.sqrt(2.0)], [0.0]]))
    assert reconstruction_error(Y, L) == pytest.approx(0.5, abs=1e-14)


def test_reconstruction_error_trivial_zeros():
    rng = np.random.default_rng(1)
    L = random_loading(rng, 4, 2)
    coeffs = rng.standard_normal((6, 2))
    Y = coeffs @ L.matrix.T  # rows inside the span
    assert reconstruction_error(Y, L) <= 1e-12
    full = random_loading(rng, 4, 4)
    assert reconstruction_error(rng.standard_normal((5, 4)), full) <= 1e-12


def test_reconstruction_error_shape_mismatch():
    L = Loading(np.sqrt(3) * np.eye(3)[:, :1])
    with pytest.raises(ValueError):
        reconstruction_error(np.zeros((2, 4)), L)


def test_group_errors_symmetry_and_noiseless_group():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((5, 4))
    data = panel_pair(y, y.copy())
    L = random_loading(rng, 4, 2)
    e = group_errors(data, L)
    assert e[0] == pytest.approx(e[1], rel=1e-12)

    span = rng.standard_normal((5, 2)) @ L.matrix.T
    data2 = panel_pair(rng.standard_normal((5, 4)), span)
    e2 = group_errors(data2, L)
    assert e2[1] <= 1e-12 < e2[0]


def test_group_errors_noise_ordering():
    data, truth = synthesize(N=10, r=1, group_sizes=[60, 60], noise_scales=[2.0, 1.0], seed=5)
    e = group_errors(data, Loading(truth.loading))
    assert e[0] > e[1]


def test_unfairness_values():
    assert pairwise_unfairness(np.array([0.3, 0.1])) == pytest.approx(0.04)
    assert pairwise_unfairness(np.array([1.0, 2.0, 4.0])) == pytest.approx(14.0)
    assert pairwise_unfairness(np.array([0.7, 0.7])) == 0.0


def test_unfairness_on_identical_groups():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((4, 3))
    data = panel_pair(y, y.copy())
    L = random_loading(rng, 3, 1)
    assert unfairness(data, L) <= 1e-24


def test_total_group_error_identity():
    rng = np.random.default_rng(12)
    for _ in range(10):
        data = panel_pair(rng.standard_normal((5, 4)), rng.standard_normal((8, 4)))
        L = random_loading(rng, 4, 2)
        total = reconstruction_error(data.stacked(), L)
        per_group = group_errors(data, L)
        T = data.total_rows
        assert total * T == pytest.approx(float(per_group @ data.group_rows), rel=1e-12)


def test_projector_sign_invariance():
    rng = np.random.default_rng(3)
    data = panel_pair(rng.standard_normal((6, 4)), rng.standard_normal((6, 4)))
    fit = fit_pca(data, 2)
    flipped = Loading(fit.loading.matrix * np.array([1.0, -1.0]))
    assert np.allclose(fit.loading.projector(), flipped.projector(), atol=1e-14)
    assert reconstruction_error(data.stacked(), flipped) == pytest.approx(
        fit.objective_trace[-1], rel=1e-12
    )


def test_degenerate_spectrum_flag():
    # isotropic data: every direction ties
    data = panel_pair(np.eye(3), np.eye(3))
    fit = fit_pca(data, 1)
    assert fit.degenerate_spectrum


def test_fit_result_json_round_trip():
    data, _ = synthesize(N=5, r=2, group_sizes=[4, 6], noise_scales=[0.5, 0.2], seed=7)
    fit = fit_pca(data, 2)
    back = FitResult.from_json_dict(fit.to_json_dict())
    assert np.allclose(back.loading.matrix, fit.loading.matrix)
    assert back.groups == fit.groups
    assert np.allclose(back.group_errors, fit.group_errors)
    assert back.converged == fit.converged
    assert (back.stop_reason, back.gradient_norm, back.relative_gradient, back.evaluations) == (None, None, None, 0)

    fair = fit_fair_factor(data, 2, OptimizerOptions(penalty=3.0, restarts=2, max_iterations=30))
    assert fair.stop_reason in ("small_change", "no_descent", "max_iterations")
    payload = fair.to_json_dict()
    back = FitResult.from_json_dict(payload)
    assert back.stop_reason == fair.stop_reason
    assert back.gradient_norm == fair.gradient_norm > 0.0
    assert back.relative_gradient == fair.relative_gradient > 0.0
    assert back.evaluations == fair.evaluations > fair.iterations
    # files written before the diagnostics keys read with their defaults
    for key in ("stop_reason", "gradient_norm", "relative_gradient", "evaluations"):
        del payload[key]
    old = FitResult.from_json_dict(payload)
    assert (old.stop_reason, old.gradient_norm, old.relative_gradient, old.evaluations) == (None, None, None, 0)
    with pytest.raises(ValueError, match="schema"):
        FitResult.from_json_dict({"schema_version": 99})


def readme_fit_keys():
    """The keys README's fit.json entry names in its first sentence."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    entry = readme.split("* `fit.json`:", 1)[1].split(". ", 1)[0]
    return set(re.findall(r"`(\w+)`", entry))


def test_fit_json_round_trips_every_key():
    table = parse_hmd_1x1(hmd_text())
    panels = [build_panel(table, group, ages=(0, 15), years=(1950, 2005)) for group in ("male", "female")]
    train = GroupedPanel(tuple(split_train_test(panel, 1989)[0] for panel in panels))
    g = annuity_transform_for(train, term=10, discount=1 / 1.05)
    taylor = fit_fair_decision(train, 1, OptimizerOptions(penalty=2.0, restarts=2, max_iterations=5), g)
    assert taylor.stop_reason == "max_iterations" and taylor.lower_bound is None
    certified = fit_fair_factor(train, 1, OptimizerOptions(penalty=11.0))
    assert certified.lower_bound is not None and certified.certified_gap <= 1e-9
    for fit in (taylor, certified, fit_pca(train, 1)):
        payload = fit.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload  # plain JSON values: lists, not tuples or arrays
        assert FitResult.from_json_dict(payload).to_json_dict() == payload
        assert set(payload) | {"meta"} == readme_fit_keys()


def pca_payload():
    data, _ = synthesize(N=5, r=2, group_sizes=[4, 6], noise_scales=[0.5, 0.2], seed=7)
    return fit_pca(data, 2).to_json_dict()


def drop_iterations(payload):
    del payload["iterations"]


def rename_factor_group(payload):
    payload["factors"] = {"a": payload["factors"]["g1"], "g2": payload["factors"]["g2"]}


def shorten_group_errors(payload):
    payload["group_errors"] = payload["group_errors"][:1]


def narrow_factors(payload):
    payload["factors"]["g2"] = [row[:1] for row in payload["factors"]["g2"]]


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (drop_iterations, "required keys \\['iterations'\\]"),
        (rename_factor_group, "factors name groups \\['a', 'g2'\\], its groups \\['g1', 'g2'\\]"),
        (shorten_group_errors, "1 group_errors for 2 groups"),
        (narrow_factors, "group 'g2'.s factors have shape \\(6, 1\\), not \\(T, 2\\)"),
    ],
    ids=["missing-key", "factors-name-other-groups", "short-group-errors", "factor-width"],
)
def test_fit_json_that_does_not_hold_together_is_a_value_error(edit, fragment):
    # each used to raise a bare KeyError, or load a fit with a wrong unfairness
    payload = pca_payload()
    edit(payload)
    with pytest.raises(ValueError, match=fragment):
        FitResult.from_json_dict(payload)


def test_loading_must_be_two_dimensional():
    with pytest.raises(ValueError, match="loading must be 2-d"):
        Loading(np.ones(3))
