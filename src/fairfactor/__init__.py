"""Fairness-regularized factor models for grouped panels.

Estimates a shared loading matrix for multi-group panel data three ways: the
plain principal-components factor model, a fair variant penalizing unequal
per-group reconstruction errors, and a fair decision variant penalizing
unequal errors of a downstream transform (identity, element-wise maps, or
annuity-due pricing). Includes drift-AR forecasting, RMSE/fairness reporting,
and k-fold penalty selection, specialized to centered log-mortality panels.
"""

from .dataset import (
    DataError,
    GroupedPanel,
    HmdFormatError,
    MortalityTable,
    Panel,
    build_panel,
    panels_from_csv,
    panels_to_csv,
    parse_hmd_1x1,
    split_train_test,
    synthesize,
)
from .factor import (
    FactorPath,
    FitResult,
    Loading,
    fit_pca,
    group_errors,
    pairwise_unfairness,
    reconstruction_error,
    unfairness,
)
from .forecasting import (
    DriftARModel,
    ForecastResult,
    fit_drift_ar,
    fit_factor_models,
    forecast,
    predict_mortality,
)
from .linalg import (
    RankDeficientError,
    nearest_orthonormal,
    principal_angle,
    top_r_eigs,
)
from .metrics import CvRow, CvTable, MetricsReport, cross_validate_lambda, metrics
from .optimizer import (
    OptimizerOptions,
    annuity_taylor_objective,
    fair_decision_gradient,
    fair_decision_objective,
    fair_factor_gradient,
    fair_factor_objective,
    fit_fair_decision,
    fit_fair_factor,
    random_loading,
)
from .transforms import (
    DecisionTransform,
    annuity_transform,
    annuity_transform_for,
    apply_transform,
    decision_errors,
    elementwise_transform,
    epv_annuity,
    epv_matrix,
    epv_weights,
    epv_width,
    identity_transform,
)

__version__ = "0.1.0"
