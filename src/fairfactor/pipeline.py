"""End-to-end stages shared by the command-line entry points.

Every stage is a pure function from a RunConfig (plus loaded inputs) to
in-memory results; artifact files are written through ArtifactWriter so a
failed run never leaves partial outputs and every file carries the config
hash and seed.
"""

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .dataset import (
    DataError,
    GroupedPanel,
    build_panel,
    cell_matrix,
    long_csv_lines,
    long_csv_rows,
    panels_csv_lines,
    parse_hmd_1x1,
    split_train_test,
    synthesize,
)
from .factor import FitResult, fit_pca
from .forecasting import fit_factor_models, min_history, predict_mortality
from .metrics import MetricsReport, cross_validate_lambda, metrics
from .optimizer import OptimizerOptions, fit_fair_decision, fit_fair_factor
from .transforms import (
    DecisionTransform,
    annuity_transform_for,
    epv_matrix,
    epv_width,
    identity_transform,
)

MODEL_ORDER = ("factor", "fair-factor", "fair-decision")

RATES_CSV_HEADER = ["group", "year", "age", "value"]


def _temporary(path: Path) -> Path:
    return path.with_name(f".{path.name}.tmp")


class ArtifactWriter:
    """Writes deterministic artifacts under one directory, removing them on failure.

    Every text artifact goes through write_lines: the header comment, then the
    lines given, a CSV's column header first or a JSONL file's dumped records.
    Every write returns its path. Each file is written under a temporary name in the same directory
    and moved into place once complete, so a target name never holds a partial file.
    """

    def __init__(self, out_dir: str | Path, config_hash: str, seed: int):
        if not str(out_dir):
            raise ConfigError("an output directory is required (set out=...)")
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.header = f"# config_hash={config_hash} seed={seed}"
        self.meta = {"config_hash": config_hash, "seed": seed}
        self.written: list[Path] = []

    @contextmanager
    def _open(self, name: str):
        """A handle on a temporary file that becomes `name` once the block completes."""
        path = self.dir / name
        self.written.append(path)
        with _temporary(path).open("w") as fh:
            yield fh
        os.replace(fh.name, path)

    def write_lines(self, name: str, lines) -> Path:
        with self._open(name) as fh:
            fh.write(self.header + "\n")
            for line in lines:
                fh.write(line + "\n")
        return self.dir / name

    def write_json(self, name: str, payload: dict) -> Path:
        with self._open(name) as fh:
            json.dump({"meta": self.meta, **payload}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return self.dir / name

    def discard_all(self) -> None:
        for path in self.written:
            for leftover in (path, _temporary(path)):
                with suppress(OSError):
                    leftover.unlink()


def fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class PreparedData:
    train: GroupedPanel
    test: GroupedPanel


@contextmanager
def _data_lines(path: str):
    """The lines of a data file, read one at a time: those of
    Path(path).read_text().splitlines(). A DataError raised while they are
    read, and bytes that do not decode, become a DataError naming the file."""
    try:
        with Path(path).open() as fh:
            yield (part for line in fh for part in line.splitlines())
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid {exc.encoding} text ({exc.reason})") from None
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_panels(config: RunConfig, min_train_years: int = 1) -> PreparedData:
    """Parse the configured files and build train/test panels per group.

    A train_cutoff that leaves fewer than min_train_years training years or
    no test year is a ConfigError.
    """
    tables = {}
    train_panels, test_panels = [], []
    for group in config.groups:
        path = config.data_path_for(group)
        if path not in tables:
            with _data_lines(path) as lines:
                tables[path] = parse_hmd_1x1(lines)
        table = tables[path]
        years = table.years
        if len(years) == 0:
            raise DataError(f"{path}: no data rows")
        y_lo = config.year_min if config.year_min is not None else int(years.min())
        y_hi = config.year_max if config.year_max is not None else int(years.max())
        panel = build_panel(
            table,
            group,
            ages=(config.age_min, config.age_max),
            years=(y_lo, y_hi),
            standardize=config.standardize,
        )
        lo = y_lo + min_train_years - 1
        if not lo <= config.train_cutoff < y_hi:
            need = f"; forecasting needs at least {min_train_years} training years" if min_train_years > 1 else ""
            raise ConfigError(
                f"train_cutoff={config.train_cutoff} must lie in {lo}-{y_hi - 1}"
                f" for the data's years {y_lo}-{y_hi}{need}"
            )
        train, test = split_train_test(panel, config.train_cutoff)
        train_panels.append(train)
        test_panels.append(test)
    return PreparedData(train=GroupedPanel(tuple(train_panels)), test=GroupedPanel(tuple(test_panels)))


def optimizer_options(config: RunConfig, penalty: float) -> OptimizerOptions:
    return OptimizerOptions(
        penalty=penalty,
        max_iterations=config.max_iterations,
        convergence_epsilon=config.epsilon,
        restarts=config.restarts,
        seed=config.seed,
    )


def transform_for_model(config: RunConfig, model: str, train: GroupedPanel) -> DecisionTransform:
    if model == "fair-decision":
        return annuity_transform_for(
            train, term=config.term, discount=config.discount, annuity_mode=config.annuity_mode
        )
    return identity_transform()


def fit_model(config: RunConfig, model: str, train: GroupedPanel, penalty: float) -> FitResult:
    if model == "factor":
        return fit_pca(train, config.r)
    opts = optimizer_options(config, penalty)
    if model == "fair-factor":
        return fit_fair_factor(train, config.r, opts)
    g = transform_for_model(config, model, train)
    return fit_fair_decision(train, config.r, opts, g)


def fit_and_forecast(config: RunConfig, data: PreparedData, model: str, penalty: float, horizon: int):
    """Fit a model on the training window and forecast its rates `horizon` years on.

    Returns (fit, forecast result, per-group factor models).
    """
    fit = fit_model(config, model, data.train, penalty)
    models = fit_factor_models(fit)
    return fit, predict_mortality(fit, models, data.train, horizon), models


def _epvs(config: RunConfig, rates: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Row-wise annuity-due EPVs of per-group rate matrices at the configured term and discount."""
    return {g: epv_matrix(m, config.term, config.discount) for g, m in rates.items()}


def tidy_metric_rows(model: str, report: MetricsReport, ages, years_by_group) -> list[str]:
    """Rows of the documented metrics.csv schema: model,quantity,group,scope,key,value."""
    rows = [f"{model},{report.quantity},,total,,{fmt(report.rmse_total)}"]
    rows.append(f"{model},{report.quantity},,fairness,,{fmt(report.fairness_difference)}")
    for g, rmse in zip(report.groups, report.rmse_by_group):
        rows.append(f"{model},{report.quantity},{g},group,,{fmt(rmse)}")
    for g in report.groups:
        for label, value in zip(ages, report.rmse_by_age[g]):
            rows.append(f"{model},{report.quantity},{g},age,{label},{fmt(value)}")
        for label, value in zip(years_by_group[g], report.rmse_by_year[g]):
            rows.append(f"{model},{report.quantity},{g},year,{label},{fmt(value)}")
    return rows


def write_scores(
    config: RunConfig,
    data: PreparedData,
    writer: ArtifactWriter,
    penalties: dict[str, float],
    predictions: str = "",
):
    """Fit and forecast each model of `penalties` (model -> fairness penalty),
    score its mortality rates and EPVs over the test window, and write
    metrics.csv and metrics.json.

    With a predictions file, its rates are scored in place of a fit. Returns
    ({model: {"mortality": report, "epv": report}}, convergence records).
    """
    horizon = min(p.n_years for p in data.test.panels)
    ages = data.train.panels[0].ages
    years_by_group = {p.group: p.years[:horizon] for p in data.test.panels}
    start_ages = ages[: epv_width(len(ages), config.term)]
    predicted = read_rates_csv(predictions, years_by_group, ages) if predictions else None
    actual = {p.group: p.rates()[:horizon] for p in data.test.panels}
    actual_epvs = _epvs(config, actual)
    reports: dict[str, dict[str, MetricsReport]] = {}
    tidy_rows: list[str] = []
    convergence: list[dict] = []
    for model, penalty in penalties.items():
        rates = predicted
        if rates is None:
            fit, forecasted, _ = fit_and_forecast(config, data, model, penalty, horizon)
            rates = forecasted.rates
            convergence += [{"model": model, **record} for record in fit.iteration_log]
        mortality = metrics(actual, rates, "mortality")
        epv_report = metrics(actual_epvs, _epvs(config, rates), "epv")
        reports[model] = {"mortality": mortality, "epv": epv_report}
        tidy_rows += tidy_metric_rows(model, mortality, ages, years_by_group)
        tidy_rows += tidy_metric_rows(model, epv_report, start_ages, years_by_group)
    writer.write_lines("metrics.csv", ["model,quantity,group,scope,key,value", *tidy_rows])
    writer.write_json(
        "metrics.json",
        {"reports": {m: {q: r.to_json_dict() for q, r in by_q.items()} for m, by_q in reports.items()}},
    )
    return reports, convergence


def run_repro(config: RunConfig, writer: ArtifactWriter) -> dict[str, dict[str, MetricsReport]]:
    """Full pipeline for the three models; emits the two summary tables,
    the tidy metric series, and the optimizer convergence stream."""
    data = load_panels(config, min_history())
    penalties = {
        "factor": 0.0,
        "fair-factor": config.repro_lambda_factor,
        "fair-decision": config.repro_lambda_decision,
    }
    reports, convergence = write_scores(config, data, writer, penalties)

    def table_rows(quantity: str) -> list[str]:
        rows = []
        for model in MODEL_ORDER:
            report = reports[model][quantity]
            cells = [fmt(v) for v in report.rmse_by_group]
            rows.append(
                ",".join([model, *cells, fmt(report.fairness_difference), fmt(report.rmse_total)])
            )
        return rows

    group_header = ",".join(f"rmse_{g}" for g in reports["factor"]["mortality"].groups)
    writer.write_lines("table1.csv", [f"model,{group_header},difference,total", *table_rows("mortality")])
    writer.write_lines("table2.csv", [f"model,{group_header},difference,total", *table_rows("epv")])
    writer.write_lines("convergence.jsonl", (json.dumps(record, sort_keys=True) for record in convergence))
    return reports


def run_simulate(config: RunConfig, writer: ArtifactWriter) -> None:
    try:
        data, truth = synthesize(
            N=config.sim_ages,
            r=config.sim_r,
            group_sizes=config.sim_group_sizes,
            noise_scales=config.sim_noise_scales,
            seed=config.seed,
        )
    except DataError as exc:  # simulate reads no data: its sim_* settings are at fault
        raise ConfigError(f"sim_ages, sim_r, sim_group_sizes and sim_noise_scales do not fit: {exc}") from None
    writer.write_lines("panels.csv", panels_csv_lines(data.panels))
    writer.write_json(
        "truth.json",
        {
            "loading": truth.loading.tolist(),
            "factors": {g: f.tolist() for g, f in sorted(truth.factors.items())},
            "drifts": {g: d.tolist() for g, d in sorted(truth.drifts.items())},
        },
    )


def run_ingest(config: RunConfig, writer: ArtifactWriter) -> PreparedData:
    data = load_panels(config)
    writer.write_lines("panels_train.csv", panels_csv_lines(data.train.panels))
    writer.write_lines("panels_test.csv", panels_csv_lines(data.test.panels))
    return data


def run_fit(config: RunConfig, writer: ArtifactWriter) -> FitResult:
    data = load_panels(config)
    fit = fit_model(config, config.model, data.train, config.values["lambda"])
    writer.write_json("fit.json", fit.to_json_dict())
    log = ({"model": config.model, **rec} for rec in fit.iteration_log)
    writer.write_lines("convergence.jsonl", (json.dumps(rec, sort_keys=True) for rec in log))
    return fit


def run_cv(config: RunConfig, writer: ArtifactWriter):
    if config.model == "factor":
        raise ConfigError("cv tunes a fairness penalty: model must be fair-factor or fair-decision, got 'factor'")
    data = load_panels(config)
    g = transform_for_model(config, config.model, data.train)
    table = cross_validate_lambda(
        data.train,
        config.r,
        config.cv_lambdas,
        k=config.cv_folds,
        lambda_cap=config.cv_lambda_cap,
        g=g,
        opts=optimizer_options(config, 0.0),
        random_folds=config.cv_random_folds,
        jobs=config.jobs,
    )
    rows = [
        f"{fmt(row.penalty)},{fmt(row.cv_error)},{fmt(row.mean_gap)},"
        f"{int(row.feasible)},{int(row.penalty == table.chosen)}"
        for row in table.rows
    ]
    writer.write_lines("cv.csv", ["lambda,cv_error,mean_gap,feasible,chosen", *rows])
    writer.write_json(
        "cv.json",
        {
            "rows": [
                {
                    "lambda": row.penalty,
                    "cv_error": row.cv_error,
                    "mean_gap": row.mean_gap,
                    "feasible": row.feasible,
                }
                for row in table.rows
            ],
            "chosen_lambda": table.chosen,
            "gap_cap": table.gap_cap,
            "fallback": table.fallback,
        },
    )
    return table


def rates_csv_lines(rates: dict[str, np.ndarray], years_by_group, labels):
    """A group,year,age,value file's lines, its column header first."""
    return long_csv_lines(RATES_CSV_HEADER, ((g, years_by_group[g], labels, (rates[g],)) for g in sorted(rates)))


def _forecast_configured(config: RunConfig):
    """Load, fit and forecast the configured model over `horizon` years (the
    test window's length when 0). Returns (prepared data, forecast result,
    per-group factor models, forecast years per group)."""
    data = load_panels(config, min_history())
    horizon = config.horizon if config.horizon > 0 else min(p.n_years for p in data.test.panels)
    _, forecasted, models = fit_and_forecast(config, data, config.model, config.values["lambda"], horizon)
    years = {p.group: p.years[-1] + 1 + np.arange(horizon) for p in data.train.panels}
    return data, forecasted, models, years


def run_forecast(config: RunConfig, writer: ArtifactWriter):
    data, forecasted, models, years = _forecast_configured(config)
    ages = data.train.panels[0].ages
    writer.write_lines("forecast_rates.csv", rates_csv_lines(forecasted.rates, years, ages))
    writer.write_json(
        "models.json",
        {
            "models": {
                g: [m.to_json_dict() for m in cols] for g, cols in sorted(models.items())
            },
            "clipped_rates": forecasted.clipped,
        },
    )
    return forecasted


def run_price(config: RunConfig, writer: ArtifactWriter):
    data, forecasted, _, years = _forecast_configured(config)
    epvs = _epvs(config, forecasted.rates)
    ages = data.train.panels[0].ages
    start_ages = ages[: epv_width(len(ages), config.term)]
    writer.write_lines("epv.csv", rates_csv_lines(epvs, years, start_ages))
    return epvs


def read_rates_csv(path: str, years_by_group, ages) -> dict[str, np.ndarray]:
    """Read a group,year,age,value file, under long_csv_rows' rules, into
    per-group matrices over the given years (rows) and ages (columns). A
    negative value or a missing cell is a DataError; cells outside the given
    years and ages, and other groups, are ignored."""
    cells: dict[str, dict[tuple[int, int], float]] = {}
    with _data_lines(path) as lines:
        for lineno, group, year, age, (rate,) in long_csv_rows(lines, RATES_CSV_HEADER, "rates CSV"):
            if rate < 0.0:
                raise DataError(f"line {lineno}: value {rate!r} is negative")
            cells.setdefault(group, {})[(year, age)] = rate
        return {g: cell_matrix(g, cells.get(g, {}), years, ages) for g, years in years_by_group.items()}


def run_evaluate(config: RunConfig, writer: ArtifactWriter):
    data = load_panels(config, 1 if config.predictions else min_history())  # a predictions file needs no forecast
    penalties = {config.model: config.values["lambda"]}
    reports, _ = write_scores(config, data, writer, penalties, config.predictions)
    return reports[config.model]["mortality"], reports[config.model]["epv"]
