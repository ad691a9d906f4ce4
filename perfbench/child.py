"""Processes the benchmark starts; run with PYTHONPATH=src and cwd in the run directory.

    child.py setup-cli CONFIG         import, resolve the config, load the panels
    child.py setup-sim SEED           import, synthesize the criterion-4 panel
    child.py cli TRACE ARGS...        the fairfactor CLI with spans recorded
    child.py cli-fits FITS ARGS...    the fairfactor CLI recording its fits only
    child.py sim SEED TRACE CAP       the fair-factor grid on one panel
    child.py pieces CAP               isolated hot-piece timings
    child.py strata SEED COUNT        panel seeds of each kind (parity reachable or not)
    child.py refs WORKLOAD CAP SCORED INPUT...  start, reference, bound of each fit

TRACE is a span file path, or `-` for no spans; CAP is the iteration cap.
All but the first four print one JSON object on standard output. Untraced
repro operations do not come here: the benchmark runs the CLI's `main` itself.
"""

import json
import math
import statistics
import sys
import time

import spans  # the benchmark's span recorder, beside this file

# criterion-4 shape (acceptance suite) for the fair-factor grid
SIM_SHAPE = dict(N=40, r=1, group_sizes=[60, 60], noise_scales=[2.0, 1.0])
SIM_PENALTIES = (0.0, 10.0)
SIM_RESTARTS = 20
# objectives may rise by the optimizer's own improvement tolerance
MONOTONE_TOL = 1e-12


def _traced_import(trace_path: str, only=None):
    """Import fairfactor, timing it; install spans when a path is given."""
    start = time.perf_counter()
    import fairfactor.cli  # noqa: F401

    import_s = time.perf_counter() - start
    recorder = None
    if trace_path != "-":
        recorder = spans.Recorder(trace_path)
        spans.install(recorder, only)
    return import_s, recorder


def setup_cli(config_path: str) -> None:
    from fairfactor import pipeline
    from fairfactor.config import load_config

    pipeline.load_panels(load_config(config_path, []))


def setup_sim(seed: str) -> None:
    from fairfactor import synthesize

    synthesize(**SIM_SHAPE, seed=int(seed))


def run_cli(trace_path: str, *argv: str, only=None) -> int:
    import_s, recorder = _traced_import(trace_path, only)
    from fairfactor import cli

    try:
        return cli.main(list(argv))
    finally:
        _finish(recorder, import_s)


def _finish(recorder, import_s: float) -> None:
    if recorder is not None:
        recorder.add("cli.import", import_s)
        recorder.flush()


def run_sim(seed: str, trace_path: str, max_iterations: str) -> int:
    """Both grid fits of one panel; the objective checks against the PCA start
    and the reference values run afterwards, outside this process (refs)."""
    import_s, recorder = _traced_import(trace_path)
    from fairfactor import dataset, optimizer

    fits = []
    try:
        data, _ = dataset.synthesize(**SIM_SHAPE, seed=int(seed))
        for penalty in SIM_PENALTIES:
            opts = optimizer.OptimizerOptions(
                penalty=penalty, restarts=SIM_RESTARTS, max_iterations=int(max_iterations)
            )
            trace_values = optimizer.fit_fair_factor(data, SIM_SHAPE["r"], opts).objective_trace
            failures = []
            if any(b - a > MONOTONE_TOL for a, b in zip(trace_values, trace_values[1:])):
                failures.append("objective trace increases")
            if not math.isfinite(trace_values[-1]):
                failures.append("final objective is not finite")
            fits.append({"penalty": penalty, "objective": trace_values[-1], "failures": failures})
    finally:
        _finish(recorder, import_s)
    print(json.dumps({"fits": fits}))
    return 0


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pieces(cap: str) -> int:
    """Hot pieces timed alone on fixed seed-0 inputs, each a median of repeats."""
    import numpy as np

    from fairfactor import (
        GroupedPanel,
        OptimizerOptions,
        annuity_transform_for,
        build_panel,
        fair_decision_gradient,
        fit_factor_models,
        fit_fair_decision,
        fit_pca,
        parse_hmd_1x1,
        split_train_test,
        synthesize,
        top_r_eigs,
    )
    from fairfactor.transforms import apply_transform, epv_weights_stack
    from hmd import hmd_text

    ages, years = (0, 85), (1921, 2019)
    table = parse_hmd_1x1(hmd_text(years=years, ages=ages, seed=0))
    train = GroupedPanel(
        tuple(
            split_train_test(build_panel(table, group, ages=ages, years=years), 1989)[0]
            for group in ("male", "female")
        )
    )
    Y86 = train.stacked()
    Y40 = synthesize(**SIM_SHAPE, seed=0)[0].stacked()
    g = annuity_transform_for(train, term=10, discount=1.0 / 1.05)
    pca = fit_pca(train, 1)
    out = {
        "linalg.eigh86_s": _median_time(lambda: top_r_eigs(Y86.T @ Y86, 2), 3),
        "linalg.eigh40_s": _median_time(lambda: top_r_eigs(Y40.T @ Y40, 2), 5),
        "transforms.gradient_s": _median_time(
            lambda: fair_decision_gradient(train, pca.loading, 2.0, g), 5
        ),
        "transforms.epv_weights_s": _median_time(
            lambda: epv_weights_stack(train.panels[0].rates(), 10, 1.0 / 1.05), 5
        ),
        "forecasting.drift_ar_s": _median_time(lambda: fit_factor_models(pca), 5),
    }

    # one optimizer step: the difference of two capped fits over the difference
    # of their iterations; both take the PCA start computed above, so the
    # eigensolve and its timing noise drop out of the step
    from fairfactor import optimizer

    def capped_fit(data, iterations):
        opts = OptimizerOptions(penalty=2.0, restarts=1, max_iterations=iterations)
        start = time.perf_counter()
        fit = fit_fair_decision(data, 1, opts, g)
        return time.perf_counter() - start, fit

    steps = []
    optimizer.fit_pca = lambda data, r: pca
    try:
        for _ in range(3):
            (t_short, short), (t_long, long) = capped_fit(train, 1), capped_fit(train, 41)
            steps.append((t_long - t_short, long.iterations - short.iterations))
    finally:
        optimizer.fit_pca = fit_pca
    out["optimizer.step_s"] = statistics.median(t / max(n, 1) for t, n in steps)
    out["optimizer.step_iterations"] = statistics.median(n for _, n in steps)

    # one contiguous cv-decision fold: fit on the other rows, score the held-out block
    def cv_fold():
        held = [np.array_split(np.arange(p.n_years), 5)[0] for p in train.panels]
        kept = GroupedPanel(
            tuple(p.take_rows(np.setdiff1d(np.arange(p.n_years), h)) for p, h in zip(train.panels, held))
        )
        _, fit = capped_fit(kept, int(cap))
        P = fit.loading.projector()
        for p, h in zip(train.panels, held):
            apply_transform(g, p.group, p.y[h] @ P) - apply_transform(g, p.group, p.y[h])

    out["metrics.cv_fold_s"] = _median_time(cv_fold, 1)
    print(json.dumps(out))
    return 0


def run_strata(seed: str, count: str) -> int:
    """The first COUNT panel seeds of each kind in the seed's stream.

    A panel can reach error parity at rank 1 when the gap of the groups'
    total errors lies within the spectrum of the gap of their Gram matrices.
    Fits on the two kinds behave differently (unreachable ones stop within
    about ten iterations near the PCA start, reachable ones run to the cap),
    so the benchmark takes them in equal numbers.
    """
    import numpy as np

    from fairfactor import synthesize

    kinds = {"reachable": [], "unreachable": []}
    panel_seed = int(seed) * 1000
    while min(len(v) for v in kinds.values()) < int(count):
        data, _ = synthesize(**SIM_SHAPE, seed=panel_seed)
        y1, y2 = (p.y for p in data.panels)
        gram_gap = y1.T @ y1 / len(y1) - y2.T @ y2 / len(y2)
        total_gap = float((y1 * y1).sum() / len(y1) - (y2 * y2).sum() / len(y2))
        low, high = np.linalg.eigvalsh(gram_gap)[[0, -1]]
        kind = kinds["reachable" if low <= total_gap <= high else "unreachable"]
        if len(kind) < int(count):
            kind.append(panel_seed)
        panel_seed += 1
    print(json.dumps(kinds))
    return 0


def run_refs(workload: str, cap: str, scored: str, *inputs: str) -> int:
    """Start, reference and lower bound of every fair fit on each input.

    start: the objective at the PCA loading (numpy's eigh, not the package's
    eigensolver), where every fit's first run begins. ref: the best
    objective that CAP iterations of the paper's method, as written out in
    perfbench/reference.py, reach from the fit's starts: the PCA loading and
    restarts - 1 random draws, taken as the package takes them. bound: for
    fair-factor fits, the certified Fantope lower bound (perfbench/fantope.py).
    ref and bound are null beyond the first SCORED inputs, and bound for
    decision fits. Keys name the fit as the benchmark's checks do: the
    model (repro-paper), the penalty (fair-factor-sim), or the penalty and
    training years (cv-decision).
    """
    import numpy as np

    from fairfactor import annuity_taylor_objective, fair_factor_objective, pipeline, synthesize
    from fairfactor.config import load_config
    from fairfactor.dataset import GroupedPanel
    from fairfactor.factor import Loading
    from fairfactor.transforms import epv_weights_stack
    from fantope import lower_bound
    from reference import descend, factor_problem, taylor_problem

    iterations = int(cap)

    def starts(ys, restarts, seed):
        """The PCA loading, then the package's random draws (Gaussian, normalized at rank 1)."""
        Y = np.vstack(ys)
        rng = np.random.default_rng(seed)
        draws = [rng.standard_normal((Y.shape[1], 1))[:, 0] for _ in range(restarts - 1)]
        return [np.linalg.eigh(Y.T @ Y)[1][:, -1]] + [d / np.linalg.norm(d) for d in draws]

    def reference(problem, objective, ys, restarts, seed, score):
        vs = starts(ys, restarts, seed) if score else starts(ys, 1, seed)
        out = {"start": objective(vs[0]), "ref": None, "bound": None}
        if score:
            out["ref"] = min(objective(descend(problem, v, iterations)) for v in vs)
        return out

    def factor_fit(data, penalty, restarts, seed, score):
        ys = [p.y for p in data.panels]
        objective = lambda v: fair_factor_objective(data, Loading(np.sqrt(len(v)) * v[:, None]), penalty)
        # without the penalty the PCA loading is the minimum (Eckart-Young): nothing to gain
        out = reference(factor_problem(ys, penalty), objective, ys, restarts, seed, score and penalty > 0)
        if score:
            out["bound"] = lower_bound(ys, 1, penalty)
        return out

    def decision_fit(data, penalty, g, restarts, seed, score):
        ys = [p.y for p in data.panels]
        intercepts = [g.intercept_for(p.group) for p in data.panels]
        weights = [
            epv_weights_stack(np.clip(np.exp(y + a), 0.0, 1.0), g.term, g.discount)
            for y, a in zip(ys, intercepts)
        ]
        problem = taylor_problem(ys, intercepts, weights, penalty)
        objective = lambda v: annuity_taylor_objective(data, Loading(np.sqrt(len(v)) * v[:, None]), penalty, g)
        return reference(problem, objective, ys, restarts, seed, score)

    out = {}
    for n, item in enumerate(inputs):
        score = n < int(scored)
        if workload == "fair-factor-sim":
            data = synthesize(**SIM_SHAPE, seed=int(item))[0]
            out[item] = {
                str(penalty): factor_fit(data, penalty, SIM_RESTARTS, 0, score) for penalty in SIM_PENALTIES
            }
            continue
        config = load_config(item, [])
        train = pipeline.load_panels(config).train
        g = pipeline.transform_for_model(config, "fair-decision", train)
        restarts, seed = config.restarts, config.seed
        if workload == "repro-paper":
            out[item] = {
                "fair-factor": factor_fit(train, config.repro_lambda_factor, restarts, seed, score),
                "fair-decision": decision_fit(train, config.repro_lambda_decision, g, restarts, seed, score),
            }
            continue
        # cv-decision: the contiguous folds of cross_validate_lambda, and lambda = 0
        # besides the grid, since the default gap cap needs it
        folds = [np.array_split(np.arange(p.n_years), config.cv_folds) for p in train.panels]
        out[item] = {}
        for j in range(config.cv_folds):
            kept = GroupedPanel(
                tuple(p.take_rows(np.setdiff1d(np.arange(p.n_years), f[j])) for p, f in zip(train.panels, folds))
            )
            for penalty in sorted({0.0, *map(float, config.cv_lambdas)}):
                out[item][fit_key(penalty, kept.panels[0].years)] = decision_fit(
                    kept, penalty, g, restarts, seed, score
                )
    print(json.dumps(out))
    return 0


def fit_key(penalty: float, years) -> str:
    """Names one cross-validation fit by its penalty and training years."""
    return f"{float(penalty)!r}:" + ",".join(str(int(y)) for y in years)


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup-cli":
        setup_cli(*args)
    elif mode == "setup-sim":
        setup_sim(*args)
    elif mode == "cli":
        return run_cli(*args)
    elif mode == "cli-fits":
        return run_cli(*args, only=spans.FIT_NAMES)
    elif mode == "sim":
        return run_sim(*args)
    elif mode == "pieces":
        return run_pieces(*args)
    elif mode == "strata":
        return run_strata(*args)
    elif mode == "refs":
        return run_refs(*args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
