"""fairfactor benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; all files go under .perfbench_run/ at
its root. Every operation is a fresh process on the sources under src/
(PYTHONPATH=src, byte-compiled first). Operations form a closed loop with
one client: the next starts when the previous one has ended.

Inputs come from --seed alone. Operation i works on dataset i of the seed's
stream, so a faster program gets through more datasets; the quality metric
is taken over the workload's first `quality_set` datasets only, which every
run reaches. It is the mean over those datasets' fair fits of each fit's
progress: the share it achieves of the objective decrease that the paper's
method makes from the PCA start in as many iterations (perfbench/reference.py).
Dataset files sit at fixed paths, because the configuration hash inside
every artifact covers the data path. After the timed loop the first dataset
runs once more and its outputs must match byte for byte.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from spans recorded around every
public function of the package (perfbench/spans.py), from a matching
untraced run of each dataset for the tracing overhead, and from isolated
hot-piece timings (perfbench/child.py). The last line of standard output is
one JSON object; the lines before it give every metric with its unit, the
failure rate and the environment: CPU count, Python, numpy, BLAS and the
BLAS thread settings, inherited and in effect.

The program's processes run with one BLAS thread per process unless the
caller sets a thread count (BLAS_THREADS). OpenBLAS's default is a thread
per core; on a small shared machine its helper threads spin while another
process or the hypervisor holds a core, and one busy core made a paper-shape
repro operation take half as long again, so wall times measured the
machine's load, not the program.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from child import fit_key
from hmd import hmd_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
CHILD = BENCH / "child.py"
CLI_MAIN = "import sys; from fairfactor.cli import main; sys.exit(main())"

# Every fit is capped at a fixed iteration budget. Uncapped, the iteration
# count of one fair-decision fit swings 2x with the data seed (689 to 1347 at
# paper shape), and the number of fair-factor restarts that run long swings
# with the panel, so a wall time would mostly measure which data a seed drew.
# At this cap the fair-decision fits and most random fair-factor restarts
# spend their whole budget, wall time measures the cost of the work, and
# objective_progress measures how far the budget got.
CAP = 50
SETUP_REPEATS = 9
HARD_LIMIT_S = 170.0  # a run ends well inside 180 s whatever happens
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the program's BLAS threads: the caller's setting where there is one, else 1
BLAS_THREADS = {var: os.environ.get(var, "1") for var in THREAD_VARS}
MONOTONE_TOL = 1e-12  # the optimizer accepts steps that lose up to 1e-12
START_RTOL = 1e-10  # a fit's objective against its PCA start, two algebraic forms
BOUND_RTOL = 1e-9  # rounding between the Fantope bound's and the package's forms
REACH_RTOL = 1e-9  # a fit whose PCA start is already a minimum has nothing to gain

PAPER_DATA = dict(years=(1921, 2019), ages=(0, 85))
PAPER_CONFIG = {
    "groups": "male,female",
    "age_min": 0,
    "age_max": 85,
    "train_cutoff": 1989,
    "r": 1,
    "term": 10,
    "max_iterations": CAP,
}


def dataset_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


class CliWorkload:
    """A fairfactor CLI command on synthetic paper-shape HMD files."""

    strata = 1
    check_all = False  # fits checked against their PCA start: the quality set's

    def __init__(self, command, settings, expected, quality_set, jobs=1):
        self.command = command
        self.settings = {**PAPER_CONFIG, **settings}
        self.expected = expected
        self.quality_set = quality_set
        self.jobs = jobs

    def prepare(self, seed: int, i: int) -> str:
        data, config = f"data/hmd_{i}.txt", f"cfg/{i}.cfg"
        (RUN_DIR / data).write_text(hmd_text(**PAPER_DATA, seed=dataset_seed(seed, i)))
        lines = [f"data = {data}"] + [f"{k} = {v}" for k, v in self.settings.items()]
        (RUN_DIR / config).write_text("\n".join(lines) + "\n")
        return config

    def setup_command(self, config: str) -> list[str]:
        return [sys.executable, str(CHILD), "setup-cli", config]

    def command_for(self, config: str, out: str, trace_path: str, traced: bool) -> list[str]:
        """The CLI with spans (traced), recording only its fits (cv), or bare.

        The cv fits run in pool workers and leave no artifact of their
        objectives, so untraced cv operations record them from outside.
        """
        args = [self.command, "--config", config, "--out", out, "--jobs", str(self.jobs)]
        if traced:
            return [sys.executable, str(CHILD), "cli", trace_path, *args]
        if self.command == "cv":
            return [sys.executable, str(CHILD), "cli-fits", trace_path, *args]
        return [sys.executable, "-c", CLI_MAIN, *args]

    def check(self, op: dict) -> dict:
        """Failures, final objectives of the fair fits and output digest of one process."""
        if op["code"] != 0:
            return {"failures": [f"exit code {op['code']}: {op['stderr'][-300:]}"], "count": 1}
        out = RUN_DIR / op["out"]
        names = sorted(p.name for p in out.iterdir())
        if names != sorted(self.expected):
            return {"failures": [f"artifacts {names}, expected {sorted(self.expected)}"], "count": 1}
        digest = hashlib.sha256()
        for name in names:
            digest.update(name.encode() + b"\0" + (out / name).read_bytes())
        result = getattr(self, "_check_" + self.command)(out, op["spans"])
        return {**result, "digest": digest.hexdigest(), "count": 1}

    def _check_repro(self, out: Path, spans: list[dict]) -> dict:
        failures = []
        for table in ("table1.csv", "table2.csv"):
            rows = _csv_rows(out / table)
            if [r[0] for r in rows] != ["factor", "fair-factor", "fair-decision"]:
                failures.append(f"{table}: model rows {[r[0] for r in rows]}")
            if not all(math.isfinite(float(v)) for r in rows for v in r[1:]):
                failures.append(f"{table}: non-finite cell")
        objectives = defaultdict(list)
        for line in (out / "convergence.jsonl").read_text().splitlines():
            if not line.startswith("#"):
                record = json.loads(line)
                objectives[record["model"]].append(record["objective"])
        for model in ("fair-factor", "fair-decision"):
            values = objectives[model]
            if not values:
                failures.append(f"convergence.jsonl: no records for {model}")
            elif any(b - a > MONOTONE_TOL for a, b in zip(values, values[1:])):
                failures.append(f"convergence.jsonl: {model} objective increases")
        models = ("fair-factor", "fair-decision")
        return {"failures": failures, "quality": {m: objectives[m][-1] for m in models if objectives[m]}}

    def _check_cv(self, out: Path, spans: list[dict]) -> dict:
        failures = []
        grid = sorted(float(v) for v in str(self.settings["cv_lambdas"]).split(","))
        rows = _csv_rows(out / "cv.csv")
        if sorted(float(r[0]) for r in rows) != grid:
            failures.append(f"cv.csv: lambdas {[r[0] for r in rows]}, grid {grid}")
        result = json.loads((out / "cv.json").read_text())
        chosen = result["chosen_lambda"]
        if chosen not in grid:
            failures.append(f"cv.json: chosen lambda {chosen} not in the grid")
        errors = {row["lambda"]: row["cv_error"] for row in result["rows"]}
        if not all(math.isfinite(e) and e > 0 for e in errors.values()):
            failures.append(f"cv.json: cv_error values {errors}")
        fits = [s for s in spans if s["name"] == "optimizer.fit_fair_decision"]
        quality = {fit_key(s["penalty"], s["years"]): s["objective"] for s in fits}
        if len(quality) != len(fits) or len(fits) != self.settings["cv_folds"] * len(grid):
            failures.append(f"{len(fits)} fold fits recorded, {len(quality)} distinct")
        return {"failures": failures, "quality": quality, "cv_error": errors.get(chosen)}


class SimWorkload:
    """The criterion-4 fair-factor grid through the library, one panel per process.

    Panels alternate between ones that can reach error parity at rank 1 and
    ones that cannot (child.py strata). A panel of the first kind takes about
    a third longer, so a free mix would make the wall time follow the draw.
    """

    quality_set = 12
    strata = 2
    check_all = True  # every fit is checked against its PCA start
    jobs = 1

    def __init__(self):
        self.kinds: dict[str, list[int]] = {"reachable": [], "unreachable": []}

    def prepare(self, seed: int, i: int) -> str:
        kind = self.kinds["reachable" if i % 2 == 0 else "unreachable"]
        if len(kind) <= i // 2:
            count = str(max(32, 2 * (i // 2 + 1)))
            result = run_process([sys.executable, str(CHILD), "strata", str(seed), count], "strata", 120)
            if result["code"] != 0:
                raise RuntimeError(f"panel strata failed: {result['stderr'][-300:]}")
            self.kinds = json.loads(result["stdout"].splitlines()[-1])
            kind = self.kinds["reachable" if i % 2 == 0 else "unreachable"]
        return str(kind[i // 2])

    def setup_command(self, panel_seed: str) -> list[str]:
        return [sys.executable, str(CHILD), "setup-sim", panel_seed]

    def command_for(self, panel_seed: str, out: str, trace_path: str, traced: bool) -> list[str]:
        return [sys.executable, str(CHILD), "sim", panel_seed, trace_path if traced else "-", str(CAP)]

    def check(self, op: dict) -> dict:
        if op["code"] != 0:
            return {"failures": [f"exit code {op['code']}: {op['stderr'][-300:]}"], "count": 2}
        fits = json.loads(op["stdout"].splitlines()[-1])["fits"]
        failures = [f"lambda {f['penalty']}: {msg}" for f in fits for msg in f["failures"]]
        quality = {str(f["penalty"]): f["objective"] for f in fits}
        return {"failures": failures, "quality": quality, "digest": json.dumps(quality), "count": len(fits)}


WORKLOADS = {
    "repro-paper": CliWorkload(
        "repro",
        {"restarts": 5, "repro_lambda_factor": 11, "repro_lambda_decision": 2},
        ("table1.csv", "table2.csv", "metrics.csv", "metrics.json", "convergence.jsonl"),
        quality_set=2,
    ),
    "fair-factor-sim": SimWorkload(),
    "cv-decision": CliWorkload(
        "cv",
        {"model": "fair-decision", "cv_folds": 5, "cv_lambdas": "0,2", "restarts": 1},
        ("cv.csv", "cv.json"),
        quality_set=1,
        jobs=2,
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "objective_progress": "share"}
COUNT_METRICS = (
    "linalg.top_r_eigs_calls",
    "factor.fit_pca_calls",
    "optimizer.fits",
    "optimizer.best_iterations",
    "optimizer.converged_fits",
    "optimizer.max_iteration_fits",
    "optimizer.step_iterations",
    "metrics.cv_tasks",
)
PIECES = (
    "linalg.eigh86_s",
    "linalg.eigh40_s",
    "optimizer.step_s",
    "optimizer.step_iterations",
    "transforms.gradient_s",
    "transforms.epv_weights_s",
    "forecasting.drift_ar_s",
    "metrics.cv_fold_s",
)


def per_layer_unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "pipeline.bytes_written" else "s"


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "inherited": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "in_effect": BLAS_THREADS,
    }


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_process(cmd: list[str], tag: str, timeout: float) -> dict:
    """Run one process to its end; wall time, peak RSS and CPU time from wait4.

    The process leads its own session, so a timeout kills the whole group,
    pool workers included. wait4 reports the largest peak RSS among the
    process and the children it reaped, and their summed CPU time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
    out_path, err_path = RUN_DIR / "log" / f"{tag}.out", RUN_DIR / "log" / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=RUN_DIR, env=env, stdout=out, stderr=err, start_new_session=True
        )
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        timed_out = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": "timeout" if timed_out else proc.returncode,
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def read_spans(trace_path: Path) -> list[dict]:
    """Spans of the traced process and of its pool workers (`<path>.<pid>`)."""
    spans = []
    for path in sorted(trace_path.parent.glob(trace_path.name + "*")):
        spans += [json.loads(line) for line in path.read_text().splitlines()]
    return spans


def layer_metrics(spans: list[dict], cpu: float, jobs: int) -> dict:
    """Per-layer figures of one traced operation from its spans."""
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for span in spans:
        total[span["name"]] += span["end"] - span["start"]
        own[span["name"]] += span["self"]
        calls[span["name"]] += 1
    fits = [s for s in spans if s["name"] in ("optimizer.fit_fair_factor", "optimizer.fit_fair_decision")]
    writes = [s for s in spans if s["name"].startswith("pipeline.ArtifactWriter.write_")]
    cv_span = total["metrics.cross_validate_lambda"]
    return {
        "cli.import_s": total["cli.import"],
        "cli.cpu_s": cpu,
        "dataset.parse_hmd_1x1_s": total["dataset.parse_hmd_1x1"],
        "dataset.build_panel_s": total["dataset.build_panel"],
        "dataset.synthesize_s": total["dataset.synthesize"],
        "linalg.top_r_eigs_s": total["linalg.top_r_eigs"],
        "linalg.top_r_eigs_calls": calls["linalg.top_r_eigs"],
        "factor.fit_pca_s": total["factor.fit_pca"],
        "factor.fit_pca_calls": calls["factor.fit_pca"],
        "transforms.epv_weights_stack_s": total["transforms.epv_weights_stack"],
        "transforms.decision_errors_s": total["transforms.decision_errors"],
        "transforms.apply_transform_s": total["transforms.apply_transform"],
        "transforms.epv_matrix_s": total["transforms.epv_matrix"],
        "optimizer.fit_fair_decision_self_s": own["optimizer.fit_fair_decision"],
        "optimizer.fit_fair_factor_self_s": own["optimizer.fit_fair_factor"],
        "optimizer.fits": len(fits),
        "optimizer.best_iterations": sum(s["iterations"] for s in fits),
        "optimizer.converged_fits": sum(s["converged"] for s in fits),
        "optimizer.max_iteration_fits": sum(s["iterations"] >= s["max_iterations"] for s in fits),
        "forecasting.fit_factor_models_s": total["forecasting.fit_factor_models"],
        "forecasting.predict_mortality_s": total["forecasting.predict_mortality"],
        "metrics.metrics_s": total["metrics.metrics"],
        "metrics.cross_validate_lambda_s": cv_span,
        "metrics.cv_tasks": calls["metrics._evaluate_fold"],
        "metrics.cv_busy_ratio": total["metrics._evaluate_fold"] / (jobs * cv_span) if cv_span else 0.0,
        "pipeline.load_panels_s": total["pipeline.load_panels"],
        "pipeline.write_s": sum(s["end"] - s["start"] for s in writes),
        "pipeline.bytes_written": sum(s["bytes"] for s in writes),
    }


class Runner:
    """The closed loop of one benchmark run and its tallies."""

    def __init__(self, workload_name: str, seed: int, trace: bool):
        self.workload_name = workload_name
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.trace = trace
        self.started = time.perf_counter()
        self.inputs: list[str] = []
        self.ops: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.objectives: dict[int, dict[str, float]] = {}  # final objective of each fair fit
        self.cv_errors: dict[int, float] = {}  # cv_error of the chosen penalty
        self.progress: dict[int, list[float]] = {}  # progress of each scored fit
        self.setups: list[float] = []  # wall times of the set-up processes

    def time_left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def dataset(self, i: int) -> str:
        while len(self.inputs) <= i:
            self.inputs.append(self.workload.prepare(self.seed, len(self.inputs)))
        return self.inputs[i]

    def setups_due(self, share: float) -> None:
        """Set-ups up to `share` of SETUP_REPEATS, each a fresh process that
        imports the package and makes one dataset's inputs ready.

        The loop spreads them over the run, between operations, so that
        their median spans the machine's changes in speed as wall_s does.
        """
        while len(self.setups) < math.ceil(share * SETUP_REPEATS):
            k = len(self.setups)
            result = run_process(self.workload.setup_command(self.dataset(k)), f"setup{k}", self.time_left())
            if result["code"] != 0:
                raise RuntimeError(f"set-up failed: {result['stderr'][-500:]}")
            self.setups.append(result["wall"])

    def operate(self, i: int, traced: bool) -> dict:
        n = len(self.ops)
        out = f"out/{n}"
        trace_path = RUN_DIR / "trace" / f"op{n}.jsonl"
        cmd = self.workload.command_for(self.dataset(i), out, str(trace_path), traced)
        result = run_process(cmd, f"op{n}", self.time_left())
        spans = read_spans(trace_path)
        checked = self.workload.check({**result, "out": out, "spans": spans})
        problems, count = checked["failures"], checked["count"]
        digest = checked.get("digest")
        if digest and self.digests.setdefault(i, digest) != digest:
            problems.append(f"dataset {i}: outputs differ from its first run")
        if problems:
            self.failures += problems
        else:
            self.objectives.setdefault(i, checked["quality"])
            if "cv_error" in checked:
                self.cv_errors.setdefault(i, checked["cv_error"])
        self.attempted += count
        result.update(dataset=i, traced=traced, failed=count if problems else 0)
        if traced:
            result["layers"] = layer_metrics(spans, result["cpu"], self.workload.jobs)
        shutil.rmtree(RUN_DIR / out, ignore_errors=True)
        self.ops.append(result)
        return result

    def score_quality(self) -> None:
        """Check every fit against its PCA start and bound; score the quality set.

        A fit's score is its progress, (start - objective) / (start - ref):
        the share it achieves of the decrease that the paper's method makes
        from the PCA start in as many iterations (child.py refs). About 1 at
        the seed commit, 0 for a fit that returns its start. Raw objectives
        span 94 to 1.4e5 across the criterion-4 panels, so this share, not
        the objective, is averaged. Fits whose PCA start is already a
        minimum (the penalty-free fair-factor fits) have nothing to gain and
        are not scored.
        """
        quality_set = range(self.workload.quality_set)
        checked = [i for i in sorted(self.objectives) if self.workload.check_all or i in quality_set]
        scored = [i for i in checked if i in quality_set]
        cmd = [
            sys.executable, str(CHILD), "refs", self.workload_name, str(CAP), str(len(scored)),
            *(self.inputs[i] for i in checked),
        ]
        result = run_process(cmd, "refs", self.time_left())
        if result["code"] != 0:
            self.failures.append(f"reference values failed: {result['stderr'][-300:]}")
            return
        refs = json.loads(result["stdout"].splitlines()[-1])
        for i in checked:
            progress = []
            for key, objective in self.objectives[i].items():
                ref = refs[self.inputs[i]].get(key)
                if ref is None:
                    self.failures.append(f"dataset {i}: no reference for fit {key}")
                    continue
                start, reference, bound = ref["start"], ref["ref"], ref["bound"]
                if objective > start + START_RTOL * abs(start):
                    self.failures.append(f"dataset {i} fit {key}: objective {objective!r} above its PCA start {start!r}")
                if bound is not None and objective < bound - BOUND_RTOL * abs(bound):
                    self.failures.append(f"dataset {i} fit {key}: objective {objective!r} below its lower bound {bound!r}")
                if reference is not None and start - reference > REACH_RTOL * abs(start):
                    progress.append((start - objective) / (start - reference))
            if i in quality_set:
                self.progress[i] = progress

    def loop(self, seconds: float) -> None:
        kinds = (True, False) if self.trace else (False,)
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while True:
            if not self.trace:
                self.setups_due((time.perf_counter() - start) / seconds + 1 / SETUP_REPEATS)
            for traced in kinds:
                self.operate(i, traced)
            i += 1
            step = statistics.median(op["wall"] for op in self.ops) * len(kinds)
            if self.time_left() < 2 * step + 5:
                break
            # leave room for the repeat of dataset 0 after the timed loop
            if i >= self.workload.quality_set and time.perf_counter() + 2 * step > deadline:
                break
        self.operate(0, False)
        if not self.trace:
            self.setups_due(1.0)
        self.score_quality()
        missing = [j for j in range(self.workload.quality_set) if j not in self.progress]
        if missing:
            self.failures.append(f"datasets {missing} produced no checked outputs")


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def stratified_median(runner: Runner, ops: list[dict], value) -> float:
    """Mean over the workload's strata of the median of value(op) in each."""
    groups = defaultdict(list)
    for op in ops:
        groups[op["dataset"] % runner.workload.strata].append(value(op))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def end_to_end(runner: Runner) -> dict:
    progress = [v for values in runner.progress.values() for v in values]
    return {
        "wall_s": stratified_median(runner, runner.ops, lambda op: op["wall"]),
        "setup_s": statistics.median(runner.setups),
        "peak_rss_mb": stratified_median(runner, runner.ops, lambda op: op["rss_mb"]),
        "objective_progress": statistics.fmean(progress) if progress else 0.0,
    }


def per_layer(runner: Runner, pieces: dict) -> dict:
    traced = [op for op in runner.ops if op["traced"]]
    metrics = {
        name: stratified_median(runner, traced, lambda op: op["layers"][name])
        for name in traced[0]["layers"]
    }
    # each traced operation against its untraced twin, run right after it on
    # the same dataset, so that drift in machine speed cancels in the ratio
    twins = [(op, runner.ops[n + 1]) for n, op in enumerate(runner.ops) if op["traced"]]
    metrics["trace.overhead_ratio"] = statistics.median(a["wall"] / b["wall"] for a, b in twins) - 1.0
    for name in PIECES:
        metrics[name] = pieces.get(name, 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairfactor" / "__init__.py").is_file():
        print(f"error: no fairfactor sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    for sub in ("log", "out", "trace", "data", "cfg"):
        (RUN_DIR / sub).mkdir(parents=True)
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: the sources do not byte-compile", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, bool(args.trace))
    try:
        if args.trace:
            result = run_process([sys.executable, str(CHILD), "pieces", str(CAP)], "pieces", 120)
            pieces = json.loads(result["stdout"].splitlines()[-1]) if result["code"] == 0 else {}
            if not pieces:
                runner.failures.append(f"hot-piece timings failed: {result['stderr'][-300:]}")
            runner.loop(args.seconds)
            metrics = per_layer(runner, pieces)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            runner.loop(args.seconds)
            metrics = end_to_end(runner)
            units = END_TO_END_UNITS
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(op["failed"] for op in runner.ops)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"operations {len(runner.ops)} processes, {len(runner.inputs)} datasets")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    quality_set = range(runner.workload.quality_set)
    if runner.progress and not args.trace:
        raw = [v for i in quality_set for v in runner.objectives.get(i, {}).values()]
        print(f"objective_raw_gmean {gmean(raw)!r} (geometric mean of the final objectives of the fits on the scored datasets)")
        if runner.cv_errors:
            errors = [runner.cv_errors[i] for i in quality_set if i in runner.cv_errors]
            print(f"cv_error {gmean(errors)!r} (geometric mean over datasets of the chosen penalty's)")
    print("operation walls " + " ".join(f"{op['wall']:.3f}" for op in runner.ops))
    print(f"fail_rate {failed / max(runner.attempted, 1)!r} ratio ({failed} of {runner.attempted})")
    for problem in runner.failures:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
