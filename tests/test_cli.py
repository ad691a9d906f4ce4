import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import hmd_text

import fairfactor
from fairfactor.cli import main
from fairfactor.config import ConfigError, load_config, parse_config_text, resolve_config
from fairfactor.dataset import DataError, panels_from_csv, synthesize
from fairfactor.factor import FitResult, Loading
from fairfactor.forecasting import min_history
from fairfactor.pipeline import read_rates_csv
from fairfactor.transforms import epv_matrix


def run_cli(*args) -> int:
    return main(list(args))


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


BASE = "groups=male,female\nage_min=0\nage_max=15\ntrain_cutoff=1989\nterm=4\nr=1\nrestarts=2\n"


def write_cfg(tmp_path, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE + extra)
    return cfg


# ----------------------------------------------------------------- config


def test_config_rejects_unknown_keys():
    with pytest.raises(Exception, match="unknown configuration key"):
        resolve_config(parse_config_text("mystery = 1\n"))


def test_config_defaults_and_overrides(tmp_path):
    cfg = write_cfg(tmp_path)
    config = load_config(str(cfg), ["seed=7", "lambda=2.5"])
    assert config.seed == 7
    assert config.values["lambda"] == 2.5
    assert config.model == "factor"
    assert config.discount == pytest.approx(1 / 1.05)


def test_config_hash_ignores_out_dir(tmp_path):
    cfg = write_cfg(tmp_path)
    a = load_config(str(cfg), ["out=/tmp/a"]).config_hash()
    b = load_config(str(cfg), ["out=/tmp/b"]).config_hash()
    c = load_config(str(cfg), ["out=/tmp/a", "seed=9"]).config_hash()
    assert a == b != c


def test_config_validation_errors():
    for bad in (
        "model=mystery",
        "r=0",
        "lambda=-1",
        "discount=2",
        "groups=male",
        "groups=male,male",
        "age_min=-1",
        "age_max=111",
        "year_min=2000\nyear_max=1990",
        "annuity_mode=bogus",
        "line_search=exact-grid",
        "standardize=true",
        "cv_random_folds=true",
        "groups=male,,female",
        # the default model, factor, runs no optimizer and no cv, but these can never be valid
        "max_iterations=0",
        "restarts=0",
        "epsilon=-1",
        "cv_folds=1",
        "age_min=80\nterm=7",
    ):
        with pytest.raises(ConfigError):
            resolve_config(parse_config_text(bad))


def test_readme_example_config_resolves():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = resolve_config(parse_config_text(block))
    assert config.data == "/data/AUS.Mx_1x1.txt"
    assert config.groups == ("male", "female")
    assert config.train_cutoff == 1989
    assert config.model == "fair-decision"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    rates, groups = namespace["rates"], namespace["data"].groups
    assert sorted(rates) == sorted(groups) and all(rates[g].shape == (10, 40) for g in groups)


def test_per_group_data_overrides_pick_each_group_file():
    config = resolve_config(parse_config_text("data = both.txt\ndata.female = female.txt\n"))
    assert config.data_path_for("male") == "both.txt"
    assert config.data_path_for("female") == "female.txt"


def test_run_config_has_no_unknown_attribute():
    with pytest.raises(AttributeError, match="mystery"):
        resolve_config({}).mystery


def test_data_override_for_an_unknown_group_is_rejected():
    with pytest.raises(ConfigError, match="overrides for unknown groups: \\['other'\\]"):
        resolve_config(parse_config_text("data.other = x.txt\n"))


def test_no_data_file_for_a_group_is_a_config_error(tmp_path, capsys, hmd_file):
    cfg = write_cfg(tmp_path, f"data.male={hmd_file}\n")
    assert run_cli("ingest", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert "no data file configured for group 'female'" in record["message"]


def test_override_without_equals_is_a_config_error(tmp_path, capsys):
    assert run_cli("ingest", "--set", "seed", "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "override 'seed' is not key=value" in record["message"]


@pytest.mark.parametrize("key", ["standardize", "cv_random_folds"])
def test_removed_keys_are_unknown_before_any_data_file_is_read(tmp_path, capsys, key):
    # without the key, the missing data file is a data error (exit 3)
    settings = ["--set", f"{key}=true", "--set", f"data={tmp_path / 'missing.txt'}", "--set", "model=fair-decision"]
    assert run_cli("cv", *settings, "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and f"unknown configuration key '{key}'" in record["message"]
    assert run_cli("cv", *settings[2:], "--out", str(tmp_path / "o")) == 3


def test_jobs_flag_reaches_the_config(tmp_path, capsys, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\nmodel=fair-decision\n")
    assert run_cli("cv", "--config", str(cfg), "--jobs", "0", "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "jobs must be finite and at least 1, got '0'" in record["message"]


FUZZ_BYTES = b"=,#.x-9 \x00\x80\xc3\xff"
FUZZ_VALUES = [
    b"", b"nan", b"inf", b"-1", b"0", b"1e400", b"abc", b"1,2", b"true", b"9" * 5000, b"\xff\xfe", b"\x00"
]


def mutate_bytes(lines, rng, sep):
    """One to three random edits of a list of byte lines: replace the value
    after the last separator, delete, duplicate, swap or truncate a line, or
    insert a byte that may not be valid UTF-8."""
    lines = list(lines)
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(lines)))
        op = int(rng.integers(6))
        if op == 0:
            head, _, _ = lines[i].rpartition(sep)
            lines[i] = head + sep + FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        elif op == 3:
            j = int(rng.integers(len(lines)))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 4:
            lines[i] = lines[i][: int(rng.integers(len(lines[i]) + 1))]
        else:
            k = int(rng.integers(len(lines[i]) + 1))
            byte = FUZZ_BYTES[int(rng.integers(len(FUZZ_BYTES)))]
            lines[i] = lines[i][:k] + bytes([byte]) + lines[i][k:]
    return lines


def test_load_config_fuzz_fails_only_with_config_errors(tmp_path):
    # seeded mutations of the README example: every outcome is a resolved
    # configuration or a ConfigError (exit code 2)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    base = readme.split("```ini\n", 1)[1].split("```", 1)[0].encode().splitlines()
    rng = np.random.default_rng(2025)
    outcomes = {"resolved": 0, "rejected": 0}
    path = tmp_path / "fuzz.cfg"
    for _ in range(300):
        path.write_bytes(b"\n".join(mutate_bytes(base, rng, b"=")))
        try:
            load_config(str(path), [])
            outcomes["resolved"] += 1
        except ConfigError:
            outcomes["rejected"] += 1
    assert outcomes["resolved"] > 0 and outcomes["rejected"] > 0


def test_read_rates_csv_fuzz_fails_only_with_data_errors(tmp_path, hmd_file):
    # seeded mutations of a valid predictions file: every outcome is a rate
    # table or a DataError (exit code 3)
    from fairfactor.pipeline import load_panels

    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    test = load_panels(load_config(str(cfg), [])).test
    years_by_group = {p.group: p.years for p in test.panels}
    ages = test.panels[0].ages
    base = [row.encode() for row in observed_test_rows(cfg)]
    rng = np.random.default_rng(2026)
    outcomes = {"read": 0, "rejected": 0}
    path = tmp_path / "fuzz.csv"
    for _ in range(200):
        path.write_bytes(b"\n".join(mutate_bytes(base, rng, b",")) + b"\n")
        try:
            read_rates_csv(str(path), years_by_group, ages)
            outcomes["read"] += 1
        except DataError:
            outcomes["rejected"] += 1
    assert outcomes["read"] > 0 and outcomes["rejected"] > 0


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "command,setting",
    [
        ("fit", "lambda=nan"),
        ("fit", "lambda=inf"),
        ("fit", "epsilon=nan"),
        ("repro", "repro_lambda_factor=nan"),
        ("repro", "repro_lambda_decision=nan"),
        ("cv", "cv_lambdas=0,nan"),
        ("cv", "cv_lambda_cap=nan"),
        ("fit", "max_iterations=0"),
        ("fit", "restarts=0"),
        ("fit", "epsilon=-1"),
        ("fit", "epsilon=0"),
        ("cv", "cv_folds=1"),
        ("fit", "term=17"),
        ("cv", "term=30"),
        ("price", "term=30"),
        ("repro", "term=30"),
        ("fit", "seed=-1"),
        ("repro", "repro_lambda_factor=-1"),
        ("repro", "repro_lambda_decision=-1"),
        ("cv", "cv_lambdas=-1,2"),
        ("cv", "cv_lambdas=2,0,2"),
        ("cv", "cv_lambdas="),
        ("cv", "cv_lambdas=0,,2"),
        ("cv", "cv_lambdas=0,2,"),
        ("fit", "groups=male,,female"),
        ("cv", "cv_lambda_cap=-1"),
    ],
)
def test_non_finite_optimizer_settings_are_config_errors(tmp_path, capsys, hmd_file, command, setting):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\nmodel=fair-factor\ncv_folds=2\nmax_iterations=20\n")
    assert run_cli(command, "--config", str(cfg), "--set", setting, "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and setting.split("=")[0] in record["message"]


def test_cv_of_the_plain_factor_model_is_a_config_error(tmp_path, capsys):
    # the plain factor model has no penalty to cross-validate; the data file
    # does not exist, so exit code 2 shows nothing was read
    cfg = write_cfg(tmp_path, f"data={tmp_path / 'missing.txt'}\n")
    assert run_cli("cv", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "model" in record["message"]
    assert not any((tmp_path / "o").iterdir())


def test_a_non_finite_gradient_is_a_numerical_error(tmp_path, capsys, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\nmodel=fair-decision\nlambda=1e308\n")
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "FloatingPointError" and "penalty 1e+308" in record["message"]
    assert not (tmp_path / "o" / "fit.json").exists()


def test_exit_code_config_error(tmp_path, capsys):
    code = run_cli("fit", "--set", "mystery=1", "--out", str(tmp_path / "o"))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 2 and "mystery" in record["message"]


def test_exit_code_data_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "data=/nonexistent/file.txt\n")
    code = run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 3


def test_exit_code_empty_data_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("header\n\nYear Age Female Male Total\n")
    cfg = write_cfg(tmp_path, f"data={empty}\n")
    code = run_cli("ingest", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 3


def test_exit_code_malformed_data(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("header\n\nYear Age Female Male Total\n1950 0 nonsense 0.1 0.1\n")
    cfg = write_cfg(tmp_path, f"data={bad}\n")
    code = run_cli("ingest", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 3
    # partial outputs are removed on failure
    assert not list((tmp_path / "o").glob("*.csv"))


def test_malformed_line_of_a_per_group_file_names_that_file(tmp_path, capsys, hmd_file):
    lines = hmd_file.read_text().splitlines()
    year, age, *rates = lines[5].split()
    lines[5] = "  ".join([year, "x", *rates])
    female = tmp_path / "female.txt"
    female.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, f"data={hmd_file}\ndata.female={female}\n")
    assert run_cli("ingest", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "HmdFormatError"
    assert record["message"] == f"{female}: line 6: unreadable age 'x'"


def test_ingest_reads_each_group_from_its_own_file(tmp_path, hmd_file):
    other = tmp_path / "other.txt"
    other.write_text(hmd_text(seed=1))
    runs = {
        "mixed": f"data={hmd_file}\ndata.female={other}\n",
        "male": f"data={hmd_file}\n",
        "female": f"data={other}\n",
    }
    rows = {}
    for name, data in runs.items():
        assert run_cli("ingest", "--config", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / name)) == 0
        lines = (tmp_path / name / "panels_train.csv").read_text().splitlines()[2:]
        rows[name] = lines if name == "mixed" else [line for line in lines if line.startswith(f"{name},")]
    assert rows["mixed"] == rows["male"] + rows["female"]


def undecodable_copy(source: Path, target: Path) -> Path:
    """A copy of a text file with one byte that is not valid UTF-8."""
    data = source.read_bytes()
    target.write_bytes(data[:200] + b"\xff" + data[200:])
    return target


def test_undecodable_data_file_is_data_error(tmp_path, capsys, hmd_file):
    bad = undecodable_copy(hmd_file, tmp_path / "bad.txt")
    out = tmp_path / "o"
    code = run_cli("ingest", "--config", str(write_cfg(tmp_path)), "--set", f"data={bad}", "--out", str(out))
    record = json.loads(capsys.readouterr().err.strip())
    assert code == 3 and record["exit_code"] == 3 and record["error"] == "DataError"
    assert str(bad) in record["message"]
    assert not out.exists() or not list(out.iterdir())


def test_undecodable_predictions_file_is_data_error(tmp_path, capsys, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    pred_file = tmp_path / "pred.txt"
    pred_file.write_text("\n".join(observed_test_rows(cfg)) + "\n")
    bad = undecodable_copy(pred_file, tmp_path / "pred.csv")
    out = tmp_path / "o"
    code = run_cli("evaluate", "--config", str(cfg), "--set", f"predictions={bad}", "--out", str(out))
    record = json.loads(capsys.readouterr().err.strip())
    assert code == 3 and record["exit_code"] == 3 and record["error"] == "DataError"
    assert str(bad) in record["message"]
    assert not out.exists() or not list(out.iterdir())


def test_exit_code_empty_year_window(tmp_path, capsys, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    code = run_cli("ingest", "--config", str(cfg), "--set", "year_min=2050", "--out", str(tmp_path / "o"))
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert "2050-2005" in record["message"]


@pytest.mark.parametrize("cutoff", [1921, 1925, 2019, 3000])
def test_train_cutoff_without_a_forecastable_window_is_config_error(tmp_path, capsys, cutoff):
    # one training year, five, none left to test, and past the data: evaluate
    # forecasts, so each is a configuration error naming the key, the years
    # and the forecaster's minimum, raised before any fit
    data = tmp_path / "paper_years.txt"
    data.write_text(hmd_text(years=(1921, 2019)))
    cfg = write_cfg(tmp_path, f"data={data}\nmodel=factor\n")
    args = ["--config", str(cfg), "--set", f"train_cutoff={cutoff}"]
    assert run_cli("evaluate", *args, "--out", str(tmp_path / "e")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    message = record["message"]
    assert f"train_cutoff={cutoff}" in message and "1921-2019" in message
    assert f"at least {min_history()} training years" in message
    # ingest forecasts nothing: a short window is fine, a cutoff leaving no test year is not
    short_window = cutoff < 2019
    assert run_cli("ingest", *args, "--out", str(tmp_path / "i")) == (0 if short_window else 2)
    if not short_window:
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert f"train_cutoff={cutoff}" in message and "1921-2019" in message and "training years" not in message


LEAN_RUN = """
import json, sys
import numpy
# numpy releases that import these eagerly leave nothing to check
eager = {name for name in ("numpy.random", "numpy.ma") if name in sys.modules}
from fairfactor import cli

def loaded():
    return [name for name in ("numpy.random", "numpy.ma") if name in sys.modules and name not in eager]

seen = {"import": loaded()}
runs = {
    "cv": ["cv", "--set", "restarts=1"],
    "fit": ["fit", "--set", "restarts=1"],
    # a certified two-group fair-factor fit draws none of its restarts
    "fair-factor": ["fit", "--set", "model=fair-factor", "--set", "lambda=11", "--set", "restarts=5"],
}
for name, (command, *settings) in runs.items():
    args = ["--config", sys.argv[1], *settings, "--jobs", "1", "--out", sys.argv[2] + name]
    seen[name] = [cli.main([command, *args])]
    seen[name] += loaded()
print(json.dumps(seen))
"""


def test_single_start_runs_import_neither_numpy_random_nor_numpy_ma(tmp_path, hmd_file):
    # a fresh interpreter, since this one has imported both long ago: a fit
    # with one start draws nothing, nor does a certified fair-factor fit,
    # and contiguous folds need no generator
    cfg = write_cfg(
        tmp_path,
        f"data={hmd_file}\nmodel=fair-decision\ncv_lambdas=0,2\ncv_folds=3\nmax_iterations=5\n",
    )
    src = str(Path(fairfactor.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", LEAN_RUN, str(cfg), str(tmp_path / "o_")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == {"import": [], "cv": [0], "fit": [0], "fair-factor": [0]}


def test_artifact_writer_leaves_no_partial_file(tmp_path):
    from fairfactor.pipeline import ArtifactWriter

    def rows():
        yield "a,b"
        yield "1,2"
        raise RuntimeError("row source failed")

    writer = ArtifactWriter(tmp_path / "o", "abc", 0)
    writer.write_json("done.json", {"x": 1})
    with pytest.raises(RuntimeError):
        writer.write_lines("table.csv", rows())
    assert not (tmp_path / "o" / "table.csv").exists()
    writer.discard_all()
    assert not list((tmp_path / "o").iterdir())


def test_missing_out_dir_is_config_error(tmp_path, capsys, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    code = run_cli("ingest", "--config", str(cfg))
    assert code == 2


def test_exit_code_classification():
    from fairfactor.cli import _classify
    from fairfactor.config import ConfigError
    from fairfactor.dataset import DataError, panels_from_csv, synthesize
    from fairfactor.linalg import RankDeficientError

    assert _classify(ConfigError("x")) == 2
    assert _classify(ValueError("x")) == 2
    assert _classify(DataError("x")) == 3
    assert _classify(OSError("x")) == 3
    assert _classify(np.linalg.LinAlgError("x")) == 4
    assert _classify(RankDeficientError("x")) == 4
    assert _classify(RuntimeError("x")) == 4


# ------------------------------------------------------------- simulate


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--set", "sim_ages=6", "--set", "sim_group_sizes=8,8", "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    files1, files2 = read_outputs(out1), read_outputs(out2)
    assert set(files1) == {"panels.csv", "truth.json"}
    assert files1 == files2
    header = files1["panels.csv"].decode().splitlines()[0]
    assert header.startswith("# config_hash=") and "seed=11" in header


def test_simulate_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--seed", "1", "--out", str(out1)) == 0
    assert run_cli("simulate", "--seed", "2", "--out", str(out2)) == 0
    assert read_outputs(out1) != read_outputs(out2)


@pytest.mark.parametrize(
    "settings",
    [
        ["sim_r=0"],
        ["sim_group_sizes=8", "sim_noise_scales=1"],
        ["sim_group_sizes=1,8"],
        ["sim_noise_scales=1,2,3"],
        ["sim_noise_scales=-1,1"],
        ["sim_ages=0"],
        ["sim_group_sizes=5,1"],
        ["sim_noise_scales=-1"],
        ["sim_group_sizes=8,,8"],
        ["sim_noise_scales=1,,2"],
    ],
    ids=[
        "rank-zero", "one-group", "one-row-group", "mismatched-scales", "negative-scale",
        "no-ages", "one-row-last-group", "negative-scale-one-group", "empty-size", "empty-scale",
    ],
)
def test_simulate_bad_settings_are_config_errors(tmp_path, capsys, settings):
    overrides = [arg for s in settings for arg in ("--set", s)]
    assert run_cli("simulate", *overrides, "--out", str(tmp_path / "o")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and settings[-1].split("=")[0] in record["message"]


# ------------------------------------------------------------- pipeline


def test_ingest_schema(tmp_path, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    out = tmp_path / "o"
    assert run_cli("ingest", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "panels_train.csv").read_text().splitlines()
    assert lines[1] == "group,year,age,log_rate_centered,intercept"
    assert lines[2].startswith("male,1950,0,")
    test_lines = (out / "panels_test.csv").read_text().splitlines()
    years = {int(row.split(",")[1]) for row in test_lines[2:]}
    assert min(years) == 1990 and max(years) == 2005


def read_panel_file(path):
    with open(path) as fh:
        return panels_from_csv(fh)


def assert_same_panels(back, panels):
    assert [p.group for p in back] == [p.group for p in panels]
    for q, p in zip(back, panels):
        for name in ("years", "ages", "y", "intercept"):
            assert np.array_equal(getattr(q, name), getattr(p, name)), (p.group, name)


def test_pipeline_panel_files_read_back_exactly(tmp_path, hmd_file):
    from fairfactor.pipeline import load_panels

    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    out = tmp_path / "ingest"
    assert run_cli("ingest", "--config", str(cfg), "--out", str(out)) == 0
    data = load_panels(load_config(str(cfg), []))
    assert_same_panels(read_panel_file(out / "panels_train.csv"), data.train.panels)
    assert_same_panels(read_panel_file(out / "panels_test.csv"), data.test.panels)

    out = tmp_path / "simulate"
    assert run_cli("simulate", "--set", "sim_ages=6", "--set", "sim_r=2", "--seed", "11", "--out", str(out)) == 0
    simulated, _ = synthesize(N=6, r=2, group_sizes=[60, 60], noise_scales=[2.0, 1.0], seed=11)
    assert_same_panels(read_panel_file(out / "panels.csv"), simulated.panels)


def test_fit_factor_loading_orthonormal(tmp_path, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\nmodel=factor\nlambda=3\n")
    out = tmp_path / "o"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["meta"]["config_hash"]
    fit = FitResult.from_json_dict(payload)
    Loading(fit.loading.matrix)  # construction re-checks the invariant
    assert fit.converged


def test_fit_fair_factor_writes_convergence(tmp_path, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\nmodel=fair-factor\nlambda=5\n")
    out = tmp_path / "o"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "convergence.jsonl").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    records = [json.loads(line) for line in lines[1:]]
    assert records, "expected at least one iteration record"
    assert {"model", "iteration", "objective", "unfairness", "step_size"} <= set(records[0])
    objectives = [r["objective"] for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_forecast_and_price_schemas(tmp_path, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\nmodel=factor\nhorizon=5\n")
    out = tmp_path / "o"
    assert run_cli("forecast", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "forecast_rates.csv").read_text().splitlines()
    assert lines[1] == "group,year,age,value"
    first = lines[2].split(",")
    assert first[0] == "female" and first[1] == "1990"
    assert 0.0 <= float(first[3]) <= 1.0
    models = json.loads((out / "models.json").read_text())
    assert set(models["models"]) == {"male", "female"}

    out2 = tmp_path / "p"
    assert run_cli("price", "--config", str(cfg), "--out", str(out2)) == 0
    lines = (out2 / "epv.csv").read_text().splitlines()
    assert lines[1] == "group,year,age,value"
    values = [float(row.split(",")[3]) for row in lines[2:]]
    max_epv = sum((1 / 1.05) ** s for s in range(4))
    assert all(1.0 <= v <= max_epv + 1e-9 for v in values)
    ages = {int(row.split(",")[2]) for row in lines[2:]}
    assert max(ages) == 15 - 4 + 2  # N - n + 2 start ages
    # price's EPVs are the forecast rates priced
    years = {g: np.arange(1990, 1995) for g in ("male", "female")}
    rates = read_rates_csv(str(out / "forecast_rates.csv"), years, np.arange(16))
    epvs = read_rates_csv(str(out2 / "epv.csv"), years, np.arange(14))
    for group, m in rates.items():
        assert np.array_equal(epvs[group], epv_matrix(m, 4, 1 / 1.05))


def observed_test_rows(cfg) -> list[str]:
    """A predictions file holding the observed rates of the test window."""
    from fairfactor.pipeline import fmt, load_panels

    data = load_panels(load_config(str(cfg), []))
    rows = ["group,year,age,value"]
    for p in data.test.panels:
        m = p.rates()
        for t, year in enumerate(p.years):
            for i, age in enumerate(p.ages):
                rows.append(f"{p.group},{year},{age},{fmt(m[t, i])}")
    return rows


def test_evaluate_identity_predictions_zero_metrics(tmp_path, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("\n".join(observed_test_rows(cfg)) + "\n")

    out = tmp_path / "o"
    code = run_cli(
        "evaluate", "--config", str(cfg), "--set", f"predictions={pred_file}", "--out", str(out)
    )
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[1] == "model,quantity,group,scope,key,value"
    for row in lines[2:]:
        assert float(row.split(",")[5]) == 0.0


def shift_years(rows):
    shifted = []
    for row in rows[1:]:
        group, year, age, value = row.split(",")
        shifted.append(f"{group},{int(year) + 7},{age},{value}")
    return rows[:1] + shifted


def negate_first_age_3(rows):
    """The first test year's rate at age 3 of the first group, made negative."""
    i = next(i for i, row in enumerate(rows) if row.split(",")[2] == "3")
    group, year, age, value = rows[i].split(",")
    return rows[:i] + [f"{group},{year},{age},-{value}"] + rows[i + 1 :]


@pytest.mark.parametrize(
    "edit, message",
    [
        (shift_years, "year 1990, age 0"),  # every year off by +7
        (lambda rows: [r for r in rows if not r.startswith("male,2005,15,")], "year 2005, age 15"),
        (lambda rows: rows[:2] + ["male,1990,one,0.5"] + rows[3:], "line 3"),
        (negate_first_age_3, "line 5"),  # the header, then ages 0 to 3
        (lambda rows: rows[1:], "line 1: unexpected rates CSV header"),  # no header
        (lambda rows: rows[:3] + rows[:1] + rows[3:], "line 4: unreadable"),  # a second header
        (lambda rows: ["# no rows"], "no rates CSV header"),
    ],
    ids=["shifted-years", "ragged", "malformed-row", "negative-rate", "no-header", "second-header", "no-rows"],
)
def test_evaluate_rejects_mismatched_predictions(tmp_path, capsys, hmd_file, edit, message):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("\n".join(edit(observed_test_rows(cfg))) + "\n")
    out = tmp_path / "o"
    code = run_cli("evaluate", "--config", str(cfg), "--set", f"predictions={pred_file}", "--out", str(out))
    record = json.loads(capsys.readouterr().err.strip())
    assert code == 3 and record["error"] == "DataError"
    assert message in record["message"]
    assert not list(out.glob("metrics.*"))


def test_predictions_may_open_with_comment_and_blank_lines(tmp_path, hmd_file):
    from fairfactor.pipeline import load_panels

    cfg = write_cfg(tmp_path, f"data={hmd_file}\n")
    test = load_panels(load_config(str(cfg), [])).test
    years_by_group = {p.group: p.years for p in test.panels}
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("# written by hand\n\n" + "\n".join(observed_test_rows(cfg)) + "\n")
    rates = read_rates_csv(str(pred_file), years_by_group, test.panels[0].ages)
    for p in test.panels:
        assert np.array_equal(rates[p.group], p.rates())


def test_evaluate_real_forecast(tmp_path, hmd_file):
    cfg = write_cfg(tmp_path, f"data={hmd_file}\nmodel=factor\n")
    out = tmp_path / "o"
    assert run_cli("evaluate", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "metrics.csv").read_text().splitlines()[2:]
    cells = [row.split(",") for row in lines]
    quantities = {c[1] for c in cells}
    scopes = {c[3] for c in cells}
    assert quantities == {"mortality", "epv"}
    assert scopes == {"total", "fairness", "group", "age", "year"}
    totals = [float(c[5]) for c in cells if c[3] == "total"]
    assert all(v > 0 for v in totals)


def test_repro_schema_and_determinism(tmp_path, hmd_file):
    cfg = write_cfg(
        tmp_path,
        f"data={hmd_file}\nrepro_lambda_factor=3\nrepro_lambda_decision=1\nmax_iterations=300\n",
    )
    for groups, header in (
        ("male,female", "rmse_female,rmse_male"),
        ("male,female,total", "rmse_female,rmse_male,rmse_total"),
    ):
        out1, out2 = tmp_path / f"{groups}-a", tmp_path / f"{groups}-b"
        assert run_cli("repro", "--config", str(cfg), "--set", f"groups={groups}", "--out", str(out1)) == 0
        assert run_cli("repro", "--config", str(cfg), "--set", f"groups={groups}", "--out", str(out2)) == 0
        files1, files2 = read_outputs(out1), read_outputs(out2)
        assert set(files1) == {"table1.csv", "table2.csv", "metrics.csv", "metrics.json", "convergence.jsonl"}
        assert files1 == files2

        for table in ("table1.csv", "table2.csv"):
            lines = files1[table].decode().splitlines()
            assert lines[1] == f"model,{header},difference,total"
            models = [row.split(",")[0] for row in lines[2:]]
            assert models == ["factor", "fair-factor", "fair-decision"]
            for row in lines[2:]:
                cells = [float(v) for v in row.split(",")[1:]]
                assert len(cells) == len(groups.split(",")) + 2
                # the emitted difference and total are consistent with the groups:
                # the difference is the largest minus the smallest group RMSE
                rmse = cells[:-2]
                assert cells[-2] == pytest.approx(max(rmse) - min(rmse), rel=1e-9)

        convergence = files1["convergence.jsonl"].decode().splitlines()[1:]
        models_seen = {json.loads(line)["model"] for line in convergence}
        assert models_seen == {"fair-factor", "fair-decision"}


def test_cv_command(tmp_path, hmd_file):
    cfg = write_cfg(
        tmp_path,
        f"data={hmd_file}\nmodel=fair-factor\ncv_lambdas=0,5\ncv_folds=3\nmax_iterations=150\n",
    )
    out = tmp_path / "o"
    assert run_cli("cv", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "cv.csv").read_text().splitlines()
    assert lines[1] == "lambda,cv_error,mean_gap,feasible,chosen"
    rows = [row.split(",") for row in lines[2:]]
    assert len(rows) == 2
    assert sum(int(r[4]) for r in rows) == 1
    payload = json.loads((out / "cv.json").read_text())
    assert payload["chosen_lambda"] in (0.0, 5.0)
    assert len(payload["rows"]) == 2
