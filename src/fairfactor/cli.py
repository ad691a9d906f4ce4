"""Command-line interface: ingest, fit, cv, forecast, price, evaluate, simulate, repro."""

import argparse
import json
import sys

import numpy as np

from . import pipeline
from .config import ConfigError, load_config
from .dataset import DataError
from .linalg import RankDeficientError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_COMMANDS = {
    "ingest": (pipeline.run_ingest, "parse the data files and write train/test panels"),
    "fit": (pipeline.run_fit, "fit the configured model on the training window"),
    "cv": (pipeline.run_cv, "cross-validate the fairness penalty on the training window"),
    "forecast": (pipeline.run_forecast, "fit, then forecast mortality rates"),
    "price": (pipeline.run_price, "fit, forecast, and price the annuity-due"),
    "evaluate": (pipeline.run_evaluate, "score forecasts against the held-out years"),
    "simulate": (pipeline.run_simulate, "write a synthetic grouped panel with known truth"),
    "repro": (pipeline.run_repro, "run all three models end to end and emit summary tables"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfactor",
        description="Fairness-regularized factor models for grouped mortality panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a key = value configuration file")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a configuration key (repeatable)",
        )
        cmd.add_argument("--out", help="output directory (same as --set out=...)")
        cmd.add_argument("--seed", type=int, help="random seed (same as --set seed=...)")
        cmd.add_argument(
            "--jobs", type=int, help="worker processes for cv's fold fits; the other commands ignore it"
        )
    return parser


def _classify(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (DataError, OSError)):
        return EXIT_DATA
    # LinAlgError and RankDeficientError subclass ValueError: test them first
    if isinstance(exc, (np.linalg.LinAlgError, RankDeficientError, FloatingPointError)):
        return EXIT_NUMERICAL
    if isinstance(exc, ValueError):
        return EXIT_CONFIG
    return EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.out is not None:
        overrides.append(f"out={args.out}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.jobs is not None:
        overrides.append(f"jobs={args.jobs}")
    writer = None
    try:
        config = load_config(args.config, overrides)
        writer = pipeline.ArtifactWriter(config.out, config.config_hash(), config.seed)
        runner, _ = _COMMANDS[args.command]
        runner(config, writer)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never raises
        if writer is not None:
            writer.discard_all()
        code = _classify(exc)
        record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
