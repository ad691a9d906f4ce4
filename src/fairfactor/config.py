"""Run configuration: a flat key = value file plus command-line overrides.

Lines are `key = value`; blank lines and lines starting with # are ignored
(a # after a value is part of the value). Unknown keys are rejected.
Per-group data overrides use the dotted form `data.<group>`.
"""

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import OPEN_AGE_CLASS
from .transforms import ANNUITY_MODES

__all__ = ["ConfigError", "MODELS", "RunConfig", "parse_config_text", "resolve_config"]

DEFAULT_DISCOUNT = 1.0 / 1.05


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _parse_list(parse):
    """A parser of comma-separated values: an empty value lists nothing, and an empty element is an error."""

    def parse_list(raw: str) -> tuple:
        tokens = [tok.strip() for tok in raw.split(",")]
        if tokens == [""]:
            return ()
        if "" in tokens:
            raise ValueError("empty list element")
        return tuple(parse(tok) for tok in tokens)

    return parse_list


def _parse_optional_float(raw: str) -> float | None:
    return None if raw.strip() == "" else float(raw)


# key -> (parser, default), plus for a numeric key its least valid value
# (per element of a list; None where there is none). Every numeric value
# must also be finite.
_SCHEMA: dict[str, tuple] = {
    "data": (str, ""),
    "groups": (_parse_list(str), ("male", "female")),
    "age_min": (int, 0, None),
    "age_max": (int, 85, None),
    "year_min": (lambda s: None if s.strip() == "" else int(s), None, None),
    "year_max": (lambda s: None if s.strip() == "" else int(s), None, None),
    "train_cutoff": (int, 1989, None),
    "model": (str, "factor"),
    "r": (int, 1, 1),
    "lambda": (float, 0.0, 0),
    "term": (int, 10, 1),
    "discount": (float, DEFAULT_DISCOUNT, None),
    "annuity_mode": (str, "taylor"),
    "max_iterations": (int, 2000, 1),
    "epsilon": (float, 1e-6, None),
    "restarts": (int, 5, 1),
    "seed": (int, 0, 0),
    "cv_folds": (int, 5, 2),
    "cv_lambdas": (_parse_list(float), (0.0, 0.5, 1.0, 2.0, 5.0, 11.0, 20.0, 50.0), 0),
    "cv_lambda_cap": (_parse_optional_float, None, 0),
    "horizon": (int, 0, 0),
    "predictions": (str, ""),
    "sim_ages": (int, 20, 1),
    "sim_r": (int, 1, 1),
    "sim_group_sizes": (_parse_list(int), (60, 60), 2),
    "sim_noise_scales": (_parse_list(float), (2.0, 1.0), 0),
    "repro_lambda_factor": (float, 11.0, 0),
    "repro_lambda_decision": (float, 2.0, 0),
    "out": (str, ""),
    "jobs": (int, 1, 1),
}

MODELS = ("factor", "fair-factor", "fair-decision")

# execution details that do not change the scientific result
_HASH_EXEMPT = ("out", "jobs")


@dataclass(frozen=True)
class RunConfig:
    values: dict
    group_data: dict[str, str] = field(default_factory=dict)

    def __getattr__(self, key: str):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def data_path_for(self, group: str) -> str:
        path = self.group_data.get(group, self.values["data"])
        if not path:
            raise ConfigError(f"no data file configured for group {group!r} (set data= or data.{group}=)")
        return path

    def config_hash(self) -> str:
        parts = [
            f"{key}={self.values[key]!r}"
            for key in sorted(self.values)
            if key not in _HASH_EXEMPT
        ]
        parts += [f"data.{g}={p!r}" for g, p in sorted(self.group_data.items())]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source} line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source} line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"{source} line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def resolve_config(raw: dict[str, str]) -> RunConfig:
    """Validate raw strings against the schema and apply defaults."""
    values = {key: entry[1] for key, entry in _SCHEMA.items()}
    group_data: dict[str, str] = {}
    for key, raw_value in raw.items():
        if key.startswith("data."):
            group_data[key[len("data.") :]] = raw_value
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            values[key] = _SCHEMA[key][0](raw_value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw_value!r} ({exc})") from None
    for key, (_, _, *bound) in _SCHEMA.items():
        value = values[key]
        if not bound or value is None:
            continue
        least = -math.inf if bound[0] is None else bound[0]
        # nan fails every comparison, so it fails this one too
        if not all(least <= v < math.inf for v in (value if isinstance(value, tuple) else (value,))):
            at_least = "" if bound[0] is None else f" and at least {bound[0]}"
            raise ConfigError(f"{key} must be finite{at_least}, got {raw[key]!r}")
    if not values["cv_lambdas"] or len(set(values["cv_lambdas"])) < len(values["cv_lambdas"]):
        raise ConfigError(f"cv_lambdas must list one or more distinct penalties, got {raw['cv_lambdas']!r}")
    if values["model"] not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {values['model']!r}")
    if values["annuity_mode"] not in ANNUITY_MODES:
        raise ConfigError(f"annuity_mode must be one of {ANNUITY_MODES}, got {values['annuity_mode']!r}")
    if values["epsilon"] <= 0:
        raise ConfigError(f"epsilon must be positive, got {values['epsilon']}")
    if len(values["groups"]) < 2:
        raise ConfigError("need at least two groups")
    if len(set(values["groups"])) < len(values["groups"]):
        raise ConfigError(f"groups repeat a label: {values['groups']}")
    if not 0.0 < values["discount"] <= 1.0:
        raise ConfigError("discount must lie in (0, 1]")
    if not 0 <= values["age_min"] <= values["age_max"] <= OPEN_AGE_CLASS:
        raise ConfigError(f"need 0 <= age_min <= age_max <= {OPEN_AGE_CLASS}")
    n_ages = values["age_max"] - values["age_min"] + 1
    if values["term"] > n_ages:
        raise ConfigError(f"term {values['term']} exceeds the {n_ages} ages in age_min-age_max")
    if None not in (values["year_min"], values["year_max"]) and values["year_max"] < values["year_min"]:
        raise ConfigError("year_max must be at least year_min")
    unknown_groups = set(group_data) - set(values["groups"])
    if unknown_groups:
        raise ConfigError(f"data.* overrides for unknown groups: {sorted(unknown_groups)}")
    return RunConfig(values=values, group_data=group_data)


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    raw: dict[str, str] = {}
    if path:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        raw.update(parse_config_text(text, source=path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return resolve_config(raw)
