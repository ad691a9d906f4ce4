"""Run configuration: a flat key = value file plus command-line overrides.

Lines are `key = value`; blank lines and lines starting with # are ignored
(a # after a value is part of the value). Unknown keys are rejected.
Per-group data overrides use the dotted form `data.<group>`.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .transforms import ANNUITY_MODES

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "resolve_config"]

DEFAULT_DISCOUNT = 1.0 / 1.05


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _parse_optional_float(raw: str) -> float | None:
    return None if raw.strip() == "" else float(raw)


# key -> (parser, default)
_SCHEMA: dict[str, tuple] = {
    "data": (str, ""),
    "groups": (_parse_str_list, ("male", "female")),
    "age_min": (int, 0),
    "age_max": (int, 85),
    "year_min": (lambda s: None if s.strip() == "" else int(s), None),
    "year_max": (lambda s: None if s.strip() == "" else int(s), None),
    "train_cutoff": (int, 1989),
    "standardize": (_parse_bool, False),
    "model": (str, "factor"),
    "r": (int, 1),
    "lambda": (float, 0.0),
    "term": (int, 10),
    "discount": (float, DEFAULT_DISCOUNT),
    "annuity_mode": (str, "taylor"),
    "max_iterations": (int, 2000),
    "epsilon": (float, 1e-6),
    "restarts": (int, 5),
    "seed": (int, 0),
    "cv_folds": (int, 5),
    "cv_lambdas": (_parse_float_list, (0.0, 0.5, 1.0, 2.0, 5.0, 11.0, 20.0, 50.0)),
    "cv_lambda_cap": (_parse_optional_float, None),
    "cv_random_folds": (_parse_bool, False),
    "horizon": (int, 0),
    "predictions": (str, ""),
    "sim_ages": (int, 20),
    "sim_r": (int, 1),
    "sim_group_sizes": (_parse_int_list, (60, 60)),
    "sim_noise_scales": (_parse_float_list, (2.0, 1.0)),
    "repro_lambda_factor": (float, 11.0),
    "repro_lambda_decision": (float, 2.0),
    "out": (str, ""),
    "jobs": (int, 1),
}

_MODELS = ("factor", "fair-factor", "fair-decision")

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
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    group_data: dict[str, str] = {}
    for key, raw_value in raw.items():
        if key.startswith("data."):
            group_data[key[len("data.") :]] = raw_value
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw_value)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw_value!r} ({exc})") from None
    if values["model"] not in _MODELS:
        raise ConfigError(f"model must be one of {_MODELS}, got {values['model']!r}")
    if values["annuity_mode"] not in ANNUITY_MODES:
        raise ConfigError(f"annuity_mode must be one of {ANNUITY_MODES}, got {values['annuity_mode']!r}")
    if values["r"] < 1:
        raise ConfigError("r must be at least 1")
    if values["lambda"] < 0:
        raise ConfigError("lambda must be non-negative")
    if len(values["groups"]) < 2:
        raise ConfigError("need at least two groups")
    if not 0.0 < values["discount"] <= 1.0:
        raise ConfigError("discount must lie in (0, 1]")
    if values["term"] < 1:
        raise ConfigError("term must be at least 1")
    if values["age_max"] < values["age_min"]:
        raise ConfigError("age_max must be at least age_min")
    if None not in (values["year_min"], values["year_max"]) and values["year_max"] < values["year_min"]:
        raise ConfigError("year_max must be at least year_min")
    if values["horizon"] < 0:
        raise ConfigError("horizon must be non-negative")
    if values["jobs"] < 1:
        raise ConfigError("jobs must be at least 1")
    unknown_groups = set(group_data) - set(values["groups"])
    if unknown_groups:
        raise ConfigError(f"data.* overrides for unknown groups: {sorted(unknown_groups)}")
    return RunConfig(values=values, group_data=group_data)


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    raw: dict[str, str] = {}
    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        raw.update(parse_config_text(text, source=path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return resolve_config(raw)
