"""Run configuration: INI file loading, defaults, canonical digest.

Sections mirror modules ([run], [task], [paths], [gateway], [gp],
[surrogate], [local_search]).  Every key has a shipped default, and
`parse_config` checks every bound before it returns; secrets never live
in the file (the gateway reads the API key from the environment variable
named by `api_key_env`).
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .evolution import GpSettings
from .gateway import DEFAULT_MAX_NEW_TOKENS, DEFAULT_TEMPERATURE
from .localsearch import LocalSearchSettings
from .surrogate import SurrogateSettings
from .tasks import METRICS, TaskSettings


class ConfigError(ValueError):
    pass


@dataclass
class PathSettings:
    grammar: str = ""
    stopwords: str = ""
    synonyms: str = ""
    workdir: str = "runs/default"


@dataclass
class GatewaySettings:
    backend: str = "echo"
    endpoint: str = ""
    model: str = "mock"
    edit_model: str = ""
    api_key_env: str = ""
    timeout: float = 120.0
    max_attempts: int = 3
    backoff_base: float = 1.0
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    cache_file: str = "cache.tsv"
    backend_data: str = ""


@dataclass
class RunConfig:
    master_seed: int = 0
    placeholder_guard: bool = True
    task: TaskSettings = field(default_factory=TaskSettings)
    paths: PathSettings = field(default_factory=PathSettings)
    gateway: GatewaySettings = field(default_factory=GatewaySettings)
    gp: GpSettings = field(default_factory=GpSettings)
    surrogate: SurrogateSettings = field(default_factory=SurrogateSettings)
    local_search: LocalSearchSettings = field(default_factory=LocalSearchSettings)


_SECTIONS = ("task", "paths", "gateway", "gp", "surrogate", "local_search")

_BOOL_STRINGS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _coerce(raw: str, default) -> object:
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() not in _BOOL_STRINGS:
            raise ConfigError(f"expected a boolean, got {raw!r}")
        return _BOOL_STRINGS[raw.lower()]
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def _apply(obj, section_name: str, items: dict[str, str]) -> None:
    """Set each key of one section on `obj`; fields that hold a section of
    their own (`RunConfig.task` and the like) are not keys."""
    known = {
        f.name: getattr(obj, f.name)
        for f in dataclasses.fields(obj)
        if not dataclasses.is_dataclass(getattr(obj, f.name))
    }
    for key, raw in items.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
        try:
            setattr(obj, key, _coerce(raw, known[key]))
        except ValueError as exc:
            raise ConfigError(f"bad value for {section_name}.{key}: {exc}") from exc


_BACKENDS = ("echo", "truncate", "label_oracle", "scripted", "http")
_EMBEDDERS = ("hashing", "remote")

# Every bound on a single key, as (keys, test, wording); keys listed in no
# row take any value of their type.
_BOUNDS = (
    ("task.metric", lambda v: v in METRICS, f"one of {', '.join(METRICS)}"),
    ("gateway.backend", lambda v: v in _BACKENDS, f"one of {', '.join(_BACKENDS)}"),
    ("surrogate.embedder", lambda v: v in _EMBEDDERS, f"one of {', '.join(_EMBEDDERS)}"),
    # Seconds handed to time.sleep and the socket timeout, which reject inf.
    ("gateway.timeout", lambda v: 0 < v < math.inf, "finite and > 0"),
    ("gateway.backoff_base gateway.temperature", lambda v: 0 <= v < math.inf, "finite and >= 0"),
    (
        "gateway.max_attempts gateway.max_new_tokens"
        " gp.population_size gp.parent_tournament gp.survivor_tournament gp.sample_size"
        " gp.eval_workers surrogate.submodels surrogate.epochs surrogate.cv_combos"
        " surrogate.cv_epochs surrogate.dim",
        lambda v: v >= 1, ">= 1",
    ),
    (
        "task.icl_slot_count gp.generations gp.offspring_size gp.icl_k gp.init_retries"
        " local_search.per_site local_search.screen_limit local_search.top_mean"
        " local_search.top_variance",
        lambda v: v >= 0, ">= 0",
    ),
    ("gp.crossover_prob gp.mutation_prob", lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("surrogate.cv_folds", lambda v: v >= 2, ">= 2"),
    ("surrogate.train_fraction", lambda v: 0 < v < 1, "in (0, 1)"),
)


# (key, value, key that must then be set): what one choice needs.
_NEEDS = (
    ("gateway.backend", "http", "gateway.endpoint"),
    ("gateway.backend", "label_oracle", "gateway.backend_data"),
    ("gateway.backend", "scripted", "gateway.backend_data"),
    ("surrogate.embedder", "remote", "surrogate.endpoint"),
)


def _value(cfg: RunConfig, name: str) -> object:
    section, key = name.split(".")
    return getattr(getattr(cfg, section), key)


def check_bounds(cfg: RunConfig) -> None:
    """Reject the first value no command can honour, naming its key.  The
    one bound that needs the grammar, on `gp.max_nodes`, is checked by
    `EvolutionEngine`."""
    for keys, holds, wording in _BOUNDS:
        for name in keys.split():
            value = _value(cfg, name)
            if not holds(value):
                raise ConfigError(f"{name} must be {wording}, got {value!r}")
    for name, choice, needed in _NEEDS:
        if _value(cfg, name) == choice and not _value(cfg, needed):
            raise ConfigError(f"{name} = {choice} needs {needed}")
    ls = cfg.local_search
    if ls.top_mean + ls.top_variance > ls.screen_limit:
        raise ConfigError(
            f"local_search.top_mean + top_variance = {ls.top_mean + ls.top_variance}"
            f" exceeds local_search.screen_limit = {ls.screen_limit}"
        )


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case as written
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        if section != "run" and section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        target = cfg if section == "run" else getattr(cfg, section)
        _apply(target, section, dict(parser.items(section)))
    check_bounds(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
