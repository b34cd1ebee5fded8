"""Run configuration: INI file loading, defaults, canonical digest.

Sections mirror modules ([run], [task], [paths], [gateway], [gp],
[surrogate], [local_search]).  Every key has a shipped default; secrets
never live in the file (the gateway reads the API key from the
environment variable named by `api_key_env`).
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .evolution import GpSettings
from .gateway import DEFAULT_MAX_NEW_TOKENS, DEFAULT_TEMPERATURE
from .localsearch import LocalSearchSettings


class ConfigError(ValueError):
    pass


@dataclass
class TaskSettings:
    name: str = "task"
    metric: str = "accuracy"
    answer_key: str = "Answer"
    template: str = "builtin:pubmedqa"
    train_data: str = ""
    val_data: str = ""
    test_data: str = ""
    icl_slot_count: int = 5


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
    max_inflight: int = 8
    max_attempts: int = 3
    backoff_base: float = 1.0
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    cache_file: str = "cache.tsv"
    backend_data: str = ""


@dataclass
class SurrogateSettings:
    submodels: int = 10
    epochs: int = 200
    train_fraction: float = 0.7
    cv_folds: int = 5
    cv_combos: int = 10
    cv_epochs: int = 200
    embedder: str = "hashing"
    dim: int = 384
    endpoint: str = ""


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
    known = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    for key, raw in items.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
        try:
            setattr(obj, key, _coerce(raw, known[key]))
        except ValueError as exc:
            raise ConfigError(f"bad value for {section_name}.{key}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case as written
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        items = dict(parser.items(section))
        if section == "run":
            run_keys = {"master_seed", "placeholder_guard"}
            for key, raw in items.items():
                if key not in run_keys:
                    raise ConfigError(f"unknown key {key!r} in section [run]")
                setattr(cfg, key, _coerce(raw, getattr(cfg, key)))
        elif section in _SECTIONS:
            _apply(getattr(cfg, section), section, items)
        else:
            raise ConfigError(f"unknown section [{section}]")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
