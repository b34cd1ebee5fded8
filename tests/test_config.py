import pytest

from promptgp import config
from promptgp.config import (
    ConfigError,
    RunConfig,
    check_bounds,
    config_digest,
    config_to_dict,
    load_config,
    parse_config,
)

SAMPLE = """
[run]
master_seed = 42
placeholder_guard = off

[task]
name = sentiment
metric = token_f1
template = builtin:ethos

[gateway]
backend = label_oracle
backend_data = truth.json
max_attempts = 5
temperature = 0.0

[gp]
population_size = 10
generations = 3

[surrogate]
submodels = 4

[local_search]
per_site = 6
"""


def test_defaults_without_file():
    cfg = RunConfig()
    assert cfg.master_seed == 0
    assert cfg.placeholder_guard is True
    assert cfg.gp.population_size == 50
    assert cfg.gp.generations == 20
    assert cfg.gateway.temperature == 0.0
    assert cfg.gateway.max_new_tokens == 2048
    assert cfg.surrogate.submodels == 10
    assert cfg.surrogate.epochs == 200
    assert cfg.surrogate.train_fraction == 0.7
    assert cfg.surrogate.cv_folds == 5
    assert cfg.surrogate.cv_combos == 10
    assert cfg.local_search.per_site == 10
    assert cfg.local_search.screen_limit == 50


def test_parse_config_overrides():
    cfg = parse_config(SAMPLE)
    assert cfg.master_seed == 42
    assert cfg.placeholder_guard is False
    assert cfg.task.name == "sentiment"
    assert cfg.task.metric == "token_f1"
    assert cfg.gateway.backend == "label_oracle"
    assert cfg.gateway.max_attempts == 5
    assert cfg.gp.population_size == 10
    assert cfg.gp.generations == 3
    assert cfg.surrogate.submodels == 4
    assert cfg.local_search.per_site == 6
    # Untouched keys keep defaults.
    assert cfg.gp.max_nodes == 1024
    assert cfg.task.answer_key == "Answer"


def test_parse_config_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_config("[banana]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[gp]\nbanana = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nbanana = 1\n")
    with pytest.raises(ConfigError, match=r"unknown key 'task' in section \[run\]"):
        parse_config("[run]\ntask = x\n")  # sections are not [run] keys
    # [gp] icl_k serves both phases; local search has no key of its own.
    with pytest.raises(ConfigError):
        parse_config("[local_search]\nicl_k = 0\n")
    # Local search scores with [gp] eval_workers and always ranks the incumbent.
    with pytest.raises(ConfigError, match="eval_workers"):
        parse_config("[local_search]\neval_workers = 2\n")
    with pytest.raises(ConfigError, match="include_incumbent"):
        parse_config("[local_search]\ninclude_incumbent = false\n")
    # [gp] eval_workers is the one bound on requests in flight.
    with pytest.raises(ConfigError, match="max_inflight"):
        parse_config("[gateway]\nmax_inflight = 8\n")
    # Temperature 0 is greedy decoding; there is no separate sampling switch.
    with pytest.raises(ConfigError):
        parse_config("[gateway]\nsampling = false\n")
    with pytest.raises(ConfigError):
        parse_config("[gp]\npopulation_size = lots\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nplaceholder_guard = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("not an ini file")


@pytest.mark.parametrize("key, value", [("master_seed", "abc"), ("placeholder_guard", "maybe")])
def test_bad_run_value_is_refused_naming_its_key(key, value):
    with pytest.raises(ConfigError, match=f"bad value for run.{key}: "):
        parse_config(f"[run]\n{key} = {value}\n")


def test_model_keys_come_from_gateway_section():
    # gp/local_search model settings are wired from [gateway] at build time.
    with pytest.raises(ConfigError):
        parse_config("[gp]\nmodel = gpt\n")
    with pytest.raises(ConfigError):
        parse_config("[local_search]\nedit_model = gpt\n")
    cfg = parse_config("[gateway]\nmodel = real-model\nedit_model = editor\n")
    assert cfg.gateway.model == "real-model"
    assert cfg.gateway.edit_model == "editor"


def test_load_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SAMPLE)
    cfg = load_config(str(path))
    assert cfg.master_seed == 42


def test_config_digest_stable_and_sensitive():
    a = parse_config(SAMPLE)
    b = parse_config(SAMPLE)
    assert config_digest(a) == config_digest(b)
    assert config_digest(RunConfig()) == config_digest(RunConfig())
    b.gp.generations += 1
    assert config_digest(a) != config_digest(b)


def test_config_to_dict_nests_sections():
    d = config_to_dict(RunConfig())
    assert d["master_seed"] == 0
    assert d["gp"]["population_size"] == 50
    assert d["task"]["template"] == "builtin:pubmedqa"
    assert d["local_search"]["top_mean"] == 25


def test_secrets_stay_out_of_config():
    cfg = parse_config("[gateway]\napi_key_env = MY_PROVIDER_KEY\n")
    assert cfg.gateway.api_key_env == "MY_PROVIDER_KEY"
    with pytest.raises(ConfigError):
        parse_config("[gateway]\napi_key = sk-123\n")


def test_parse_config_rejects_unknown_metric():
    with pytest.raises(ConfigError, match=r"task\.metric"):
        parse_config("[task]\nmetric = bleu\n")


def test_default_config_passes_the_bounds():
    check_bounds(RunConfig())


# One value just outside each bound of the table in `config`.
OUT_OF_BOUNDS = [
    ("task.metric", "bleu"),
    ("task.icl_slot_count", "-1"),
    ("gateway.backend", "bogus"),
    ("surrogate.embedder", "bogus"),
    ("gateway.timeout", "0"),
    ("gateway.timeout", "inf"),
    ("gateway.max_attempts", "0"),
    ("gateway.backoff_base", "-0.1"),
    ("gateway.backoff_base", "inf"),
    ("gateway.temperature", "-1"),
    ("gateway.temperature", "nan"),
    ("gateway.temperature", "inf"),
    ("gateway.max_new_tokens", "0"),
    ("gp.population_size", "0"),
    ("gp.generations", "-1"),
    ("gp.offspring_size", "-1"),
    ("gp.icl_k", "-1"),
    ("gp.parent_tournament", "0"),
    ("gp.survivor_tournament", "0"),
    ("gp.sample_size", "0"),
    ("gp.crossover_prob", "1.1"),
    ("gp.mutation_prob", "-0.1"),
    ("gp.init_retries", "-1"),
    ("gp.eval_workers", "0"),
    ("surrogate.submodels", "0"),
    ("surrogate.epochs", "0"),
    ("surrogate.train_fraction", "0.0"),
    ("surrogate.train_fraction", "1.0"),
    ("surrogate.cv_folds", "1"),
    ("surrogate.cv_combos", "0"),
    ("surrogate.cv_epochs", "0"),
    ("surrogate.dim", "0"),
    ("local_search.per_site", "-1"),
    ("local_search.screen_limit", "-1"),
    ("local_search.top_mean", "-1"),
    ("local_search.top_variance", "-1"),
]


@pytest.mark.parametrize("name, value", OUT_OF_BOUNDS)
def test_parse_config_rejects_out_of_bounds_value(name, value):
    section, key = name.split(".")
    with pytest.raises(ConfigError, match=rf"^{name} must be "):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_every_bounded_key_has_a_case():
    bounded = {name for keys, _, _ in config._BOUNDS for name in keys.split()}
    assert bounded == {name for name, _ in OUT_OF_BOUNDS}


@pytest.mark.parametrize(
    "section, choice, needed",
    [
        ("gateway", "backend = http", "gateway.endpoint"),
        ("gateway", "backend = label_oracle", "gateway.backend_data"),
        ("gateway", "backend = scripted", "gateway.backend_data"),
        ("surrogate", "embedder = remote", "surrogate.endpoint"),
    ],
)
def test_choice_without_the_key_it_needs_is_refused(section, choice, needed):
    with pytest.raises(ConfigError, match=rf"^{section}\.{choice} needs {needed}$"):
        parse_config(f"[{section}]\n{choice}\n")
    key = needed.split(".")[1]
    parse_config(f"[{section}]\n{choice}\n{key} = x\n")


def test_parse_config_rejects_tops_over_screen_limit():
    with pytest.raises(ConfigError, match=r"exceeds local_search\.screen_limit = 50"):
        parse_config("[local_search]\ntop_mean = 26\n")
    parse_config("[local_search]\ntop_mean = 20\ntop_variance = 30\n")
