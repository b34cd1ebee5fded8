import pytest

from promptgp.config import (
    ConfigError,
    RunConfig,
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
    # [gp] icl_k serves both phases; local search has no key of its own.
    with pytest.raises(ConfigError):
        parse_config("[local_search]\nicl_k = 0\n")
    # Temperature 0 is greedy decoding; there is no separate sampling switch.
    with pytest.raises(ConfigError):
        parse_config("[gateway]\nsampling = false\n")
    with pytest.raises(ConfigError):
        parse_config("[gp]\npopulation_size = lots\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nplaceholder_guard = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("not an ini file")


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
