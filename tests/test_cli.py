import base64
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from helpers import LoopbackServer, fail_writes_to, identity_phenotype, refused_url

import promptgp
from promptgp.cli import build_embedder, main
from promptgp.config import load_config, config_digest
from promptgp.gateway import LabelOracleBackend, TransportError
from promptgp.grammar import decode, default_grammar, render_phenotype
from promptgp.lexicons import Lexicons
from promptgp.surrogate import SurrogateHp
from promptgp.tasks import Dataset
from promptgp.template import apply_phenotype

TEMPLATE = """== PERSONA ==
You are a precise assistant.
== TASK ==
Answer the question.
## [Question]
__TASK_INPUT_0__
== OUTPUT ==
Reply exactly as {'Answer': 'value'}.
== ICL ==
## [Examples]
"""


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def setup_run(tmp_path, name="run", seed=3, generations=2, population=6):
    root = tmp_path / name
    root.mkdir()
    train = [
        {"id": f"t{i}", "input": f"training question {i}?", "label": "yes" if i % 2 else "no"}
        for i in range(8)
    ]
    val = [
        {"id": f"v{i}", "input": f"validation question {i}?", "label": "yes" if i % 2 else "no"}
        for i in range(4)
    ]
    test = [
        {"id": f"x{i}", "input": f"test question {i}?", "label": "yes" if i % 2 else "no"}
        for i in range(4)
    ]
    write_jsonl(root / "train.jsonl", train)
    write_jsonl(root / "val.jsonl", val)
    write_jsonl(root / "test.jsonl", test)
    truth = {r["input"]: r["label"] for r in train + val + test}
    (root / "truth.json").write_text(json.dumps(truth))
    (root / "template.txt").write_text(TEMPLATE)
    config = f"""
[run]
master_seed = {seed}

[task]
name = toy
template = {root / 'template.txt'}
train_data = {root / 'train.jsonl'}
val_data = {root / 'val.jsonl'}
test_data = {root / 'test.jsonl'}

[paths]
workdir = {root / 'work'}

[gateway]
backend = label_oracle
backend_data = {root / 'truth.json'}

[gp]
population_size = {population}
offspring_size = {population}
generations = {generations}
max_nodes = 60
sample_size = 4
init_retries = 3

[surrogate]
submodels = 2
epochs = 4

[local_search]
per_site = 3
"""
    (root / "run.ini").write_text(config)
    return root


# The default run journals only 6 distinct training texts, and local search
# fits the surrogate on at least 10; a population of 12 journals 15.
SEARCH_POPULATION = 12


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "promptgp" in capsys.readouterr().out


def test_optimize_writes_artifacts(tmp_path, capsys):
    root = setup_run(tmp_path)
    assert main(["optimize", "--config", str(root / "run.ini")]) == 0
    work = root / "work"
    for artifact in (
        "journal.jsonl",
        "checkpoint.json",
        "elite_prompt.txt",
        "elite_prompt.meta.json",
        "curve.tsv",
        "report.json",
        "stats.json",
        "cache.tsv",
    ):
        assert (work / artifact).exists(), artifact

    cfg = load_config(str(root / "run.ini"))
    digest = config_digest(cfg)
    report = json.loads((work / "report.json").read_text())
    assert report["config_digest"] == digest
    assert report["master_seed"] == 3
    assert len(report["generations"]) == 2
    assert report["final"]["prompt"] == (work / "elite_prompt.txt").read_text()

    meta = json.loads((work / "elite_prompt.meta.json").read_text())
    assert meta["config_digest"] == digest
    tree = decode(default_grammar(), meta["genotype"])
    programs = render_phenotype(tree).programs
    assert programs == report["final"]["programs"]

    curve = (work / "curve.tsv").read_text().splitlines()
    assert curve[0] == f"# config_digest={digest}"
    assert curve[1].split("\t") == ["generation", "mean_f_train", "std_f_train", "evaluations"]
    assert len(curve) == 4  # header comment + header + one row per generation

    journal_head = json.loads((work / "journal.jsonl").read_text().splitlines()[0])
    assert journal_head == {"config_digest": digest, "master_seed": 3}


def test_optimize_is_deterministic_across_directories(tmp_path):
    root_a = setup_run(tmp_path, name="a", seed=11)
    root_b = setup_run(tmp_path, name="b", seed=11)
    assert main(["optimize", "--config", str(root_a / "run.ini")]) == 0
    assert main(["optimize", "--config", str(root_b / "run.ini")]) == 0
    report_a = json.loads((root_a / "work" / "report.json").read_text())
    report_b = json.loads((root_b / "work" / "report.json").read_text())
    # Workdir paths differ, so compare everything below the digest fields.
    for key in ("generations", "curve", "final", "master_seed"):
        assert report_a[key] == report_b[key]
    journal_a = (root_a / "work" / "journal.jsonl").read_text().splitlines()[1:]
    journal_b = (root_b / "work" / "journal.jsonl").read_text().splitlines()[1:]
    assert journal_a == journal_b


def test_optimize_seed_override_changes_run(tmp_path):
    root = setup_run(tmp_path, seed=3)
    assert main(["optimize", "--config", str(root / "run.ini"), "--seed", "4"]) == 0
    report = json.loads((root / "work" / "report.json").read_text())
    assert report["master_seed"] == 4


@pytest.mark.parametrize(
    "key, value",
    [
        ("population_size", 0),
        ("sample_size", 0),
        ("parent_tournament", 0),
        ("survivor_tournament", 0),
        ("init_retries", -1),
        ("generations", -1),
    ],
)
def test_optimize_rejects_gp_settings_that_cannot_run(tmp_path, capsys, key, value):
    root = setup_run(tmp_path)
    config = root / "run.ini"
    text = re.sub(rf"^{key} = .*\n", "", config.read_text(), flags=re.MULTILINE)
    config.write_text(text.replace("[gp]\n", f"[gp]\n{key} = {value}\n"))
    assert main(["optimize", "--config", str(config)]) == 2
    assert f"gp.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gateway", "max_attempts", 0),
        ("gateway", "backoff_base", -1.0),
        ("gateway", "backoff_base", "inf"),
        ("gateway", "timeout", 0),
        ("gateway", "timeout", "inf"),
        ("gateway", "max_new_tokens", 0),
        ("gp", "crossover_prob", 1.5),
        ("gp", "mutation_prob", -0.5),
        ("surrogate", "dim", 0),
        ("task", "metric", "bleu"),
    ],
)
@pytest.mark.parametrize("command", ["optimize", "local-search", "evaluate"])
def test_commands_reject_out_of_bounds_keys_before_reading_inputs(
    tmp_path, capsys, command, section, key, value
):
    root = setup_run(tmp_path)
    config = root / "run.ini"
    text = config.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "truth.json"):
        (root / name).unlink()  # no input exists: only the config can be read
    config.write_text(text)
    args = [command, "--config", str(config)]
    if command == "evaluate":
        args += ["--prompt", str(root / "prompt.txt")]
    assert main(args) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


class DownBackend:
    def send(self, req):
        raise TransportError("connection refused")


def test_optimize_counts_degraded_edits_in_stats(tmp_path, monkeypatch, caplog):
    from promptgp import cli

    root = setup_run(tmp_path)
    config = root / "run.ini"
    config.write_text(config.read_text().replace("[gateway]\n", "[gateway]\nmax_attempts = 1\n"))
    build_gateway = cli.build_gateway

    def down_gateway(cfg, workdir):
        gw = build_gateway(cfg, workdir)
        gw.backend = DownBackend()
        return gw

    monkeypatch.setattr(cli, "build_gateway", down_gateway)
    assert main(["optimize", "--config", str(config)]) == 0
    degraded = json.loads((root / "work" / "stats.json").read_text())["degraded_edits"]
    warned = [r.getMessage().split()[0] for r in caplog.records if r.name == "promptgp.editops"]
    assert degraded == {op: warned.count(op) for op in ("paraphrase", "summarise")}
    assert degraded["paraphrase"] > 0 and degraded["summarise"] > 0


@pytest.mark.parametrize("generations", [0, 2])
def test_optimize_resume_from_checkpoint_reproduces_report(tmp_path, generations):
    # Resuming a finished run appends nothing, even with no generation to run.
    root = setup_run(tmp_path, generations=generations)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    work = root / "work"
    original_report = (work / "report.json").read_bytes()
    original_journal = (work / "journal.jsonl").read_bytes()
    assert (
        main(["optimize", "--config", config, "--resume", str(work / "checkpoint.json")]) == 0
    )
    assert (work / "report.json").read_bytes() == original_report
    assert (work / "journal.jsonl").read_bytes() == original_journal


# How each refused resume edits a checkpoint whose config and seed match.
CHECKPOINT_EDITS = {
    "seed": lambda state: state.update(master_seed=4),
    "version": lambda state: state.update(version=0),
    "digest": lambda state: state.update(config_digest=""),
    "born": lambda state: state["population"][0].pop("born"),
    "size": lambda state: state["population"].pop(),
    "history": lambda state: state["history"].append(1),
    "elite": lambda state: state["elite"].update(genotype=[99] * 5),
    "count-missing": lambda state: state.pop("journal_lines"),
    "count-text": lambda state: state.update(journal_lines="10"),
    "count-negative": lambda state: state.update(next_generation=-1),
    "short-journal": lambda state: None,  # the journal is cut to 3 lines instead
}


@pytest.mark.parametrize(
    "refusal, message",
    [
        ("config", "different configuration"),
        ("seed", "master seed does not match"),
        ("version", "unsupported checkpoint version"),
        ("digest", "different configuration"),  # an empty digest matches no config
        ("born", "population[0].born: missing"),
        ("size", "population: holds 5 entries, gp.population_size is 6"),
        ("history", "history[1]: must be object, got integer"),
        ("elite", "elite.genotype: choice 99 at position 0 out of range"),
        ("count-missing", "journal_lines: missing"),
        ("count-text", "journal_lines: must be integer, got string"),
        ("count-negative", "next_generation: must be >= 0, got -1"),
        ("short-journal", "journal.jsonl: holds 3 records, fewer than the"),
    ],
)
def test_refused_resume_leaves_the_journal_untouched(tmp_path, capsys, refusal, message):
    # A 1-generation checkpoint, then a 3-generation run that outgrows it.
    root = setup_run(tmp_path, generations=1)
    config = root / "run.ini"
    work = root / "work"
    one_generation = config.read_text()
    assert main(["optimize", "--config", str(config)]) == 0
    checkpoint = root / "checkpoint.json"
    (work / "checkpoint.json").replace(checkpoint)
    config.write_text(one_generation.replace("generations = 1", "generations = 3"))
    assert main(["optimize", "--config", str(config)]) == 0
    journal = (work / "journal.jsonl").read_bytes()
    counted = json.loads(checkpoint.read_text())["journal_lines"]
    assert counted < len(journal.splitlines())
    if refusal != "config":
        config.write_text(one_generation)
        state = json.loads(checkpoint.read_text())
        CHECKPOINT_EDITS[refusal](state)
        checkpoint.write_text(json.dumps(state))
    if refusal == "short-journal":
        journal = b"".join(journal.splitlines(keepends=True)[:3])
        (work / "journal.jsonl").write_bytes(journal)
        message += f" {counted} the checkpoint counted"
    capsys.readouterr()
    assert main(["optimize", "--config", str(config), "--resume", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert f"error: {checkpoint}: " in err
    assert (work / "journal.jsonl").read_bytes() == journal


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("optimize", "[1, 2]\n", "a checkpoint must be an object"),
        ("local-search", "[1, 2]\n", "a checkpoint must be an object"),
        ("report", '{"config_digest": "x"}\n[1]\n', "line 2: a journal record must be an object"),
        # local-search checks the version and decodes the elite as a resume
        # does, but neither the digest nor the seed
        ("local-search", '{"version": 99}\n', "unsupported checkpoint version 99"),
        ("local-search", '{"version": 1, "elite": {"born": 0}}\n', "elite.genotype: missing"),
        ("local-search", '{"version": 1, "elite": {"genotype": "abc"}}\n', "elite.genotype: must be array"),
        ("local-search", '{"version": 1, "elite": null}\n', "elite: must be object, got null"),
    ],
    ids=["optimize", "local-search", "report", "local-search-version", "local-search-no-genotype",
         "local-search-genotype-text", "local-search-no-elite"],
)
def test_checkpoint_or_journal_record_that_is_not_an_object_exits_2(
    tmp_path, capsys, command, text, where
):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    bad = root / "bad.json"
    bad.write_text(text)
    argv = {
        "optimize": ["optimize", "--config", config, "--resume", str(bad)],
        "local-search": ["local-search", "--config", config, "--checkpoint", str(bad)],
        "report": ["report", "--journal", str(bad), "--out", str(root / "curve.tsv")],
    }[command]
    assert main(argv) == 2
    assert f"{bad}: {where}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        ("optimize", "checkpoint.json", '{"version": ', ""),
        ("local-search", "journal.jsonl", '{"config_digest": "x"}\n{oops\n', "line 2: "),
        ("report", "journal.jsonl", '{"config_digest": "x"}\n{oops\n', "line 2: "),
        ("report", "journal.jsonl", '{"config_digest": "x"}\n{"split": "train", "generation": 0}\n',
         "line 2: prompt: missing"),
        ("local-search", "journal.jsonl",
         '{"config_digest": "x"}\n{"split": "train", "generation": 0, "prompt": "p", "fitness": "0.5"}\n',
         "line 2: fitness: must be number or integer, got string"),
        ("optimize", "cache.tsv", f"a\t{base64.b64encode(b'ok').decode()}\nb\tabc\n", "line 2: "),
        ("optimize", "cache.tsv", f"a\t{base64.b64encode(b'ok').decode()}\nb\t/w==\n", "line 2: "),
        ("optimize", "cache.tsv", f"a\t{base64.b64encode(b'ok').decode()}\nb\n", "line 2: "),
        ("optimize", "cache.tsv", f"a\t{base64.b64encode(b'ok').decode()}\nb\t%%%%\n", "line 2: "),
    ],
    ids=["checkpoint", "journal-local-search", "journal-report", "train-record-report",
         "train-record-local-search", "cache-base64", "cache-utf8", "cache-no-tab", "cache-alphabet"],
)
def test_workdir_file_that_does_not_parse_exits_2_naming_it(tmp_path, capsys, command, name, text, where):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    work = root / "work"
    assert main(["optimize", "--config", config]) == 0  # local-search needs its checkpoint
    bad = work / name
    bad.write_text(text)
    argv = {
        "optimize": ["optimize", "--config", config],
        "local-search": ["local-search", "--config", config],
        "report": ["report", "--journal", str(bad), "--out", str(root / "curve.tsv")],
    }[command]
    if name == "checkpoint.json":
        argv += ["--resume", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{bad}: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["label_oracle", "scripted"])
@pytest.mark.parametrize(
    "text, says", [("[1, 2]", "must hold a JSON object"), ('{"a": ', "Expecting value")], ids=["array", "torn"]
)
def test_backend_data_that_is_not_a_json_object_exits_2_naming_it(tmp_path, capsys, backend, text, says):
    root = setup_run(tmp_path)
    config = root / "run.ini"
    (root / "truth.json").write_text(text)
    config.write_text(config.read_text().replace("backend = label_oracle\n", f"backend = {backend}\n"))
    assert main(["optimize", "--config", str(config)]) == 2
    assert f"gateway.backend_data {root / 'truth.json'}: {says}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "local-search", "evaluate"])
@pytest.mark.parametrize("table, key", [({"x": 2, "__default__": "no"}, "x"), ({"__default__": 3}, "__default__")])
def test_scripted_reply_that_is_not_a_string_exits_2_naming_it(tmp_path, capsys, command, table, key):
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = root / "run.ini"
    assert main(["optimize", "--config", str(config)]) == 0  # local-search needs its checkpoint
    (root / "table.json").write_text(json.dumps(table))
    config.write_text(
        config.read_text()
        .replace("backend = label_oracle\n", "backend = scripted\n")
        .replace(str(root / "truth.json"), str(root / "table.json"))
    )
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--prompt", str(root / "work" / "elite_prompt.txt")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"gateway.backend_data {root / 'table.json'}: the reply to {key!r} is not a string" in err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("backend = label_oracle\n", "backend = bogus\n", "gateway.backend"),
        ("[surrogate]\n", "[surrogate]\nembedder = bogus\n", "surrogate.embedder"),
    ],
    ids=["backend", "embedder"],
)
def test_optimize_with_unknown_backend_or_embedder_exits_2_naming_the_key(tmp_path, capsys, old, new, key):
    root = setup_run(tmp_path)
    config = root / "run.ini"
    config.write_text(config.read_text().replace(old, new))
    assert main(["optimize", "--config", str(config)]) == 2
    assert f"{key} must be one of" in capsys.readouterr().err
    assert not (root / "work" / "journal.jsonl").exists()


def test_icl_slot_count_sets_the_rendered_demonstration_placeholders(tmp_path):
    from promptgp import cli

    root = setup_run(tmp_path)
    config = root / "run.ini"
    config.write_text(config.read_text().replace("[task]\n", "[task]\nicl_slot_count = 2\n"))
    cfg = load_config(str(config))
    ctx = cli.build_context(cfg, root, Dataset(rows=[]), Lexicons())
    try:
        prompt = apply_phenotype(cli.build_template(cfg), identity_phenotype(), ctx)
    finally:
        ctx.close()
    assert re.findall(r"__ICL_\d+__", prompt.text) == ["__ICL_0__", "__ICL_1__"]


def test_local_search_after_optimize(tmp_path, capsys):
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    assert main(["local-search", "--config", config]) == 0
    work = root / "work"
    for artifact in (
        "refined_prompt.txt",
        "refined_prompt.meta.json",
        "candidates.tsv",
    ):
        assert (work / artifact).exists(), artifact
    # The surrogate lives only inside the command; nothing is serialised.
    assert not (work / "surrogate.npz").exists()
    meta = json.loads((work / "refined_prompt.meta.json").read_text())
    # A siteless or degenerate elite short-circuits with a notice; otherwise
    # the winner carries its combined validation score.
    assert meta["combined"] is not None or meta["notice"]
    lines = (work / "candidates.tsv").read_text().splitlines()
    assert lines[0].startswith("# config_digest=")
    header = lines[1].split("\t")
    assert header[0] == "rank" and "combined" in header
    if len(lines) > 2:
        first = lines[2].split("\t")
        assert first[0] == "0"


def site_elite(work):
    """Replace the checkpointed elite with one whose task program has an index site."""
    from promptgp.grammar import encode, sample_ptc2

    grammar = default_grammar()
    sited = None
    for seed in range(200):
        tree = sample_ptc2(grammar, 60, rng_seed=seed)
        # The op must sit over the task text so its trace sees nonzero chunks.
        if "index=[" in render_phenotype(tree).programs["task"]:
            sited = tree
            break
    assert sited is not None
    state = json.loads((work / "checkpoint.json").read_text())
    state["elite"]["genotype"] = list(encode(sited))
    (work / "checkpoint.json").write_text(json.dumps(state, sort_keys=True))


def test_local_search_full_path_with_sited_elite(tmp_path):
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    work = root / "work"
    site_elite(work)

    assert main(["local-search", "--config", config]) == 0
    meta = json.loads((work / "refined_prompt.meta.json").read_text())
    assert meta["notice"] == ""
    assert meta["combined"] is not None
    assert meta["sites"] >= 1
    lines = (work / "candidates.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in lines[2:]]
    assert len(rows) >= 2
    combined = [float(r[-1]) for r in rows]
    assert combined[0] == max(combined)
    assert rows[0][1] == meta["digest"][:16]


def test_local_search_adds_its_section_to_stats(tmp_path):
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    work = root / "work"
    site_elite(work)
    optimize_stats = json.loads((work / "stats.json").read_text())
    assert main(["local-search", "--config", config]) == 0
    stats = json.loads((work / "stats.json").read_text())
    section = stats.pop("local_search")
    assert stats == optimize_stats  # optimize's keys stay as they were
    records = [json.loads(line) for line in (work / "journal.jsonl").read_text().splitlines()]
    texts = [r["prompt"] for r in records if r.get("split") == "train" and r.get("prompt")]
    assert section["config_digest"] == stats["config_digest"]
    # Repeated texts collapse to one point each, too few to tune: the default hp.
    assert section["journal_points"] == len(texts)
    assert section["distinct_texts"] == len(set(texts)) < min(len(texts), 50)
    embedder = build_embedder(load_config(config))
    assert section["embedding_dims_used"] == np.count_nonzero(embedder.embed_many(texts).any(axis=0))
    assert 0 < section["embedding_dims_used"] < embedder.dim
    assert section["hp"] == {"widths": [128, 64, 1], "dropout": 0.1, "batch": 32, "lr": 0.001}
    assert sorted(section["seconds"]) == ["embed", "fit", "search", "tune"]
    assert all(seconds >= 0.0 for seconds in section["seconds"].values())

    (work / "stats.json").write_text('{"requests": 1')  # torn by a killed write
    assert main(["local-search", "--config", config]) == 0
    assert sorted(json.loads((work / "stats.json").read_text())) == ["local_search"]


def test_local_search_records_its_own_llm_traffic_in_stats(tmp_path, monkeypatch):
    from promptgp import cli

    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    work = root / "work"
    site_elite(work)
    optimize_stats = json.loads((work / "stats.json").read_text())
    sent = []
    build_gateway = cli.build_gateway

    def counting_build_gateway(cfg, workdir):
        gw = build_gateway(cfg, workdir)
        send = gw.backend.send
        gw.backend.send = lambda req: sent.append(req) or send(req)
        return gw

    monkeypatch.setattr(cli, "build_gateway", counting_build_gateway)
    assert main(["local-search", "--config", config]) == 0
    stats = json.loads((work / "stats.json").read_text())
    section = stats.pop("local_search")
    assert stats == optimize_stats  # optimize's counters stay as they were
    assert 0 < section["backend_calls"] == len(sent) != stats["backend_calls"]
    assert section["requests"] == section["cache_hits"] + section["backend_calls"]
    assert section["failures"] == 0
    assert sorted(section["degraded_edits"]) == ["paraphrase", "summarise"]


def write_journal(path, n, copies=1):
    """A journal of `n` distinct training texts, enough to drive the surrogate
    alone; with `copies`, each generation scores every text again."""
    write_jsonl(
        path,
        [
            {
                "split": "train",
                "generation": generation,
                "prompt": f"Answer question {i} with care, case {i * 7}.",
                "fitness": ((i + generation) % 5) / 4,
            }
            for generation in range(copies)
            for i in range(n)
        ],
    )
    return str(path)


def with_cv(root, folds=2, combos=1):
    config = root / "run.ini"
    text = config.read_text().replace(
        "[surrogate]\n", f"[surrogate]\ncv_folds = {folds}\ncv_combos = {combos}\ncv_epochs = 2\n"
    )
    config.write_text(text)
    return str(config)


def test_local_search_embeds_each_journal_point_once(tmp_path, monkeypatch):
    from promptgp import cli, localsearch

    root = setup_run(tmp_path)
    config = with_cv(root)
    assert main(["optimize", "--config", config]) == 0
    site_elite(root / "work")
    # 60 points: enough for hyperparameter tuning as well as the final fit.
    journal = write_journal(root / "points.jsonl", 60)

    embedded = []
    build_embedder = cli.build_embedder

    def counting_build_embedder(cfg):
        embedder = build_embedder(cfg)
        embed = embedder.embed

        def count(text):
            embedded.append(text)
            return embed(text)

        embedder.embed = count
        return embedder

    neighbors = []
    build_neighborhood = localsearch.build_neighborhood

    def recording_build_neighborhood(*args, **kwargs):
        nb = build_neighborhood(*args, **kwargs)
        neighbors.extend(nb.neighbors)
        return nb

    monkeypatch.setattr(cli, "build_embedder", counting_build_embedder)
    monkeypatch.setattr(localsearch, "build_neighborhood", recording_build_neighborhood)
    assert main(["local-search", "--config", config, "--journal", journal]) == 0
    # Each distinct neighbour text is embedded once, in first-seen order.
    distinct = list(dict.fromkeys(n.prompt.text for n in neighbors))
    assert 0 < len(distinct) < len(neighbors)
    assert embedded[60:] == distinct


def test_no_text_is_on_both_sides_of_a_split_or_a_fold(tmp_path, monkeypatch):
    from promptgp import cli, surrogate

    root = setup_run(tmp_path)
    config = with_cv(root)
    assert main(["optimize", "--config", config]) == 0
    # 60 distinct texts, each scored in 3 generations: enough to tune.
    journal = write_journal(root / "points.jsonl", 60, copies=3)

    fits, tunes = [], []
    fit_models, predict_params = surrogate.fit_models, surrogate.predict_params
    tune_hyperparameters = cli.tune_hyperparameters

    def recording_fit_models(X, *args):
        fits.append({"X": X, "val": None})
        return fit_models(X, *args)

    def recording_predict_params(params, X):
        if fits and fits[-1]["val"] is None:  # a fit's first prediction is its validation loss
            fits[-1]["val"] = X
        return predict_params(params, X)

    def recording_tune(X, *args):
        first = len(fits)
        hp = tune_hyperparameters(X, *args)
        tunes.append((X, fits[first:]))
        return hp

    monkeypatch.setattr(surrogate, "fit_models", recording_fit_models)
    monkeypatch.setattr(surrogate, "predict_params", recording_predict_params)
    monkeypatch.setattr(cli, "tune_hyperparameters", recording_tune)
    assert main(["local-search", "--config", config, "--journal", journal]) == 0

    def rows(X):
        return Counter(row.tobytes() for row in X)

    def shared(a, b):
        return len(a.keys() & b.keys())

    assert len(tunes) == 1 and len(fits) == 2 + 1  # 2 folds x 1 combo, then the final fit
    tuned_on, folds = tunes[0]
    for fit in folds:
        inside = rows(fit["X"])
        outside = rows(tuned_on) - inside
        assert shared(inside, outside) == 0
    for fit in fits:
        held_out = rows(fit["val"])
        trained = rows(fit["X"]) - held_out
        assert shared(trained, held_out) == 0
    assert fits[-1]["X"].shape[0] == 60


def test_local_search_needs_ten_journal_points(tmp_path, capsys, monkeypatch):
    from promptgp import cli

    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    journal = write_journal(root / "points.jsonl", 9)
    # Refused before the inputs are loaded or a point is embedded.
    monkeypatch.setattr(cli, "build_embedder", lambda cfg: pytest.fail("embedder built"))
    monkeypatch.setattr(cli, "_search_inputs", lambda cfg, workdir: pytest.fail("inputs loaded"))
    capsys.readouterr()
    assert main(["local-search", "--config", config, "--journal", journal]) == 2
    assert f"error: {journal}: need at least 10 distinct training texts, got 9" in capsys.readouterr().err


def test_local_search_needs_journal_points_when_journal_is_empty(tmp_path, capsys):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    journal = write_journal(root / "points.jsonl", 0)
    capsys.readouterr()
    assert main(["local-search", "--config", config, "--journal", journal]) == 2
    assert "need at least 10 distinct training texts, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
def test_local_search_tunes_only_from_min_tune_points(tmp_path, monkeypatch, below):
    from promptgp import cli

    root = setup_run(tmp_path)
    config = with_cv(root)
    assert main(["optimize", "--config", config]) == 0
    journal = write_journal(root / "points.jsonl", cli.MIN_TUNE_POINTS - below)
    tuned = []
    tune_hyperparameters = cli.tune_hyperparameters

    def recording_tune(*args):
        tuned.append(tune_hyperparameters(*args))
        return tuned[-1]

    monkeypatch.setattr(cli, "tune_hyperparameters", recording_tune)
    assert main(["local-search", "--config", config, "--journal", journal]) == 0
    hp = json.loads((root / "work" / "stats.json").read_text())["local_search"]["hp"]
    assert len(tuned) == (0 if below else 1)
    assert hp == json.loads(json.dumps(asdict(SurrogateHp() if below else tuned[0])))


@pytest.mark.parametrize(
    "setting, folds, combos", [("cv_combos", 2, 0), ("cv_folds", 1, 1), ("submodels", 2, 1)]
)
def test_local_search_rejects_unusable_cv_settings(tmp_path, capsys, setting, folds, combos):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    # Every command checks every section, so the bad values go in after the GP run.
    with_cv(root, folds=folds, combos=combos)
    if setting == "submodels":
        Path(config).write_text(Path(config).read_text().replace("submodels = 2", "submodels = 0"))
    journal = write_journal(root / "points.jsonl", 60)
    capsys.readouterr()
    assert main(["local-search", "--config", config, "--journal", journal]) == 2
    assert f"surrogate.{setting}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, key",
    [
        ({"per_site": -1}, "per_site"),
        ({"screen_limit": -3, "top_mean": 0, "top_variance": 0}, "screen_limit"),
        ({"screen_limit": 10, "top_mean": -1, "top_variance": 5}, "top_mean"),
        ({"screen_limit": 10, "top_mean": 5, "top_variance": -1}, "top_variance"),
        ({"screen_limit": 10, "top_mean": 6, "top_variance": 5}, "screen_limit"),
    ],
    ids=["per_site", "screen_limit", "top_mean", "top_variance", "tops_over_limit"],
)
def test_local_search_rejects_settings_the_screen_cannot_honour(tmp_path, capsys, values, key):
    root = setup_run(tmp_path)
    config = root / "run.ini"
    head = config.read_text().split("[local_search]\n")[0]
    config.write_text(head + "[local_search]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    # Checked before anything is read: there is no checkpoint or journal yet.
    assert main(["local-search", "--config", str(config)]) == 2
    assert f"local_search.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("epochs", 0), ("cv_epochs", 0), ("train_fraction", 0.0), ("train_fraction", 1.0)],
)
def test_local_search_rejects_surrogate_settings_that_cannot_train(tmp_path, capsys, key, value):
    root = setup_run(tmp_path)
    config = root / "run.ini"
    text = re.sub(rf"^{key} = .*\n", "", config.read_text(), flags=re.MULTILINE)
    config.write_text(text.replace("[surrogate]\n", f"[surrogate]\n{key} = {value}\n"))
    # Checked before anything is read: there is no checkpoint or journal yet.
    assert main(["local-search", "--config", str(config)]) == 2
    assert f"surrogate.{key}" in capsys.readouterr().err


def test_local_search_scores_with_gp_eval_workers(tmp_path, monkeypatch):
    from promptgp import cli

    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = root / "run.ini"
    config.write_text(config.read_text().replace("[gp]\n", "[gp]\neval_workers = 3\n"))
    assert main(["optimize", "--config", str(config)]) == 0
    workers = []
    build_context = cli.build_context

    def recording_build_context(*args, **kwargs):
        ctx = build_context(*args, **kwargs)
        workers.append(ctx.max_workers)
        return ctx

    monkeypatch.setattr(cli, "build_context", recording_build_context)
    assert main(["local-search", "--config", str(config)]) == 0
    assert workers == [3]


def test_request_pool_changes_no_artifact(tmp_path, monkeypatch):
    """`[gp] eval_workers` sets how many requests are in flight, and nothing else."""
    from promptgp import cli

    build_gateway = cli.build_gateway
    gateways, senders = [], set()

    def recording_build_gateway(*args, **kwargs):
        gw = build_gateway(*args, **kwargs)
        send = gw.backend.send

        def recording_send(req):
            senders.add(threading.get_ident())
            return send(req)

        gw.backend.send = recording_send
        gateways.append(gw)
        return gw

    monkeypatch.setattr(cli, "build_gateway", recording_build_gateway)
    works, counts, threads = [], [], []
    alive = threading.active_count()
    for workers in (1, 3):
        root = setup_run(tmp_path, name=f"workers{workers}", population=SEARCH_POPULATION)
        config = root / "run.ini"
        config.write_text(config.read_text().replace("[gp]\n", f"[gp]\neval_workers = {workers}\n"))
        gateways.clear()
        senders.clear()
        assert main(["optimize", "--config", str(config)]) == 0
        site_elite(root / "work")
        assert main(["local-search", "--config", str(config)]) == 0
        assert threading.active_count() <= alive  # each command closed its pool
        works.append(root / "work")
        counts.append([(gw.stats.requests, gw.stats.backend_calls) for gw in gateways])
        threads.append(len(senders))
    assert threads[0] == 1 and threads[1] > 1

    def masked(work, name):
        head = json.loads((work / "journal.jsonl").read_text().splitlines()[0])
        return (work / name).read_text().replace(head["config_digest"], "")

    serial, pooled = works
    for name in (
        "journal.jsonl",
        "report.json",
        "curve.tsv",
        "elite_prompt.txt",
        "elite_prompt.meta.json",
        "candidates.tsv",
        "refined_prompt.txt",
        "refined_prompt.meta.json",
    ):
        assert masked(pooled, name) == masked(serial, name), name
    assert len(masked(serial, "candidates.tsv").splitlines()) > 3  # neighbours were scored
    stats = [json.loads((work / "stats.json").read_text()) for work in works]
    for key in ("requests", "backend_calls"):
        assert stats[0][key] == stats[1][key], key
    assert counts[0] == counts[1]
    cache = [sorted((work / "cache.tsv").read_text().splitlines()) for work in works]
    assert cache[0] == cache[1]


# The determinism contract: one config and seed give these bytes, wherever
# the run lives.  A change that moves a file on purpose re-pins it and says why.
PINNED_SHA256 = {
    "journal.jsonl": "0f5a2099b5a9b2cc5a9dda92b18a01442e72ba4e85d465ff2e59df783cc73dc1",
    "report.json": "30af318dd8612b3ed2f224b683a2b14935122d66ff55e3dc53fa0328891299d0",
    "curve.tsv": "3726adf63d22abc6dc8978821ca164a7a89e85b8556314d3dbec619004e6cd9c",
    "elite_prompt.txt": "3845f06464c95b83945eaeabbeb36734c2045d47c98426c2ca97cdc24f797cd2",
    "elite_prompt.meta.json": "022e274b2ff6ddb252b526e9aec5f71e10f215ce2d6746be51483e53979e39de",
    "candidates.tsv": "a102245a58b0127073a272bf8826baba4d2a043dcd5f8daf8850e6381eca1e57",
    "refined_prompt.txt": "3845f06464c95b83945eaeabbeb36734c2045d47c98426c2ca97cdc24f797cd2",
    "refined_prompt.meta.json": "f3c03708bf4ee08d43f840266e162ce9414e6a51df13c5a5b005d13773e625b5",
    "cache.tsv": "2ca9299b3470e09f6f25b0c51a178825b99d106f8d9899a1f084a4a9c7a16fce",
    "checkpoint.json": "1a81021fd801516ed20173cdd2c0fb38e388430c065b4a5c3dd96b9a3cfa2791",
}


def masked_sha256(work, name):
    """sha256 of an artifact with `config_digest` (it hashes absolute paths)
    cut out; `cache.tsv` rows are sorted, as pooled runs write them in any order."""
    digest = json.loads((work / "journal.jsonl").read_text().splitlines()[0])["config_digest"]
    text = (work / name).read_text(encoding="utf-8").replace(digest, "")
    if name == "cache.tsv":
        text = "".join(sorted(text.splitlines(keepends=True)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_optimize_then_local_search_artifacts_are_pinned(tmp_path, monkeypatch):
    from promptgp import cli

    # 96 journal points but 18 distinct training texts: too few to tune, so the default hp.
    root = setup_run(tmp_path, seed=5, generations=4, population=SEARCH_POPULATION)
    config = root / "run.ini"
    config.write_text(config.read_text().replace("[gp]\n", "[gp]\nicl_k = 5\neval_workers = 1\n"))
    build_gateway = cli.build_gateway

    def oracle_gateway(cfg, workdir):
        gw = build_gateway(cfg, workdir)
        gw.backend = demo_dependent_oracle(root)  # demonstrations change the score
        return gw

    monkeypatch.setattr(cli, "build_gateway", oracle_gateway)
    assert main(["optimize", "--config", str(config)]) == 0
    assert main(["local-search", "--config", str(config)]) == 0
    work = root / "work"
    assert len((work / "candidates.tsv").read_text().splitlines()) > 3  # neighbours were screened
    assert {name: masked_sha256(work, name) for name in PINNED_SHA256} == PINNED_SHA256


@pytest.mark.parametrize(
    "name, command",
    [
        ("report.json", "optimize"),
        ("elite_prompt.txt", "optimize"),
        ("elite_prompt.meta.json", "optimize"),
        ("curve.tsv", "optimize"),
        ("stats.json", "optimize"),
        ("checkpoint.json", "optimize"),
        ("refined_prompt.txt", "local-search"),
        ("candidates.tsv", "local-search"),
        ("stats.json", "local-search"),
    ],
)
def test_interrupted_artifact_write_keeps_the_previous_whole_file(tmp_path, monkeypatch, name, command):
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    assert main(["local-search", "--config", config]) == 0
    target = root / "work" / name
    before = target.read_text(encoding="utf-8")
    fail_writes_to(monkeypatch, name)
    assert main([command, "--config", config]) == 2
    assert target.read_text(encoding="utf-8") == before
    assert not target.with_name(name + ".tmp").exists()


# Runs `main(argv)` with one kind of write patched so that the process
# SIGKILLs itself part-way through it.  argv: kill point, workdir, then the
# command line.  The package itself has no hook for this.
KILL_LAUNCHER = r"""
import json, os, signal, sys
from promptgp import evolution, gateway
from promptgp.cli import main

point, work, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
checkpoint = os.path.join(work, "checkpoint.json")
seen = []

def die():
    os.kill(os.getpid(), signal.SIGKILL)

def torn(append, kill_on):
    def append_then_die(path, line):
        if kill_on(path, line):
            append(path, line[: len(line) // 2])
            die()
        append(path, line)
    return append_then_die

def third_record_of_generation_2(path, line):
    seen.extend([line] if json.loads(line).get("generation") == 2 else [])
    return len(seen) == 3

def second_cache_line_after_a_checkpoint(path, line):
    seen.extend([line] if os.path.exists(checkpoint) else [])
    return len(seen) == 2

def replace_then_die(src, dst, replace=os.replace):
    if src == checkpoint + ".tmp":
        with open(src, encoding="utf-8") as fh:
            if json.load(fh)["next_generation"] == 3:  # generation 2's checkpoint
                die()
    replace(src, dst)

if point == "journal":
    evolution.append_line = torn(evolution.append_line, third_record_of_generation_2)
elif point == "cache":
    gateway.append_line = torn(gateway.append_line, second_cache_line_after_a_checkpoint)
else:
    os.replace = replace_then_die
sys.exit(main(argv))
"""

RUN_ARTIFACTS = [*PINNED_SHA256, "eval_test.tsv", "report_curve.tsv"]


def finish_run(root):
    """Resume `root`'s run from its checkpoint, then run every later command."""
    config, work = str(root / "run.ini"), root / "work"
    assert main(["optimize", "--config", config, "--resume", str(work / "checkpoint.json")]) == 0
    assert main(["local-search", "--config", config]) == 0
    assert main(["evaluate", "--config", config, "--prompt", str(work / "refined_prompt.txt")]) == 0
    curve = str(work / "report_curve.tsv")
    assert main(["report", "--journal", str(work / "journal.jsonl"), "--out", curve]) == 0


def test_run_killed_mid_write_resumes_to_the_uninterrupted_artifacts(tmp_path):
    reference = setup_run(tmp_path, "reference", generations=3, population=SEARCH_POPULATION)
    assert main(["optimize", "--config", str(reference / "run.ini")]) == 0
    finish_run(reference)  # resuming a finished run changes nothing
    expected = {name: masked_sha256(reference / "work", name) for name in RUN_ARTIFACTS}
    env = {**os.environ, "PYTHONPATH": str(Path(promptgp.__file__).parents[1])}
    for point in ("journal", "checkpoint", "cache"):
        root = setup_run(tmp_path, point, generations=3, population=SEARCH_POPULATION)
        work = root / "work"
        argv = ["optimize", "--config", str(root / "run.ini")]
        killed = subprocess.run(
            [sys.executable, "-c", KILL_LAUNCHER, point, str(work), *argv], env=env, capture_output=True
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr.decode()
        # the last whole checkpoint is that of the generation before the kill
        next_generation = json.loads((work / "checkpoint.json").read_text())["next_generation"]
        assert next_generation == {"journal": 2, "checkpoint": 2, "cache": 1}[point]
        if point == "checkpoint":
            assert (work / "checkpoint.json.tmp").exists()
        else:
            torn = work / {"journal": "journal.jsonl", "cache": "cache.tsv"}[point]
            assert not torn.read_text().endswith("\n")
        finish_run(root)
        assert {name: masked_sha256(work, name) for name in RUN_ARTIFACTS} == expected, point


def test_optimize_over_http_closes_every_connection(tmp_path, monkeypatch):
    from promptgp import cli

    gateways = []  # held, so only the command's own close can end a connection
    build_gateway = cli.build_gateway

    def recording_build_gateway(*args, **kwargs):
        gateways.append(build_gateway(*args, **kwargs))
        return gateways[-1]

    monkeypatch.setattr(cli, "build_gateway", recording_build_gateway)
    root = setup_run(tmp_path)
    config = root / "run.ini"
    with LoopbackServer() as server:
        text = config.read_text().replace("[gp]\n", "[gp]\neval_workers = 2\n")
        config.write_text(
            text.replace("backend = label_oracle\n", f"backend = http\nendpoint = {server.url()}\n")
        )
        assert main(["optimize", "--config", str(config)]) == 0
        assert len(gateways) == 1 and gateways[0].stats.backend_calls == len(server.bodies) > 0
        assert 1 <= server.opened <= 2
        assert server.wait_all_closed()


@pytest.mark.parametrize("endpoint", ["ftp://localhost/v1", "localhost:8000/v1"])
def test_http_endpoint_that_is_not_a_url_exits_2(tmp_path, capsys, endpoint):
    root = setup_run(tmp_path)
    config = root / "run.ini"
    config.write_text(
        config.read_text().replace("backend = label_oracle\n", f"backend = http\nendpoint = {endpoint}\n")
    )
    assert main(["optimize", "--config", str(config)]) == 2
    assert endpoint in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, ""])
def test_http_api_key_variable_unset_or_empty_exits_2_before_any_request(
    tmp_path, monkeypatch, capsys, value
):
    if value is None:
        monkeypatch.delenv("PROMPTGP_TEST_KEY", raising=False)
    else:
        monkeypatch.setenv("PROMPTGP_TEST_KEY", value)
    root = setup_run(tmp_path)
    config = root / "run.ini"
    with LoopbackServer() as server:
        http = f"backend = http\nendpoint = {server.url()}\napi_key_env = PROMPTGP_TEST_KEY\n"
        config.write_text(config.read_text().replace("backend = label_oracle\n", http))
        assert main(["optimize", "--config", str(config)]) == 2
        assert server.bodies == []
    err = capsys.readouterr().err
    assert "gateway.api_key_env" in err and "PROMPTGP_TEST_KEY" in err


def test_local_search_with_unreachable_embedder_exits_2_naming_it(tmp_path, capsys):
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = root / "run.ini"
    assert main(["optimize", "--config", str(config)]) == 0
    endpoint = refused_url("/v1/embed")
    remote = f"[surrogate]\nembedder = remote\nendpoint = {endpoint}\n"
    config.write_text(config.read_text().replace("[surrogate]\n", remote))
    capsys.readouterr()
    assert main(["local-search", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    port = endpoint.rsplit(":", 1)[1].split("/")[0]
    assert err.startswith("error:") and port in err  # names the endpoint, at least by its port


def test_evaluate_prompt_file(tmp_path, capsys):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    capsys.readouterr()
    work = root / "work"
    assert (
        main(
            [
                "evaluate",
                "--config",
                config,
                "--prompt",
                str(work / "elite_prompt.txt"),
                "--split",
                "test",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "test fitness:" in out
    assert "gateway failures: 0" in out
    eval_lines = (work / "eval_test.tsv").read_text().splitlines()
    assert eval_lines[1] == "case_id\tscore"
    assert len(eval_lines) == 6  # digest comment + header + 4 cases


def test_commands_warn_when_evaluation_rows_overlap_the_training_file(tmp_path, caplog):
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = str(root / "run.ini")
    prompt = str(root / "work" / "elite_prompt.txt")

    def overlap_warnings():
        found = [r.getMessage() for r in caplog.records if "with the training file" in r.getMessage()]
        caplog.clear()
        return found

    assert main(["optimize", "--config", config]) == 0
    assert main(["local-search", "--config", config]) == 0
    for split in ("train", "val", "test"):
        assert main(["evaluate", "--config", config, "--prompt", prompt, "--split", split]) == 0
    assert overlap_warnings() == []

    # One row shares an id with a training row, another shares an input.
    val = [
        {"id": "t0", "input": "validation question 0?", "label": "no"},
        {"id": "v1", "input": "training question 1?", "label": "yes"},
        {"id": "v2", "input": "validation question 2?", "label": "no"},
    ]
    write_jsonl(root / "val.jsonl", val)
    expected = [f"{root / 'val.jsonl'}: 2 of 3 rows share an id or an input with the training file"]
    assert main(["optimize", "--config", config]) == 0
    assert overlap_warnings() == expected
    assert main(["local-search", "--config", config]) == 0
    assert overlap_warnings() == expected
    assert main(["evaluate", "--config", config, "--prompt", prompt, "--split", "val"]) == 0
    assert overlap_warnings() == expected
    assert main(["evaluate", "--config", config, "--prompt", prompt, "--split", "test"]) == 0
    assert overlap_warnings() == []


def test_report_matches_curve(tmp_path):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    work = root / "work"
    out = root / "rebuilt.tsv"
    assert main(["report", "--journal", str(work / "journal.jsonl"), "--out", str(out)]) == 0
    assert out.read_text() == (work / "curve.tsv").read_text()


def test_main_returns_2_on_bad_input(tmp_path):
    assert main(["optimize", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[task]\ntemplate = builtin:pubmedqa\n")
    # No train_data configured.
    assert main(["optimize", "--config", str(bad)]) == 2


def test_evaluate_requires_configured_split(tmp_path):
    root = setup_run(tmp_path)
    config_text = (root / "run.ini").read_text().replace(f"test_data = {root / 'test.jsonl'}\n", "")
    (root / "no_test.ini").write_text(config_text)
    prompt = root / "prompt.txt"
    prompt.write_text("Answer: __TASK_INPUT_0__")
    assert (
        main(
            ["evaluate", "--config", str(root / "no_test.ini"), "--prompt", str(prompt), "--split", "test"]
        )
        == 2
    )


BAD_ROWS = {
    "torn": ('{"id": "a", "input": "q?", "label": "yes"}\n{"id": "b", "inp\n', "line 2: invalid JSON"),
    "twice": (
        '{"id": "a", "input": "q?", "label": "yes"}\n{"id": "a", "input": "r?", "label": "no"}\n',
        "duplicate row id 'a'",
    ),
    "tab-in-id": ('{"id": "a\\tb", "input": "q?", "label": "yes"}\n', 'line 1: id "a\\tb" holds a tab'),
}


@pytest.mark.parametrize("fault", sorted(BAD_ROWS))
@pytest.mark.parametrize("name", ["train.jsonl", "val.jsonl"])
def test_optimize_dataset_error_names_the_file(tmp_path, capsys, name, fault):
    root = setup_run(tmp_path)
    text, says = BAD_ROWS[fault]
    (root / name).write_text(text)
    assert main(["optimize", "--config", str(root / "run.ini")]) == 2
    assert f"error: {root / name}: {says}" in capsys.readouterr().err


@pytest.mark.parametrize("fault", sorted(BAD_ROWS))
@pytest.mark.parametrize(
    "split, name", [("test", "test.jsonl"), ("val", "val.jsonl"), ("test", "train.jsonl")]
)
def test_evaluate_dataset_error_names_the_file(tmp_path, capsys, split, name, fault):
    root = setup_run(tmp_path)
    prompt = root / "prompt.txt"
    prompt.write_text("Answer: __TASK_INPUT_0__")
    text, says = BAD_ROWS[fault]
    (root / name).write_text(text)
    argv = ["evaluate", "--config", str(root / "run.ini"), "--prompt", str(prompt), "--split", split]
    assert main(argv) == 2
    assert f"error: {root / name}: {says}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "local-search"])
@pytest.mark.parametrize("key, name", [("train_data", "train.jsonl"), ("val_data", "val.jsonl")])
def test_empty_search_file_is_refused_before_any_work(tmp_path, capsys, command, key, name):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    work = root / "work"
    if command == "local-search":
        assert main(["optimize", "--config", config]) == 0
        for artifact in ("journal.jsonl", "cache.tsv"):
            (work / artifact).rename(root / artifact)
        journal = ["--journal", write_journal(root / "points.jsonl", 12)]
    else:
        journal = []
    (root / name).write_text("\n")
    capsys.readouterr()
    assert main([command, "--config", config, *journal]) == 2
    assert f"error: task.{key}: {root / name} holds no rows" in capsys.readouterr().err
    assert not (work / "journal.jsonl").exists()
    assert not (work / "cache.tsv").exists()


def test_evaluate_refuses_an_empty_split_naming_its_key(tmp_path, capsys):
    root = setup_run(tmp_path)
    prompt = root / "prompt.txt"
    prompt.write_text("Answer: __TASK_INPUT_0__")
    (root / "test.jsonl").write_text("")
    argv = ["evaluate", "--config", str(root / "run.ini"), "--prompt", str(prompt), "--split", "test"]
    assert main(argv) == 2
    assert f"error: task.test_data: {root / 'test.jsonl'} holds no rows" in capsys.readouterr().err
    # The training file is only the demonstration pool, so it may be empty.
    (root / "train.jsonl").write_text("")
    argv[-1] = "val"
    assert main(argv) == 0


def demo_dependent_oracle(root):
    """Right label only when the prompt shows `Input:` demonstration lines."""
    truth = json.loads((root / "truth.json").read_text())
    return LabelOracleBackend(
        truth, answer_fn=lambda label, prompt: "{'Answer': '%s'}" % (label if "Input: " in prompt else "maybe")
    )


@pytest.mark.parametrize("edit_model", ["edit-m", None])
def test_models_reach_requests_and_evaluate_rescores_elite(tmp_path, monkeypatch, capsys, edit_model):
    from promptgp import cli
    from promptgp.gateway import PARAPHRASE_TEMPLATE, SUMMARISE_TEMPLATE

    root = setup_run(tmp_path)
    models = f"model = task-m\nedit_model = {edit_model}\n" if edit_model else "model = task-m\n"
    models += "temperature = 0.5\nmax_new_tokens = 64\n"
    config = root / "run.ini"
    config.write_text(config.read_text().replace("backend = label_oracle\n", "backend = label_oracle\n" + models))

    edit_prefixes = (PARAPHRASE_TEMPLATE.split(" ")[0], SUMMARISE_TEMPLATE.split(" ")[0])
    seen = {"task": set(), "edit": set()}
    build_gateway = cli.build_gateway

    def recording_build_gateway(cfg, workdir):
        gw = build_gateway(cfg, workdir)
        gw.backend = demo_dependent_oracle(root)
        complete = gw.complete

        def record(req):
            kind = "edit" if req.last_user_content().startswith(edit_prefixes) else "task"
            seen[kind].add((req.model, req.temperature, req.max_new_tokens))
            return complete(req)

        gw.complete = record
        return gw

    monkeypatch.setattr(cli, "build_gateway", recording_build_gateway)
    assert main(["optimize", "--config", str(config)]) == 0
    assert seen == {"task": {("task-m", 0.5, 64)}, "edit": {(edit_model or "task-m", 0.5, 64)}}

    work = root / "work"
    meta = json.loads((work / "elite_prompt.meta.json").read_text())
    # The elite shows demonstrations, so re-scoring it without them would differ.
    assert meta["f_val"] > 0
    capsys.readouterr()
    argv = ["evaluate", "--config", str(config), "--prompt", str(work / "elite_prompt.txt")]
    assert main(argv + ["--split", "val"]) == 0
    assert f"val fitness: {meta['f_val']:.6f} over 4 cases" in capsys.readouterr().out
    assert seen["task"] == {("task-m", 0.5, 64)}
