import hashlib
import json
import re
import threading
from pathlib import Path

import pytest
from helpers import LoopbackServer, refused_url

from promptgp.cli import main
from promptgp.config import load_config, config_digest
from promptgp.gateway import LabelOracleBackend, TransportError
from promptgp.grammar import decode, default_grammar, render_phenotype

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


def test_optimize_resume_from_checkpoint_reproduces_report(tmp_path):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    work = root / "work"
    original_report = (work / "report.json").read_text()
    original_journal = (work / "journal.jsonl").read_text()
    assert (
        main(["optimize", "--config", config, "--resume", str(work / "checkpoint.json")]) == 0
    )
    assert (work / "report.json").read_text() == original_report
    assert (work / "journal.jsonl").read_text() == original_journal


def test_local_search_after_optimize(tmp_path, capsys):
    root = setup_run(tmp_path)
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
    root = setup_run(tmp_path)
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
    root = setup_run(tmp_path)
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
    assert section["journal_points"] == len(texts) < 50  # too few to tune: the default hp
    assert section["distinct_texts"] == len(set(texts)) < len(texts)
    assert section["hp"] == {"widths": [128, 64, 1], "dropout": 0.1, "batch": 32, "lr": 0.001}
    assert sorted(section["seconds"]) == ["embed", "fit", "search", "tune"]
    assert all(seconds >= 0.0 for seconds in section["seconds"].values())

    (work / "stats.json").write_text('{"requests": 1')  # torn by a killed write
    assert main(["local-search", "--config", config]) == 0
    assert sorted(json.loads((work / "stats.json").read_text())) == ["local_search"]


def write_journal(path, n):
    """A journal of `n` distinct training points, enough to drive the surrogate alone."""
    write_jsonl(
        path,
        [
            {"split": "train", "prompt": f"Answer question {i} with care, case {i * 7}.", "fitness": (i % 5) / 4}
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
    assert neighbors
    assert len(embedded) == 60 + len(neighbors)
    assert embedded[60:] == [n.prompt.text for n in neighbors]


def test_local_search_needs_ten_journal_points(tmp_path, capsys):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    journal = write_journal(root / "points.jsonl", 9)
    capsys.readouterr()
    assert main(["local-search", "--config", config, "--journal", journal]) == 2
    assert "need at least 10 data points" in capsys.readouterr().err


def test_local_search_needs_journal_points_when_journal_is_empty(tmp_path, capsys):
    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    journal = write_journal(root / "points.jsonl", 0)
    capsys.readouterr()
    assert main(["local-search", "--config", config, "--journal", journal]) == 2
    assert "need at least 10 data points, got 0" in capsys.readouterr().err


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

    root = setup_run(tmp_path)
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
        root = setup_run(tmp_path, name=f"workers{workers}", population=8)
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
    "journal.jsonl": "fca7f4c01156255de1c2ac314edc4d8b1350e1e8ac7e65148806b4aa1c7f8a73",
    "report.json": "cd10de71d1cb7a0373c16843eec82a022bdc114b8166c9f2082a6c0dfbf7cef1",
    "curve.tsv": "c2ab16c4c20ca05949b3b2140afd4706c90568cc43008b89a61f87da0f5f1870",
    "elite_prompt.txt": "3845f06464c95b83945eaeabbeb36734c2045d47c98426c2ca97cdc24f797cd2",
    "elite_prompt.meta.json": "022e274b2ff6ddb252b526e9aec5f71e10f215ce2d6746be51483e53979e39de",
    "candidates.tsv": "e10b4ea09d68394dd5b83dfe9079e834bf196c5b46e7e97effa4896d4c96853b",
    "refined_prompt.txt": "3845f06464c95b83945eaeabbeb36734c2045d47c98426c2ca97cdc24f797cd2",
    "refined_prompt.meta.json": "f3c03708bf4ee08d43f840266e162ce9414e6a51df13c5a5b005d13773e625b5",
    "cache.tsv": "dc6f6b7805a03bab9a294b807b0740bceb3a636dee417110d260ed1f7df9d804",
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

    root = setup_run(tmp_path, seed=5, generations=4, population=8)
    config = root / "run.ini"
    config.write_text(config.read_text().replace("[gp]\n", "[gp]\nicl_k = 5\neval_workers = 1\n"))
    with_cv(root, folds=2, combos=2)  # 64 journal points, so CV tunes the hp too
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
    root = setup_run(tmp_path)
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
