import json
from pathlib import Path

import pytest

from promptgp.cli import main
from promptgp.config import load_config, config_digest
from promptgp.gateway import LabelOracleBackend
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
        "surrogate.npz",
        "refined_prompt.txt",
        "refined_prompt.meta.json",
        "candidates.tsv",
    ):
        assert (work / artifact).exists(), artifact
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


def test_local_search_full_path_with_sited_elite(tmp_path):
    from promptgp.grammar import encode, sample_ptc2

    root = setup_run(tmp_path)
    config = str(root / "run.ini")
    assert main(["optimize", "--config", config]) == 0
    work = root / "work"

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
