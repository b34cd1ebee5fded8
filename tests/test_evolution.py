import json
import logging
import re
from pathlib import Path

import pytest
from helpers import fail_writes_to, record_os_writes

from promptgp.evolution import (
    EvalJournal,
    EvolutionEngine,
    GpSettings,
    Individual,
    load_checkpoint,
)
from promptgp.gateway import LabelOracleBackend, LlmGateway
from promptgp.grammar import default_grammar, sample_ptc2
from promptgp.lexicons import default_lexicons
from promptgp.tasks import DataRow, Dataset, EvalContext, TaskSettings
from promptgp.template import parse_template

GRAMMAR = default_grammar()

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


def make_datasets(n_train=8, n_val=4):
    train = Dataset(
        rows=[
            DataRow(id=f"t{i}", input=f"training question {i}?", label="yes" if i % 2 else "no")
            for i in range(n_train)
        ],
    )
    val = Dataset(
        rows=[
            DataRow(id=f"v{i}", input=f"validation question {i}?", label="yes" if i % 2 else "no")
            for i in range(n_val)
        ],
    )
    return train, val


def make_engine(seed=0, gens=2, pop=6, journal=None, checkpoint=None, config_digest=""):
    train, val = make_datasets()
    truth = {r.input: r.label for r in train.rows + val.rows}
    gateway = LlmGateway(LabelOracleBackend(truth))
    settings = GpSettings(
        population_size=pop,
        offspring_size=pop,
        generations=gens,
        max_nodes=60,
        sample_size=4,
        init_retries=3,
    )
    return EvolutionEngine(
        grammar=GRAMMAR,
        base=parse_template(TEMPLATE),
        ctx=EvalContext(TaskSettings(), gateway, train, lexicons=default_lexicons()),
        val_dataset=val,
        settings=settings,
        master_seed=seed,
        journal=journal if journal is not None else EvalJournal(),
        checkpoint_path=checkpoint,
        config_digest=config_digest,
    )


def test_engine_rejects_max_nodes_below_the_grammar_minimum():
    train, val = make_datasets()
    ctx = EvalContext(TaskSettings(), LlmGateway(LabelOracleBackend({})), train)
    assert GRAMMAR.min_size(GRAMMAR.start_symbol) == 20
    with pytest.raises(ValueError, match=r"gp\.max_nodes must be >= 20 .*got 19"):
        EvolutionEngine(GRAMMAR, parse_template(TEMPLATE), ctx, val, GpSettings(max_nodes=19))
    EvolutionEngine(GRAMMAR, parse_template(TEMPLATE), ctx, val, GpSettings(max_nodes=20))


def test_gp_settings_defaults():
    s = GpSettings()
    assert s.population_size == 50
    assert s.offspring_size == 50
    assert s.generations == 20
    assert s.parent_tournament == 2
    assert s.survivor_tournament == 4
    assert s.max_nodes == 1024
    assert s.sample_size == 20
    assert s.crossover_prob == 0.8
    assert s.mutation_prob == 0.2


def test_individual_digest_and_clone():
    tree = sample_ptc2(GRAMMAR, 60, rng_seed=0)
    a = Individual(genotype=(1, 2, 3), tree=tree, born=0)
    b = Individual(genotype=(1, 2, 3), tree=tree, born=5)
    assert a.digest == b.digest
    assert len(a.digest) == 16
    c = a.clone()
    c.f_train = 0.9
    assert a.f_train is None


def test_journal_file_round_trip(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = EvalJournal(path)
    journal.append({"split": "train", "fitness": 0.5, "prompt": "p", "generation": 0})
    journal.append({"split": "val", "fitness": 0.25, "prompt": "p", "generation": 0})
    journal.append({"split": "train", "fitness": 0.75, "prompt": "", "generation": 0})

    loaded = EvalJournal.load(path)
    assert loaded.records == journal.records
    assert journal.training_points() == [("p", 0.5)]

    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == journal.records[0]
    assert lines[0] == json.dumps(journal.records[0], sort_keys=True)


def test_training_points_are_one_mean_per_distinct_text_in_first_seen_order():
    journal = EvalJournal()
    for generation, (prompt, fitness) in enumerate(
        [("b", 0.2), ("a", 1.0), ("b", 0.4), ("", 0.3), ("b", 0.9)]
    ):
        journal.append({"split": "train", "generation": generation, "fitness": fitness, "prompt": prompt})
    journal.append({"split": "val", "generation": 4, "fitness": 0.0, "prompt": "c"})
    assert journal.training_points() == [("b", pytest.approx(0.5)), ("a", 1.0)]
    assert journal.training_record_count() == 4  # the empty prompt is no point


@pytest.mark.parametrize(
    "record, message",
    [
        ({"generation": 0, "prompt": "p"}, "fitness: missing"),
        ({"generation": 0, "prompt": "p", "fitness": "0.5"}, "fitness: must be number or integer, got string"),
        ({"generation": 0, "prompt": "p", "fitness": True}, "fitness: must be number or integer, got boolean"),
        ({"generation": 0, "prompt": "p", "fitness": float("nan")}, "fitness: must be finite, got nan"),
        ({"generation": 0, "prompt": "p", "fitness": float("inf")}, "fitness: must be finite, got inf"),
        ({"prompt": "p", "fitness": 0.5}, "generation: missing"),
        ({"generation": "0", "prompt": "p", "fitness": 0.5}, "generation: must be integer, got string"),
        ({"generation": False, "prompt": "p", "fitness": 0.5}, "generation: must be integer, got boolean"),
        ({"generation": 0, "fitness": 0.5}, "prompt: missing"),
        ({"generation": 0, "prompt": 7, "fitness": 0.5}, "prompt: must be string, got integer"),
    ],
)
def test_journal_load_refuses_a_train_record_it_cannot_use(tmp_path, record, message):
    path = tmp_path / "journal.jsonl"
    good = {"split": "train", "generation": 0, "prompt": "p", "fitness": 1}
    lines = [{"config_digest": "x"}, good, {"split": "train", **record}]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {message}")):
        EvalJournal.load(str(path))
    # A validation record is read as it is: no reader takes a field of it.
    lines[2]["split"] = "val"
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    assert len(EvalJournal.load(str(path)).records) == 3


def test_journal_append_is_one_write_of_one_whole_line(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    journal = EvalJournal(str(path))
    written = record_os_writes(monkeypatch)
    records = [{"generation": 0}, {"prompt": "two\nlines é " * 1000, "fitness": 0.5}]
    for record in records:
        journal.append(record)
    assert written == [(json.dumps(r, sort_keys=True) + "\n").encode("utf-8") for r in records]
    assert all(line.count(b"\n") == 1 for line in written)
    assert path.read_bytes() == b"".join(written)


def test_journal_load_drops_torn_last_line(tmp_path, caplog):
    path = tmp_path / "journal.jsonl"
    journal = EvalJournal(str(path))
    journal.append({"generation": 0})
    journal.append({"generation": 1, "prompt": "cut short"})
    path.write_text(path.read_text(encoding="utf-8")[:-10], encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="promptgp.evolution"):
        loaded = EvalJournal.load(str(path))
    assert loaded.records == [{"generation": 0}]
    assert [r.name for r in caplog.records] == ["promptgp.evolution"]
    # A malformed line that ends in a newline is not a torn append.
    path.write_text('{"generation": 0}\n{"gen\n', encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: ")):
        EvalJournal.load(str(path))


def test_journal_cut_keeps_the_counted_records(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = EvalJournal(path)
    for i in range(5):
        journal.append({"generation": i})
    EvalJournal.load(path).cut(3)
    assert len(EvalJournal.load(path).records) == 3
    before = Path(path).read_text(encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: holds 3 records, fewer than the 4 ")):
        EvalJournal.load(path).cut(4)
    assert Path(path).read_text(encoding="utf-8") == before


def test_journal_cut_failure_keeps_the_journal(tmp_path, monkeypatch):
    path = str(tmp_path / "journal.jsonl")
    journal = EvalJournal(path)
    for i in range(5):
        journal.append({"generation": i})
    before = Path(path).read_text(encoding="utf-8")
    loaded = EvalJournal.load(path)  # reads, so before the writes fail
    fail_writes_to(monkeypatch, "journal.jsonl")
    with pytest.raises(OSError):
        loaded.cut(3)
    assert Path(path).read_text(encoding="utf-8") == before
    assert not Path(path + ".tmp").exists()


def test_initialise_is_deterministic_and_renders():
    pop_a = make_engine(seed=7).initialise()
    pop_b = make_engine(seed=7).initialise()
    pop_c = make_engine(seed=8).initialise()
    assert [i.genotype for i in pop_a] == [i.genotype for i in pop_b]
    assert [i.genotype for i in pop_a] != [i.genotype for i in pop_c]
    assert len(pop_a) == 6
    assert all(ind.born == 0 for ind in pop_a)
    assert all(ind.prompt is not None for ind in pop_a)


def test_run_produces_history_and_elite():
    engine = make_engine(seed=1, gens=3)
    result = engine.run()
    assert len(result.history) == 3
    assert [h["generation"] for h in result.history] == [0, 1, 2]
    assert result.elite is not None
    assert result.elite.f_val is not None
    assert len(result.population) == 6
    for row in result.history:
        assert set(row) >= {"champion_digest", "champion_f_train", "champion_f_val", "elite_f_val"}


def test_elite_series_is_monotone():
    engine = make_engine(seed=3, gens=4)
    result = engine.run()
    series = [h["elite_f_val"] for h in result.history]
    assert all(a <= b for a, b in zip(series, series[1:]))


def test_full_run_is_deterministic():
    j1, j2 = EvalJournal(), EvalJournal()
    r1 = make_engine(seed=5, gens=2, journal=j1).run()
    r2 = make_engine(seed=5, gens=2, journal=j2).run()
    assert j1.records == j2.records
    assert r1.elite.genotype == r2.elite.genotype
    assert r1.history == r2.history
    assert [i.genotype for i in r1.population] == [i.genotype for i in r2.population]


def test_champion_revalidation_skipped_when_unchanged():
    journal = EvalJournal()
    engine = make_engine(seed=2, gens=3, journal=journal)
    engine.run()
    val_records = [r for r in journal.records if r["split"] == "val"]
    # One validation at most per generation, and repeat champions are reused.
    assert 1 <= len(val_records) <= 3
    digests = [r["digest"] for r in val_records]
    assert len(digests) == len(set(digests))


def test_reinsert_elite_replaces_worst():
    engine = make_engine(seed=4)
    pop = engine.initialise()
    for i, ind in enumerate(pop):
        ind.f_train = 0.5 if i else 0.1  # index 0 is the worst
    elite = pop[-1].clone()
    elite.genotype = tuple(list(elite.genotype) + [0])  # not present in pop
    elite.f_val = 1.0
    engine.elite = elite
    engine._reinsert_elite(pop)
    assert pop[0].genotype == elite.genotype
    # Present elite is not duplicated.
    engine._reinsert_elite(pop)
    assert sum(1 for ind in pop if ind.genotype == elite.genotype) == 1


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    ck = str(tmp_path / "checkpoint.json")
    jr_full = EvalJournal(str(tmp_path / "full.jsonl"))
    full = make_engine(seed=9, gens=4, journal=jr_full).run()

    jr_head = EvalJournal(str(tmp_path / "resumed.jsonl"))
    make_engine(seed=9, gens=2, journal=jr_head, checkpoint=ck).run()

    state = load_checkpoint(ck)
    assert state["next_generation"] == 2
    tail_engine = make_engine(seed=9, gens=4, journal=EvalJournal.load(str(tmp_path / "resumed.jsonl")), checkpoint=ck)
    population, start = tail_engine.restore(state)
    resumed = tail_engine.run(population=population, start_generation=start)

    assert resumed.elite.genotype == full.elite.genotype
    assert resumed.history == full.history
    assert [i.genotype for i in resumed.population] == [i.genotype for i in full.population]
    full_lines = (tmp_path / "full.jsonl").read_text(encoding="utf-8")
    resumed_lines = (tmp_path / "resumed.jsonl").read_text(encoding="utf-8")
    assert resumed_lines == full_lines


def test_restore_rejects_mismatched_seed_and_config(tmp_path):
    ck = str(tmp_path / "checkpoint.json")
    make_engine(seed=9, gens=1, checkpoint=ck, config_digest="abc").run()
    state = load_checkpoint(ck)

    with pytest.raises(ValueError):
        make_engine(seed=10, gens=1, config_digest="abc").restore(state)
    with pytest.raises(ValueError):
        make_engine(seed=9, gens=1, config_digest="other").restore(state)
    bad_version = dict(state, version=99)
    with pytest.raises(ValueError):
        make_engine(seed=9, gens=1, config_digest="abc").restore(bad_version)


def test_zero_generation_run_scores_once():
    journal = EvalJournal()
    engine = make_engine(seed=11, gens=0, journal=journal)
    result = engine.run()
    assert len(result.history) == 1
    assert result.elite is not None
    assert any(r["split"] == "train" for r in journal.records)
