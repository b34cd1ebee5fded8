import json
import logging
from pathlib import Path

import pytest

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
    with pytest.raises(json.JSONDecodeError):
        EvalJournal.load(str(path))


def test_journal_truncate_file(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = EvalJournal(path)
    for i in range(5):
        journal.append({"generation": i})
    EvalJournal.truncate_file(path, 3)
    assert len(EvalJournal.load(path).records) == 3


def test_journal_truncate_failure_keeps_the_journal(tmp_path, monkeypatch):
    path = str(tmp_path / "journal.jsonl")
    journal = EvalJournal(path)
    for i in range(5):
        journal.append({"generation": i})
    before = Path(path).read_text(encoding="utf-8")

    class FailingWriter:
        """A real write handle whose first write raises, as a full disk would."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, lines):
            self.fh.write(lines[0])
            raise OSError("disk full")

    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FailingWriter(fh) if "w" in mode else fh

    monkeypatch.setattr("promptgp.evolution.open", failing_open, raising=False)
    with pytest.raises(OSError):
        EvalJournal.truncate_file(path, 3)
    assert Path(path).read_text(encoding="utf-8") == before


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
