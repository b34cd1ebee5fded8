import json
import re
import threading
import time

import pytest

from helpers import identity_phenotype
from promptgp import tasks, template
from promptgp.gateway import LabelOracleBackend, LlmGateway, ScriptedBackend, TransportError
from promptgp.tasks import (
    DataRow,
    Dataset,
    DatasetError,
    EvalContext,
    FitnessReport,
    TaskSettings,
    evaluate_prompt,
    normalize_answer,
    parse_dataset,
    sample_rows,
    score_case,
    token_f1,
)
from promptgp.template import RenderedPrompt, apply_phenotype, parse_template

JSONL = """{"id": "a", "input": "Is grass green?", "label": "yes"}
{"id": "b", "input": "Is snow hot?", "label": "no", "context": "Snow is cold."}

{"id": "c", "input": "Is fire cold?", "label": "no"}
"""


def test_parse_dataset_rows_and_blank_lines():
    ds = parse_dataset(JSONL)
    assert [r.id for r in ds.rows] == ["a", "b", "c"]
    assert ds.rows[1].context == "Snow is cold."
    assert ds.rows[0].context == ""


def test_parse_dataset_errors():
    with pytest.raises(DatasetError):
        parse_dataset("not json\n")
    with pytest.raises(DatasetError):
        parse_dataset('{"id": "a", "input": "x"}\n')  # missing label
    with pytest.raises(DatasetError):
        parse_dataset("[1, 2]\n")
    for field, value in [
        ("id", "null"),
        ("input", "[1, 2]"),
        ("label", "null"),
        ("label", "true"),
        ("input", '{"q": "x"}'),
        ("context", "false"),
        ("context", '["c"]'),
    ]:
        row = {"id": '"a"', "input": '"x"', "label": '"y"', field: value}
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}"
        with pytest.raises(DatasetError, match=f"line 2: field '{field}'"):
            parse_dataset('{"id": "z", "input": "w", "label": "v"}\n' + line + "\n")


@pytest.mark.parametrize("id_", ["a\tb", "a\nb", "a\r", "\u2028a"])
def test_parse_dataset_refuses_an_id_that_would_break_a_tsv_row(id_):
    line = json.dumps({"id": id_, "input": "x", "label": "y"})
    with pytest.raises(DatasetError, match=f"line 2: id {re.escape(json.dumps(id_))} holds a tab or a line break"):
        parse_dataset('{"id": "z", "input": "w", "label": "v"}\n' + line + "\n")


@pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"])
def test_parse_dataset_keeps_a_raw_unicode_line_break_inside_a_string(brk):
    line = json.dumps({"id": "a", "input": f"x{brk}y", "label": "y"}, ensure_ascii=False)
    assert brk in line
    assert parse_dataset(line + "\n").rows == [DataRow(id="a", input=f"x{brk}y", label="y")]


def test_parse_dataset_reads_numbers_as_text_and_a_null_context_as_absent():
    ds = parse_dataset('{"id": 7, "input": 2.5, "label": 1, "context": null}\n')
    assert ds.rows == [DataRow(id="7", input="2.5", label="1", context="")]


def test_dataset_validates_ids_and_labels():
    with pytest.raises(DatasetError):
        Dataset(rows=[DataRow(id="a", input="x", label="y"), DataRow(id="a", input="z", label="w")])
    with pytest.raises(DatasetError):
        Dataset(rows=[DataRow(id="", input="x", label="y")])
    with pytest.raises(DatasetError):
        Dataset(rows=[DataRow(id="a", input="x", label="")])


def test_sample_rows_deterministic_without_replacement():
    ds = parse_dataset(JSONL)
    first = sample_rows(ds, 2, seed=42)
    second = sample_rows(ds, 2, seed=42)
    assert first == second
    assert len({r.id for r in first}) == 2
    assert sample_rows(ds, 0, seed=1) == []
    all_rows = sample_rows(ds, 10, seed=1)
    assert sorted(r.id for r in all_rows) == ["a", "b", "c"]


def test_normalize_answer():
    assert normalize_answer("  Yes, It IS.  ") == "yes it is"
    assert normalize_answer("a-b_c") == "a b c"


def test_token_f1_values():
    assert token_f1("the cat", "the cat") == 1.0
    assert token_f1("", "") == 1.0
    assert token_f1("", "cat") == 0.0
    assert token_f1("dog", "") == 0.0
    assert token_f1("unrelated words", "the cat") == 0.0
    # one shared token out of 2 predicted and 2 labelled: p = r = 0.5
    assert token_f1("the dog", "the cat") == pytest.approx(0.5)


def test_score_case():
    assert score_case(None, "yes") == 0.0
    assert score_case("Yes.", "yes") == 1.0
    assert score_case("no", "yes") == 0.0
    assert score_case("the cat", "the cat sat", metric="token_f1") == pytest.approx(0.8)


TEMPLATE = """== TASK ==
Answer the question.
## [Question]
__TASK_INPUT_0__
== ICL ==
## [Examples]
"""


def context(gateway, **kwargs):
    """A scoring context over `gateway` with an empty demonstration pool."""
    return EvalContext(TaskSettings(), gateway, Dataset(rows=[]), **kwargs)


def rendered():
    base = parse_template(TEMPLATE)
    return apply_phenotype(base, identity_phenotype(), context(LlmGateway(ScriptedBackend({}))))


def test_evaluate_prompt_with_label_oracle():
    rows = [
        DataRow(id="a", input="Is grass green?", label="yes"),
        DataRow(id="b", input="Is snow hot?", label="no"),
    ]
    truth = {r.input: r.label for r in rows}
    gw = LlmGateway(LabelOracleBackend(truth))
    report = evaluate_prompt(rendered(), rows, context(gw))
    assert report.fitness == 1.0
    assert report.per_case == [("a", 1.0), ("b", 1.0)]
    assert report.parse_failures == 0


def test_evaluate_prompt_counts_parse_failures():
    rows = [DataRow(id="a", input="Q1", label="yes"), DataRow(id="b", input="Q2", label="no")]
    gw = LlmGateway(ScriptedBackend({}, default="gibberish with no dict"))
    report = evaluate_prompt(rendered(), rows, context(gw))
    assert report.fitness == 0.0
    assert report.parse_failures == 2


def test_evaluate_prompt_gateway_failure_scores_zero():
    class Broken:
        name = "broken"

        def send(self, req):
            raise TransportError("down")

    gw = LlmGateway(Broken(), max_attempts=1, sleep=lambda _: None)
    rows = [DataRow(id="a", input="Q", label="yes")]
    report = evaluate_prompt(rendered(), rows, context(gw))
    assert report.fitness == 0.0
    assert report.parse_failures == 0
    assert gw.stats.failures == 1


def test_evaluate_prompt_requires_rows():
    gw = LlmGateway(ScriptedBackend({}, default="x"))
    with pytest.raises(ValueError):
        evaluate_prompt(rendered(), [], context(gw))


def test_evaluate_prompt_includes_retrieved_demos():
    seen = []

    class Spy:
        name = "spy"

        def send(self, req):
            seen.append(req.last_user_content())
            return "{'Answer': 'yes'}"

    train = [
        DataRow(id="t1", input="Is grass green in summer?", label="yes"),
        DataRow(id="t2", input="Do fish fly?", label="no"),
    ]
    rows = [DataRow(id="a", input="Is grass green?", label="yes")]
    ctx = EvalContext(TaskSettings(), LlmGateway(Spy()), Dataset(rows=train), icl_k=1)
    evaluate_prompt(rendered(), rows, ctx)
    assert "Input: Is grass green in summer?\nOutput: {'Answer': 'yes'}" in seen[0]
    assert "Do fish fly?" not in seen[0]


def test_evaluate_prompt_parallel_matches_serial():
    rows = [DataRow(id=f"r{i}", input=f"Question {i}", label="yes") for i in range(6)]
    truth = {r.input: r.label for r in rows}
    serial = evaluate_prompt(rendered(), rows, context(LlmGateway(LabelOracleBackend(truth))))
    parallel = evaluate_prompt(
        rendered(), rows, context(LlmGateway(LabelOracleBackend(truth)), max_workers=4)
    )
    assert serial.fitness == parallel.fitness
    assert serial.per_case == parallel.per_case


class Recorder:
    """Answers every case and records each request text."""

    name = "recorder"

    def __init__(self):
        self.seen = []

    def send(self, req):
        self.seen.append(req.last_user_content())
        return "{'Answer': 'yes'}"


def icl_context(train, backend, **kwargs):
    return EvalContext(TaskSettings(), LlmGateway(backend), Dataset(rows=train), icl_k=2, **kwargs)


TRAIN = [DataRow(id=f"t{i}", input=f"is colour {i} a warm colour", label="yes") for i in range(6)]


def test_context_retrieves_each_case_once(monkeypatch):
    calls = []
    retrieve = tasks.retrieve_icl

    def counting_retrieve(case_input, rows, k):
        calls.append(case_input)
        return retrieve(case_input, rows, k)

    monkeypatch.setattr(tasks, "retrieve_icl", counting_retrieve)
    backend = Recorder()
    ctx = icl_context(TRAIN, backend)
    rows = [DataRow(id=f"r{i}", input=f"is colour {i} warm", label="yes") for i in range(3)]
    first = evaluate_prompt(rendered(), rows, ctx)
    second = evaluate_prompt(RenderedPrompt("Q: __TASK_INPUT_0__ __ICL_0__"), rows + rows[:1], ctx)
    assert sorted(calls) == sorted(row.input for row in rows)
    assert first.fitness == second.fitness == 1.0
    assert "Input: is colour 0 a warm colour" in backend.seen[0]


def test_context_tokenizes_its_pool_once(monkeypatch):
    calls = []
    word_set = template._word_set

    def counting_word_set(text):
        calls.append(text)
        return word_set(text)

    monkeypatch.setattr(template, "_word_set", counting_word_set)
    train = TRAIN + [DataRow(id=f"u{i}", input=f"a {i} cool colour", label="no") for i in range(4)]
    ctx = icl_context(train, Recorder())
    cases = [DataRow(id=f"r{i}", input=f"is colour {i} warm", label="yes") for i in range(5)]
    for row in cases + cases[:2]:
        ctx.demos(row)
    assert len(calls) == len(train) + len(cases)  # not len(cases) * (len(train) + 1)
    calls.clear()
    no_icl = EvalContext(TaskSettings(), LlmGateway(Recorder()), Dataset(rows=train), icl_k=0)
    assert no_icl.demos(cases[0]) == [] and calls == []


def test_parallel_context_sends_the_serial_requests():
    prompt = RenderedPrompt("Q: __TASK_INPUT_0__\n__ICL_0__\n__ICL_1__")
    rows = [DataRow(id=f"r{i}", input=f"is colour {i % 4} warm", label="yes") for i in range(8)]
    serial, parallel = Recorder(), Recorder()
    evaluate_prompt(prompt, rows, icl_context(TRAIN, serial))
    evaluate_prompt(prompt, rows, icl_context(TRAIN, parallel, max_workers=4))
    assert sorted(parallel.seen) == sorted(serial.seen)
    assert len(set(serial.seen)) == 4


def test_pooled_scores_retrieve_each_row_once(monkeypatch):
    calls = []
    retrieve = tasks.retrieve_icl

    def counting_retrieve(case_input, rows, k):
        calls.append(case_input)
        time.sleep(0.002)  # a slow retrieval, so that an unguarded memo misses twice
        return retrieve(case_input, rows, k)

    monkeypatch.setattr(tasks, "retrieve_icl", counting_retrieve)
    rows = [DataRow(id=f"r{i}", input=f"is colour {i} warm", label="yes") for i in range(5)]
    prompts = [rendered(), RenderedPrompt("Q: __TASK_INPUT_0__ __ICL_0__"), rendered()]
    ctx = icl_context(TRAIN, Recorder(), max_workers=3)
    reports = ctx.map(lambda prompt: evaluate_prompt(prompt, rows + rows[:2], ctx), prompts)
    evaluate_prompt(prompts[1], rows[1:], ctx)
    assert sorted(calls) == sorted(row.input for row in rows)
    serial = icl_context(TRAIN, Recorder())
    assert reports == [evaluate_prompt(prompt, rows + rows[:2], serial) for prompt in prompts]


class InFlight:
    """Answers every case after a short wait, recording the most requests
    in flight at once."""

    name = "in_flight"

    def __init__(self):
        self.lock = threading.Lock()
        self.now = self.most = 0

    def send(self, req):
        with self.lock:
            self.now += 1
            self.most = max(self.most, self.now)
        time.sleep(0.005)
        with self.lock:
            self.now -= 1
        return "{'Answer': 'yes'}"


def test_nested_maps_hold_at_most_max_workers_requests_in_flight():
    backend = InFlight()
    ctx = context(LlmGateway(backend), max_workers=2)
    rows = [DataRow(id=f"r{i}", input=f"Question {i}", label="yes") for i in range(6)]
    prompts = [RenderedPrompt(f"Prompt {i}: __TASK_INPUT_0__") for i in range(4)]
    # Each prompt's cases map again inside a pool thread; that map runs inline.
    reports = ctx.map(lambda prompt: evaluate_prompt(prompt, rows, ctx), prompts)
    assert [r.fitness for r in reports] == [1.0] * 4
    assert backend.most == 2
    others = [DataRow(id=f"s{i}", input=f"Other {i}", label="yes") for i in range(6)]
    evaluate_prompt(prompts[0], others, ctx)
    assert backend.most == 2


def test_rows_sharing_an_id_get_their_own_demonstrations():
    ctx = icl_context(TRAIN, Recorder())
    train_row = TRAIN[3]
    val_row = DataRow(id=train_row.id, input="is colour 5 a warm colour", label="yes")
    assert ctx.demos(train_row)[0].startswith("Input: is colour 3 a warm colour")
    assert ctx.demos(val_row)[0].startswith("Input: is colour 5 a warm colour")


def test_fitness_report_defaults():
    report = FitnessReport(fitness=0.5)
    assert report.per_case == []
    assert report.parse_failures == 0
