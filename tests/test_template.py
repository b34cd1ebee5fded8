import hashlib
import logging
import random
import re
import sys
import threading
import time

import pytest

from helpers import identity_phenotype
from promptgp import SECTIONS
from promptgp.exprlang import ProgramParseError
from promptgp.grammar import default_grammar, render_phenotype, sample_ptc2
from promptgp.gateway import EchoBackend, LlmGateway, TransportError, TruncateBackend
from promptgp.lexicons import default_lexicons
from promptgp.tasks import DataRow, Dataset, EvalContext, TaskSettings
from promptgp.template import (
    CONTEXT_PLACEHOLDER,
    TASK_INPUT_PLACEHOLDER,
    BaseTemplate,
    IclPool,
    RenderedPrompt,
    TemplateError,
    apply_phenotype,
    builtin_template,
    format_demo,
    icl_placeholders,
    instantiate,
    parse_template,
    phenotype_digest,
    retrieve_icl,
)

# LLM edits get echo replies, which carry no answer and degrade to identity.
CTX = EvalContext(
    TaskSettings(), LlmGateway(EchoBackend()), Dataset(rows=[]), lexicons=default_lexicons()
)

SIMPLE = """== PERSONA ==
You are a careful assistant.
== TASK ==
Answer the question.
## [Question]
__TASK_INPUT_0__
== OUTPUT ==
Reply as {'Answer': ''}.
== ICL ==
## [Examples]
Here are some examples.
== CONTEXT ==
## [Context]
__CONTEXT__
== COT ==
Think step by step.
"""


def make_template():
    return parse_template(SIMPLE)


def test_parse_template_sections():
    t = make_template()
    assert t.sections["persona"] == "You are a careful assistant."
    assert t.sections["task"].endswith(TASK_INPUT_PLACEHOLDER)
    assert t.sections["context"].endswith(CONTEXT_PLACEHOLDER)
    assert t.sections["cot"] == "Think step by step."


def test_parse_template_missing_sections_default_empty():
    t = parse_template("== TASK ==\nQ: __TASK_INPUT_0__\n")
    assert t.sections["persona"] == ""
    assert t.sections["context"] == ""


@pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85", "\x0c", "\x1c"])
def test_parse_template_keeps_a_non_newline_line_break_in_its_section(brk):
    t = parse_template(f"== TASK ==\nRead{brk}this __TASK_INPUT_0__\n")
    assert t.sections["task"] == f"Read{brk}this __TASK_INPUT_0__"


def test_parse_template_rejects_bad_input():
    with pytest.raises(TemplateError):
        parse_template("leading text\n== TASK ==\n__TASK_INPUT_0__\n")
    with pytest.raises(TemplateError):
        parse_template("== TASK ==\nx __TASK_INPUT_0__\n== TASK ==\ny\n")
    with pytest.raises(TemplateError):
        parse_template("== BANANA ==\nx\n== TASK ==\n__TASK_INPUT_0__\n")


def test_template_requires_task_placeholder():
    with pytest.raises(TemplateError):
        BaseTemplate(sections={"task": "no placeholder"})
    with pytest.raises(TemplateError):
        BaseTemplate(
            sections={"task": TASK_INPUT_PLACEHOLDER, "context": "context without slot"}
        )


def test_builtin_templates_load():
    for name in ("pubmedqa", "ethos", "tatqa", "convfinqa"):
        t = builtin_template(name)
        assert TASK_INPUT_PLACEHOLDER in t.sections["task"]
    assert builtin_template("ethos").sections["context"] == ""
    with pytest.raises(TemplateError):
        builtin_template("missing_template")


def test_icl_placeholders():
    assert icl_placeholders(3) == ["__ICL_0__", "__ICL_1__", "__ICL_2__"]
    assert icl_placeholders(0) == []


def test_identity_phenotype_programs():
    ph = identity_phenotype()
    assert set(ph.programs) == set(SECTIONS)
    assert ph.programs["icl"] == "BASE+ICL_LIST"
    for section in SECTIONS:
        if section != "icl":
            assert ph.programs[section] == "BASE"


def test_phenotype_digest_stable_and_sensitive():
    a = identity_phenotype()
    b = identity_phenotype()
    assert phenotype_digest(a) == phenotype_digest(b)
    b.programs["cot"] = "NULL"
    assert phenotype_digest(a) != phenotype_digest(b)


def test_apply_identity_phenotype_joins_sections():
    t = make_template()
    rp = apply_phenotype(t, identity_phenotype(), CTX)
    expected_icl = "\n".join([t.sections["icl"]] + icl_placeholders(5))
    sections = {**t.sections, "icl": expected_icl}
    assert rp.text == "\n".join(sections[s] for s in SECTIONS)
    assert rp.max_chunks == 0


def test_apply_phenotype_null_section():
    t = make_template()
    ph = identity_phenotype()
    ph.programs["cot"] = "NULL"
    rp = apply_phenotype(t, ph, CTX)
    identity = apply_phenotype(t, identity_phenotype(), CTX)
    assert rp.text == identity.text.replace(t.sections["cot"], " ")


def test_apply_phenotype_edit_section():
    t = make_template()
    ph = identity_phenotype()
    ph.programs["persona"] = "remove_stopwords(index=[0], level=sentence, texts=BASE)"
    rp = apply_phenotype(t, ph, CTX)
    assert rp.text.startswith("careful assistant.\n")
    assert rp.max_chunks == 1  # the one persona sentence


def test_apply_phenotype_fails_before_any_edit_on_parse_error():
    t = make_template()
    backend = CountingBackend("Be careful.")
    ctx = fresh_context(LlmGateway(backend))
    ph = identity_phenotype()
    ph.programs["persona"] = "paraphrase(index=[0], level=sentence, texts=BASE)"
    ph.programs["cot"] = "bogus_op(texts=BASE)"
    with pytest.raises(ProgramParseError):
        apply_phenotype(t, ph, ctx)
    assert ctx.gateway.stats.requests == backend.calls == 0
    assert ctx._sections == {}


def test_apply_phenotype_missing_section_rejected():
    t = make_template()
    ph = identity_phenotype()
    del ph.programs["cot"]
    with pytest.raises(TemplateError):
        apply_phenotype(t, ph, CTX)


def test_retrieve_icl_ranks_by_token_overlap():
    rows = [
        DataRow(id="r0", input="the cat sat on the mat", label="a"),
        DataRow(id="r1", input="dogs bark loudly", label="b"),
        DataRow(id="r2", input="the cat purred", label="c"),
    ]
    pool = IclPool.of(rows)
    top = retrieve_icl("a cat sat", pool, k=2)
    assert [r.id for r in top] == ["r0", "r2"]
    assert retrieve_icl("a cat sat", pool, k=0) == []


def test_retrieve_icl_ties_break_by_row_order():
    rows = [
        DataRow(id="r0", input="zeta eta", label="a"),
        DataRow(id="r1", input="theta iota", label="b"),
    ]
    top = retrieve_icl("unrelated words", IclPool.of(rows), k=2)
    assert [r.id for r in top] == ["r0", "r1"]


def reference_retrieve_icl(case_input, rows, k):
    """Tokenize every row per call and sort the whole pool: the ranking
    that the indexed `retrieve_icl` must reproduce."""
    if k <= 0:
        return []
    query = frozenset(re.findall(r"[a-z0-9]+", case_input.lower()))

    def similarity(row):
        other = frozenset(re.findall(r"[a-z0-9]+", row.input.lower()))
        union = query | other
        if not union:
            return 0.0
        return len(query & other) / len(union)

    ranked = sorted(enumerate(rows), key=lambda item: (-similarity(item[1]), item[0]))
    return [row for _, row in ranked[:k]]


# Mixed case, punctuation, and inputs with no tokens at all.
WORDS = ["Cat", "cat", "DOG", "dog!", "sat", "mat.", "a", "the", "x1", "2", "--", "?!", ""]


def random_input(rng):
    return rng.choice(["", " ", "", "; "]).join(rng.choices(WORDS, k=rng.randint(0, 5)))


def test_indexed_retrieval_matches_the_naive_ranking():
    rng = random.Random(3)
    for trial in range(300):
        inputs = [random_input(rng) for _ in range(rng.randint(0, 12))]
        inputs += rng.choices(inputs, k=rng.randint(0, 3) if inputs else 0)  # duplicates
        rows = [DataRow(id=f"r{i}", input=text, label="y") for i, text in enumerate(inputs)]
        pool = IclPool.of(rows)
        for k in {0, 1, 3, len(rows), len(rows) + 2}:
            query = random_input(rng) if trial % 4 else rng.choice(["", "?!", "--"])
            got = retrieve_icl(query, pool, k)
            assert [r.id for r in got] == [r.id for r in reference_retrieve_icl(query, rows, k)]


def test_format_demo_shape():
    row = DataRow(id="x", input="Is water wet?", label="yes")
    assert format_demo(row) == "Input: Is water wet?\nOutput: {'Answer': 'yes'}"
    assert format_demo(row, answer_key="Label") == "Input: Is water wet?\nOutput: {'Label': 'yes'}"


def test_instantiate_binds_case_and_demos():
    t = make_template()
    rp = apply_phenotype(t, identity_phenotype(), CTX)
    case = DataRow(id="c1", input="What is 2+2?", label="4", context="Basic arithmetic.")
    demos = ["Input: 1+1?\nOutput: {'Answer': '2'}"]
    inst = instantiate(rp, case, demos)
    assert "What is 2+2?" in inst
    assert "Basic arithmetic." in inst
    assert demos[0] in inst
    assert "__ICL_" not in inst
    assert "__TASK_INPUT_0__" not in inst


def test_instantiate_unbound_placeholders_become_empty():
    t = make_template()
    rp = apply_phenotype(t, identity_phenotype(), CTX)
    case = DataRow(id="c1", input="Q?", label="a")
    inst = instantiate(rp, case, demos=[])
    assert "__ICL_0__" not in inst
    assert "__CONTEXT__" not in inst


def test_instantiate_warns_only_for_unbound_non_icl_placeholders(caplog):
    rp = apply_phenotype(make_template(), identity_phenotype(), CTX)
    case = DataRow(id="c1", input="Q?", label="a")
    # ICL slots beyond the demonstrations given are empty by design.
    with caplog.at_level(logging.WARNING, logger="promptgp.template"):
        instantiate(rp, case, demos=[])
    assert [r for r in caplog.records if r.name == "promptgp.template"] == []

    stray = RenderedPrompt("__TASK_INPUT_0__ __FOO__ __ICL_0__")
    with caplog.at_level(logging.WARNING, logger="promptgp.template"):
        inst = instantiate(stray, case, demos=[])
    assert inst == "Q?  "
    warnings = [r.getMessage() for r in caplog.records if r.name == "promptgp.template"]
    assert len(warnings) == 1 and "__FOO__" in warnings[0] and "__ICL_0__" not in warnings[0]


def test_echo_gateway_end_to_end_render():
    t = make_template()
    ph = identity_phenotype()
    ph.programs["task"] = "paraphrase(index=[0], level=sentence, texts=BASE)"
    # Echo replies carry no parseable answer, so the rewrite degrades to the
    # original text instead of failing the render.
    rp = apply_phenotype(t, ph, CTX)
    assert rp.text == apply_phenotype(t, identity_phenotype(), CTX).text


# ---- each rendered section is memoised on the context -----------------------


def fresh_context(gateway=None, **kwargs):
    return EvalContext(
        TaskSettings(),
        gateway or LlmGateway(EchoBackend()),
        Dataset(rows=[]),
        lexicons=default_lexicons(),
        **kwargs,
    )


def edited(**programs):
    ph = identity_phenotype()
    ph.programs.update(programs)
    return ph


def count_section_work(monkeypatch):
    """Record the program text of every section `apply_phenotype` parses, and
    the base text of every section it executes."""
    from promptgp import template

    work = {"parsed": [], "executed": []}
    parse, execute = template.parse, template.execute_program

    def counting_parse(text):
        work["parsed"].append(text)
        return parse(text)

    def counting_execute(expr, base_text, ctx, icl_items=(), record=None):
        work["executed"].append(base_text)
        return execute(expr, base_text, ctx, icl_items, record)

    monkeypatch.setattr(template, "parse", counting_parse)
    monkeypatch.setattr(template, "execute_program", counting_execute)
    return work


def test_render_parses_and_executes_only_the_changed_section(monkeypatch):
    t = make_template()
    ctx = fresh_context()
    work = count_section_work(monkeypatch)
    apply_phenotype(t, identity_phenotype(), ctx)
    assert len(work["parsed"]) == len(work["executed"]) == len(SECTIONS)
    work["parsed"].clear()
    work["executed"].clear()
    program = "remove_stopwords(index=[0], level=sentence, texts=BASE)"
    apply_phenotype(t, edited(persona=program), ctx)
    assert work == {"parsed": [program], "executed": [t.sections["persona"]]}


def test_memoised_render_equals_a_fresh_context_render():
    t = make_template()
    phenotypes = [
        identity_phenotype(),
        edited(persona="remove_stopwords(index=[0], level=sentence, texts=BASE)"),
        edited(cot="NULL", persona="remove_stopwords(index=[0], level=sentence, texts=BASE)"),
        edited(icl="BASE+swap_elements(index1=[0,1], index2=[3], level=word, texts=ICL_LIST)"),
    ]
    ctx = fresh_context()
    first = [apply_phenotype(t, ph, ctx) for ph in phenotypes]
    again = [apply_phenotype(t, ph, ctx) for ph in phenotypes]
    fresh = [apply_phenotype(t, ph, fresh_context()) for ph in phenotypes]
    assert first == again == fresh
    assert [rp.max_chunks for rp in fresh] == [0, 1, 1, 5]


def test_memo_tells_base_templates_apart():
    ctx = fresh_context()
    a = make_template()
    b = parse_template(SIMPLE.replace("Think step by step.", "Think it through, step by step."))
    ph = edited(cot="remove_stopwords(index=[0], level=sentence, texts=BASE)")
    ra, rb = apply_phenotype(a, ph, ctx), apply_phenotype(b, ph, ctx)
    assert ra.text != rb.text
    assert rb == apply_phenotype(b, ph, fresh_context())


class FlakyBackend:
    """Fails its first `failures` requests, then answers every one."""

    def __init__(self, failures: int, answer: str):
        self.failures = failures
        self.answer = answer

    def send(self, req) -> str:
        if self.failures:
            self.failures -= 1
            raise TransportError("connection reset")
        return '{"answer": "%s"}' % self.answer


def test_section_whose_edit_degraded_is_executed_again(monkeypatch):
    t = make_template()
    ctx = fresh_context(LlmGateway(FlakyBackend(1, "Be careful."), max_attempts=1))
    work = count_section_work(monkeypatch)
    ph = edited(persona="paraphrase(index=[0], level=sentence, texts=BASE)")

    degraded = apply_phenotype(t, ph, ctx)
    assert degraded.text == apply_phenotype(t, identity_phenotype(), fresh_context()).text
    assert ctx.degraded == {"paraphrase": 1}

    work["executed"].clear()
    retried = apply_phenotype(t, ph, ctx)
    assert work["executed"] == [t.sections["persona"]]
    assert retried.text.startswith("Be careful.\n")
    assert ctx.degraded == {"paraphrase": 1}

    work["executed"].clear()
    assert apply_phenotype(t, ph, ctx) == retried
    assert work["executed"] == []


def test_section_whose_reply_was_unparseable_is_memoised(monkeypatch):
    # Echo replies carry no answer; the reply is cached, so a retry cannot help.
    t = make_template()
    ctx = fresh_context()
    work = count_section_work(monkeypatch)
    ph = edited(persona="paraphrase(index=[0], level=sentence, texts=BASE)")
    first = apply_phenotype(t, ph, ctx)
    assert first.text == apply_phenotype(t, identity_phenotype(), fresh_context()).text
    assert not ctx.degraded
    work["executed"].clear()
    assert apply_phenotype(t, ph, ctx) == first
    assert work["executed"] == []
    assert ctx.gateway.stats.backend_calls == 1


class CountingBackend:
    """Answers every edit with `answer`, counting the calls; each call first
    waits until `hold` returns true, for up to five seconds."""

    def __init__(self, answer: str, hold=lambda: True):
        self.answer = answer
        self.hold = hold
        self.calls = 0

    def send(self, req) -> str:
        self.calls += 1
        deadline = time.monotonic() + 5
        while not self.hold():
            assert time.monotonic() < deadline, "no second request reached the gateway"
            time.sleep(0.001)
        return '{"answer": "%s"}' % self.answer


def test_concurrent_renders_of_one_section_make_one_backend_call():
    # The backend holds the first edit until the second render has sent the
    # same one, so both renders miss the memo and execute the section.
    backend = CountingBackend("Be careful.", hold=lambda: ctx.gateway.stats.requests == 2)
    t = make_template()
    ctx = fresh_context(LlmGateway(backend), max_workers=2)
    ph = edited(persona="paraphrase(index=[0], level=sentence, texts=BASE)")
    first, second = ctx.map(lambda _: apply_phenotype(t, ph, ctx), range(2))
    assert first == second
    assert first.text.startswith("Be careful.\n")
    assert backend.calls == 1
    assert ctx.gateway.stats.cache_hits == 1


def test_a_degraded_render_neither_memoises_nor_blocks_another(monkeypatch):
    t = make_template()
    cot_sent = threading.Event()

    class Backend:
        """Fails the persona edit once the cot edit is in flight; answers the
        cot edit only after the persona edit has degraded."""

        def send(self, req) -> str:
            if t.sections["persona"] in req.last_user_content():
                assert cot_sent.wait(5)
                raise TransportError("connection reset")
            cot_sent.set()
            deadline = time.monotonic() + 5
            while not ctx.degraded and time.monotonic() < deadline:
                time.sleep(0.001)
            return '{"answer": "Reason it out."}'

    ctx = fresh_context(LlmGateway(Backend(), max_attempts=1), max_workers=2)
    apply_phenotype(t, identity_phenotype(), ctx)  # the sections both renders share
    failing = edited(persona="paraphrase(index=[0], level=sentence, texts=BASE)")
    clean = edited(cot="paraphrase(index=[0], level=sentence, texts=BASE)")
    work = count_section_work(monkeypatch)
    ctx.map(lambda ph: apply_phenotype(t, ph, ctx), [failing, clean])
    assert ctx.degraded == {"paraphrase": 1}

    work["executed"].clear()
    assert apply_phenotype(t, clean, ctx).text.endswith("\nReason it out.")
    assert work["executed"] == []
    apply_phenotype(t, failing, ctx)
    assert work["executed"] == [t.sections["persona"]]
    assert ctx.degraded == {"paraphrase": 2}


def test_many_concurrent_renders_match_serial_renders():
    t = make_template()
    programs = [
        "BASE",
        "NULL",
        "paraphrase(index=[0], level=sentence, texts=BASE)",
        "summarise(percent=0.5, index=[0], level=word, texts=BASE)",
    ]
    phenotypes = [edited(persona=a, cot=b) for a in programs for b in programs] * 3
    serial = fresh_context(LlmGateway(TruncateBackend()))
    expected = [apply_phenotype(t, ph, serial) for ph in phenotypes]
    ctx = fresh_context(LlmGateway(TruncateBackend()), max_workers=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rendered = ctx.map(lambda ph: apply_phenotype(t, ph, ctx), phenotypes)
    finally:
        sys.setswitchinterval(interval)
    assert rendered == expected
    # A section two renders miss at once may execute twice, but each distinct
    # LLM edit (2 persona and 2 cot programs) reaches the backend once.
    assert ctx.gateway.stats.backend_calls == serial.gateway.stats.backend_calls == 4


PTC2_RENDERS_SHA256 = "0af0ead448f9eb52251891fc3ce8304dfd715a90e8c10f297afe24a69c6bb8b8"


def test_ptc2_renders_are_pinned():
    # 300 sampled phenotypes run every list op on demonstration lists, and
    # readd and every lexicon and LLM op on text; a change to any edit's
    # bytes or chunk count shows.
    base = builtin_template("pubmedqa")
    gw = LlmGateway(TruncateBackend())
    ctx = EvalContext(TaskSettings(), gw, Dataset(rows=[]), lexicons=default_lexicons())
    digest = hashlib.sha256()
    for seed in range(300):
        ph = render_phenotype(sample_ptc2(default_grammar(), 1024, seed))
        rp = apply_phenotype(base, ph, ctx)
        digest.update(f"{rp.text}\x1f{rp.max_chunks}\x1e".encode("utf-8"))
    assert digest.hexdigest() == PTC2_RENDERS_SHA256
    assert (gw.stats.requests, gw.stats.backend_calls) == (2780, 1285)
    assert not ctx.degraded
