import logging

import pytest

from promptgp import SECTIONS
from promptgp.exprlang import ProgramParseError
from promptgp.gateway import EchoBackend, LlmGateway
from promptgp.lexicons import default_lexicons
from promptgp.tasks import DataRow
from promptgp.template import (
    CONTEXT_PLACEHOLDER,
    TASK_INPUT_PLACEHOLDER,
    BaseTemplate,
    RenderedPrompt,
    TemplateError,
    apply_phenotype,
    builtin_template,
    format_demo,
    icl_placeholders,
    identity_phenotype,
    instantiate,
    parse_template,
    phenotype_digest,
    retrieve_icl,
)

LEX = default_lexicons()

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
    rp, trace = apply_phenotype(t, identity_phenotype(), lexicons=LEX)
    assert rp.sections["persona"] == t.sections["persona"]
    expected_icl = "\n".join([t.sections["icl"]] + icl_placeholders(5))
    assert rp.sections["icl"] == expected_icl
    assert rp.text == "\n".join(rp.sections[s] for s in SECTIONS)
    assert trace.records == []
    assert rp.provenance == phenotype_digest(identity_phenotype())


def test_apply_phenotype_null_section():
    t = make_template()
    ph = identity_phenotype()
    ph.programs["cot"] = "NULL"
    rp, _ = apply_phenotype(t, ph, lexicons=LEX)
    assert rp.sections["cot"] == " "


def test_apply_phenotype_edit_section():
    t = make_template()
    ph = identity_phenotype()
    ph.programs["persona"] = "remove_stopwords(index=[0], level=sentence, texts=BASE)"
    rp, trace = apply_phenotype(t, ph, lexicons=LEX)
    assert rp.sections["persona"] == "careful assistant."
    assert [r.op for r in trace.records] == ["remove_stopwords"]


def test_apply_phenotype_fails_before_any_edit_on_parse_error():
    t = make_template()
    ph = identity_phenotype()
    ph.programs["cot"] = "bogus_op(texts=BASE)"
    with pytest.raises(ProgramParseError):
        apply_phenotype(t, ph, lexicons=LEX)


def test_apply_phenotype_missing_section_rejected():
    t = make_template()
    ph = identity_phenotype()
    del ph.programs["cot"]
    with pytest.raises(TemplateError):
        apply_phenotype(t, ph, lexicons=LEX)


def test_retrieve_icl_ranks_by_token_overlap():
    rows = [
        DataRow(id="r0", input="the cat sat on the mat", label="a"),
        DataRow(id="r1", input="dogs bark loudly", label="b"),
        DataRow(id="r2", input="the cat purred", label="c"),
    ]
    top = retrieve_icl("a cat sat", rows, k=2)
    assert [r.id for r in top] == ["r0", "r2"]
    assert retrieve_icl("a cat sat", rows, k=0) == []


def test_retrieve_icl_ties_break_by_row_order():
    rows = [
        DataRow(id="r0", input="zeta eta", label="a"),
        DataRow(id="r1", input="theta iota", label="b"),
    ]
    top = retrieve_icl("unrelated words", rows, k=2)
    assert [r.id for r in top] == ["r0", "r1"]


def test_format_demo_shape():
    row = DataRow(id="x", input="Is water wet?", label="yes")
    assert format_demo(row) == "Input: Is water wet?\nOutput: {'Answer': 'yes'}"
    assert format_demo(row, answer_key="Label") == "Input: Is water wet?\nOutput: {'Label': 'yes'}"


def test_instantiate_binds_case_and_demos():
    t = make_template()
    rp, _ = apply_phenotype(t, identity_phenotype(), lexicons=LEX)
    case = DataRow(id="c1", input="What is 2+2?", label="4", context="Basic arithmetic.")
    demos = ["Input: 1+1?\nOutput: {'Answer': '2'}"]
    inst = instantiate(rp, case, demos)
    assert "What is 2+2?" in inst.text
    assert "Basic arithmetic." in inst.text
    assert demos[0] in inst.text
    assert "__ICL_" not in inst.text
    assert "__TASK_INPUT_0__" not in inst.text
    assert inst.case_id == "c1"


def test_instantiate_unbound_placeholders_become_empty():
    t = make_template()
    rp, _ = apply_phenotype(t, identity_phenotype(), lexicons=LEX)
    case = DataRow(id="c1", input="Q?", label="a")
    inst = instantiate(rp, case, demos=[])
    assert "__ICL_0__" not in inst.text
    assert "__CONTEXT__" not in inst.text


def test_instantiate_warns_only_for_unbound_non_icl_placeholders(caplog):
    rp, _ = apply_phenotype(make_template(), identity_phenotype(), lexicons=LEX)
    case = DataRow(id="c1", input="Q?", label="a")
    # ICL slots beyond the demonstrations given are empty by design.
    with caplog.at_level(logging.WARNING, logger="promptgp.template"):
        instantiate(rp, case, demos=[])
    assert [r for r in caplog.records if r.name == "promptgp.template"] == []

    stray = RenderedPrompt(sections={}, text="__TASK_INPUT_0__ __FOO__ __ICL_0__", provenance="x")
    with caplog.at_level(logging.WARNING, logger="promptgp.template"):
        inst = instantiate(stray, case, demos=[])
    assert inst.text == "Q?  "
    warnings = [r.getMessage() for r in caplog.records if r.name == "promptgp.template"]
    assert len(warnings) == 1 and "__FOO__" in warnings[0] and "__ICL_0__" not in warnings[0]


def test_echo_gateway_end_to_end_render():
    t = make_template()
    ph = identity_phenotype()
    ph.programs["task"] = "paraphrase(index=[0], level=sentence, texts=BASE)"
    gw = LlmGateway(EchoBackend())
    # Echo replies carry no parseable answer, so the rewrite degrades to the
    # original text instead of failing the render.
    rp, _ = apply_phenotype(t, ph, gateway=gw, lexicons=LEX)
    assert rp.sections["task"] == t.sections["task"]
