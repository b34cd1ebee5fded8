import json

import pytest

from promptgp.gateway import LabelOracleBackend, LlmRequest
from promptgp.tasks import DataRow
from promptgp.template import builtin_template, format_demo
from promptgp.textparse import answer_object, balanced_spans, extract_answer, extract_key, parse_objectish


def spans_text(text):
    return [text[a:b] for a, b in balanced_spans(text)]


def test_balanced_spans_simple():
    text = 'noise {"a": 1} more'
    assert spans_text(text) == ['{"a": 1}']


def test_balanced_spans_nested_reports_both():
    text = '{"outer": {"inner": 2}}'
    spans = spans_text(text)
    assert '{"outer": {"inner": 2}}' in spans
    assert '{"inner": 2}' in spans


def test_balanced_spans_sorted_by_start():
    text = '{"outer": {"inner": 2}} {"later": 3}'
    starts = [a for a, _ in balanced_spans(text)]
    assert starts == sorted(starts)


def test_balanced_spans_braces_inside_quotes_ignored():
    text = '{"a": "curly } inside"} trailing'
    assert spans_text(text) == ['{"a": "curly } inside"}']


def test_balanced_spans_newline_closes_quote_state():
    # An unterminated quote stops mattering after the line break.
    text = 'broken "quote\n{"k": "v"}'
    assert '{"k": "v"}' in spans_text(text)


def test_parse_objectish_json_and_python_literals():
    assert parse_objectish('{"Answer": "yes"}') == {"Answer": "yes"}
    assert parse_objectish("{'Answer': 'no'}") == {"Answer": "no"}
    assert parse_objectish("[1, 2]") is None
    assert parse_objectish("{broken") is None


def test_extract_key_prefers_last_parseable_span():
    text = "{'Answer': 'first'} filler {'Answer': 'second'}"
    assert extract_key(text, "Answer") == "second"


def test_extract_key_case_insensitive():
    assert extract_key("{'answer': 'maybe'}", "Answer") == "maybe"
    assert extract_key("{'ANSWER': 'yes'}", "answer") == "yes"


def test_extract_key_skips_spans_without_key():
    text = "{'Thought': 'reasoning'} {'Answer': 'yes'} {'Note': 'post'}"
    assert extract_key(text, "Answer") == "yes"


def test_extract_key_non_string_values_stringified():
    assert extract_key("{'Answer': 42}", "Answer") == "42"


def test_extract_key_missing_returns_none():
    assert extract_key("no braces here", "Answer") is None
    assert extract_key("{'Thought': 'x'}", "Answer") is None


def test_quotes_outside_an_object_are_prose():
    assert spans_text("Sure, it's {'Answer': 'yes'}") == ["{'Answer': 'yes'}"]
    assert extract_key("Sure, it's {'Answer': 'yes'}", "Answer") == "yes"
    assert extract_key('I don\'t know. {"answer": "maybe"}', "answer") == "maybe"
    # Prose that names the key must not win over the object after it.
    assert extract_answer('Here\'s my answer: {"Answer": "yes"}') == "yes"


def test_extract_answer_dict_and_fallback():
    assert extract_answer("{'Answer': 'yes'}") == "yes"
    assert extract_answer("Answer: maybe so") == "maybe so"
    assert extract_answer("ANSWER = 'quoted'") == "quoted"
    assert extract_answer("The Answer: first\nanswer: last one") == "last one"
    assert extract_answer("nothing to find") is None


def test_extract_answer_fallback_strips_brace_noise():
    assert extract_answer("{Answer: yes}") == "yes"


@pytest.mark.parametrize(
    "reply, expected",
    [
        ("{'Thought': 'the study doesn't show it', 'Answer': 'no'}", "no"),
        ("{'Answer': 'no', 'Thought': 'it doesn't'}", "no"),
        ("{'Answer': 'the patient's choice'}", "the patient's choice"),
        ("My answer: {'Answer': 'it's no'}", "it's no"),
    ],
    ids=["answer-last", "answer-first", "possessive-value", "after-prose-key"],
)
def test_extract_answer_fallback_reads_a_quoted_key(reply, expected):
    assert extract_key(reply, "Answer") is None
    assert extract_answer(reply) == expected


ROUND_TRIP_LABELS = {
    "apostrophe": "don't know",
    "double-quote": 'say "no"',
    "backslash": "C:\\temp",
    "newline": "two\nlines",
    "tab": "tab\there",
    "line-separator": "one\u2028two",
    "non-ascii": "naïve café",
    "both-quotes": "it's \"both\"",
}


@pytest.mark.parametrize("label", ROUND_TRIP_LABELS.values(), ids=ROUND_TRIP_LABELS.keys())
def test_answer_object_round_trips_through_demos_and_the_oracle(label):
    assert extract_key(answer_object("Label", label), "Label") == label

    row = DataRow(id="r", input="Isn't it odd?", label=label)
    demo = format_demo(row, "Label")
    assert demo == "Input: Isn't it odd?\nOutput: " + answer_object("Label", label)
    assert extract_answer(demo, "Label") == label

    oracle = LabelOracleBackend({row.input: label}, answer_key="Label")
    reply = oracle.send(LlmRequest("m", (("user", f"Q: {row.input}"),)))
    assert extract_answer(reply, "Label") == label


def test_answer_object_keeps_plain_labels_byte_for_byte():
    assert answer_object("Answer", "yes") == "{'Answer': 'yes'}"
    assert answer_object("Answer", 'say "no"') == "{'Answer': 'say \"no\"'}"
    assert answer_object("Answer", "naïve café") == "{'Answer': 'naïve café'}"


# The fields each shipped template's OUTPUT section asks for, answer last, and
# an answer of the kind it wants.  tatqa's one field is free text.
SHIPPED_REPLY_SHAPES = {
    "pubmedqa": (("Thought", "Answer"), "maybe"),
    "ethos": (("Thought", "Answer"), "Not Hateful"),
    "convfinqa": (("Formula", "Answer"), "0.25"),
    "tatqa": (("Answer",), "the segment's revenue"),
}

FREE_TEXT = "the abstract doesn't settle it; the table's totals differ"


def shipped_reply(fields, answer, free_text, quoting):
    values = {field: free_text for field in fields[:-1]}
    values[fields[-1]] = answer
    if quoting == "json":
        return json.dumps(values)
    return "{" + ", ".join(f"'{k}': '{v}'" for k, v in values.items()) + "}"


@pytest.mark.parametrize("quoting", ["json", "dict-literal"])
@pytest.mark.parametrize("case", ["free-text-apostrophe", "preamble-apostrophe"])
@pytest.mark.parametrize("name", SHIPPED_REPLY_SHAPES)
def test_shipped_templates_replies_read_to_the_intended_answer(name, case, quoting):
    fields, answer = SHIPPED_REPLY_SHAPES[name]
    output = builtin_template(name).sections["output"]
    for field in fields:
        assert f"'{field}'" in output
    if case == "free-text-apostrophe":
        reply = shipped_reply(fields, answer, FREE_TEXT, quoting)
    else:
        reply = "Here's my answer: " + shipped_reply(fields, answer, "see the context", quoting)
    assert extract_answer(reply, "Answer") == answer
