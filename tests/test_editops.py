import pytest

from promptgp.editops import (
    ExecutionTrace,
    ProgramExecutionError,
    TraceRecord,
    execute_program,
    placeholders,
)
from promptgp.gateway import PARAPHRASE_TEMPLATE, LlmGateway, ScriptedBackend
from promptgp.lexicons import default_lexicons

LEX = default_lexicons()
ITEMS = ["chunk_1", "chunk_2", "chunk_3", "chunk_4"]
SENTENCE = "Given text, classify its sentiment as positive or negative."


def run(program, base="", **kw):
    kw.setdefault("lexicons", LEX)
    out, _ = execute_program(program, base, **kw)
    return out


def test_swap_spans_on_demo_list():
    out = run("swap_elements(index1=[0,1], index2=[3], level=word, texts=ICL_LIST)", icl_items=ITEMS)
    assert out == ["chunk_4", "chunk_3", "chunk_1", "chunk_2"]


def test_remove_single_demo():
    out = run("remove_element(index=[1], level=word, texts=ICL_LIST)", icl_items=ITEMS)
    assert out == ["chunk_1", "chunk_3", "chunk_4"]


def test_remove_then_readd_restores_list():
    prog = (
        "readd_element(index=[1], level=word, texts="
        "remove_element(index=[1], level=word, texts=ICL_LIST))"
    )
    assert run(prog, icl_items=ITEMS) == ITEMS


def test_duplicate_span_to_target():
    out = run("duplicate_element(index1=[0,1], index2=[3], level=word, texts=ICL_LIST)", icl_items=ITEMS)
    assert out == ["chunk_1", "chunk_2", "chunk_3", "chunk_1", "chunk_2", "chunk_4"]


def test_remove_stopwords_sentence():
    out = run("remove_stopwords(index=[0], level=sentence, texts=BASE)", SENTENCE)
    assert out == "Given text, classify sentiment positive negative."


def test_synonimise_single_word():
    out = run("synonimise(index=[2], level=word, texts=BASE)", SENTENCE)
    assert out == "Given text, categorise its sentiment as positive or negative."


def test_synonimise_keeps_capitalisation_and_punctuation():
    out = run("synonimise(index=[0], level=sentence, texts=BASE)", "Classify the text, please.")
    assert out.startswith("Categorise")
    assert out.endswith(",") or "," in out


def test_fifo_order_across_nested_removes_and_readds():
    # remove(a), remove(b); the first readd pops `a`, the second pops `b`.
    prog = (
        "readd_element(index=[0], level=word, texts="
        "readd_element(index=[0], level=word, texts="
        "remove_element(index=[0], level=word, texts="
        "remove_element(index=[0], level=word, texts=ICL_LIST))))"
    )
    assert run(prog, icl_items=["a", "b", "c", "d"]) == ["b", "a", "c", "d"]


def test_indices_wrap_modulo_length():
    out = run("remove_element(index=[5], level=word, texts=ICL_LIST)", icl_items=ITEMS)
    assert out == ["chunk_1", "chunk_3", "chunk_4"]


def test_overlapping_swap_is_identity():
    out = run("swap_elements(index1=[0,2], index2=[1], level=word, texts=ICL_LIST)", icl_items=ITEMS)
    assert out == ITEMS


def test_readd_with_empty_queue_is_identity():
    out = run("readd_element(index=[2], level=word, texts=ICL_LIST)", icl_items=ITEMS)
    assert out == ITEMS


def test_readd_into_emptied_list_inserts_at_front():
    prog = (
        "readd_element(index=[3], level=word, texts="
        "remove_element(index=[0,3], level=word, texts=ICL_LIST))"
    )
    assert run(prog, icl_items=["a", "b", "c", "d"]) == ["a b c d"]


def test_word_level_remove_on_text():
    out = run("remove_element(index=[1], level=word, texts=BASE)", "alpha  beta gamma")
    assert out == "alpha gamma"


def test_text_remove_readd_restores_tokens():
    prog = (
        "readd_element(index=[1], level=word, texts="
        "remove_element(index=[1], level=word, texts=BASE))"
    )
    # Tokens come back in order; separators normalise to single spaces
    # because the re-inserted chunk has no original position.
    assert run(prog, "alpha  beta gamma") == "alpha beta gamma"


def test_identity_op_keeps_original_bytes():
    text = "alpha  beta\tgamma"
    out = run("swap_elements(index1=[0,1], index2=[1], level=word, texts=BASE)", text)
    assert out == text


def test_nested_program_applies_innermost_first():
    prog = (
        "remove_stopwords(index=[0], level=word, texts="
        "synonimise(index=[2], level=sentence, texts=BASE))"
    )
    out, trace = execute_program(prog, SENTENCE, lexicons=LEX)
    assert out == "Provided passage, categorise its feeling as favourable or unfavourable."
    assert [r.op for r in trace.records] == ["synonimise", "remove_stopwords"]
    assert trace.records[0].chunk_count == 1
    assert trace.records[1].chunk_count == 9
    assert trace.max_chunk_count == 9


def test_trace_records_fields():
    _, trace = execute_program(
        "swap_elements(index1=[0,1], index2=[3], level=word, texts=ICL_LIST)",
        "",
        icl_items=ITEMS,
        lexicons=LEX,
    )
    assert trace.records == [
        TraceRecord(op="swap_elements", level="word", indices=((0, 1), 3), chunk_count=4)
    ]


def test_empty_trace_max_chunk_count():
    assert ExecutionTrace().max_chunk_count == 0


def test_concat_joins_parts_and_drops_blank():
    out = run("NULL + BASE + ICL_LIST", "prefix", icl_items=["d1", "d2"])
    assert out == "prefix\nd1\nd2"


def test_base_atom_returns_input_unchanged():
    assert run("BASE", "untouched text") == "untouched text"


def test_rstopwords_drops_fully_removed_chunks():
    out = run("remove_stopwords(index=[0,2], level=word, texts=BASE)", "the and keep")
    assert out == "keep"


def test_lexicon_op_on_demo_list_rejected():
    with pytest.raises(ProgramExecutionError):
        run("remove_stopwords(index=[0], level=word, texts=ICL_LIST)", icl_items=ITEMS)


def _paraphrase_gateway(source, answer):
    prompt = PARAPHRASE_TEMPLATE.replace("{input_text}", source)
    return LlmGateway(ScriptedBackend({prompt: '{"answer": "%s"}' % answer}))


def test_paraphrase_replaces_span():
    src = "Review these examples: __ICL_0__"
    gw = _paraphrase_gateway(src, "See samples: __ICL_0__")
    out = run("paraphrase(index=[0], level=sentence, texts=BASE)", src, gateway=gw)
    assert out == "See samples: __ICL_0__"


def test_placeholder_guard_blocks_lossy_rewrite():
    src = "Review these examples: __ICL_0__"
    gw = _paraphrase_gateway(src, "Look at the samples.")
    out = run("paraphrase(index=[0], level=sentence, texts=BASE)", src, gateway=gw)
    assert out == src


def test_placeholder_guard_can_be_disabled():
    src = "Review these examples: __ICL_0__"
    gw = _paraphrase_gateway(src, "Look at the samples.")
    out = run(
        "paraphrase(index=[0], level=sentence, texts=BASE)",
        src,
        gateway=gw,
        placeholder_guard=False,
    )
    assert out == "Look at the samples."


def test_llm_op_without_gateway_is_identity():
    src = "Nothing changes here."
    assert run("paraphrase(index=[0], level=sentence, texts=BASE)", src, gateway=None) == src


def test_placeholders_helper():
    assert placeholders("x __ICL_0__ y __TASK_INPUT_0__ __ICL_0__") == {
        "__ICL_0__",
        "__TASK_INPUT_0__",
    }
    assert placeholders("plain text") == set()
