import pytest

from promptgp.editops import ProgramExecutionError, execute_program, placeholders
from promptgp.exprlang import parse
from promptgp.gateway import PARAPHRASE_TEMPLATE, EchoBackend, LlmGateway, ScriptedBackend
from promptgp.lexicons import default_lexicons
from promptgp.tasks import Dataset, EvalContext, TaskSettings

LEX = default_lexicons()
ITEMS = ["chunk_1", "chunk_2", "chunk_3", "chunk_4"]
SENTENCE = "Given text, classify its sentiment as positive or negative."


def context(gateway=None, **kw):
    """An edit context with the shipped lexicons; by default LLM edits get
    echo replies, which carry no answer, so they degrade to identity."""
    gateway = gateway or LlmGateway(EchoBackend())
    return EvalContext(TaskSettings(), gateway, Dataset(rows=[]), lexicons=LEX, **kw)


def execute(program, base="", icl_items=(), gateway=None, **kw):
    return execute_program(parse(program), base, context(gateway, **kw), icl_items)


def run(program, base="", **kw):
    return execute(program, base, **kw)[0]


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
    out, max_chunks, _ = execute(prog, SENTENCE)
    assert out == "Provided passage, categorise its feeling as favourable or unfavourable."
    # The inner op sees one sentence, the outer one the nine words.
    inner = "synonimise(index=[2], level=sentence, texts=BASE)"
    assert execute(inner, SENTENCE)[1] == 1
    assert max_chunks == 9


def test_list_op_reports_demonstration_count():
    _, max_chunks, _ = execute(
        "swap_elements(index1=[0,1], index2=[3], level=word, texts=ICL_LIST)", icl_items=ITEMS
    )
    assert max_chunks == 4


def test_program_without_operators_reports_zero_chunks():
    assert execute("BASE", SENTENCE)[1] == 0


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


def test_execution_reports_its_own_transport_degradations():
    # The scripted backend has no reply for this text: a transport failure.
    gw = LlmGateway(ScriptedBackend({}), max_attempts=1)
    ctx = context(gw)
    prog = (
        "paraphrase(index=[0], level=sentence, texts="
        "summarise(percent=0.5, index=[0], level=sentence, texts=BASE))"
    )
    out, _, degraded = execute_program(parse(prog), SENTENCE, ctx)
    assert out == SENTENCE
    assert degraded == {"paraphrase": 1, "summarise": 1}
    assert not ctx.degraded  # the renderer, not the interpreter, adds to the context's total
    assert execute("paraphrase(index=[0], level=sentence, texts=BASE)", SENTENCE)[2] == {}


def test_placeholders_helper():
    assert placeholders("x __ICL_0__ y __TASK_INPUT_0__ __ICL_0__") == {
        "__ICL_0__",
        "__TASK_INPUT_0__",
    }
    assert placeholders("plain text") == set()
