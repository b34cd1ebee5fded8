import re

import pytest

from promptgp.chunking import ViewIndex
from promptgp.exprlang import (
    Atom,
    Call,
    Concat,
    ProgramParseError,
    index_spans,
    parse,
    with_index,
)


def A(a):
    return ViewIndex("atomic", a)


def S(a, b):
    return ViewIndex("slice", a, b)


def test_parse_atoms():
    assert parse("BASE") == Atom("BASE")
    assert parse("NULL") == Atom("NULL")
    assert parse("ICL_LIST") == Atom("ICL_LIST")


def test_parse_swap_with_slice():
    expr = parse("swap_elements(index1=[3], index2=[5,7], level=phrase, texts=BASE)")
    assert isinstance(expr, Call)
    assert expr.name == "swap_elements"
    assert expr.arg("index1") == ViewIndex("atomic", 3)
    assert expr.arg("index2") == ViewIndex("slice", 5, 7)
    assert expr.arg("level") == "phrase"
    assert expr.texts == Atom("BASE")


def test_parse_accepts_whitespace_between_tokens():
    spaced = " swap_elements( index1 = [ 3 ] ,index2=[5 , 7],\n level=phrase, texts= BASE )+ ICL_LIST "
    assert parse(spaced) == Concat(
        (
            Call("swap_elements", (("index1", A(3)), ("index2", S(5, 7)), ("level", "phrase")), Atom("BASE")),
            Atom("ICL_LIST"),
        )
    )


def test_parse_all_ops_to_their_ast():
    base, icl = Atom("BASE"), Atom("ICL_LIST")
    programs = {
        "swap_elements(index1=[0,1], index2=[3], level=word, texts=BASE)":
            Call("swap_elements", (("index1", S(0, 1)), ("index2", A(3)), ("level", "word")), base),
        "remove_element(index=[2], level=sentence, texts=BASE)":
            Call("remove_element", (("index", A(2)), ("level", "sentence")), base),
        "readd_element(index=[4], level=phrase, texts=BASE)":
            Call("readd_element", (("index", A(4)), ("level", "phrase")), base),
        "duplicate_element(index1=[1,2], index2=[0], level=word, texts=BASE)":
            Call("duplicate_element", (("index1", S(1, 2)), ("index2", A(0)), ("level", "word")), base),
        "remove_stopwords(index=[0], level=sentence, texts=BASE)":
            Call("remove_stopwords", (("index", A(0)), ("level", "sentence")), base),
        "synonimise(index=[1,9], level=word, texts=BASE)":
            Call("synonimise", (("index", S(1, 9)), ("level", "word")), base),
        "paraphrase(index=[5], level=sentence, texts=BASE)":
            Call("paraphrase", (("index", A(5)), ("level", "sentence")), base),
        "summarise(percent=0.3, index=[2,2], level=phrase, texts=BASE)":
            Call("summarise", (("percent", 0.3), ("index", S(2, 2)), ("level", "phrase")), base),
        "remove_element(index=[1], level=word, texts=readd_element(index=[0], level=word, texts=BASE))":
            Call(
                "remove_element",
                (("index", A(1)), ("level", "word")),
                Call("readd_element", (("index", A(0)), ("level", "word")), base),
            ),
        "summarise(percent=0.5, index=[0], level=word, texts=BASE)"
        "+swap_elements(index1=[0], index2=[1], level=word, texts=ICL_LIST)": Concat(
            (
                Call("summarise", (("percent", 0.5), ("index", A(0)), ("level", "word")), base),
                Call("swap_elements", (("index1", A(0)), ("index2", A(1)), ("level", "word")), icl),
            )
        ),
    }
    for text, expected in programs.items():
        assert parse(text) == expected


def test_concat_parses_parts_in_order():
    expr = parse("BASE+ICL_LIST")
    assert isinstance(expr, Concat)
    assert expr.parts == (Atom("BASE"), Atom("ICL_LIST"))


def test_kwargs_must_follow_canonical_order():
    with pytest.raises(ProgramParseError):
        parse("swap_elements(index2=[5,7], index1=[3], level=phrase, texts=BASE)")
    with pytest.raises(ProgramParseError):
        parse("summarise(index=[2], percent=0.3, level=word, texts=BASE)")


def test_texts_argument_is_required_and_last():
    with pytest.raises(ProgramParseError):
        parse("remove_element(index=[2], level=word)")
    with pytest.raises(ProgramParseError):
        parse("remove_element(texts=BASE, index=[2], level=word)")


def test_atomic_only_parameters_reject_slices():
    with pytest.raises(ProgramParseError):
        parse("readd_element(index=[1,2], level=word, texts=BASE)")
    with pytest.raises(ProgramParseError):
        parse("duplicate_element(index1=[0], index2=[1,2], level=word, texts=BASE)")


def test_level_and_percent_validation():
    with pytest.raises(ProgramParseError):
        parse("remove_element(index=[0], level=paragraph, texts=BASE)")
    with pytest.raises(ProgramParseError):
        parse("summarise(percent=0.0, index=[0], level=word, texts=BASE)")
    with pytest.raises(ProgramParseError):
        parse("summarise(percent=1.5, index=[0], level=word, texts=BASE)")


def test_unknown_operator_rejected():
    with pytest.raises(ProgramParseError):
        parse("reverse_elements(index=[0], level=word, texts=BASE)")


def values(text):
    return [(key, slot, text[start:end]) for key, slot, start, end in index_spans(text)]


def test_iter_index_slots_counts_and_order():
    text = "swap_elements(index1=[3], index2=[5,17], level=phrase, texts=BASE)"
    assert values(text) == [("index1", 0, "3"), ("index2", 0, "5"), ("index2", 1, "17")]
    # Whitespace the parser skips is skipped here too; percent is no index.
    spaced = "summarise(percent=0.5, index = [ 12 , 4 ] , level=word, texts=BASE)"
    assert values(spaced) == [("index", 0, "12"), ("index", 1, "4")]


def test_iter_index_slots_nested_and_concat():
    text = (
        "remove_element(index=[2], level=word, "
        "texts=readd_element(index=[4], level=word, texts=BASE))"
        "+swap_elements(index1=[0], index2=[1], level=word, texts=ICL_LIST)"
    )
    assert [int(v) for _, _, v in values(text)] == [2, 4, 0, 1]
    assert values("BASE+ICL_LIST") == []


def test_empty_or_trailing_input_rejected():
    with pytest.raises(ProgramParseError):
        parse("")
    with pytest.raises(ProgramParseError):
        parse("BASE extra")


@pytest.mark.parametrize(
    "program, token, offset",
    [
        ("reverse_elements(index=[0], level=word, texts=BASE)", "'reverse_elements'", 0),
        ("BASE #", "'#'", 5),
        ("  BASE #", "'#'", 5),  # offsets count in the stripped text
        ("foo(#)", "'#'", 4),  # an unexpected character is named first
        (".5", "'.'", 0),
        ("summarise(percent=.5, index=[0], level=word, texts=BASE)", "'.'", 18),
        ("summarise(percent=1.5, index=[0], level=word, texts=BASE)", "'1.5'", 18),
        ("readd_element(index=[1,2], level=word, texts=BASE)", "','", 22),
        ("remove_element(index=[0.5], level=word, texts=BASE)", "'0.5'", 22),
        ("remove_element(index=[2], level=word, texts=BASE", "end of program", 48),
        ("remove_element(index=[2], level=word)", "')'", 36),
        ("BASE extra", "'extra'", 5),
        ("", "end of program", 0),
        (" \n ", "end of program", 0),
    ],
)
def test_refusal_names_the_offending_token_and_its_offset(program, token, offset):
    with pytest.raises(ProgramParseError, match=rf"{re.escape(token)} at {offset}$"):
        parse(program)


def test_unicode_decimal_digits_are_numbers():
    assert parse("summarise(percent=٠.٥, index=[٣], level=word, texts=BASE)") == Call(
        "summarise", (("percent", 0.5), ("index", A(3)), ("level", "word")), Atom("BASE")
    )


def test_with_index_refuses_an_ordinal_past_the_last_index_value():
    expr = parse("swap_elements(index1=[3], index2=[5,7], level=word, texts=BASE)+NULL")
    assert with_index(expr, 2, 9) == parse("swap_elements(index1=[3], index2=[5,9], level=word, texts=BASE)+NULL")
    for program, ordinal in ((expr, 3), (parse("BASE+ICL_LIST"), 0)):
        with pytest.raises(IndexError):
            with_index(program, ordinal, 1)
