from promptgp.lexicons import (
    Lexicons,
    default_lexicons,
    load_stopwords,
    load_synonyms,
    parse_stopwords,
    parse_synonyms,
)


def test_parse_stopwords_lowercases_and_skips_comments():
    text = "# header\nThe\nand\n\n  of  \n"
    assert parse_stopwords(text) == frozenset({"the", "and", "of"})


def test_parse_synonyms_first_entry_wins():
    text = "classify\tcategorise,label\ngiven\tprovided\n# note\n"
    table = parse_synonyms(text)
    assert table["classify"] == "categorise"
    assert table["given"] == "provided"


def test_parse_synonyms_skips_malformed_lines():
    table = parse_synonyms("orphanword\nok\tfine\n\t,\n")
    assert table == {"ok": "fine"}


def test_load_stopwords_from_file(tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_text("# header\nA\nthe\n")
    assert load_stopwords(str(stop)) == frozenset({"a", "the"})


def test_load_synonyms_from_file(tmp_path):
    syn = tmp_path / "syn.tsv"
    syn.write_text("big\tlarge,huge\n")
    assert load_synonyms(str(syn)) == {"big": "large"}


def test_default_lexicons_shipped_data():
    lex = default_lexicons()
    # A common English stop-word list includes these; the edit operation
    # suite relies on them being present.
    for word in ("its", "as", "or", "the", "a", "of"):
        assert word in lex.stopwords
    # Task-relevant content words must never be treated as stop words.
    for word in ("given", "text", "classify", "sentiment", "positive", "negative"):
        assert word not in lex.stopwords
    assert lex.synonyms["classify"] == "categorise"
    assert len(lex.stopwords) >= 150
    assert len(lex.synonyms) >= 40


def test_lexicons_dataclass_defaults():
    lex = Lexicons()
    assert lex.stopwords == frozenset()
    assert lex.synonyms == {}
