"""Stop-word and synonym lexicon loading.

Stop-word file: one lowercase word per line.  Synonym file: one
`word<TAB>syn1,syn2,...` entry per line; the first synonym is the
deterministic replacement.  Blank lines and `#` comments are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources


@dataclass(frozen=True)
class Lexicons:
    stopwords: frozenset[str] = field(default_factory=frozenset)
    synonyms: dict[str, str] = field(default_factory=dict)


def _lines(text: str) -> list[str]:
    out = []
    # An entry is one word, matched against whitespace-split tokens, which
    # never hold a line break; so every line break `splitlines` knows ends one.
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_stopwords(text: str) -> frozenset[str]:
    return frozenset(w.lower() for w in _lines(text))


def parse_synonyms(text: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for line in _lines(text):
        word, _, rest = line.partition("\t")
        first = rest.split(",")[0].strip()
        if word.strip() and first:
            table[word.strip().lower()] = first
    return table


def load_stopwords(path: str) -> frozenset[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stopwords(fh.read())


def load_synonyms(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_synonyms(fh.read())


def _data_text(name: str) -> str:
    return resources.files("promptgp").joinpath("data", name).read_text(encoding="utf-8")


def default_lexicons() -> Lexicons:
    """Lexicons shipped with the package."""
    return Lexicons(
        stopwords=parse_stopwords(_data_text("stopwords.txt")),
        synonyms=parse_synonyms(_data_text("synonyms.tsv")),
    )
