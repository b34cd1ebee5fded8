"""Edit-program expression language: AST, parser, index scanner.

Programs are nested operator calls over three atoms: BASE (the section's
base text), NULL (blank section), and ICL_LIST (the demonstration
placeholder list).  The surface syntax is exactly what the grammar
renders, e.g.

    swap_elements(index1=[3], index2=[5,7], level=phrase, texts=BASE)

Parsing produces an AST that the edit runtime interprets; the program text
is never evaluated as host code.  ``index_spans`` finds every index value
in the text itself, so local search edits a program's digits in place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .chunking import LEVELS, ViewIndex

ATOMS = ("BASE", "NULL", "ICL_LIST")


class ProgramParseError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple[tuple[str, object], ...]  # scalar kwargs in canonical order
    texts: "Expr"

    def arg(self, key: str) -> object:
        for k, v in self.args:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class Concat:
    parts: tuple["Expr", ...]


Expr = Union[Atom, Call, Concat]


@dataclass(frozen=True)
class OpSpec:
    name: str
    kind: str  # "list" | "lexicon" | "llm"
    params: tuple[tuple[str, str], ...]  # (kwarg name, value kind), texts excluded


OPS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("swap_elements", "list", (("index1", "index"), ("index2", "index"), ("level", "level"))),
        OpSpec("remove_element", "list", (("index", "index"), ("level", "level"))),
        OpSpec("readd_element", "list", (("index", "atomic_index"), ("level", "level"))),
        OpSpec("duplicate_element", "list", (("index1", "index"), ("index2", "atomic_index"), ("level", "level"))),
        OpSpec("remove_stopwords", "lexicon", (("index", "index"), ("level", "level"))),
        OpSpec("synonimise", "lexicon", (("index", "index"), ("level", "level"))),
        OpSpec("paraphrase", "llm", (("index", "index"), ("level", "level"))),
        OpSpec("summarise", "llm", (("percent", "tenths"), ("index", "index"), ("level", "level"))),
    )
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>\d+(?:\.\d+)?)|(?P<punct>[()\[\],=+]))"
)


# One index argument, `kwarg=[a]` or `kwarg=[a,b]`, with the whitespace
# between tokens that _TOKEN_RE allows.
_INDEX_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*\[\s*(\d+)\s*(?:,\s*(\d+)\s*)?\]")


def index_spans(text: str) -> Iterator[tuple[str, int, int, int]]:
    """Yield (kwarg, slot, start, end) for every index value of a program
    text, in text order, which is the AST's pre-order.  Slot 0 is an
    index's first value and slot 1 a slice's second; `text[start:end]` is
    the value's digits."""
    for m in _INDEX_RE.finditer(text):
        for slot in (0, 1):
            if m.group(slot + 2) is not None:
                yield m.group(1), slot, m.start(slot + 2), m.end(slot + 2)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ProgramParseError(f"unexpected character {text[pos]!r} at {pos}")
        if m.lastgroup is None:  # pure whitespace tail
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ProgramParseError(f"unexpected end of program: {self.text!r}")
        self.i += 1
        return tok

    def _expect(self, kind: str, value: str | None = None) -> str:
        tok = self._next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ProgramParseError(f"expected {want!r}, got {tok[1]!r} at {tok[2]}")
        return tok[1]

    def parse(self) -> Expr:
        expr = self._expr()
        if self._peek() is not None:
            tok = self._peek()
            raise ProgramParseError(f"trailing input {tok[1]!r} at {tok[2]}")
        return expr

    def _expr(self) -> Expr:
        parts = [self._unit()]
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "punct" and tok[1] == "+":
                self._next()
                parts.append(self._unit())
            else:
                break
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def _unit(self) -> Expr:
        tok = self._next()
        if tok[0] != "name":
            raise ProgramParseError(f"expected operator or atom, got {tok[1]!r} at {tok[2]}")
        name = tok[1]
        if name in ATOMS:
            return Atom(name)
        spec = OPS.get(name)
        if spec is None:
            raise ProgramParseError(f"unknown operator {name!r} at {tok[2]}")
        self._expect("punct", "(")
        args = []
        for key, kind in spec.params:
            got = self._expect("name")
            if got != key:
                raise ProgramParseError(f"{name}: expected parameter {key!r}, got {got!r}")
            self._expect("punct", "=")
            args.append((key, self._value(name, key, kind)))
            self._expect("punct", ",")
        got = self._expect("name")
        if got != "texts":
            raise ProgramParseError(f"{name}: expected parameter 'texts', got {got!r}")
        self._expect("punct", "=")
        texts = self._expr()
        self._expect("punct", ")")
        return Call(name, tuple(args), texts)

    def _value(self, op: str, key: str, kind: str) -> object:
        if kind in ("index", "atomic_index"):
            return self._index(op, key, atomic_only=(kind == "atomic_index"))
        if kind == "level":
            tok = self._next()
            if tok[0] != "name" or tok[1] not in LEVELS:
                raise ProgramParseError(f"{op}: {key} must be one of {LEVELS}, got {tok[1]!r}")
            return tok[1]
        if kind == "tenths":
            tok = self._next()
            if tok[0] != "num":
                raise ProgramParseError(f"{op}: {key} must be a number, got {tok[1]!r}")
            value = float(tok[1])
            if not 0.0 < value < 1.0:
                raise ProgramParseError(f"{op}: {key} must lie in (0, 1), got {tok[1]}")
            return value
        raise ProgramParseError(f"{op}: unhandled parameter kind {kind!r}")

    def _index(self, op: str, key: str, atomic_only: bool) -> ViewIndex:
        self._expect("punct", "[")
        a = self._int(op, key)
        tok = self._peek()
        if tok is not None and tok[0] == "punct" and tok[1] == ",":
            if atomic_only:
                raise ProgramParseError(f"{op}: {key} must be an atomic index, got a slice")
            self._next()
            b = self._int(op, key)
            self._expect("punct", "]")
            return ViewIndex("slice", a, b)
        self._expect("punct", "]")
        return ViewIndex("atomic", a)

    def _int(self, op: str, key: str) -> int:
        tok = self._next()
        if tok[0] != "num" or "." in tok[1]:
            raise ProgramParseError(f"{op}: {key} expects an integer, got {tok[1]!r}")
        return int(tok[1])


def parse(text: str) -> Expr:
    """Parse a program text into its AST."""
    stripped = text.strip()
    if not stripped:
        raise ProgramParseError("empty program")
    return _Parser(stripped).parse()
