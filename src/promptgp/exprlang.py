"""Edit-program expression language: AST, parser, index scanner.

Programs are nested operator calls over three atoms: BASE (the section's
base text), NULL (blank section), and ICL_LIST (the demonstration
placeholder list).  The surface syntax is exactly what the grammar
renders, e.g.

    swap_elements(index1=[3], index2=[5,7], level=phrase, texts=BASE)

Parsing produces an AST that the edit runtime interprets; the program text
is never evaluated as host code.  ``index_spans`` finds every index value
in the text itself, so local search edits a program's digits in place,
and ``with_index`` builds that edit's AST from the original's, sharing
every node the edit does not reach.

One ``findall`` splits the stripped text into tokens, skipping whitespace
between them: names (``[A-Za-z_][A-Za-z_0-9]*``), numbers (``\\d+`` with an
optional ``.\\d+``; ``\\d`` is any Unicode decimal digit), the marks
``( ) [ ] , = +``, and any other single character.  A recursive descent
then refuses an empty program, an unexpected character, an unknown
operator, kwargs out of canonical order or without the final ``texts=``,
a level outside ``LEVELS``, a ``percent`` outside (0, 1), an index value
that is not an integer, a slice where only an atomic index is allowed,
and trailing input.  Each refusal names the offending token (an unexpected
character first) and its offset in the stripped text.
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

# A name, a number or a punctuation mark.  _TOKEN_RE matches one of them or
# any other single character, which no rule accepts, after any whitespace.
_VALID_TOKEN = r"[A-Za-z_][A-Za-z_0-9]*|\d+(?:\.\d+)?|[()\[\],=+]"
_VALID_TOKEN_RE = re.compile(_VALID_TOKEN)
_TOKEN_RE = re.compile(rf"\s*({_VALID_TOKEN}|\S)")
_END = ""  # follows the last token; no rule accepts it

_ATOMS = {name: Atom(name) for name in ATOMS}


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


def with_index(expr: Expr, ordinal: int, value: int) -> Expr:
    """`expr` with its `ordinal`-th index value, in the pre-order that
    `index_spans` yields, set to `value`.  Every node off the path from the
    root to that value is `expr`'s own node, shared by identity."""
    edited, left = _with_index(expr, ordinal, value)
    if left >= 0:
        raise IndexError(f"program has no index value {ordinal}")
    return edited


def _with_index(expr: Expr, k: int, value: int) -> tuple[Expr, int]:
    """(`expr` with its `k`-th index value set, -1) when it holds that value;
    else (`expr`, `k` less the index values it holds)."""
    if isinstance(expr, Concat):
        for i, part in enumerate(expr.parts):
            edited, k = _with_index(part, k, value)
            if k < 0:
                return Concat(expr.parts[:i] + (edited,) + expr.parts[i + 1 :]), k
        return expr, k
    if isinstance(expr, Atom):
        return expr, k
    for j, (key, v) in enumerate(expr.args):
        if not isinstance(v, ViewIndex):
            continue
        slots = 2 if v.kind == "slice" else 1
        if k < slots:
            v = ViewIndex(v.kind, value, v.b) if k == 0 else ViewIndex(v.kind, v.a, value)
            return Call(expr.name, expr.args[:j] + ((key, v),) + expr.args[j + 1 :], expr.texts), -1
        k -= slots
    texts, k = _with_index(expr.texts, k, value)
    return (Call(expr.name, expr.args, texts) if k < 0 else expr), k


class _Refusal(Exception):
    """(what, token position) of a refusal; `parse` adds the token and its offset."""


def _parse_error(text: str, what: str, i: int) -> ProgramParseError:
    """The error for a refusal at token `i` of `text`, or at its first
    unexpected character, which every refusal reports first."""
    matches = list(_TOKEN_RE.finditer(text))
    bad = [m for m in matches if not _VALID_TOKEN_RE.fullmatch(m[1])]
    if bad:
        return ProgramParseError(f"unexpected character {bad[0][1]!r} at {bad[0].start(1)}")
    if i < len(matches):
        return ProgramParseError(f"{what}, got {matches[i][1]!r} at {matches[i].start(1)}")
    return ProgramParseError(f"{what}, got end of program at {len(text)}")


def _expr(toks: list[str], i: int) -> tuple[Expr, int]:
    unit, i = _unit(toks, i)
    if toks[i] != "+":
        return unit, i
    parts = [unit]
    while toks[i] == "+":
        unit, i = _unit(toks, i + 1)
        parts.append(unit)
    return Concat(tuple(parts)), i


def _unit(toks: list[str], i: int) -> tuple[Expr, int]:
    name = toks[i]
    atom = _ATOMS.get(name)
    if atom is not None:
        return atom, i + 1
    spec = OPS.get(name)
    if spec is None:
        raise _Refusal("expected an operator or atom", i)
    if toks[i + 1] != "(":
        raise _Refusal(f"{name}: expected '('", i + 1)
    i += 2
    args = []
    for key, kind in spec.params:
        if toks[i] != key:
            raise _Refusal(f"{name}: expected parameter {key!r}", i)
        if toks[i + 1] != "=":
            raise _Refusal(f"{name}: expected '='", i + 1)
        i += 2
        if kind == "level":
            if toks[i] not in LEVELS:
                raise _Refusal(f"{name}: {key} must be one of {LEVELS}", i)
            args.append((key, toks[i]))
            i += 1
        elif kind == "tenths":
            if not toks[i][:1].isdecimal():
                raise _Refusal(f"{name}: {key} must be a number", i)
            value = float(toks[i])
            if not 0.0 < value < 1.0:
                raise _Refusal(f"{name}: {key} must lie in (0, 1)", i)
            args.append((key, value))
            i += 1
        else:
            index, i = _index(toks, i, name, key, kind == "atomic_index")
            args.append((key, index))
        if toks[i] != ",":
            raise _Refusal(f"{name}: expected ','", i)
        i += 1
    if toks[i] != "texts":
        raise _Refusal(f"{name}: expected parameter 'texts'", i)
    if toks[i + 1] != "=":
        raise _Refusal(f"{name}: expected '='", i + 1)
    texts, i = _expr(toks, i + 2)
    if toks[i] != ")":
        raise _Refusal(f"{name}: expected ')'", i)
    return Call(name, tuple(args), texts), i + 1


def _index(toks: list[str], i: int, op: str, key: str, atomic_only: bool) -> tuple[ViewIndex, int]:
    """`[a]` or, unless `atomic_only`, the slice `[a,b]`, starting at token `i`."""
    if toks[i] != "[":
        raise _Refusal(f"{op}: {key} expected '['", i)
    if not toks[i + 1].isdecimal():
        raise _Refusal(f"{op}: {key} expects an integer", i + 1)
    if toks[i + 2] == "]":
        return ViewIndex("atomic", int(toks[i + 1])), i + 3
    if toks[i + 2] != ",":
        raise _Refusal(f"{op}: {key} expected ']'", i + 2)
    if atomic_only:
        raise _Refusal(f"{op}: {key} must be an atomic index, not a slice", i + 2)
    if not toks[i + 3].isdecimal():
        raise _Refusal(f"{op}: {key} expects an integer", i + 3)
    if toks[i + 4] != "]":
        raise _Refusal(f"{op}: {key} expected ']'", i + 4)
    return ViewIndex("slice", int(toks[i + 1]), int(toks[i + 3])), i + 5


def parse(text: str) -> Expr:
    """Parse a program text into its AST."""
    stripped = text.strip()
    toks = _TOKEN_RE.findall(stripped)
    toks.append(_END)
    try:
        expr, i = _expr(toks, 0)
        if toks[i] != _END:
            raise _Refusal("trailing input", i)
    except _Refusal as refusal:
        raise _parse_error(stripped, *refusal.args) from None
    return expr
