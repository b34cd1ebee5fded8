"""Non-destructive text segmentation at word, phrase, and sentence level.

Chunking keeps every byte of the input: chunks hold the content spans and a
parallel separator list holds the leading, between-chunk, and trailing
spans verbatim, so an unedited ChunkList reassembles to the exact input.
After edits, original separators are reused wherever two neighbouring
chunks were adjacent in the original text; everywhere else a single space
is used.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

LEVELS = ("word", "phrase", "sentence")

# Coordinating conjunctions used as phrase boundaries by the rule-based chunker.
_CONJUNCTIONS = {"and", "but", "or", "nor", "for", "so", "yet"}

_WORD_RE = re.compile(r"\S+")
_SENTENCE_CUT_RE = re.compile(r"([.!?]+)\s")
_CLAUSE_CUT_RE = re.compile(r"([.!?,;:]+)\s")


class ChunkingError(ValueError):
    pass


@dataclass
class ChunkList:
    """One segmentation of a text; len(separators) == len(chunks) + 1."""

    chunks: list[str]
    separators: list[str]

    def __post_init__(self) -> None:
        if len(self.separators) != len(self.chunks) + 1:
            raise ChunkingError(
                "separator count must be chunk count + 1, got "
                f"{len(self.separators)} for {len(self.chunks)} chunks"
            )


@dataclass(frozen=True)
class ViewIndex:
    """Atomic index or inclusive slice over a chunk list.

    The grammar emits single digits 0-9; local search may substitute larger
    values, so any non-negative integer is accepted here.
    """

    kind: str  # "atomic" | "slice"
    a: int
    b: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("atomic", "slice"):
            raise ChunkingError(f"unknown index kind {self.kind!r}")
        if self.a < 0 or (self.kind == "slice" and (self.b is None or self.b < 0)):
            raise ChunkingError("index values must be non-negative")
        if self.kind == "atomic" and self.b is not None:
            raise ChunkingError("atomic index takes a single value")


def resolve(idx: ViewIndex, n: int) -> Union[int, tuple[int, int], None]:
    """Map an index onto a list of n chunks, reducing each value mod n.

    Atomic -> int position; slice -> inclusive (lo, hi) after ordering the
    reduced endpoints.  n == 0 has no target: returns None, callers treat
    the operation as identity.
    """
    if n <= 0:
        return None
    if idx.kind == "atomic":
        return idx.a % n
    lo, hi = sorted((idx.a % n, idx.b % n))
    return (lo, hi)


def _spans_word(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _WORD_RE.finditer(text)]


def _spans_from_cuts(text: str, cuts: set[int]) -> list[tuple[int, int]]:
    bounds = [0, *sorted(cuts), len(text)]
    spans = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if e > s:
            spans.append((s, e))
    return spans


def _spans_sentence(text: str) -> list[tuple[int, int]]:
    cuts = {m.end(1) for m in _SENTENCE_CUT_RE.finditer(text)}
    return _spans_from_cuts(text, cuts)


def _spans_phrase(text: str) -> list[tuple[int, int]]:
    cuts = {m.end(1) for m in _CLAUSE_CUT_RE.finditer(text)}
    for m in _WORD_RE.finditer(text):
        word = m.group(0)
        if word.lower() in _CONJUNCTIONS and m.start() > 0 and text[m.start() - 1].isspace():
            cuts.add(m.start())
    return _spans_from_cuts(text, cuts)


def chunk(text: str, level: str) -> ChunkList:
    if level == "word":
        spans = _spans_word(text)
    elif level == "sentence":
        spans = _spans_sentence(text)
    elif level == "phrase":
        spans = _spans_phrase(text)
    else:
        raise ChunkingError(f"unknown chunk level {level!r}")
    chunks = [text[s:e] for s, e in spans]
    separators = []
    prev = 0
    for s, e in spans:
        separators.append(text[prev:s])
        prev = e
    separators.append(text[prev:])
    return ChunkList(chunks=chunks, separators=separators)


def reassemble(cl: ChunkList) -> str:
    """Interleave separators and chunks; byte-identity for unedited lists."""
    parts = [cl.separators[0]]
    for text, sep in zip(cl.chunks, cl.separators[1:]):
        parts.append(text)
        parts.append(sep)
    return "".join(parts)


# Edited chunks are (text, origin) pairs; origin is the chunk's index in the
# original ChunkList, or None for chunks created by an edit.
EditedChunk = tuple[str, Optional[int]]


def _separator_between(prev: EditedChunk, cur: EditedChunk, original: ChunkList) -> str:
    p, c = prev[1], cur[1]
    if p is not None and c is not None and c == p + 1:
        return original.separators[c]
    return " "


def join_span(span: list[EditedChunk], original: ChunkList) -> str:
    """Join a chunk span without the leading/trailing frame separators."""
    if not span:
        return ""
    parts = [span[0][0]]
    for prev, cur in zip(span[:-1], span[1:]):
        parts.append(_separator_between(prev, cur, original))
        parts.append(cur[0])
    return "".join(parts)


def rejoin(edited: list[EditedChunk], original: ChunkList) -> str:
    """Reassemble an edited chunk sequence against its source ChunkList."""
    if not edited:
        return ""
    return original.separators[0] + join_span(edited, original) + original.separators[-1]
