"""The answer object: the one place that writes it and reads it back.

Demonstrations and the label oracle show an answer as the Python dict
literal that `answer_object` writes.  A reply's answer is read from the last
{...} object that holds the key, otherwise from its last `key: value`.
"""

from __future__ import annotations

import ast
import json
import re
from typing import Optional


def answer_object(key: str, value: object) -> str:
    """`{'<key>': '<value>'}` as a Python literal, so that `extract_key` reads
    `str(value)` back whatever quotes or control characters it holds."""
    return repr({key: str(value)})


def balanced_spans(text: str) -> list[tuple[int, int]]:
    """All balanced {...} spans (nested included), sorted by start position.

    Inside an open brace, braces within single- or double-quoted strings are
    ignored, and a quote still open at a line break ends there.  Quotes
    outside every brace are prose: they open no string.
    """
    spans = []
    stack = []
    quote = None
    escaped = False
    for i, ch in enumerate(text):
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote or ch == "\n":
                quote = None
            continue
        if ch in "'\"" and stack:
            quote = ch
        elif ch == "{":
            stack.append(i)
        elif ch == "}" and stack:
            spans.append((stack.pop(), i + 1))
    spans.sort()
    return spans


def parse_objectish(text: str) -> Optional[dict]:
    """Parse a JSON object, falling back to Python-literal syntax."""
    try:
        obj = json.loads(text)
    except ValueError:
        try:
            obj = ast.literal_eval(text)
        except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
            return None
    return obj if isinstance(obj, dict) else None


def extract_key(text: str, key: str) -> Optional[str]:
    """Value of `key` (case-insensitive) in the last parseable {...} span."""
    wanted = key.lower()
    for start, end in reversed(balanced_spans(text)):
        obj = parse_objectish(text[start:end])
        if obj is None:
            continue
        for k, v in obj.items():
            if isinstance(k, str) and k.lower() == wanted:
                return v.strip() if isinstance(v, str) else str(v)
    return None


# The key, bare or quoted, then a quoted value that ends at a closing quote
# followed by `,`, `}` or the line's end, or else the rest of the line.  The
# whole match is a lookahead, so a prose "answer:" cannot swallow a later key
# on its line.
_FALLBACK_TEMPLATE = r"""(?=['"]?{key}['"]?\s*[:=]\s*(?:(['"])(.*?)\1(?=\s*(?:[,}}]|$))|(.+)))"""


def extract_answer(raw: str, key: str = "Answer") -> Optional[str]:
    """The answer in a reply: `key`'s value in the last object that holds it,
    otherwise the last `key: value` (or `key = value`), else None."""
    found = extract_key(raw, key)
    if found is not None:
        return found
    pattern = re.compile(
        _FALLBACK_TEMPLATE.format(key=re.escape(key)), re.IGNORECASE | re.MULTILINE
    )
    matches = list(pattern.finditer(raw))
    if not matches:
        return None
    quoted, bare = matches[-1].group(2, 3)
    if quoted is not None:
        return quoted.strip()
    return bare.strip().rstrip("}").strip()
