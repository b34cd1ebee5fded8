"""Interpreter for edit programs.

Evaluation is innermost-first: an operator's `texts` argument is evaluated,
the result is re-chunked at the operator's own level, edited, and
reassembled.  A FIFO removal queue and the largest chunk count any operator
saw are scoped to one program execution.  Errors in LLM-backed operations
degrade to identity with a warning; they never abort an execution.  A
transport failure is also counted per op, for the execution it hit.
"""

from __future__ import annotations

import logging
import re
import string
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from . import chunking
from .chunking import ChunkList, EditedChunk, ViewIndex, join_span, rejoin, resolve
from .exprlang import OPS, Atom, Call, Concat, Expr
from .gateway import GatewayError, TransportError, paraphrase_call, summarise_call

if TYPE_CHECKING:
    from .tasks import EvalContext

log = logging.getLogger(__name__)

PLACEHOLDER_RE = re.compile(r"__[A-Za-z0-9]+(?:_[A-Za-z0-9]+)*__")


class ProgramExecutionError(RuntimeError):
    pass


def placeholders(text: str) -> set[str]:
    return set(PLACEHOLDER_RE.findall(text))


@dataclass
class _ExecState:
    base_text: str
    icl_items: Sequence[str]
    ctx: EvalContext
    queue: deque[str] = field(default_factory=deque)
    max_chunks: int = 0
    degraded: Counter = field(default_factory=Counter)


def execute_program(
    expr: Expr,
    base_text: str,
    ctx: EvalContext,
    icl_items: Sequence[str] = (),
) -> tuple[Union[str, list[str]], int, Counter]:
    """Run one parsed section program with the lexicons, gateway, edit model
    and placeholder guard of `ctx`; returns (edited text or list, largest
    chunk count any operator saw, LLM edits per op that degraded after a
    transport failure)."""
    state = _ExecState(base_text, icl_items, ctx)
    return _eval(expr, state), state.max_chunks, state.degraded


def _eval(expr: Expr, state: _ExecState) -> Union[str, list[str]]:
    if isinstance(expr, Atom):
        if expr.name == "BASE":
            return state.base_text
        if expr.name == "NULL":
            return " "
        return list(state.icl_items)  # ICL_LIST
    if isinstance(expr, Concat):
        parts = []
        for part in expr.parts:
            value = _eval(part, state)
            text = "\n".join(value) if isinstance(value, list) else value
            if text.strip():
                parts.append(text)
        return "\n".join(parts)
    if isinstance(expr, Call):
        value = _eval(expr.texts, state)
        if isinstance(value, list):
            return _apply_list_op(expr, value, state)
        return _apply_text_op(expr, value, state)
    raise ProgramExecutionError(f"not an expression node: {expr!r}")


def _resolved_indices(call: Call, n: int) -> tuple:
    out = []
    for key, value in call.args:
        if isinstance(value, ViewIndex):
            out.append(resolve(value, n))
    return tuple(out)


def _as_span(resolved: Union[int, tuple[int, int]]) -> tuple[int, int]:
    if isinstance(resolved, int):
        return (resolved, resolved)
    return resolved


def _apply_list_op(call: Call, items: list[str], state: _ExecState) -> list[str]:
    if OPS[call.name].kind != "list":
        raise ProgramExecutionError(f"{call.name} cannot operate on a demonstration list")
    n = len(items)
    edited: list[EditedChunk] = [(s, i) for i, s in enumerate(items)]
    resolved = _resolved_indices(call, n)
    state.max_chunks = max(state.max_chunks, n)
    result = _edit_chunks(call, edited, resolved, state, original=None)
    return [text for text, _ in result]


def _apply_text_op(call: Call, text: str, state: _ExecState) -> str:
    cl = chunking.chunk(text, call.arg("level"))
    n = len(cl.chunks)
    resolved = _resolved_indices(call, n)
    state.max_chunks = max(state.max_chunks, n)
    edited: list[EditedChunk] = [(c, i) for i, c in enumerate(cl.chunks)]
    result = _edit_chunks(call, edited, resolved, state, original=cl)
    if result is edited:
        return text  # identity fast path keeps original bytes
    return rejoin(result, cl)


def _edit_chunks(
    call: Call,
    items: list[EditedChunk],
    resolved: tuple,
    state: _ExecState,
    original: Optional[ChunkList],
) -> list[EditedChunk]:
    """Apply one op to a chunk sequence; returns `items` itself for identity."""
    name = call.name
    n = len(items)

    def span_text(span: list[EditedChunk]) -> str:
        if original is not None:
            return join_span(span, original)
        return " ".join(t for t, _ in span)

    if name == "readd_element":
        if not state.queue:
            return items
        entry = state.queue.popleft()
        pos = resolved[0] if n > 0 else 0
        return items[:pos] + [(entry, None)] + items[pos:]

    if n == 0:
        return items

    if name == "swap_elements":
        a, b = (_as_span(r) for r in resolved)
        if a > b:
            a, b = b, a
        if a[1] >= b[0]:  # overlapping spans
            return items
        return (
            items[: a[0]]
            + items[b[0] : b[1] + 1]
            + items[a[1] + 1 : b[0]]
            + items[a[0] : a[1] + 1]
            + items[b[1] + 1 :]
        )

    if name == "remove_element":
        lo, hi = _as_span(resolved[0])
        state.queue.append(span_text(items[lo : hi + 1]))
        return items[:lo] + items[hi + 1 :]

    if name == "duplicate_element":
        lo, hi = _as_span(resolved[0])
        target = resolved[1]
        copies = items[lo : hi + 1]
        return items[:target] + copies + items[target:]

    if name == "remove_stopwords":
        return _remove_stopwords(items, _as_span(resolved[0]), state.ctx.lexicons.stopwords)

    if name == "synonimise":
        return _synonimise(items, _as_span(resolved[0]), state.ctx.lexicons.synonyms)

    if name in ("paraphrase", "summarise"):
        return _llm_rewrite(call, items, _as_span(resolved[0]), state, span_text)

    raise ProgramExecutionError(f"unknown operator {name!r}")


def _remove_stopwords(
    items: list[EditedChunk], span: tuple[int, int], stopwords: frozenset[str]
) -> list[EditedChunk]:
    lo, hi = span
    out: list[EditedChunk] = []
    for pos, (text, origin) in enumerate(items):
        if lo <= pos <= hi:
            kept = [t for t in text.split() if t.lower() not in stopwords]
            if not kept:
                continue  # chunk reduced to nothing
            text = " ".join(kept)
        out.append((text, origin))
    return out


def _swap_case(token: str, replacement: str) -> str:
    if token[:1].isupper():
        return replacement[:1].upper() + replacement[1:]
    return replacement


def _synonimise(
    items: list[EditedChunk], span: tuple[int, int], synonyms: dict[str, str]
) -> list[EditedChunk]:
    lo, hi = span
    out: list[EditedChunk] = []
    for pos, (text, origin) in enumerate(items):
        if lo <= pos <= hi:
            tokens = []
            for token in text.split():
                core = token.strip(string.punctuation)
                hit = synonyms.get(core.lower()) if core else None
                if hit is not None:
                    start = token.index(core)
                    token = token[:start] + _swap_case(core, hit) + token[start + len(core) :]
                tokens.append(token)
            text = " ".join(tokens)
        out.append((text, origin))
    return out


def _llm_rewrite(
    call: Call,
    items: list[EditedChunk],
    span: tuple[int, int],
    state: _ExecState,
    span_text,
) -> list[EditedChunk]:
    lo, hi = span
    source = span_text(items[lo : hi + 1])
    ctx = state.ctx
    try:
        if call.name == "paraphrase":
            answer = paraphrase_call(ctx.gateway, source, model=ctx.edit_model)
        else:
            answer = summarise_call(
                ctx.gateway, source, float(call.arg("percent")), model=ctx.edit_model
            )
    except GatewayError as exc:
        # A reply that would not parse is cached, so every later render gets
        # it again; only a transport failure may pass on a retry.
        if isinstance(exc, TransportError):
            state.degraded[call.name] += 1
        log.warning("%s degraded to identity: %s", call.name, exc)
        return items
    if ctx.placeholder_guard and not placeholders(source) <= placeholders(answer):
        log.warning("%s reply dropped a placeholder; keeping original span", call.name)
        return items
    return items[:lo] + [(answer, None)] + items[hi + 1 :]
