"""Interpreter for edit programs.

Evaluation is innermost-first: an operator's `texts` argument is
evaluated, made one ChunkList, edited, and reassembled.  A text is chunked
at the operator's own level; a demonstration list, which only list
operators take, is its own chunk list, its items one space apart in a
queued span.  A FIFO removal queue and the largest chunk count any operator
saw are scoped to one program execution.  Errors in LLM-backed operations
degrade to identity with a warning; they never abort an execution.  A
transport failure is also counted per op, for the execution it hit.

A node's outcome (its value, the removal queue after it and the largest
chunk count under it) depends only on its subtree, its section's base text
and demonstration items, and the queue on entry.  So the context's outcome
table keys it on node identity and entry queue, and holds the node, which
keeps that identity the node's own.  Executions of programs that share AST
nodes share outcomes, and only the nodes they do not share run.
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
    keep: bool
    queue: deque[str] = field(default_factory=deque)
    max_chunks: int = 0
    degraded: Counter = field(default_factory=Counter)


def execute_program(
    expr: Expr,
    base_text: str,
    ctx: EvalContext,
    icl_items: Sequence[str] = (),
    keep: bool = False,
) -> tuple[Union[str, list[str]], int, Counter]:
    """Run one parsed section program with the lexicons, gateway, edit model
    and placeholder guard of `ctx`; returns (edited text or list, largest
    chunk count any operator saw, LLM edits per op that degraded after a
    transport failure).

    The root and every call or concat node take their outcome from the
    context's outcome table when it holds one for the node and the removal
    queue on entry, and do not run.  With `keep`, every other outcome is
    stored, except one under which an LLM edit degraded after a transport
    failure, so that a later execution retries the edit.  The table keys
    on node identity, so an AST whose outcomes are kept must never run on
    another base text or demonstration list.
    """
    state = _ExecState(base_text, icl_items, ctx, keep)
    return _outcome(expr, state), state.max_chunks, state.degraded


def kept_outcome(expr: Expr, ctx: EvalContext) -> Optional[tuple[Union[str, list[str]], int]]:
    """(edited text or list, largest chunk count) that the outcome table
    holds for `expr` run as a whole program, or None."""
    outcome = ctx._outcomes.get((id(expr), ()))
    if outcome is None:
        return None
    _, value, _, chunks = outcome
    return (list(value) if isinstance(value, tuple) else value), chunks


def _outcome(expr: Expr, state: _ExecState) -> Union[str, list[str]]:
    """The table's outcome of `expr` on the current queue, or its value,
    stored if the execution keeps and no LLM edit under it degraded."""
    table = state.ctx._outcomes
    key = (id(expr), tuple(state.queue))
    outcome = table.get(key)
    if outcome is not None:
        _, value, queue, chunks = outcome
        state.queue = deque(queue)
        state.max_chunks = max(state.max_chunks, chunks)
        return list(value) if isinstance(value, tuple) else value
    if not state.keep:
        return _value(expr, state)
    outer, degraded = state.max_chunks, state.degraded.total()
    state.max_chunks = 0
    value = _value(expr, state)
    chunks = state.max_chunks
    state.max_chunks = max(outer, chunks)
    if state.degraded.total() == degraded:
        frozen = tuple(value) if isinstance(value, list) else value
        table[key] = (expr, frozen, tuple(state.queue), chunks)
    return value


def _eval(expr: Expr, state: _ExecState) -> Union[str, list[str]]:
    """An operand's value: an atom's directly, any other node's through the table."""
    if isinstance(expr, Atom):
        return _value(expr, state)
    return _outcome(expr, state)


def _value(expr: Expr, state: _ExecState) -> Union[str, list[str]]:
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
        return _call(expr, state)
    raise ProgramExecutionError(f"not an expression node: {expr!r}")


def _call(expr: Call, state: _ExecState) -> Union[str, list[str]]:
    """Evaluate one op call: its texts, then its edit."""
    value = _eval(expr.texts, state)
    if isinstance(value, list):
        if OPS[expr.name].kind != "list":
            raise ProgramExecutionError(f"{expr.name} cannot operate on a demonstration list")
        # Items one space apart: join_span of any span is " ".join of its items.
        cl = ChunkList(value, ["", *[" "] * (len(value) - 1), ""] if value else [""])
    else:
        cl = chunking.chunk(value, expr.arg("level"))
    n = len(cl.chunks)
    state.max_chunks = max(state.max_chunks, n)
    items: list[EditedChunk] = [(c, i) for i, c in enumerate(cl.chunks)]
    spans = [_as_span(resolve(v, n)) for _, v in expr.args if isinstance(v, ViewIndex)]
    result = _edit_chunks(expr, items, spans, state, cl)
    if isinstance(value, list):
        return [text for text, _ in result]
    if result is items:
        return value  # identity fast path keeps original bytes
    return rejoin(result, cl)


def _as_span(resolved: Union[int, tuple[int, int], None]) -> tuple[int, int]:
    if isinstance(resolved, int):
        return (resolved, resolved)
    return resolved


def _edit_chunks(
    call: Call,
    items: list[EditedChunk],
    spans: list[tuple[int, int]],
    state: _ExecState,
    original: ChunkList,
) -> list[EditedChunk]:
    """Apply one op to the chunks of `original`, one inclusive span per
    index argument; returns `items` itself for identity."""
    name = call.name
    n = len(items)

    if name == "readd_element":
        if not state.queue:
            return items
        entry = state.queue.popleft()
        pos = spans[0][0] if n > 0 else 0
        return items[:pos] + [(entry, None)] + items[pos:]

    if n == 0:
        return items

    if name == "swap_elements":
        a, b = sorted(spans)
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
        lo, hi = spans[0]
        state.queue.append(join_span(items[lo : hi + 1], original))
        return items[:lo] + items[hi + 1 :]

    if name == "duplicate_element":
        lo, hi = spans[0]
        target = spans[1][0]
        return items[:target] + items[lo : hi + 1] + items[target:]

    if name == "remove_stopwords":
        return _remove_stopwords(items, spans[0], state.ctx.lexicons.stopwords)

    if name == "synonimise":
        return _synonimise(items, spans[0], state.ctx.lexicons.synonyms)

    if name in ("paraphrase", "summarise"):
        return _llm_rewrite(call, items, spans[0], state, original)

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
    original: ChunkList,
) -> list[EditedChunk]:
    lo, hi = span
    source = join_span(items[lo : hi + 1], original)
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
