"""Interpreter for edit programs.

Evaluation is innermost-first: an operator's `texts` argument is
evaluated, made one ChunkList, edited, and reassembled.  A text is chunked
at the operator's own level; a demonstration list, which only list
operators take, is its own chunk list, its items one space apart in a
queued span.  A FIFO removal queue and the largest chunk count any operator
saw are scoped to one program execution.  Errors in LLM-backed operations
degrade to identity with a warning; they never abort an execution.  A
transport failure is also counted per op, for the execution it hit.

An execution may fill a `CallRecord` with each op call's outcome, and a
later execution of a program that shares the recorded AST nodes reuses
those outcomes, so only the calls that the two programs do not share run
again.
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
from .exprlang import OPS, Atom, Call, Concat, Expr, with_index
from .gateway import GatewayError, TransportError, paraphrase_call, summarise_call

if TYPE_CHECKING:
    from .tasks import EvalContext

log = logging.getLogger(__name__)

PLACEHOLDER_RE = re.compile(r"__[A-Za-z0-9]+(?:_[A-Za-z0-9]+)*__")


class ProgramExecutionError(RuntimeError):
    pass


def placeholders(text: str) -> set[str]:
    return set(PLACEHOLDER_RE.findall(text))


class CallRecord:
    """Each op call's outcome in one render, for renders of programs that
    share its AST nodes (see `execute_program`).

    An outcome (the call's value, the removal queue after it and the largest
    chunk count seen under it) depends only on the call's subtree, its
    section's base text and demonstration items, and the queue on entry.  So
    it is keyed by the node's identity and the entry queue, and holds the
    node, which keeps that identity the node's own.  `asts` holds, by
    section, the ASTs of the render that filled the record.  Executions fill
    the record until it is `sealed` and only read it after, so renders on
    several threads share it without a lock.
    """

    def __init__(self) -> None:
        self.asts: dict[str, Expr] = {}
        self.sealed = False
        self._calls: dict[tuple[int, tuple[str, ...]], tuple] = {}

    def edited(self, section: str, ordinal: int, value: int) -> CallRecord:
        """This record, sealed, with `section`'s AST given `value` as its
        `ordinal`-th index value (see `exprlang.with_index`)."""
        view = CallRecord()
        view.asts = {**self.asts, section: with_index(self.asts[section], ordinal, value)}
        view.sealed = True
        view._calls = self._calls
        return view


@dataclass
class _ExecState:
    base_text: str
    icl_items: Sequence[str]
    ctx: EvalContext
    record: Optional[CallRecord]
    queue: deque[str] = field(default_factory=deque)
    max_chunks: int = 0
    degraded: Counter = field(default_factory=Counter)


def execute_program(
    expr: Expr,
    base_text: str,
    ctx: EvalContext,
    icl_items: Sequence[str] = (),
    record: Optional[CallRecord] = None,
) -> tuple[Union[str, list[str]], int, Counter]:
    """Run one parsed section program with the lexicons, gateway, edit model
    and placeholder guard of `ctx`; returns (edited text or list, largest
    chunk count any operator saw, LLM edits per op that degraded after a
    transport failure).

    With a `record`, a call whose node and entry queue the record holds
    takes the recorded outcome and does not run.  An unsealed record is
    filled, once, with every other call's outcome, except a call under which
    an LLM edit degraded after a transport failure, so that a later
    execution retries the edit; a recorded list is handed out as a new list.
    `expr`, `base_text` and `icl_items` must be those of the section that
    the record's nodes came from.
    """
    state = _ExecState(base_text, icl_items, ctx, record)
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
        if state.record is None:
            return _call(expr, state)
        return _recorded_call(expr, state)
    raise ProgramExecutionError(f"not an expression node: {expr!r}")


def _recorded_call(expr: Call, state: _ExecState) -> Union[str, list[str]]:
    """The recorded outcome of `expr` on the current queue, or its evaluation,
    recorded unless the record is sealed or an LLM edit under it degraded."""
    record = state.record
    key = (id(expr), tuple(state.queue))
    outcome = record._calls.get(key)
    if outcome is not None:
        _, value, queue, chunks = outcome
        state.queue = deque(queue)
        state.max_chunks = max(state.max_chunks, chunks)
        return list(value) if isinstance(value, tuple) else value
    if record.sealed:
        return _call(expr, state)
    outer, degraded = state.max_chunks, state.degraded.total()
    state.max_chunks = 0
    value = _call(expr, state)
    chunks = state.max_chunks
    state.max_chunks = max(outer, chunks)
    if state.degraded.total() == degraded:
        frozen = tuple(value) if isinstance(value, list) else value
        record._calls[key] = (expr, frozen, tuple(state.queue), chunks)
    return value


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
