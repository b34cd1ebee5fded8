"""Sectioned prompt templates: parsing, phenotype application, instantiation.

A base template holds six section texts (the ICL section text is the
prefix shown above the demonstrations).  Applying a phenotype executes
each section's edit program independently and joins the edited sections
with single newlines.  Instantiation binds one dataset case: task input,
context, and whichever demonstration placeholders survived the edits.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import re
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING, Optional, Sequence

from . import SECTIONS
from .editops import PLACEHOLDER_RE, execute_program, kept_outcome
from .exprlang import Expr, parse
from .grammar import Phenotype
from .textparse import answer_object

if TYPE_CHECKING:
    from .tasks import EvalContext

log = logging.getLogger(__name__)

_HEADER_RE = re.compile(r"^==\s*([A-Z]+)\s*==\s*$")
_HEADER_NAMES = {section.upper(): section for section in SECTIONS}

TASK_INPUT_PLACEHOLDER = "__TASK_INPUT_0__"
CONTEXT_PLACEHOLDER = "__CONTEXT__"
_ICL_SLOT_RE = re.compile(r"__ICL_\d+__")


class TemplateError(ValueError):
    pass


@dataclass
class BaseTemplate:
    sections: dict[str, str]

    def __post_init__(self) -> None:
        for section in SECTIONS:
            self.sections.setdefault(section, "")
        if TASK_INPUT_PLACEHOLDER not in self.sections["task"]:
            raise TemplateError(f"task section must contain {TASK_INPUT_PLACEHOLDER}")
        if self.sections["context"] and CONTEXT_PLACEHOLDER not in self.sections["context"]:
            raise TemplateError(f"context section must contain {CONTEXT_PLACEHOLDER}")


def parse_template(text: str) -> BaseTemplate:
    """Split a template file into sections on `== NAME ==` header lines.
    Lines end at `\n` only, so any other line break is a byte of its
    section's text."""
    sections: dict[str, str] = {}
    current: Optional[str] = None
    buffers: dict[str, list[str]] = {}
    for line in text.split("\n"):
        m = _HEADER_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _HEADER_NAMES:
                raise TemplateError(f"unknown section header {name!r}")
            current = _HEADER_NAMES[name]
            if current in buffers:
                raise TemplateError(f"duplicate section header {name!r}")
            buffers[current] = []
        elif current is not None:
            buffers[current].append(line)
        elif line.strip():
            raise TemplateError("template text before the first section header")
    for section, lines in buffers.items():
        sections[section] = "\n".join(lines).strip("\n")
    return BaseTemplate(sections=sections)


def load_template(path: str) -> BaseTemplate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_template(fh.read())


def builtin_template(name: str) -> BaseTemplate:
    try:
        text = resources.files("promptgp").joinpath("data", "templates", f"{name}.txt").read_text(
            encoding="utf-8"
        )
    except FileNotFoundError as exc:
        raise TemplateError(f"no built-in template named {name!r}") from exc
    return parse_template(text)


def icl_placeholders(count: int) -> list[str]:
    return [f"__ICL_{i}__" for i in range(count)]


def phenotype_digest(ph: Phenotype) -> str:
    blob = "\x1e".join(f"{s}={ph.programs.get(s, '')}" for s in SECTIONS)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RenderedPrompt:
    """Prompt text plus the largest chunk count any of its edit operators
    saw; local search draws replacement indices from twice that."""

    text: str
    max_chunks: int = 0


def section_asts(
    base: BaseTemplate, ph: Phenotype, ctx: EvalContext, given: Optional[dict[str, Expr]] = None
) -> dict[str, Expr]:
    """Each section's AST: from `given`, else from the parse memo on `ctx`,
    keyed by section, base text and program text.  Every miss is parsed
    before any is stored, so a malformed program stores nothing."""
    given = given or {}
    keys = {s: (s, base.sections[s], ph.programs[s]) for s in SECTIONS if s not in given}
    with ctx._lock:
        asts = {s: ctx._asts.get(key) for s, key in keys.items()}
    parsed = {s: parse(ph.programs[s]) for s, expr in asts.items() if expr is None}
    if parsed:
        with ctx._lock:
            asts.update({s: ctx._asts.setdefault(keys[s], expr) for s, expr in parsed.items()})
    return {**asts, **given}


def apply_phenotype(
    base: BaseTemplate, ph: Phenotype, ctx: EvalContext, given: Optional[dict[str, Expr]] = None
) -> RenderedPrompt:
    """Execute each section's program on its base text with the edit
    settings of `ctx`; join with newlines.  The ICL section's program sees
    `ctx.task.icl_slot_count` demonstration placeholders.

    Each section runs its AST from `section_asts`, against the context's
    outcome table (see `editops.execute_program`): a section whose outcome
    the table holds does not execute, and in one that does, only the nodes
    the table lacks run.  The outcomes of ASTs from the parse memo are
    kept.  Those of a `given` AST, such as a local-search neighbour's edited
    section, are read but not kept, since no later render holds its nodes.
    Two renders that miss one node at once both run it; their LLM edits are
    identical requests, which the gateway sends once.

    Raises ProgramParseError if any section program is malformed, before
    any section executes; callers treat that as a whole-prompt failure.
    """
    missing = [s for s in SECTIONS if s not in ph.programs]
    if missing:
        raise TemplateError(f"phenotype lacks sections: {missing}")
    given = given or {}
    asts = section_asts(base, ph, ctx, given)
    texts, max_chunks = [], 0
    for section in SECTIONS:
        outcome = kept_outcome(asts[section], ctx)
        if outcome is not None:
            value, chunks = outcome
        else:
            icl_items = icl_placeholders(ctx.task.icl_slot_count) if section == "icl" else ()
            value, chunks, degraded = execute_program(
                asts[section], base.sections[section], ctx, icl_items, section not in given
            )
            if degraded:
                with ctx._lock:
                    ctx.degraded.update(degraded)
        texts.append("\n".join(value) if isinstance(value, list) else value)
        max_chunks = max(max_chunks, chunks)
    return RenderedPrompt("\n".join(texts), max_chunks)


_WORD_RE = re.compile(r"[a-z0-9]+")


def _word_set(text: str) -> frozenset[str]:
    return frozenset(_WORD_RE.findall(text.lower()))


@dataclass(frozen=True)
class IclPool:
    """Demonstration rows with each input's word set, tokenized once."""

    rows: tuple
    word_sets: tuple[frozenset[str], ...]

    @classmethod
    def of(cls, rows: Sequence) -> IclPool:
        return cls(tuple(rows), tuple(_word_set(row.input) for row in rows))


def retrieve_icl(case_input: str, pool: IclPool, k: int) -> list:
    """Top-k pool rows by token-set Jaccard similarity, ties by row order.

    Only the query is tokenized.  The union's size is counted as
    `|q| + |o| - |q & o|`, so each score is the same quotient of the same
    integers as `|q & o| / |q | o|`; an empty union scores 0.0.
    """
    if k <= 0:
        return []
    query = _word_set(case_input)
    n_query = len(query)
    word_sets = pool.word_sets

    def rank(i: int) -> tuple[float, int]:
        other = word_sets[i]
        shared = len(query & other)
        union = n_query + len(other) - shared
        return -(shared / union if union else 0.0), i

    return [pool.rows[i] for i in heapq.nsmallest(k, range(len(word_sets)), key=rank)]


def format_demo(row, answer_key: str = "Answer") -> str:
    return f"Input: {row.input}\nOutput: {answer_object(answer_key, row.label)}"


def instantiate(rp: RenderedPrompt, case, demos: Sequence[str]) -> str:
    """Bind one case: task input, context, surviving demo placeholders.

    An ICL slot beyond the demonstrations given is empty by design; any
    other unbound placeholder is substituted empty with a warning.
    """
    bindings = {
        TASK_INPUT_PLACEHOLDER: case.input,
        CONTEXT_PLACEHOLDER: getattr(case, "context", "") or "",
    }
    for i, demo in enumerate(demos):
        bindings[f"__ICL_{i}__"] = demo

    unbound: list[str] = []

    def substitute(match: re.Match) -> str:
        token = match.group(0)
        if token in bindings:
            return bindings[token]
        if not _ICL_SLOT_RE.fullmatch(token):
            unbound.append(token)
        return ""

    text = PLACEHOLDER_RE.sub(substitute, rp.text)
    if unbound:
        log.warning("unbound placeholders substituted empty: %s", sorted(set(unbound)))
    return text
