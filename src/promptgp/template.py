"""Sectioned prompt templates: parsing, phenotype application, instantiation.

A base template holds six section texts (the ICL section text is the
prefix shown above the demonstrations).  Applying a phenotype executes
each section's edit program independently and joins the edited sections
with single newlines.  Instantiation binds one dataset case: task input,
context, and whichever demonstration placeholders survived the edits.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from . import SECTIONS
from .editops import PLACEHOLDER_RE, ExecutionTrace, execute_program
from .exprlang import parse
from .gateway import LlmGateway
from .grammar import Phenotype
from .lexicons import Lexicons

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
    icl_slot_count: int = 5

    def __post_init__(self) -> None:
        for section in SECTIONS:
            self.sections.setdefault(section, "")
        if TASK_INPUT_PLACEHOLDER not in self.sections["task"]:
            raise TemplateError(f"task section must contain {TASK_INPUT_PLACEHOLDER}")
        if self.sections["context"] and CONTEXT_PLACEHOLDER not in self.sections["context"]:
            raise TemplateError(f"context section must contain {CONTEXT_PLACEHOLDER}")


def parse_template(text: str, icl_slot_count: int = 5) -> BaseTemplate:
    """Split a template file into sections on `== NAME ==` header lines."""
    sections: dict[str, str] = {}
    current: Optional[str] = None
    buffers: dict[str, list[str]] = {}
    for line in text.splitlines():
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
    return BaseTemplate(sections=sections, icl_slot_count=icl_slot_count)


def load_template(path: str, icl_slot_count: int = 5) -> BaseTemplate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_template(fh.read(), icl_slot_count=icl_slot_count)


def builtin_template(name: str, icl_slot_count: int = 5) -> BaseTemplate:
    try:
        text = resources.files("promptgp").joinpath("data", "templates", f"{name}.txt").read_text(
            encoding="utf-8"
        )
    except FileNotFoundError as exc:
        raise TemplateError(f"no built-in template named {name!r}") from exc
    return parse_template(text, icl_slot_count=icl_slot_count)


def icl_placeholders(count: int) -> list[str]:
    return [f"__ICL_{i}__" for i in range(count)]


def identity_phenotype() -> Phenotype:
    """Program set that reproduces the base template unchanged."""
    programs = {section: "BASE" for section in SECTIONS}
    programs["icl"] = "BASE+ICL_LIST"
    return Phenotype(programs)


def phenotype_digest(ph: Phenotype) -> str:
    blob = "\x1e".join(f"{s}={ph.programs.get(s, '')}" for s in SECTIONS)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RenderedPrompt:
    sections: dict[str, str]
    text: str
    provenance: str


@dataclass
class InstantiatedPrompt:
    text: str
    case_id: str


def apply_phenotype(
    base: BaseTemplate,
    ph: Phenotype,
    gateway: Optional[LlmGateway] = None,
    lexicons: Optional[Lexicons] = None,
    placeholder_guard: bool = True,
    edit_model: str = "mock",
) -> tuple[RenderedPrompt, ExecutionTrace]:
    """Execute each section's program on its base text; join with newlines.

    Raises ProgramParseError if any section program is malformed; callers
    treat that as a whole-prompt failure.
    """
    missing = [s for s in SECTIONS if s not in ph.programs]
    if missing:
        raise TemplateError(f"phenotype lacks sections: {missing}")
    # Parse everything first so a malformed program fails before any edit runs.
    parsed = {s: parse(ph.programs[s]) for s in SECTIONS}
    trace = ExecutionTrace()
    edited: dict[str, str] = {}
    for section in SECTIONS:
        icl_items = icl_placeholders(base.icl_slot_count) if section == "icl" else None
        result, section_trace = execute_program(
            parsed[section],
            base.sections[section],
            gateway=gateway,
            lexicons=lexicons,
            icl_items=icl_items,
            placeholder_guard=placeholder_guard,
            edit_model=edit_model,
        )
        trace.extend(section_trace)
        edited[section] = "\n".join(result) if isinstance(result, list) else result
    text = "\n".join(edited[s] for s in SECTIONS)
    return RenderedPrompt(sections=edited, text=text, provenance=phenotype_digest(ph)), trace


def _word_set(text: str) -> frozenset[str]:
    return frozenset(re.findall(r"[a-z0-9]+", text.lower()))


def retrieve_icl(case_input: str, rows: Sequence, k: int) -> list:
    """Top-k training rows by token-set Jaccard similarity, ties by row order."""
    if k <= 0:
        return []
    query = _word_set(case_input)

    def similarity(row) -> float:
        other = _word_set(row.input)
        union = query | other
        if not union:
            return 0.0
        return len(query & other) / len(union)

    ranked = sorted(enumerate(rows), key=lambda item: (-similarity(item[1]), item[0]))
    return [row for _, row in ranked[:k]]


def format_demo(row, answer_key: str = "Answer") -> str:
    return f"Input: {row.input}\nOutput: {{'{answer_key}': '{row.label}'}}"


def instantiate(rp: RenderedPrompt, case, demos: Sequence[str]) -> InstantiatedPrompt:
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
    return InstantiatedPrompt(text=text, case_id=getattr(case, "id", ""))
