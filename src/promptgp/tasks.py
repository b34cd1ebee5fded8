"""Datasets, answer extraction, metrics, and prompt evaluation."""

from __future__ import annotations

import json
import logging
import random
import re
import string
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .gateway import GatewayError, LlmGateway
from .grammar import Phenotype
from .lexicons import Lexicons
from .template import (
    BaseTemplate,
    RenderedPrompt,
    apply_phenotype,
    format_demo,
    instantiate,
    retrieve_icl,
)
from .textparse import extract_key

log = logging.getLogger(__name__)

METRICS = ("accuracy", "token_f1")


class DatasetError(ValueError):
    pass


@dataclass
class TaskSettings:
    name: str = "task"
    metric: str = "accuracy"
    answer_key: str = "Answer"
    template: str = "builtin:pubmedqa"
    train_data: str = ""
    val_data: str = ""
    test_data: str = ""
    icl_slot_count: int = 5


@dataclass(frozen=True)
class DataRow:
    id: str
    input: str
    label: str
    context: str = ""


@dataclass
class Dataset:
    rows: list[DataRow]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for row in self.rows:
            if not row.id:
                raise DatasetError("row with empty id")
            if row.id in seen:
                raise DatasetError(f"duplicate row id {row.id!r}")
            seen.add(row.id)
            if not row.label:
                raise DatasetError(f"row {row.id!r} has an empty label")

    def __len__(self) -> int:
        return len(self.rows)


def parse_dataset(text: str) -> Dataset:
    """Parse JSONL rows with fields id, input, label, optional context."""
    rows: list[DataRow] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DatasetError(f"line {lineno}: expected an object")
        try:
            rows.append(
                DataRow(
                    id=str(obj["id"]),
                    input=str(obj["input"]),
                    label=str(obj["label"]),
                    context=str(obj.get("context", "")),
                )
            )
        except KeyError as exc:
            raise DatasetError(f"line {lineno}: missing field {exc}") from exc
    return Dataset(rows=rows)


def load_dataset(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset(fh.read())


def sample_rows(dataset: Dataset, n: int, seed: int) -> list[DataRow]:
    """Sample n rows without replacement; n >= |dataset| yields a permutation."""
    if n <= 0:
        return []
    rng = random.Random(seed)
    return rng.sample(dataset.rows, min(n, len(dataset.rows)))


_FALLBACK_TEMPLATE = r"{key}\s*[:=]\s*(.+)"


def extract_answer(raw: str, key: str = "Answer") -> Optional[str]:
    """Pull the answer value from a reply: balanced-JSON spans, then regex."""
    found = extract_key(raw, key)
    if found is not None:
        return found
    pattern = re.compile(_FALLBACK_TEMPLATE.format(key=re.escape(key)), re.IGNORECASE)
    matches = list(pattern.finditer(raw))
    if not matches:
        return None
    value = matches[-1].group(1).strip()
    value = value.rstrip("}").strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        value = value[1:-1]
    return value.strip()


_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(text.lower().translate(_PUNCT_TABLE).split())


def token_f1(pred: str, label: str) -> float:
    pred_tokens = normalize_answer(pred).split()
    label_tokens = normalize_answer(label).split()
    if not pred_tokens or not label_tokens:
        return 1.0 if pred_tokens == label_tokens else 0.0
    overlap = sum((Counter(pred_tokens) & Counter(label_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(label_tokens)
    return 2 * precision * recall / (precision + recall)


def score_case(pred: Optional[str], label: str, metric: str = "accuracy") -> float:
    if pred is None:
        return 0.0
    if metric == "accuracy":
        return 1.0 if normalize_answer(pred) == normalize_answer(label) else 0.0
    if metric == "token_f1":
        return token_f1(pred, label)
    raise ValueError(f"unknown metric {metric!r}")


@dataclass
class FitnessReport:
    fitness: float
    per_case: list[tuple[str, float]] = field(default_factory=list)
    parse_failures: int = 0


def evaluate_prompt(
    prompt: RenderedPrompt, rows: Sequence[DataRow], ctx: EvalContext
) -> FitnessReport:
    """Mean per-case score of one rendered prompt over the given rows,
    asked of `ctx.model` with the cases sent through `ctx.map`.

    Every row's demonstrations are resolved through `ctx.demos`, in row
    order, before any case is sent.  Transport failures and unparseable
    replies score zero for that case; only the latter are counted as parse
    failures.
    """
    if not rows:
        raise ValueError("cannot evaluate on zero rows")
    task = ctx.task
    cases = [(row, ctx.demos(row)) for row in rows]

    def eval_case(case: tuple[DataRow, list[str]]) -> tuple[float, bool]:
        row, case_demos = case
        try:
            reply = ctx.gateway.ask(instantiate(prompt, row, case_demos), ctx.model)
        except GatewayError as exc:
            log.warning("case %s: gateway failure: %s", row.id, exc)
            return 0.0, False
        pred = extract_answer(reply, task.answer_key)
        return score_case(pred, row.label, task.metric), pred is None

    outcomes = ctx.map(eval_case, cases)
    per_case = [(row.id, score) for row, (score, _) in zip(rows, outcomes)]
    fitness = sum(score for _, score in per_case) / len(per_case)
    return FitnessReport(
        fitness=fitness,
        per_case=per_case,
        parse_failures=sum(1 for _, unparsed in outcomes if unparsed),
    )


# Marks the threads of every context's pool, so that a map called from one
# runs inline instead of waiting on the pool it occupies.
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.active = True


@dataclass(frozen=True)
class EvalContext:
    """How a prompt-creating programme is judged, shared by GP, local search
    and `evaluate`: its edits are applied to the base template with
    `render`, and the rendered prompt is scored by the task LLM with `score`.
    Both hand the context itself down; `lexicons` may stay empty in a
    context that renders nothing.

    `train` is the ICL demonstration pool; GP and local search also sample
    their training rows from it.  Each case's demonstrations are retrieved
    once per context and kept in `_demos`, keyed on the row itself: ids are
    unique only within one file.  Each section is rendered once per context
    and kept in `_sections` (see `apply_phenotype`); `degraded` counts, per
    op, the LLM edits that fell back to identity after a transport
    failure.

    Independent renders and scores go through `map`, which runs them on the
    context's one pool of `max_workers` threads; maps nested inside it run
    inline, so at most `max_workers` LLM requests are in flight.  The
    pool's threads start on the first map and end at `close`, which also
    closes the gateway's connections.  `_lock` guards `_sections`,
    `_claims` and `degraded`.  `_demos` holds no lock: `score_many` and
    `evaluate_prompt` resolve demonstrations on the calling thread before
    they map.
    """

    task: TaskSettings
    gateway: LlmGateway
    train: Dataset
    icl_k: int = 5
    model: str = "mock"
    edit_model: str = "mock"
    max_workers: int = 1
    lexicons: Lexicons = field(default_factory=Lexicons)
    placeholder_guard: bool = True
    degraded: Counter = field(default_factory=Counter, init=False, repr=False, compare=False)
    _demos: dict[DataRow, list[str]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _sections: dict[tuple[str, str, int, str], tuple[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _claims: dict[tuple[str, str, int, str], threading.Event] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)
    _pool: Optional[ThreadPoolExecutor] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_workers > 1:
            pool = ThreadPoolExecutor(self.max_workers, initializer=_mark_pool_thread)
            object.__setattr__(self, "_pool", pool)

    def map(self, fn: Callable, items: Sequence) -> list:
        """`fn` of each item, in item order, computed on the pool; inline when
        there is no pool or when called from a pool thread, so nested maps
        never hold more than `max_workers` requests in flight."""
        if self._pool is None or getattr(_pool_thread, "active", False):
            return [fn(item) for item in items]
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """End the pool's threads, then close the gateway's connections; the
        context maps nothing after this."""
        if self._pool is not None:
            self._pool.shutdown()
        self.gateway.close()

    def demos(self, row: DataRow) -> list[str]:
        """The formatted demonstrations shown with `row`, retrieved on first use."""
        found = self._demos.get(row)
        if found is None:
            nearest = retrieve_icl(row.input, self.train.rows, self.icl_k)
            found = self._demos[row] = [format_demo(r, self.task.answer_key) for r in nearest]
        return found

    def score(self, prompt: RenderedPrompt, rows: Sequence[DataRow]) -> FitnessReport:
        return evaluate_prompt(prompt, rows, self)

    def score_many(
        self, jobs: Sequence[tuple[RenderedPrompt, Sequence[DataRow]]]
    ) -> list[FitnessReport]:
        """`score` of each (prompt, rows) job, the jobs scored concurrently;
        every row's demonstrations are resolved first, in job order."""
        for _, rows in jobs:
            for row in rows:
                self.demos(row)
        return self.map(lambda job: evaluate_prompt(*job, self), jobs)

    def render(self, base: BaseTemplate, ph: Phenotype) -> RenderedPrompt:
        return apply_phenotype(base, ph, self)
