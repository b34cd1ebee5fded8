"""Datasets, metrics, and prompt evaluation."""

from __future__ import annotations

import json
import logging
import random
import string
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import textparse
from .gateway import GatewayError, LlmGateway
from .lexicons import Lexicons
from .template import IclPool, RenderedPrompt, format_demo, instantiate, retrieve_icl

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
    """Parse JSONL rows with fields id, input, label and an optional context,
    each text or a number; a null context reads as absent.  Rows end at
    `\n` only: JSON allows a raw U+2028, U+2029 or U+0085 inside a string."""
    rows: list[DataRow] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DatasetError(f"line {lineno}: expected an object")
        if obj.get("context") is None:
            obj["context"] = ""  # optional: absent or null reads as empty
        fields = {}
        for name in ("id", "input", "label", "context"):
            if name not in obj:
                raise DatasetError(f"line {lineno}: missing field '{name}'")
            value = obj[name]
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise DatasetError(
                    f"line {lineno}: field '{name}' must be text or a number, got {json.dumps(value)}"
                )
            fields[name] = str(value)
        # Ids are cells of the eval_<split>.tsv artifact.
        if "\t" in fields["id"] or "".join(fields["id"].splitlines()) != fields["id"]:
            raise DatasetError(f"line {lineno}: id {json.dumps(fields['id'])} holds a tab or a line break")
        rows.append(DataRow(**fields))
    return Dataset(rows=rows)


def load_dataset(path: str) -> Dataset:
    """Parse the JSONL file at `path`; a DatasetError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_dataset(text)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def warn_train_overlap(path: str, dataset: Dataset, train: Dataset) -> None:
    """Warn once when rows of the evaluation file at `path` share an id or
    an input with the training file, whose rows are the demonstration pool."""
    ids = {row.id for row in train.rows}
    inputs = {row.input for row in train.rows}
    shared = sum(1 for row in dataset.rows if row.id in ids or row.input in inputs)
    if shared:
        log.warning(
            "%s: %d of %d rows share an id or an input with the training file",
            path, shared, len(dataset),
        )


def sample_rows(dataset: Dataset, n: int, seed: int) -> list[DataRow]:
    """Sample n rows without replacement; n >= |dataset| yields a permutation."""
    if n <= 0:
        return []
    rng = random.Random(seed)
    return rng.sample(dataset.rows, min(n, len(dataset.rows)))


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
    asked of `ctx.model` with the cases sent through `ctx.map`, each with
    its demonstrations from `ctx.demos`.

    Transport failures and unparseable replies score zero for that case;
    only the latter are counted as parse failures.
    """
    if not rows:
        raise ValueError("cannot evaluate on zero rows")
    task = ctx.task

    def eval_case(row: DataRow) -> tuple[float, bool]:
        try:
            reply = ctx.gateway.ask(instantiate(prompt, row, ctx.demos(row)), ctx.model)
        except GatewayError as exc:
            log.warning("case %s: gateway failure: %s", row.id, exc)
            return 0.0, False
        pred = textparse.extract_answer(reply, task.answer_key)
        return score_case(pred, row.label, task.metric), pred is None

    outcomes = ctx.map(eval_case, rows)
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
    """The per-command state with which a prompt-creating programme is
    judged, shared by GP, local search and `evaluate`: `apply_phenotype`
    applies its edits to the base template, and `evaluate_prompt` scores the
    rendered prompt with the task LLM.  Both take the context itself;
    `lexicons` may stay empty in a context that renders nothing.

    `train` is the ICL demonstration pool; GP and local search also sample
    their training rows from it.  When `icl_k > 0`, each training input is
    tokenized once, as the context is built, into `_icl`, the index every
    retrieval ranks against, so a command tokenizes its pool once however
    many cases it retrieves for.  Each case's demonstrations are retrieved
    once per context, by `demos`, and kept in `_demos`, keyed on the row
    itself: ids are unique only within one file.  Each rendered section is
    memoised in `_sections` (see `apply_phenotype`); `degraded` counts, per
    op, the LLM edits that fell back to identity after a transport failure.

    Independent renders and scores go through `map`, which runs them on the
    context's one pool of `max_workers` threads; maps nested inside it run
    inline, so at most `max_workers` LLM requests are in flight.  The
    pool's threads start on the first map and end at `close`, which also
    closes the gateway's connections.  `_lock` guards `_sections`,
    `degraded` and `_demos`.
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
    _sections: dict[tuple[str, str, str], tuple[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)
    _pool: Optional[ThreadPoolExecutor] = field(default=None, init=False, repr=False, compare=False)
    _icl: IclPool = field(default=IclPool((), ()), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.icl_k > 0:
            object.__setattr__(self, "_icl", IclPool.of(self.train.rows))
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
        """The formatted demonstrations shown with `row`, retrieved under
        `_lock` on first use, so each row is retrieved once on any thread."""
        with self._lock:
            found = self._demos.get(row)
            if found is None:
                nearest = retrieve_icl(row.input, self._icl, self.icl_k)
                found = self._demos[row] = [format_demo(r, self.task.answer_key) for r in nearest]
        return found
