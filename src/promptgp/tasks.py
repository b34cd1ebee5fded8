"""Datasets, answer extraction, metrics, and prompt evaluation."""

from __future__ import annotations

import json
import logging
import random
import re
import string
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .editops import ExecutionTrace
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


@dataclass(frozen=True)
class DataRow:
    id: str
    input: str
    label: str
    context: str = ""


@dataclass
class Dataset:
    rows: list[DataRow]
    split: str = "train"

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


def parse_dataset(text: str, split: str = "train") -> Dataset:
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
    return Dataset(rows=rows, split=split)


def load_dataset(path: str, split: str = "train") -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset(fh.read(), split=split)


def sample_rows(dataset: Dataset, n: int, seed: int) -> list[DataRow]:
    """Sample n rows without replacement; n >= |dataset| yields a permutation."""
    if n <= 0:
        return []
    rng = random.Random(seed)
    return rng.sample(dataset.rows, min(n, len(dataset.rows)))


@dataclass
class TaskSpec:
    name: str
    metric: str = "accuracy"
    answer_key: str = "Answer"

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")


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
    llm_calls: int = 0


def evaluate_prompt(
    prompt: RenderedPrompt,
    rows: Sequence[DataRow],
    task: TaskSpec,
    gateway: LlmGateway,
    train_rows: Sequence[DataRow] = (),
    icl_k: int = 5,
    model: str = "mock",
    max_workers: int = 1,
) -> FitnessReport:
    """Mean per-case score of one rendered prompt over the given rows.

    Transport failures and unparseable replies score zero for that case.
    """
    if not rows:
        raise ValueError("cannot evaluate on zero rows")

    def eval_case(row: DataRow) -> tuple[float, bool, int]:
        demos = [format_demo(r, task.answer_key) for r in retrieve_icl(row.input, train_rows, icl_k)]
        bound = instantiate(prompt, row, demos)
        try:
            reply = gateway.ask(bound.text, model)
        except GatewayError as exc:
            log.warning("case %s: gateway failure: %s", row.id, exc)
            return 0.0, True, 1
        pred = extract_answer(reply, task.answer_key)
        return score_case(pred, row.label, task.metric), pred is None, 1

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(eval_case, rows))
    else:
        outcomes = [eval_case(row) for row in rows]

    per_case = [(row.id, score) for row, (score, _, _) in zip(rows, outcomes)]
    fitness = sum(score for _, score in per_case) / len(per_case)
    return FitnessReport(
        fitness=fitness,
        per_case=per_case,
        parse_failures=sum(1 for _, failed, _ in outcomes if failed),
        llm_calls=sum(calls for _, _, calls in outcomes),
    )


@dataclass(frozen=True)
class EvalContext:
    """How a prompt-creating programme is judged, shared by GP, local search
    and `evaluate`: its edits are applied to the base template with
    `render`, and the rendered prompt is scored by the task LLM with `score`.

    `train` is the ICL demonstration pool; GP and local search also sample
    their training rows from it.
    """

    task: TaskSpec
    gateway: LlmGateway
    train: Dataset
    icl_k: int = 5
    model: str = "mock"
    edit_model: str = "mock"
    max_workers: int = 1
    lexicons: Optional[Lexicons] = None
    placeholder_guard: bool = True

    def score(self, prompt: RenderedPrompt, rows: Sequence[DataRow]) -> FitnessReport:
        return evaluate_prompt(
            prompt,
            rows,
            self.task,
            self.gateway,
            train_rows=self.train.rows,
            icl_k=self.icl_k,
            model=self.model,
            max_workers=self.max_workers,
        )

    def render(self, base: BaseTemplate, ph: Phenotype) -> tuple[RenderedPrompt, ExecutionTrace]:
        return apply_phenotype(
            base,
            ph,
            gateway=self.gateway,
            lexicons=self.lexicons,
            placeholder_guard=self.placeholder_guard,
            edit_model=self.edit_model,
        )
