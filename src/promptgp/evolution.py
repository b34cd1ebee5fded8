"""Grammar-guided evolutionary loop: selection, variation, elitism, journaling.

Each generation, in order: reinsert the elite if absent, resample training
rows, score the population, validate the champion (at most one validation
call per generation), breed offspring by tournament selection with
crossover then mutation, score them on the same rows, and keep survivors
by repeated size-4 tournaments over parents plus offspring.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .editops import ProgramExecutionError
from .exprlang import ProgramParseError
from .grammar import (
    DerivationTree,
    Genotype,
    Grammar,
    MalformedTreeError,
    Phenotype,
    crossover,
    decode,
    encode,
    mutate,
    render_phenotype,
    sample_ptc2,
)
from .seeds import derive_seed
from .tasks import Dataset, EvalContext, sample_rows
from .template import BaseTemplate, RenderedPrompt, TemplateError

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1


@dataclass
class GpSettings:
    population_size: int = 50
    offspring_size: int = 50
    generations: int = 20
    parent_tournament: int = 2
    survivor_tournament: int = 4
    max_nodes: int = 1024
    sample_size: int = 20
    crossover_prob: float = 0.8
    mutation_prob: float = 0.2
    icl_k: int = 5  # icl_k, eval_workers: read by cli.build_context, not the engine
    init_retries: int = 5
    eval_workers: int = 1


@dataclass
class Individual:
    genotype: Genotype
    tree: DerivationTree
    born: int
    phenotype: Optional[Phenotype] = None
    prompt: Optional[RenderedPrompt] = None
    f_train: Optional[float] = None
    f_val: Optional[float] = None
    failed: bool = False

    @property
    def digest(self) -> str:
        blob = json.dumps(list(self.genotype)).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def clone(self) -> "Individual":
        return replace(self)


class EvalJournal:
    """Append-only evaluation log; optionally mirrored to a JSONL file."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        self.records.append(record)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def __len__(self) -> int:
        return len(self.records)

    def training_points(self) -> list[tuple[str, float]]:
        """(prompt, f_train) pairs usable as surrogate training data."""
        return [
            (r["prompt"], r["fitness"])
            for r in self.records
            if r.get("split") == "train" and r.get("prompt")
        ]

    @classmethod
    def load(cls, path: str) -> "EvalJournal":
        """Read a journal file; a last line without a newline was torn by a
        killed append and is dropped."""
        journal = cls(path=None)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        if lines and not lines[-1].endswith("\n"):
            log.warning("%s: dropped a torn last line of %d characters", path, len(lines.pop()))
        for line in lines:
            if line.strip():
                journal.records.append(json.loads(line))
        journal.path = path
        return journal

    @staticmethod
    def truncate_file(path: str, lines: int) -> None:
        """Drop trailing lines past `lines` (partial-generation leftovers)."""
        with open(path, "r", encoding="utf-8") as fh:
            kept = fh.readlines()[:lines]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(kept)


@dataclass
class RunResult:
    elite: Optional[Individual]
    population: list[Individual]
    history: list[dict] = field(default_factory=list)


class EvolutionEngine:
    def __init__(
        self,
        grammar: Grammar,
        base: BaseTemplate,
        ctx: EvalContext,
        val_dataset: Dataset,
        settings: Optional[GpSettings] = None,
        master_seed: int = 0,
        journal: Optional[EvalJournal] = None,
        checkpoint_path: Optional[str] = None,
        config_digest: str = "",
    ):
        self.grammar = grammar
        self.base = base
        self.ctx = ctx
        self.val_dataset = val_dataset
        self.settings = settings or GpSettings()
        self.master_seed = master_seed
        self.journal = journal if journal is not None else EvalJournal()
        self.checkpoint_path = checkpoint_path
        self.config_digest = config_digest
        self.elite: Optional[Individual] = None
        self.history: list[dict] = []
        self._rows_cache: list = []

    def _derive(self, *labels) -> int:
        return derive_seed(self.master_seed, *labels)

    # ---- individual construction ------------------------------------

    def _make_individual(self, tree: DerivationTree, born: int) -> Individual:
        ind = Individual(genotype=encode(tree), tree=tree, born=born)
        try:
            ind.phenotype = render_phenotype(tree)
            ind.prompt, _ = self.ctx.render(self.base, ind.phenotype)
        except (ProgramParseError, ProgramExecutionError, MalformedTreeError, TemplateError) as exc:
            log.warning("individual %s failed to render: %s", ind.digest, exc)
            ind.failed = True
        return ind

    def initialise(self) -> list[Individual]:
        pop: list[Individual] = []
        for i in range(self.settings.population_size):
            ind: Optional[Individual] = None
            for attempt in range(self.settings.init_retries + 1):
                tree = sample_ptc2(
                    self.grammar, self.settings.max_nodes, self._derive("init", i, attempt)
                )
                ind = self._make_individual(tree, born=0)
                if not ind.failed:
                    break
            assert ind is not None
            pop.append(ind)
        return pop

    # ---- evaluation ---------------------------------------------------

    def _evaluate_train(self, ind: Individual, rows, gen: int) -> None:
        if ind.failed or ind.prompt is None:
            ind.f_train = 0.0
            return
        ind.f_train = self.ctx.score(ind.prompt, rows).fitness
        self.journal.append(
            {
                "generation": gen,
                "digest": ind.digest,
                "split": "train",
                "fitness": ind.f_train,
                "prompt": ind.prompt.text,
                "sample": str(gen),
            }
        )

    def _champion(self, pop: list[Individual]) -> Individual:
        return min(pop, key=lambda ind: (-(ind.f_train or 0.0), ind.genotype))

    def _validate_champion(self, champion: Individual, gen: int) -> None:
        if self.elite is not None and champion.genotype == self.elite.genotype:
            champion.f_val = self.elite.f_val
            return
        if champion.failed or champion.prompt is None:
            champion.f_val = 0.0
        else:
            champion.f_val = self.ctx.score(champion.prompt, self.val_dataset.rows).fitness
            self.journal.append(
                {
                    "generation": gen,
                    "digest": champion.digest,
                    "split": "val",
                    "fitness": champion.f_val,
                    "prompt": champion.prompt.text,
                    "sample": "val",
                }
            )
        if self.elite is None or champion.f_val > (self.elite.f_val or 0.0):
            self.elite = champion.clone()

    # ---- selection and variation ---------------------------------------

    def _reinsert_elite(self, pop: list[Individual]) -> None:
        if self.elite is None:
            return
        if any(ind.genotype == self.elite.genotype for ind in pop):
            return
        worst = min(
            range(len(pop)),
            key=lambda i: pop[i].f_train if pop[i].f_train is not None else -math.inf,
        )
        pop[worst] = self.elite.clone()

    def _tournament_index(self, pop: list[Individual], rng: random.Random, size: int) -> int:
        contenders = rng.sample(range(len(pop)), min(size, len(pop)))
        return min(contenders, key=lambda i: (-(pop[i].f_train or 0.0), i))

    def _variation(self, pop: list[Individual], gen: int) -> list[Individual]:
        rng = random.Random(self._derive("variation", gen))
        offspring: list[Individual] = []
        while len(offspring) < self.settings.offspring_size:
            p1 = pop[self._tournament_index(pop, rng, self.settings.parent_tournament)]
            p2 = pop[self._tournament_index(pop, rng, self.settings.parent_tournament)]
            if rng.random() < self.settings.crossover_prob:
                t1, t2 = crossover(
                    p1.tree, p2.tree, rng.randrange(2**63), self.settings.max_nodes
                )
            else:
                t1, t2 = p1.tree.copy(), p2.tree.copy()
            for tree in (t1, t2):
                if len(offspring) >= self.settings.offspring_size:
                    break
                if rng.random() < self.settings.mutation_prob:
                    tree = mutate(tree, self.settings.max_nodes, rng.randrange(2**63))
                offspring.append(self._make_individual(tree, born=gen + 1))
        return offspring

    def _survivors(self, pop: list[Individual], offspring: list[Individual], gen: int) -> list[Individual]:
        rng = random.Random(self._derive("survive", gen))
        pool = pop + offspring
        keep: list[Individual] = []
        for _ in range(self.settings.population_size):
            winner = self._tournament_index(pool, rng, self.settings.survivor_tournament)
            keep.append(pool.pop(winner))
        return keep

    # ---- generation loop ---------------------------------------------

    def _score_generation(self, pop: list[Individual], gen: int) -> Individual:
        """Steps 1-4: elite reinsertion, row sample, scoring, validation."""
        self._reinsert_elite(pop)
        rows = sample_rows(self.ctx.train, self.settings.sample_size, self._derive("rows", gen))
        for ind in pop:
            self._evaluate_train(ind, rows, gen)
        champion = self._champion(pop)
        self._validate_champion(champion, gen)
        self.history.append(
            {
                "generation": gen,
                "champion_digest": champion.digest,
                "champion_f_train": champion.f_train,
                "champion_f_val": champion.f_val,
                "elite_f_val": self.elite.f_val if self.elite else None,
            }
        )
        self._rows_cache = rows
        return champion

    def run_generation(self, pop: list[Individual], gen: int) -> list[Individual]:
        self._score_generation(pop, gen)
        offspring = self._variation(pop, gen)
        for ind in offspring:
            self._evaluate_train(ind, self._rows_cache, gen)
        return self._survivors(pop, offspring, gen)

    def run(
        self,
        population: Optional[list[Individual]] = None,
        start_generation: int = 0,
    ) -> RunResult:
        if population is None:
            population = self.initialise()
        if self.settings.generations == 0 and start_generation == 0:
            self._score_generation(population, 0)
            if self.checkpoint_path:
                self.save_checkpoint(population, next_generation=0)
            return RunResult(self.elite, population, self.history)
        for gen in range(start_generation, self.settings.generations):
            population = self.run_generation(population, gen)
            if self.checkpoint_path:
                self.save_checkpoint(population, next_generation=gen + 1)
        return RunResult(self.elite, population, self.history)

    # ---- checkpointing -------------------------------------------------

    def _pack_individual(self, ind: Individual) -> dict:
        return {
            "genotype": list(ind.genotype),
            "born": ind.born,
            "f_train": ind.f_train,
            "f_val": ind.f_val,
        }

    def _unpack_individual(self, packed: dict) -> Individual:
        tree = decode(self.grammar, packed["genotype"])
        ind = self._make_individual(tree, born=packed["born"])
        ind.f_train = packed["f_train"]
        ind.f_val = packed["f_val"]
        return ind

    def save_checkpoint(self, population: list[Individual], next_generation: int) -> None:
        state = {
            "version": CHECKPOINT_VERSION,
            "config_digest": self.config_digest,
            "master_seed": self.master_seed,
            "next_generation": next_generation,
            "journal_lines": len(self.journal),
            "elite": self._pack_individual(self.elite) if self.elite else None,
            "population": [self._pack_individual(ind) for ind in population],
            "history": self.history,
        }
        assert self.checkpoint_path is not None
        tmp = self.checkpoint_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)
        os.replace(tmp, self.checkpoint_path)

    def restore(self, state: dict) -> tuple[list[Individual], int]:
        """Rebuild population and elite from a checkpoint dict; re-renders prompts."""
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {state.get('version')}")
        if self.config_digest and state.get("config_digest") not in ("", self.config_digest):
            raise ValueError("checkpoint was produced by a different configuration")
        if state.get("master_seed") != self.master_seed:
            raise ValueError("checkpoint master seed does not match the configured seed")
        population = [self._unpack_individual(p) for p in state["population"]]
        self.elite = self._unpack_individual(state["elite"]) if state["elite"] else None
        self.history = list(state["history"])
        return population, state["next_generation"]


def load_checkpoint(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
