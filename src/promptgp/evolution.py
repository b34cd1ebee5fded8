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
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .editops import ProgramExecutionError
from .exprlang import ProgramParseError
from .gateway import append_line, write_atomic
from .grammar import (
    DecodeError,
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
from .tasks import Dataset, EvalContext, evaluate_prompt, sample_rows
from .template import BaseTemplate, RenderedPrompt, TemplateError, apply_phenotype

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

    @property
    def digest(self) -> str:
        blob = json.dumps(list(self.genotype)).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def clone(self) -> "Individual":
        return replace(self)


class EvalJournal:
    """The evaluation journal, and the only code that reads or writes its
    format: a header record, then one record per scored prompt, each one
    JSON line appended whole; optionally mirrored to a file."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: list[dict] = []

    @classmethod
    def start(cls, path: str, config_digest: str, master_seed: int) -> "EvalJournal":
        """A new journal file at `path` that holds only its header."""
        write_atomic(path, "")
        journal = cls(path)
        journal.append({"config_digest": config_digest, "master_seed": master_seed})
        return journal

    def append(self, record: dict) -> None:
        self.records.append(record)
        if self.path:
            append_line(self.path, json.dumps(record, sort_keys=True) + "\n")

    def append_evaluation(self, generation: int, split: str, ind: Individual, fitness: float) -> None:
        """Journal `ind`'s `fitness` on split "train" (the rows sampled for `generation`) or "val"."""
        self.append(
            {
                "generation": generation,
                "digest": ind.digest,
                "split": split,
                "fitness": fitness,
                "prompt": ind.prompt.text,
                "sample": str(generation) if split == "train" else split,
            }
        )

    def cut(self, count: int) -> None:
        """Keep the first `count` records, refusing a journal that holds fewer; the
        file is replaced whole, so a failure leaves it as it was."""
        if len(self.records) < count:
            raise ValueError(
                f"{self.path}: holds {len(self.records)} records, fewer than the "
                f"{count} the checkpoint counted"
            )
        del self.records[count:]
        if self.path:
            write_atomic(self.path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records))

    def __len__(self) -> int:
        return len(self.records)

    def config_digest(self) -> str:
        """The header's config digest, or "" without a header."""
        heads = (r["config_digest"] for r in self.records if "config_digest" in r and "split" not in r)
        return next(heads, "")

    def curve(self) -> list[tuple[int, float, float, int]]:
        """Per-generation (generation, mean, population std, count) of train fitness."""
        by_gen: dict[int, list[float]] = {}
        for record in self._train_records():
            by_gen.setdefault(record["generation"], []).append(record["fitness"])
        rows = []
        for gen, values in sorted(by_gen.items()):
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            rows.append((gen, mean, std, len(values)))
        return rows

    def _train_records(self) -> list[dict]:
        return [r for r in self.records if r.get("split") == "train"]

    def training_record_count(self) -> int:
        """How many train records carry a prompt: what `training_points` collapses."""
        return sum(1 for r in self._train_records() if r["prompt"])

    def training_points(self) -> list[tuple[str, float]]:
        """The surrogate's training data: one (prompt, mean f_train) pair per
        distinct prompt, in the order each first appears, so that no split of
        the points can put one text on both sides."""
        scores: dict[str, list[float]] = {}
        for record in self._train_records():
            if record["prompt"]:
                scores.setdefault(record["prompt"], []).append(record["fitness"])
        return [(text, sum(values) / len(values)) for text, values in scores.items()]

    @classmethod
    def load(cls, path: str) -> "EvalJournal":
        """Read a journal file; a last line without a newline was torn by a
        killed append and is dropped."""
        journal = cls(path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        if lines and not lines[-1].endswith("\n"):
            log.warning("%s: dropped a torn last line of %d characters", path, len(lines.pop()))
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("a journal record must be an object")
                    if record.get("split") == "train":
                        _check_train_record(record)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from exc
                journal.records.append(record)  # read, so not written again
        return journal


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
        self.settings = settings or GpSettings()
        least = grammar.min_size(grammar.start_symbol)
        if self.settings.max_nodes < least:
            raise ValueError(
                f"gp.max_nodes must be >= {least:.0f} for this grammar, got {self.settings.max_nodes}"
            )
        self.grammar = grammar
        self.base = base
        self.ctx = ctx
        self.val_dataset = val_dataset
        self.master_seed = master_seed
        self.journal = journal if journal is not None else EvalJournal()
        self.checkpoint_path = checkpoint_path
        self.config_digest = config_digest
        self.elite: Optional[Individual] = None
        self.history: list[dict] = []

    def _derive(self, *labels) -> int:
        return derive_seed(self.master_seed, *labels)

    # ---- individual construction ------------------------------------

    def _render(self, ind: Individual) -> None:
        try:
            ind.phenotype = render_phenotype(ind.tree)
            ind.prompt = apply_phenotype(self.base, ind.phenotype, self.ctx)
        except (ProgramParseError, ProgramExecutionError, MalformedTreeError, TemplateError) as exc:
            log.warning("individual %s failed to render: %s", ind.digest, exc)

    def _make_individuals(self, trees: list[DerivationTree], born: int) -> list[Individual]:
        """Individuals of `trees`, rendered in one batch; one that fails to
        render keeps no prompt."""
        inds = [Individual(genotype=encode(tree), tree=tree, born=born) for tree in trees]
        self.ctx.map(self._render, inds)
        return inds

    def initialise(self) -> list[Individual]:
        """Each individual is its first draw that renders, or its last draw;
        each retry round renders the individuals still without a prompt."""
        size = self.settings.population_size
        pop: dict[int, Individual] = {}
        redraw = list(range(size))
        for attempt in range(self.settings.init_retries + 1):  # >= 0, so at least one draw
            trees = [
                sample_ptc2(self.grammar, self.settings.max_nodes, self._derive("init", i, attempt))
                for i in redraw
            ]
            pop.update(zip(redraw, self._make_individuals(trees, born=0)))
            redraw = [i for i in redraw if pop[i].prompt is None]
        return [pop[i] for i in range(size)]

    # ---- evaluation ---------------------------------------------------

    def _evaluate_train(self, inds: list[Individual], rows, gen: int) -> None:
        """Score `inds` on `rows` in one batch, then journal them in order;
        one without a prompt scores 0 unjournaled."""
        for ind in inds:
            if ind.prompt is None:
                ind.f_train = 0.0
        rendered = [ind for ind in inds if ind.prompt is not None]
        reports = self.ctx.map(lambda ind: evaluate_prompt(ind.prompt, rows, self.ctx), rendered)
        for ind, report in zip(rendered, reports):
            ind.f_train = report.fitness
            self.journal.append_evaluation(gen, "train", ind, ind.f_train)

    def _champion(self, pop: list[Individual]) -> Individual:
        """The best `f_train`, rendered before unrendered; ties by genotype."""
        return min(pop, key=lambda ind: (ind.prompt is None, -(ind.f_train or 0.0), ind.genotype))

    def _validate_champion(self, champion: Individual, gen: int) -> None:
        """Validate the champion; it becomes the elite if it beats it or there
        is none.  An unrendered champion scores 0 and is never the elite."""
        if self.elite is not None and champion.genotype == self.elite.genotype:
            champion.f_val = self.elite.f_val
            return
        if champion.prompt is None:
            champion.f_val = 0.0
            return
        champion.f_val = evaluate_prompt(champion.prompt, self.val_dataset.rows, self.ctx).fitness
        self.journal.append_evaluation(gen, "val", champion, champion.f_val)
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
        """Draw every offspring tree, then render them in one batch."""
        rng = random.Random(self._derive("variation", gen))
        offspring: list[DerivationTree] = []
        while len(offspring) < self.settings.offspring_size:
            p1 = pop[self._tournament_index(pop, rng, self.settings.parent_tournament)]
            p2 = pop[self._tournament_index(pop, rng, self.settings.parent_tournament)]
            if rng.random() < self.settings.crossover_prob:
                t1, t2 = crossover(
                    p1.tree, p2.tree, rng.randrange(2**63), self.settings.max_nodes
                )
            else:
                t1, t2 = p1.tree, p2.tree
            for tree in (t1, t2):
                if len(offspring) >= self.settings.offspring_size:
                    break
                if rng.random() < self.settings.mutation_prob:
                    tree = mutate(tree, self.settings.max_nodes, rng.randrange(2**63))
                offspring.append(tree)
        return self._make_individuals(offspring, born=gen + 1)

    def _survivors(self, pop: list[Individual], offspring: list[Individual], gen: int) -> list[Individual]:
        rng = random.Random(self._derive("survive", gen))
        pool = pop + offspring
        keep: list[Individual] = []
        for _ in range(self.settings.population_size):
            winner = self._tournament_index(pool, rng, self.settings.survivor_tournament)
            keep.append(pool.pop(winner))
        return keep

    # ---- generation loop ---------------------------------------------

    def _score_generation(self, pop: list[Individual], gen: int) -> list:
        """Steps 1-4: elite reinsertion, row sample, scoring, validation;
        returns the sampled rows, on which the offspring are scored too."""
        self._reinsert_elite(pop)
        rows = sample_rows(self.ctx.train, self.settings.sample_size, self._derive("rows", gen))
        self._evaluate_train(pop, rows, gen)
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
        return rows

    def run_generation(self, pop: list[Individual], gen: int) -> list[Individual]:
        rows = self._score_generation(pop, gen)
        offspring = self._variation(pop, gen)
        self._evaluate_train(offspring, rows, gen)
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
            if self.checkpoint_path:  # generation 0 is done, so a resume appends nothing
                self.save_checkpoint(population, next_generation=1)
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
        # dumps, unlike dump, uses the C encoder
        write_atomic(self.checkpoint_path, json.dumps(state, sort_keys=True))

    def restore(self, state: dict) -> tuple[list[Individual], int]:
        """Rebuild population and elite from a checkpoint dict, then cut the
        journal to the records it counted and re-render the prompts; a refused
        checkpoint, decoded whole before the cut, leaves the journal as it was."""
        check_checkpoint(state, self.config_digest, self.master_seed)
        packed = _field(state, "population", (list,))
        size = self.settings.population_size
        if len(packed) != size:
            raise ValueError(f"population: holds {len(packed)} entries, gp.population_size is {size}")
        population = [_unpack_individual(self.grammar, p, f"population[{i}]") for i, p in enumerate(packed)]
        elite = _field(state, "elite", (dict, type(None)))
        elite = None if elite is None else _unpack_individual(self.grammar, elite, "elite")
        history = _field(state, "history", (list,))
        history = [_typed(h, (dict,), f"history[{i}]") for i, h in enumerate(history)]
        next_generation = _field(state, "next_generation", (int,))
        self.journal.cut(_field(state, "journal_lines", (int,)))
        self.elite, self.history = elite, history
        self.ctx.map(self._render, population + ([elite] if elite else []))
        return population, next_generation


_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "integer",
    float: "number", bool: "boolean", type(None): "null",
}


def _typed(value, kinds: tuple, name: str):
    """`value`, refused naming the field `name` unless its type is
    exactly one of `kinds` (so a bool is no integer); each integer field
    counts something, so none may be negative."""
    if type(value) not in kinds:
        wanted = " or ".join(_JSON_TYPES[kind] for kind in kinds)
        raise ValueError(f"{name}: must be {wanted}, got {_JSON_TYPES[type(value)]}")
    if type(value) is int and value < 0:
        raise ValueError(f"{name}: must be >= 0, got {value}")
    return value


def _field(obj: dict, key: str, kinds: tuple, where: str = ""):
    if key not in obj:
        raise ValueError(f"{where}{key}: missing")
    return _typed(obj[key], kinds, where + key)


def _check_train_record(record: dict) -> None:
    """Refuse a train record whose fields the journal's readers could not use."""
    _field(record, "generation", (int,))
    _field(record, "prompt", (str,))
    if not math.isfinite(_field(record, "fitness", (float, int))):
        raise ValueError(f"fitness: must be finite, got {record['fitness']}")


def _unpack_individual(grammar: Grammar, packed, where: str) -> Individual:
    """The individual packed at `where` in a checkpoint, not yet rendered."""
    _typed(packed, (dict,), where)
    genotype = _field(packed, "genotype", (list,), f"{where}.")
    if any(type(codon) is not int for codon in genotype):
        raise ValueError(f"{where}.genotype: must hold integers only")
    try:
        tree = decode(grammar, genotype)
    except DecodeError as exc:
        raise ValueError(f"{where}.genotype: {exc}") from exc
    score = (float, int, type(None))
    return Individual(
        genotype=tuple(genotype),  # decode consumed every choice, so this is encode(tree)
        tree=tree,
        born=_field(packed, "born", (int,), f"{where}."),
        f_train=_field(packed, "f_train", score, f"{where}."),
        f_val=_field(packed, "f_val", score, f"{where}."),
    )


def _check_version(state: dict) -> None:
    if state.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {state.get('version')}")


def check_checkpoint(state: dict, config_digest: str, master_seed: int) -> None:
    """Raise ValueError unless a run of exactly this config digest and
    master seed may resume from the checkpoint `state`."""
    _check_version(state)
    if state.get("config_digest") != config_digest:
        raise ValueError("checkpoint was produced by a different configuration")
    if state.get("master_seed") != master_seed:
        raise ValueError("checkpoint master seed does not match the configured seed")


def checkpoint_elite(state: dict, grammar: Grammar) -> Individual:
    """The elite of checkpoint `state`, not yet rendered, through a resume's
    version and field checks.  Its digest and seed go unchecked: local search
    may run under other settings and another seed."""
    _check_version(state)
    return _unpack_individual(grammar, _field(state, "elite", (dict,)), "elite")


def load_checkpoint(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(state, dict):
        raise ValueError(f"{path}: a checkpoint must be an object")
    return state
