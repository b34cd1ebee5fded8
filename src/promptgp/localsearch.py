"""Index point-mutation refinement of a champion phenotype.

Every value of every view index in the incumbent's programs is a mutation
site, found in the program text.  A neighbour is the incumbent with one
site's digits replaced, so every other byte of its programs is the
incumbent's.  Each site receives up to `per_site` distinct replacement
values drawn from {1, ..., U}, where U is twice the largest chunk count
the incumbent's ops saw during execution.  The surrogate screens the
neighborhood: it keeps the `top_variance` highest-variance predictions and
fills up with the highest means until `screen_limit` are kept.  Survivors
and the incumbent are LLM-scored on the validation set plus an equally
sized training sample, and the best combined score wins.

Neighbours render incrementally from the incumbent.  The incumbent's six
programs are parsed once, and its render records each op call's outcome
in an `editops.CallRecord`.  A neighbour's edited section is the
incumbent's AST with one index value replaced (`exprlang.with_index`), so
it is never parsed, and every node off the path from that value to the
section's root is the incumbent's own.  Executed against the record, only
the op calls on that path run again, with any later call whose removal
queue on entry differs from the incumbent's.  A site's ordinal among its
section's index values is its AST slot in pre-order, the order that
`index_spans` yields.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Optional

from . import SECTIONS
from .editops import CallRecord
from .exprlang import index_spans
from .grammar import Phenotype
from .seeds import derive_seed
from .surrogate import SurrogateEnsemble
from .tasks import Dataset, EvalContext, evaluate_prompt, sample_rows
from .template import BaseTemplate, RenderedPrompt, apply_phenotype, phenotype_digest

log = logging.getLogger(__name__)


@dataclass
class LocalSearchSettings:
    per_site: int = 10
    screen_limit: int = 50
    top_mean: int = 25  # bounded by config, read by nothing else
    top_variance: int = 25


@dataclass(frozen=True)
class IndexSite:
    section: str
    span: tuple[int, int]  # (start, end) of the value's digits in the section's program
    param: str
    slot: int
    value: int
    ordinal: int  # the value's place among its section's index values


@dataclass
class Candidate:
    """The incumbent or one neighbour; `prompt` is None until rendered."""

    phenotype: Phenotype
    prompt: Optional[RenderedPrompt]
    digest: str
    is_incumbent: bool = False
    site: Optional[IndexSite] = None
    value: Optional[int] = None
    mean: Optional[float] = None
    variance: Optional[float] = None
    f_val: Optional[float] = None
    f_train: Optional[float] = None
    combined: Optional[float] = None


@dataclass
class Neighborhood:
    neighbors: list[Candidate]


def enumerate_sites(ph: Phenotype) -> list[IndexSite]:
    """One site per index value, in section order then program text order."""
    sites: list[IndexSite] = []
    for section in SECTIONS:
        program = ph.programs[section]
        for k, (param, slot, start, end) in enumerate(index_spans(program)):
            sites.append(IndexSite(section, (start, end), param, slot, int(program[start:end]), k))
    return sites


def _mutate_site(ph: Phenotype, site: IndexSite, value: int) -> Phenotype:
    program = ph.programs[site.section]
    start, end = site.span
    return Phenotype({**ph.programs, site.section: f"{program[:start]}{value}{program[end:]}"})


def build_neighborhood(
    ph: Phenotype, sites: list[IndexSite], bound: int, seed: int, per_site: int
) -> Neighborhood:
    """Per site, up to `per_site` distinct values from {1..bound} minus current."""
    rng = random.Random(seed)
    neighbors: list[Candidate] = []
    for site in sites:
        pool = [v for v in range(1, bound + 1) if v != site.value]
        for value in rng.sample(pool, min(per_site, len(pool))):
            mutated = _mutate_site(ph, site, value)
            neighbors.append(
                Candidate(mutated, None, phenotype_digest(mutated), site=site, value=value)
            )
    return Neighborhood(neighbors)


def screen(
    neighbors: list[Candidate], ensemble: SurrogateEnsemble, settings: LocalSearchSettings
) -> list[Candidate]:
    """The `top_variance` highest-variance predictions, filled up in mean
    order until `screen_limit` are chosen; returned in mean order.  Both
    rankings break ties by digest."""
    if any(n.prompt is None for n in neighbors):
        raise ValueError("neighbors must be rendered before screening")
    means, variances = ensemble.predict_many([n.prompt.text for n in neighbors])
    for n, m, v in zip(neighbors, means, variances):
        n.mean = float(m)
        n.variance = float(v)
    indices = range(len(neighbors))
    by_mean = sorted(indices, key=lambda i: (-neighbors[i].mean, neighbors[i].digest))
    by_variance = sorted(indices, key=lambda i: (-neighbors[i].variance, neighbors[i].digest))
    chosen = set(by_variance[: settings.top_variance])
    for i in by_mean:
        if len(chosen) >= settings.screen_limit:
            break
        chosen.add(i)
    return [neighbors[i] for i in by_mean if i in chosen]


def finalize(
    candidates: list[Candidate],
    incumbent: Candidate,
    ctx: EvalContext,
    val_rows,
    seed: int,
) -> tuple[Candidate, list[Candidate]]:
    """Score candidates and the incumbent on D_val plus an equal-size train
    sample, all in one batch; pick argmax."""
    d_train = sample_rows(ctx.train, len(val_rows), seed)
    entries = [*candidates, incumbent]
    jobs = [(c.prompt, rows) for c in entries for rows in (val_rows, d_train)]
    reports = ctx.map(lambda job: evaluate_prompt(*job, ctx), jobs)
    for cand, val, train in zip(entries, reports[::2], reports[1::2]):
        cand.f_val, cand.f_train = val.fitness, train.fitness
        cand.combined = (cand.f_val + cand.f_train) / 2.0
    ranked = sorted(
        entries, key=lambda c: (-c.combined, 0 if c.is_incumbent else 1, c.digest)
    )
    return ranked[0], ranked


@dataclass
class LocalSearchResult:
    best: Candidate
    ranking: list[Candidate] = field(default_factory=list)
    sites: list[IndexSite] = field(default_factory=list)
    bound: int = 0
    notice: str = ""


def run_local_search(
    incumbent_ph: Phenotype,
    base: BaseTemplate,
    ensemble: SurrogateEnsemble,
    ctx: EvalContext,
    val_dataset: Dataset,
    settings: Optional[LocalSearchSettings] = None,
    master_seed: int = 0,
) -> LocalSearchResult:
    settings = settings or LocalSearchSettings()
    record = CallRecord()
    prompt = apply_phenotype(base, incumbent_ph, ctx, record)
    incumbent = Candidate(
        incumbent_ph, prompt, phenotype_digest(incumbent_ph), is_incumbent=True
    )
    sites = enumerate_sites(incumbent_ph)
    if not sites:
        return LocalSearchResult(
            incumbent, [incumbent], sites, 0, notice="no index sites; incumbent returned"
        )
    bound = 2 * prompt.max_chunks
    if bound < 1:
        return LocalSearchResult(
            incumbent, [incumbent], sites, bound,
            notice="degenerate chunk bound; incumbent returned",
        )
    nb = build_neighborhood(
        incumbent_ph, sites, bound, derive_seed(master_seed, "neighborhood"), settings.per_site
    )
    prompts = ctx.map(
        lambda n: apply_phenotype(
            base, n.phenotype, ctx, record.edited(n.site.section, n.site.ordinal, n.value)
        ),
        nb.neighbors,
    )
    for neighbor, rendered in zip(nb.neighbors, prompts):
        neighbor.prompt = rendered
    candidates = screen(nb.neighbors, ensemble, settings)
    best, ranking = finalize(
        candidates, incumbent, ctx, val_dataset.rows, derive_seed(master_seed, "dtrain")
    )
    return LocalSearchResult(best, ranking, sites, bound)
