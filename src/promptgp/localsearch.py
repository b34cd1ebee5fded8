"""Index point-mutation refinement of a champion phenotype.

Every digit in every view index of the incumbent's programs is a mutation
site.  Each site receives up to 10 distinct replacement values drawn from
{1, ..., U}, where U is twice the largest chunk count the incumbent's ops
saw during execution.  The surrogate screens the neighborhood down to the
25 highest-mean plus 25 highest-variance predictions; survivors (and, by
default, the incumbent) are LLM-scored on the validation set plus an
equally sized training sample, and the best combined score wins.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Optional

from . import SECTIONS
from .editops import ExecutionTrace
from .exprlang import Expr, iter_index_slots, parse, render, replace_index_slot
from .grammar import Phenotype
from .seeds import derive_seed
from .surrogate import SurrogateEnsemble
from .tasks import Dataset, EvalContext, sample_rows
from .template import BaseTemplate, RenderedPrompt, phenotype_digest

log = logging.getLogger(__name__)

FALLBACK_BOUND = 10


@dataclass
class LocalSearchSettings:
    per_site: int = 10
    screen_limit: int = 50
    top_mean: int = 25
    top_variance: int = 25
    include_incumbent: bool = True
    eval_workers: int = 1  # read by cli.build_context, not run_local_search


@dataclass(frozen=True)
class IndexSite:
    section: str
    path: tuple[int, ...]
    param: str
    slot: int
    value: int


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
    """One site per index digit, in section order then program pre-order."""
    sites: list[IndexSite] = []
    for section in SECTIONS:
        expr = parse(ph.programs[section])
        for path, param, slot, value in iter_index_slots(expr):
            sites.append(IndexSite(section, path, param, slot, value))
    return sites


def compute_bound(trace: ExecutionTrace) -> int:
    if not trace.records:
        return FALLBACK_BOUND
    return 2 * trace.max_chunk_count


def _mutate_site(ph: Phenotype, parsed: dict[str, Expr], site: IndexSite, value: int) -> Phenotype:
    new_expr = replace_index_slot(parsed[site.section], site.path, site.param, site.slot, value)
    programs = dict(ph.programs)
    programs[site.section] = render(new_expr)
    return Phenotype(programs)


def build_neighborhood(
    ph: Phenotype, sites: list[IndexSite], bound: int, seed: int, per_site: int = 10
) -> Neighborhood:
    """Per site, up to `per_site` distinct values from {1..bound} minus current."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = random.Random(seed)
    parsed = {section: parse(ph.programs[section]) for section in SECTIONS}
    neighbors: list[Candidate] = []
    for site in sites:
        pool = [v for v in range(1, bound + 1) if v != site.value]
        for value in rng.sample(pool, min(per_site, len(pool))):
            mutated = _mutate_site(ph, parsed, site, value)
            neighbors.append(
                Candidate(mutated, None, phenotype_digest(mutated), site=site, value=value)
            )
    return Neighborhood(neighbors)


def screen(
    neighbors: list[Candidate],
    ensemble: SurrogateEnsemble,
    limit: int = 50,
    top_mean: int = 25,
    top_variance: int = 25,
) -> list[Candidate]:
    """Union of top-mean and top-variance predictions, backfilled by mean rank."""
    if not neighbors:
        return []
    if any(n.prompt is None for n in neighbors):
        raise ValueError("neighbors must be rendered before screening")
    means, variances = ensemble.predict_many([n.prompt.text for n in neighbors])
    for n, m, v in zip(neighbors, means, variances):
        n.mean = float(m)
        n.variance = float(v)
    if len(neighbors) <= limit:
        return list(neighbors)
    indices = range(len(neighbors))
    by_mean = sorted(indices, key=lambda i: (-neighbors[i].mean, neighbors[i].digest))
    by_variance = sorted(indices, key=lambda i: (-neighbors[i].variance, neighbors[i].digest))
    chosen = dict.fromkeys(by_mean[:top_mean])
    for i in by_variance[:top_variance]:
        chosen.setdefault(i)
    for i in by_mean[top_mean:]:
        if len(chosen) >= limit:
            break
        chosen.setdefault(i)
    return [neighbors[i] for i in by_mean if i in chosen]


def finalize(
    candidates: list[Candidate],
    incumbent: Candidate,
    ctx: EvalContext,
    val_rows,
    seed: int,
    include_incumbent: bool = True,
) -> tuple[Candidate, list[Candidate]]:
    """Score candidates on D_val plus an equal-size train sample; pick argmax."""
    d_train = sample_rows(ctx.train, len(val_rows), seed)
    entries = list(candidates)
    if include_incumbent:
        entries.append(incumbent)
    for cand in entries:
        cand.f_val = ctx.score(cand.prompt, val_rows).fitness
        cand.f_train = ctx.score(cand.prompt, d_train).fitness
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
    prompt, trace = ctx.render(base, incumbent_ph)
    incumbent = Candidate(
        incumbent_ph, prompt, phenotype_digest(incumbent_ph), is_incumbent=True
    )
    sites = enumerate_sites(incumbent_ph)
    if not sites:
        return LocalSearchResult(
            incumbent, [incumbent], sites, 0, notice="no index sites; incumbent returned"
        )
    bound = compute_bound(trace)
    if bound < 1:
        return LocalSearchResult(
            incumbent, [incumbent], sites, bound,
            notice="degenerate chunk bound; incumbent returned",
        )
    nb = build_neighborhood(
        incumbent_ph, sites, bound, derive_seed(master_seed, "neighborhood"), settings.per_site
    )
    for neighbor in nb.neighbors:
        neighbor.prompt, _ = ctx.render(base, neighbor.phenotype)
    candidates = screen(
        nb.neighbors, ensemble, settings.screen_limit, settings.top_mean, settings.top_variance
    )
    best, ranking = finalize(
        candidates,
        incumbent,
        ctx,
        val_dataset.rows,
        derive_seed(master_seed, "dtrain"),
        include_incumbent=settings.include_incumbent,
    )
    return LocalSearchResult(best, ranking, sites, bound)
