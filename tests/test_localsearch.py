import hashlib
import json
import random

import numpy as np
import pytest

from helpers import (
    assert_shares_off_path,
    ast_index_slots,
    identity_phenotype,
    render_program,
    replace_index_slot,
)
from promptgp import SECTIONS
from promptgp.exprlang import Call, Concat, parse, with_index
from promptgp.gateway import LabelOracleBackend, LlmGateway, TransportError
from promptgp.grammar import Phenotype, default_grammar, render_phenotype, sample_ptc2
from promptgp.lexicons import default_lexicons
from promptgp.localsearch import (
    LocalSearchSettings,
    build_neighborhood,
    enumerate_sites,
    finalize,
    run_local_search,
    screen,
)
from promptgp.surrogate import HashingEmbedder, SurrogateEnsemble
from promptgp.tasks import DataRow, Dataset, EvalContext, TaskSettings
from promptgp.template import apply_phenotype, builtin_template, parse_template, phenotype_digest


def make_phenotype(**overrides):
    ph = identity_phenotype()
    ph.programs.update(overrides)
    return ph


def test_enumerate_sites_section_order_and_slots():
    ph = make_phenotype(
        task="swap_elements(index1=[0,1], index2=[3], level=word, texts=BASE)",
        cot="remove_element(index=[2], level=word, texts=BASE)",
    )
    sites = enumerate_sites(ph)
    assert [(s.section, s.param, s.slot, s.value) for s in sites] == [
        ("task", "index1", 0, 0),
        ("task", "index1", 1, 1),
        ("task", "index2", 0, 3),
        ("cot", "index", 0, 2),
    ]


def test_enumerate_sites_identity_has_none():
    assert enumerate_sites(identity_phenotype()) == []


def test_bound_is_twice_the_largest_chunk_count():
    ctx, val = make_task_setup()
    base = parse_template(
        "== PERSONA ==\none two three four five six seven\n"
        "== TASK ==\n__TASK_INPUT_0__\n== COT ==\na b c\n"
    )
    op = "remove_element(index=[1], level=word, texts=BASE)"
    ph = make_phenotype(persona=op, cot=op)  # the ops see 7 and 3 words
    result = run_local_search(ph, base, constant_ensemble(0.5), ctx, val, master_seed=2)
    assert result.bound == 14
    values = [c.value for c in result.ranking if not c.is_incumbent]
    assert values and all(1 <= v <= 14 for v in values)


def test_build_neighborhood_single_digit_changes():
    ph = make_phenotype(task="remove_element(index=[2], level=word, texts=BASE)")
    sites = enumerate_sites(ph)
    nb = build_neighborhood(ph, sites, bound=12, seed=5, per_site=10)
    assert len(nb.neighbors) == 10
    values = [n.value for n in nb.neighbors]
    assert len(set(values)) == 10
    assert all(1 <= v <= 12 and v != 2 for v in values)
    for n in nb.neighbors:
        expected = f"remove_element(index=[{n.value}], level=word, texts=BASE)"
        assert n.phenotype.programs["task"] == expected
        # Only the one site changed.
        others = {k: v for k, v in n.phenotype.programs.items() if k != "task"}
        assert others == {k: v for k, v in ph.programs.items() if k != "task"}
        assert n.digest == phenotype_digest(n.phenotype)


def test_build_neighborhood_deterministic_and_pool_limited():
    ph = make_phenotype(task="remove_element(index=[2], level=word, texts=BASE)")
    sites = enumerate_sites(ph)
    a = build_neighborhood(ph, sites, bound=12, seed=5, per_site=10)
    b = build_neighborhood(ph, sites, bound=12, seed=5, per_site=10)
    assert [n.value for n in a.neighbors] == [n.value for n in b.neighbors]
    # bound 4 leaves only {1, 3, 4} once the current value is excluded.
    small = build_neighborhood(ph, sites, bound=4, seed=5, per_site=10)
    assert sorted(n.value for n in small.neighbors) == [1, 3, 4]
    assert build_neighborhood(ph, sites, bound=0, seed=5, per_site=10).neighbors == []


def test_build_neighborhood_multi_digit_values_render():
    ph = make_phenotype(task="remove_element(index=[2], level=word, texts=BASE)")
    sites = enumerate_sites(ph)
    nb = build_neighborhood(ph, sites, bound=90, seed=1, per_site=10)
    big = [n for n in nb.neighbors if n.value >= 10]
    assert big, "with bound 90 some sampled values should be multi-digit"
    for n in big:
        assert f"index=[{n.value}]" in n.phenotype.programs["task"]


def test_mutate_site_changes_exactly_one_value():
    text = "swap_elements(index1=[3], index2=[5,7], level=phrase, texts=BASE)"
    ph = make_phenotype(task=text)
    site = enumerate_sites(ph)[2]
    assert (site.param, site.slot, site.value) == ("index2", 1, 7)
    (n,) = build_neighborhood(ph, [site], bound=9, seed=0, per_site=1).neighbors
    assert n.phenotype.programs["task"] == text.replace("[5,7]", f"[5,{n.value}]")
    assert ph.programs["task"] == text


def test_mutate_site_supports_values_beyond_digit_range():
    ph = make_phenotype(task="remove_element(index=[2], level=word, texts=BASE)")
    nb = build_neighborhood(ph, enumerate_sites(ph), bound=24, seed=0, per_site=23)
    n = next(n for n in nb.neighbors if n.value == 24)
    text = "remove_element(index=[24], level=word, texts=BASE)"
    assert n.phenotype.programs["task"] == text
    assert [s.value for s in enumerate_sites(n.phenotype)] == [24]


def reference_sites(ph):
    """(section, AST path, param, slot, value) of every index value, read
    from each section's parsed program, and the parsed programs."""
    parsed = {section: parse(ph.programs[section]) for section in SECTIONS}
    sites = [(section, *slot) for section in SECTIONS for slot in ast_index_slots(parsed[section])]
    return sites, parsed


def reference_neighbour(ph, parsed, ref_site, value):
    """Programs of `ph` with one slot replaced on the AST and printed back."""
    section, path, param, slot, _ = ref_site
    expr = replace_index_slot(parsed[section], path, param, slot, value)
    return {**ph.programs, section: render_program(expr)}


def test_text_sites_and_neighbours_match_the_ast_reference():
    grammar, rng, sited = default_grammar(), random.Random(3), 0
    for seed in range(1000):
        ph = render_phenotype(sample_ptc2(grammar, max_nodes=rng.randint(20, 600), rng_seed=seed))
        sites, (ref, parsed) = enumerate_sites(ph), reference_sites(ph)
        assert [(s.section, s.param, s.slot, s.value) for s in sites] == [
            (section, param, slot, value) for section, _, param, slot, value in ref
        ]
        ref_of = dict(zip(sites, ref))
        edited = set()
        for n in build_neighborhood(ph, sites, bound=20, seed=seed, per_site=10).neighbors:
            programs = reference_neighbour(ph, parsed, ref_of[n.site], n.value)
            assert n.phenotype.programs == programs
            assert n.digest == phenotype_digest(Phenotype(programs))
            if n.site not in edited:  # with_index builds the edit's AST from the incumbent's
                edited.add(n.site)
                section, path, param = ref_of[n.site][:3]
                expr = with_index(parsed[section], n.site.ordinal, n.value)
                assert expr == parse(programs[section])
                assert_shares_off_path(expr, parsed[section], path, param)
        assert edited == set(sites)
        sited += bool(sites)
    assert sited > 900


SPACED_PROGRAM = " swap_elements( index1 = [ 3 ] ,index2=[5 , 17],\n level=phrase, texts= BASE )+ICL_LIST "


def test_spaced_program_keeps_its_spacing_and_mutates_like_the_ast():
    ph = make_phenotype(icl=SPACED_PROGRAM)
    sites, (ref, parsed) = enumerate_sites(ph), reference_sites(ph)
    assert [(s.param, s.slot, s.value) for s in sites] == [
        ("index1", 0, 3), ("index2", 0, 5), ("index2", 1, 17)
    ]
    assert [(param, slot, value) for _, _, param, slot, value in ref] == [
        (s.param, s.slot, s.value) for s in sites
    ]
    pattern = SPACED_PROGRAM.replace("3", "{}").replace("5", "{}").replace("17", "{}")
    for n in build_neighborhood(ph, sites, bound=30, seed=4, per_site=3).neighbors:
        i = sites.index(n.site)
        digits = [s.value for s in sites]
        digits[i] = n.value
        assert n.phenotype.programs["icl"] == pattern.format(*digits)
        assert parse(n.phenotype.programs["icl"]) == parse(reference_neighbour(ph, parsed, ref[i], n.value)["icl"])


PARSED_ASTS_SHA256 = "5a9099090597a162b1b58cf27be08f8ef028db881d9fd32cf31e9b1e95434ef4"


def test_parsed_asts_are_pinned():
    # Every section program of the 300 phenotypes that
    # test_template.py::test_ptc2_renders_are_pinned renders, each of their
    # neighbours' mutated programs, and a spaced program: a change to any AST
    # the parser builds shows.
    digest = hashlib.sha256()
    programs = [SPACED_PROGRAM]
    for seed in range(300):
        ph = render_phenotype(sample_ptc2(default_grammar(), 1024, seed))
        programs.extend(ph.programs[s] for s in SECTIONS)
        sites = enumerate_sites(ph)
        if sites:
            neighbors = build_neighborhood(ph, sites, bound=20, seed=seed, per_site=1).neighbors
            programs.extend(n.phenotype.programs[n.site.section] for n in neighbors)
    for program in programs:
        digest.update(f"{parse(program)!r}\x1e".encode("utf-8"))
    assert len(programs) == 14468
    assert digest.hexdigest() == PARSED_ASTS_SHA256


def constant_ensemble(value, dim=8):
    models = [[[np.zeros((dim, 1)), np.array([float(value)])]]]
    return SurrogateEnsemble(models, HashingEmbedder(dim=dim))


class LengthEnsemble:
    """Longer prompt text -> higher mean; digit sum -> variance proxy."""

    def predict_many(self, texts):
        means = np.array([float(len(t)) for t in texts])
        variances = np.array([float(sum(map(int, filter(str.isdigit, t)))) for t in texts])
        return means, variances


BASE_TEXT = """== TASK ==
Answer the question about colours and shapes now.
## [Question]
__TASK_INPUT_0__
== ICL ==
## [Examples]
"""


def rendered_neighbors(per_site=10, bound=60):
    base = parse_template(BASE_TEXT)
    ph = make_phenotype(
        task="swap_elements(index1=[0,1], index2=[3], level=word, texts=BASE)",
        cot="NULL",
    )
    sites = enumerate_sites(ph)
    nb = build_neighborhood(ph, sites, bound, seed=3, per_site=per_site)
    ctx, _ = make_task_setup()
    for n in nb.neighbors:
        n.prompt = apply_phenotype(base, n.phenotype, ctx)
    return nb.neighbors


def test_screen_returns_all_when_under_limit():
    neighbors = rendered_neighbors(per_site=5)
    out = screen(neighbors, constant_ensemble(0.5), LocalSearchSettings())
    assert len(out) == len(neighbors)
    assert all(n.mean == pytest.approx(0.5) for n in out)
    assert all(n.variance == pytest.approx(0.0) for n in out)


class PositionEnsemble:
    """Distinct predictions by input position: the mean falls with the
    position, and the variance peaks at `PEAKS`, two of which are mean tops."""

    PEAKS = [3, 4, 20, 25, 29]

    def predict_many(self, texts):
        means = np.arange(len(texts), 0, -1, dtype=float)
        variances = np.arange(len(texts), dtype=float) / len(texts)
        variances[self.PEAKS] += 10.0
        return means, variances


def test_screen_union_of_mean_and_variance_tops():
    neighbors = rendered_neighbors(per_site=10)  # 3 sites x 10 = 30 neighbors
    assert len(neighbors) == 30
    settings = LocalSearchSettings(screen_limit=10, top_mean=5, top_variance=5)
    out = screen(neighbors, PositionEnsemble(), settings)
    assert len(out) == 10
    digests = [n.digest for n in out]
    assert len(set(digests)) == 10
    by_mean = sorted(neighbors, key=lambda n: (-n.mean, n.digest))
    by_var = sorted(neighbors, key=lambda n: (-n.variance, n.digest))
    # The tops share two neighbours, so the backfill adds two by mean rank,
    # and three variance tops lie outside the mean top-10.
    assert len({n.digest for n in by_mean[:5]} & {n.digest for n in by_var[:5]}) == 2
    beyond = {n.digest for n in out} - {n.digest for n in by_mean[:10]}
    assert beyond == {neighbors[i].digest for i in PositionEnsemble.PEAKS[2:]}
    expected = {n.digest for n in by_mean[:5]} | {n.digest for n in by_var[:5]}
    for n in by_mean[5:]:
        if len(expected) >= 10:
            break
        expected.add(n.digest)
    assert set(digests) == expected
    # Output keeps mean-rank order.
    means = [n.mean for n in out]
    assert means == sorted(means, reverse=True)


class TiedRandomEnsemble:
    """Seeded small-integer means and variances, so both rankings have ties."""

    def __init__(self, seed):
        self.seed = seed

    def predict_many(self, texts):
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 6, len(texts)).astype(float), rng.integers(0, 6, len(texts)).astype(float)


def union_and_backfill(neighbors, settings):
    """The screen's former rule, over predicted neighbours: every neighbour
    under the limit, in neighbourhood order; else the union of the `top_mean`
    and `top_variance` tops, backfilled by mean rank to `screen_limit`."""
    if len(neighbors) <= settings.screen_limit:
        return list(neighbors)
    by_mean = sorted(neighbors, key=lambda n: (-n.mean, n.digest))
    by_variance = sorted(neighbors, key=lambda n: (-n.variance, n.digest))
    chosen = {n.digest for n in by_mean[: settings.top_mean] + by_variance[: settings.top_variance]}
    for n in by_mean[settings.top_mean :]:
        if len(chosen) >= settings.screen_limit:
            break
        chosen.add(n.digest)
    return [n for n in by_mean if n.digest in chosen]


def test_screen_is_the_same_for_every_top_mean():
    # The screen takes the variance tops, then mean ranks in order until
    # screen_limit; top_mean + top_variance <= screen_limit, so the former
    # union and backfill stopped at the same mean prefix, whatever top_mean
    # was.  LengthEnsemble ties every neighbour here, so the predictions are
    # drawn at random.
    neighbors = rendered_neighbors(per_site=10)
    by_variance = set()
    for seed in range(40):
        for top_variance in range(11):
            for top_mean in range(11 - top_variance):
                settings = LocalSearchSettings(screen_limit=10, top_mean=top_mean, top_variance=top_variance)
                out = [n.digest for n in screen(neighbors, TiedRandomEnsemble(seed), settings)]
                assert out == [n.digest for n in union_and_backfill(neighbors, settings)]
                # No larger than the limit, the former rule kept neighbourhood order.
                few = neighbors[: seed % 11]
                kept = {n.digest for n in screen(few, TiedRandomEnsemble(seed), settings)}
                assert kept == {n.digest for n in union_and_backfill(few, settings)}
            by_variance.add(tuple(out))
    assert len(by_variance) > 40  # top_variance, unlike top_mean, does change the screen


def test_screen_requires_rendered_prompts():
    base = parse_template(BASE_TEXT)
    ph = make_phenotype(task="remove_element(index=[2], level=word, texts=BASE)")
    nb = build_neighborhood(ph, enumerate_sites(ph), bound=12, seed=0, per_site=10)
    with pytest.raises(ValueError):
        screen(nb.neighbors, constant_ensemble(0.0), LocalSearchSettings())
    assert screen([], constant_ensemble(0.0), LocalSearchSettings()) == []


def make_task_setup():
    train = Dataset(
        rows=[DataRow(id=f"t{i}", input=f"train q {i}", label="yes") for i in range(6)],
    )
    val = Dataset(
        rows=[DataRow(id=f"v{i}", input=f"val q {i}", label="yes") for i in range(4)],
    )
    truth = {r.input: r.label for r in train.rows + val.rows}
    gateway = LlmGateway(LabelOracleBackend(truth))
    return EvalContext(TaskSettings(), gateway, train, lexicons=default_lexicons()), val


def test_finalize_scores_and_ranks():
    ctx, val = make_task_setup()
    base = parse_template(BASE_TEXT)
    ph = identity_phenotype()
    prompt = apply_phenotype(base, ph, ctx)
    from promptgp.localsearch import Candidate

    incumbent = Candidate(ph, prompt, phenotype_digest(ph), is_incumbent=True)
    other_ph = make_phenotype(cot="NULL")
    other_prompt = apply_phenotype(base, other_ph, ctx)
    other = Candidate(other_ph, other_prompt, phenotype_digest(other_ph))

    best, ranked = finalize([other], incumbent, ctx, val.rows, seed=0)
    assert len(ranked) == 2
    for cand in ranked:
        assert cand.f_val == 1.0
        assert cand.f_train == 1.0
        assert cand.combined == 1.0
    # Equal scores: the incumbent wins the tie.
    assert best.is_incumbent


def test_run_local_search_end_to_end():
    ctx, val = make_task_setup()
    base = parse_template(BASE_TEXT)
    ph = make_phenotype(
        task="swap_elements(index1=[0,1], index2=[3], level=word, texts=BASE)",
    )
    result = run_local_search(
        ph,
        base,
        constant_ensemble(0.5),
        ctx,
        val,
        settings=LocalSearchSettings(per_site=4),
        master_seed=13,
    )
    assert result.notice == ""
    assert len(result.sites) == 3
    assert result.bound >= 1
    assert len(result.ranking) == 13  # 3 sites x 4 values + incumbent
    assert result.best.combined == max(c.combined for c in result.ranking)
    assert result.best.combined == 1.0


def test_run_local_search_deterministic():
    ctx, val = make_task_setup()
    base = parse_template(BASE_TEXT)
    ph = make_phenotype(task="remove_element(index=[2], level=word, texts=BASE)")
    kwargs = dict(settings=LocalSearchSettings(per_site=4), master_seed=21)
    r1 = run_local_search(ph, base, constant_ensemble(0.1), ctx, val, **kwargs)
    r2 = run_local_search(ph, base, constant_ensemble(0.1), ctx, val, **kwargs)
    assert [c.digest for c in r1.ranking] == [c.digest for c in r2.ranking]
    assert r1.best.digest == r2.best.digest


def test_run_local_search_no_sites_returns_incumbent():
    ctx, val = make_task_setup()
    base = parse_template(BASE_TEXT)
    result = run_local_search(
        identity_phenotype(),
        base,
        constant_ensemble(0.0),
        ctx,
        val,
        master_seed=0,
    )
    assert result.best.is_incumbent
    assert "no index sites" in result.notice
    assert result.ranking == [result.best]


def test_run_local_search_degenerate_bound_returns_incumbent(monkeypatch):
    from promptgp import localsearch

    # The one site's op edits the context section, which BASE_TEXT lacks: it
    # sees no chunk, so the bound is 0 and no neighbourhood is built.
    monkeypatch.setattr(localsearch, "build_neighborhood", lambda *a, **k: pytest.fail("built"))
    ctx, val = make_task_setup()
    ph = make_phenotype(context="remove_element(index=[1], level=word, texts=BASE)")
    result = run_local_search(ph, parse_template(BASE_TEXT), constant_ensemble(0.0), ctx, val)
    assert result.best.is_incumbent
    assert result.notice == "degenerate chunk bound; incumbent returned"
    assert (result.bound, len(result.sites)) == (0, 1)
    assert result.ranking == [result.best]
    assert result.best.combined is None


def test_run_local_search_parses_only_the_incumbents_programs(monkeypatch):
    from promptgp import localsearch, template

    assert not hasattr(localsearch, "parse")  # sites are read from the text
    parsed = []

    def counting_parse(text, parse=template.parse):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(template, "parse", counting_parse)
    ctx, val = make_task_setup()
    base = parse_template(BASE_TEXT)
    ph = make_phenotype(
        task="swap_elements(index1=[0,1], index2=[3], level=word, texts=BASE)",
        cot="NULL",
    )
    result = run_local_search(
        ph, base, LengthEnsemble(), ctx, val, settings=LocalSearchSettings(per_site=4), master_seed=13
    )
    neighbours = [c for c in result.ranking if not c.is_incumbent]
    assert len(neighbours) == 12  # 3 sites x 4 values, all under the screen limit
    # The incumbent's six programs once, to render it and to build every
    # neighbour's AST from; no neighbour program is parsed.
    assert sorted(parsed) == sorted(ph.programs.values())
    for n in neighbours:
        assert n.prompt == apply_phenotype(base, n.phenotype, make_task_setup()[0])


class ReversingBackend:
    """Answers an edit request with its source's words in reverse order, and
    any other request with no answer.  The first `failures` edit requests
    fail in transport; `sources` lists the source of every edit request."""

    def __init__(self, failures=0):
        self.failures = failures
        self.sources = []

    def send(self, req):
        content = req.last_user_content()
        if not content.startswith(("Paraphrase", "Reduce")):
            return "no answer"
        source = content.split("```\n", 1)[1].rsplit("\n```", 1)[0]
        self.sources.append(source)
        if self.failures:
            self.failures -= 1
            raise TransportError("connection reset")
        return json.dumps({"answer": " ".join(reversed(source.split()))})


def edit_context(backend):
    train = Dataset(rows=[DataRow(id=f"t{i}", input=f"train q {i}", label="yes") for i in range(6)])
    gateway = LlmGateway(backend, max_attempts=1)
    return EvalContext(TaskSettings(), gateway, train, icl_k=0, lexicons=default_lexicons())


def searched_neighbours(monkeypatch, ph, base, ctx, per_site, seed=0):
    """Every neighbour that `run_local_search` renders, taken at its screen,
    which passes none on."""
    from promptgp import localsearch

    seen = []
    monkeypatch.setattr(localsearch, "screen", lambda neighbors, *_: seen.extend(neighbors) or [])
    val = Dataset(rows=[DataRow(id="v0", input="val q 0", label="yes")])
    settings = LocalSearchSettings(per_site=per_site)
    run_local_search(ph, base, constant_ensemble(0.0), ctx, val, settings=settings, master_seed=seed)
    return seen


def assert_render_fresh(base, neighbours):
    """Each neighbour's text and chunk count are a fresh context's render."""
    for n in neighbours:
        assert n.prompt == apply_phenotype(base, n.phenotype, edit_context(ReversingBackend()))


# A site in the first part of the ICL section's Concat; removal queues that
# cross an edited op, both across Concat parts and down one nesting.
EXPLICIT_CASES = {
    "icl": "swap_elements(index1=[1], index2=[3], level=word, texts=BASE)"
    "+duplicate_element(index1=[0], index2=[2], level=word, texts=ICL_LIST)",
    "task": "remove_element(index=[1], level=word, texts=BASE)"
    "+swap_elements(index1=[0], index2=[2], level=word, texts=BASE)"
    "+readd_element(index=[0], level=word, texts=BASE)",
    "persona": "readd_element(index=[2], level=word, texts=paraphrase(index=[0,1], level=word, "
    "texts=remove_element(index=[4], level=word, texts=BASE)))",
}


def test_every_searched_neighbour_renders_as_a_fresh_context_does(monkeypatch):
    base = builtin_template("pubmedqa")
    explicit = make_phenotype(**EXPLICIT_CASES)
    neighbours = searched_neighbours(monkeypatch, explicit, base, edit_context(ReversingBackend()), 4)
    assert {n.site.section for n in neighbours} == set(EXPLICIT_CASES)
    assert any(n.site.section == "icl" and n.site.ordinal < 2 for n in neighbours)
    assert_render_fresh(base, neighbours)
    grammar, rng, checked = default_grammar(), random.Random(17), 0
    for seed in range(5000, 5060):
        ph = render_phenotype(sample_ptc2(grammar, max_nodes=rng.randint(20, 600), rng_seed=seed))
        neighbours = searched_neighbours(monkeypatch, ph, base, edit_context(ReversingBackend()), 3, seed)
        assert_render_fresh(base, neighbours)
        checked += len(neighbours)
    assert checked > 2000


def test_an_edit_degraded_in_the_incumbent_is_retried_by_a_neighbour(monkeypatch):
    backend = ReversingBackend(failures=1)
    ctx = edit_context(backend)
    base = parse_template(BASE_TEXT)
    ph = make_phenotype(
        task="remove_element(index=[1], level=word, texts=paraphrase(index=[0], level=sentence, texts=BASE))"
    )
    neighbours = searched_neighbours(monkeypatch, ph, base, ctx, 3)
    assert ctx.degraded == {"paraphrase": 1}
    assert backend.sources.count(backend.sources[0]) == 2  # failed, then retried once
    assert_render_fresh(base, neighbours)


def test_a_neighbour_edited_above_an_llm_edit_does_not_ask_for_it(monkeypatch):
    from promptgp import editops, localsearch

    rendering, asked = [], []
    apply, paraphrase = localsearch.apply_phenotype, editops.paraphrase_call

    def tracking_apply(base, ph, ctx, *record):
        rendering.append(ph.programs["task"])
        return apply(base, ph, ctx, *record)

    def tracking_paraphrase(gateway, text, model):
        asked.append(rendering[-1])
        return paraphrase(gateway, text, model=model)

    monkeypatch.setattr(localsearch, "apply_phenotype", tracking_apply)
    monkeypatch.setattr(editops, "paraphrase_call", tracking_paraphrase)
    base = parse_template(BASE_TEXT)
    ph = make_phenotype(
        task="remove_element(index=[1], level=word, texts=paraphrase(index=[0], level=sentence, texts=BASE))"
    )
    neighbours = searched_neighbours(monkeypatch, ph, base, edit_context(ReversingBackend()), 3)
    above = {n.phenotype.programs["task"] for n in neighbours if n.site.ordinal == 0}
    on_it = {n.phenotype.programs["task"] for n in neighbours if n.site.ordinal == 1}
    assert len(above) == len(on_it) == 3
    assert asked.count(ph.programs["task"]) == 1  # the incumbent's render
    assert not above & set(asked)
    assert on_it <= set(asked)
    assert_render_fresh(base, neighbours)


def ast_nodes(expr):
    """`expr` and every node under it."""
    yield expr
    children = expr.parts if isinstance(expr, Concat) else (expr.texts,) if isinstance(expr, Call) else ()
    for child in children:
        yield from ast_nodes(child)


def test_neighbour_renders_keep_no_outcome_of_a_node_only_a_neighbour_holds(monkeypatch):
    ctx = edit_context(ReversingBackend())
    ph = make_phenotype(**EXPLICIT_CASES)
    neighbours = searched_neighbours(monkeypatch, ph, builtin_template("pubmedqa"), ctx, 4)
    assert len(neighbours) > 20
    # The parse memo holds the incumbent's six ASTs and nothing else.
    assert sorted(program for _, _, program in ctx._asts) == sorted(ph.programs.values())
    held = {id(node) for ast in ctx._asts.values() for node in ast_nodes(ast)}
    kept = [outcome[0] for outcome in ctx._outcomes.values()]
    assert kept and all(id(node) in held for node in kept)
