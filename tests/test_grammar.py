import random

import pytest

from promptgp import SECTIONS
from promptgp.exprlang import parse, render
from promptgp.grammar import (
    DecodeError,
    GrammarError,
    Sym,
    crossover,
    decode,
    default_grammar,
    encode,
    load_grammar,
    mutate,
    render_phenotype,
    sample_ptc2,
)

G = default_grammar()


def test_default_grammar_shape():
    assert G.start_symbol == "prompt"
    assert len(G.productions) == 33
    assert G.min_size("prompt") == 20.0
    symbols = {s for alts in G.productions.values() for alt in alts for s in alt}
    for terminal in ("BASE", "NULL", "ICL_LIST", "word", "sentence"):
        assert Sym(terminal, terminal=True) in symbols


def test_section_roots_follow_fixed_order():
    first_alt = G.productions["prompt"][0]
    assert [s.name for s in first_alt] == [
        "sec_persona",
        "sec_task",
        "sec_output",
        "sec_icl",
        "sec_context",
        "sec_cot",
    ]


def test_task_section_has_no_null_alternative():
    task_alts = G.productions["sec_task"]
    names = {s.name for alt in task_alts for s in alt}
    assert "null_string" not in names
    for section in ("sec_persona", "sec_output", "sec_icl", "sec_context", "sec_cot"):
        names = {s.name for alt in G.productions[section] for s in alt}
        assert "null_string" in names


def test_load_grammar_error_paths():
    with pytest.raises(GrammarError):
        load_grammar("a ::= b\n")  # undefined symbol
    with pytest.raises(GrammarError):
        load_grammar("not a rule line\n")
    with pytest.raises(GrammarError):
        load_grammar("a ::= 'x'\na ::= 'y'\n")  # duplicate
    with pytest.raises(GrammarError):
        load_grammar("a ::= 'x' |\n")  # empty alternative
    with pytest.raises(GrammarError):
        load_grammar("a ::= 'unterminated\n")
    with pytest.raises(GrammarError):
        load_grammar("")


def test_load_grammar_comments_and_quoted_hash():
    g = load_grammar("# header\nroot ::= 'lit#eral'  # trailing\n")
    assert g.productions["root"][0][0].name == "lit#eral"


def test_minimal_budget_forces_null_heavy_prompt():
    tree = sample_ptc2(G, max_nodes=20, rng_seed=7)
    assert tree.node_count == 20
    ph = render_phenotype(tree)
    assert ph.programs == {
        "persona": "NULL",
        "task": "BASE",
        "output": "NULL",
        "icl": "NULL",
        "context": "NULL",
        "cot": "NULL",
    }


def test_sample_ptc2_deterministic():
    a = sample_ptc2(G, max_nodes=300, rng_seed=123)
    b = sample_ptc2(G, max_nodes=300, rng_seed=123)
    c = sample_ptc2(G, max_nodes=300, rng_seed=124)
    assert encode(a) == encode(b)
    assert encode(a) != encode(c)


def test_sample_ptc2_respects_budget_and_renders_parseable_programs():
    for seed in range(40):
        tree = sample_ptc2(G, max_nodes=200, rng_seed=seed)
        assert tree.node_count <= 200
        ph = render_phenotype(tree)
        assert set(ph.programs) == set(SECTIONS)
        for program in ph.programs.values():
            assert render(parse(program)) == program


def test_budget_below_minimum_rejected():
    from promptgp.grammar import BudgetError

    with pytest.raises(BudgetError):
        sample_ptc2(G, max_nodes=19, rng_seed=0)


def test_encode_decode_bijection():
    for seed in range(60):
        tree = sample_ptc2(G, max_nodes=250, rng_seed=seed)
        genotype = encode(tree)
        rebuilt = decode(G, genotype)
        assert encode(rebuilt) == genotype
        assert rebuilt.node_count == tree.node_count
        assert render_phenotype(rebuilt).programs == render_phenotype(tree).programs


def test_decode_rejects_bad_genotypes():
    tree = sample_ptc2(G, max_nodes=100, rng_seed=5)
    genotype = list(encode(tree))
    with pytest.raises(DecodeError):
        decode(G, genotype[:-1])  # truncated
    with pytest.raises(DecodeError):
        decode(G, genotype + [0])  # trailing choices
    bad = list(genotype)
    bad[0] = 99
    with pytest.raises(DecodeError):
        decode(G, bad)


def test_crossover_deterministic_and_within_budget():
    a = sample_ptc2(G, max_nodes=200, rng_seed=1)
    b = sample_ptc2(G, max_nodes=200, rng_seed=2)
    c1, c2 = crossover(a, b, rng_seed=9, max_nodes=1024)
    d1, d2 = crossover(a, b, rng_seed=9, max_nodes=1024)
    assert encode(c1) == encode(d1) and encode(c2) == encode(d2)
    assert c1.node_count <= 1024 and c2.node_count <= 1024
    for child in (c1, c2):
        for program in render_phenotype(child).programs.values():
            parse(program)
    # Parents are untouched.
    assert encode(a) == encode(sample_ptc2(G, max_nodes=200, rng_seed=1))


def test_crossover_budget_violation_returns_parent_copy():
    small = sample_ptc2(G, max_nodes=20, rng_seed=3)
    big = sample_ptc2(G, max_nodes=400, rng_seed=4)
    assert big.node_count > 20
    for seed in range(10):
        c1, c2 = crossover(small, big, rng_seed=seed, max_nodes=small.node_count)
        # Any child that would exceed the budget reverts to its own parent,
        # so the small parent's child can never grow.
        assert c1.node_count <= small.node_count or encode(c1) == encode(small)
        assert c2.node_count <= small.node_count or encode(c2) == encode(big)


def test_mutate_deterministic_and_within_budget():
    tree = sample_ptc2(G, max_nodes=200, rng_seed=11)
    m1 = mutate(tree, max_nodes=1024, rng_seed=21)
    m2 = mutate(tree, max_nodes=1024, rng_seed=21)
    assert encode(m1) == encode(m2)
    assert m1.node_count <= 1024
    for program in render_phenotype(m1).programs.values():
        parse(program)
    assert encode(tree) == encode(sample_ptc2(G, max_nodes=200, rng_seed=11))


def test_mutate_at_exact_budget_cannot_grow():
    tree = sample_ptc2(G, max_nodes=20, rng_seed=6)
    for seed in range(10):
        assert mutate(tree, max_nodes=20, rng_seed=seed).node_count <= 20


def test_mutation_eventually_changes_tree():
    tree = sample_ptc2(G, max_nodes=150, rng_seed=13)
    changed = any(
        encode(mutate(tree, max_nodes=1024, rng_seed=s)) != encode(tree) for s in range(20)
    )
    assert changed


def test_variation_closure_bulk():
    rng = random.Random(0)
    trees = [sample_ptc2(G, max_nodes=300, rng_seed=s) for s in range(30)]
    for _ in range(100):
        a, b = rng.sample(trees, 2)
        c1, c2 = crossover(a, b, rng_seed=rng.randrange(2**32), max_nodes=1024)
        m = mutate(c1, max_nodes=1024, rng_seed=rng.randrange(2**32))
        for t in (c1, c2, m):
            assert t.node_count <= 1024
            for program in render_phenotype(t).programs.values():
                parse(program)
        trees[rng.randrange(len(trees))] = m
