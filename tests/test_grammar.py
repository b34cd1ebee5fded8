import hashlib
import math
import random

import pytest

from promptgp import SECTIONS
from helpers import render_program
from promptgp.exprlang import parse
from promptgp.grammar import (
    BudgetError,
    DecodeError,
    DerivationTree,
    GrammarError,
    Node,
    Sym,
    crossover,
    decode,
    default_grammar,
    _collect_terminals,
    _grow,
    _nonterminal_sites,
    count_nodes,
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


def test_load_grammar_keeps_a_unicode_line_break_inside_a_terminal():
    g = load_grammar("root ::= 'a\u2028b' | other\nother ::= 'c'\n")
    assert g.productions["root"][0][0].name == "a\u2028b"


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
            # Parsed and printed back in the grammar's canonical spelling,
            # the program is unchanged, so no whitespace sits between tokens.
            assert render_program(parse(program)) == program


def test_budget_below_minimum_rejected():
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
        assert c2.node_count <= small.node_count or c2 is big


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


def variation_chain():
    """Fixed-seed PTC2 samples, then crossover + mutate steps over a pool
    that keeps offspring, so later trees share subtrees with earlier ones.
    Yields every tree made, in order."""
    rng = random.Random(2024)
    pool = [sample_ptc2(G, max_nodes=rng.randint(20, 300), rng_seed=s) for s in range(50)]
    yield from pool
    for _ in range(200):
        a, b = rng.sample(pool, 2)
        c1, c2 = crossover(a, b, rng_seed=rng.randrange(2**63), max_nodes=400)
        m = mutate(c1, max_nodes=400, rng_seed=rng.randrange(2**63))
        yield from (c1, c2, m)
        pool[rng.randrange(len(pool))] = m
        pool[rng.randrange(len(pool))] = c2


def test_variation_chain_digest_is_pinned():
    # Pins every RNG draw of sampling and variation: any change to which
    # nodes are chosen or grown changes a genotype or phenotype here.
    h = hashlib.sha256()
    for tree in variation_chain():
        programs = render_phenotype(tree).programs
        h.update(repr(encode(tree)).encode())
        h.update("\x1e".join(programs[s] for s in SECTIONS).encode())
    assert h.hexdigest() == "102edbe0a4b5f969ce5dec3512dff091eb82cce711cbf2bc357f694f203b1287"


def test_shared_subtrees_keep_every_recorded_genotype_and_phenotype():
    made = [(t, encode(t), render_phenotype(t).programs) for t in variation_chain()]
    for tree, genotype, programs in made:
        assert encode(tree) == genotype
        assert render_phenotype(tree).programs == programs


def iter_nodes(node):
    """Every node of the subtree at `node`, in depth-first pre-order, off
    an explicit stack as the walks in grammar.py go."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack += node.children[::-1]


# The recursive definitions that the iterative walks replace.


def iter_nodes_with_paths(node, path=()):
    yield node, path
    for i, child in enumerate(node.children):
        yield from iter_nodes_with_paths(child, path + (i,))


def reference_iter_nodes(node):
    yield node
    for child in node.children:
        yield from reference_iter_nodes(child)


def reference_count_nodes(node):
    return 1 + sum(reference_count_nodes(c) for c in node.children)


def reference_collect_terminals(node):
    if node.terminal:
        return node.symbol
    return "".join(reference_collect_terminals(c) for c in node.children)


def walked_trees():
    """PTC2 samples, their variation offspring, and crossovers of a tree
    with itself, in which one node object sits at two paths."""
    rng = random.Random(17)
    samples = [sample_ptc2(G, max_nodes=rng.randint(20, 1024), rng_seed=s) for s in range(30)]
    yield from samples
    for tree in samples:
        yield from crossover(tree, tree, rng_seed=rng.randrange(2**63), max_nodes=2048)
        yield mutate(tree, max_nodes=1024, rng_seed=rng.randrange(2**63))


def test_iterative_walks_match_the_recursive_definitions():
    shared = 0
    for tree in walked_trees():
        nodes = list(reference_iter_nodes(tree.root))
        assert [id(n) for n in iter_nodes(tree.root)] == [id(n) for n in nodes]
        shared += len({id(n) for n in nodes}) < len(nodes)
        for node in nodes:
            assert count_nodes(node) == reference_count_nodes(node)
            assert _collect_terminals(node) == reference_collect_terminals(node)
        assert encode(tree) == tuple(n.choice for n in nodes if not n.terminal)
        sites = [(n, p) for n, p in iter_nodes_with_paths(tree.root) if not n.terminal]
        walked = _nonterminal_sites(tree)
        assert [(id(n), p) for n, p in walked] == [(id(n), p) for n, p in sites]
    assert shared  # some self-crossover placed one node at two paths


def graft_path(child, donor):
    """Path of the topmost node of `child` that is one of `donor`'s own nodes."""
    donor_ids = {id(n) for n in iter_nodes(donor.root)}
    return next((p for n, p in iter_nodes_with_paths(child.root) if id(n) in donor_ids), None)


def regrown_path(child, parent):
    """Path of the topmost subtree of `child` that holds none of `parent`'s nodes."""
    parent_ids = {id(n) for n in iter_nodes(parent.root)}
    for node, path in iter_nodes_with_paths(child.root):
        if all(id(n) not in parent_ids for n in iter_nodes(node)):
            return path


def assert_rebuilt_only_along(child, parent, path):
    """Nodes on `path` are new; every child off it is the parent's own object."""
    new, old = child.root, parent.root
    for i in path:
        assert new is not old
        for j, (c, o) in enumerate(zip(new.children, old.children)):
            if j != i:
                assert c is o
        new, old = new.children[i], old.children[i]


def test_variation_shares_the_subtrees_it_leaves_alone():
    for seed in range(10):
        a = sample_ptc2(G, max_nodes=200, rng_seed=seed)
        b = sample_ptc2(G, max_nodes=200, rng_seed=seed + 100)
        c1, c2 = crossover(a, b, rng_seed=seed, max_nodes=1024)
        for child, parent, donor in ((c1, a, b), (c2, b, a)):
            path = graft_path(child, donor)
            assert path
            assert_rebuilt_only_along(child, parent, path)
        m = mutate(a, max_nodes=1024, rng_seed=seed)
        path = regrown_path(m, a)
        assert path
        assert_rebuilt_only_along(m, a, path)


# The loop that `_grow`'s expansion tables replace: it rebuilds every
# alternative's cost at each frontier pop.


def reference_alt_cost(grammar, symbol, alt_index):
    cost = 0.0
    for s in grammar.productions[symbol][alt_index]:
        cost += 1 if s.terminal else grammar.min_size(s.name)
    return cost


def reference_grow(grammar, max_nodes, rng, start_symbol):
    start_min = grammar.min_size(start_symbol)
    if not start_min <= max_nodes:
        raise BudgetError(start_symbol)
    goal = rng.randint(int(start_min), max_nodes)
    root = Node(start_symbol, False)
    frontier = [root]
    size = 1
    pending = start_min - 1
    while frontier:
        node = frontier.pop(rng.randrange(len(frontier)))
        pending -= grammar.min_size(node.symbol) - 1
        alts = grammar.productions[node.symbol]
        costs = [reference_alt_cost(grammar, node.symbol, k) for k in range(len(alts))]
        feasible = [
            k for k, c in enumerate(costs) if math.isfinite(c) and size + c + pending <= max_nodes
        ]
        if not feasible:
            raise BudgetError(node.symbol)
        min_cost = min(costs[k] for k in feasible)
        minimal = [k for k in feasible if costs[k] == min_cost]
        growing = [k for k in feasible if costs[k] > min_cost]
        if growing and size + pending < goal:
            choice = growing[rng.randrange(len(growing))]
        else:
            choice = minimal[rng.randrange(len(minimal))]
        node.choice = choice
        node.children = tuple(Node(sym.name, sym.terminal) for sym in alts[choice])
        size += len(node.children)
        for child in node.children:
            if not child.terminal:
                frontier.append(child)
                pending += grammar.min_size(child.symbol) - 1
    return root


def grown(grow, grammar, budget, seed, symbol):
    """(genotype or None if the budget is refused, RNG state after growing)."""
    rng = random.Random(seed)
    try:
        root = grow(grammar, budget, rng, symbol)
    except BudgetError:
        return None, rng.getstate()
    return encode(DerivationTree(grammar, root)), rng.getstate()


def assert_grows_like_reference(grammar, budgets_of, seeds):
    for symbol in grammar.productions:
        for budget in budgets_of(symbol):
            for seed in seeds:
                expected = grown(reference_grow, grammar, budget, seed, symbol)
                assert grown(_grow, grammar, budget, seed, symbol) == expected, (symbol, budget, seed)


def test_table_driven_grow_matches_the_reference_loop():
    # Every nonterminal as the start symbol, since `mutate` regrows any
    # subtree, on budgets from just below its minimum up to 1024.
    rng = random.Random(7)

    def budgets_of(symbol):
        least = int(G.min_size(symbol))
        spread = [rng.randint(least, 1024) for _ in range(8)]
        return sorted({least - 1, least, least + 1, least + 2, least + 5, *spread, 1024})

    assert_grows_like_reference(G, budgets_of, seeds=range(4))


def test_table_driven_grow_matches_the_reference_on_unproductive_alternatives():
    # `loop` never finishes, so `a`'s first alternative has infinite cost
    # and `c` has two costs above its least.
    grammar = load_grammar(
        "a ::= loop | 'x' c | c c\nloop ::= loop 'y'\nc ::= 'z' | c 'z' | 'w' c c | a\n"
    )
    assert math.isinf(grammar.min_size("loop"))
    assert_grows_like_reference(grammar, lambda symbol: range(0, 40), seeds=range(5))
