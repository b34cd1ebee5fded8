"""Context-free grammar engine: loading, PTC2 sampling, serialization,
subtree crossover/mutation, and phenotype rendering.

Genotypes are serialized derivation trees: one choice integer per
nonterminal expansion in depth-first pre-order.  Variation operates on
trees and reserializes, so every genotype in circulation decodes to a
valid derivation.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator, Optional, Sequence

from . import SECTIONS

Genotype = tuple[int, ...]


class GrammarError(ValueError):
    pass


class BudgetError(GrammarError):
    """No fully expanded derivation fits the node budget."""


class DecodeError(GrammarError):
    pass


class MalformedTreeError(GrammarError):
    pass


@dataclass(frozen=True)
class Sym:
    name: str
    terminal: bool


class Grammar:
    """Productions plus precomputed minimal completion sizes."""

    def __init__(self, productions: dict[str, list[tuple[Sym, ...]]], start_symbol: str):
        self.productions = productions
        self.start_symbol = start_symbol
        self.terminals: set[str] = {
            s.name for alts in productions.values() for alt in alts for s in alt if s.terminal
        }
        self._min_size = self._compute_min_sizes()

    def _compute_min_sizes(self) -> dict[str, float]:
        sizes = {nt: math.inf for nt in self.productions}
        changed = True
        while changed:
            changed = False
            for nt, alts in self.productions.items():
                best = sizes[nt]
                for alt in alts:
                    cost = 1.0
                    for s in alt:
                        cost += 1 if s.terminal else sizes[s.name]
                    if cost < best:
                        best = cost
                if best < sizes[nt]:
                    sizes[nt] = best
                    changed = True
        return sizes

    def min_size(self, symbol: str) -> float:
        """Minimal node count of a full expansion rooted at `symbol`."""
        return self._min_size[symbol]

    def alt_cost(self, symbol: str, alt_index: int) -> float:
        """Minimal node count added by expanding `symbol` with one alternative."""
        cost = 0.0
        for s in self.productions[symbol][alt_index]:
            cost += 1 if s.terminal else self._min_size[s.name]
        return cost


_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _strip_comment(line: str) -> str:
    quoted = False
    for i, ch in enumerate(line):
        if ch == "'":
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _parse_rhs(rhs: str, name: str, lineno: int) -> list[tuple[Sym, ...]]:
    alts: list[tuple[Sym, ...]] = []
    cur: list[Sym] = []

    def close_alternative() -> None:
        if not cur:
            raise GrammarError(f"line {lineno}: empty alternative in rule '{name}'")
        alts.append(tuple(cur))
        cur.clear()

    i = 0
    while i < len(rhs):
        ch = rhs[i]
        if ch.isspace():
            i += 1
        elif ch == "|":
            close_alternative()
            i += 1
        elif ch == "'":
            end = rhs.find("'", i + 1)
            if end < 0:
                raise GrammarError(f"line {lineno}: unterminated terminal in rule '{name}'")
            literal = rhs[i + 1 : end]
            if literal == "":
                raise GrammarError(f"line {lineno}: empty terminal in rule '{name}'")
            cur.append(Sym(literal, True))
            i = end + 1
        else:
            m = re.match(r"[^\s|']+", rhs[i:])
            token = m.group(0)
            if not _SYMBOL_RE.match(token):
                raise GrammarError(f"line {lineno}: bad symbol {token!r} in rule '{name}'")
            cur.append(Sym(token, False))
            i += len(token)
    close_alternative()
    return alts


def load_grammar(text: str) -> Grammar:
    """Parse a rule file: one `name ::= alt | alt` per line, '#' comments."""
    productions: dict[str, list[tuple[Sym, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "::=" not in line:
            raise GrammarError(f"line {lineno}: missing '::='")
        lhs, _, rhs = line.partition("::=")
        name = lhs.strip()
        if not _SYMBOL_RE.match(name):
            raise GrammarError(f"line {lineno}: bad rule name {lhs.strip()!r}")
        if name in productions:
            raise GrammarError(f"line {lineno}: duplicate definition of '{name}'")
        productions[name] = _parse_rhs(rhs, name, lineno)
    if not productions:
        raise GrammarError("grammar file defines no rules")
    for name, alts in productions.items():
        for alt in alts:
            for s in alt:
                if not s.terminal and s.name not in productions:
                    raise GrammarError(f"undefined symbol '{s.name}' used in rule '{name}'")
    return Grammar(productions, start_symbol=next(iter(productions)))


def default_grammar_text() -> str:
    return resources.files("promptgp").joinpath("data", "edit_grammar.bnf").read_text(encoding="utf-8")


def default_grammar() -> Grammar:
    return load_grammar(default_grammar_text())


@dataclass
class Node:
    symbol: str
    terminal: bool
    choice: Optional[int] = None
    children: list["Node"] = field(default_factory=list)


def copy_node(node: Node) -> Node:
    return Node(node.symbol, node.terminal, node.choice, [copy_node(c) for c in node.children])


def count_nodes(node: Node) -> int:
    return 1 + sum(count_nodes(c) for c in node.children)


def iter_nodes(node: Node) -> Iterator[Node]:
    yield node
    for child in node.children:
        yield from iter_nodes(child)


def iter_nodes_with_paths(
    node: Node, path: tuple[int, ...] = ()
) -> Iterator[tuple[Node, tuple[int, ...]]]:
    yield node, path
    for i, child in enumerate(node.children):
        yield from iter_nodes_with_paths(child, path + (i,))


@dataclass
class DerivationTree:
    grammar: Grammar
    root: Node

    @property
    def node_count(self) -> int:
        return count_nodes(self.root)

    def copy(self) -> "DerivationTree":
        return DerivationTree(self.grammar, copy_node(self.root))


@dataclass
class Phenotype:
    """One edit-program text per section."""

    programs: dict[str, str]


def _grow(grammar: Grammar, max_nodes: int, rng: random.Random, start_symbol: str) -> Node:
    """PTC2: size-budgeted random derivation.

    A goal size is drawn uniformly from [minimal size, max_nodes].  The
    frontier of unexpanded nonterminals is consumed in random order; while
    the guaranteed-minimum finished size is below the goal a random
    budget-feasible growing alternative is taken, afterwards a random
    minimal one.  The accounting keeps `current size + minimal completion`
    within max_nodes at every step, so the budget can never be exceeded.
    """
    start_min = grammar.min_size(start_symbol)
    if not start_min <= max_nodes:
        raise BudgetError(
            f"symbol '{start_symbol}' needs at least {start_min} nodes, budget is {max_nodes}"
        )
    goal = rng.randint(int(start_min), max_nodes)
    root = Node(start_symbol, False)
    frontier = [root]
    size = 1
    pending = start_min - 1  # minimal extra nodes owed to the rest of the frontier
    while frontier:
        node = frontier.pop(rng.randrange(len(frontier)))
        pending -= grammar.min_size(node.symbol) - 1
        alts = grammar.productions[node.symbol]
        costs = [grammar.alt_cost(node.symbol, k) for k in range(len(alts))]
        feasible = [
            k for k, c in enumerate(costs) if math.isfinite(c) and size + c + pending <= max_nodes
        ]
        if not feasible:
            raise BudgetError(f"no feasible alternative for '{node.symbol}'")
        min_cost = min(costs[k] for k in feasible)
        minimal = [k for k in feasible if costs[k] == min_cost]
        growing = [k for k in feasible if costs[k] > min_cost]
        if growing and size + pending < goal:
            choice = growing[rng.randrange(len(growing))]
        else:
            choice = minimal[rng.randrange(len(minimal))]
        node.choice = choice
        for sym in alts[choice]:
            child = Node(sym.name, sym.terminal)
            node.children.append(child)
            size += 1
            if not sym.terminal:
                frontier.append(child)
                pending += grammar.min_size(sym.name) - 1
    return root


def sample_ptc2(
    grammar: Grammar, max_nodes: int, rng_seed: int, start_symbol: Optional[str] = None
) -> DerivationTree:
    rng = random.Random(rng_seed)
    root = _grow(grammar, max_nodes, rng, start_symbol or grammar.start_symbol)
    return DerivationTree(grammar, root)


def encode(tree: DerivationTree) -> Genotype:
    """Depth-first pre-order choice list."""
    choices = []
    for node in iter_nodes(tree.root):
        if not node.terminal:
            choices.append(node.choice)
    return tuple(choices)


def decode(grammar: Grammar, genotype: Sequence[int]) -> DerivationTree:
    pos = 0

    def build(symbol: str) -> Node:
        nonlocal pos
        alts = grammar.productions[symbol]
        if pos >= len(genotype):
            raise DecodeError(f"genotype exhausted while expanding '{symbol}'")
        choice = genotype[pos]
        if not 0 <= choice < len(alts):
            raise DecodeError(
                f"choice {choice} at position {pos} out of range for '{symbol}' "
                f"({len(alts)} alternatives)"
            )
        pos += 1
        node = Node(symbol, False, choice)
        for sym in alts[choice]:
            if sym.terminal:
                node.children.append(Node(sym.name, True))
            else:
                node.children.append(build(sym.name))
        return node

    root = build(grammar.start_symbol)
    if pos != len(genotype):
        raise DecodeError(f"{len(genotype) - pos} unconsumed choices after a full derivation")
    return DerivationTree(grammar, root)


def _replace_at(node: Node, path: tuple[int, ...], replacement: Node) -> Node:
    """Fresh copy of `node` with the subtree at `path` replaced."""
    if not path:
        return replacement
    children = []
    for i, child in enumerate(node.children):
        if i == path[0]:
            children.append(_replace_at(child, path[1:], replacement))
        else:
            children.append(copy_node(child))
    return Node(node.symbol, node.terminal, node.choice, children)


def _nonterminal_sites(tree: DerivationTree) -> list[tuple[Node, tuple[int, ...]]]:
    return [(n, p) for n, p in iter_nodes_with_paths(tree.root) if not n.terminal]


def crossover(
    a: DerivationTree, b: DerivationTree, rng_seed: int, max_nodes: int = 1024
) -> tuple[DerivationTree, DerivationTree]:
    """Swap subtrees rooted at a common nonterminal symbol.

    The symbol is chosen uniformly over symbols present in both trees, then
    one node per parent uniformly among that symbol's occurrences.  An
    offspring exceeding max_nodes is replaced by its own parent.
    """
    if a.grammar is not b.grammar and a.grammar.productions != b.grammar.productions:
        raise GrammarError("crossover requires trees from the same grammar")
    rng = random.Random(rng_seed)
    sites_a = _nonterminal_sites(a)
    sites_b = _nonterminal_sites(b)
    common = sorted({n.symbol for n, _ in sites_a} & {n.symbol for n, _ in sites_b})
    if not common:
        return a.copy(), b.copy()
    symbol = common[rng.randrange(len(common))]
    cands_a = [(n, p) for n, p in sites_a if n.symbol == symbol]
    cands_b = [(n, p) for n, p in sites_b if n.symbol == symbol]
    node_a, path_a = cands_a[rng.randrange(len(cands_a))]
    node_b, path_b = cands_b[rng.randrange(len(cands_b))]
    child1 = DerivationTree(a.grammar, _replace_at(a.root, path_a, copy_node(node_b)))
    child2 = DerivationTree(b.grammar, _replace_at(b.root, path_b, copy_node(node_a)))
    if child1.node_count > max_nodes:
        child1 = a.copy()
    if child2.node_count > max_nodes:
        child2 = b.copy()
    return child1, child2


def mutate(tree: DerivationTree, max_nodes: int, rng_seed: int) -> DerivationTree:
    """Regrow one uniformly chosen nonterminal subtree within the budget."""
    rng = random.Random(rng_seed)
    sites = _nonterminal_sites(tree)
    node, path = sites[rng.randrange(len(sites))]
    budget = max_nodes - (tree.node_count - count_nodes(node))
    try:
        regrown = _grow(tree.grammar, budget, rng, node.symbol)
    except BudgetError:
        return tree.copy()
    return DerivationTree(tree.grammar, _replace_at(tree.root, path, regrown))


def _collect_terminals(node: Node) -> str:
    if node.terminal:
        return node.symbol
    return "".join(_collect_terminals(c) for c in node.children)


def render_phenotype(tree: DerivationTree) -> Phenotype:
    """Per-section program texts from a full derivation.

    The root's nonterminal children are the section roots, in the fixed
    section order; each section program is the concatenation of its
    terminal leaves.
    """
    section_roots = [c for c in tree.root.children if not c.terminal]
    if len(section_roots) != len(SECTIONS):
        raise MalformedTreeError(
            f"expected {len(SECTIONS)} section roots, found {len(section_roots)}"
        )
    programs = {
        section: _collect_terminals(node) for section, node in zip(SECTIONS, section_roots)
    }
    return Phenotype(programs)
