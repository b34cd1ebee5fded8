"""`cli` reads no field of a journal record or a checkpoint: `EvalJournal`
and `EvolutionEngine.restore` own both formats.  This parses `cli.py` and
fails on any subscript, `.get` or `in` test with one of those fields' keys;
writing a dict with such a key stays allowed."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "promptgp" / "cli.py"

RECORD_KEYS = {"split", "sample", "journal_lines", "elite", "population", "next_generation", "genotype"}


def _key(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in RECORD_KEYS


def field_reads(source: str) -> list[tuple[str, int]]:
    """(key, line) of each read of a record or checkpoint field in `source`."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _key(node.slice):
            reads.append((node.slice.value, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and _key(node.args[0])
        ):
            reads.append((node.args[0].value, node.lineno))
        elif isinstance(node, ast.Compare) and _key(node.left):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                reads.append((node.left.value, node.lineno))
    return sorted(reads, key=lambda read: (read[1], read[0]))


def test_the_guard_sees_each_kind_of_read():
    source = """
def f(state, record, stats):
    state["elite"]
    state["elite"]["genotype"]
    record.get("split")
    "sample" not in record
    "journal_lines" in state
    stats["local_search"] = {"genotype": [], "elite": None}
    stats["population"] = 1
    record.get("prompt")
    record["fitness"]
"""
    assert field_reads(source) == [
        ("elite", 3),
        ("elite", 4),
        ("genotype", 4),
        ("split", 5),
        ("sample", 6),
        ("journal_lines", 7),
    ]


def test_cli_reads_no_journal_or_checkpoint_field():
    assert field_reads(CLI.read_text(encoding="utf-8")) == []
