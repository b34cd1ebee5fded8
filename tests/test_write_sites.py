"""Every file write in the package goes through one of the two writers in
`gateway`: `write_atomic` replaces a whole file, `append_line` appends a
record.  This parses the package source and fails on any other write."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "promptgp"

# (module, function) allowed to make each kind of write
OWNERS = {
    "write-mode open": ("gateway", "write_atomic"),
    "os.replace": ("gateway", "write_atomic"),
    "os.open": ("gateway", "append_line"),
}


def _open_mode(call: ast.Call, position: int):
    """The mode argument of an open call: a string, "r" when left out, or
    None when it is not a literal."""
    mode = call.args[position] if len(call.args) > position else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _write_kind(node: ast.AST):
    """What kind of file write `node` is, or None if it writes no file."""
    if isinstance(node, ast.ImportFrom) and node.module in ("json", "os"):
        names = {alias.name for alias in node.names} & {"dump", "replace", "open"}
        return f"from {node.module} import {', '.join(sorted(names))}" if names else None
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _open_mode(node, 1)
    elif isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if (owner, func.attr) in (("json", "dump"), ("os", "replace"), ("os", "open")):
            return f"{owner}.{func.attr}"
        if func.attr in ("write_text", "write_bytes"):
            return func.attr
        if func.attr != "open":
            return None
        mode = _open_mode(node, 1 if owner == "io" else 0)  # io.open(path, mode), path.open(mode)
    else:
        return None
    if mode is not None and not set(mode) & set("wax+"):
        return None
    return "write-mode open"


def write_sites(source: str, module: str) -> list[tuple[str, str, int]]:
    """(kind, enclosing function, line) of each write in `source` that its
    kind's owner does not make."""
    sites = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            kind = _write_kind(child)
            if kind is not None and OWNERS.get(kind) != (module, function):
                sites.append((kind, function, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(ast.parse(source), "<module>")
    return sites


def test_the_guard_sees_each_kind_of_write():
    source = """
import json, os
from os import replace
def f(path, fh, mode):
    open(path, "w")
    open(path, mode=mode)
    io.open(path, "a")
    path.open("wb")
    path.write_text("x")
    json.dump({}, fh)
    os.replace(path, path)
    os.open(path, os.O_WRONLY)
    open(path)
    open(path, "rb")
    path.open()
"""
    kinds = [kind for kind, _, _ in write_sites(source, "cli")]
    assert kinds == [
        "from os import replace",
        "write-mode open",
        "write-mode open",
        "write-mode open",
        "write-mode open",
        "write_text",
        "json.dump",
        "os.replace",
        "os.open",
    ]
    # each owner may make its own writes, and only in its own module
    owned = "def write_atomic(p, t):\n    open(p, 'w')\n    os.replace(p, p)\n    os.open(p, 0)\n"
    assert write_sites(owned, "gateway") == [("os.open", "write_atomic", 4)]
    assert len(write_sites(owned, "cli")) == 3


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_writes_files_only_through_the_gateway_writers(path):
    assert write_sites(path.read_text(encoding="utf-8"), path.stem) == []
