"""The benchmark's traced run patches promptgp functions by name; every name
it lists must exist, or `bench/run.py --trace 1` fails on its first round."""

import importlib
import importlib.util
import sys
from pathlib import Path

from promptgp.config import parse_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_run(monkeypatch):
    """Import bench/run.py as a module, with bench/ on sys.path for its
    sibling imports; the sibling modules are dropped again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        for sibling in ("mockllm", "tracing"):
            sys.modules.pop(sibling, None)
    return module


def test_every_traced_name_resolves(monkeypatch):
    run = load_bench_run(monkeypatch)
    assert run.TRACE_POINTS
    missing = []
    for _span, module, cls, attr in run.TRACE_POINTS:
        owner = importlib.import_module(f"promptgp.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []


def test_every_workload_config_passes_the_bounds(monkeypatch):
    run = load_bench_run(monkeypatch)
    for workload in run.WORKLOADS.values():
        sections = {
            "gp": workload.gp,
            "surrogate": workload.surrogate,
            "local_search": workload.local_search,
        }
        text = "".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for section, items in sections.items()
        )
        parse_config(text)  # raises ConfigError naming any key out of bounds
