"""The benchmark's traced run patches promptgp functions by name; every name
it lists must exist, or `bench/run.py --trace 1` fails on its first round,
and each layer must be reached through its patched name, or the layer reads 0."""

import importlib
import importlib.util
import sys
from pathlib import Path

from test_cli import SEARCH_POPULATION, setup_run, site_elite

from promptgp.cli import main
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


def test_traced_commands_reach_every_patched_layer(tmp_path, monkeypatch):
    run = load_bench_run(monkeypatch)
    root = setup_run(tmp_path, population=SEARCH_POPULATION)
    config = str(root / "run.ini")
    tracer = run.Tracer()
    for span, module, cls, attr in run.TRACE_POINTS:
        owner = importlib.import_module(f"promptgp.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.patch(owner, attr, span, run.COUNT_HOOKS.get(attr))
    try:
        assert main(["optimize", "--config", config]) == 0
        site_elite(root / "work")  # so that local search screens and finalizes
        assert main(["local-search", "--config", config]) == 0
    finally:
        tracer.restore()
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    for name in (
        "tasks.evaluate_prompt",
        "template.apply_phenotype",
        "template.retrieve_icl",
        "exprlang.parse",
        "localsearch.finalize",
    ):
        assert calls.get(name, 0) >= 1, name
    assert tracer.counts["tasks.cases_scored"] >= calls["tasks.evaluate_prompt"]


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
