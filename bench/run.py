#!/usr/bin/env python3
"""Offline end-to-end benchmark of promptgp.

    python3 bench/run.py --workload evolve_icl --seed 1 --seconds 30 --trace 0

Each round runs the same entry point the CLI runs (``cmd_optimize`` or
``cmd_local_search``) on a fresh workdir, so journal, cache, checkpoint
and report I/O are timed.  The LLM is the mock in ``mockllm.py``, plugged
in through the ``Backend`` protocol, or served over loopback HTTP.  The
last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from traced rounds with ``--trace 1``.
Metric names and units come from ``BENCHMARK.json``.  Every round's
outputs are checked; the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from mockllm import JUNK, JUNK_SYNONYMS, TEMPLATE, ChatStub, MockLlm, index_values, make_rows, rescore
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The GP master seed is fixed: --seed varies the generated inputs only, so
# gateway counts and scores repeat on every seed (see mockllm's docstring).
MASTER_SEED = 5
SETUP_REPEATS = 3
MIN_ROUNDS = 3
STUB_DELAY_S = 0.01

# Scaled down from the shipped defaults (population 50, 20 generations) so
# that one round takes seconds and a run holds several rounds.
GP_SETTINGS = {
    "population_size": 20,
    "offspring_size": 20,
    "generations": 2,
    "sample_size": 10,
    "init_retries": 3,
}


@dataclass(frozen=True)
class Workload:
    n_train: int
    n_val: int
    gp: dict
    http: bool = False
    refine: bool = False
    surrogate: dict = field(default_factory=dict)
    local_search: dict = field(default_factory=dict)


WORKLOADS = {
    "evolve_icl": Workload(n_train=200, n_val=30, gp={**GP_SETTINGS, "icl_k": 5}),
    "evolve_http": Workload(
        n_train=200, n_val=30, gp={**GP_SETTINGS, "icl_k": 0, "eval_workers": 2}, http=True
    ),
    # The shipped surrogate settings (50 CV fits + 1 final, 200 epochs each)
    # project to tens of minutes; these keep CV and the final fit but small.
    "refine": Workload(
        n_train=100,
        n_val=30,
        gp={**GP_SETTINGS, "generations": 3, "icl_k": 0},
        refine=True,
        surrogate={
            "submodels": 4,
            "epochs": 30,
            "cv_folds": 2,
            "cv_combos": 2,
            "cv_epochs": 10,
            "dim": 256,
        },
        local_search={"per_site": 3, "screen_limit": 10, "top_mean": 5, "top_variance": 5},
    ),
}

TRACE_POINTS = [
    # (span name, module, class or None, attribute)
    ("cli.command", "cli", None, "cmd_optimize"),
    ("cli.command", "cli", None, "cmd_local_search"),
    ("evolution.initialise", "evolution", "EvolutionEngine", "initialise"),
    ("evolution.run_generation", "evolution", "EvolutionEngine", "run_generation"),
    ("evolution.journal_append", "evolution", "EvalJournal", "append"),
    ("evolution.save_checkpoint", "evolution", "EvolutionEngine", "save_checkpoint"),
    ("grammar.sample_ptc2", "grammar", None, "sample_ptc2"),
    ("grammar.crossover_mutate", "grammar", None, "crossover"),
    ("grammar.crossover_mutate", "grammar", None, "mutate"),
    ("grammar.encode_decode", "grammar", None, "encode"),
    ("grammar.encode_decode", "grammar", None, "decode"),
    ("grammar.render_phenotype", "grammar", None, "render_phenotype"),
    ("template.apply_phenotype", "template", None, "apply_phenotype"),
    ("template.retrieve_icl", "template", None, "retrieve_icl"),
    ("template.instantiate", "template", None, "instantiate"),
    ("exprlang.parse", "exprlang", None, "parse"),
    ("editops.execute_program", "editops", None, "execute_program"),
    ("chunking.chunk", "chunking", None, "chunk"),
    ("tasks.evaluate_prompt", "tasks", None, "evaluate_prompt"),
    ("gateway.complete", "gateway", "LlmGateway", "complete"),
    ("gateway.cache_put", "gateway", "ResponseCache", "put"),
    ("gateway.llm_edit", "gateway", None, "paraphrase_call"),
    ("gateway.llm_edit", "gateway", None, "summarise_call"),
    ("surrogate.embed", "surrogate", "HashingEmbedder", "embed"),
    ("surrogate.tune", "surrogate", None, "tune_hyperparameters"),
    ("surrogate.fit_models", "surrogate", None, "fit_models"),
    ("surrogate.train", "surrogate", None, "train"),
    ("surrogate.predict", "surrogate", "SurrogateEnsemble", "predict_many"),
    ("localsearch.run", "localsearch", None, "run_local_search"),
    ("localsearch.build", "localsearch", None, "build_neighborhood"),
    ("localsearch.screen", "localsearch", None, "screen"),
    ("localsearch.finalize", "localsearch", None, "finalize"),
]


def _count_evaluation(tracer: Tracer, args: tuple, result) -> None:
    prompt, rows = args[0], args[1]
    tracer.count("tasks.cases_scored", len(rows))
    key = (prompt.text, tuple(row.id for row in rows))
    seen = tracer.seen["evaluations"]
    if key in seen:
        tracer.count("tasks.repeat_evaluations")
    seen.add(key)


COUNT_HOOKS = {
    "evaluate_prompt": _count_evaluation,
    "build_neighborhood": lambda t, args, nb: t.count("localsearch.neighbours", len(nb.neighbors)),
    "finalize": lambda t, args, res: t.count("localsearch.candidates_scored", len(res[1])),
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _LogCounter(logging.Handler):
    """Counts promptgp warnings per logger instead of streaming them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name] += 1


class Bench:
    def __init__(self, name: str, seed: int, pg: SimpleNamespace):
        self.name = name
        self.w = WORKLOADS[name]
        self.pg = pg
        self.dir = OUT / name
        self.work = self.dir / "work"
        self.snapshot = self.dir / "gp_snapshot"
        self.spans_path = self.dir / "spans.jsonl"
        self.train, self.val = make_rows(seed, self.w.n_train, self.w.n_val)
        self.llm = MockLlm([r["label"] for r in self.train + self.val])
        self.stub = ChatStub(self.llm, STUB_DELAY_S) if self.w.http else None
        self.gateways: list = []
        self.neighbourhood = 0  # size of the last neighbourhood local search built
        self.tracer: Tracer | None = None
        self.log = _LogCounter()
        logger = logging.getLogger("promptgp")
        logger.addHandler(self.log)
        logger.propagate = False
        self._hook_program()

    def _hook_program(self) -> None:
        """Plug the mock LLM into the CLI's gateway and record each gateway built."""
        cli, localsearch = self.pg.cli, self.pg.localsearch
        build_gateway = cli.build_gateway

        def bench_build_gateway(cfg, workdir):
            gw = build_gateway(cfg, workdir)
            if not self.w.http:
                gw.backend = self.llm
            if self.tracer is not None:
                self._trace_backend(gw, self.tracer)
            self.gateways.append(gw)
            return gw

        build_neighborhood = localsearch.build_neighborhood

        def recording_build_neighborhood(*args, **kwargs):
            nb = build_neighborhood(*args, **kwargs)
            self.neighbourhood = len(nb.neighbors)
            return nb

        cli.build_gateway = bench_build_gateway
        localsearch.build_neighborhood = recording_build_neighborhood

    @staticmethod
    def _trace_backend(gw, tracer: Tracer) -> None:
        inner = gw.backend
        sent = tracer.seen["backend"]
        traced_send = tracer.wrap("gateway.backend", inner.send)

        def send(req):
            # LlmRequest is frozen, so equal requests are equal set keys.
            with tracer.lock:
                duplicate = req in sent
                sent.add(req)
            if duplicate:
                tracer.count("gateway.dup_backend_calls")
            return traced_send(req)

        gw.backend = SimpleNamespace(name=inner.name, send=send)

    def close_gateways(self) -> None:
        for gw in self.gateways:
            session = getattr(gw.backend, "session", None)
            if session is not None:
                session.close()
        self.gateways.clear()

    # ---- inputs and set-up --------------------------------------------

    def write_inputs(self) -> Path:
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for split, rows in (("train", self.train), ("val", self.val)):
            with open(inputs / f"{split}.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(row) + "\n" for row in rows)
        (inputs / "template.txt").write_text(TEMPLATE, encoding="utf-8")
        lex = self.pg.lexicons.default_lexicons()
        (inputs / "stopwords.txt").write_text(
            "\n".join(sorted(lex.stopwords | set(JUNK))) + "\n", encoding="utf-8"
        )
        synonyms = {**lex.synonyms, **JUNK_SYNONYMS}
        (inputs / "synonyms.tsv").write_text(
            "".join(f"{w}\t{s}\n" for w, s in sorted(synonyms.items())), encoding="utf-8"
        )
        gateway = ["backend = echo"]
        if self.stub is not None:
            gateway = ["backend = http", f"endpoint = {self.stub.endpoint}", "timeout = 30"]
        sections = {
            "run": {"master_seed": MASTER_SEED},
            "task": {
                "name": "flag",
                "template": inputs / "template.txt",
                "train_data": inputs / "train.jsonl",
                "val_data": inputs / "val.jsonl",
            },
            "paths": {
                "workdir": self.work,
                "stopwords": inputs / "stopwords.txt",
                "synonyms": inputs / "synonyms.tsv",
            },
            "gp": self.w.gp,
            "surrogate": self.w.surrogate,
            "local_search": self.w.local_search,
        }
        lines = ["[gateway]", *gateway]
        for section, items in sections.items():
            if items:
                lines += [f"[{section}]", *(f"{k} = {v}" for k, v in items.items())]
        path = inputs / "run.ini"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def setup(self) -> tuple[float, dict]:
        """Inputs, grammar, template, lexicons and gateway; for refine also
        the GP run whose journal the surrogate trains on."""
        start = time.perf_counter()
        cli = self.pg.cli
        self.config = self.write_inputs()
        cfg = self.pg.config.load_config(str(self.config))
        cli.build_grammar(cfg)
        cli.build_template(cfg)
        cli.build_lexicons(cfg)
        cli.build_gateway(cfg, self.work)
        digests = {}
        if self.w.refine:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.cmd_optimize(self._args()) != 0:
                    raise RuntimeError("set-up optimize run failed")
            shutil.rmtree(self.snapshot, ignore_errors=True)
            shutil.copytree(self.work, self.snapshot)
            digests = {n: sha256_file(self.snapshot / n) for n in ("journal.jsonl", "report.json")}
        elapsed = time.perf_counter() - start
        self.close_gateways()
        return elapsed, digests

    def _args(self) -> argparse.Namespace:
        return argparse.Namespace(
            config=str(self.config), seed=None, resume=None, checkpoint=None, journal=None
        )

    # ---- one timed round ----------------------------------------------

    def run_round(self, traced: bool) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        if self.w.refine:
            shutil.copytree(self.snapshot, self.work)
        self.log.counts.clear()
        received = self.stub.received if self.stub else 0
        tracer = self.tracer = Tracer() if traced else None
        if tracer is not None:
            self._install(tracer)
        try:
            command = self.pg.cli.cmd_local_search if self.w.refine else self.pg.cli.cmd_optimize
            with contextlib.redirect_stdout(io.StringIO()):
                cpu0, wall0 = time.process_time(), time.perf_counter()
                status = command(self._args())
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.restore()
            self.tracer = None
        if status != 0:
            raise RuntimeError(f"{command.__name__} exited with {status}")
        (gw,) = self.gateways
        stats = gw.stats
        self.close_gateways()
        r = {
            "wall_s": wall,
            "cpu_s": cpu,
            "requests": stats.requests,
            "cache_hits": stats.cache_hits,
            "backend_calls": stats.backend_calls,
            "failures": stats.failures,
            "stub_received": (self.stub.received - received) if self.stub else None,
            "degraded": self.log.counts["promptgp.editops"],
            "tracer": tracer,
        }
        r["score"], r["digests"], r["fails"] = self.check_round(r)
        return r

    def _install(self, tracer: Tracer) -> None:
        for span, module, cls, attr in TRACE_POINTS:
            owner = getattr(self.pg, module)
            if cls is not None:
                owner = getattr(owner, cls)
            tracer.patch(owner, attr, span, COUNT_HOOKS.get(attr))

    # ---- correctness ----------------------------------------------------

    def check_round(self, r: dict) -> tuple[float, dict, list[str]]:
        """(result score, artifact digests, failed checks) of the round just run."""
        fails = []
        if r["requests"] != r["cache_hits"] + r["backend_calls"]:
            fails.append(f"requests {r['requests']} != cache hits + backend calls")
        if self.stub is not None and r["stub_received"] != r["backend_calls"]:
            fails.append(f"stub received {r['stub_received']} != backend calls {r['backend_calls']}")
        if self.w.refine:
            score, more = self._check_refine()
            names = ("refined_prompt.meta.json", "candidates.tsv", "refined_prompt.txt")
        else:
            score, more = self._check_gp()
            names = ("journal.jsonl", "report.json", "elite_prompt.txt")
        digests = {n: sha256_file(self.work / n) for n in names}
        return score, digests, fails + more

    def _check_gp(self) -> tuple[float, list[str]]:
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        fails = []
        f_val = report["final"]["f_val"]
        rescored = rescore(self.llm, report["final"]["prompt"], self.val)
        if rescored != f_val:
            fails.append(f"elite f_val {f_val} != re-scored {rescored}")
        series = [g["elite_f_val"] for g in report["generations"]]
        if any(b < a for a, b in zip(series, series[1:])):
            fails.append(f"elite series decreases: {series}")
        first = report["generations"][0]["champion_f_val"]
        if not (f_val > 0 and f_val >= first):
            fails.append(f"elite f_val {f_val} not above 0 and generation-0 champion {first}")
        return f_val, fails

    def _check_refine(self) -> tuple[float, list[str]]:
        meta = json.loads((self.work / "refined_prompt.meta.json").read_text(encoding="utf-8"))
        fails = []
        with open(self.work / "candidates.tsv", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]
        header, rows = rows[0], rows[1:]
        col = {name: i for i, name in enumerate(header)}
        (incumbent,) = [row for row in rows if row[col["incumbent"]] == "1"]
        if meta["combined"] < float(incumbent[col["combined"]]):
            fails.append(f"winner combined {meta['combined']} below incumbent {incumbent[col['combined']]}")
        report = json.loads((self.snapshot / "report.json").read_text(encoding="utf-8"))
        values = [v for prog in report["final"]["programs"].values() for v in index_values(prog)]
        bound, per_site = meta["bound"], self.w.local_search["per_site"]
        expected = sum(min(per_site, bound - (1 <= v <= bound)) for v in values)
        if len(values) != meta["sites"] or self.neighbourhood != expected:
            fails.append(
                f"neighbourhood {self.neighbourhood} over {meta['sites']} sites,"
                f" expected {expected} over {len(values)}"
            )
        refined = (self.work / "refined_prompt.txt").read_text(encoding="utf-8")
        rescored = rescore(self.llm, refined, self.val)
        if rescored != meta["f_val"]:
            fails.append(f"winner f_val {meta['f_val']} != re-scored {rescored}")
        return meta["combined"], fails

    # ---- per-layer metrics ----------------------------------------------

    def layer_metrics(self, r: dict) -> dict[str, float]:
        tracer: Tracer = r["tracer"]
        times = tracer.self_times()
        out: dict[str, float] = {}
        for span in dict.fromkeys([p[0] for p in TRACE_POINTS] + ["gateway.backend"]):
            calls, secs = times.get(span, (0, 0.0))
            out[f"{span}_calls"], out[f"{span}_s"] = calls, secs
            layer = f"layer.{span.split('.')[0]}_s"
            out[layer] = out.get(layer, 0.0) + secs
        out.update(
            {
                "gateway.requests": r["requests"],
                "gateway.cache_hits": r["cache_hits"],
                "gateway.backend_calls": r["backend_calls"],
                "gateway.dup_backend_calls": tracer.counts["gateway.dup_backend_calls"],
                "tasks.cases_scored": tracer.counts["tasks.cases_scored"],
                "tasks.repeat_evaluations": tracer.counts["tasks.repeat_evaluations"],
                "editops.llm_edits": out["gateway.llm_edit_calls"],
                "editops.degraded": r["degraded"],
                "surrogate.texts_embedded": out["surrogate.embed_calls"],
                "localsearch.neighbours": tracer.counts["localsearch.neighbours"],
                "localsearch.candidates_scored": tracer.counts["localsearch.candidates_scored"],
                "localsearch.render_s": tracer.inclusive_under("template.apply_phenotype", "localsearch.run"),
                "trace.spans": len(tracer.spans),
            }
        )
        return out


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]);"
    " import numpy, promptgp.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """numpy and promptgp imported cold, timed in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(probe.stdout)


def load_program() -> SimpleNamespace:
    """Import promptgp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from promptgp import cli, config, editops, evolution, exprlang, gateway
    from promptgp import chunking, grammar, lexicons, localsearch, surrogate, tasks, template

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"promptgp was imported from {cli.__file__}, not from {src}")
    return SimpleNamespace(
        cli=cli, config=config, editops=editops, evolution=evolution, exprlang=exprlang,
        gateway=gateway, chunking=chunking, grammar=grammar, lexicons=lexicons,
        localsearch=localsearch, surrogate=surrogate, tasks=tasks, template=template,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # One BLAS thread: the surrogate's matrices are small, and the load
    # generator must not use more threads than the machine has cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        pg = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, pg)
    try:
        return run(bench, args, spec)
    finally:
        bench.close_gateways()
        if bench.stub is not None:
            bench.stub.close()


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one result line each; non-zero if any failed."""
    status = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        child = subprocess.run(
            [sys.executable, __file__, *argv, "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        print(f"{name}: {child.stdout.strip().splitlines()[-1] if child.stdout.strip() else '(no result)'}")
        status = status or child.returncode
    return status


def run(bench: Bench, args: argparse.Namespace, spec: dict) -> int:
    fails: list[str] = []
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    if any(digests != setups[0][1] for _, digests in setups):
        fails.append("set-up GP runs wrote different journal/report digests")
    setup_s = statistics.median(i + t for i, (t, _) in zip(imports, setups))
    base_score = rescore(bench.llm, TEMPLATE, bench.val)
    if base_score != 0:
        fails.append(f"unedited template scores {base_score}, expected 0")

    # The warm-up round fills lazy imports and regex caches; it is checked
    # and counted in `attempted` but not timed.
    deadline = time.perf_counter() + args.seconds
    warm = bench.run_round(traced=False)
    rounds, traced = [], []
    while True:
        rounds.append(bench.run_round(traced=False))
        if args.trace:
            traced.append(bench.run_round(traced=True))
        if time.perf_counter() >= deadline and (args.trace or len(rounds) >= MIN_ROUNDS):
            break

    every = [warm, *rounds, *traced]
    for r in every:
        fails += r["fails"]
        for key in ("digests", "score", "backend_calls", "requests"):
            if r[key] != warm[key]:
                fails.append(f"{key} differs between rounds: {r[key]} vs {warm[key]}")

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        bench.spans_path.unlink(missing_ok=True)
        for i, r in enumerate(traced):
            r["tracer"].dump(str(bench.spans_path), i)
        per_round = [bench.layer_metrics(r) for r in traced]
        for m in spec["per_layer"]:
            if m["unit"] == "count" and len({counts[m["name"]] for counts in per_round}) > 1:
                fails.append(f"{m['name']} differs between traced rounds")
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.untraced_wall_s"] = median("wall_s")
        values["trace.traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "setup_s": setup_s,
            "backend_calls": warm["backend_calls"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "result_score": warm["score"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {
        "workload": bench.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "wall_s": [r["wall_s"] for r in rounds],
        "cpu_s": [r["cpu_s"] for r in rounds],
        "setup_s": [t for t, _ in setups],
        "import_s": imports,
        "digests": warm["digests"],
        "failed_checks": fails,
    }
    (bench.dir / f"result_trace{args.trace}.json").write_text(json.dumps(details, indent=2) + "\n")
    for fail in fails:
        print(f"check failed: {fail}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": sum(r["requests"] for r in every),
        "failed": sum(r["failures"] for r in every),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
