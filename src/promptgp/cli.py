"""Command-line entry points: optimize, local-search, evaluate, report."""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import SECTIONS, __version__
from .config import RunConfig, config_digest, load_config
from .evolution import EvalJournal, EvolutionEngine, load_checkpoint
from .gateway import (
    EchoBackend,
    HttpBackend,
    LabelOracleBackend,
    LlmGateway,
    ResponseCache,
    ScriptedBackend,
    TruncateBackend,
)
from .grammar import Grammar, decode, default_grammar, load_grammar, render_phenotype
from .lexicons import Lexicons, default_lexicons, load_stopwords, load_synonyms
from .localsearch import run_local_search
from .seeds import derive_seed
from .surrogate import (
    MIN_TUNE_POINTS,
    HashingEmbedder,
    RemoteEmbedder,
    SurrogateHp,
    train,
    tune_hyperparameters,
)
from .tasks import Dataset, EvalContext, load_dataset
from .template import BaseTemplate, RenderedPrompt, builtin_template, load_template

log = logging.getLogger(__name__)


class CliError(RuntimeError):
    pass


# ---- runtime construction -------------------------------------------------


def build_gateway(cfg: RunConfig, workdir: Path) -> LlmGateway:
    gw = cfg.gateway
    if gw.backend == "echo":
        backend = EchoBackend()
    elif gw.backend == "truncate":
        backend = TruncateBackend()
    elif gw.backend == "label_oracle":
        if not gw.backend_data:
            raise CliError("label_oracle backend needs gateway.backend_data (truth JSON)")
        with open(gw.backend_data, "r", encoding="utf-8") as fh:
            truth = json.load(fh)
        backend = LabelOracleBackend(truth, answer_key=cfg.task.answer_key)
    elif gw.backend == "scripted":
        if not gw.backend_data:
            raise CliError("scripted backend needs gateway.backend_data (reply table JSON)")
        with open(gw.backend_data, "r", encoding="utf-8") as fh:
            table = json.load(fh)
        backend = ScriptedBackend(table, default=table.pop("__default__", None))
    elif gw.backend == "http":
        if not gw.endpoint:
            raise CliError("http backend needs gateway.endpoint")
        api_key = os.environ.get(gw.api_key_env) if gw.api_key_env else None
        if gw.api_key_env and not api_key:
            raise CliError(f"gateway.api_key_env names {gw.api_key_env}, which is unset or empty")
        backend = HttpBackend(gw.endpoint, api_key=api_key, timeout=gw.timeout)
    else:
        raise CliError(f"unknown gateway backend {gw.backend!r}")
    cache_path: Optional[str] = None
    if gw.cache_file:
        p = Path(gw.cache_file)
        cache_path = str(p if p.is_absolute() else workdir / p)
    return LlmGateway(
        backend,
        cache=ResponseCache(cache_path),
        max_attempts=gw.max_attempts,
        backoff_base=gw.backoff_base,
        temperature=gw.temperature,
        max_new_tokens=gw.max_new_tokens,
    )


def build_grammar(cfg: RunConfig) -> Grammar:
    if cfg.paths.grammar:
        with open(cfg.paths.grammar, "r", encoding="utf-8") as fh:
            return load_grammar(fh.read())
    return default_grammar()


def build_template(cfg: RunConfig) -> BaseTemplate:
    ref = cfg.task.template
    if ref.startswith("builtin:"):
        return builtin_template(ref.split(":", 1)[1], icl_slot_count=cfg.task.icl_slot_count)
    return load_template(ref, icl_slot_count=cfg.task.icl_slot_count)


def build_lexicons(cfg: RunConfig) -> Lexicons:
    defaults = default_lexicons()
    stopwords = (
        load_stopwords(cfg.paths.stopwords) if cfg.paths.stopwords else defaults.stopwords
    )
    synonyms = load_synonyms(cfg.paths.synonyms) if cfg.paths.synonyms else defaults.synonyms
    return Lexicons(stopwords=stopwords, synonyms=synonyms)


def build_context(
    cfg: RunConfig,
    workdir: Path,
    train: Dataset,
    lexicons: Lexicons,
) -> EvalContext:
    """The one evaluation context of a command; builds its gateway."""
    gw = cfg.gateway
    return EvalContext(
        task=cfg.task,
        gateway=build_gateway(cfg, workdir),
        train=train,
        icl_k=cfg.gp.icl_k,
        model=gw.model,
        edit_model=gw.edit_model or gw.model,
        max_workers=cfg.gp.eval_workers,
        lexicons=lexicons,
        placeholder_guard=cfg.placeholder_guard,
    )


def _require(path: str, what: str) -> str:
    if not path:
        raise CliError(f"config is missing task.{what}")
    return path


def build_embedder(cfg: RunConfig):
    if cfg.surrogate.embedder == "hashing":
        return HashingEmbedder(dim=cfg.surrogate.dim, seed=derive_seed(cfg.master_seed, "embedder"))
    if cfg.surrogate.embedder == "remote":
        if not cfg.surrogate.endpoint:
            raise CliError("remote embedder needs surrogate.endpoint")
        return RemoteEmbedder(cfg.surrogate.endpoint, dim=cfg.surrogate.dim)
    raise CliError(f"unknown embedder {cfg.surrogate.embedder!r}")


# ---- artifacts -------------------------------------------------------------


def _curve_rows(journal: EvalJournal) -> list[tuple[int, float, float, int]]:
    """Per-generation (generation, mean, population std, count) of train fitness."""
    by_gen: dict[int, list[float]] = {}
    for record in journal.records:
        if record.get("split") == "train":
            by_gen.setdefault(record["generation"], []).append(record["fitness"])
    rows = []
    for gen in sorted(by_gen):
        values = by_gen[gen]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        rows.append((gen, mean, std, len(values)))
    return rows


def _write_curve(path: Path, rows, digest: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest={digest}\n")
        fh.write("generation\tmean_f_train\tstd_f_train\tevaluations\n")
        for gen, mean, std, count in rows:
            fh.write(f"{gen}\t{mean:.6f}\t{std:.6f}\t{count}\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_stats(path: Path) -> dict:
    """What earlier commands wrote to `stats.json`; a missing or torn file reads as nothing."""
    try:
        stats = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return stats if isinstance(stats, dict) else {}


# ---- subcommands ------------------------------------------------------------


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    digest = config_digest(cfg)
    workdir = Path(cfg.paths.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    grammar = build_grammar(cfg)
    base = build_template(cfg)
    lexicons = build_lexicons(cfg)
    train_ds = load_dataset(_require(cfg.task.train_data, "train_data"))
    val_ds = load_dataset(_require(cfg.task.val_data, "val_data"))
    ctx = build_context(cfg, workdir, train_ds, lexicons)

    journal_path = workdir / "journal.jsonl"

    if args.resume:
        state = load_checkpoint(args.resume)
        EvalJournal.truncate_file(str(journal_path), state["journal_lines"])
        journal = EvalJournal.load(str(journal_path))
    else:
        journal_path.write_text("", encoding="utf-8")
        journal = EvalJournal(str(journal_path))
        journal.append({"config_digest": digest, "master_seed": cfg.master_seed})

    engine = EvolutionEngine(
        grammar,
        base,
        ctx,
        val_ds,
        settings=cfg.gp,
        master_seed=cfg.master_seed,
        journal=journal,
        checkpoint_path=str(workdir / "checkpoint.json"),
        config_digest=digest,
    )
    try:
        if args.resume:
            population, start_generation = engine.restore(state)
            result = engine.run(population, start_generation)
        else:
            result = engine.run()
    finally:
        ctx.close()

    elite = result.elite
    if elite is None or elite.prompt is None:
        raise CliError("run finished without an elite individual")
    (workdir / "elite_prompt.txt").write_text(elite.prompt.text, encoding="utf-8")
    _write_json(
        workdir / "elite_prompt.meta.json",
        {
            "config_digest": digest,
            "digest": elite.digest,
            "genotype": list(elite.genotype),
            "f_val": elite.f_val,
            "born": elite.born,
        },
    )
    curve = _curve_rows(journal)
    _write_curve(workdir / "curve.tsv", curve, digest)
    _write_json(
        workdir / "report.json",
        {
            "config_digest": digest,
            "master_seed": cfg.master_seed,
            "task": cfg.task.name,
            "generations": result.history,
            "curve": [
                {"generation": g, "mean_f_train": m, "std_f_train": s, "evaluations": c}
                for g, m, s, c in curve
            ],
            "final": {
                "digest": elite.digest,
                "genotype": list(elite.genotype),
                "f_val": elite.f_val,
                "prompt": elite.prompt.text,
                "programs": {s: elite.phenotype.programs[s] for s in SECTIONS},
            },
        },
    )
    _write_json(
        workdir / "stats.json",
        {
            "config_digest": digest,
            "requests": ctx.gateway.stats.requests,
            "cache_hits": ctx.gateway.stats.cache_hits,
            "backend_calls": ctx.gateway.stats.backend_calls,
            "failures": ctx.gateway.stats.failures,
            "degraded_edits": {op: ctx.degraded[op] for op in ("paraphrase", "summarise")},
        },
    )
    print(f"elite f_val: {elite.f_val}")
    print(f"artifacts: {workdir}")
    return 0


def cmd_local_search(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    digest = config_digest(cfg)
    workdir = Path(cfg.paths.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    checkpoint_path = args.checkpoint or str(workdir / "checkpoint.json")
    journal_path = args.journal or str(workdir / "journal.jsonl")
    state = load_checkpoint(checkpoint_path)
    journal = EvalJournal.load(journal_path)
    points = journal.training_points()
    if not state.get("elite"):
        raise CliError("checkpoint holds no elite individual")

    grammar = build_grammar(cfg)
    base = build_template(cfg)
    lexicons = build_lexicons(cfg)
    train_ds = load_dataset(_require(cfg.task.train_data, "train_data"))
    val_ds = load_dataset(_require(cfg.task.val_data, "val_data"))
    ctx = build_context(cfg, workdir, train_ds, lexicons)
    embedder = build_embedder(cfg)

    started = time.perf_counter()
    X = embedder.embed_many([text for text, _ in points])
    y = np.asarray([target for _, target in points], dtype=np.float64)
    embedded = time.perf_counter()
    if len(points) >= MIN_TUNE_POINTS:
        hp = tune_hyperparameters(X, y, derive_seed(cfg.master_seed, "hp_tune"), cfg.surrogate)
    else:
        hp = SurrogateHp()
        log.warning("only %d journal points; skipping CV, using default hp", len(points))
    tuned = time.perf_counter()
    ensemble = train(
        X, y, hp, derive_seed(cfg.master_seed, "surrogate_train"), embedder, cfg.surrogate
    )
    fitted = time.perf_counter()

    elite_tree = decode(grammar, state["elite"]["genotype"])
    incumbent_ph = render_phenotype(elite_tree)

    try:
        result = run_local_search(
            incumbent_ph,
            base,
            ensemble,
            ctx,
            val_ds,
            settings=cfg.local_search,
            master_seed=cfg.master_seed,
        )
    finally:
        ctx.close()
    searched = time.perf_counter()

    (workdir / "refined_prompt.txt").write_text(result.best.prompt.text, encoding="utf-8")
    _write_json(
        workdir / "refined_prompt.meta.json",
        {
            "config_digest": digest,
            "digest": result.best.digest,
            "is_incumbent": result.best.is_incumbent,
            "combined": result.best.combined,
            "f_val": result.best.f_val,
            "f_train": result.best.f_train,
            "bound": result.bound,
            "sites": len(result.sites),
            "notice": result.notice,
            "programs": {s: result.best.phenotype.programs[s] for s in SECTIONS},
        },
    )
    with open(workdir / "candidates.tsv", "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest={digest}\n")
        fh.write("rank\tdigest\tincumbent\tsection\tparam\tslot\tvalue\tmean\tvariance\tf_val\tf_train\tcombined\n")
        for rank, cand in enumerate(result.ranking):
            site = cand.site
            fh.write(
                "\t".join(
                    [
                        str(rank),
                        cand.digest[:16],
                        "1" if cand.is_incumbent else "0",
                        site.section if site else "-",
                        site.param if site else "-",
                        str(site.slot) if site else "-",
                        str(cand.value) if cand.value is not None else "-",
                        "-" if cand.mean is None else f"{cand.mean:.6f}",
                        "-" if cand.variance is None else f"{cand.variance:.6f}",
                        "-" if cand.f_val is None else f"{cand.f_val:.6f}",
                        "-" if cand.f_train is None else f"{cand.f_train:.6f}",
                        "-" if cand.combined is None else f"{cand.combined:.6f}",
                    ]
                )
                + "\n"
            )
    stats = _read_stats(workdir / "stats.json")  # optimize's keys stay
    stats["local_search"] = {
        "config_digest": digest,
        "journal_points": len(points),
        "distinct_texts": len({text for text, _ in points}),
        "hp": asdict(hp),
        "seconds": {
            "embed": embedded - started,
            "tune": tuned - embedded,
            "fit": fitted - tuned,
            "search": searched - fitted,
        },
    }
    _write_json(workdir / "stats.json", stats)
    if result.notice:
        print(f"notice: {result.notice}")
    print(f"refined combined score: {result.best.combined}")
    print(f"artifacts: {workdir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    digest = config_digest(cfg)
    workdir = Path(cfg.paths.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    data_paths = {
        "train": cfg.task.train_data,
        "val": cfg.task.val_data,
        "test": cfg.task.test_data,
    }
    path = data_paths[args.split]
    if not path:
        raise CliError(f"config has no {args.split} dataset")
    dataset = load_dataset(path)
    train = load_dataset(cfg.task.train_data) if cfg.task.train_data else Dataset(rows=[])
    ctx = build_context(cfg, workdir, train, Lexicons())  # renders nothing

    prompt_text = Path(args.prompt).read_text(encoding="utf-8")
    try:
        report = ctx.score(RenderedPrompt(prompt_text), dataset.rows)
    finally:
        ctx.close()
    out = workdir / f"eval_{args.split}.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest={digest}\n")
        fh.write("case_id\tscore\n")
        for case_id, score in report.per_case:
            fh.write(f"{case_id}\t{score:.6f}\n")
    print(f"{args.split} fitness: {report.fitness:.6f} over {len(report.per_case)} cases")
    print(f"parse failures: {report.parse_failures}")
    print(f"gateway failures: {ctx.gateway.stats.failures}")
    print(f"per-case file: {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    journal = EvalJournal.load(args.journal)
    digest = ""
    for record in journal.records:
        if "config_digest" in record and "split" not in record:
            digest = record["config_digest"]
            break
    rows = _curve_rows(journal)
    out = Path(args.out)
    _write_curve(out, rows, digest)
    print(f"wrote {len(rows)} generation rows to {out}")
    return 0


# ---- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptgp",
        description="Evolve and refine sectioned prompt templates with grammar-guided GP.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run the evolutionary search")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--seed", type=int, default=None, help="override master seed")
    p_opt.add_argument("--resume", default=None, help="checkpoint file to resume from")
    p_opt.set_defaults(func=cmd_optimize)

    p_ls = sub.add_parser("local-search", help="refine the checkpointed elite")
    p_ls.add_argument("--config", required=True)
    p_ls.add_argument("--seed", type=int, default=None)
    p_ls.add_argument("--checkpoint", default=None, help="checkpoint file (default: workdir)")
    p_ls.add_argument("--journal", default=None, help="journal file (default: workdir)")
    p_ls.set_defaults(func=cmd_local_search)

    p_eval = sub.add_parser("evaluate", help="score a prompt file on a dataset split")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--prompt", required=True, help="prompt text file")
    p_eval.add_argument("--split", choices=("train", "val", "test"), default="test")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="fitness curve table from a journal")
    p_rep.add_argument("--journal", required=True)
    p_rep.add_argument("--out", default="curve.tsv")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
