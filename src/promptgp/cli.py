"""Command-line entry points: optimize, local-search, evaluate, report."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import SECTIONS, __version__
from .config import RunConfig, config_digest, load_config
from .evolution import EvalJournal, EvolutionEngine, checkpoint_elite, load_checkpoint
from .gateway import (
    EchoBackend,
    HttpBackend,
    LabelOracleBackend,
    LlmGateway,
    ResponseCache,
    ScriptedBackend,
    TruncateBackend,
    write_atomic,
)
from .grammar import Grammar, default_grammar, load_grammar, render_phenotype
from .lexicons import Lexicons, default_lexicons, load_stopwords, load_synonyms
from .localsearch import run_local_search
from .seeds import derive_seed
from .surrogate import (
    HashingEmbedder,
    RemoteEmbedder,
    SurrogateHp,
    train,
    tune_hyperparameters,
)
from .tasks import Dataset, EvalContext, evaluate_prompt, load_dataset, warn_train_overlap
from .template import BaseTemplate, RenderedPrompt, builtin_template, load_template

log = logging.getLogger(__name__)


class CliError(RuntimeError):
    pass


# ---- runtime construction -------------------------------------------------


def _read_backend_data(path: str) -> dict:
    """The JSON object that `gateway.backend_data` names."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"gateway.backend_data {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"gateway.backend_data {path}: must hold a JSON object")
    return data


def build_gateway(cfg: RunConfig, workdir: Path) -> LlmGateway:
    """The command's gateway; `check_bounds` has vetted the backend keys."""
    gw = cfg.gateway
    if gw.backend == "echo":
        backend = EchoBackend()
    elif gw.backend == "truncate":
        backend = TruncateBackend()
    elif gw.backend == "label_oracle":
        truth = _read_backend_data(gw.backend_data)
        backend = LabelOracleBackend(truth, answer_key=cfg.task.answer_key)
    elif gw.backend == "scripted":
        table = _read_backend_data(gw.backend_data)
        for key, reply in table.items():
            if not isinstance(reply, str):
                raise ValueError(
                    f"gateway.backend_data {gw.backend_data}: the reply to {key!r} is not a string"
                )
        backend = ScriptedBackend(table, default=table.pop("__default__", None))
    else:  # http
        api_key = os.environ.get(gw.api_key_env) if gw.api_key_env else None
        if gw.api_key_env and not api_key:
            raise CliError(f"gateway.api_key_env names {gw.api_key_env}, which is unset or empty")
        backend = HttpBackend(gw.endpoint, api_key=api_key, timeout=gw.timeout)
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
        return builtin_template(ref.split(":", 1)[1])
    return load_template(ref)


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
    """The one evaluation context of a command.  It builds the gateway, the last
    input read, then makes the workdir, so a refused command leaves none."""
    gw = cfg.gateway
    gateway = build_gateway(cfg, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return EvalContext(
        task=cfg.task,
        gateway=gateway,
        train=train,
        icl_k=cfg.gp.icl_k,
        model=gw.model,
        edit_model=gw.edit_model or gw.model,
        max_workers=cfg.gp.eval_workers,
        lexicons=lexicons,
        placeholder_guard=cfg.placeholder_guard,
    )


def _load_rows(path: str, key: str) -> Dataset:
    """The rows of the file that config key `task.<key>` names; a missing
    key or a file without rows is refused."""
    if not path:
        raise CliError(f"config is missing task.{key}")
    dataset = load_dataset(path)
    if not dataset.rows:
        raise CliError(f"task.{key}: {path} holds no rows")
    return dataset


def build_embedder(cfg: RunConfig):
    if cfg.surrogate.embedder == "hashing":
        return HashingEmbedder(dim=cfg.surrogate.dim, seed=derive_seed(cfg.master_seed, "embedder"))
    return RemoteEmbedder(cfg.surrogate.endpoint, dim=cfg.surrogate.dim)


# ---- artifacts -------------------------------------------------------------


def _num(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6f}"


def _write_table(path: Path, digest: str, header: list[str], rows) -> None:
    """A TSV artifact: the config digest line, the header, then `rows` of text cells."""
    lines = [f"# config_digest={digest}", "\t".join(header), *("\t".join(row) for row in rows)]
    write_atomic(path, "\n".join(lines) + "\n")


def _write_curve(path: Path, digest: str, curve) -> None:
    _write_table(
        path,
        digest,
        ["generation", "mean_f_train", "std_f_train", "evaluations"],
        [(str(gen), _num(mean), _num(std), str(count)) for gen, mean, std, count in curve],
    )


def _traffic(ctx: EvalContext) -> dict:
    """The command's gateway counters and degraded LLM edits, for `stats.json`."""
    return {
        **asdict(ctx.gateway.stats),
        "degraded_edits": {op: ctx.degraded[op] for op in ("paraphrase", "summarise")},
    }


def _write_json(path: Path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_stats(path: Path) -> dict:
    """What earlier commands wrote to `stats.json`; a missing or torn file reads as nothing."""
    try:
        stats = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return stats if isinstance(stats, dict) else {}


# ---- subcommands ------------------------------------------------------------


def _load_run(args: argparse.Namespace) -> tuple[RunConfig, str, Path]:
    """The command's config (with `--seed` applied), its digest and its workdir."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    return cfg, config_digest(cfg), Path(cfg.paths.workdir)


def _search_inputs(cfg: RunConfig, workdir: Path) -> tuple[BaseTemplate, Dataset, EvalContext]:
    """What both phases search with, beside the grammar: base template,
    validation rows and the evaluation context over the training rows."""
    base = build_template(cfg)
    lexicons = build_lexicons(cfg)
    train_ds = _load_rows(cfg.task.train_data, "train_data")
    val_ds = _load_rows(cfg.task.val_data, "val_data")
    warn_train_overlap(cfg.task.val_data, val_ds, train_ds)
    return base, val_ds, build_context(cfg, workdir, train_ds, lexicons)


def _decoded(checkpoint: str, decode, *args):
    """`decode(*args)`, with a refusal of it named by the checkpoint file."""
    try:
        return decode(*args)
    except ValueError as exc:
        raise ValueError(f"{checkpoint}: {exc}") from exc


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg, digest, workdir = _load_run(args)
    grammar = build_grammar(cfg)
    base, val_ds, ctx = _search_inputs(cfg, workdir)

    journal_path = str(workdir / "journal.jsonl")
    if args.resume:
        state = load_checkpoint(args.resume)
        journal = EvalJournal.load(journal_path)  # `restore` cuts it
    else:
        journal = EvalJournal.start(journal_path, digest, cfg.master_seed)

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
        population, start = _decoded(args.resume, engine.restore, state) if args.resume else (None, 0)
        result = engine.run(population, start)
    finally:
        ctx.close()

    elite = result.elite
    if elite is None or elite.prompt is None:
        raise CliError("run finished without an elite individual")
    write_atomic(workdir / "elite_prompt.txt", elite.prompt.text)
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
    curve = journal.curve()
    _write_curve(workdir / "curve.tsv", digest, curve)
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
            **_traffic(ctx),
        },
    )
    print(f"elite f_val: {elite.f_val}")
    print(f"artifacts: {workdir}")
    return 0


# Distinct journal training texts needed to fit the surrogate, and to tune it by CV.
MIN_TRAIN_POINTS = 10
MIN_TUNE_POINTS = 50


def cmd_local_search(args: argparse.Namespace) -> int:
    cfg, digest, workdir = _load_run(args)
    grammar = build_grammar(cfg)
    checkpoint = args.checkpoint or str(workdir / "checkpoint.json")
    elite = _decoded(checkpoint, checkpoint_elite, load_checkpoint(checkpoint), grammar)
    journal_path = args.journal or str(workdir / "journal.jsonl")
    journal = EvalJournal.load(journal_path)
    points = journal.training_points()
    if len(points) < MIN_TRAIN_POINTS:
        raise CliError(
            f"{journal_path}: need at least {MIN_TRAIN_POINTS} distinct training texts, got {len(points)}"
        )

    base, val_ds, ctx = _search_inputs(cfg, workdir)
    embedder = build_embedder(cfg)

    started = time.perf_counter()
    X = embedder.embed_many([text for text, _ in points])
    y = np.asarray([target for _, target in points], dtype=np.float64)
    embedded = time.perf_counter()
    if len(points) >= MIN_TUNE_POINTS:
        hp = tune_hyperparameters(X, y, derive_seed(cfg.master_seed, "hp_tune"), cfg.surrogate)
    else:
        hp = SurrogateHp()
        log.warning("only %d distinct training texts; skipping CV, using default hp", len(points))
    tuned = time.perf_counter()
    ensemble = train(
        X, y, hp, derive_seed(cfg.master_seed, "surrogate_train"), embedder, cfg.surrogate
    )
    fitted = time.perf_counter()

    incumbent_ph = render_phenotype(elite.tree)

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

    write_atomic(workdir / "refined_prompt.txt", result.best.prompt.text)
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
    _write_table(
        workdir / "candidates.tsv",
        digest,
        ["rank", "digest", "incumbent", "section", "param", "slot", "value",
         "mean", "variance", "f_val", "f_train", "combined"],
        [
            (
                str(rank),
                cand.digest[:16],
                "1" if cand.is_incumbent else "0",
                cand.site.section if cand.site else "-",
                cand.site.param if cand.site else "-",
                str(cand.site.slot) if cand.site else "-",
                "-" if cand.value is None else str(cand.value),
                _num(cand.mean),
                _num(cand.variance),
                _num(cand.f_val),
                _num(cand.f_train),
                _num(cand.combined),
            )
            for rank, cand in enumerate(result.ranking)
        ],
    )
    stats = _read_stats(workdir / "stats.json")  # optimize's keys stay
    stats["local_search"] = {
        "config_digest": digest,
        **_traffic(ctx),
        "journal_points": journal.training_record_count(),
        "distinct_texts": len(points),
        "embedding_dims_used": int(np.count_nonzero(X.any(axis=0))),
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
    cfg, digest, workdir = _load_run(args)
    key = f"{args.split}_data"
    path = getattr(cfg.task, key)
    dataset = _load_rows(path, key)
    train = load_dataset(cfg.task.train_data) if cfg.task.train_data else Dataset(rows=[])
    if args.split != "train":
        warn_train_overlap(path, dataset, train)
    ctx = build_context(cfg, workdir, train, Lexicons())  # renders nothing

    prompt_text = Path(args.prompt).read_text(encoding="utf-8")
    try:
        report = evaluate_prompt(RenderedPrompt(prompt_text), dataset.rows, ctx)
    finally:
        ctx.close()
    out = workdir / f"eval_{args.split}.tsv"
    _write_table(out, digest, ["case_id", "score"], [(i, _num(score)) for i, score in report.per_case])
    print(f"{args.split} fitness: {report.fitness:.6f} over {len(report.per_case)} cases")
    print(f"parse failures: {report.parse_failures}")
    print(f"gateway failures: {ctx.gateway.stats.failures}")
    print(f"per-case file: {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    journal = EvalJournal.load(args.journal)
    rows = journal.curve()
    out = Path(args.out)
    _write_curve(out, journal.config_digest(), rows)
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
