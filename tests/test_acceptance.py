"""Acceptance suite: every release-gating property at its stated tolerance.

Each test is numbered and self-contained (shared work lives in module
fixtures).  Wall-clock limits are asserted where the property is a
performance contract, with generous margin over measured times.
"""

import json
import random
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import promptgp
from helpers import ast_index_slots, identity_phenotype
from promptgp.chunking import LEVELS, ViewIndex, chunk, reassemble, resolve
from promptgp.cli import main
from promptgp.config import RunConfig, config_to_dict
from promptgp.editops import execute_program
from promptgp.evolution import EvalJournal, EvolutionEngine, GpSettings
from promptgp.exprlang import parse
from promptgp.gateway import EchoBackend, LabelOracleBackend, LlmGateway
from promptgp.grammar import (
    crossover,
    decode,
    default_grammar,
    encode,
    mutate,
    render_phenotype,
    sample_ptc2,
)
from promptgp.lexicons import Lexicons, default_lexicons
from promptgp.localsearch import (
    LocalSearchSettings,
    build_neighborhood,
    enumerate_sites,
    run_local_search,
    screen,
)
from promptgp.surrogate import (
    HashingEmbedder,
    SurrogateEnsemble,
    SurrogateHp,
    SurrogateSettings,
    init_params,
    loss_and_grads,
    mse,
    predict_params,
    train,
)
from promptgp.tasks import DataRow, Dataset, EvalContext, TaskSettings, evaluate_prompt
from promptgp.template import (
    apply_phenotype,
    builtin_template,
    parse_template,
)

GRAMMAR = default_grammar()
LEX = default_lexicons()
SECTIONS = ("persona", "task", "output", "icl", "context", "cot")


# --- 1. reference outputs of the edit operations ---------------------------

DEMO_LIST = ["chunk_1", "chunk_2", "chunk_3", "chunk_4"]
STOPWORD_SENTENCE = "Given text, classify its sentiment as positive or negative."


# Rendering context: LLM edits get echo replies, which degrade to identity.
EDIT_CTX = EvalContext(TaskSettings(), LlmGateway(EchoBackend()), Dataset(rows=[]), lexicons=LEX)


def run_op(program, base="", icl_items=()):
    return execute_program(parse(program), base, EDIT_CTX, icl_items)[0]


def test_01_edit_operation_reference_outputs():
    start = time.monotonic()
    out = run_op(
        "swap_elements(index1=[0,1], index2=[3], level=word, texts=ICL_LIST)",
        icl_items=DEMO_LIST,
    )
    assert out == ["chunk_4", "chunk_3", "chunk_1", "chunk_2"]

    out = run_op("remove_element(index=[1], level=word, texts=ICL_LIST)", icl_items=DEMO_LIST)
    assert out == ["chunk_1", "chunk_3", "chunk_4"]

    out = run_op(
        "readd_element(index=[1], level=word, texts="
        "remove_element(index=[1], level=word, texts=ICL_LIST))",
        icl_items=DEMO_LIST,
    )
    assert out == DEMO_LIST

    out = run_op(
        "duplicate_element(index1=[0,1], index2=[3], level=word, texts=ICL_LIST)",
        icl_items=DEMO_LIST,
    )
    assert out == ["chunk_1", "chunk_2", "chunk_3", "chunk_1", "chunk_2", "chunk_4"]

    out = run_op("remove_stopwords(index=[0], level=sentence, texts=BASE)", STOPWORD_SENTENCE)
    assert out == "Given text, classify sentiment positive negative."
    assert time.monotonic() - start < 1.0


# --- 2. modular index resolution on a known text ----------------------------


def test_02_modular_index_resolution():
    start = time.monotonic()
    text = "Is the sky blue? Answer this question:"

    words = chunk(text, "word")
    assert len(words.chunks) == 7
    pos = resolve(ViewIndex("atomic", 5), len(words.chunks))
    assert words.chunks[pos] == "this"

    sentences = chunk(text, "sentence")
    assert len(sentences.chunks) == 2
    pos = resolve(ViewIndex("atomic", 5), len(sentences.chunks))
    assert sentences.chunks[pos] == "Answer this question:"
    assert time.monotonic() - start < 1.0


# --- 3. chunking never destroys bytes ---------------------------------------


def build_corpus():
    corpus = []
    tpl_dir = Path(promptgp.__file__).parent / "data" / "templates"
    for path in sorted(tpl_dir.glob("*.txt")):
        corpus.append(path.read_text(encoding="utf-8"))
        corpus.extend(builtin_template(path.stem).sections.values())

    corpus += [
        "",
        " ",
        "\n",
        "word",
        "Tabs\tand  double  spaces stay.",
        "Is the sky blue? Answer this question:",
        "One. Two! Three? Four",
        "alpha, beta; gamma: delta and epsilon or zeta",
        "__TASK_INPUT_0__",
        "Use __CONTEXT_0__ and __ICL_3__ here.",
        "{'Answer': 'yes'}\n{'Answer': 'no'}",
        "trailing spaces   ",
        "   leading spaces",
        "unicode: naïve café text",
    ]

    rng = random.Random(0)
    words = [
        "Answer", "the", "question:", "__ICL_0__", "maybe,",
        "so!", "ok?", "end.", "\tindent", "two  spaces",
    ]
    seps = [" ", "  ", "\n", " \n ", "\t"]
    while len(corpus) < 220:
        parts = [rng.choice(words) for _ in range(rng.randint(1, 14))]
        text = "".join(p + rng.choice(seps) for p in parts)
        corpus.append(text if rng.random() < 0.5 else text.strip())
    return corpus


def test_03_chunk_reassembly_is_byte_identity():
    corpus = build_corpus()
    assert len(corpus) >= 200
    for text in corpus:
        for level in LEVELS:
            assert reassemble(chunk(text, level)) == text


# --- 4. grammar variation closure -------------------------------------------


def assert_executable(tree, base):
    assert tree.node_count <= 1024
    assert encode(decode(GRAMMAR, encode(tree))) == encode(tree)
    apply_phenotype(base, render_phenotype(tree), EDIT_CTX)


def test_04_grammar_variation_closure():
    start = time.monotonic()
    base = builtin_template("pubmedqa")
    samples = [sample_ptc2(GRAMMAR, max_nodes=400, rng_seed=s) for s in range(1000)]
    for tree in samples:
        assert_executable(tree, base)

    rng = random.Random(99)
    for i in range(1000):
        a, b = rng.sample(samples, 2)
        c1, c2 = crossover(a, b, rng_seed=i, max_nodes=1024)
        assert_executable(c1, base)
        assert_executable(c2, base)
        assert_executable(mutate(c1, max_nodes=1024, rng_seed=i), base)
    assert time.monotonic() - start < 30.0


# --- 5. genotype encoding is a bijection ------------------------------------


def test_05_genotype_bijection():
    for seed in range(500):
        tree = sample_ptc2(GRAMMAR, max_nodes=60 + (seed % 5) * 85, rng_seed=seed)
        genotype = encode(tree)
        rebuilt = decode(GRAMMAR, genotype)
        assert encode(rebuilt) == genotype
        assert rebuilt.node_count == tree.node_count
        assert render_phenotype(rebuilt).programs == render_phenotype(tree).programs
        assert encode(decode(GRAMMAR, genotype)) == genotype


# --- 6. ensemble statistics and analytic gradients --------------------------


def constant_models(values, dim=4):
    return [[[np.zeros((dim, 1)), np.array([float(v)])]] for v in values]


def test_06_ensemble_mean_is_submodel_average():
    rng = np.random.default_rng(1)
    vocab = ["alpha", "beta", "gamma", "delta"]
    points = [(" ".join(rng.choice(vocab, size=5)), float(rng.random())) for _ in range(20)]
    emb = HashingEmbedder(dim=32)
    ens = train(
        np.stack([emb.embed(t) for t, _ in points]),
        np.asarray([v for _, v in points]),
        SurrogateHp(widths=(8, 1), dropout=0.0, batch=8, lr=1e-3),
        seed=1,
        embedder=emb,
        settings=SurrogateSettings(submodels=4, epochs=5),
    )
    texts = ["alpha beta", "gamma delta alpha", "beta"]
    means, variances = ens.predict_many(texts)
    X = np.stack([emb.embed(t) for t in texts])
    per_model = np.stack([predict_params(p, X) for p in ens.models])
    assert np.array_equal(means, per_model.mean(axis=0))
    assert np.array_equal(variances, per_model.var(axis=0))

    mean, variance = ens.predict(texts[0])
    single = np.stack([predict_params(p, X[0:1]) for p in ens.models])
    assert mean == float(single.mean(axis=0)[0])
    assert variance == float(single.var(axis=0)[0])


def test_06_ensemble_population_variance_value():
    values = [i / 10 for i in range(10)]
    ens = SurrogateEnsemble(constant_models(values), HashingEmbedder(dim=4))
    mean, variance = ens.predict("any text")
    assert mean == pytest.approx(0.45, abs=1e-12)
    assert variance == pytest.approx(0.0825, abs=1e-12)


def test_06_gradients_match_finite_differences():
    shapes = [(3, (4, 1)), (4, (5, 3, 1)), (5, (3, 1)), (6, (4, 2, 1))]
    for net in range(20):
        rng = np.random.default_rng(net)
        dim, widths = shapes[net % len(shapes)]
        X = rng.normal(size=(rng.integers(4, 9), dim))
        y = rng.normal(size=X.shape[0])
        params = init_params(dim, widths, rng)
        _, grads = loss_and_grads(params, X, y)
        eps = 1e-6
        for layer, (W, b) in enumerate(params):
            for arr_i, arr in enumerate((W, b)):
                flat = arr.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + eps
                    up = loss_and_grads(params, X, y)[0]
                    flat[k] = orig - eps
                    down = loss_and_grads(params, X, y)[0]
                    flat[k] = orig
                    numeric = (up - down) / (2 * eps)
                    analytic = grads[layer][arr_i].ravel()[k]
                    scale = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / scale < 1e-4


# --- 7. the surrogate learns a linear functional of its own embedding -------


def test_07_surrogate_learns_linear_target():
    start = time.monotonic()
    embedder = HashingEmbedder(dim=384, seed=0)
    rng = np.random.default_rng(4242)
    vocab = [f"tok{i}" for i in range(60)]
    w = rng.normal(size=384)
    w /= np.linalg.norm(w)

    texts = []
    for _ in range(600):
        size = int(rng.integers(4, 13))
        texts.append(" ".join(rng.choice(vocab, size=size)))
    X = np.stack([embedder.embed(t) for t in texts])
    y = np.asarray([0.25 * float(x @ w) + 0.5 for x in X])

    ens = train(X[:500], y[:500], SurrogateHp(), seed=7, embedder=embedder)
    held_X, held_y = X[500:], y[500:]
    preds = np.stack([predict_params(p, held_X) for p in ens.models]).mean(axis=0)
    assert mse(preds, held_y) < 1e-3
    assert time.monotonic() - start < 120.0


# --- 8. neighborhood size, one-digit edits, screening, incumbent safety -----


class ArbitraryEnsemble:
    """Deterministic stand-in scores derived from the prompt text."""

    def predict_many(self, texts):
        means = np.array([float(len(t) % 97) for t in texts])
        variances = np.array([float(sum(map(ord, t[:40])) % 89) for t in texts])
        return means, variances


def slot_values(ph):
    """Every index value, read from the parsed programs and keyed by its
    place in section then pre-order, section, param and slot."""
    slots = [
        (section, param, slot, value)
        for section in SECTIONS
        for _, param, slot, value in ast_index_slots(parse(ph.programs[section]))
    ]
    return {(i, section, param, slot): value for i, (section, param, slot, value) in enumerate(slots)}


def test_08_neighborhood_combinatorics():
    base = builtin_template("pubmedqa")
    for seed in range(50):
        ph = render_phenotype(sample_ptc2(GRAMMAR, max_nodes=400, rng_seed=1000 + seed))
        sites = enumerate_sites(ph)
        if not sites:
            continue
        nb = build_neighborhood(ph, sites, bound=20, seed=seed, per_site=10)
        assert len(nb.neighbors) == 10 * len(sites)

        incumbent_slots = slot_values(ph)
        place = {site: i for i, site in enumerate(sites)}
        for n in nb.neighbors:
            changed = {
                key: val
                for key, val in slot_values(n.phenotype).items()
                if incumbent_slots[key] != val
            }
            key = (place[n.site], n.site.section, n.site.param, n.site.slot)
            assert changed == {key: n.value}
            assert incumbent_slots[key] == n.site.value
            n.prompt = apply_phenotype(base, n.phenotype, EDIT_CTX)

        out = screen(nb.neighbors, ArbitraryEnsemble(), LocalSearchSettings())
        assert len(out) == min(50, len(nb.neighbors))
        assert len({n.digest for n in out}) == len(out)


def test_08_best_candidate_never_loses_to_incumbent():
    base = builtin_template("pubmedqa")
    train_rows = Dataset(
        rows=[DataRow(id=f"t{i}", input=f"train q {i}", label="yes") for i in range(6)],
    )
    val_rows = Dataset(
        rows=[DataRow(id=f"v{i}", input=f"val q {i}", label="yes") for i in range(4)],
    )
    truth = {r.input: r.label for r in train_rows.rows + val_rows.rows}
    gateway = LlmGateway(LabelOracleBackend(truth))
    ensemble = SurrogateEnsemble(constant_models([0.5], dim=8), HashingEmbedder(dim=8))

    scored_runs = 0
    seed = 0
    while scored_runs < 6 and seed < 200:
        ph = render_phenotype(sample_ptc2(GRAMMAR, max_nodes=300, rng_seed=3000 + seed))
        seed += 1
        if not enumerate_sites(ph):
            continue
        result = run_local_search(
            ph,
            base,
            ensemble,
            EvalContext(TaskSettings(), gateway, train_rows, icl_k=0, lexicons=LEX),
            val_rows,
            settings=LocalSearchSettings(per_site=4),
            master_seed=seed,
        )
        if result.notice:
            assert result.best.is_incumbent
            continue
        incumbents = [c for c in result.ranking if c.is_incumbent]
        assert len(incumbents) == 1
        assert result.best.combined == max(c.combined for c in result.ranking)
        assert result.best.combined >= incumbents[0].combined
        scored_runs += 1
    assert scored_runs == 6


# --- 9 + 10. end-to-end synthetic improvement and elite monotonicity --------

JUNK = ("kwyjibo", "flurble", "snorkelblat")

SYNTHETIC_TEMPLATE = """== PERSONA ==
You are a flag inspector kwyjibo of long standing.
== TASK ==
Decide whether the flag is up.
## [Question]
__TASK_INPUT_0__
== OUTPUT ==
Respond as {'Answer': 'value'} only flurble and nothing else.
== ICL ==
## [Examples]
== COT ==
Think snorkelblat briefly before answering.
"""


def synthetic_answer_fn(label, prompt):
    """Grade a prompt: answers correctly only when junk words were edited out.

    The fraction of junk words removed sets how many cases (by index mod 3)
    receive the true label; the word 'Respond' must survive, so blanking the
    whole output section earns nothing.
    """
    if "Respond" not in prompt:
        return "format anchor missing"
    match = re.search(r"case (\d+)", prompt)
    if match is None:
        return "no case found"
    case_index = int(match.group(1))
    missing = sum(1 for junk in JUNK if junk not in prompt)
    if (case_index % len(JUNK)) < missing:
        return "{'Answer': '%s'}" % label
    return "cannot answer"


def synthetic_lexicons():
    base = default_lexicons()
    return Lexicons(
        stopwords=base.stopwords | frozenset(JUNK),
        synonyms={
            **base.synonyms,
            "kwyjibo": "diligent",
            "flurble": "strictly",
            "snorkelblat": "quite",
        },
    )


def make_synthetic_engine(seed):
    train_rows = Dataset(
        rows=[
            DataRow(id=f"t{i}", input=f"case {i}: is the flag up?", label="yes" if i % 2 else "no")
            for i in range(24)
        ],
    )
    val_rows = Dataset(
        rows=[
            DataRow(
                id=f"v{i}",
                input=f"case {24 + i}: is the flag up?",
                label="yes" if i % 2 else "no",
            )
            for i in range(12)
        ],
    )
    truth = {r.input: r.label for r in train_rows.rows + val_rows.rows}
    gateway = LlmGateway(LabelOracleBackend(truth, answer_fn=synthetic_answer_fn))
    settings = GpSettings(
        population_size=20,
        offspring_size=20,
        generations=10,
        max_nodes=120,
        sample_size=8,
        init_retries=3,
    )
    ctx = EvalContext(
        TaskSettings(), gateway, train_rows, icl_k=0, lexicons=synthetic_lexicons()
    )
    engine = EvolutionEngine(
        GRAMMAR,
        parse_template(SYNTHETIC_TEMPLATE),
        ctx,
        val_rows,
        settings=settings,
        master_seed=seed,
        journal=EvalJournal(),
    )
    return engine, val_rows


@pytest.fixture(scope="module")
def synthetic_sweep():
    start = time.monotonic()
    runs = []
    for seed in range(10):
        engine, _ = make_synthetic_engine(seed)
        result = engine.run()
        runs.append(
            {
                "initial": result.history[0]["champion_f_val"],
                "final": result.elite.f_val,
                "elite_series": [h["elite_f_val"] for h in result.history],
            }
        )
    return {"runs": runs, "elapsed": time.monotonic() - start}


def test_09_unedited_template_scores_zero():
    engine, val_rows = make_synthetic_engine(0)
    prompt = apply_phenotype(parse_template(SYNTHETIC_TEMPLATE), identity_phenotype(), engine.ctx)
    report = evaluate_prompt(prompt, val_rows.rows, engine.ctx)
    assert report.fitness == 0.0


def test_09_synthetic_end_to_end_improvement(synthetic_sweep):
    runs = synthetic_sweep["runs"]
    assert len(runs) == 10
    assert all(r["final"] >= r["initial"] for r in runs)
    strict = sum(1 for r in runs if r["final"] > r["initial"])
    assert strict >= 7
    assert synthetic_sweep["elapsed"] < 300.0


def test_10_elite_series_monotone(synthetic_sweep, cli_double_run):
    for r in synthetic_sweep["runs"]:
        series = r["elite_series"]
        assert all(a <= b for a, b in zip(series, series[1:]))
    report = json.loads(cli_double_run["report"])
    series = [g["elite_f_val"] for g in report["generations"]]
    assert all(a <= b for a, b in zip(series, series[1:]))


# --- 11. repeat runs are byte-identical --------------------------------------

CLI_TEMPLATE = """== PERSONA ==
You are a precise assistant.
== TASK ==
Answer the question.
## [Question]
__TASK_INPUT_0__
== OUTPUT ==
Reply exactly as {'Answer': 'value'}.
== ICL ==
## [Examples]
"""


def write_cli_setup(root, seed=11):
    root.mkdir()

    def write_jsonl(path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    train_rows = [
        {"id": f"t{i}", "input": f"training question {i}?", "label": "yes" if i % 2 else "no"}
        for i in range(8)
    ]
    val_rows = [
        {"id": f"v{i}", "input": f"validation question {i}?", "label": "yes" if i % 2 else "no"}
        for i in range(4)
    ]
    write_jsonl(root / "train.jsonl", train_rows)
    write_jsonl(root / "val.jsonl", val_rows)
    truth = {r["input"]: r["label"] for r in train_rows + val_rows}
    (root / "truth.json").write_text(json.dumps(truth))
    (root / "template.txt").write_text(CLI_TEMPLATE)
    (root / "run.ini").write_text(
        f"""
[run]
master_seed = {seed}

[task]
name = toy
template = {root / 'template.txt'}
train_data = {root / 'train.jsonl'}
val_data = {root / 'val.jsonl'}

[paths]
workdir = {root / 'work'}

[gateway]
backend = label_oracle
backend_data = {root / 'truth.json'}

[gp]
population_size = 6
offspring_size = 6
generations = 2
max_nodes = 60
sample_size = 4
init_retries = 3
"""
    )
    return root


@pytest.fixture(scope="module")
def cli_double_run(tmp_path_factory):
    root = write_cli_setup(tmp_path_factory.mktemp("acceptance") / "run")
    config = str(root / "run.ini")
    work = root / "work"
    tracked = ("journal.jsonl", "report.json", "elite_prompt.txt")

    assert main(["optimize", "--config", config]) == 0
    first = {name: (work / name).read_bytes() for name in tracked}
    shutil.rmtree(work)
    assert main(["optimize", "--config", config]) == 0
    second = {name: (work / name).read_bytes() for name in tracked}
    return {
        "first": first,
        "second": second,
        "report": second["report.json"].decode("utf-8"),
    }


def test_11_repeat_runs_byte_identical(cli_double_run):
    for name in ("journal.jsonl", "report.json", "elite_prompt.txt"):
        assert cli_double_run["first"][name] == cli_double_run["second"][name], name


# --- 12. shipped defaults ----------------------------------------------------


def test_12_shipped_defaults():
    dump = config_to_dict(RunConfig())
    assert dump["gp"]["population_size"] == 50
    assert dump["gp"]["offspring_size"] == 50
    assert dump["gp"]["generations"] == 20
    assert dump["gp"]["parent_tournament"] == 2
    assert dump["gp"]["survivor_tournament"] == 4
    assert dump["gp"]["max_nodes"] == 1024
    assert dump["gp"]["sample_size"] == 20
    assert dump["surrogate"]["submodels"] == 10
    assert dump["surrogate"]["epochs"] == 200
    assert dump["surrogate"]["train_fraction"] == 0.7
    assert dump["surrogate"]["cv_folds"] == 5
    assert dump["surrogate"]["cv_combos"] == 10
    assert dump["gateway"]["temperature"] == 0.0
    assert dump["gateway"]["max_new_tokens"] == 2048
