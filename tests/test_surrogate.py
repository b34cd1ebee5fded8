import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import LoopbackServer, refused_url

from promptgp.seeds import derive_seed
from promptgp.surrogate import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    HashingEmbedder,
    RemoteEmbedder,
    SurrogateEnsemble,
    SurrogateError,
    SurrogateHp,
    SurrogateSettings,
    cv_folds,
    fit_models,
    forward,
    hp_grid,
    init_params,
    loss_and_grads,
    mse,
    predict_params,
    train,
    tune_hyperparameters,
)


def test_embedder_deterministic_unit_norm():
    emb = HashingEmbedder(dim=64, seed=3)
    a = emb.embed("the quick brown fox")
    b = emb.embed("the quick brown fox")
    assert np.array_equal(a, b)
    assert a.shape == (64,)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_embedder_grams_are_unigrams_and_bigrams():
    emb = HashingEmbedder()
    assert emb.grams("The quick fox!") == ["the", "quick", "fox", "the quick", "quick fox"]
    assert emb.grams("") == []


def test_embedder_empty_text_is_zero_vector():
    vec = HashingEmbedder(dim=16).embed("")
    assert np.array_equal(vec, np.zeros(16))


def test_embedders_embed_no_texts_as_zero_rows(server):
    assert HashingEmbedder(dim=16).embed_many([]).shape == (0, 16)
    assert remote_replying(server, {"embeddings": []}).embed_many([]).shape == (0, 3)
    assert (server.bodies, server.opened) == ([], 0)  # nothing to embed, so nothing is sent


def test_embedder_seed_changes_buckets():
    a = HashingEmbedder(dim=512, seed=0).embed("some moderately long text here")
    b = HashingEmbedder(dim=512, seed=1).embed("some moderately long text here")
    assert not np.array_equal(a, b)


def test_embedder_rejects_bad_dim():
    with pytest.raises(SurrogateError):
        HashingEmbedder(dim=0)


@pytest.fixture
def server():
    with LoopbackServer() as srv:
        yield srv


def remote_replying(server, payload):
    """An embedder whose endpoint answers every POST with `payload` as JSON."""
    server.respond = lambda: (200, {}, json.dumps(payload).encode())
    return RemoteEmbedder(server.url("/v1/embed"), dim=3)


def test_remote_embedder_posts_one_text_and_normalises(server):
    embedder = remote_replying(server, {"embeddings": [[3.0, 0.0, 4.0], [0.0, 0.0, 0.0]]})
    X = embedder.embed_many(["some prompt", "another"])
    assert server.bodies == [{"texts": ["some prompt", "another"]}]
    assert np.allclose(X, [[0.6, 0.0, 0.8], [0.0, 0.0, 0.0]])
    assert np.linalg.norm(X[0]) == pytest.approx(1.0)
    assert server.wait_all_closed()  # no connection outlives its POST


def test_predict_many_embeds_each_distinct_text_once():
    embedder = HashingEmbedder(dim=32, seed=1)
    models = [init_params(32, (8, 1), np.random.default_rng(seed)) for seed in range(3)]
    texts = ["b c", "a b", "b c", "c d", "a b", "b c"]
    embedded, embed = [], embedder.embed
    embedder.embed = lambda text: embedded.append(text) or embed(text)
    means, variances = SurrogateEnsemble(models, embedder).predict_many(texts)
    assert embedded == ["b c", "a b", "c d"]  # first-seen order
    # Bitwise what embedding every text and predicting on those rows gives.
    outputs = np.stack([predict_params(p, np.array([embed(t) for t in texts])) for p in models])
    assert means.tobytes() == outputs.mean(axis=0).tobytes()
    assert variances.tobytes() == outputs.var(axis=0).tobytes()


def test_predict_many_posts_each_distinct_text_once(server):
    embedder = remote_replying(server, {"embeddings": [[3.0, 0.0, 4.0], [0.0, 1.0, 0.0]]})
    models = [[[np.array([[1.0], [2.0], [3.0]]), np.array([0.5])]]]
    means, _ = SurrogateEnsemble(models, embedder).predict_many(["x", "y", "x"])
    assert server.bodies == [{"texts": ["x", "y"]}]
    assert means.tolist() == pytest.approx([3.5, 2.5, 3.5])


def test_remote_embedder_rejects_wrong_dimension(server):
    with pytest.raises(SurrogateError, match="dimension"):
        remote_replying(server, {"embeddings": [[1.0, 2.0]]}).embed_many(["text"])


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"embeddings": []},
        {"embeddings": None},
        [],
        None,
        {"embeddings": [[1, 2, 3], [4, 5, 6]]},
        {"embeddings": [[float("nan"), 0.0, 1.0]]},  # sent as NaN, which json parses
        {"embeddings": [[1.0, float("inf"), 0.0]]},
        {"embeddings": [[0.0, 1.0, -float("inf")]]},
    ],
)
def test_remote_embedder_malformed_reply_is_surrogate_error(server, payload):
    embedder = remote_replying(server, payload)
    with pytest.raises(SurrogateError, match="embeddings") as exc:
        embedder.embed_many(["text"])
    assert embedder.endpoint in str(exc.value)


@pytest.mark.parametrize(
    "reply",
    [(500, {}, b""), (302, {"Location": "/elsewhere"}, b""), b"garbage\r\n\r\n", None],
    ids=["server-error", "redirect", "garbled", "refused"],
)
def test_remote_embedder_transport_failure_is_surrogate_error_naming_the_endpoint(server, reply):
    if reply is None:
        endpoint = refused_url("/v1/embed")
    else:
        server.respond = lambda: reply
        endpoint = server.url("/v1/embed")
    with pytest.raises(SurrogateError, match=re.escape(endpoint)):
        RemoteEmbedder(endpoint, dim=3).embed_many(["text"])
    assert server.wait_all_closed()


def test_hp_validation():
    with pytest.raises(SurrogateError):
        SurrogateHp(widths=(128, 2))
    with pytest.raises(SurrogateError):
        SurrogateHp(dropout=1.0)
    with pytest.raises(SurrogateError):
        SurrogateHp(batch=0)
    with pytest.raises(SurrogateError):
        SurrogateHp(lr=0.0)


def test_init_params_shapes_and_bounds():
    rng = np.random.default_rng(0)
    params = init_params(10, (8, 4, 1), rng)
    shapes = [(W.shape, b.shape) for W, b in params]
    assert shapes == [((10, 8), (8,)), ((8, 4), (4,)), ((4, 1), (1,))]
    for (W, b), fan_in in zip(params, (10, 8, 4)):
        limit = np.sqrt(6.0 / (fan_in + W.shape[1]))
        assert np.all(np.abs(W) <= limit)
        assert np.all(b == 0.0)


def test_forward_linear_single_layer():
    params = [[np.array([[2.0], [0.5]]), np.array([1.0])]]
    X = np.array([[1.0, 2.0], [0.0, 4.0]])
    pred, _ = forward(params, X)
    assert np.allclose(pred, [4.0, 3.0])


def test_forward_tanh_hidden_layer():
    params = [
        [np.array([[1.0]]), np.array([0.0])],
        [np.array([[2.0]]), np.array([0.5])],
    ]
    X = np.array([[0.5]])
    pred, _ = forward(params, X)
    assert pred[0] == pytest.approx(2.0 * np.tanh(0.5) + 0.5)


def test_mse():
    assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(2.5)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 5))
    y = rng.normal(size=6)
    single = (init_params(5, (4, 3, 1), rng), X, y)
    # Three models stacked over a leading axis, each with data of its own.
    models = [init_params(5, (4, 3, 1), rng) for _ in range(3)]
    stacked = (
        [[np.stack(arrays) for arrays in zip(*layers)] for layers in zip(*models)],
        rng.normal(size=(3, 6, 5)),
        rng.normal(size=(3, 6)),
    )
    eps = 1e-6
    for params, X, y in (single, stacked):
        _, grads = loss_and_grads(params, X, y)
        for l, (W, b) in enumerate(params):
            for arr_i, arr in enumerate((W, b)):
                assert grads[l][arr_i].shape == arr.shape
                flat = arr.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + eps
                    up = loss_and_grads(params, X, y)[0]
                    flat[k] = orig - eps
                    down = loss_and_grads(params, X, y)[0]
                    flat[k] = orig
                    numeric = (up - down) / (2 * eps)
                    analytic = grads[l][arr_i].ravel()[k]
                    scale = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / scale < 1e-4


def test_adam_first_step_moves_against_gradient_sign():
    params = [[np.array([[1.0]]), np.array([0.0])]]
    grads = [[np.array([[0.5]]), np.array([-2.0])]]
    adam = AdamState(params)
    adam.step(params, grads, lr=0.01)
    # With bias correction the first step is about lr * sign(grad).
    assert params[0][0][0, 0] == pytest.approx(1.0 - 0.01, abs=1e-6)
    assert params[0][1][0] == pytest.approx(0.01, abs=1e-6)
    assert adam.t == 1


def constant_models(values):
    return [[[np.zeros((4, 1)), np.array([float(v)])]] for v in values]


def test_ensemble_mean_and_population_variance():
    values = [i / 10 for i in range(10)]
    ens = SurrogateEnsemble(constant_models(values), HashingEmbedder(dim=4))
    mean, var = ens.predict("any text at all")
    assert mean == pytest.approx(0.45)
    assert var == pytest.approx(0.0825)


def test_predict_many_shapes():
    ens = SurrogateEnsemble(constant_models([0.5, 0.5]), HashingEmbedder(dim=4))
    means, variances = ens.predict_many(["a", "b", "c"])
    assert means.shape == variances.shape == (3,)
    assert np.allclose(means, 0.5)
    assert np.allclose(variances, 0.0)


def make_points(n, seed=0):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    points = []
    for _ in range(n):
        text = " ".join(rng.choice(words, size=6))
        points.append((text, float(rng.random())))
    return points


def embed_points(points, embedder):
    X = np.stack([embedder.embed(t) for t, _ in points])
    y = np.asarray([v for _, v in points])
    return X, y


def split_indices(n, seed, train_fraction=0.7):
    perm = np.random.default_rng(derive_seed(seed, "split")).permutation(n)
    n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
    return perm[:n_train], perm[n_train:]


def validation_loss(models, X, y, seed):
    """Mean submodel MSE on the validation split that `fit_models` draws."""
    _, val_idx = split_indices(len(y), seed)
    return float(np.mean([mse(predict_params(p, X[val_idx]), y[val_idx]) for p in models]))


# A learning rate this high overshoots: the validation loss bottoms out and
# rises again before the last epoch, so the best epoch is not the last one.
OVERSHOOT_HP = SurrogateHp(widths=(8, 1), dropout=0.0, batch=8, lr=0.1)


def test_fit_models_deterministic_and_snapshots_best_epoch():
    X, y = embed_points(make_points(30), HashingEmbedder(dim=32))
    epochs = 12
    settings = SurrogateSettings(submodels=3)
    models_a = fit_models(X, y, OVERSHOOT_HP, seed=5, settings=settings, epochs=epochs)
    models_b = fit_models(X, y, OVERSHOOT_HP, seed=5, settings=settings, epochs=epochs)
    for pa, pb in zip(models_a, models_b):
        for (Wa, ba), (Wb, bb) in zip(pa, pb):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
    # A shorter run replays a prefix of the same trajectory, so the least
    # loss over all prefixes is the least loss over every epoch.
    prefix_losses = [
        validation_loss(fit_models(X, y, OVERSHOOT_HP, seed=5, settings=settings, epochs=e), X, y, 5)
        for e in range(1, epochs + 1)
    ]
    assert validation_loss(models_a, X, y, 5) == min(prefix_losses)


# --- the one-model-at-a-time trainer, kept as the reference for fit_models --


def reference_forward(params, X, dropout=0.0, rng=None):
    caches = []
    act = X
    last = len(params) - 1
    for l, (W, b) in enumerate(params):
        z = act @ W + b
        if l < last:
            t = np.tanh(z)
            mask = (rng.random(t.shape) >= dropout) / (1.0 - dropout) if dropout > 0.0 else None
            caches.append((act, t, mask))
            act = t if mask is None else t * mask
        else:
            caches.append((act, None, None))
            act = z
    return act[:, 0], caches


def reference_grads(params, X, y, dropout, rng):
    pred, caches = reference_forward(params, X, dropout, rng)
    grads = [None] * len(params)
    delta = (2.0 / len(y)) * (pred - y)[:, None]
    for l in range(len(params) - 1, -1, -1):
        act_in, t, mask = caches[l]
        if t is not None:
            if mask is not None:
                delta = delta * mask
            delta = delta * (1.0 - t * t)
        grads[l] = [act_in.T @ delta, delta.sum(axis=0)]
        if l > 0:
            delta = delta @ params[l][0].T
    return grads


def reference_adam_step(params, grads, m, v, step, lr):
    """Textbook Adam: every expression makes a new array."""
    correction1, correction2 = 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step
    for layer, glayer, mlayer, vlayer in zip(params, grads, m, v):
        for i, g in enumerate(glayer):
            mlayer[i] = ADAM_BETA1 * mlayer[i] + (1.0 - ADAM_BETA1) * g
            vlayer[i] = ADAM_BETA2 * vlayer[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = mlayer[i] / correction1
            v_hat = vlayer[i] / correction2
            layer[i] = layer[i] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def reference_fit_models(X, y, hp, seed, settings, epochs):
    """fit_models with each submodel trained alone, one after another in every epoch."""
    n = len(y)
    perm = np.random.default_rng(derive_seed(seed, "split")).permutation(n)
    n_train = min(max(int(round(settings.train_fraction * n)), 1), n - 1)
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    models = []
    for i in range(settings.submodels):
        rng = np.random.default_rng(derive_seed(seed, "submodel", i))
        boot = rng.integers(0, n_train, n_train)
        params = init_params(X.shape[1], hp.widths, rng)
        m, v = ([[np.zeros_like(a) for a in layer] for layer in params] for _ in range(2))
        models.append(SimpleNamespace(params=params, m=m, v=v, steps=0, rng=rng,
                                      X=X[train_idx][boot], y=y[train_idx][boot]))
    best_loss, best = float("inf"), None
    for _ in range(epochs):
        for model in models:
            order = model.rng.permutation(n_train)
            for start in range(0, n_train, hp.batch):
                idx = order[start : start + hp.batch]
                grads = reference_grads(model.params, model.X[idx], model.y[idx], hp.dropout, model.rng)
                model.steps += 1
                reference_adam_step(model.params, grads, model.m, model.v, model.steps, hp.lr)
        val_loss = float(np.mean(
            [mse(reference_forward(model.params, X[val_idx])[0], y[val_idx]) for model in models]
        ))
        if val_loss < best_loss:
            best_loss = val_loss
            best = [[[a.copy() for a in layer] for layer in model.params] for model in models]
    return best


def hashed_inputs(n, dim):
    return embed_points(make_points(n, seed=n), HashingEmbedder(dim=dim))


def val_only_column_inputs(n):
    """A column that is nonzero in validation rows only."""
    X, y = hashed_inputs(n, 24)
    train_idx, val_idx = split_indices(n, seed=n)
    X[train_idx, 5] = 0.0
    X[val_idx, 5] = 0.5
    return X, y


def empty_text_inputs(n):
    """One all-zero row: the embedding of an empty text."""
    emb = HashingEmbedder(dim=64)
    return embed_points([("", 0.25), *make_points(n - 1, seed=n)], emb)


def dense_inputs(n):
    """Every column is nonzero in every row, so the first layer trains whole."""
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 24))
    return X / np.linalg.norm(X, axis=1, keepdims=True), rng.random(n)


# (name, points, submodels, inputs): 21 and 35 training points are multiples
# of neither batch size.
EQUIVALENCE_INPUTS = [
    ("hashed-24", 30, 3, lambda n: hashed_inputs(n, 24)),
    ("hashed-24-single", 50, 1, lambda n: hashed_inputs(n, 24)),
    ("hashed-64", 30, 3, lambda n: hashed_inputs(n, 64)),
    ("val-only-column", 30, 3, val_only_column_inputs),
    ("empty-text", 30, 2, empty_text_inputs),
    ("dense", 30, 3, dense_inputs),
]


@pytest.mark.parametrize(
    "hp", hp_grid(), ids=lambda hp: f"w{len(hp.widths)}-d{hp.dropout}-b{hp.batch}-lr{hp.lr}"
)
def test_fit_models_is_bitwise_the_reference_trainer(hp):
    unreached_rows = {}
    for name, n, submodels, make_inputs in EQUIVALENCE_INPUTS:
        X, y = make_inputs(n)
        settings = SurrogateSettings(submodels=submodels)
        got = fit_models(X, y, hp, seed=n, settings=settings, epochs=3)
        want = reference_fit_models(X, y, hp, seed=n, settings=settings, epochs=3)
        assert len(got) == len(want) == submodels
        for model_got, model_want in zip(got, want):
            for (W, b), (W_ref, b_ref) in zip(model_got, model_want, strict=True):
                assert W.tobytes() == W_ref.tobytes() and b.tobytes() == b_ref.tobytes()
        # A first-layer row that no training input reaches keeps its initial draw.
        train_idx, _ = split_indices(n, seed=n)
        unreached = np.flatnonzero(~X[train_idx].any(axis=0))
        unreached_rows[name] = len(unreached)
        for i, model in enumerate(got):
            rng = np.random.default_rng(derive_seed(n, "submodel", i))
            rng.integers(0, len(train_idx), len(train_idx))  # the bootstrap comes first
            W0 = init_params(X.shape[1], hp.widths, rng)[0][0]
            assert model[0][0][unreached].tobytes() == W0[unreached].tobytes()
    assert unreached_rows["hashed-64"] >= 16 and unreached_rows["dense"] == 0
    assert unreached_rows["val-only-column"] >= 1


def test_train_returns_working_ensemble():
    emb = HashingEmbedder(dim=32)
    X, y = embed_points(make_points(20), emb)
    settings = SurrogateSettings(submodels=2, epochs=8)
    ens = train(X, y, OVERSHOOT_HP, seed=1, embedder=emb, settings=settings)
    mean, var = ens.predict("alpha beta gamma")
    assert np.isfinite(mean) and var >= 0.0
    assert ens.embedder is emb
    prefix_losses = [
        validation_loss(fit_models(X, y, OVERSHOOT_HP, seed=1, settings=settings, epochs=e), X, y, 1)
        for e in range(1, 9)
    ]
    assert validation_loss(ens.models, X, y, 1) == min(prefix_losses)


def test_hp_grid_size_and_order():
    grid = hp_grid()
    assert len(grid) == 48
    assert len(set(grid)) == 48
    assert grid[0] == SurrogateHp(widths=(128, 1), dropout=0.0, batch=16, lr=1e-4)
    # Learning rate varies fastest, then batch, then dropout, then widths.
    assert grid[1] == SurrogateHp(widths=(128, 1), dropout=0.0, batch=16, lr=1e-3)
    assert grid[2] == SurrogateHp(widths=(128, 1), dropout=0.0, batch=32, lr=1e-4)


def test_cv_folds_partition():
    folds = cv_folds(23, 5, seed=9)
    assert len(folds) == 5
    combined = np.sort(np.concatenate(folds))
    assert np.array_equal(combined, np.arange(23))
    again = cv_folds(23, 5, seed=9)
    for a, b in zip(folds, again):
        assert np.array_equal(a, b)


def test_tune_hyperparameters_deterministic_choice_from_grid():
    X, y = embed_points(make_points(50), HashingEmbedder(dim=16))
    kwargs = dict(settings=SurrogateSettings(cv_folds=2, cv_combos=2, submodels=1, cv_epochs=2))
    hp_a = tune_hyperparameters(X, y, seed=3, **kwargs)
    hp_b = tune_hyperparameters(X, y, seed=3, **kwargs)
    assert hp_a == hp_b
    assert hp_a in hp_grid()

