import numpy as np
import pytest

from promptgp.seeds import derive_seed
from promptgp.surrogate import (
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


def test_embedders_embed_no_texts_as_zero_rows(monkeypatch):
    assert HashingEmbedder(dim=16).embed_many([]).shape == (0, 16)
    bodies = remote_replying(monkeypatch, {"embeddings": []})
    assert RemoteEmbedder("http://embed.invalid/v1", dim=3).embed_many([]).shape == (0, 3)
    assert bodies == []  # nothing to embed, so nothing is sent


def test_embedder_seed_changes_buckets():
    a = HashingEmbedder(dim=512, seed=0).embed("some moderately long text here")
    b = HashingEmbedder(dim=512, seed=1).embed("some moderately long text here")
    assert not np.array_equal(a, b)


def test_embedder_rejects_bad_dim():
    with pytest.raises(SurrogateError):
        HashingEmbedder(dim=0)


class FakeReply:
    def __init__(self, payload):
        self.payload = payload

    def raise_for_status(self):
        pass

    def json(self):
        return self.payload


def remote_replying(monkeypatch, payload):
    import requests

    bodies = []

    def post(url, json=None, timeout=None):
        bodies.append(json)
        return FakeReply(payload)

    monkeypatch.setattr(requests, "post", post)
    return bodies


def test_remote_embedder_posts_one_text_and_normalises(monkeypatch):
    bodies = remote_replying(monkeypatch, {"embeddings": [[3.0, 0.0, 4.0], [0.0, 0.0, 0.0]]})
    X = RemoteEmbedder("http://embed.invalid/v1", dim=3).embed_many(["some prompt", "another"])
    assert bodies == [{"texts": ["some prompt", "another"]}]
    assert np.allclose(X, [[0.6, 0.0, 0.8], [0.0, 0.0, 0.0]])
    assert np.linalg.norm(X[0]) == pytest.approx(1.0)


def test_remote_embedder_rejects_wrong_dimension(monkeypatch):
    remote_replying(monkeypatch, {"embeddings": [[1.0, 2.0]]})
    with pytest.raises(SurrogateError, match="dimension"):
        RemoteEmbedder("http://embed.invalid/v1", dim=3).embed_many(["text"])


@pytest.mark.parametrize(
    "payload",
    [{}, {"embeddings": []}, {"embeddings": None}, [], None, {"embeddings": [[1, 2, 3], [4, 5, 6]]}],
)
def test_remote_embedder_malformed_reply_is_surrogate_error(monkeypatch, payload):
    remote_replying(monkeypatch, payload)
    with pytest.raises(SurrogateError, match="embeddings"):
        RemoteEmbedder("http://embed.invalid/v1", dim=3).embed_many(["text"])


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
    params = init_params(5, (4, 3, 1), rng)
    _, grads = loss_and_grads(params, X, y)
    eps = 1e-6
    for l, (W, b) in enumerate(params):
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


def validation_loss(models, X, y, seed, train_fraction=0.7):
    """Mean submodel MSE on the validation split that `fit_models` draws."""
    perm = np.random.default_rng(derive_seed(seed, "split")).permutation(len(y))
    val_idx = perm[min(max(int(round(train_fraction * len(y))), 1), len(y) - 1):]
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


def test_train_requires_min_points():
    emb = HashingEmbedder()
    X, y = embed_points(make_points(9), emb)
    with pytest.raises(SurrogateError, match="at least 10 data points"):
        train(X, y, SurrogateHp(), seed=0, embedder=emb)


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
    with pytest.raises(SurrogateError):
        tune_hyperparameters(X[:49], y[:49], seed=3, **kwargs)

