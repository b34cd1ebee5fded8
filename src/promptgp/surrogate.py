"""Ensemble fitness predictor: hashed text embedding + 10 small MLPs.

The embedding is a feature-hashed bag of word 1- and 2-grams (L2
normalized).  Each submodel is a tanh MLP with dropout trained by
hand-written backprop and Adam on a bootstrap resample; the ensemble
snapshot is taken at the epoch with minimal mean validation loss.
Prediction returns the submodel mean and population variance.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .seeds import derive_seed

WIDTHS_GRID: tuple[tuple[int, ...], ...] = ((128, 1), (128, 64, 1), (128, 64, 32, 1))
DROPOUT_GRID: tuple[float, ...] = (0.0, 0.1, 0.2, 0.5)
BATCH_GRID: tuple[int, ...] = (16, 32)
LR_GRID: tuple[float, ...] = (1e-4, 1e-3)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MIN_TRAIN_POINTS = 10
MIN_TUNE_POINTS = 50


class SurrogateError(ValueError):
    pass


class Embedder(Protocol):
    name: str
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


_TOKEN_RE = re.compile(r"[a-z0-9]+")


class HashingEmbedder:
    """Deterministic bag of word 1-/2-grams hashed into `dim` buckets."""

    name = "hashing"

    def __init__(self, dim: int = 384, seed: int = 0):
        if dim < 1:
            raise SurrogateError("embedding dimension must be positive")
        self.dim = dim
        self.seed = seed

    def grams(self, text: str) -> list[str]:
        tokens = _TOKEN_RE.findall(text.lower())
        return tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]

    def bucket(self, gram: str) -> int:
        digest = hashlib.blake2b(f"{self.seed}:{gram}".encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for gram in self.grams(text):
            vec[self.bucket(gram)] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


class RemoteEmbedder:
    """Embedding-endpoint client: POST {"texts": [...]} -> {"embeddings": [[...]]}."""

    name = "remote"

    def __init__(self, endpoint: str, dim: int = 384, timeout: float = 60.0):
        self.endpoint = endpoint
        self.dim = dim
        self.timeout = timeout
        self.seed = 0

    def embed(self, text: str) -> np.ndarray:
        import requests

        reply = requests.post(self.endpoint, json={"texts": [text]}, timeout=self.timeout)
        reply.raise_for_status()
        vec = np.asarray(reply.json()["embeddings"][0], dtype=np.float64)
        if vec.shape != (self.dim,):
            raise SurrogateError(f"endpoint returned dimension {vec.shape}, expected {self.dim}")
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


@dataclass(frozen=True)
class SurrogateHp:
    widths: tuple[int, ...] = (128, 64, 1)
    dropout: float = 0.1
    batch: int = 32
    lr: float = 1e-3

    def __post_init__(self) -> None:
        if self.widths[-1] != 1:
            raise SurrogateError("output layer width must be 1")
        if not 0.0 <= self.dropout < 1.0:
            raise SurrogateError("dropout must be in [0, 1)")
        if self.batch < 1 or self.lr <= 0.0:
            raise SurrogateError("batch must be >= 1 and lr > 0")


Params = list[list[np.ndarray]]  # per layer: [W (in, out), b (out,)]


def init_params(in_dim: int, widths: Sequence[int], rng: np.random.Generator) -> Params:
    params: Params = []
    dims = [in_dim, *widths]
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append([rng.uniform(-limit, limit, (fan_in, fan_out)), np.zeros(fan_out)])
    return params


def forward(
    params: Params,
    X: np.ndarray,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, list]:
    """Hidden layers are tanh (+ inverted dropout when training); output is linear."""
    caches = []
    act = X
    last = len(params) - 1
    for l, (W, b) in enumerate(params):
        z = act @ W + b
        if l < last:
            t = np.tanh(z)
            if dropout > 0.0 and rng is not None:
                mask = (rng.random(t.shape) >= dropout) / (1.0 - dropout)
            else:
                mask = None
            caches.append((act, t, mask))
            act = t if mask is None else t * mask
        else:
            caches.append((act, None, None))
            act = z
    return act[:, 0], caches


def predict_params(params: Params, X: np.ndarray) -> np.ndarray:
    return forward(params, X)[0]


def mse(pred: np.ndarray, y: np.ndarray) -> float:
    diff = pred - y
    return float(diff @ diff / len(y))


def loss_and_grads(
    params: Params,
    X: np.ndarray,
    y: np.ndarray,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, Params]:
    pred, caches = forward(params, X, dropout=dropout, rng=rng)
    n = len(y)
    loss = mse(pred, y)
    grads: Params = [[np.zeros_like(W), np.zeros_like(b)] for W, b in params]
    delta = (2.0 / n) * (pred - y)[:, None]
    for l in range(len(params) - 1, -1, -1):
        act_in, t, mask = caches[l]
        if t is not None:
            if mask is not None:
                delta = delta * mask
            delta = delta * (1.0 - t * t)
        grads[l][0] = act_in.T @ delta
        grads[l][1] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ params[l][0].T
    return loss, grads


class AdamState:
    def __init__(self, params: Params):
        self.m = [[np.zeros_like(a) for a in layer] for layer in params]
        self.v = [[np.zeros_like(a) for a in layer] for layer in params]
        self.t = 0

    def step(self, params: Params, grads: Params, lr: float) -> None:
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        for layer, glayer, mlayer, vlayer in zip(params, grads, self.m, self.v):
            for i in range(len(layer)):
                g = glayer[i]
                mlayer[i] = ADAM_BETA1 * mlayer[i] + (1.0 - ADAM_BETA1) * g
                vlayer[i] = ADAM_BETA2 * vlayer[i] + (1.0 - ADAM_BETA2) * g * g
                m_hat = mlayer[i] / correction1
                v_hat = vlayer[i] / correction2
                layer[i] = layer[i] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _copy_params(params: Params) -> Params:
    return [[a.copy() for a in layer] for layer in params]


@dataclass
class _SubmodelState:
    params: Params
    adam: AdamState
    rng: np.random.Generator
    X: np.ndarray
    y: np.ndarray


def _run_epoch(state: _SubmodelState, hp: SurrogateHp) -> None:
    order = state.rng.permutation(len(state.y))
    for start in range(0, len(order), hp.batch):
        idx = order[start : start + hp.batch]
        _, grads = loss_and_grads(
            state.params, state.X[idx], state.y[idx], dropout=hp.dropout, rng=state.rng
        )
        state.adam.step(state.params, grads, hp.lr)


def fit_models(
    X: np.ndarray,
    y: np.ndarray,
    hp: SurrogateHp,
    seed: int,
    submodels: int = 10,
    epochs: int = 200,
    train_fraction: float = 0.7,
) -> tuple[list[Params], int, list[float]]:
    """Train the ensemble; return (models at best epoch, best epoch, val-loss history)."""
    n = len(y)
    if n < 2:
        raise SurrogateError("need at least 2 data points to split")
    split_rng = np.random.default_rng(derive_seed(seed, "split"))
    perm = split_rng.permutation(n)
    n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    X_val, y_val = X[val_idx], y[val_idx]

    states: list[_SubmodelState] = []
    for i in range(submodels):
        rng = np.random.default_rng(derive_seed(seed, "submodel", i))
        boot = rng.integers(0, n_train, n_train)
        params = init_params(X.shape[1], hp.widths, rng)
        states.append(_SubmodelState(params, AdamState(params), rng, X[train_idx][boot], y[train_idx][boot]))

    best_loss = float("inf")
    best_epoch = -1
    best_params: Optional[list[Params]] = None
    history: list[float] = []
    for epoch in range(epochs):
        for state in states:
            _run_epoch(state, hp)
        val_loss = float(np.mean([mse(predict_params(s.params, X_val), y_val) for s in states]))
        history.append(val_loss)
        if val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            best_params = [_copy_params(s.params) for s in states]
    if best_params is None:
        best_params = [_copy_params(s.params) for s in states]
    return best_params, best_epoch, history


@dataclass
class SurrogateEnsemble:
    models: list[Params]
    embedder: Embedder
    hp: SurrogateHp
    best_epoch: int = -1
    val_history: tuple[float, ...] = ()

    def predict_embedded(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        outputs = np.stack([predict_params(params, X) for params in self.models])
        return outputs.mean(axis=0), outputs.var(axis=0)

    def predict_many(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        X = np.stack([self.embedder.embed(t) for t in texts])
        return self.predict_embedded(X)

    def predict(self, text: str) -> tuple[float, float]:
        means, variances = self.predict_many([text])
        return float(means[0]), float(variances[0])


JournalPoints = Sequence[tuple[str, float]]


def train(
    points: JournalPoints,
    hp: SurrogateHp,
    seed: int,
    embedder: Optional[Embedder] = None,
    submodels: int = 10,
    epochs: int = 200,
    train_fraction: float = 0.7,
) -> SurrogateEnsemble:
    if len(points) < MIN_TRAIN_POINTS:
        raise SurrogateError(f"need at least {MIN_TRAIN_POINTS} data points, got {len(points)}")
    embedder = embedder or HashingEmbedder()
    X = np.stack([embedder.embed(text) for text, _ in points])
    y = np.asarray([target for _, target in points], dtype=np.float64)
    models, best_epoch, history = fit_models(
        X, y, hp, seed,
        submodels=submodels, epochs=epochs, train_fraction=train_fraction,
    )
    return SurrogateEnsemble(models, embedder, hp, best_epoch, tuple(history))


def hp_grid() -> list[SurrogateHp]:
    return [
        SurrogateHp(widths=w, dropout=d, batch=b, lr=lr)
        for w, d, b, lr in itertools.product(WIDTHS_GRID, DROPOUT_GRID, BATCH_GRID, LR_GRID)
    ]


def cv_folds(n: int, folds: int, seed: int) -> list[np.ndarray]:
    perm = np.random.default_rng(derive_seed(seed, "folds")).permutation(n)
    return [fold for fold in np.array_split(perm, folds) if len(fold)]


def tune_hyperparameters(
    points: JournalPoints,
    seed: int,
    embedder: Optional[Embedder] = None,
    folds: int = 5,
    combos: int = 10,
    submodels: int = 10,
    epochs: int = 200,
    train_fraction: float = 0.7,
) -> SurrogateHp:
    """Sample unique grid combos; pick the one with the lowest 5-fold CV MSE."""
    if len(points) < MIN_TUNE_POINTS:
        raise SurrogateError(f"need at least {MIN_TUNE_POINTS} data points, got {len(points)}")
    embedder = embedder or HashingEmbedder()
    X = np.stack([embedder.embed(text) for text, _ in points])
    y = np.asarray([target for _, target in points], dtype=np.float64)

    grid = hp_grid()
    rng = random.Random(derive_seed(seed, "hp"))
    sampled = rng.sample(grid, min(combos, len(grid)))
    partitions = cv_folds(len(y), folds, seed)

    best_hp = sampled[0]
    best_score = float("inf")
    for combo_index, hp in enumerate(sampled):
        fold_scores = []
        for fold_index, held_out in enumerate(partitions):
            train_idx = np.setdiff1d(np.arange(len(y)), held_out)
            models, _, _ = fit_models(
                X[train_idx], y[train_idx], hp,
                derive_seed(seed, "cv", combo_index, fold_index),
                submodels=submodels, epochs=epochs, train_fraction=train_fraction,
            )
            fold_scores.append(
                float(np.mean([mse(predict_params(p, X[held_out]), y[held_out]) for p in models]))
            )
        score = float(np.mean(fold_scores))
        if score < best_score:
            best_score = score
            best_hp = hp
    return best_hp


SERIALIZATION_VERSION = 1


def save_ensemble(ens: SurrogateEnsemble, path: str) -> None:
    meta = {
        "version": SERIALIZATION_VERSION,
        "hp": {
            "widths": list(ens.hp.widths),
            "dropout": ens.hp.dropout,
            "batch": ens.hp.batch,
            "lr": ens.hp.lr,
        },
        "embedder": {
            "name": ens.embedder.name,
            "dim": ens.embedder.dim,
            "seed": getattr(ens.embedder, "seed", 0),
        },
        "submodels": len(ens.models),
        "layers": len(ens.models[0]),
        "best_epoch": ens.best_epoch,
        "val_history": list(ens.val_history),
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for i, params in enumerate(ens.models):
        for l, (W, b) in enumerate(params):
            arrays[f"W_{i}_{l}"] = W
            arrays[f"b_{i}_{l}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_ensemble(path: str, embedder: Optional[Embedder] = None) -> SurrogateEnsemble:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"].tolist()).decode("utf-8"))
        if meta["version"] != SERIALIZATION_VERSION:
            raise SurrogateError(f"unsupported ensemble file version {meta['version']}")
        models: list[Params] = []
        for i in range(meta["submodels"]):
            models.append([[data[f"W_{i}_{l}"], data[f"b_{i}_{l}"]] for l in range(meta["layers"])])
    hp = SurrogateHp(
        widths=tuple(meta["hp"]["widths"]),
        dropout=meta["hp"]["dropout"],
        batch=meta["hp"]["batch"],
        lr=meta["hp"]["lr"],
    )
    if embedder is None:
        if meta["embedder"]["name"] != "hashing":
            raise SurrogateError("non-hashing embedder requires an explicit embedder argument")
        embedder = HashingEmbedder(dim=meta["embedder"]["dim"], seed=meta["embedder"]["seed"])
    return SurrogateEnsemble(
        models, embedder, hp,
        best_epoch=meta["best_epoch"], val_history=tuple(meta["val_history"]),
    )
