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


@dataclass
class SurrogateSettings:
    submodels: int = 10
    epochs: int = 200
    train_fraction: float = 0.7
    cv_folds: int = 5
    cv_combos: int = 10
    cv_epochs: int = 200
    embedder: str = "hashing"
    dim: int = 384
    endpoint: str = ""


class Embedder(Protocol):
    dim: int

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One unit-norm row of length `dim` per text."""


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _normalise(vec: np.ndarray) -> np.ndarray:
    """Scale `vec` to unit length in place; a zero vector stays zero."""
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


class HashingEmbedder:
    """Deterministic bag of word 1-/2-grams hashed into `dim` buckets."""

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
        return _normalise(vec)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        return np.array([self.embed(t) for t in texts]).reshape(len(texts), self.dim)


class RemoteEmbedder:
    """Embedding-endpoint client: POST {"texts": [...]} -> {"embeddings": [[...]]},
    one POST per batch."""

    def __init__(self, endpoint: str, dim: int = 384, timeout: float = 60.0):
        self.endpoint = endpoint
        self.dim = dim
        self.timeout = timeout

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.empty((0, self.dim))
        import requests

        reply = requests.post(self.endpoint, json={"texts": list(texts)}, timeout=self.timeout)
        reply.raise_for_status()
        try:
            X = np.asarray(reply.json()["embeddings"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise SurrogateError(f"endpoint reply has no numeric embeddings: {exc!r}") from exc
        if X.shape != (len(texts), self.dim):
            raise SurrogateError(
                f"endpoint returned embeddings of shape {X.shape};"
                f" expected {len(texts)} rows of dimension {self.dim}"
            )
        for row in X:
            _normalise(row)
        return X


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
    settings: SurrogateSettings,
    epochs: int,
) -> list[Params]:
    """Train the ensemble for `epochs` (`cv_epochs` in CV, `epochs` in the
    final fit); return the models at the epoch of least validation loss."""
    n = len(y)
    if n < 2:
        raise SurrogateError("need at least 2 data points to split")
    split_rng = np.random.default_rng(derive_seed(seed, "split"))
    perm = split_rng.permutation(n)
    n_train = min(max(int(round(settings.train_fraction * n)), 1), n - 1)
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    X_val, y_val = X[val_idx], y[val_idx]

    states: list[_SubmodelState] = []
    for i in range(settings.submodels):
        rng = np.random.default_rng(derive_seed(seed, "submodel", i))
        boot = rng.integers(0, n_train, n_train)
        params = init_params(X.shape[1], hp.widths, rng)
        states.append(_SubmodelState(params, AdamState(params), rng, X[train_idx][boot], y[train_idx][boot]))

    best_loss = float("inf")
    best_params: Optional[list[Params]] = None
    for _ in range(epochs):
        for state in states:
            _run_epoch(state, hp)
        val_loss = float(np.mean([mse(predict_params(s.params, X_val), y_val) for s in states]))
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = [_copy_params(s.params) for s in states]
    if best_params is None:
        best_params = [_copy_params(s.params) for s in states]
    return best_params


@dataclass
class SurrogateEnsemble:
    models: list[Params]
    embedder: Embedder

    def predict_many(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        X = self.embedder.embed_many(texts)
        outputs = np.stack([predict_params(params, X) for params in self.models])
        return outputs.mean(axis=0), outputs.var(axis=0)

    def predict(self, text: str) -> tuple[float, float]:
        means, variances = self.predict_many([text])
        return float(means[0]), float(variances[0])


def require_points(n: int, minimum: int) -> None:
    if n < minimum:
        raise SurrogateError(f"need at least {minimum} data points, got {n}")


def train(
    X: np.ndarray,
    y: np.ndarray,
    hp: SurrogateHp,
    seed: int,
    embedder: Embedder,
    settings: Optional[SurrogateSettings] = None,
) -> SurrogateEnsemble:
    """Fit on embedded points `X` (one row per text of `embedder`) and targets `y`."""
    require_points(len(y), MIN_TRAIN_POINTS)
    settings = settings or SurrogateSettings()
    return SurrogateEnsemble(fit_models(X, y, hp, seed, settings, settings.epochs), embedder)


def hp_grid() -> list[SurrogateHp]:
    return [
        SurrogateHp(widths=w, dropout=d, batch=b, lr=lr)
        for w, d, b, lr in itertools.product(WIDTHS_GRID, DROPOUT_GRID, BATCH_GRID, LR_GRID)
    ]


def cv_folds(n: int, folds: int, seed: int) -> list[np.ndarray]:
    perm = np.random.default_rng(derive_seed(seed, "folds")).permutation(n)
    return [fold for fold in np.array_split(perm, folds) if len(fold)]


def tune_hyperparameters(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    settings: Optional[SurrogateSettings] = None,
) -> SurrogateHp:
    """Sample `cv_combos` unique grid combos; pick the one with the lowest
    `cv_folds`-fold CV MSE."""
    require_points(len(y), MIN_TUNE_POINTS)
    settings = settings or SurrogateSettings()

    grid = hp_grid()
    rng = random.Random(derive_seed(seed, "hp"))
    sampled = rng.sample(grid, min(settings.cv_combos, len(grid)))
    partitions = cv_folds(len(y), settings.cv_folds, seed)

    best_hp = sampled[0]
    best_score = float("inf")
    for combo_index, hp in enumerate(sampled):
        fold_scores = []
        for fold_index, held_out in enumerate(partitions):
            train_idx = np.setdiff1d(np.arange(len(y)), held_out)
            models = fit_models(
                X[train_idx], y[train_idx], hp,
                derive_seed(seed, "cv", combo_index, fold_index),
                settings, settings.cv_epochs,
            )
            fold_scores.append(
                float(np.mean([mse(predict_params(p, X[held_out]), y[held_out]) for p in models]))
            )
        score = float(np.mean(fold_scores))
        if score < best_score:
            best_score = score
            best_hp = hp
    return best_hp
