"""Ensemble fitness predictor: hashed text embedding + 10 small MLPs.

The embedding is a feature-hashed bag of word 1- and 2-grams (L2
normalized).  Each submodel is a tanh MLP with dropout trained by
hand-written backprop and Adam on a bootstrap resample; the ensemble
snapshot is taken at the epoch with minimal mean validation loss.
Prediction returns the submodel mean and population variance.

The submodels of one fit train in lockstep: each layer's weights are
stacked over a leading model axis, so one backprop and one in-place Adam
step serve the whole ensemble.  Every submodel keeps its own generator and
draws in the order it would alone, so it is bitwise equal to training it
by itself.  Peak memory grows with submodels x parameters.

The first layer trains only the weight rows its training inputs reach; a
hashed embedding leaves many columns zero.  A row whose input column is
zero in every training row gets a gradient of exactly +-0 at every step,
so Adam keeps its m and v at +0.0 and its weights unchanged (x - (+0.0)
is x, and +0.0 + -0.0 is +0.0): skipping it is bitwise the dense fit
whenever the gradients are finite.  (With a non-finite gradient the dense
fit would turn those rows into NaN, 0 x inf, but the reached rows are NaN
either way.)  The backward product for the reached rows reduces over the
batch as the dense one does, so each row's bytes are the same.  The
forward pass stays dense: a product over the reached columns alone is
not bitwise the dense product on every BLAS.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .gateway import JsonEndpoint
from .seeds import derive_seed

WIDTHS_GRID: tuple[tuple[int, ...], ...] = ((128, 1), (128, 64, 1), (128, 64, 32, 1))
DROPOUT_GRID: tuple[float, ...] = (0.0, 0.1, 0.2, 0.5)
BATCH_GRID: tuple[int, ...] = (16, 32)
LR_GRID: tuple[float, ...] = (1e-4, 1e-3)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        self._buckets: dict[str, int] = {}  # gram -> bucket, so each gram is hashed once

    def grams(self, text: str) -> list[str]:
        tokens = _TOKEN_RE.findall(text.lower())
        return tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]

    def bucket(self, gram: str) -> int:
        digest = hashlib.blake2b(f"{self.seed}:{gram}".encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.dim

    def _bucket_memo(self, gram: str) -> int:
        found = self._buckets.get(gram)
        if found is None:
            found = self._buckets[gram] = self.bucket(gram)
        return found

    def embed(self, text: str) -> np.ndarray:
        buckets = np.fromiter(map(self._bucket_memo, self.grams(text)), dtype=np.intp)
        return _normalise(np.bincount(buckets, minlength=self.dim).astype(np.float64))

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        return np.array([self.embed(t) for t in texts]).reshape(len(texts), self.dim)


class RemoteEmbedder:
    """Embedding-endpoint client: POST {"texts": [...]} -> {"embeddings": [[...]]},
    one POST per batch, each on a connection of its own."""

    def __init__(self, endpoint: str, dim: int = 384, timeout: float = 60.0):
        self.endpoint = endpoint
        self.dim = dim
        self._http = JsonEndpoint(endpoint, timeout)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.empty((0, self.dim))
        try:
            response, body = self._http.post({"texts": list(texts)})
        except (OSError, http.client.HTTPException) as exc:
            raise SurrogateError(f"embedding endpoint {self.endpoint} failed: {exc!r}") from exc
        finally:
            self._http.close()
        if not 200 <= response.status < 300:
            raise SurrogateError(
                f"embedding endpoint {self.endpoint} answered HTTP {response.status} {response.reason}"
            )
        try:
            X = np.asarray(json.loads(body)["embeddings"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise SurrogateError(
                f"embedding endpoint {self.endpoint} reply has no numeric embeddings: {exc!r}"
            ) from exc
        if X.shape != (len(texts), self.dim):
            raise SurrogateError(
                f"embedding endpoint {self.endpoint} returned embeddings of shape {X.shape};"
                f" expected {len(texts)} rows of dimension {self.dim}"
            )
        # json parses NaN and Infinity; normalising would turn either into NaN rows.
        if not np.isfinite(X).all():
            raise SurrogateError(f"embedding endpoint {self.endpoint} returned non-finite embeddings")
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


# Per layer [W, b]: W (in, out) and b (out,) for one model; W (M, in, out)
# and b (M, out) for M models stacked over a leading axis.
Params = list[list[np.ndarray]]


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
    rngs: Sequence[np.random.Generator] = (),
) -> tuple[np.ndarray, list]:
    """Hidden layers are tanh (+ inverted dropout when training); output is linear.

    With stacked params, X is shared (n, in) or per model (M, n, in) and the
    prediction is (M, n).  `rngs` holds one generator per model; each draws
    its own dropout masks, in model order.
    """
    caches = []
    act = X
    last = len(params) - 1
    for l, (W, b) in enumerate(params):
        z = act @ W + b[..., None, :]
        if l < last:
            t = np.tanh(z)
            if dropout > 0.0 and rngs:
                draws = np.stack([rng.random(t.shape[-2:]) for rng in rngs]).reshape(t.shape)
                mask = (draws >= dropout) / (1.0 - dropout)
            else:
                mask = None
            caches.append((act, t, mask))
            act = t if mask is None else t * mask
        else:
            caches.append((act, None, None))
            act = z
    return act[..., 0], caches


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
    rngs: Sequence[np.random.Generator] = (),
    rows: slice | np.ndarray = slice(None),
) -> tuple[float, Params]:
    """MSE and its gradient; with stacked params the loss is the sum of the
    models' MSEs, so each model's gradient is that of its own MSE.  The first
    layer's weight gradient is given for its input `rows` only."""
    pred, caches = forward(params, X, dropout=dropout, rngs=rngs)
    n = y.shape[-1]
    diff = pred - y
    loss = float(np.vdot(diff, diff)) / n
    grads: Params = [[] for _ in params]
    delta = (2.0 / n) * diff[..., None]
    for l in range(len(params) - 1, -1, -1):
        act_in, t, mask = caches[l]
        if t is not None:
            if mask is not None:
                delta = delta * mask
            delta = delta * (1.0 - t * t)
        if l == 0:
            act_in = act_in[..., rows]
        grads[l] = [act_in.swapaxes(-1, -2) @ delta, delta.sum(axis=-2)]
        if l > 0:
            delta = delta @ params[l][0].swapaxes(-1, -2)
    return loss, grads


class AdamState:
    def __init__(self, params: Params):
        self.m = [[np.zeros_like(a) for a in layer] for layer in params]
        self.v = [[np.zeros_like(a) for a in layer] for layer in params]
        self._scratch = [[np.empty_like(a) for a in layer] for layer in params]
        self.t = 0

    def step(self, params: Params, grads: Params, lr: float) -> None:
        """Update `params`, `m` and `v` in place; `grads` is overwritten.

        Each array sees the operations of m = b1*m + (1-b1)*g,
        v = b2*v + ((1-b2)*g)*g and p = p - (lr*m_hat) / (sqrt(v_hat) + eps)
        in that order, so the result is bitwise that of the expressions.
        """
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        for arrays in zip(params, grads, self.m, self.v, self._scratch):
            for p, g, m, v, s in zip(*arrays):
                np.multiply(g, 1.0 - ADAM_BETA2, out=s)
                s *= g
                v *= ADAM_BETA2
                v += s
                g *= 1.0 - ADAM_BETA1
                m *= ADAM_BETA1
                m += g
                np.divide(m, correction1, out=g)
                g *= lr
                np.divide(v, correction2, out=s)
                np.sqrt(s, out=s)
                s += ADAM_EPS
                g /= s
                p -= g


def fit_models(
    X: np.ndarray,
    y: np.ndarray,
    hp: SurrogateHp,
    seed: int,
    settings: SurrogateSettings,
    epochs: int,
) -> list[Params]:
    """Train the ensemble for `epochs` (`cv_epochs` in CV, `epochs` in the
    final fit); return the models at the epoch of least validation loss.

    The submodels train in lockstep, stacked over a leading axis.  Each
    draws from its own generator in the order it would alone (bootstrap,
    init, then per epoch a permutation and per batch its dropout masks),
    so every model is bitwise the one it would be if trained by itself.
    """
    n = len(y)
    if n < 2:
        raise SurrogateError("need at least 2 data points to split")
    split_rng = np.random.default_rng(derive_seed(seed, "split"))
    perm = split_rng.permutation(n)
    n_train = min(max(int(round(settings.train_fraction * n)), 1), n - 1)
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    X_val, y_val = X[val_idx], y[val_idx]

    rngs = [
        np.random.default_rng(derive_seed(seed, "submodel", i)) for i in range(settings.submodels)
    ]
    boot = train_idx[np.stack([rng.integers(0, n_train, n_train) for rng in rngs])]
    X_boot, y_boot = X[boot], y[boot]
    # Each generator draws its initial weights after its bootstrap.
    inits = (init_params(X.shape[1], hp.widths, rng) for rng in rngs)
    params: Params = [[np.stack(arrays) for arrays in zip(*layers)] for layers in zip(*inits)]
    # Adam trains the first-layer rows that some training input reaches; the
    # bootstrap draws from train_idx, so no batch reaches another.  When every
    # row is reached, the full slice trains the layer in place.
    W0 = params[0][0]
    reached = np.flatnonzero(X[train_idx].any(axis=0))
    sparse = len(reached) < X.shape[1]
    rows = reached if sparse else slice(None)
    trained = [[W0[:, rows], params[0][1]], *params[1:]]
    adam = AdamState(trained)
    models = np.arange(len(rngs))[:, None]

    best_loss = float("inf")
    best = params
    for _ in range(epochs):
        orders = np.stack([rng.permutation(n_train) for rng in rngs])
        for start in range(0, n_train, hp.batch):
            idx = orders[:, start : start + hp.batch]
            _, grads = loss_and_grads(
                params, X_boot[models, idx], y_boot[models, idx],
                dropout=hp.dropout, rngs=rngs, rows=rows,
            )
            adam.step(trained, grads, hp.lr)
            if sparse:
                W0[:, rows] = trained[0][0]
        val_loss = float(np.mean([mse(pred, y_val) for pred in predict_params(params, X_val)]))
        if val_loss < best_loss:
            best_loss = val_loss
            best = [[a.copy() for a in layer] for layer in params]
    return [[[W[i], b[i]] for W, b in best] for i in range(len(rngs))]


@dataclass
class SurrogateEnsemble:
    models: list[Params]
    embedder: Embedder

    def predict_many(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance over the submodels per text; each distinct text
        is embedded once, and its row is repeated for every copy."""
        rows = {text: row for row, text in enumerate(dict.fromkeys(texts))}
        X = self.embedder.embed_many(list(rows))[[rows[text] for text in texts]]
        outputs = np.stack([predict_params(params, X) for params in self.models])
        return outputs.mean(axis=0), outputs.var(axis=0)

    def predict(self, text: str) -> tuple[float, float]:
        means, variances = self.predict_many([text])
        return float(means[0]), float(variances[0])


def train(
    X: np.ndarray,
    y: np.ndarray,
    hp: SurrogateHp,
    seed: int,
    embedder: Embedder,
    settings: Optional[SurrogateSettings] = None,
) -> SurrogateEnsemble:
    """Fit on embedded points `X` (one row per text of `embedder`) and targets `y`."""
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
