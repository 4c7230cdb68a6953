"""Model parameterizations over flat float64 vectors.

Every model exposes the same small surface: ``dim`` (parameter count),
``loss(w, batch)``, ``grad(w, batch)``, and for classifiers ``predict``.
Dataset models also have ``evaluate(w, batch, weights)``, which serves
evaluation with one forward pass (per-sample losses and predictions) and,
when sample weights are given, one backward pass (the gradient of the
weighted loss sum). Parameters are always 1-D ``float64`` arrays; nothing in
the engine ever reshapes them except inside a model's own forward pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Batch:
    """A mini-batch: features ``x`` of shape (n, p) and targets ``y`` of shape (n,).

    ``y`` holds int class ids for classifiers and float targets for regression.
    Quadratic objectives ignore the batch entirely.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2:
            raise ValueError(f"batch features must be 2-D, got shape {self.x.shape}")
        if len(self.y) != len(self.x):
            raise ValueError(
                f"batch size mismatch: {len(self.x)} feature rows, {len(self.y)} targets"
            )

    def __len__(self) -> int:
        return len(self.x)


class Evaluation(NamedTuple):
    """What one evaluation pass over a batch yields."""

    losses: np.ndarray  # per-sample losses, shape (n,)
    grad: np.ndarray | None  # gradient of sum_j weights[j] * losses[j]; None without weights
    pred: np.ndarray | None  # predicted class ids; None for regression


def as_params(w) -> np.ndarray:
    """Validate and return a parameter vector: 1-D, float64, all entries finite."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("parameter vector contains non-finite entries")
    return w


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # stable for large |z|


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class QuadraticModel:
    """f(w) = 0.5 (w - b)^T A (w - b); the batch argument is ignored.

    A must be symmetric positive semi-definite for the federated theory to
    apply, but the model itself only requires symmetry.
    """

    kind = "quadratic"

    def __init__(self, a_matrix: np.ndarray, b: np.ndarray):
        a_matrix = np.asarray(a_matrix, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a_matrix.shape != (len(b), len(b)):
            raise ValueError(f"A shape {a_matrix.shape} incompatible with b length {len(b)}")
        if not np.allclose(a_matrix, a_matrix.T, atol=1e-12):
            raise ValueError("quadratic matrix must be symmetric")
        self.a_matrix = a_matrix
        self.b = b
        self.dim = len(b)

    def loss(self, w: np.ndarray, batch: Batch | None = None) -> float:
        r = w - self.b
        return 0.5 * float(r @ (self.a_matrix @ r))

    def grad(self, w: np.ndarray, batch: Batch | None = None) -> np.ndarray:
        return self.a_matrix @ (w - self.b)

    def init_params(self, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.zeros(self.dim)


class LinearRegression:
    """f(w) = 0.5 * mean_j (x_j . w - y_j)^2, no intercept."""

    kind = "linear-regression"

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.dim = n_features

    def loss(self, w: np.ndarray, batch: Batch) -> float:
        r = batch.x @ w - batch.y
        return 0.5 * float(np.mean(r * r))

    def grad(self, w: np.ndarray, batch: Batch) -> np.ndarray:
        r = batch.x @ w - batch.y
        return batch.x.T @ r / len(batch)

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        r = batch.x @ w - batch.y
        grad = None if weights is None else batch.x.T @ (weights * r)
        return Evaluation(0.5 * r * r, grad, None)

    def init_params(self, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.zeros(self.dim)


class LogisticRegression:
    """Binary logistic regression with labels in {0, 1}, no intercept.

    Loss is the balanced form: at w = 0 every sample contributes ln 2 and the
    gradient is mean_j (1/2 - y_j) x_j.
    """

    kind = "logistic-regression"

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.dim = n_features

    def loss(self, w: np.ndarray, batch: Batch) -> float:
        return float(np.mean(self.evaluate(w, batch).losses))

    def grad(self, w: np.ndarray, batch: Batch) -> np.ndarray:
        z = batch.x @ w
        return batch.x.T @ (_sigmoid(z) - batch.y) / len(batch)

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        z = batch.x @ w
        # log(1 + e^-|z|) + max(z, 0) - z*y is the overflow-safe cross entropy
        losses = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - z * batch.y
        grad = None if weights is None else batch.x.T @ (weights * (_sigmoid(z) - batch.y))
        return Evaluation(losses, grad, (z >= 0.0).astype(np.int64))

    def predict(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (x @ w >= 0.0).astype(np.int64)

    def init_params(self, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.zeros(self.dim)


class MLPClassifier:
    """One-hidden-layer tanh network with softmax cross-entropy.

    Parameter layout (row-major, weights then biases per layer):
    [W1 (hidden x features), b1 (hidden), W2 (classes x hidden), b2 (classes)].
    """

    kind = "mlp"

    def __init__(self, n_features: int, hidden: int, n_classes: int):
        if hidden < 1 or n_classes < 2:
            raise ValueError("mlp needs hidden >= 1 and n_classes >= 2")
        self.n_features = n_features
        self.hidden = hidden
        self.n_classes = n_classes
        self.dim = hidden * n_features + hidden + n_classes * hidden + n_classes

    def unpack(self, w: np.ndarray):
        p, h, m = self.n_features, self.hidden, self.n_classes
        if w.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} parameters, got shape {w.shape}")
        o = 0
        w1 = w[o:o + h * p].reshape(h, p); o += h * p
        b1 = w[o:o + h]; o += h
        w2 = w[o:o + m * h].reshape(m, h); o += m * h
        b2 = w[o:o + m]
        return w1, b1, w2, b2

    def _forward(self, w: np.ndarray, x: np.ndarray):
        """Hidden activations and logits, plus W2 for a backward pass."""
        w1, b1, w2, b2 = self.unpack(w)
        a1 = np.tanh(x @ w1.T + b1)
        logits = a1 @ w2.T + b2
        return a1, logits, w2

    def loss(self, w: np.ndarray, batch: Batch) -> float:
        return float(np.mean(self.evaluate(w, batch).losses))

    def grad(self, w: np.ndarray, batch: Batch) -> np.ndarray:
        n = len(batch)
        y = batch.y.astype(np.int64)
        a1, logits, w2 = self._forward(w, batch.x)
        p = np.exp(_log_softmax(logits))
        p[np.arange(n), y] -= 1.0
        return _mlp_backward(batch.x, a1, w2, p / n)

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        rows = np.arange(len(batch))
        y = batch.y.astype(np.int64)
        a1, logits, w2 = self._forward(w, batch.x)
        logp = _log_softmax(logits)
        grad = None
        if weights is not None:
            p = np.exp(logp)
            p[rows, y] -= 1.0
            grad = _mlp_backward(batch.x, a1, w2, p * weights[:, None])
        return Evaluation(-logp[rows, y], grad, logits.argmax(axis=1).astype(np.int64))

    def predict(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        _, logits, _ = self._forward(w, x)
        return logits.argmax(axis=1).astype(np.int64)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        # per-layer 1/sqrt(fan_in) gaussian weights, zero biases
        p, h, m = self.n_features, self.hidden, self.n_classes
        w1 = rng.normal(0.0, 1.0 / np.sqrt(p), size=(h, p))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(m, h))
        return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(m)])


def _mlp_backward(x: np.ndarray, a1: np.ndarray, w2: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
    """MLP parameter gradient from the forward activations and d(loss)/d(logits)."""
    dw2 = dlogits.T @ a1
    db2 = dlogits.sum(axis=0)
    da1 = dlogits @ w2
    dz1 = da1 * (1.0 - a1 * a1)
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def finite_diff_grad(model, w: np.ndarray, batch: Batch | None, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of model.loss at w. eps must be > 0."""
    if eps <= 0.0:
        raise ValueError(f"finite-difference step must be positive, got {eps}")
    w = as_params(w)
    g = np.empty_like(w)
    for i in range(len(w)):
        wp = w.copy(); wp[i] += eps
        wm = w.copy(); wm[i] -= eps
        g[i] = (model.loss(wp, batch) - model.loss(wm, batch)) / (2.0 * eps)
    return g


def accuracy(model, w: np.ndarray, batch: Batch) -> float:
    """Fraction of batch samples predicted correctly (classifiers only)."""
    pred = model.predict(w, batch.x)
    return float(np.mean(pred == batch.y.astype(np.int64)))
