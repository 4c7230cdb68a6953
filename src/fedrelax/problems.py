"""Federated objectives: what a client computes gradients of, and how.

A problem owns the per-client objectives and evaluation sets.  The engine only
asks it for (a) one batch-gradient function per local step and (b) round-level
evaluation of the global model: the federated objective f(w) = (1/C) sum_i f_i(w),
its gradient, and test-set metrics.

Two concrete kinds:

* QuadraticProblem -- each client is a quadratic from a QuadraticFamily.
  "Stochastic batches" are modeled as additive gaussian gradient noise with
  known standard deviation, so the local-noise level sigma_l is exact.  The
  global objective is evaluated in closed form (see quadratics.py).
* DatasetProblem -- a model plus per-client data shards.  Mini-batches are
  drawn without replacement within an epoch and reshuffled each epoch from the
  client's own random stream; batch_size None (or >= shard) means full batch
  and consumes no randomness.  For evaluation the shards are pooled once, on
  first use, with per-sample weights 1/(C n_i) for a sample of client i, so
  that the weighted sum of per-sample losses is the unweighted mean of client
  means.  One forward and one backward pass over the pooled set then give the
  train loss, the gradient of f and (from the same logits) the train
  accuracy; one forward pass over the test set gives test loss and accuracy.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .datasets import Dataset
from .models import Batch
from .quadratics import QuadraticFamily


class _QuadSampler:
    def __init__(self, family: QuadraticFamily, i: int, rng, noise: float):
        self.family = family
        self.i = i
        self.rng = rng
        self.noise = noise

    def next_grad_fn(self):
        fam, i = self.family, self.i
        if self.noise == 0.0:
            return lambda w: fam.client_grad(i, w)
        eps = self.rng.normal(0.0, self.noise, size=fam.dim)
        # one noise draw per step, shared by every evaluation within the step
        # (the two-point lookahead rule sees the same "batch")
        return lambda w: fam.client_grad(i, w) + eps


class QuadraticProblem:
    def __init__(self, family: QuadraticFamily, grad_noise: float = 0.0):
        if grad_noise < 0.0:
            raise ValueError("grad_noise must be >= 0")
        self.family = family
        self.grad_noise = float(grad_noise)

    @property
    def n_clients(self) -> int:
        return self.family.n_clients

    @property
    def dim(self) -> int:
        return self.family.dim

    @property
    def sigma_l(self) -> float:
        """Exact bound on the per-step gradient noise norm scale (std per coordinate)."""
        return self.grad_noise

    @property
    def w_star(self) -> np.ndarray:
        return self.family.w_star

    @property
    def f_star(self) -> float:
        return self.family.f_star

    def default_init(self, rng) -> np.ndarray:
        return np.zeros(self.dim)

    def start_local_pass(self, i: int, rng, batch_size=None):
        if batch_size is not None:
            raise ValueError("quadratic problems have no mini-batches; leave batch_size unset")
        return _QuadSampler(self.family, i, rng, self.grad_noise)

    def steps_per_epoch(self, i: int, batch_size) -> int:
        raise ValueError("quadratic problems have no epochs; use local_iters")

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        return self.family.global_grad(w)

    def global_loss(self, w: np.ndarray) -> float:
        return self.family.global_loss(w)

    def eval_metrics(self, w: np.ndarray) -> dict:
        g = self.global_grad(w)
        return {
            "train_loss": self.global_loss(w),
            "grad_norm_sq": float(g @ g),
            "test_loss": None,
            "train_acc": None,
            "test_acc": None,
        }


class _BatchSampler:
    def __init__(self, model, shard: Dataset, rng, batch_size):
        self.model = model
        self.shard = shard
        self.rng = rng
        n = len(shard)
        self.full = batch_size is None or batch_size >= n
        if not self.full and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._perm = None
        self._cursor = 0
        if self.full:
            self._full_batch = Batch(shard.x, shard.y)

    def next_grad_fn(self):
        model = self.model
        if self.full:
            batch = self._full_batch
        else:
            n = len(self.shard)
            if self._perm is None or self._cursor >= n:
                self._perm = self.rng.permutation(n)
                self._cursor = 0
            idx = self._perm[self._cursor:self._cursor + self.batch_size]
            self._cursor += self.batch_size
            batch = Batch(self.shard.x[idx], self.shard.y[idx])
        return lambda w: model.grad(w, batch)


class DatasetProblem:
    def __init__(self, model, shards: list[Dataset], test: Dataset | None = None):
        if not shards:
            raise ValueError("need at least one client shard")
        for s in shards:
            if s.n_features != model.n_features:
                raise ValueError(
                    f"shard has {s.n_features} features but model expects {model.n_features}"
                )
            if len(s) == 0:
                raise ValueError("every client shard needs at least one sample")
        self.model = model
        self.shards = shards
        self.test = test

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    @property
    def dim(self) -> int:
        return self.model.dim

    def shard_size(self, i: int) -> int:
        return len(self.shards[i])

    def default_init(self, rng) -> np.ndarray:
        return self.model.init_params(rng)

    def start_local_pass(self, i: int, rng, batch_size=None):
        return _BatchSampler(self.model, self.shards[i], rng, batch_size)

    def steps_per_epoch(self, i: int, batch_size) -> int:
        n = len(self.shards[i])
        if batch_size is None or batch_size >= n:
            return 1
        return math.ceil(n / batch_size)

    @cached_property
    def _pooled(self) -> tuple[Batch, np.ndarray]:
        """All shards as one batch, built on first evaluation, with sample weights.

        Sample j of client i weighs 1/(C n_i), so the weighted sum over the
        pooled set is the unweighted mean over clients of client means.
        """
        c = len(self.shards)
        batch = Batch(np.concatenate([s.x for s in self.shards]),
                      np.concatenate([s.y for s in self.shards]))
        weights = np.concatenate([np.full(len(s), 1.0 / (c * len(s))) for s in self.shards])
        return batch, weights

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        batch, weights = self._pooled
        return self.model.evaluate(w, batch, weights).grad

    def global_loss(self, w: np.ndarray) -> float:
        batch, weights = self._pooled
        return float(weights @ self.model.evaluate(w, batch).losses)

    def per_sample_test_losses(self, w: np.ndarray) -> np.ndarray | None:
        if self.test is None:
            return None
        return self.model.per_sample_losses(w, Batch(self.test.x, self.test.y))

    def eval_metrics(self, w: np.ndarray) -> dict:
        batch, weights = self._pooled
        train = self.model.evaluate(w, batch, weights)
        out = {
            "train_loss": float(weights @ train.losses),
            "grad_norm_sq": float(train.grad @ train.grad),
            "test_loss": None,
            "train_acc": _accuracy(train.pred, batch.y),
            "test_acc": None,
        }
        if self.test is not None:
            test = self.model.evaluate(w, Batch(self.test.x, self.test.y))
            out["test_loss"] = float(np.mean(test.losses))
            out["test_acc"] = _accuracy(test.pred, self.test.y)
        return out


def _accuracy(pred: np.ndarray | None, y: np.ndarray) -> float | None:
    """Fraction of correct predictions; None for models that predict no classes."""
    if pred is None:
        return None
    return float(np.mean(pred == y.astype(np.int64)))
