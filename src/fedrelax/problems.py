"""Federated objectives: what a client computes gradients of, and how.

A problem owns the per-client objectives and evaluation sets.  The engine only
asks it for (a) a local pass over the participants ids: one gradient function
per local step, mapping their (N, d) block of models to the (N, d) block of
their batch gradients (row j is client ids[j]), and (b) round-level
evaluation of the global model: the federated objective f(w) = (1/C) sum_i
f_i(w), its gradient, and test-set metrics.

Two concrete kinds:

* QuadraticProblem -- each client is a quadratic from a QuadraticFamily.
  "Stochastic batches" are modeled as additive gaussian gradient noise with
  known per-coordinate standard deviation grad_noise, so the local-noise level
  sigma_l = grad_noise * sqrt(d) used by theory.py is exact.  A pass gathers
  the participants' A_i and b_i once; a step's rows are one stacked matmul.
  The global objective is evaluated in closed form (see quadratics.py).
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

import itertools
import math
from functools import cached_property, partial

import numpy as np

from .datasets import Dataset
from .models import Batch
from .quadratics import QuadraticFamily


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
    def w_star(self) -> np.ndarray:
        return self.family.w_star

    @property
    def f_star(self) -> float:
        return self.family.f_star

    def default_init(self, rng) -> np.ndarray:
        return np.zeros(self.dim)

    def start_local_pass(self, ids: np.ndarray, rngs, batch_size=None):
        """Block gradients of the clients ids, one function per local step.

        rngs maps a client id to its generator; row j draws its noise from
        client ids[j]'s, and only when there is noise to draw.
        """
        if batch_size is not None:
            raise ValueError("quadratic problems have no mini-batches; leave batch_size unset")
        a, b, noise = self.family.a_matrices[ids], self.family.b_vectors[ids], self.grad_noise

        def grad(w: np.ndarray) -> np.ndarray:
            return np.matmul(a, (w - b)[:, :, None])[:, :, 0]

        def noisy():
            while True:
                eps = np.empty_like(b)
                for j, i in enumerate(ids):
                    eps[j] = rngs(i).normal(0.0, noise, size=b.shape[1])
                # one draw per row and step, shared by every evaluation within
                # the step (the two-point lookahead rule sees the same "batch")
                yield lambda w, eps=eps: grad(w) + eps

        return itertools.repeat(grad) if noise == 0.0 else noisy()

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


def _batches(shard: Dataset, rng, batch_size):
    """Epoch-wise mini-batches of one shard; rng is a zero-argument accessor of
    the client's generator, called only at a reshuffle (never for full batches)."""
    n = len(shard)
    if batch_size is None or batch_size >= n:
        yield from itertools.repeat(Batch(shard.x, shard.y))  # never returns
    while True:
        perm = rng().permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            yield Batch(shard.x[idx], shard.y[idx])


def _rowwise(grad, batches):
    """The (N, d) gradient whose row j is grad(w[j], batches[j]), written into one block."""
    def block_grad(w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        for j, batch in enumerate(batches):
            out[j] = grad(w[j], batch)
        return out

    return block_grad


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

    def start_local_pass(self, ids: np.ndarray, rngs, batch_size=None):
        """Block gradients of the clients ids, one function per local step; row j
        takes its batches from client ids[j]'s shard and generator (rngs maps an id to it)."""
        streams = [_batches(self.shards[i], partial(rngs, i), batch_size) for i in ids]
        return (_rowwise(self.model.grad, batches) for batches in zip(*streams))

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
        return self.model.evaluate(w, Batch(self.test.x, self.test.y)).losses

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
