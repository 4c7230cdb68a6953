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
* DatasetProblem -- a model plus per-client data shards.  The shards are
  pooled once, on first use, into one sample buffer in client order.  Each
  client's mini-batches are a stream of pooled row indices, drawn without
  replacement within an epoch and reshuffled each epoch from the client's own
  random stream; batch_size None (or >= shard) means full batch and consumes
  no randomness.  A local step's function is the model's gradient bound to a
  Block of the participants' gathered batches (models.BlockGrad; which Blocks
  are kept and how long a step's function is valid: _GatheredGrads).  For
  evaluation the pooled samples carry weights 1/(C n_i) for a sample of
  client i, so that the weighted sum of per-sample losses is the unweighted
  mean of client means.  One forward and one backward pass over the pooled
  set then give the train loss, the gradient of f and (from the same logits)
  the train accuracy; one forward pass over the test set gives test loss and
  accuracy.

A problem's sides is the number of models side by side in each row: 1, or 2
for DatasetProblem.side_by_side's pair; only FedSAM's per-model ascent radius
reads it. Its block_rows is the most participants one local pass trains (None:
all of a round's, see core).
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property, partial

import numpy as np

from . import quadratics
from .datasets import Dataset
from .models import Arena, Batch, Block
from .quadratics import QuadraticFamily, block_grad


class QuadraticProblem:
    sides = 1

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
    def block_rows(self) -> int:
        """The most clients whose (d, d) curvatures fit in quadratics.BLOCK_BYTES (at least 1)."""
        return max(1, quadratics.BLOCK_BYTES // (8 * self.dim ** 2))

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
        grad = partial(block_grad, a, b)  # the clients' A and b gathered once per pass

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

    def global_loss(self, w: np.ndarray) -> float:
        return self.family.global_loss(w)

    def eval_metrics(self, w: np.ndarray) -> dict:
        g = self.family.global_grad(w)
        return {
            "train_loss": self.global_loss(w),
            "grad_norm_sq": float(g @ g),
            "test_loss": None,
            "train_acc": None,
            "test_acc": None,
        }


def _full_batch(n: int, batch_size) -> bool:
    return batch_size is None or batch_size >= n


def _index_batches(starts: np.ndarray, n: int, rng, batch_size):
    """Epoch-wise mini-batches of a shard of n samples whose side r starts at
    pooled row starts[r, 0], as pooled row indices of every side's batch in
    turn: side r's batch is side 0's, r n rows on. rng is a zero-argument
    accessor of the client's generator, called only at a reshuffle (never for
    full batches)."""
    if _full_batch(n, batch_size):
        yield from itertools.repeat((starts + np.arange(n)).ravel())  # never returns
    while True:
        perm = rng().permutation(n) + starts
        for s in range(0, n, batch_size):
            yield perm[:, s:s + batch_size].ravel()


# Blocks and row-length sorts a problem keeps (see _GatheredGrads)
_BLOCKS = 128
_PLANS = 1024


def _runs(lengths, sides: int) -> list:
    """The Block runs of rows whose batches, every side's together, have these
    lengths: stretches of equal length, each row sides rows of the Block."""
    # a list, not a tuple: tuples whose length varies per step made peak RSS climb from job to job
    return [(sides * len(list(rows)), n // sides) for n, rows in itertools.groupby(lengths)]


class _GatheredGrads:
    """A problem's step gradients over gathered samples: called with the rows'
    batches (pooled row indices), the gradient whose row j is that of the
    samples x[batches[j]].

    A step's samples are gathered once, with one fancy index into the pooled
    buffer, into a Block with the rows ordered by batch length (a stable sort),
    so each distinct length is one run; the step's function is the Block's
    bound gradient, which takes the rows in that order with one gather and
    returns the gradient in row order. The sort of each tuple of row lengths is
    kept (the first _PLANS, then all are dropped), and so is one Block per run
    layout for the first _BLOCKS layouts met: a later step of a kept layout
    refills its Block in place (Block.refill), and its bound gradient stays.
    Past that, a step builds a new Block; evicting the least recently used
    instead would thrash, as a run meets its layouts in cycles. Every Block
    draws its samples and its bound gradients' buffers from one Arena, so a
    step's gradient is valid only until the next step of any of the problem's
    passes is gathered.
    """

    def __init__(self, model, x: np.ndarray, y: np.ndarray, sides: int):
        self.model, self.x, self.y, self.sides = model, x, y, sides
        self.width = sides * model.dim
        self.plans = {}   # row lengths -> (run layout, order, inverse); None, None in row order
        self.blocks = {}  # run layout -> Block
        self.arena = Arena()

    def _plan(self, lengths: tuple) -> tuple:
        if len(self.plans) >= _PLANS:
            self.plans.clear()
        order = sorted(range(len(lengths)), key=lengths.__getitem__)
        layout = tuple(_runs([lengths[j] for j in order], self.sides))
        if order == sorted(order):
            plan = layout, None, None
        else:
            order = np.array(order)
            plan = layout, order, np.argsort(order)
        self.plans[lengths] = plan
        return plan

    def _block(self, layout: tuple) -> Block:
        block = self.blocks.get(layout)
        if block is None:
            m = sum(k * n for k, n in layout)
            x = self.arena.empty("x", (m, self.x.shape[1]), self.x.dtype)
            y = self.arena.empty("y", (m,), self.y.dtype)
            block = Block(x, y, list(layout), self.arena)
            if len(self.blocks) < _BLOCKS:
                self.blocks[layout] = block
        return block

    def __call__(self, batches):
        lengths = tuple(map(len, batches))
        layout, order, inverse = self.plans.get(lengths) or self._plan(lengths)
        block = self._block(layout)
        block.refill(self.x, self.y, np.concatenate(batches if order is None else [batches[j] for j in order]))
        grad = self.model.bind(block, self.width)
        return grad if order is None else partial(grad.taken, order, inverse)


class DatasetProblem:
    """A dataset model over per-client shards (see the module docstring). The
    pooled shards and the test set are each one Batch, kept with the buffers
    of its Block, so every round after the first evaluates without allocating them."""

    block_rows = None  # one pass per step count: a gathered Block wants every participant's rows

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
        self._side_shards = (shards,)

    @classmethod
    def side_by_side(cls, problem_a: DatasetProblem, problem_b: DatasetProblem) -> DatasetProblem:
        """Two dataset problems as one whose model is the pair (w_a, w_b), with sides = 2.

        A block of N pairs trains as the (2N, d) block of both sides' models (row
        2j side a, row 2j + 1 side b of client ids[j]), with one block gradient of
        side a's model per step; FedSAM takes one ascent radius per side. The
        pooled buffer interleaves the shards per client (a_0, b_0, a_1, ...).
        Both sides of a client hold n_i samples and would draw from identically
        seeded generators, so one batch stream per client, over side a, serves
        side b n_i pooled rows on. The pair trains; it does not evaluate. The
        problems must agree on model kind and shape, client count and every
        shard size (ValueError otherwise).
        """
        if _model_shape(problem_a.model) != _model_shape(problem_b.model):
            raise ValueError("paired problems must have models of one kind and shape")
        if problem_a.n_clients != problem_b.n_clients:
            raise ValueError("paired problems must agree on client count")
        for i, (sa, sb) in enumerate(zip(problem_a.shards, problem_b.shards)):
            if len(sa) != len(sb):
                raise ValueError(f"paired problems must agree on shard sizes: client {i} "
                                 f"holds {len(sa)} samples on one side and {len(sb)} on the other")
        pair = cls(problem_a.model, problem_a.shards, problem_a.test)
        pair._side_shards = (problem_a.shards, problem_b.shards)
        return pair

    @property
    def sides(self) -> int:
        """Models side by side in each row (see side_by_side)."""
        return len(self._side_shards)

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    @property
    def dim(self) -> int:
        return self.sides * self.model.dim

    def shard_size(self, i: int) -> int:
        return len(self.shards[i])

    def default_init(self, rng) -> np.ndarray:
        return np.tile(self.model.init_params(rng), self.sides)

    def start_local_pass(self, ids: np.ndarray, rngs, batch_size=None):
        """Block gradients of the clients ids (distinct, ascending), one function
        per local step (valid as _GatheredGrads says); row j takes its batches
        from client ids[j]'s shard and generator (rngs maps an id to it). A
        full-batch pass over every client trains on the pooled buffer itself,
        gathering nothing.
        """
        if len(ids) == self.n_clients and all(_full_batch(len(s), batch_size) for s in self.shards):
            return itertools.repeat(self.model.bind(self._population_block, self.dim))
        streams = [_index_batches(self._starts[i], len(self.shards[i]), partial(rngs, i), batch_size)
                   for i in ids]
        return map(self._gathered_grads, zip(*streams))

    def steps_per_epoch(self, i: int, batch_size) -> int:
        n = len(self.shards[i])
        return 1 if _full_batch(n, batch_size) else math.ceil(n / batch_size)

    @cached_property
    def _starts(self) -> np.ndarray:
        """Client i's side-r samples are the pooled rows _starts[i, r, 0] + 0 .. n_i - 1."""
        sizes = np.array([len(s) for s in self.shards])
        first = np.cumsum(self.sides * sizes) - self.sides * sizes
        return (first[:, None] + np.arange(self.sides) * sizes[:, None])[:, :, None]

    @cached_property
    def _pooled(self) -> tuple[Batch, np.ndarray]:
        """All shards as one batch, in client order (every side's in turn), built on
        first use, with the sample weights 1/(C n_i) of the module docstring."""
        c = len(self.shards)
        shards = [s for per_client in zip(*self._side_shards) for s in per_client]
        batch = Batch(np.concatenate([s.x for s in shards]), np.concatenate([s.y for s in shards]))
        if not np.isfinite(batch.x).all():
            raise ValueError("shard features must be finite (lower the scale of the data or its biases)")
        weights = np.concatenate([np.full(len(s), 1.0 / (c * len(s))) for s in shards])
        return batch, weights

    @cached_property
    def _gathered_grads(self) -> _GatheredGrads:
        pooled, _ = self._pooled
        return _GatheredGrads(self.model, pooled.x, pooled.y, self.sides)

    @cached_property
    def _population_block(self) -> Block:
        """Every client's full batch, in client order: the pooled buffer as one Block."""
        pooled, _ = self._pooled
        lengths = (self.sides * len(s) for s in self.shards)
        return Block(pooled.x, pooled.y, _runs(lengths, self.sides))

    def _evaluated(self) -> tuple[Batch, np.ndarray]:
        """The pooled batch and its weights, for evaluation; a pair refuses by name."""
        if self.sides > 1:
            raise ValueError("a side-by-side pair trains but does not evaluate; "
                             "evaluate each side's own problem")
        return self._pooled

    @cached_property
    def _test_batch(self) -> Batch | None:
        """The test set as one Batch, kept (with its Block's buffers) for every evaluation."""
        return None if self.test is None else Batch(self.test.x, self.test.y)

    def per_sample_test_losses(self, w: np.ndarray) -> np.ndarray | None:
        self._evaluated()
        if self.test is None:
            return None
        return self.model.evaluate(w, self._test_batch).losses

    def eval_metrics(self, w: np.ndarray) -> dict:
        batch, weights = self._evaluated()
        train = self.model.evaluate(w, batch, weights)
        out = {
            "train_loss": float(weights @ train.losses),
            "grad_norm_sq": float(train.grad @ train.grad),
            "test_loss": None,
            "train_acc": _accuracy(train.pred, batch.y),
            "test_acc": None,
        }
        if self.test is not None:
            test = self.model.evaluate(w, self._test_batch)
            out["test_loss"] = float(np.mean(test.losses))
            out["test_acc"] = _accuracy(test.pred, self.test.y)
        return out


def _model_shape(model) -> tuple:
    """What fixes a dataset model's function of (w, samples): its kind and sizes."""
    return type(model), model.dim, model.n_features, getattr(model, "hidden", None)


def _accuracy(pred: np.ndarray | None, y: np.ndarray) -> float | None:
    """Fraction of correct predictions; None for models that predict no classes."""
    if pred is None:
        return None
    return float(np.mean(pred == y.astype(np.int64)))
