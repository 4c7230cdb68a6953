"""Model parameterizations over flat float64 vectors.

Every model exposes ``dim`` (parameter count), ``loss(w, batch)`` and
``grad(w, batch)``. Dataset models, built by kind through ``make_model``,
also have ``evaluate(w, batch, weights)``: one forward pass (per-sample
losses and, for classifiers, predictions) and, given sample weights, one
backward pass (the gradient of the weighted loss sum). Parameters are always
1-D ``float64`` arrays; only a model's own forward pass reshapes them.

Dataset models train through one gradient, bound to a ``Block`` by ``bind``
(below): that of an (N, d) block of models, each row with its own mini-batch,
over a Block that holds the samples of all rows gathered in one buffer, in
row order; each stretch of consecutive rows with equal batch length is a run.
Element-wise work (activations, bias adds, softmax, residuals, the division
by each row's batch length) runs once over the whole buffer; every product
and batch sum runs once per run, as one stacked NumPy call whose slices have
exactly the shapes of a row alone, and a bias is added as a per-sample array
(each row's bias repeated over its samples). Padding rows to a common length
would change the products' shapes, which OpenBLAS rounds differently, and a
bias-gradient sum over all runs at once (np.add.reduceat) would add in
another order. So each row of a block rounds exactly as that row alone, and
``grad(w, batch)`` is the block gradient of a one-row block.

A Block holds samples only. ``bind(block, width)`` is the model's gradient
bound to one Block (a BlockGrad), made on the first call and kept on the
block, with all the model derives from the samples: input and output buffers
for the rows' parameters, per-sample work buffers and targets (a linear
model's float targets, margins and residuals; the MLP's activations, logits,
softmax, errors and label index) and, per run, the views of those that the
run's products read and write. A call copies the rows in, runs on those
views and returns a new array; losses, predictions and gradients are never
views of those buffers or of one another. MLP evaluation runs in the
buffers of the one-row Block that each Batch keeps. Blocks used one at a
time may share an Arena: per name, one buffer whose start a Block's array of
that name views, and the views every such Block would make alike
(Block.shared). A kept Block refilled with another step's samples
(problems._GatheredGrads) has each bound gradient rewrite what it derived
from them in place (BlockGrad.refill), so its views stay valid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Batch:
    """A mini-batch: features ``x`` of shape (n, p) and targets ``y`` of shape (n,).

    ``y`` holds int class ids for classifiers and float targets for regression.
    Quadratic objectives ignore the batch entirely. ``block`` is the batch as
    a one-row Block, built on first use and kept with its buffers.
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

    @cached_property
    def block(self) -> Block:
        return Block(self.x, self.y, ((1, len(self.x)),))


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


class Arena:
    """Buffers and views shared by Blocks used one at a time (see the module
    docstring). A Block that needs more than a buffer holds gets a new, larger
    one, which drops the shared views; Blocks made before keep the old one."""

    def __init__(self):
        self._buffers = {}
        self.shared = {}

    def empty(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
            self.shared.clear()
        return buf[:size].reshape(shape)


class Block:
    """Gathered samples of an (N, d) block of models, one mini-batch per row
    (see the module docstring). x (M, p) and y (M,) hold the rows' samples run
    by run: runs = [(k, n), ...], in buffer order, says that the next k rows
    each own the next n samples, one row after another."""

    def __init__(self, x: np.ndarray, y: np.ndarray, runs, arena: Arena | None = None):
        self.x, self.y, self.runs, self.arena = x, y, runs, arena
        self._buffers = {}
        # per run: its row slice, and its (start, stop, k, n) in the sample buffer
        rows, self._cuts, r, s = [], [], 0, 0
        for k, n in runs:
            rows.append(slice(r, r + k))
            self._cuts.append((s, s + k * n, k, n))
            r, s = r + k, s + k * n
        # per run: row slice, samples as a (k, n, p) stack
        self.parts = list(zip(rows, self.split(x)))

    def refill(self, x: np.ndarray, y: np.ndarray, take: np.ndarray) -> None:
        """Gather x[take] and y[take] into this block's x and y, another step's
        samples in the same runs, and refill each bound gradient."""
        # mode="clip" writes straight into out ("raise" buffers it); every index is in range
        x.take(take, axis=0, out=self.x, mode="clip")
        y.take(take, out=self.y, mode="clip")
        for grad in self._buffers.values():
            grad.refill()

    def empty(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A work buffer over this block: new, or the arena's buffer of that name."""
        return np.empty(shape, dtype) if self.arena is None else self.arena.empty(name, shape, dtype)

    def split(self, a: np.ndarray) -> list[np.ndarray]:
        """Views of an (M,) or (M, w) array of per-sample values, one (k, n, 1 or w) stack per run."""
        return [a[s:e].reshape(k, n, -1) for s, e, k, n in self._cuts]

    def shared(self, key: tuple, make):
        """make(): arrays that depend on key alone, such as views of this block's
        arena buffers, made once for all the arena's Blocks; a Block of its own
        makes them."""
        if self.arena is None:
            return make()
        made = self.arena.shared.get(key)
        if made is None:
            made = self.arena.shared[key] = make()
        return made

    def buffers(self, kind, *args):
        """kind(self, *args): a model's bound gradient over this block, built on
        the first call with these arguments and returned by every later one."""
        key = (kind, *args)
        made = self._buffers.get(key)
        if made is None:
            made = self._buffers[key] = kind(self, *args)
        return made

    @cached_property
    def row_counts(self) -> np.ndarray:
        """(N,) batch length of each row."""
        return np.repeat(np.array([n for _, n in self.runs], dtype=np.int64), [k for k, _ in self.runs])

    @cached_property
    def row_n(self) -> np.ndarray:
        """(N, 1) batch length of each row, as floats."""
        return self.row_counts[:, None].astype(np.float64)

    @cached_property
    def sample_n(self) -> np.ndarray:
        """(M, 1) batch length of each sample's row, as floats."""
        return np.repeat(self.row_n, self.row_counts, axis=0)


class BlockGrad:
    """A dataset model's block gradient over one Block, its operands bound once
    (see the module docstring). w and g are (R, d) for the block's R rows of
    models; a row of width parameters holds sides = width / d models side by
    side, the block's rows j sides to j sides + sides - 1."""

    def __init__(self, block: Block, dim: int, width: int):
        rows = len(block.row_counts)
        self.w, self.g = block.empty("w", (rows, dim)), block.empty("g", (rows, dim))
        self.w_rows, self.g_rows = self.w.reshape(-1, width), self.g.reshape(-1, width)
        self.shape = self.w_rows.shape

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """The gradient of the (R / sides, width) rows w, as a new array of that shape."""
        np.copyto(self.w_rows, w)
        return self.run()

    def taken(self, order: np.ndarray, inverse: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The gradient of the rows w when the block's row j (of width parameters) trains w[order[j]];
        inverse, the inverse permutation of order, puts it back in w's row order."""
        # mode="clip" writes straight into out ("raise" buffers it); every index is in range
        np.take(w, order, axis=0, out=self.w_rows, mode="clip")
        return self.run()[inverse]

    def refill(self) -> None:
        """Rewrite what the gradient derived from the block's samples, after Block.refill."""

    def run(self) -> np.ndarray:
        """The gradient at the parameters in w, as a new (R / sides, width) array."""
        raise NotImplementedError


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """z = 0.5 (1 + tanh(z / 2)), stable for large |z|, in z's buffer; returns z."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


class QuadraticModel:
    """f(w) = 0.5 (w - b)^T A (w - b); the batch argument is ignored.

    A must be symmetric positive semi-definite for the federated theory to
    apply, but the model itself only requires symmetry.
    """

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


class _BlockGradModel:
    """A dataset model's gradients, each through its bound gradient of a Block,
    of the BlockGrad kind the subclass names _bound."""

    def bind(self, block: Block, width: int) -> BlockGrad:
        """The model's gradient over block for rows of width parameters (width / dim
        models side by side), built on first use and kept."""
        return block.buffers(self._bound, self, width)

    def grad(self, w: np.ndarray, batch: Batch) -> np.ndarray:
        """The gradient over the batch: the block gradient of its one-row Block."""
        return self.bind(batch.block, self.dim)(w[None])[0]

    def loss(self, w: np.ndarray, batch: Batch) -> float:
        return float(np.mean(self.evaluate(w, batch).losses))


class _GLMGrad(BlockGrad):
    """Rows x_j^T (link(x_j w_j) - y_j) / n_j of a linear model's block. The
    model's link applies the link function in place (None: identity); margins
    and residuals live in an (M,) buffer z."""

    def __init__(self, block: Block, model, width: int):
        super().__init__(block, model.dim, width)
        self.link, self.y = model.link, block.y
        self.targets = block.empty("targets", self.y.shape)
        self.refill()
        # each parameter's divisor, its row's batch length, laid out as the result
        self.row_n = np.repeat(block.row_n, self.w.shape[1], axis=1).reshape(self.shape)
        self.z = block.empty("z", (len(block.x),))
        w_cols, g_cols = self.w[:, :, None], self.g[:, :, None]
        self.margins, self.products = [], []
        for (rows, xs), zs in zip(block.parts, block.split(self.z)):
            w, g = block.shared((_GLMGrad, model, width, rows.start, rows.stop),
                                lambda: (w_cols[rows], g_cols[rows]))
            self.margins.append((xs, w, zs))
            self.products.append((xs.transpose(0, 2, 1), zs, g))

    def run(self) -> np.ndarray:
        z = self.z
        for xs, w, zs in self.margins:
            np.matmul(xs, w, out=zs)
        if self.link is not None:
            self.link(z)
        np.subtract(z, self.targets, out=z)  # residuals, in place
        for xt, rs, g in self.products:
            np.matmul(xt, rs, out=g)
        return np.divide(self.g_rows, self.row_n)

    def refill(self) -> None:
        np.copyto(self.targets, self.y)  # as floats: they subtract as the int ones do


class _GLM(_BlockGradModel):
    """A linear model x . w without intercept, trained through _GLMGrad with the subclass's link."""

    _bound = _GLMGrad

    def __init__(self, n_features: int):
        self.n_features = self.dim = n_features

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)


class LinearRegression(_GLM):
    """f(w) = 0.5 * mean_j (x_j . w - y_j)^2, no intercept."""

    link = None

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        r = batch.x @ w - batch.y
        grad = None if weights is None else batch.x.T @ (weights * r)
        return Evaluation(0.5 * r * r, grad, None)


class LogisticRegression(_GLM):
    """Binary logistic regression with labels in {0, 1}, no intercept.

    Loss is the balanced form: at w = 0 every sample contributes ln 2 and the
    gradient is mean_j (1/2 - y_j) x_j.
    """

    link = staticmethod(_sigmoid_in_place)

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        z = batch.x @ w
        # log(1 + e^-|z|) + max(z, 0) - z*y is the overflow-safe cross entropy
        losses = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - z * batch.y
        grad = None if weights is None else batch.x.T @ (weights * (_sigmoid_in_place(z.copy()) - batch.y))
        return Evaluation(losses, grad, (z >= 0.0).astype(np.int64))


class _MLPGrad(BlockGrad):
    """An MLP's block gradient over one Block, and the buffers its evaluation
    runs in: hidden activations a1 and their back-propagated errors dz
    (M, hidden), logits (then log-probabilities) and softmax errors dl
    (M, classes), an (M, 1) column for the row max, then the log of the row
    sum, and the flat index of each sample's label in the logits."""

    def __init__(self, block: Block, model: MLPClassifier, width: int):
        super().__init__(block, model.dim, width)
        m, hidden, n_classes = len(block.x), model.hidden, model.n_classes
        self.a1, self.dz = block.empty("a1", (m, hidden)), block.empty("dz", (m, hidden))
        self.logits, self.dl = block.empty("logits", (m, n_classes)), block.empty("dl", (m, n_classes))
        self.col = block.empty("col", (m, 1))
        self.base = block.shared(("labels", n_classes, m), lambda: np.arange(m) * n_classes)
        self.labels, self.y = block.empty("labels", (m,), np.int64), block.y
        self.refill()
        self.dl_flat = self.dl.reshape(-1)
        # the row max's column, the first logit column and the others as the rows of one
        # view: a list of their views, kept, would cost more memory than it saves time
        self.max_views = block.shared(("columns", n_classes, m), lambda: (
            self.col[:, 0], self.logits[:, 0], self.logits.T[1:]))
        self.counts, self.sample_n = block.row_counts, block.sample_n
        w1, self.b1, w2, self.b2 = model.unpack(self.w)
        dw1, db1, dw2, db2 = model.unpack(self.g)
        w1t, w2t = w1.transpose(0, 2, 1), w2.transpose(0, 2, 1)
        self.layer1, self.layer2, self.back2, self.back1 = [], [], [], []
        for (rows, xs), a, z, dl, dz in zip(block.parts, *map(block.split, (self.a1, self.logits, self.dl, self.dz))):
            w1t_r, w2t_r, w2_r, dw1_r, db1_r, dw2_r, db2_r = block.shared(
                (_MLPGrad, model, width, rows.start, rows.stop),
                lambda: tuple(v[rows] for v in (w1t, w2t, w2, dw1, db1, dw2, db2)))
            self.layer1.append((xs, w1t_r, a))
            self.layer2.append((a, w2t_r, z))
            self.back2.append((dl, w2_r, dz, dl.transpose(0, 2, 1), a, dw2_r, db2_r))
            self.back1.append((dz.transpose(0, 2, 1), xs, dw1_r, dz, db1_r))

    def refill(self) -> None:
        np.add(self.base, self.y, out=self.labels)

    def forward(self) -> None:
        """The hidden activations and logits of the models in w."""
        for xs, w1t, a in self.layer1:
            np.matmul(xs, w1t, out=a)
        self.a1 += self.b1.repeat(self.counts, axis=0)
        np.tanh(self.a1, out=self.a1)
        for a, w2t, z in self.layer2:
            np.matmul(a, w2t, out=z)
        self.logits += self.b2.repeat(self.counts, axis=0)

    def log_softmax(self) -> None:
        """Logits to log-probabilities, in the logits buffer.

        The row max is taken column by column, which beats NumPy's short-axis
        reduction max(axis=1) on many rows. Both are exact (a row holding NaN
        has a NaN max either way); they can differ only in the sign of a max
        where +0 and -0 tie, and such a row's exp-sum is at least 2, so every
        log-probability comes out the same.
        """
        z, col = self.logits, self.col
        c, first, rest = self.max_views
        np.copyto(c, first)
        for zj in rest:
            np.maximum(c, zj, out=c)
        z -= col
        np.exp(z, out=self.dl)
        self.dl.sum(axis=1, keepdims=True, out=col)
        np.log(col, out=col)
        z -= col

    def dlogits(self) -> None:
        """Softmax minus one-hot labels, per sample, from the log-probabilities, in dl."""
        np.exp(self.logits, out=self.dl)
        self.dl_flat[self.labels] -= 1.0

    def backward(self) -> None:
        """The parameter gradients, into g, from the hidden activations and the
        per-sample d(loss)/d(logits) in dl; overwrites the activations."""
        for dl, w2, dz, dl_t, a, dw2, db2 in self.back2:
            np.matmul(dl, w2, out=dz)
            np.matmul(dl_t, a, out=dw2)
            np.add.reduce(dl, axis=1, out=db2)
        a1 = self.a1  # dW2 and db2 have read a1, so 1 - a1^2 may overwrite it
        np.multiply(a1, a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        self.dz *= a1
        for dz_t, xs, dw1, dz, db1 in self.back1:
            np.matmul(dz_t, xs, out=dw1)
            np.add.reduce(dz, axis=1, out=db1)

    def run(self) -> np.ndarray:
        self.forward()
        self.log_softmax()
        self.dlogits()
        self.dl /= self.sample_n
        self.backward()
        return self.g_rows.copy()


class MLPClassifier(_BlockGradModel):
    """One-hidden-layer tanh network with softmax cross-entropy.

    Parameter layout (row-major, weights then biases per layer):
    [W1 (hidden x features), b1 (hidden), W2 (classes x hidden), b2 (classes)].
    """

    _bound = _MLPGrad

    def __init__(self, n_features: int, hidden: int, n_classes: int):
        if hidden < 1 or n_classes < 2:
            raise ValueError("mlp needs hidden >= 1 and n_classes >= 2")
        self.n_features = n_features
        self.hidden = hidden
        self.n_classes = n_classes
        self.dim = hidden * n_features + hidden + n_classes * hidden + n_classes

    def unpack(self, w: np.ndarray):
        """Views W1, b1, W2, b2 of one parameter vector (d,) or of each row of a block (N, d)."""
        p, h, m = self.n_features, self.hidden, self.n_classes
        if w.shape[-1:] != (self.dim,) or w.ndim > 2:
            raise ValueError(f"expected {self.dim} parameters, got shape {w.shape}")
        lead = w.shape[:-1]
        o = 0
        w1 = w[..., o:o + h * p].reshape(*lead, h, p); o += h * p
        b1 = w[..., o:o + h]; o += h
        w2 = w[..., o:o + m * h].reshape(*lead, m, h); o += m * h
        b2 = w[..., o:o + m]
        return w1, b1, w2, b2

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        """Per-sample losses, predictions and (with weights) the gradient, as new arrays;
        the work runs in the buffers of the batch's Block."""
        buf = self.bind(batch.block, self.dim)
        np.copyto(buf.w, w)
        buf.forward()
        pred = buf.logits.argmax(axis=1).astype(np.int64, copy=False)
        buf.log_softmax()
        losses = -buf.logits.take(buf.labels)
        grad = None
        if weights is not None:
            buf.dlogits()
            buf.dl *= weights[:, None]
            buf.backward()
            grad = buf.g[0].copy()
        return Evaluation(losses, grad, pred)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        # per-layer 1/sqrt(fan_in) gaussian weights, zero biases
        p, h, m = self.n_features, self.hidden, self.n_classes
        w1 = rng.normal(0.0, 1.0 / np.sqrt(p), size=(h, p))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(m, h))
        return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(m)])


def make_model(kind: str, n_features: int, n_classes: int, hidden: int):
    """The dataset model of this kind over n_features features and n_classes classes."""
    if kind == "linear-regression":
        return LinearRegression(n_features)
    if kind == "logistic-regression":
        if n_classes != 2:
            raise ValueError(f"model 'logistic-regression' needs 2 classes, data has {n_classes}; use 'mlp'")
        return LogisticRegression(n_features)
    if kind == "mlp":
        return MLPClassifier(n_features, hidden, n_classes)
    raise ValueError(f"unknown model kind {kind!r}")


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
