"""Model parameterizations over flat float64 vectors.

Every model exposes the same small surface: ``dim`` (parameter count),
``loss(w, batch)``, ``grad(w, batch)``, and for classifiers ``predict``.
Dataset models also have ``evaluate(w, batch, weights)``, which serves
evaluation with one forward pass (per-sample losses and predictions) and,
when sample weights are given, one backward pass (the gradient of the
weighted loss sum). Parameters are always 1-D ``float64`` arrays; nothing in
the engine ever reshapes them except inside a model's own forward pass.

Dataset models train through one gradient, ``block_grad(w, block)``: the
(N, d) block w of models, each row with its own mini-batch, over a ``Block``
that holds the samples of all rows gathered in one buffer, in row order;
each stretch of consecutive rows with equal batch length is a run. A local
step gathers its rows grouped by batch length (problems.DatasetProblem), so
it has one run per distinct length. Element-wise work (activations, the
MLP's bias adds, softmax, residuals, the division by each row's batch
length) runs once over the whole buffer; every product and batch sum runs
once per run, as one stacked NumPy call whose slices have exactly the shapes
of a row alone. A bias is added as a per-sample array (each row's bias
repeated over its samples), the same additions as one add per row. Padding
rows to a common length would change the products' shapes, and OpenBLAS
rounds a product differently when its row count changes; a bias-gradient sum
over all runs at once (np.add.reduceat) adds in another order. So each row of
a block rounds exactly as that row alone, and ``grad(w, batch)`` is the block
gradient of a one-row block.

A block gradient's per-sample work (the MLP's activations, logits, softmax
and back-propagated errors; a linear model's residuals) lives in buffers the
Block keeps, made on its first call and reused by every later one: its own,
or, for the Blocks of local steps, views of one Arena the problem's Blocks
share. MLP evaluation runs in the buffers of the batch's one-row Block, which
each Batch keeps, so evaluating the same set every round allocates them once.
Losses, predictions and gradients are always new arrays, never views of
those buffers.
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
        return _one_row(self.x, self.y)


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
    """Memory shared by Blocks that are used one at a time: per name, one
    buffer whose start a Block's array of that name views. A Block that needs
    more than the buffer holds gets a new, larger one; Blocks made before keep
    the old one."""

    def __init__(self):
        self._buffers = {}

    def empty(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


class Block:
    """Gathered samples of an (N, d) block of models, one mini-batch per row.

    x (M, p) and y (M,) hold the rows' samples run by run: runs = [(k, n), ...],
    in buffer order, says that the next k rows each own the next n samples,
    one row after another. A block that serves many steps (full batches) or
    evaluations (a kept Batch's block) pays for its views, length columns and
    work buffers once, and so do mini-batch steps: a problem keeps one Block
    per run layout, and a later step of that layout refills the Block's x and
    y in place (refill). Such Blocks take x, y and their work buffers from one
    shared Arena, so only one of them is in use at a time. A paired stability
    run's block holds both sides' rows of each client, of equal length, so its
    runs have 2 rows or more (problems.DatasetProblem.side_by_side).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, runs, arena: Arena | None = None):
        self.x, self.y, self.runs, self.arena = x, y, runs, arena
        self._buffers = {}
        self._of_y = {}  # what derives from y's values, dropped by refill
        # per run: its row slice, and its (start, stop, k, n) in the sample buffer
        rows, self._cuts, r, s = [], [], 0, 0
        for k, n in runs:
            rows.append(slice(r, r + k))
            self._cuts.append((s, s + k * n, k, n))
            r, s = r + k, s + k * n
        # per run: row slice, samples as a (k, n, p) stack
        self.parts = list(zip(rows, self.split(x)))

    def refill(self, x: np.ndarray, y: np.ndarray, take: np.ndarray) -> None:
        """Gather x[take] and y[take] into this block's x and y: another step's
        samples in the same runs. Views and work buffers stay; the label index
        and float targets are rebuilt from the new y on their next use."""
        # mode="clip" writes straight into out ("raise" buffers it); every index is in range
        x.take(take, axis=0, out=self.x, mode="clip")
        y.take(take, out=self.y, mode="clip")
        self._of_y.clear()

    def empty(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A work buffer over this block: new, or the arena's buffer of that name."""
        return np.empty(shape, dtype) if self.arena is None else self.arena.empty(name, shape, dtype)

    def split(self, a: np.ndarray) -> list[np.ndarray]:
        """Views of an (M,) or (M, w) array of per-sample values, one (k, n, 1 or w) stack per run."""
        return [a[s:e].reshape(k, n, -1) for s, e, k, n in self._cuts]

    @cached_property
    def scratch(self) -> tuple[np.ndarray, list[tuple]]:
        """An (M,) buffer, and per run its parts, the samples' (k, p, n) transpose
        and the buffer's (k, n, 1) view.

        A linear model's block gradient keeps its margins and residuals there
        on every call, so a block that serves K full-batch steps splits them
        once; it never returns a view of the buffer.
        """
        z = self.empty("z", (len(self.x),))
        return z, [(rows, xs, xs.transpose(0, 2, 1), zs) for (rows, xs), zs in zip(self.parts, self.split(z))]

    def buffers(self, kind, *sizes):
        """kind(self, *sizes): a model's work buffers over this block, built on
        the first call with these sizes and returned by every later one."""
        key = (kind, *sizes)
        made = self._buffers.get(key)
        if made is None:
            made = self._buffers[key] = kind(self, *sizes)
        return made

    @property
    def targets(self) -> np.ndarray:
        """The targets as floats; they subtract as the int ones do."""
        made = self._of_y.get("targets")
        if made is None:
            made = self._of_y["targets"] = self.empty("targets", (len(self.y),))
            np.copyto(made, self.y)
        return made

    def labels(self, classes: int) -> np.ndarray:
        """The flat index of each sample's target in an (M, classes) array."""
        made = self._of_y.get(classes)
        if made is None:
            made = self._of_y[classes] = self.empty("labels", (len(self.y),), np.int64)
            np.multiply(np.arange(len(made)), classes, out=made)
            made += self.y.astype(np.int64, copy=False)
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


def _one_row(x: np.ndarray, y: np.ndarray | None) -> Block:
    """The block of one row whose mini-batch is all of x."""
    return Block(x, y, ((1, len(x)),))


def _row_max(z: np.ndarray, out: np.ndarray) -> None:
    """The max of each row of the (M, m) array z, into the (M, 1) array out.

    It is taken column by column, which beats NumPy's short-axis reduction
    max(axis=1) on many rows. Both are exact (a row holding NaN has a NaN max
    either way); they can differ only in the sign of a max where +0 and -0
    tie, and such a row's exp-sum in a log-softmax is at least 2, so every
    log-probability comes out the same.
    """
    c = out[:, 0]
    np.copyto(c, z[:, 0])
    for j in range(1, z.shape[1]):
        np.maximum(c, z[:, j], out=c)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # stable for large |z|


def _sigmoid_in_place(z: np.ndarray) -> None:
    """z = _sigmoid(z), by the same operations in the same order, in z's buffer."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5


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


class _BlockGradModel:
    """A dataset model's grad(w, batch): its block gradient on a one-row block."""

    def grad(self, w: np.ndarray, batch: Batch) -> np.ndarray:
        return self.block_grad(w[None], batch.block)[0]


def _glm_block_grad(w: np.ndarray, block: Block, link) -> np.ndarray:
    """Rows x_j^T (link(x_j w_j) - y_j) / n_j of a linear model's block.

    link applies the link function in place (None: identity); margins and
    residuals live in the block's scratch buffer, the gradient in a new array.
    """
    z, runs = block.scratch
    y = block.targets
    w_cols = w[:, :, None]
    for rows, xs, _, zs in runs:
        np.matmul(xs, w_cols[rows], out=zs)
    if link is not None:
        link(z)
    np.subtract(z, y, out=z)  # residuals, in place
    out = np.empty(w.shape)
    out_cols = out[:, :, None]
    for rows, _, xt, rs in runs:
        np.matmul(xt, rs, out=out_cols[rows])
    out /= block.row_n
    return out


class LinearRegression(_BlockGradModel):
    """f(w) = 0.5 * mean_j (x_j . w - y_j)^2, no intercept."""

    kind = "linear-regression"

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.dim = n_features

    def loss(self, w: np.ndarray, batch: Batch) -> float:
        r = batch.x @ w - batch.y
        return 0.5 * float(np.mean(r * r))

    def block_grad(self, w: np.ndarray, block: Block) -> np.ndarray:
        return _glm_block_grad(w, block, None)

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        r = batch.x @ w - batch.y
        grad = None if weights is None else batch.x.T @ (weights * r)
        return Evaluation(0.5 * r * r, grad, None)

    def init_params(self, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.zeros(self.dim)


class LogisticRegression(_BlockGradModel):
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

    def block_grad(self, w: np.ndarray, block: Block) -> np.ndarray:
        return _glm_block_grad(w, block, _sigmoid_in_place)

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


class MLPClassifier(_BlockGradModel):
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

    def _forward(self, block: Block, w1, b1, w2, b2) -> _MLPBuffers:
        """The block's buffers, holding the hidden activations and logits of the
        block of models whose unpacked parameters are w1, b1, w2, b2."""
        buf = block.buffers(_MLPBuffers, self.hidden, self.n_classes)
        w1t, w2t = w1.transpose(0, 2, 1), w2.transpose(0, 2, 1)
        # each bias is added once, repeated per sample: the same additions as one per row
        for rows, xs, z1, *_ in buf.runs:
            np.matmul(xs, w1t[rows], out=z1)
        buf.a1 += b1.repeat(block.row_counts, axis=0)
        np.tanh(buf.a1, out=buf.a1)
        for rows, _, a, z2, *_ in buf.runs:
            np.matmul(a, w2t[rows], out=z2)
        buf.logits += b2.repeat(block.row_counts, axis=0)
        return buf

    @staticmethod
    def _log_softmax(buf: _MLPBuffers) -> None:
        """Logits to log-probabilities, in the logits buffer."""
        z, col = buf.logits, buf.col
        _row_max(z, col)
        z -= col
        np.exp(z, out=buf.dl)
        buf.dl.sum(axis=1, keepdims=True, out=col)
        np.log(col, out=col)
        z -= col

    @staticmethod
    def _dlogits(buf: _MLPBuffers, block: Block) -> None:
        """Softmax minus one-hot labels, per sample, from the log-probabilities, in buf.dl."""
        np.exp(buf.logits, out=buf.dl)
        buf.dl.reshape(-1)[block.labels(buf.dl.shape[1])] -= 1.0

    def _backward(self, block: Block, buf: _MLPBuffers, w2: np.ndarray) -> np.ndarray:
        """Parameter gradients (N, d) of the block of models with output weights w2
        from buf's hidden activations and per-sample d(loss)/d(logits); overwrites
        the activations."""
        out = np.empty((len(w2), self.dim))
        dw1, db1, dw2, db2 = self.unpack(out)
        for rows, _, a, _, dl, dl_t, dz, _ in buf.runs:
            np.matmul(dl, w2[rows], out=dz)
            np.matmul(dl_t, a, out=dw2[rows])
            np.add.reduce(dl, axis=1, out=db2[rows])
        a1 = buf.a1  # dW2 and db2 have read a1, so 1 - a1^2 may overwrite it
        np.multiply(a1, a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        buf.dz *= a1
        for rows, xs, _, _, _, _, dz, dz_t in buf.runs:
            np.matmul(dz_t, xs, out=dw1[rows])
            np.add.reduce(dz, axis=1, out=db1[rows])
        return out

    def loss(self, w: np.ndarray, batch: Batch) -> float:
        return float(np.mean(self.evaluate(w, batch).losses))

    def block_grad(self, w: np.ndarray, block: Block) -> np.ndarray:
        w1, b1, w2, b2 = self.unpack(w)
        buf = self._forward(block, w1, b1, w2, b2)
        self._log_softmax(buf)
        self._dlogits(buf, block)
        buf.dl /= block.sample_n
        return self._backward(block, buf, w2)

    def evaluate(self, w: np.ndarray, batch: Batch, weights: np.ndarray | None = None) -> Evaluation:
        """Per-sample losses, predictions and (with weights) the gradient, as new arrays;
        the work runs in the buffers of the batch's Block."""
        block = batch.block
        w1, b1, w2, b2 = self.unpack(w[None])
        buf = self._forward(block, w1, b1, w2, b2)
        pred = buf.logits.argmax(axis=1).astype(np.int64, copy=False)
        self._log_softmax(buf)
        losses = -buf.logits.take(block.labels(self.n_classes))
        grad = None
        if weights is not None:
            self._dlogits(buf, block)
            buf.dl *= weights[:, None]
            grad = self._backward(block, buf, w2)[0]
        return Evaluation(losses, grad, pred)

    def predict(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        buf = self._forward(_one_row(x, None), *self.unpack(w[None]))
        return buf.logits.argmax(axis=1).astype(np.int64)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        # per-layer 1/sqrt(fan_in) gaussian weights, zero biases
        p, h, m = self.n_features, self.hidden, self.n_classes
        w1 = rng.normal(0.0, 1.0 / np.sqrt(p), size=(h, p))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(m, h))
        return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(m)])


class _MLPBuffers:
    """An MLP's per-sample work buffers over one Block: hidden activations a1
    and their back-propagated errors dz (M, hidden), logits (then
    log-probabilities) and softmax errors dl (M, classes), and one (M, 1)
    column for the row max, then the log of the row sum. runs holds per run
    its Block.parts, then its (k, n, w) stacks of a1 and the logits, and of dl
    and dz, each of those two followed by its (k, w, n) transpose."""

    def __init__(self, block: Block, hidden: int, n_classes: int):
        m = len(block.x)
        self.a1, self.dz = block.empty("a1", (m, hidden)), block.empty("dz", (m, hidden))
        self.logits, self.dl = block.empty("logits", (m, n_classes)), block.empty("dl", (m, n_classes))
        self.col = block.empty("col", (m, 1))
        self.runs = [(*part, a, z, dl, dl.transpose(0, 2, 1), dz, dz.transpose(0, 2, 1))
                     for part, a, z, dl, dz
                     in zip(block.parts, *map(block.split, (self.a1, self.logits, self.dl, self.dz)))]


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
