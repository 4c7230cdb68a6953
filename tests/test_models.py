"""Model oracles: hand-rolled losses, finite-difference gradients, param helpers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedrelax.models import (
    Batch,
    LinearRegression,
    LogisticRegression,
    MLPClassifier,
    QuadraticModel,
    as_params,
    Block,
    finite_diff_grad,
    make_model,
)


def random_batch(rng, n, p, n_classes=None, scale=1.0):
    x = scale * rng.normal(size=(n, p))
    if n_classes is None:
        y = rng.normal(size=n)
    else:
        y = rng.integers(n_classes, size=n)
    return Batch(x, y)


# -- independent scalar-loop oracles (no shared code with the implementations) --

def mlp_loss_oracle(model, w, x, y):
    p, h, m = model.n_features, model.hidden, model.n_classes
    w1 = w[: h * p].reshape(h, p)
    b1 = w[h * p : h * p + h]
    w2 = w[h * p + h : h * p + h + m * h].reshape(m, h)
    b2 = w[h * p + h + m * h :]
    total = 0.0
    for s in range(len(x)):
        a1 = [math.tanh(sum(w1[j, k] * x[s, k] for k in range(p)) + b1[j]) for j in range(h)]
        logits = [sum(w2[c, j] * a1[j] for j in range(h)) + b2[c] for c in range(m)]
        mx = max(logits)
        lse = mx + math.log(sum(math.exp(z - mx) for z in logits))
        total += lse - logits[int(y[s])]
    return total / len(x)


def logistic_loss_oracle(w, x, y):
    total = 0.0
    for s in range(len(x)):
        z = sum(w[k] * x[s, k] for k in range(x.shape[1]))
        total += math.log(1.0 + math.exp(-z)) if y[s] == 1 else math.log(1.0 + math.exp(z))
    return total / len(x)


def linear_loss_oracle(w, x, y):
    total = 0.0
    for s in range(len(x)):
        r = sum(w[k] * x[s, k] for k in range(x.shape[1])) - y[s]
        total += 0.5 * r * r
    return total / len(x)


def test_mlp_loss_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    model = MLPClassifier(4, 3, 5)
    for _ in range(20):
        w = rng.normal(size=model.dim)
        batch = random_batch(rng, 7, 4, n_classes=5)
        assert model.loss(w, batch) == pytest.approx(
            mlp_loss_oracle(model, w, batch.x, batch.y), rel=1e-12
        )


def test_logistic_loss_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    model = LogisticRegression(6)
    for _ in range(20):
        w = rng.normal(size=6)
        batch = random_batch(rng, 9, 6, n_classes=2)
        assert model.loss(w, batch) == pytest.approx(
            logistic_loss_oracle(w, batch.x, batch.y), rel=1e-12
        )


def test_linear_loss_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    model = LinearRegression(5)
    for _ in range(20):
        w = rng.normal(size=5)
        batch = random_batch(rng, 8, 5)
        assert model.loss(w, batch) == pytest.approx(
            linear_loss_oracle(w, batch.x, batch.y), rel=1e-12
        )


def test_logistic_at_zero_params():
    # p = 1/2 everywhere: loss is ln 2, gradient is mean (1/2 - y) x
    rng = np.random.default_rng(3)
    model = LogisticRegression(4)
    batch = random_batch(rng, 50, 4, n_classes=2)
    w = np.zeros(4)
    assert model.loss(w, batch) == pytest.approx(math.log(2.0), rel=1e-14)
    expected = ((0.5 - batch.y)[:, None] * batch.x).mean(axis=0)
    np.testing.assert_allclose(model.grad(w, batch), expected, atol=1e-14)


def test_logistic_loss_overflow_safe():
    model = LogisticRegression(1)
    batch = Batch(np.array([[1.0], [1.0]]), np.array([1, 0]))
    w = np.array([1000.0])  # naive exp overflows here
    losses = model.evaluate(w, batch).losses
    assert losses[0] == pytest.approx(0.0, abs=1e-12)
    assert losses[1] == pytest.approx(1000.0, rel=1e-12)
    assert np.isfinite(model.grad(w, batch)).all()


def test_quadratic_model_closed_form():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -1.0])
    model = QuadraticModel(a, b)
    w = np.array([3.0, 2.0])
    r = w - b
    assert model.loss(w) == pytest.approx(0.5 * r @ a @ r, rel=1e-14)
    np.testing.assert_allclose(model.grad(w), a @ r, atol=1e-14)


def test_quadratic_model_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticModel(np.array([[1.0, 0.2], [0.0, 1.0]]), np.zeros(2))


FD_CASES = [
    ("quadratic", None),
    ("linear-regression", None),
    ("logistic-regression", 2),
    ("mlp", 4),
]


@pytest.mark.parametrize("kind,n_classes", FD_CASES)
def test_gradients_match_finite_differences(kind, n_classes):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(25):
        if kind == "quadratic":
            m = rng.normal(size=(4, 4))
            model = QuadraticModel(m @ m.T + 0.5 * np.eye(4), rng.normal(size=4))
            batch = None
            w = rng.normal(size=4)
        elif kind == "linear-regression":
            model = LinearRegression(5)
            batch = random_batch(rng, 8, 5)
            w = rng.normal(size=5)
        elif kind == "logistic-regression":
            model = LogisticRegression(5)
            batch = random_batch(rng, 8, 5, n_classes=2)
            w = rng.normal(size=5)
        else:
            model = MLPClassifier(4, 3, n_classes)
            batch = random_batch(rng, 6, 4, n_classes=n_classes)
            w = 0.5 * rng.normal(size=model.dim)
        g = model.grad(w, batch)
        fd = finite_diff_grad(model, w, batch, eps=1e-6)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(g - fd) / denom <= 1e-5


def test_finite_diff_rejects_nonpositive_eps():
    model = LinearRegression(2)
    batch = Batch(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="positive"):
        finite_diff_grad(model, np.zeros(2), batch, eps=0.0)


def test_per_sample_losses_mean_equals_loss():
    rng = np.random.default_rng(5)
    for model, batch in [
        (LinearRegression(3), random_batch(rng, 10, 3)),
        (LogisticRegression(3), random_batch(rng, 10, 3, n_classes=2)),
        (MLPClassifier(3, 4, 3), random_batch(rng, 10, 3, n_classes=3)),
    ]:
        w = rng.normal(size=model.dim if hasattr(model, "dim") else 3)
        losses = model.evaluate(w, batch).losses
        assert losses.shape == (10,)
        assert (losses >= 0.0).all()
        assert model.loss(w, batch) == pytest.approx(float(losses.mean()), rel=1e-13)


def test_mlp_init_params_layout():
    model = MLPClassifier(4, 3, 5)
    w = model.init_params(np.random.default_rng(0))
    assert w.shape == (model.dim,)
    _, b1, _, b2 = model.unpack(w)
    assert (b1 == 0.0).all() and (b2 == 0.0).all()


def test_mlp_unpack_rejects_wrong_length():
    model = MLPClassifier(4, 3, 5)
    with pytest.raises(ValueError, match="parameters"):
        model.unpack(np.zeros(model.dim + 1))


def test_logistic_evaluation_predicts_the_margin_sign():
    model = LogisticRegression(2)
    batch = Batch(np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 1.0], [-1.0, -1.0]]),
                  np.array([1, 0, 1, 1]))
    w = np.array([1.0, 0.0])  # predicts sign of first feature
    np.testing.assert_array_equal(model.evaluate(w, batch).pred, [1, 0, 1, 0])
    assert LinearRegression(2).evaluate(w, batch).pred is None


def test_mlp_evaluation_predicts_the_largest_logit():
    model = MLPClassifier(2, 3, 4)
    rng = np.random.default_rng(6)
    w, batch = rng.normal(size=model.dim), random_batch(rng, 9, 2, n_classes=4)
    w1, b1, w2, b2 = model.unpack(w)
    logits = np.tanh(batch.x @ w1.T + b1) @ w2.T + b2
    np.testing.assert_array_equal(model.evaluate(w, batch).pred, logits.argmax(axis=1))


@pytest.mark.parametrize("kind,cls", [("linear-regression", LinearRegression),
                                      ("logistic-regression", LogisticRegression), ("mlp", MLPClassifier)])
def test_make_model_makes_each_kind(kind, cls):
    model = make_model(kind, 3, 2, 4)
    assert type(model) is cls and model.n_features == 3
    assert model.dim == (4 * 3 + 4 + 2 * 4 + 2 if kind == "mlp" else 3)


def test_make_model_refuses_logistic_past_2_classes_and_unknown_kinds():
    with pytest.raises(ValueError, match="model 'logistic-regression' needs 2 classes, data has 3; use 'mlp'"):
        make_model("logistic-regression", 3, 3, 4)
    with pytest.raises(ValueError, match="unknown model kind 'svm'"):
        make_model("svm", 3, 2, 4)


def test_as_params_validates():
    out = as_params([1, 2, 3])
    assert out.dtype == np.float64 and out.shape == (3,)
    with pytest.raises(ValueError):
        as_params(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_params(np.array([1.0, np.nan]))


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.ones((3, 2)), np.zeros(4))


# logits with ties and signed zeros at the row max; an MLP has 2 classes or more
_LOGIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -40.0]), st.floats(-60.0, 60.0))
_LOGITS = st.tuples(st.integers(1, 256), st.integers(2, 13)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=_LOGIT))


def reference_log_softmax(z):
    """MLPClassifier's log-softmax with NumPy's row max(axis=1)."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_softmax(z):
    """The log-softmax of an MLP's bound gradient over len(z) samples, run on the logits z."""
    m, classes = z.shape
    block = Block(np.zeros((m, 1)), np.zeros(m, np.int64), ((1, m),))
    model = MLPClassifier(1, 1, classes)
    grad = model.bind(block, model.dim)
    np.copyto(grad.logits, z)
    grad.log_softmax()
    return grad.logits


@settings(max_examples=300, deadline=None)
@given(z=_LOGITS)
def test_log_softmax_is_bitwise_the_max_axis_1_reference(z):
    # the row max is taken column by column: where +0 and -0 tie it may differ
    # from max(axis=1) in sign, which no log-probability shows
    assert log_softmax(z).tobytes() == reference_log_softmax(z).tobytes()


def test_log_softmax_signed_zero_tie_on_many_classes():
    # from 9 classes on, NumPy's max(axis=1) may return the -0 of a +0/-0 tie
    z = np.full((128, 10), -3.0)
    z[:, 1], z[:, 3] = 0.0, -0.0
    assert log_softmax(z).tobytes() == reference_log_softmax(z).tobytes()
