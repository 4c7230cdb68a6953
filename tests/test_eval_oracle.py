"""Closed-form and pooled evaluation against the per-client loops they replace.

The loops below are the definition of the federated objective,
f(w) = (1/C) sum_i f_i(w), summed client by client in ascending id. The
program evaluates it in one pass instead: the quadratic gap form around w*,
and a weighted pass over the pooled shards of a dataset problem. Both reorder
floating-point sums, so the comparison states its tolerance.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedrelax.core import HyperParams, run_experiment
from fedrelax.datasets import Dataset, make_blobs
from fedrelax.metrics import CSV_HEADER, rounds_csv_text
from fedrelax.models import Batch, LinearRegression, LogisticRegression, MLPClassifier, accuracy
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import make_quadratic_family
from fedrelax.strategies import make_strategy

TOL = 1e-12


# -- the per-client oracles -----------------------------------------------------

def quad_loop_loss(fam, w):
    return sum(fam.client_loss(i, w) for i in range(fam.n_clients)) / fam.n_clients


def quad_loop_grad(fam, w):
    g = np.zeros(fam.dim)
    for i in range(fam.n_clients):
        g += fam.client_grad(i, w)
    return g / fam.n_clients


def dataset_loop_metrics(problem, w):
    """Round evaluation as one loss and one gradient call per client shard."""
    model, shards = problem.model, problem.shards
    c = len(shards)
    g = np.zeros(problem.dim)
    for s in shards:
        g += model.grad(w, Batch(s.x, s.y))
    g /= c
    out = {
        "train_loss": sum(model.loss(w, Batch(s.x, s.y)) for s in shards) / c,
        "grad_norm_sq": float(g @ g),
        "test_loss": None,
        "train_acc": None,
        "test_acc": None,
    }
    if hasattr(model, "predict"):
        pooled = Batch(np.concatenate([s.x for s in shards]), np.concatenate([s.y for s in shards]))
        out["train_acc"] = accuracy(model, w, pooled)
    if problem.test is not None:
        test = Batch(problem.test.x, problem.test.y)
        out["test_loss"] = model.loss(w, test)
        if hasattr(model, "predict"):
            out["test_acc"] = accuracy(model, w, test)
    return out, g


class LoopDatasetProblem(DatasetProblem):
    def eval_metrics(self, w):
        return dataset_loop_metrics(self, w)[0]


class LoopQuadraticProblem(QuadraticProblem):
    def eval_metrics(self, w):
        g = quad_loop_grad(self.family, w)
        return {"train_loss": quad_loop_loss(self.family, w), "grad_norm_sq": float(g @ g),
                "test_loss": None, "train_acc": None, "test_acc": None}


# -- quadratics -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    n_clients=st.integers(2, 30),
    dim=st.integers(1, 10),
    cond=st.floats(1.0, 20.0),
    spread=st.floats(0.5, 5.0),
    seed=st.integers(0, 2**20),
    distance=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 10.0]),
)
def test_quadratic_closed_form_matches_client_loop(n_clients, dim, cond, spread, seed, distance):
    fam = make_quadratic_family(n_clients, dim, spread=spread, cond=cond, seed=seed)
    u = np.random.default_rng(seed).normal(size=dim)
    w = fam.w_star + distance * u / np.linalg.norm(u)
    # plain relative error is meaningless near w*, where the loop itself
    # cancels; measure against the size of the terms the loop sums
    grad_scale = np.mean([np.linalg.norm(fam.client_grad(i, w)) for i in range(n_clients)])
    loss_scale = np.mean([fam.client_loss(i, w) for i in range(n_clients)])
    assert np.linalg.norm(fam.global_grad(w) - quad_loop_grad(fam, w)) <= TOL * grad_scale
    assert abs(fam.global_loss(w) - quad_loop_loss(fam, w)) <= TOL * loss_scale


@settings(max_examples=40, deadline=None)
@given(n_clients=st.integers(1, 20), dim=st.integers(1, 10), cond=st.floats(1.0, 50.0),
       seed=st.integers(0, 2**20))
def test_quadratic_gap_form_is_exact_at_the_optimum(n_clients, dim, cond, seed):
    fam = make_quadratic_family(n_clients, dim, spread=1.0, cond=cond, seed=seed)
    assert np.all(fam.global_grad(fam.w_star) == 0.0)
    assert fam.global_loss(fam.w_star) == fam.f_star
    assert fam.f_star == quad_loop_loss(fam, fam.w_star)
    # a small gap above f* survives up to the rounding of f* itself
    w = fam.w_star + 1e-6 * np.random.default_rng(seed).normal(size=dim)
    r = w - fam.w_star
    gap = 0.5 * r @ (fam.a_bar @ r)
    assert abs((fam.global_loss(w) - fam.f_star) - gap) <= 2 * np.spacing(max(fam.f_star, gap))


def test_quadratic_eval_metrics_use_no_client_pass():
    fam = make_quadratic_family(50, 4, spread=1.0, cond=5.0, seed=3)
    calls = {"loss": 0, "grad": 0}
    loss, grad = fam.client_loss, fam.client_grad

    def counted_loss(i, w):
        calls["loss"] += 1
        return loss(i, w)

    def counted_grad(i, w):
        calls["grad"] += 1
        return grad(i, w)

    fam.client_loss, fam.client_grad = counted_loss, counted_grad
    prob = QuadraticProblem(fam)
    for t in range(5):
        prob.eval_metrics(np.full(4, float(t)))
    # f* is the only per-client sum, and it is taken once
    assert calls == {"loss": 50, "grad": 0}


# -- dataset problems -----------------------------------------------------------

SHARD_SIZES = (1, 2, 7, 30, 61)


def uneven_shards(x, y, sizes):
    cuts = np.cumsum((0,) + tuple(sizes))
    return [Dataset(x[a:b], y[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


def regression_problem(sizes, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes) + 25
    x = rng.normal(size=(n, 4))
    y = x @ rng.normal(size=4) + 0.3 * rng.normal(size=n)
    shards = uneven_shards(x, y, sizes)
    return DatasetProblem(LinearRegression(4), shards, Dataset(x[-25:], y[-25:]))


def classifier_problem(kind, sizes, seed):
    n_classes = 2 if kind == "logistic" else 3
    train, test = make_blobs(sum(sizes), 4, n_classes, separation=1.5, seed=seed, n_test=40)
    model = LogisticRegression(4) if kind == "logistic" else MLPClassifier(4, 5, n_classes)
    return DatasetProblem(model, uneven_shards(train.x, train.y, sizes), test)


def build(kind, sizes, seed):
    if kind == "linear":
        return regression_problem(sizes, seed)
    return classifier_problem(kind, sizes, seed)


def assert_metrics_match(got, want):
    for key in ("train_loss", "grad_norm_sq", "test_loss"):
        if want[key] is None:
            assert got[key] is None
        else:
            assert got[key] == pytest.approx(want[key], rel=TOL, abs=0.0), key
    assert got["train_acc"] == want["train_acc"]
    assert got["test_acc"] == want["test_acc"]


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.sampled_from([0.1, 1.0, 3.0]))
def test_pooled_pass_matches_client_loop(kind, seed, scale):
    prob = build(kind, SHARD_SIZES, seed % 20)
    w = scale * np.random.default_rng(seed).normal(size=prob.dim)
    want, want_grad = dataset_loop_metrics(prob, w)
    assert_metrics_match(prob.eval_metrics(w), want)
    np.testing.assert_allclose(prob.global_grad(w), want_grad, rtol=0.0,
                               atol=TOL * np.max(np.abs(want_grad)))
    assert prob.global_loss(w) == pytest.approx(want["train_loss"], rel=TOL, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6), seed=st.integers(0, 2**16))
def test_pooled_weights_follow_shard_sizes(sizes, seed):
    prob = build("mlp", [1] + sizes, seed % 20)
    w = prob.default_init(np.random.default_rng(seed))
    assert_metrics_match(prob.eval_metrics(w), dataset_loop_metrics(prob, w)[0])


def test_empty_shard_refused():
    x, y = np.zeros((3, 4)), np.zeros(3)
    with pytest.raises(ValueError, match="at least one sample"):
        DatasetProblem(LinearRegression(4), [Dataset(x, y), Dataset(x[:0], y[:0])])


# -- whole runs -----------------------------------------------------------------

def split_columns(records):
    rows = [line.split(",") for line in rounds_csv_text(records, "h").splitlines()[2:]]
    return {name: [row[j] for row in rows] for j, name in enumerate(CSV_HEADER)}


RUNS = {
    "mlp-fedinit": ("mlp", make_strategy("fedinit", beta=0.1),
                    HyperParams(eta=0.2, rounds=12, n_active=3, k_local=3, batch_size=8)),
    "logistic-scaffold": ("logistic", make_strategy("scaffold", beta=0.05),
                          HyperParams(eta=0.3, rounds=12, n_active=2, local_epochs=1, batch_size=5)),
    "linear-fedavg": ("linear", make_strategy("fedavg"),
                      HyperParams(eta=0.05, rounds=12, n_active=4, k_local=2)),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_client_loop_evaluation(name):
    kind, spec, hp = RUNS[name]
    prob = build(kind, SHARD_SIZES, 1)
    new = run_experiment(prob, spec, hp, seed=4)
    old = run_experiment(LoopDatasetProblem(prob.model, prob.shards, prob.test), spec, hp, seed=4)
    assert np.array_equal(new.final_global, old.final_global)
    a, b = split_columns(new.records), split_columns(old.records)
    for col in ("round", "divergence", "train_acc", "test_acc", "bytes_up", "bytes_down", "lr"):
        assert a[col] == b[col], col
    for new_rec, old_rec in zip(new.records, old.records):
        assert_metrics_match(new_rec.to_dict(), old_rec.to_dict())
    assert_metrics_match(new.summary["final"], old.summary["final"])


def test_quadratic_run_matches_client_loop_evaluation():
    fam = make_quadratic_family(40, 6, spread=1.0, cond=10.0, seed=5)
    spec = make_strategy("fedinit", beta=0.1)
    hp = HyperParams(eta=0.02, rounds=15, n_active=8, k_local=3)
    new = run_experiment(QuadraticProblem(fam, grad_noise=0.1), spec, hp, seed=2)
    old = run_experiment(LoopQuadraticProblem(fam, grad_noise=0.1), spec, hp, seed=2)
    assert np.array_equal(new.final_global, old.final_global)
    a, b = split_columns(new.records), split_columns(old.records)
    for col in ("round", "divergence", "lr"):
        assert a[col] == b[col], col
    for new_rec, old_rec in zip(new.records, old.records):
        assert new_rec.train_loss == pytest.approx(old_rec.train_loss, rel=TOL, abs=0.0)
        assert new_rec.grad_norm_sq == pytest.approx(old_rec.grad_norm_sq, rel=TOL, abs=0.0)
