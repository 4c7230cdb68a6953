"""Closed-form and pooled evaluation against the per-client loops they replace.

The loops below are the definition of the federated objective,
f(w) = (1/C) sum_i f_i(w), summed client by client in ascending id. The
program evaluates it in one pass instead: the quadratic gap form around w*,
and a weighted pass over the pooled shards of a dataset problem. Both reorder
floating-point sums, so the comparison states its tolerance. The constant
estimator's stacked probe gradients and the sums the program folds left to
right (f*, a bound's right-hand side) match their loops bit for bit.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedrelax
from fedrelax.core import HyperParams, run_experiment
from fedrelax.datasets import Dataset, dirichlet_partition, make_blobs, shard_dataset
from fedrelax.metrics import CSV_HEADER, rounds_csv_text
from fedrelax.models import Batch, Evaluation, LinearRegression, LogisticRegression, MLPClassifier, _MLPGrad
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import make_quadratic_family
from fedrelax.strategies import make_strategy
from fedrelax.theory import estimate_problem_constants, verify_convergence_bound

TOL = 1e-12


# -- the per-client oracles -----------------------------------------------------

def quad_loop_loss(fam, w):
    total = 0.0  # a left fold: sum() compensates from Python 3.12 on
    for i in range(fam.n_clients):
        total += fam.client_loss(i, w)
    return total / fam.n_clients


def quad_loop_grad(fam, w):
    g = np.zeros(fam.dim)
    for i in range(fam.n_clients):
        g += fam.client_grad(i, w)
    return g / fam.n_clients


def loop_accuracy(model, w, data):
    """Fraction of samples whose class the model predicts, from its parameters alone;
    None for a regression model."""
    if isinstance(model, MLPClassifier):
        w1, b1, w2, b2 = model.unpack(w)
        pred = (np.tanh(data.x @ w1.T + b1) @ w2.T + b2).argmax(axis=1)
    elif isinstance(model, LogisticRegression):
        pred = data.x @ w >= 0.0
    else:
        return None
    return float(np.mean(pred == data.y))


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
        "train_acc": loop_accuracy(model, w, Batch(np.concatenate([s.x for s in shards]),
                                                   np.concatenate([s.y for s in shards]))),
        "test_acc": None,
    }
    if problem.test is not None:
        out["test_loss"] = model.loss(w, Batch(problem.test.x, problem.test.y))
        out["test_acc"] = loop_accuracy(model, w, problem.test)
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


def test_f_star_is_the_left_fold_of_the_client_losses():
    for seed in range(5):
        fam = make_quadratic_family(40, 3, spread=2.0, cond=8.0, seed=seed)
        assert fam.f_star == quad_loop_loss(fam, fam.w_star)


def loop_probe_sups(family):
    """The per-client probe loop of estimate_problem_constants, before it took one
    stacked gradient per probe: (sup_i ||g_i - g||, sup_i ||g_i|| / ||g||)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0x7E0,)))
    sup_gap, sup_ratio = 0.0, 1.0
    for _ in range(200):
        scale = math.exp(rng.uniform(math.log(1e-3), 0.0))
        w = family.w_star + scale * rng.normal(size=family.dim)
        g = family.global_grad(w)
        g_norm = float(np.linalg.norm(g))
        for i in range(family.n_clients):
            gi = family.client_grad(i, w)
            sup_gap = max(sup_gap, float(np.linalg.norm(gi - g)))
            if g_norm > 1e-12:
                sup_ratio = max(sup_ratio, float(np.linalg.norm(gi)) / g_norm)
    return sup_gap, sup_ratio


@settings(max_examples=40, deadline=None)
@given(n_clients=st.integers(1, 30), dim=st.integers(1, 8), cond=st.floats(1.0, 20.0),
       spread=st.sampled_from([0.0, 1.0, 3.0]), seed=st.integers(0, 2**20))
def test_estimated_constants_are_the_per_client_loop_bit_for_bit(n_clients, dim, cond, spread, seed):
    fam = make_quadratic_family(n_clients, dim, spread=spread, cond=cond, seed=seed)
    est = estimate_problem_constants(QuadraticProblem(fam))
    sup_gap, sup_ratio = loop_probe_sups(fam)
    assert est["b"] == sup_ratio
    if not est["sigma_g_exact"]:
        assert est["sigma_g"] == sup_gap


@pytest.mark.parametrize("theorem", [1, 2, 3, 4])
def test_bound_rhs_is_the_left_fold_of_its_terms(theorem):
    fam = make_quadratic_family(4, 3, spread=0.5, cond=2.0, seed=2)
    prob = QuadraticProblem(fam)
    hp = HyperParams(eta=0.02, rounds=40, n_active=2, k_local=3)
    rep = verify_convergence_bound(theorem, run_experiment(prob, make_strategy("fedinit", beta=0.05),
                                                           hp, seed=0), prob)
    for entry in rep["grid"]:
        rhs = 0.0
        for name, v in entry["terms"].items():
            if name != "relaxation_bias_appendix_variant":
                rhs += v
        assert entry["rhs"] == rhs


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
    got = prob.eval_metrics(w)
    assert_metrics_match(got, want)
    # the gradient whose norm eval_metrics reports: one weighted pass over the pooled shards
    pooled = Batch(np.concatenate([s.x for s in prob.shards]), np.concatenate([s.y for s in prob.shards]))
    weights = np.concatenate([np.full(len(s), 1.0 / (len(prob.shards) * len(s))) for s in prob.shards])
    grad = prob.model.evaluate(w, pooled, weights).grad
    np.testing.assert_allclose(grad, want_grad, rtol=0.0, atol=TOL * np.max(np.abs(want_grad)))
    assert got["grad_norm_sq"] == float(grad @ grad)


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


# -- MLP evaluation in the buffers of the batch's Block ----------------------------

def reference_mlp_evaluate(model, w, batch, weights=None):
    """MLPClassifier.evaluate as it was before a Block kept its buffers: every array is
    allocated per call; the batch is one run of one row, so every stack is (1, n, .)."""
    xs, n = batch.x[None], len(batch)
    w1, b1, w2, b2 = model.unpack(w[None])
    a1 = np.empty((1, n, model.hidden))
    np.matmul(xs, w1.transpose(0, 2, 1), out=a1)
    a1 += b1[:, None]
    np.tanh(a1, out=a1)
    logits = np.empty((1, n, model.n_classes))
    np.matmul(a1, w2.transpose(0, 2, 1), out=logits)
    logits += b2[:, None]
    zmax = logits[0].max(axis=1, keepdims=True)
    shifted = logits[0] - zmax
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    grad = None
    if weights is not None:
        dl = np.exp(logp)
        dl[np.arange(n), batch.y.astype(np.int64, copy=False)] -= 1.0
        dl *= weights[:, None]
        dz = np.empty_like(a1)
        np.matmul(dl[None], w2, out=dz)
        dz *= 1.0 - a1 * a1
        out = np.empty((1, model.dim))
        dw1, db1, dw2, db2 = model.unpack(out)
        np.matmul(dl[None].transpose(0, 2, 1), a1, out=dw2)
        dl[None].sum(axis=1, out=db2)
        np.matmul(dz.transpose(0, 2, 1), xs, out=dw1)
        dz.sum(axis=1, out=db1)
        grad = out[0]
    y = batch.y.astype(np.int64)
    return Evaluation(-logp[np.arange(n), y], grad, logits[0].argmax(axis=1).astype(np.int64))


def batch_buffers(batch):
    """The arrays a model keeps on the batch's Block."""
    return [a for made in batch.block._buffers.values() for a in vars(made).values()
            if isinstance(a, np.ndarray)]


def _labelled(rng, n, p, n_classes):
    return Batch(3.0 * rng.normal(size=(n, p)), rng.integers(n_classes, size=n))


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), hidden=st.integers(1, 9), n_classes=st.integers(2, 12),
       n_train=st.integers(1, 80), n_test=st.integers(1, 40), seed=st.integers(0, 2**16),
       scale=st.sampled_from([0.1, 1.0, 10.0, 300.0]))
def test_mlp_evaluate_in_block_buffers_matches_per_call_reference(p, hidden, n_classes, n_train,
                                                                  n_test, seed, scale):
    rng = np.random.default_rng(seed)
    model = MLPClassifier(p, hidden, n_classes)
    train, test = _labelled(rng, n_train, p, n_classes), _labelled(rng, n_test, p, n_classes)
    wa, wb = scale * rng.normal(size=(2, model.dim))  # large |w| saturates tanh and softmax
    weights_train, weights_test = rng.uniform(0.0, 1.0, size=n_train), rng.uniform(0.0, 1.0, size=n_test)
    # train and test sets and both parameter vectors interleaved, with and without weights
    calls = [(train, wa, weights_train), (test, wb, None), (train, wb, weights_train),
             (test, wa, None), (train, wa, None), (test, wb, weights_test)]
    results, wanted, kept = [], [], []
    for batch, w, weights in calls:
        got = model.evaluate(w, batch, weights)
        want = reference_mlp_evaluate(model, w, batch, weights)
        assert (weights is None) == (got.grad is None)
        for field, a, b in zip(Evaluation._fields, got, want):
            assert a is None or a.tobytes() == b.tobytes(), field
        if len(kept) < 2:
            kept.append(batch_buffers(batch))
        results += [a for a in got if a is not None]
        wanted += [a.tobytes() for a in want if a is not None]
    # each Block built its buffers once, and no result aliases them, another result or an
    # earlier call's result (a paired run reads one set's losses, then the other's)
    assert all(a is b for a, b in zip(batch_buffers(train), kept[0], strict=True))
    assert all(a is b for a, b in zip(batch_buffers(test), kept[1], strict=True))
    for i, a in enumerate(results):
        assert not any(np.shares_memory(a, b) for b in results[i + 1:])
        assert not any(np.shares_memory(a, b) for b in kept[0] + kept[1])
    assert [a.tobytes() for a in results] == wanted  # later calls left earlier results as they were


def test_evaluation_sets_keep_their_buffers(monkeypatch):
    # the pooled train set and the test set are each built once, so after the first
    # round every evaluation runs in the buffers that round allocated
    prob = build("mlp", SHARD_SIZES, 0)
    wa, wb = np.random.default_rng(0).normal(size=(2, prob.dim))
    prob.eval_metrics(wa)
    made, init = [], _MLPGrad.__init__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(_MLPGrad, "__init__", counting_init)
    prob.eval_metrics(wb)
    prob.per_sample_test_losses(wa)
    assert made == []


FAULTS_PER_EVAL = """
import resource
import numpy as np
from fedrelax.datasets import dirichlet_partition, make_blobs, shard_dataset
from fedrelax.models import MLPClassifier
from fedrelax.problems import DatasetProblem
train, test = make_blobs(1000, 10, 10, separation=1.0, cluster_std=1.5, seed=0, n_test=400)
shards = shard_dataset(train, dirichlet_partition(train.y, 20, 0.1, seed=0))
prob = DatasetProblem(MLPClassifier(10, 16, 10), shards, test)
w = prob.default_init(np.random.default_rng(0))
for _ in range(3):
    prob.eval_metrics(w)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    prob.eval_metrics(w)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


def test_mlp_evaluation_takes_no_page_faults_per_round():
    # the benchmark's mlp-noniid shape. Allocating the evaluation temporaries on every call
    # faulted in ~150 fresh pages per call once the allocator had trimmed them off the heap.
    # A fresh interpreter, as a benchmark job has: earlier tests' frees raise the
    # allocator's trim threshold in this one, which hides the faults.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(fedrelax.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_EVAL], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert float(out) < 1.0, f"{out.strip()} minor page faults per eval_metrics call"


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
