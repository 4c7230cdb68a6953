"""Block training against the per-client loop it replaces.

The loop below is the definition of a round's local training: each sampled
client, in ascending id, starts at w + beta * (w - last_local), takes its K
steps alone on 1-D vectors with its own sampler, and writes its rows. The
program trains the participants in (n, d) blocks instead (one per step count
under local_epochs, each cut to at most problem.block_rows rows). Every
operation is row-wise, so the two must agree bit for bit: in the population
matrices, the server state, rounds.csv and every client stream.

For dataset problems the loop's gradients come from the reference per-row
gradients below, written out here rather than taken from the package: the
program computes every dataset gradient as a block over gathered samples,
and must round each row exactly as these one-sample-set formulas do.
"""
import itertools
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedrelax import quadratics
from fedrelax import strategies as strat
from fedrelax.artifacts import load_checkpoint, restore_simulation
from fedrelax.core import HyperParams, Simulation, aggregate, relaxed_init, sample_clients
from fedrelax.datasets import Dataset, make_blobs
from fedrelax.metrics import FLOAT_BYTES, RoundRecord, rounds_csv_text
from fedrelax.models import Arena, Batch, Block, LinearRegression, LogisticRegression, MLPClassifier
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import QuadraticFamily, make_quadratic_family
from fedrelax.strategies import LocalCtx, make_strategy

KINDS = ("fedavg", "fedadam", "fedsam", "scaffold", "feddyn", "fedcm")


# -- reference per-row gradients of the mean loss over one sample set (x, y) ---------

def ref_linear_grad(model, w, x, y):
    r = x @ w - y
    return x.T @ r / len(x)


def ref_logistic_grad(model, w, x, y):
    z = x @ w
    return x.T @ (0.5 * (1.0 + np.tanh(0.5 * z)) - y) / len(x)


def ref_mlp_grad(model, w, x, y):
    p, h, m = model.n_features, model.hidden, model.n_classes
    w1 = w[:h * p].reshape(h, p)
    b1 = w[h * p:h * p + h]
    w2 = w[h * p + h:h * p + h + m * h].reshape(m, h)
    b2 = w[h * p + h + m * h:]
    n = len(x)
    a1 = np.tanh(x @ w1.T + b1)
    logits = a1 @ w2.T + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    prob = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    prob[np.arange(n), y.astype(np.int64)] -= 1.0
    dlogits = prob / n
    dz1 = (dlogits @ w2) * (1.0 - a1 * a1)
    return np.concatenate([(dz1.T @ x).ravel(), dz1.sum(axis=0),
                           (dlogits.T @ a1).ravel(), dlogits.sum(axis=0)])


REFERENCE_GRADS = {LinearRegression: ref_linear_grad, LogisticRegression: ref_logistic_grad,
                   MLPClassifier: ref_mlp_grad}


# -- the per-client oracle --------------------------------------------------------

def oracle_client_step(spec, w, grad_fn, ctx):
    """One local step of a single client's 1-D model."""
    kind = spec.kind
    if kind in ("fedavg", "fedadam"):
        d = grad_fn(w)
    elif kind == "fedsam":
        g0 = grad_fn(w)
        if spec.rho == 0.0:
            d = g0
        else:
            norm = float(np.linalg.norm(g0))
            d = g0 if norm == 0.0 else grad_fn(w + (spec.rho / norm) * g0)
    elif kind == "scaffold":
        d = grad_fn(w) - ctx.client_aux["control"] + ctx.server_aux["control"]
    elif kind == "feddyn":
        d = grad_fn(w) - ctx.client_aux["dual"]
        if spec.dyn_alpha != 0.0:
            d = d + spec.dyn_alpha * (w - ctx.anchor)
    else:
        g = grad_fn(w)
        if spec.cm_alpha == 0.0:
            d = g
        else:
            d = spec.cm_alpha * ctx.server_aux["momentum"] + (1.0 - spec.cm_alpha) * g
    return w - ctx.eta * d


def oracle_grad_fns(problem, i, rng, batch_size):
    """Client i's sampler: one gradient function per local step.

    rng is a zero-argument accessor of client i's generator, called only to
    draw noise or to reshuffle.
    """
    if isinstance(problem, QuadraticProblem):
        fam, noise = problem.family, problem.grad_noise
        while True:
            if noise == 0.0:
                yield lambda w: fam.client_grad(i, w)
            else:
                eps = rng().normal(0.0, noise, size=fam.dim)
                yield lambda w, eps=eps: fam.client_grad(i, w) + eps
    shard, model = problem.shards[i], problem.model
    grad = REFERENCE_GRADS[type(model)]
    n = len(shard)
    if batch_size is None or batch_size >= n:
        while True:
            yield lambda w: grad(model, w, shard.x, shard.y)
    perm, cursor = None, 0
    while True:
        if perm is None or cursor >= n:
            perm, cursor = rng().permutation(n), 0
        idx = perm[cursor:cursor + batch_size]
        cursor += batch_size
        x, y = shard.x[idx], shard.y[idx]
        yield lambda w, x=x, y=y: grad(model, w, x, y)


class LoopSimulation(Simulation):
    """The round with its participants trained one client at a time."""

    def _train_one(self, cid, eta):
        ctx = LocalCtx(
            anchor=self.server.global_params,
            start=relaxed_init(self.server.global_params, self.last_local[cid], self.spec.beta),
            eta=eta,
            k_steps=self.steps_for(cid),
            client_aux={k: m[cid] for k, m in self.client_aux.items()},
            server_aux=self.server.aux,
        )
        grad_fns = oracle_grad_fns(self.problem, cid, partial(self.client_rng, cid),
                                   self.hp.batch_size)
        w = ctx.start
        for _ in range(ctx.k_steps):
            w = oracle_client_step(self.spec, w, next(grad_fns), ctx)
        for k, v in strat.finish_local(self.spec, ctx, w).items():
            self.client_aux[k][cid] = v
        self.last_local[cid] = w
        return ctx.k_steps

    def step(self):
        t = self.server.round
        eta = self.hp.lr_at(t)
        metrics = self.problem.eval_metrics(self.server.global_params)
        div = self.current_divergence()
        active = sample_clients(self.server.rng, self.problem.n_clients, self.hp.n_active)
        aux_before = {k: m[active] for k, m in self.client_aux.items()}
        steps = [self._train_one(cid, eta) for cid in active]
        weights = None if self.agg_weights is None else self.agg_weights[active]
        self.server.global_params = strat.server_step(
            self.spec, self.server.global_params, aggregate(self.last_local[active], weights),
            self.server.aux, eta=eta, mean_k=float(np.mean(steps)), round_idx=t,
            aux_change={k: self.client_aux[k][active] - v for k, v in aux_before.items()},
            n_clients=self.problem.n_clients,
        )
        self.server.round = t + 1
        down, up = strat.PAYLOADS[self.spec.kind]
        n, d = self.hp.n_active, self.problem.dim
        record = RoundRecord(
            round=t, divergence=div, grad_norm_sq=metrics["grad_norm_sq"],
            train_loss=metrics["train_loss"], test_loss=metrics["test_loss"],
            train_acc=metrics["train_acc"], test_acc=metrics["test_acc"],
            bytes_up=n * d * FLOAT_BYTES * up, bytes_down=n * d * FLOAT_BYTES * down, lr=eta,
        )
        self.records.append(record)
        return record


# -- comparison -------------------------------------------------------------------

def run_both(problem, spec, hp, seed):
    block = Simulation(problem, spec, hp, seed)
    loop = LoopSimulation(problem, spec, hp, seed)
    block.run()
    loop.run()
    return block, loop


def assert_bitwise_same(block, loop):
    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    assert same(block.server.global_params, loop.server.global_params)
    assert same(block.last_local, loop.last_local)
    assert block.client_aux.keys() == loop.client_aux.keys()
    assert all(same(block.client_aux[k], loop.client_aux[k]) for k in block.client_aux)
    assert all(same(block.server.aux[k], loop.server.aux[k]) for k in block.server.aux)
    assert rounds_csv_text(block.records, "") == rounds_csv_text(loop.records, "")
    streams = [[None if g is None else g.bit_generator.state for g in sim.client_rngs]
               for sim in (block, loop)]
    assert streams[0] == streams[1]


def spec_for(kind, ri, beta=0.2):
    return make_strategy(kind, beta=beta if ri else None)


# -- quadratics ---------------------------------------------------------------------

@st.composite
def quadratic_runs(draw):
    c = draw(st.integers(1, 12))
    return dict(
        n_clients=c, dim=draw(st.integers(1, 6)), cond=draw(st.floats(1.0, 10.0)),
        family_seed=draw(st.integers(0, 2**16)), grad_noise=draw(st.sampled_from([0.0, 0.1, 0.5])),
        eta=draw(st.floats(0.01, 0.1)), rounds=draw(st.integers(1, 6)),
        n_active=draw(st.integers(1, c)), k=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)),
    )


NOISY_RUN = dict(n_clients=9, dim=5, cond=6.0, family_seed=7, grad_noise=0.5, eta=0.05,
                 rounds=5, n_active=6, k=3, seed=4)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@example(run=NOISY_RUN, ri=True)
@given(run=quadratic_runs(), ri=st.booleans())
def test_block_training_matches_per_client_loop_on_quadratics(kind, run, ri):
    fam = make_quadratic_family(run["n_clients"], run["dim"], spread=1.0, cond=run["cond"],
                                seed=run["family_seed"])
    problem = QuadraticProblem(fam, grad_noise=run["grad_noise"])
    hp = HyperParams(eta=run["eta"], rounds=run["rounds"], n_active=run["n_active"],
                     k_local=run["k"])
    assert_bitwise_same(*run_both(problem, spec_for(kind, ri), hp, run["seed"]))


def test_fedsam_zero_gradient_row_matches_loop():
    # client 0's target is w0 = 0, so its row has a zero gradient at every step
    b = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 0.5]])
    fam = QuadraticFamily(np.stack([np.diag([1.0, 2.0])] * 3), b)
    hp = HyperParams(eta=0.1, rounds=1, n_active=3, k_local=3)
    block, loop = run_both(QuadraticProblem(fam), make_strategy("fedsam", rho=0.5), hp, 0)
    assert_bitwise_same(block, loop)
    np.testing.assert_array_equal(block.last_local[0], [0.0, 0.0])
    assert not np.array_equal(block.last_local[1], [0.0, 0.0])


# -- rounds trained in several blocks of at most block_rows rows ---------------------

SPLIT_RUN = dict(n_clients=9, dim=4, cond=5.0, family_seed=11, eta=0.05, rounds=4, n_active=7, k=3, seed=2)


def split_problem(monkeypatch, rows, grad_noise):
    """SPLIT_RUN's quadratic problem, with BLOCK_BYTES set so that block_rows is rows."""
    run, d = SPLIT_RUN, SPLIT_RUN["dim"]
    monkeypatch.setattr(quadratics, "BLOCK_BYTES", rows * 8 * d * d)
    fam = make_quadratic_family(run["n_clients"], d, spread=1.0, cond=run["cond"], seed=run["family_seed"])
    problem = QuadraticProblem(fam, grad_noise=grad_noise)
    assert problem.block_rows == rows
    return problem


def split_hp(rounds=SPLIT_RUN["rounds"]):
    run = SPLIT_RUN
    return HyperParams(eta=run["eta"], rounds=rounds, n_active=run["n_active"], k_local=run["k"])


@pytest.mark.parametrize("grad_noise", [0.0, 0.2])
@pytest.mark.parametrize("rows", [1, 2, 3, SPLIT_RUN["n_active"] - 1])
@pytest.mark.parametrize("ri", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_split_blocks_match_per_client_loop(monkeypatch, kind, ri, rows, grad_noise):
    problem = split_problem(monkeypatch, rows, grad_noise)
    block, loop = run_both(problem, spec_for(kind, ri), split_hp(), SPLIT_RUN["seed"])
    active = np.arange(SPLIT_RUN["n_active"])
    assert len(block._step_groups(active)) == math.ceil(SPLIT_RUN["n_active"] / rows) > 1
    assert_bitwise_same(block, loop)


@pytest.mark.parametrize("kind", ["scaffold", "fedcm"])
def test_run_resumed_under_split_blocks_equals_the_straight_run(monkeypatch, tmp_path, kind):
    spec, seed = spec_for(kind, True), SPLIT_RUN["seed"]
    straight = Simulation(split_problem(monkeypatch, SPLIT_RUN["n_active"], 0.2), spec, split_hp(), seed)
    straight.run()
    problem = split_problem(monkeypatch, 2, 0.2)
    first = Simulation(problem, spec, split_hp(rounds=2), seed)
    first.run(checkpoint_every=2, checkpoint_path=tmp_path / "ck.json")
    resumed = restore_simulation(problem, spec, split_hp(), load_checkpoint(tmp_path / "ck.json"))
    resumed.run()
    assert_bitwise_same(resumed, straight)


# -- dataset models: mini-batches, short last batches, uneven local epochs ----------

MODELS = ("linear-regression", "logistic-regression", "mlp")


def dataset_problem(model_kind, sizes, seed):
    """A dataset problem over blob shards of the given sizes, cut from one blob sample."""
    n_classes = 2 if model_kind == "logistic-regression" else 3
    data = make_blobs(sum(sizes), 3, n_classes, separation=2.0, seed=seed, n_test=0)
    bounds = np.cumsum([0, *sizes])
    shards = [Dataset(data.x[a:b], data.y[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    model = {"linear-regression": LinearRegression(3), "logistic-regression": LogisticRegression(3),
             "mlp": MLPClassifier(3, 4, 3)}[model_kind]
    return DatasetProblem(model, shards)


@st.composite
def dataset_runs(draw):
    sizes = draw(st.lists(st.integers(1, 61), min_size=1, max_size=6))
    epochs = draw(st.booleans())
    return dict(
        sizes=sizes, data_seed=draw(st.integers(0, 2**16)),
        batch_size=draw(st.sampled_from([None, 1, 4, 8, 16, 64])),
        k=None if epochs else draw(st.integers(1, 3)),
        epochs=draw(st.integers(1, 2)) if epochs else None,
        n_active=draw(st.integers(1, len(sizes))), rounds=draw(st.integers(1, 3)),
        weighted=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
    )


# four step counts 2 * ceil(n / 8) in one round: 2, 6, 10 and 4
UNEVEN_EPOCHS_RUN = dict(sizes=[3, 17, 40, 9], data_seed=1, batch_size=8, k=None, epochs=2,
                         n_active=4, rounds=2, weighted=True, seed=3)
# short last batches of every length 1..7 beside full ones, and shards of 1 and 61
SHORT_BATCHES_RUN = dict(sizes=[1, 9, 18, 27, 36, 45, 61], data_seed=2, batch_size=8, k=4,
                         epochs=None, n_active=7, rounds=3, weighted=False, seed=5)
# every row full-batch with N < C: each step gathers the same rows; equal and distinct lengths
FULL_BATCH_RUN = dict(sizes=[5, 12, 5, 30, 12, 1], data_seed=3, batch_size=None, k=3,
                      epochs=None, n_active=5, rounds=3, weighted=True, seed=6)
# every client full-batch (batch_size above every shard): the pass trains on the pooled buffer
ALL_CLIENTS_FULL_BATCH_RUN = dict(sizes=[5, 12, 5, 30, 12, 1], data_seed=3, batch_size=64, k=3,
                                  epochs=None, n_active=6, rounds=3, weighted=False, seed=6)
# a block of one row
ONE_ROW_RUN = dict(sizes=[23, 7], data_seed=4, batch_size=4, k=None, epochs=1,
                   n_active=1, rounds=3, weighted=False, seed=7)


def check_dataset_run(model_kind, kind, run, ri):
    problem = dataset_problem(model_kind, run["sizes"], run["data_seed"])
    hp = HyperParams(eta=0.2, rounds=run["rounds"], n_active=run["n_active"], k_local=run["k"],
                     local_epochs=run["epochs"], batch_size=run["batch_size"],
                     weighted_aggregation=run["weighted"])
    assert_bitwise_same(*run_both(problem, spec_for(kind, ri), hp, run["seed"]))


def dataset_examples(test):
    for run, ri in ((UNEVEN_EPOCHS_RUN, True), (SHORT_BATCHES_RUN, True),
                    (FULL_BATCH_RUN, False), (ALL_CLIENTS_FULL_BATCH_RUN, True), (ONE_ROW_RUN, True)):
        test = example(run=run, ri=ri)(test)
    return test


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@dataset_examples
@given(run=dataset_runs(), ri=st.booleans())
def test_block_training_matches_per_client_loop_on_mlp(kind, run, ri):
    check_dataset_run("mlp", kind, run, ri)


@pytest.mark.parametrize("model_kind", ["linear-regression", "logistic-regression"])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=5, deadline=None)
@dataset_examples
@given(run=dataset_runs(), ri=st.booleans())
def test_block_training_matches_per_client_loop_on_linear_models(model_kind, kind, run, ri):
    check_dataset_run(model_kind, kind, run, ri)


def test_uneven_epochs_example_has_several_step_groups():
    run = UNEVEN_EPOCHS_RUN
    hp = HyperParams(eta=0.2, rounds=1, n_active=4, local_epochs=run["epochs"],
                     batch_size=run["batch_size"])
    sim = Simulation(dataset_problem("mlp", run["sizes"], run["data_seed"]),
                     make_strategy("fedavg"), hp, 0)
    assert sorted(sim.steps_for(i) for i in range(4)) == [2, 4, 6, 10]


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12), epochs=st.booleans(),
       rows=st.integers(1, 13), data=st.data())
def test_step_groups_are_ascending_disjoint_blocks_covering_active(sizes, epochs, rows, data):
    problem = dataset_problem("linear-regression", sizes, 0)
    hp = HyperParams(eta=0.1, rounds=1, n_active=len(sizes), k_local=None if epochs else 2,
                     local_epochs=1 if epochs else None, batch_size=8)
    sim = Simulation(problem, make_strategy("fedavg"), hp, 0)
    active = np.array(sorted(data.draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1))))
    steps = {i: sim.steps_for(i) for i in active.tolist()}
    # a DatasetProblem trains one block per step count
    assert problem.block_rows is None
    assert [(k, ids.tolist()) for k, ids in sim._step_groups(active)] == [
        (k, [i for i in steps if steps[i] == k]) for k in sorted(set(steps.values()))]
    with mock.patch.object(problem, "block_rows", rows):
        groups = sim._step_groups(active)
    assert sorted(i for _, ids in groups for i in ids.tolist()) == active.tolist()
    for k in set(steps.values()):
        # a step count's ids, in ascending order, cut into near-equal consecutive blocks
        parts = [ids.tolist() for kk, ids in groups if kk == k]
        assert sum(parts, []) == [i for i in steps if steps[i] == k]
        assert len(parts) == math.ceil(len(sum(parts, [])) / rows)
        assert max(map(len, parts)) <= rows and max(map(len, parts)) - min(map(len, parts)) <= 1


def test_quadratic_block_rows_fill_the_budget():
    for d, rows in ((1, quadratics.BLOCK_BYTES // 8), (50, 52), (128, 8), (362, 1), (400, 1)):
        fam = QuadraticFamily(np.zeros((1, d, d)), np.zeros((1, d)))
        assert QuadraticProblem(fam).block_rows == rows


# -- the block gradient itself -------------------------------------------------------

@st.composite
def mixed_blocks(draw):
    """A model, an (N, d) block of its parameters, and one sample set per row, of mixed lengths."""
    model_kind = draw(st.sampled_from(MODELS))
    p = draw(st.integers(1, 6))
    model = {"linear-regression": LinearRegression(p), "logistic-regression": LogisticRegression(p),
             "mlp": MLPClassifier(p, draw(st.integers(1, 9)), draw(st.integers(2, 9)))}[model_kind]
    # stretches of 1-3 rows of one length, so runs of several rows and equal lengths apart both occur
    stretches = draw(st.lists(st.tuples(st.sampled_from([1, 2, 7, 8, 9, 16, 31, 32, 33, 61]),
                                        st.integers(1, 3)), min_size=1, max_size=5))
    lengths = [n for n, k in stretches for _ in range(k)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    n_classes = 2 if model_kind == "logistic-regression" else getattr(model, "n_classes", 3)
    w = scale * rng.normal(size=(len(lengths), model.dim))
    samples = [(3.0 * rng.normal(size=(n, p)), rng.integers(n_classes, size=n)) for n in lengths]
    return model, w, samples


@settings(max_examples=150, deadline=None)
@given(case=mixed_blocks())
def test_block_gradient_rows_match_reference_bit_for_bit(case):
    model, w, samples = case
    # the rows' samples in row order; each stretch of consecutive rows of one length is a run
    runs = tuple((len(list(rows)), n) for n, rows in itertools.groupby(len(x) for x, _ in samples))
    block = Block(np.concatenate([x for x, _ in samples]), np.concatenate([y for _, y in samples]), runs)
    got = model.bind(block, model.dim)(w)
    for j, (x, y) in enumerate(samples):
        want = REFERENCE_GRADS[type(model)](model, w[j], x, y)
        assert got[j].tobytes() == want.tobytes()
        assert model.grad(w[j], Batch(x, y)).tobytes() == want.tobytes()



def block_buffers(block):
    """Every work buffer a model has kept on the block: a linear model's scratch, an MLP's arrays."""
    kept = [block.scratch[0]] if "scratch" in vars(block) else []
    return kept + [a for made in block._buffers.values() for a in vars(made).values()
                   if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("model", [LinearRegression(3), LogisticRegression(3), MLPClassifier(3, 4, 2)],
                         ids=MODELS)
def test_block_gradient_returns_fresh_arrays(model):
    # the block keeps its work buffers for every call (FedSAM takes two per block);
    # no gradient may alias them or another gradient
    rng = np.random.default_rng(5)
    runs = ((2, 7), (1, 9), (1, 3))
    x, y = rng.normal(size=(26, 3)), rng.integers(2, size=26)
    w1, w2 = rng.normal(size=(2, 4, model.dim))
    block = Block(x, y, runs)
    first = model.bind(block, model.dim)(w1)
    kept, buffers = first.copy(), block_buffers(block)
    second = model.bind(block, model.dim)(w2)
    assert buffers and all(a is b for a, b in zip(block_buffers(block), buffers, strict=True))
    assert not np.shares_memory(first, second)
    assert not any(np.shares_memory(g, b) for g in (first, second) for b in buffers)
    assert first.tobytes() == kept.tobytes()  # the second call left the first gradient as it was
    assert first.tobytes() == model.bind(Block(x, y, runs), model.dim)(w1).tobytes()
    assert second.tobytes() == model.bind(Block(x, y, runs), model.dim)(w2).tobytes()


# -- gathered steps: rows grouped by batch length, Blocks kept and refilled ----------

@st.composite
def gathered_steps(draw):
    """A model kind, shard sizes, models per row (sides), a seed, and local steps:
    per step, rows of (client, sample indices into its shard) in random order,
    whose lengths repeat, so runs of several rows and unsorted rows both occur."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(1, 6))):
            i = draw(st.integers(0, len(sizes) - 1))
            n = min(sizes[i], draw(st.sampled_from([1, 2, 3, 5, 8, 40])))
            rows.append((i, draw(st.permutations(range(sizes[i])))[:n]))
        steps.append(rows)
    return dict(model_kind=draw(st.sampled_from(MODELS)), sizes=sizes,
                sides=draw(st.sampled_from([1, 2])), seed=draw(st.integers(0, 2**16)), steps=steps)


@settings(max_examples=100, deadline=None)
@example(case=dict(model_kind="mlp", sizes=[12, 12, 5], sides=2, seed=1, steps=[
    [(0, [3, 1, 4, 0, 2]), (2, [4, 0]), (1, [7, 2, 9, 11, 0]), (2, [1, 3])],   # rows out of order
    [(1, [0, 2]), (0, [5, 6]), (2, [0, 1, 2, 3, 4]), (1, [3, 1, 4, 0, 2])],    # its layout again
    [(0, [0]), (1, [1, 2]), (2, [3, 4, 0])]]))                                 # ascending already
@given(case=gathered_steps())
def test_gathered_gradient_rows_match_one_row_gradients(case):
    # each row of a step's gathered gradient, at both points FedSAM evaluates, rounds
    # exactly as the gradient of that row's samples alone, side by side
    one = dataset_problem(case["model_kind"], case["sizes"], case["seed"])
    problem = one if case["sides"] == 1 else DatasetProblem.side_by_side(
        one, dataset_problem(case["model_kind"], case["sizes"], case["seed"] + 1))
    pooled, _ = problem._pooled
    d, sides = one.dim, problem.sides
    rng = np.random.default_rng(case["seed"])
    spec = make_strategy("fedsam", rho=0.5)
    for rows in case["steps"]:
        batches = [(problem._starts[i] + np.array(idx)).ravel() for i, idx in rows]
        grad = problem._gathered_grads(batches)
        w = rng.normal(size=(len(rows), problem.dim))
        ctx = LocalCtx(anchor=w[0], start=w, eta=0.1, k_steps=1, sides=sides)
        stepped = strat.client_step(spec, w, grad, ctx)
        for point in (w, rng.normal(size=w.shape)):
            got = grad(point)
            for j, b in enumerate(batches):
                for r, idx in enumerate(b.reshape(sides, -1)):
                    alone = partial(REFERENCE_GRADS[type(one.model)], one.model,
                                    x=pooled.x[idx], y=pooled.y[idx])
                    cols = slice(r * d, (r + 1) * d)
                    assert got[j, cols].tobytes() == alone(w=point[j, cols]).tobytes()
                    want = oracle_client_step(spec, w[j, cols], lambda v: alone(w=v), ctx)
                    assert stepped[j, cols].tobytes() == want.tobytes()


@pytest.mark.parametrize("model", [LinearRegression(3), LogisticRegression(3), MLPClassifier(3, 4, 3)],
                         ids=MODELS)
@pytest.mark.parametrize("in_arena", [False, True], ids=["own-buffers", "arena"])
def test_refilled_block_matches_a_fresh_one(model, in_arena):
    # a refill must rebuild what derives from y: the label index and the float targets
    rng = np.random.default_rng(4)
    runs = [(1, 3), (2, 5), (1, 7)]
    m = sum(k * n for k, n in runs)
    x = rng.normal(size=(60, 3))
    y = rng.normal(size=60) if isinstance(model, LinearRegression) else rng.integers(
        getattr(model, "n_classes", 2), size=60)
    first, second = rng.permutation(60)[:m], rng.permutation(60)[:m]
    assert (y[first] != y[second]).sum() > m // 3
    if in_arena:
        arena = Arena()
        kept = Block(arena.empty("x", (m, 3)), arena.empty("y", (m,), y.dtype), runs, arena)
        kept.refill(x, y, first)
    else:
        kept = Block(x[first], y[first], runs)
    w = rng.normal(size=(4, model.dim))

    def same_as_fresh(take):
        fresh = Block(x[take], y[take], runs)
        return model.bind(kept, model.dim)(w).tobytes() == model.bind(fresh, model.dim)(w).tobytes()

    assert same_as_fresh(first)  # the label index or float targets now hold y[first]'s
    kept.refill(x, y, second)
    assert same_as_fresh(second)


@settings(max_examples=50, deadline=None)
@given(p=st.integers(1, 4), hidden=st.integers(1, 5), seed=st.integers(0, 2**16),
       runs=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 5, 8])), min_size=1, max_size=3))
def test_refill_reaches_every_bound_gradient_of_a_block(p, hidden, seed, runs):
    # one arena Block bound by two models, refilled with new labels: the MLP's label
    # index and the logistic model's float targets must both follow
    rng = np.random.default_rng(seed)
    models = [MLPClassifier(p, hidden, 2), LogisticRegression(p)]
    m, rows = sum(k * n for k, n in runs), sum(k for k, _ in runs)
    x, y, take = rng.normal(size=(40, p)), rng.integers(2, size=40), rng.integers(40, size=m)
    arena = Arena()
    kept = Block(arena.empty("x", (m, p)), arena.empty("y", (m,), y.dtype), runs, arena)
    ws = [rng.normal(size=(rows, model.dim)) for model in models]
    for labels in (y, 1 - y):  # the second refill changes every label
        kept.refill(x, labels, take)
        fresh = Block(x[take], labels[take], runs)
        for model, w in zip(models, ws):
            assert model.bind(kept, model.dim)(w).tobytes() == model.bind(fresh, model.dim)(w).tobytes()


@st.composite
def bound_gradient_steps(draw):
    """A model, models per row (sides), a run layout and steps over one kept Block: per
    step, whether another Block of its arena ran first, whether the rows come out of
    order, and how many points it evaluates (two, each from the last, is FedSAM's)."""
    p = draw(st.integers(1, 5))
    model = draw(st.sampled_from([LinearRegression(p), LogisticRegression(p),
                                  MLPClassifier(p, draw(st.integers(1, 6)), draw(st.integers(2, 5)))]))
    sides = draw(st.sampled_from([1, 2]))
    runs = [(sides * k, n) for k, n in draw(st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 5, 8, 13])), min_size=1, max_size=4))]
    other = [(sides * draw(st.integers(1, 6)), draw(st.sampled_from([1, 4, 20])))]
    steps = draw(st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(1, 3)), min_size=1, max_size=4))
    return dict(model=model, sides=sides, runs=runs, other=other, steps=steps, in_arena=draw(st.booleans()),
                seed=draw(st.integers(0, 2**16)))


@settings(max_examples=100, deadline=None)
@given(case=bound_gradient_steps())
def test_bound_gradient_calls_match_a_fresh_block(case):
    # one Block's bound gradient, called again and again: at successive points as
    # FedSAM calls it, after refills (with another Block of the same arena run in
    # between, overwriting the shared buffers or growing them), rows in and out of
    # order, one or two models per row; then a Block of the same layout made after
    # the arena grew. Each result equals a fresh Block's gradient by tobytes and
    # aliases no kept buffer and no other result
    model, sides, runs = case["model"], case["sides"], case["runs"]
    rng = np.random.default_rng(case["seed"])
    n_classes = getattr(model, "n_classes", 2)
    pool_x, pool_y = 3.0 * rng.normal(size=(90, model.n_features)), rng.integers(n_classes, size=90)
    arena = Arena() if case["in_arena"] else None

    def kept_block(runs):
        m = sum(k * n for k, n in runs)
        if arena is None:
            return Block(np.empty((m, model.n_features)), np.empty(m, pool_y.dtype), runs)
        return Block(arena.empty("x", (m, model.n_features)), arena.empty("y", (m,), pool_y.dtype), runs, arena)

    block, other = kept_block(runs), kept_block(case["other"])
    width, rows = sides * model.dim, sum(k for k, _ in runs) // sides
    grad = model.bind(block, width)
    results = []

    def step(block, grad, unsorted, points):
        take = rng.integers(90, size=len(block.x))
        block.refill(pool_x, pool_y, take)
        fresh = Block(pool_x[take], pool_y[take], runs)
        order = rng.permutation(rows) if unsorted else np.arange(rows)
        inverse = np.argsort(order)
        w = rng.normal(size=(rows, width))
        for _ in range(points):
            got = grad.taken(order, inverse, w) if unsorted else grad(w)
            want = model.bind(fresh, model.dim)(w[order].reshape(-1, model.dim)).reshape(w.shape)[inverse]
            assert got.tobytes() == want.tobytes()
            results.append((got, want))
            w = w + 0.5 * got

    for other_first, unsorted, points in case["steps"]:
        if other_first:
            other.refill(pool_x, pool_y, rng.integers(90, size=len(other.x)))
            model.bind(other, width)(rng.normal(size=(len(other.row_counts) // sides, width)))
        step(block, grad, unsorted, points)
    assert model.bind(block, width) is grad
    late = kept_block(runs)
    step(late, model.bind(late, width), False, 1)
    kept = [a for b in (block, other, late) for a in block_buffers(b) + [b.x, b.y]]
    for i, (got, want) in enumerate(results):
        assert got.tobytes() == want.tobytes()  # later calls left it as it was
        assert not any(np.shares_memory(got, b) for b in kept)
        assert not any(np.shares_memory(got, later) for later, _ in results[i + 1:])


# -- two problems side by side ---------------------------------------------------------

@st.composite
def side_by_side_passes(draw):
    """Two problems of one model kind and shard sizes, a participant set and a pass's shape."""
    sizes = draw(st.lists(st.integers(1, 61), min_size=1, max_size=6))
    return dict(
        model_kind=draw(st.sampled_from(MODELS)), sizes=sizes,
        data_seeds=draw(st.tuples(st.integers(0, 2**16), st.integers(0, 2**16))),
        same=draw(st.booleans()), batch_size=draw(st.sampled_from([None, 1, 4, 8, 16, 64])),
        n_active=draw(st.integers(1, len(sizes))), k=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=100, deadline=None)
@example(case=dict(model_kind="mlp", sizes=[5, 12, 5, 1], data_seeds=(1, 2), same=False,
                   batch_size=None, n_active=4, k=2, seed=0))  # the whole-population block
@example(case=dict(model_kind="logistic-regression", sizes=[1, 9, 18, 27], data_seeds=(3, 4),
                   same=True, batch_size=8, n_active=3, k=5, seed=1))
@given(case=side_by_side_passes())
def test_side_by_side_gradient_is_each_sides_alone(case):
    # each side's slice of every step's gradient rounds exactly as that side's
    # one-side problem on that side's batches, and both draw the same batches
    problem_a = dataset_problem(case["model_kind"], case["sizes"], case["data_seeds"][0])
    problem_b = (problem_a if case["same"]
                 else dataset_problem(case["model_kind"], case["sizes"], case["data_seeds"][1]))
    pair = DatasetProblem.side_by_side(problem_a, problem_b)
    d, c = problem_a.dim, problem_a.n_clients
    assert (pair.sides, pair.dim) == (2, 2 * d)
    rng = np.random.default_rng(case["seed"])
    ids = np.sort(rng.choice(c, size=case["n_active"], replace=False))

    def generators():
        made = [np.random.default_rng([case["seed"], i]) for i in range(c)]
        return made, made.__getitem__

    gens, rngs = generators()
    passes = [pair.start_local_pass(ids, rngs, case["batch_size"])]
    side_gens = []
    for problem in (problem_a, problem_b):
        made, side_rngs = generators()
        side_gens.append(made)
        passes.append(problem.start_local_pass(ids, side_rngs, case["batch_size"]))
    for _ in range(case["k"]):
        w = rng.normal(size=(len(ids), 2 * d))
        if case["same"]:
            w[:, d:] = w[:, :d]
        grad, grad_a, grad_b = (next(p) for p in passes)
        g = grad(w)
        assert g.shape == w.shape
        assert g[:, :d].tobytes() == grad_a(np.ascontiguousarray(w[:, :d])).tobytes()
        assert g[:, d:].tobytes() == grad_b(np.ascontiguousarray(w[:, d:])).tobytes()
        if case["same"]:
            assert g[:, :d].tobytes() == g[:, d:].tobytes()
    # the pair draws from each client's generator exactly as each side alone does
    for made in side_gens:
        assert [g.bit_generator.state for g in made] == [g.bit_generator.state for g in gens]
