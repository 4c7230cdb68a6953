"""Block training against the per-client loop it replaces.

The loop below is the definition of a round's local training: each sampled
client, in ascending id, starts at w + beta * (w - last_local), takes its K
steps alone on 1-D vectors with its own sampler, and writes its rows. The
program trains the participants as one (N, d) block instead (one block per
step count under local_epochs). Every operation is row-wise, so the two must
agree bit for bit: in the population matrices, the server state, rounds.csv
and every client stream.
"""
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedrelax import strategies as strat
from fedrelax.core import HyperParams, Simulation, aggregate, relaxed_init, sample_clients
from fedrelax.datasets import Dataset, make_blobs
from fedrelax.metrics import FLOAT_BYTES, RoundRecord, rounds_csv_text
from fedrelax.models import Batch, MLPClassifier
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import QuadraticFamily, make_quadratic_family
from fedrelax.strategies import LocalCtx, make_strategy

KINDS = ("fedavg", "fedadam", "fedsam", "scaffold", "feddyn", "fedcm")


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
    n = len(shard)
    if batch_size is None or batch_size >= n:
        full = Batch(shard.x, shard.y)
        while True:
            yield lambda w: model.grad(w, full)
    perm, cursor = None, 0
    while True:
        if perm is None or cursor >= n:
            perm, cursor = rng().permutation(n), 0
        idx = perm[cursor:cursor + batch_size]
        cursor += batch_size
        batch = Batch(shard.x[idx], shard.y[idx])
        yield lambda w, batch=batch: model.grad(w, batch)


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


# -- MLP mini-batches and uneven local epochs ---------------------------------------

def mlp_problem(sizes, seed):
    """An MLP over blob shards of the given sizes, cut from one blob sample."""
    data = make_blobs(sum(sizes), 3, 3, separation=2.0, seed=seed, n_test=0)
    bounds = np.cumsum([0, *sizes])
    shards = [Dataset(data.x[a:b], data.y[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    return DatasetProblem(MLPClassifier(3, 4, 3), shards)


@st.composite
def mlp_runs(draw):
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    epochs = draw(st.booleans())
    return dict(
        sizes=sizes, data_seed=draw(st.integers(0, 2**16)),
        batch_size=draw(st.sampled_from([None, 1, 4, 8, 16])),
        k=None if epochs else draw(st.integers(1, 3)),
        epochs=draw(st.integers(1, 2)) if epochs else None,
        n_active=draw(st.integers(1, len(sizes))), rounds=draw(st.integers(1, 3)),
        weighted=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
    )


# four step counts 2 * ceil(n / 8) in one round: 2, 6, 10 and 4
UNEVEN_EPOCHS_RUN = dict(sizes=[3, 17, 40, 9], data_seed=1, batch_size=8, k=None, epochs=2,
                         n_active=4, rounds=2, weighted=True, seed=3)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@example(run=UNEVEN_EPOCHS_RUN, ri=True)
@given(run=mlp_runs(), ri=st.booleans())
def test_block_training_matches_per_client_loop_on_mlp(kind, run, ri):
    problem = mlp_problem(run["sizes"], run["data_seed"])
    hp = HyperParams(eta=0.2, rounds=run["rounds"], n_active=run["n_active"], k_local=run["k"],
                     local_epochs=run["epochs"], batch_size=run["batch_size"],
                     weighted_aggregation=run["weighted"])
    assert_bitwise_same(*run_both(problem, spec_for(kind, ri), hp, run["seed"]))


def test_uneven_epochs_example_has_several_step_groups():
    run = UNEVEN_EPOCHS_RUN
    hp = HyperParams(eta=0.2, rounds=1, n_active=4, local_epochs=run["epochs"],
                     batch_size=run["batch_size"])
    sim = Simulation(mlp_problem(run["sizes"], run["data_seed"]), make_strategy("fedavg"), hp, 0)
    assert sorted(sim.steps_for(i) for i in range(4)) == [2, 4, 6, 10]
