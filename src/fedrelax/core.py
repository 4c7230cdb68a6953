"""The federated round engine.

One round: sample N of C clients and train them in (n, d) blocks of
participants: one group under local_iters, one per step count under
local_epochs, each group's ascending ids cut into near-equal consecutive
blocks of at most problem.block_rows rows (None: no cut). A block runs all its
local steps before the next block starts. Each participant starts at
w + beta * (w - last_local) (beta = 0 without relaxed init), every local step
updates all rows of the block at once with the strategy's rule, and the
block's end models and strategy state are written back into the
participants' rows of the population matrices (last_local, client_aux);
non-participants' rows stay as they were. After the last block the server
averages the participants' last_local rows, summed row by row in ascending
client id, and applies the strategy's server rule to that mean and to the
participants' aux change.

Determinism contract: all arithmetic is float64 and row-wise, so a row of a
block rounds exactly as that client trained alone, whatever else the block
holds; every client owns a private generator seeded from (seed, client id)
that only advances when that client trains. The generator is created the
first time the client's row draws from it; until then the stream sits at its
seeded start, so creating it later changes no draw. Client sampling uses its
own server stream, which feeds nothing else, and a round with N == C draws
nothing from it (see sample_clients). Aggregation order is always ascending
id, so reruns are bit-for-bit reproducible.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import strategies as strat
from .metrics import (FINITE_COLUMNS, FLOAT_BYTES, SMOOTHING_WIDTH, SMOOTHING_WINDOW, RoundRecord, divergence,
                      smoothed_max_last)
from .strategies import LocalCtx, StrategySpec

# spawn keys namespacing the per-run random streams
_KEY_SAMPLING = 0x5E7
_KEY_CLIENT = 0xC11
_KEY_INIT = 0x141


class DivergedError(ArithmeticError):
    """A run reached a non-finite train loss, divergence, model or final metric; names the round."""


def _check_finite(t: int, values: dict) -> None:
    if not all(math.isfinite(values[k]) for k in FINITE_COLUMNS):
        shown = ", ".join(f"{k}={values[k]}" for k in FINITE_COLUMNS)
        raise DivergedError(f"run diverged at round {t}: {shown}")


@dataclass
class HyperParams:
    eta: float
    rounds: int
    n_active: int
    k_local: int | None = None
    local_epochs: int | None = None
    batch_size: int | None = None
    lr_schedule: str = "constant"  # constant (eta * lr_decay^t) | inverse_t (eta / (t+1))
    lr_decay: float = 1.0
    weighted_aggregation: bool = False

    def validate(self, n_clients: int) -> None:
        if self.eta <= 0.0:
            raise ValueError(f"learning rate lr must be positive, got {self.eta}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 1 <= self.n_active <= n_clients:
            raise ValueError(
                f"active clients must satisfy 1 <= N <= C, got n_active={self.n_active}, n_clients={n_clients}"
            )
        if (self.k_local is None) == (self.local_epochs is None):
            raise ValueError("set exactly one of k_local (local_iters) and local_epochs")
        if self.k_local is not None and self.k_local < 1:
            raise ValueError(f"k_local (config key local_iters) must be >= 1, got {self.k_local}")
        if self.local_epochs is not None and self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr_schedule not in ("constant", "inverse_t"):
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")
        if self.lr_schedule == "constant" and not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.lr_schedule == "inverse_t" and self.lr_decay != 1.0:
            raise ValueError(f"lr_decay must be 1.0 under inverse_t (eta / (t+1)), got {self.lr_decay}")

    def lr_at(self, t: int) -> float:
        if self.lr_schedule == "inverse_t":
            return self.eta / (t + 1)  # round 0 gets the full coefficient
        return self.eta * self.lr_decay ** t


@dataclass
class ServerState:
    round: int
    global_params: np.ndarray
    aux: dict[str, np.ndarray]
    rng: np.random.Generator


def relaxed_init(global_w: np.ndarray, last_local: np.ndarray, beta: float) -> np.ndarray:
    """Start rows w + beta * (w - last_local) of the (N, d) block last_local.

    beta = 0 returns w exactly, in a new array of last_local's shape.
    """
    if beta == 0.0:
        out = np.empty(last_local.shape, global_w.dtype)
        out[...] = global_w  # a copy of every bit: -0, NaN and inf entries stay as they are
        return out
    return global_w + beta * (global_w - last_local)


def sample_clients(rng: np.random.Generator, n_clients: int, n_active: int) -> np.ndarray:
    """Uniform sample of n_active distinct ids, returned ascending.

    With n_active == n_clients that is every id, returned without a draw from rng
    (a sorted permutation of all C ids was the same ids), so an N == C run's
    checkpoints keep the stream at its seeded state, and older ones, whose
    stream had advanced, resume to the same results.
    """
    if not 1 <= n_active <= n_clients:
        raise ValueError(f"cannot pick {n_active} of {n_clients} clients")
    if n_active == n_clients:
        return np.arange(n_clients)
    picked = rng.choice(n_clients, size=n_active, replace=False)
    return np.sort(picked)


def aggregate(rows: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Mean of the (N, d) participant rows, summed one row at a time in row order.

    Unweighted by default; optional (N,) weights are normalized over the rows.
    The sum is one running sum from +0 (np.add.accumulate, sequential by
    definition) rather than NumPy's pairwise sum(axis=0), which rounds
    differently when d = 1 and N > 8.
    """
    if len(rows) == 0:
        raise ValueError("nothing to aggregate")
    acc = np.empty((len(rows) + 1, rows.shape[1]))
    acc[0] = 0.0
    if weights is None:
        acc[1:] = rows
        return np.add.accumulate(acc, axis=0, out=acc)[-1] / len(rows)
    weights = weights.tolist()
    total = reduce(operator.add, weights, 0.0)  # left to right: sum() compensates from 3.12
    if total <= 0.0:
        raise ValueError("aggregation weights must sum to a positive value")
    np.multiply(np.array([wi / total for wi in weights])[:, None], rows, out=acc[1:])
    return np.add.accumulate(acc, axis=0, out=acc)[-1].copy()


def local_train(problem, spec: StrategySpec, ids: np.ndarray, ctx: LocalCtx, rngs,
                batch_size) -> np.ndarray:
    """Run ctx.k_steps block updates from the (N, d) rows ctx.start; row j is client ids[j].

    rngs maps a client id to that client's generator.
    """
    grads = problem.start_local_pass(ids, rngs, batch_size)
    w = ctx.start
    for _ in range(ctx.k_steps):
        w = strat.client_step(spec, w, next(grads), ctx)
    return w


@dataclass
class RunResult:
    records: list[RoundRecord]
    summary: dict
    sim: "Simulation"

    @property
    def final_global(self) -> np.ndarray:
        return self.sim.server.global_params


class Simulation:
    """A running experiment: server + client states advancing one round per step().

    last_local is the (C, d) matrix of client end models (row i: client i);
    client_aux maps each auxiliary key of the strategy (control variates,
    duals) to a (C, d) matrix; client_rngs[i] is client i's generator, or None
    until its first draw (see client_rng). agg_weights holds each client's
    sample count when aggregation is weighted, else None.

    With record=False a round neither evaluates nor keeps a RoundRecord, and
    step() returns None, for callers that read only the models (a paired
    stability run); such a round still refuses a non-finite new global model
    or participant row with DivergedError.
    """

    def __init__(
        self,
        problem,
        spec: StrategySpec,
        hp: HyperParams,
        seed: int,
        *,
        w0: np.ndarray | None = None,
        record: bool = True,
    ):
        hp.validate(problem.n_clients)
        self.problem = problem
        self.record = record
        self.spec = spec
        self.hp = hp
        self.seed = int(seed)
        dim = problem.dim
        if w0 is None:
            init_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(_KEY_INIT,))
            )
            w0 = problem.default_init(init_rng)
        w0 = np.array(w0, dtype=np.float64)
        if w0.shape != (dim,):
            raise ValueError(f"w0 must have shape ({dim},), got {w0.shape}")
        self.server = ServerState(
            round=0,
            global_params=w0.copy(),
            aux=strat.init_server_aux(spec, dim),
            rng=np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(_KEY_SAMPLING,))
            ),
        )
        c = problem.n_clients
        # every client's "previous end model" starts at w0, so round 0's
        # relaxed init is a no-op and the initial divergence is exactly zero
        self.last_local = np.tile(w0, (c, 1))
        self.client_aux = {k: np.tile(v, (c, 1)) for k, v in strat.init_client_aux(spec, dim).items()}
        self.client_rngs: list[np.random.Generator | None] = [None] * c
        self.records: list[RoundRecord] = []
        self.config_hash = None  # stamped into checkpoints (artifacts.save_checkpoint)
        # (record, its JSON text) for records[:len], kept by artifacts.save_checkpoint
        self.record_texts: list[tuple[RoundRecord, str]] = []
        self.agg_weights = None
        if hp.weighted_aggregation:
            if not hasattr(problem, "shard_size"):
                raise ValueError("weighted aggregation needs per-client sample counts")
            self.agg_weights = np.array([float(problem.shard_size(i)) for i in range(c)])

    def client_rng(self, i: int) -> np.random.Generator:
        """Client i's private generator, created from (seed, i) on first use."""
        gen = self.client_rngs[i]
        if gen is None:
            gen = self.client_rngs[i] = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(_KEY_CLIENT, i))
            )
        return gen

    # -- inspection helpers -------------------------------------------------

    def current_divergence(self) -> float:
        return divergence(self.server.global_params, self.last_local)

    def steps_for(self, i: int) -> int:
        if self.hp.k_local is not None:
            return self.hp.k_local
        return self.hp.local_epochs * self.problem.steps_per_epoch(i, self.hp.batch_size)

    # -- the round ----------------------------------------------------------

    def _step_groups(self, active: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """(step count, ids) per block, in training order (see the module docstring):
        one group under k_local, else one per step count, each group's ascending ids
        split into ceil(n / problem.block_rows) near-equal consecutive slices."""
        if self.hp.k_local is not None:
            groups = [(self.hp.k_local, active)]
        else:
            steps = np.array([self.steps_for(i) for i in active])
            groups = [(int(k), active[steps == k]) for k in np.unique(steps)]
        rows = self.problem.block_rows
        if rows is None:
            return groups
        return [(k, part) for k, ids in groups for part in np.array_split(ids, math.ceil(len(ids) / rows))]

    def _train(self, ids: np.ndarray, k_steps: int, eta: float) -> None:
        """Train the block ids of _step_groups from their relaxed starts; write their rows."""
        ctx = LocalCtx(
            anchor=self.server.global_params,
            start=relaxed_init(self.server.global_params, self.last_local[ids], self.spec.beta),
            eta=eta,
            k_steps=k_steps,
            client_aux={k: m[ids] for k, m in self.client_aux.items()},
            server_aux=self.server.aux,
            sides=self.problem.sides,
        )
        w_end = local_train(self.problem, self.spec, ids, ctx, self.client_rng, self.hp.batch_size)
        for k, v in strat.finish_local(self.spec, ctx, w_end).items():
            self.client_aux[k][ids] = v
        self.last_local[ids] = w_end

    def _checked_metrics(self) -> tuple[dict, float]:
        """Evaluation of the global model and the divergence, refused when not finite."""
        metrics = self.problem.eval_metrics(self.server.global_params)
        div = self.current_divergence()
        _check_finite(self.server.round, {**metrics, "divergence": div})
        return metrics, div

    # a round or summary that meets a non-finite value is refused with DivergedError,
    # which reports the overflow, so NumPy's warnings about it are silenced
    @np.errstate(all="ignore")
    def step(self) -> RoundRecord | None:
        t = self.server.round
        eta = self.hp.lr_at(t)
        if self.record:
            metrics, div = self._checked_metrics()

        active = sample_clients(self.server.rng, self.problem.n_clients, self.hp.n_active)
        aux_before = {k: m[active] for k, m in self.client_aux.items()}
        groups = self._step_groups(active)
        for k_steps, ids in groups:
            self._train(ids, k_steps, eta)
        weights = None if self.agg_weights is None else self.agg_weights[active]
        self.server.global_params = strat.server_step(
            self.spec,
            self.server.global_params,
            aggregate(self.last_local[active], weights),
            self.server.aux,
            eta=eta,
            mean_k=sum(k * len(ids) for k, ids in groups) / len(active),
            round_idx=t,
            aux_change={k: self.client_aux[k][active] - v for k, v in aux_before.items()},
            n_clients=self.problem.n_clients,
        )
        self.server.round = t + 1
        if not self.record:
            if not (np.isfinite(self.server.global_params).all()
                    and np.isfinite(self.last_local[active]).all()):
                raise DivergedError(f"run diverged at round {t}: non-finite model")
            return None

        record = RoundRecord(
            **self.fixed_columns(t),
            divergence=div,
            grad_norm_sq=metrics["grad_norm_sq"],
            train_loss=metrics["train_loss"],
            test_loss=metrics["test_loss"],
            train_acc=metrics["train_acc"],
            test_acc=metrics["test_acc"],
        )
        self.records.append(record)
        return record

    def fixed_columns(self, t: int) -> dict:
        """The columns of round t's record that the hyperparameters and strategy fix."""
        down, up = strat.PAYLOADS[self.spec.kind]
        per_vector = self.hp.n_active * self.problem.dim * FLOAT_BYTES
        return {"round": t, "bytes_up": per_vector * up, "bytes_down": per_vector * down,
                "lr": self.hp.lr_at(t)}

    def run(self, *, checkpoint_every: int = 0, checkpoint_path=None) -> RunResult:
        from . import artifacts  # local import: artifacts depends on core types

        while self.server.round < self.hp.rounds:
            self.step()
            if (
                checkpoint_every > 0
                and checkpoint_path is not None
                and (self.server.round % checkpoint_every == 0 or self.server.round == self.hp.rounds)
            ):
                artifacts.save_checkpoint(checkpoint_path, self)
        return RunResult(records=self.records, summary=self.build_summary(), sim=self)

    @np.errstate(all="ignore")  # as in step
    def build_summary(self) -> dict:
        final_metrics, div = self._checked_metrics()
        final = {"round": self.server.round, "divergence": div, **final_metrics}
        bad = [f"{k}={v}" for k, v in final.items() if v is not None and not math.isfinite(v)]
        if bad:
            raise DivergedError(f"run diverged at round {self.server.round}: {', '.join(bad)}")
        out = {
            "rounds": self.server.round,
            "final": final,
            "avg_divergence": float(np.mean([r.divergence for r in self.records]))
            if self.records else 0.0,
            "total_bytes_up": int(sum(r.bytes_up for r in self.records)),
            "total_bytes_down": int(sum(r.bytes_down for r in self.records)),
        }
        accs = [r.test_acc for r in self.records]
        if self.records and all(a is not None for a in accs):
            out["smoothed_max_test_acc"] = {
                "value": smoothed_max_last(accs),
                "window": SMOOTHING_WINDOW,
                "kernel_width": SMOOTHING_WIDTH,
            }
        return out


def run_experiment(
    problem,
    spec: StrategySpec,
    hp: HyperParams,
    seed: int,
    *,
    w0: np.ndarray | None = None,
    checkpoint_every: int = 0,
    checkpoint_path=None,
) -> RunResult:
    """Build a Simulation and run it to completion."""
    sim = Simulation(problem, spec, hp, seed, w0=w0)
    return sim.run(checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path)
