"""The federated round engine.

One round: sample N of C clients and train them together as one (N, d)
block. Each participant starts at w + beta * (w - last_local) (beta = 0
without relaxed init), every local step updates all rows at once with the
strategy's rule, and the block's end models and strategy state are written
back into the participants' rows of the population matrices (last_local,
client_aux); non-participants' rows stay as they were. Under local_epochs the
participants are trained in one block per step count. The server then
averages the participants' last_local rows, summed row by row in ascending
client id, and applies the strategy's server rule to that mean and to the
participants' aux change.

Determinism contract: all arithmetic is float64 and row-wise, so a row of the
block rounds exactly as that client trained alone; every client owns a
private generator seeded from (seed, client id) that only advances when that
client trains. The generator is created the first time the client's row
draws from it; until then the stream sits at its seeded start, so creating it
later changes no draw. Client sampling uses its own server stream;
aggregation order is always ascending id, so reruns are bit-for-bit
reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strategies as strat
from .metrics import FLOAT_BYTES, RoundRecord, divergence, smoothed_max_last
from .strategies import LocalCtx, StrategySpec

# spawn keys namespacing the per-run random streams
_KEY_SAMPLING = 0x5E7
_KEY_CLIENT = 0xC11
_KEY_INIT = 0x141


class DivergedError(ArithmeticError):
    """A run reached a non-finite train loss or divergence; the message names the round."""


def _check_finite(t: int, train_loss: float, div: float) -> None:
    if not (math.isfinite(train_loss) and math.isfinite(div)):
        raise DivergedError(f"run diverged at round {t}: train_loss={train_loss}, divergence={div}")


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
            raise ValueError(f"learning rate must be positive, got {self.eta}")
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if not 1 <= self.n_active <= n_clients:
            raise ValueError(
                f"active clients must satisfy 1 <= N <= C, got N={self.n_active}, C={n_clients}"
            )
        if (self.k_local is None) == (self.local_epochs is None):
            raise ValueError("set exactly one of k_local (local_iters) and local_epochs")
        if self.k_local is not None and self.k_local < 1:
            raise ValueError("k_local must be >= 1")
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
        return np.broadcast_to(global_w, last_local.shape).copy()
    return global_w + beta * (global_w - last_local)


def sample_clients(rng: np.random.Generator, n_clients: int, n_active: int) -> np.ndarray:
    """Uniform sample of n_active distinct ids, returned ascending."""
    if not 1 <= n_active <= n_clients:
        raise ValueError(f"cannot pick {n_active} of {n_clients} clients")
    picked = rng.choice(n_clients, size=n_active, replace=False)
    return np.sort(picked)


def aggregate(rows: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Mean of the (N, d) participant rows, summed one row at a time in row order.

    Unweighted by default; optional (N,) weights are normalized over the rows.
    The row loop fixes the rounding: NumPy's pairwise sum(axis=0) rounds
    differently when d = 1 and N > 8.
    """
    if len(rows) == 0:
        raise ValueError("nothing to aggregate")
    out = np.zeros(rows.shape[1])
    if weights is None:
        for w in rows:
            out += w
        return out / len(rows)
    weights = weights.tolist()
    total = sum(weights)
    if total <= 0.0:
        raise ValueError("aggregation weights must sum to a positive value")
    for wi, w in zip(weights, rows):
        out += (wi / total) * w
    return out


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
    """

    def __init__(
        self,
        problem,
        spec: StrategySpec,
        hp: HyperParams,
        seed: int,
        *,
        w0: np.ndarray | None = None,
    ):
        hp.validate(problem.n_clients)
        self.problem = problem
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

    def uses_batch_randomness(self) -> bool:
        if hasattr(self.problem, "grad_noise"):
            return self.problem.grad_noise > 0.0
        if self.hp.batch_size is None:
            return False
        return any(self.hp.batch_size < self.problem.shard_size(i)
                   for i in range(self.problem.n_clients))

    # -- the round ----------------------------------------------------------

    def _step_groups(self, active: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """(step count, ids) per block: one block under k_local, else one per step count."""
        if self.hp.k_local is not None:
            return [(self.hp.k_local, active)]
        steps = np.array([self.steps_for(i) for i in active])
        return [(int(k), active[steps == k]) for k in np.unique(steps)]

    def _train(self, ids: np.ndarray, k_steps: int, eta: float) -> None:
        """Train the participants ids as one block from their relaxed starts; write their rows."""
        ctx = LocalCtx(
            anchor=self.server.global_params,
            start=relaxed_init(self.server.global_params, self.last_local[ids], self.spec.beta),
            eta=eta,
            k_steps=k_steps,
            client_aux={k: m[ids] for k, m in self.client_aux.items()},
            server_aux=self.server.aux,
        )
        w_end = local_train(self.problem, self.spec, ids, ctx, self.client_rng, self.hp.batch_size)
        for k, v in strat.finish_local(self.spec, ctx, w_end).items():
            self.client_aux[k][ids] = v
        self.last_local[ids] = w_end

    def step(self) -> RoundRecord:
        t = self.server.round
        eta = self.hp.lr_at(t)
        metrics = self.problem.eval_metrics(self.server.global_params)
        div = self.current_divergence()
        _check_finite(t, metrics["train_loss"], div)

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

        down, up = strat.PAYLOADS[self.spec.kind]
        n, d = self.hp.n_active, self.problem.dim
        record = RoundRecord(
            round=t,
            divergence=div,
            grad_norm_sq=metrics["grad_norm_sq"],
            train_loss=metrics["train_loss"],
            test_loss=metrics["test_loss"],
            train_acc=metrics["train_acc"],
            test_acc=metrics["test_acc"],
            bytes_up=n * d * FLOAT_BYTES * up,
            bytes_down=n * d * FLOAT_BYTES * down,
            lr=eta,
        )
        self.records.append(record)
        return record

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

    def build_summary(self) -> dict:
        final_metrics = self.problem.eval_metrics(self.server.global_params)
        div = self.current_divergence()
        _check_finite(self.server.round, final_metrics["train_loss"], div)
        out = {
            "rounds": self.server.round,
            "final": {
                "round": self.server.round,
                "divergence": div,
                **final_metrics,
            },
            "avg_divergence": float(np.mean([r.divergence for r in self.records]))
            if self.records else 0.0,
            "total_bytes_up": int(sum(r.bytes_up for r in self.records)),
            "total_bytes_down": int(sum(r.bytes_down for r in self.records)),
        }
        accs = [r.test_acc for r in self.records]
        if self.records and all(a is not None for a in accs):
            out["smoothed_max_test_acc"] = {
                "value": smoothed_max_last(accs, window=50, width=5),
                "window": 50,
                "kernel_width": 5,
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
