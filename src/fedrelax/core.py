"""The federated round engine.

One round: sample N of C clients, initialize each participant at
start = w + beta * (w - last_local)  (beta = 0 without relaxed init), run K
local steps of the strategy's update rule, carry non-participants' last local
models forward unchanged, aggregate participants' end models by unweighted
mean in ascending client-id order, then apply the strategy's server rule.

Determinism contract: all arithmetic is float64; every client owns a private
generator seeded from (seed, client id) that only advances when that client
trains; client sampling uses its own server stream; aggregation order is
always ascending id, so reruns are bit-for-bit reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import strategies as strat
from .metrics import FLOAT_BYTES, RoundRecord, divergence
from .strategies import LocalCtx, StrategySpec

# spawn keys namespacing the per-run random streams
_KEY_SAMPLING = 0x5E7
_KEY_CLIENT = 0xC11
_KEY_INIT = 0x141


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
        if self.lr_schedule not in ("constant", "inverse_t"):
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")
        if self.lr_schedule == "constant" and not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")

    def lr_at(self, t: int) -> float:
        if self.lr_schedule == "inverse_t":
            return self.eta / (t + 1)  # round 0 gets the full coefficient
        if self.lr_decay == 1.0:
            return self.eta
        return self.eta * self.lr_decay ** t


@dataclass
class ClientState:
    client_id: int
    last_local: np.ndarray
    aux: dict[str, np.ndarray]
    rng: np.random.Generator


@dataclass
class ServerState:
    round: int
    global_params: np.ndarray
    aux: dict[str, np.ndarray]
    rng: np.random.Generator


def relaxed_init(global_w: np.ndarray, last_local: np.ndarray, beta: float) -> np.ndarray:
    """Local starting point w + beta * (w - last_local); beta = 0 returns w exactly."""
    if beta == 0.0:
        return global_w.copy()
    return global_w + beta * (global_w - last_local)


def sample_clients(rng: np.random.Generator, n_clients: int, n_active: int) -> np.ndarray:
    """Uniform sample of n_active distinct ids, returned ascending."""
    if not 1 <= n_active <= n_clients:
        raise ValueError(f"cannot pick {n_active} of {n_clients} clients")
    picked = rng.choice(n_clients, size=n_active, replace=False)
    return np.sort(picked)


def aggregate(updates: list[tuple[int, np.ndarray]], weights: dict[int, float] | None = None) -> np.ndarray:
    """Mean of participant models, summed in ascending client-id order.

    Unweighted by default; optional weights are normalized over participants.
    """
    if not updates:
        raise ValueError("nothing to aggregate")
    ordered = sorted(updates, key=lambda cw: cw[0])
    dim = len(ordered[0][1])
    out = np.zeros(dim)
    if weights is None:
        for _, w in ordered:
            if len(w) != dim:
                raise ValueError("mismatched parameter dimensions in aggregation")
            out += w
        return out / len(ordered)
    total = sum(weights[cid] for cid, _ in ordered)
    if total <= 0.0:
        raise ValueError("aggregation weights must sum to a positive value")
    for cid, w in ordered:
        out += (weights[cid] / total) * w
    return out


def local_train(problem, spec: StrategySpec, i: int, ctx: LocalCtx, rng, batch_size) -> np.ndarray:
    """Run ctx.k_steps local updates from ctx.start on client i's objective."""
    sampler = problem.start_local_pass(i, rng, batch_size)
    w = ctx.start
    for _ in range(ctx.k_steps):
        w = strat.client_step(spec, w, sampler.next_grad_fn(), ctx)
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
    """A running experiment: server + client states advancing one round per step()."""

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
        # every client's "previous end model" starts at w0, so round 0's
        # relaxed init is a no-op and the initial divergence is exactly zero
        self.clients = [
            ClientState(
                client_id=i,
                last_local=w0.copy(),
                aux=strat.init_client_aux(spec, dim),
                rng=np.random.default_rng(
                    np.random.SeedSequence(entropy=self.seed, spawn_key=(_KEY_CLIENT, i))
                ),
            )
            for i in range(problem.n_clients)
        ]
        self.records: list[RoundRecord] = []

    # -- inspection helpers -------------------------------------------------

    def client_last_locals(self) -> np.ndarray:
        return np.stack([c.last_local for c in self.clients])

    def current_divergence(self) -> float:
        return divergence(self.server.global_params, self.client_last_locals())

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

    def _train_one(self, cid: int, eta: float):
        client = self.clients[cid]
        beta = self.spec.beta if self.spec.ri else 0.0
        start = relaxed_init(self.server.global_params, client.last_local, beta)
        ctx = LocalCtx(
            anchor=self.server.global_params,
            start=start,
            eta=eta,
            k_steps=self.steps_for(cid),
            client_aux=client.aux,
            server_aux=self.server.aux,
        )
        w_end = local_train(self.problem, self.spec, cid, ctx, client.rng, self.hp.batch_size)
        aux_updates = strat.finish_local(self.spec, ctx, w_end)
        return cid, w_end, aux_updates, ctx.k_steps

    def step(self) -> RoundRecord:
        t = self.server.round
        eta = self.hp.lr_at(t)
        metrics = self.problem.eval_metrics(self.server.global_params)
        div = self.current_divergence()

        active = sample_clients(self.server.rng, self.problem.n_clients, self.hp.n_active)
        results = [self._train_one(cid, eta) for cid in active]  # ascending ids

        control_deltas = []
        uploads = []
        step_counts = []
        for cid, w_end, aux_updates, k_i in results:
            client = self.clients[cid]
            if self.spec.kind == "scaffold":
                control_deltas.append(aux_updates["control"] - client.aux["control"])
            client.aux.update(aux_updates)
            client.last_local = w_end
            uploads.append((cid, w_end))
            step_counts.append(k_i)

        weights = None
        if self.hp.weighted_aggregation:
            if not hasattr(self.problem, "shard_size"):
                raise ValueError("weighted aggregation needs per-client sample counts")
            weights = {cid: float(self.problem.shard_size(cid)) for cid, _ in uploads}
        agg = aggregate(uploads, weights)
        self.server.global_params = strat.server_step(
            self.spec,
            self.server.global_params,
            agg,
            self.server.aux,
            eta=eta,
            mean_k=float(np.mean(step_counts)),
            round_idx=t,
            control_deltas=control_deltas,
            n_total_clients=self.problem.n_clients,
        )
        self.server.round = t + 1

        down, up = strat.payload_counts(self.spec)
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
        out = {
            "rounds": self.server.round,
            "final": {
                "round": self.server.round,
                "divergence": self.current_divergence(),
                **final_metrics,
            },
            "avg_divergence": float(np.mean([r.divergence for r in self.records]))
            if self.records else 0.0,
            "total_bytes_up": int(sum(r.bytes_up for r in self.records)),
            "total_bytes_down": int(sum(r.bytes_down for r in self.records)),
        }
        accs = [r.test_acc for r in self.records]
        if self.records and all(a is not None for a in accs):
            from .metrics import smoothed_max_last

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
