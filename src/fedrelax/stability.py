"""Paired-run uniform-stability experiment.

Two training runs share every random stream (client sampling, batch order,
model init) but their datasets differ in exactly one training sample: the
j*-th sample of client i*.  The per-round stability gap

    delta_K^t = (1/C) sum_i || w_{i,K}^t - w~_{i,K}^t ||

is exactly zero until the perturbed sample is first drawn, because until then
the two trajectories are bitwise identical.  The guarantee this probes bounds
the final loss gap by

    N U K t0 / (C S)  +  2 sigma_l L_G / ((1+2 beta) C S L) * (T/t0)^{cKL}

under the schedule eta_t = c/(t+1); the beta-dependence works out to an
improvement factor of (1/(1+2 beta))^{1/(1+cKL)} at the optimal observation
round t0.  U = sup f is reported as the max loss seen on the probe set plus a
10% margin, never asserted.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .core import HyperParams, Simulation
from .datasets import Dataset, blob_centers, dirichlet_partition, make_blobs, shard_dataset
from .models import LogisticRegression, MLPClassifier
from .problems import DatasetProblem
from .strategies import StrategySpec, compose_ri

_KEY_PERTURB = 0x9E27


@dataclass
class StabilityTrace:
    """One paired run: the delta series plus the knobs that shaped it."""

    beta: float
    seed: int
    k_local: int | None
    c: float  # learning-rate coefficient in eta_t = c/(t+1)
    deltas: list[float]
    global_dists: list[float]
    final_param_dist: float
    loss_gap: float | None  # sup over the probe set of |f(w;z) - f(w~;z)|
    u_bound: float | None  # max probe loss observed, +10% margin; reported only
    t0: int | None  # first round with nonzero delta; None if the runs never split

    @property
    def final_delta(self) -> float:
        return self.deltas[-1] if self.deltas else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "final_delta": self.final_delta}


def improvement_factor(beta: float, c: float, k: int, big_l: float) -> float:
    """Predicted multiplicative stability gain of relaxed init: (1/(1+2b))^(1/(1+cKL))."""
    if beta < 0.0:
        raise ValueError("the stability factor is stated for beta >= 0")
    return (1.0 / (1.0 + 2.0 * beta)) ** (1.0 / (1.0 + c * k * big_l))


def stability_bound(
    beta: float,
    *,
    c: float,
    k: int,
    t_rounds: int,
    n_active: int,
    n_clients: int,
    shard_size: float,
    sigma_l: float,
    big_l: float,
    l_g: float,
    u_bound: float,
    t0: float | None = None,
) -> dict:
    """Evaluate the two-term stability bound; t0 defaults to the minimizer."""
    ckl = c * k * big_l
    if t0 is None:
        t0 = (
            2.0 * sigma_l * l_g / ((1.0 + 2.0 * beta) * n_active * u_bound * k * big_l)
        ) ** (1.0 / (1.0 + ckl)) * t_rounds ** (ckl / (1.0 + ckl))
        t0 = max(t0, 1.0)
    sampling_term = n_active * u_bound * k * t0 / (n_clients * shard_size)
    growth_term = (
        2.0 * sigma_l * l_g / ((1.0 + 2.0 * beta) * n_clients * shard_size * big_l)
    ) * (t_rounds / t0) ** ckl
    return {
        "beta": beta,
        "t0": t0,
        "sampling_term": sampling_term,
        "growth_term": growth_term,
        "bound": sampling_term + growth_term,
        "improvement_factor": improvement_factor(beta, c, k, big_l),
    }


def replace_sample(dataset: Dataset, index: int, x_new: np.ndarray, y_new: int) -> Dataset:
    """A copy of the dataset with one sample swapped out."""
    n = len(dataset)
    if not 0 <= index < n:
        raise IndexError(f"sample index {index} out of range [0, {n})")
    x = dataset.x.copy()
    y = dataset.y.copy()
    x[index] = np.asarray(x_new, dtype=np.float64)
    y[index] = int(y_new)
    return Dataset(x, y)


def make_paired_blob_problems(
    *,
    n_clients: int,
    n_samples: int,
    n_features: int,
    n_classes: int,
    perturb: tuple[int, int],
    separation: float = 4.0,
    cluster_std: float = 1.0,
    concentration: float = 1.0,
    n_test: int = 200,
    model_kind: str = "logistic-regression",
    hidden: int = 16,
    seed: int = 0,
    with_replacement: bool = False,
) -> tuple[DatasetProblem, DatasetProblem, dict]:
    """Two dataset problems whose shards differ in exactly one training sample.

    The replacement is a fresh draw from the same blob generative process
    (uniform class, gaussian around that class center), so the pair realizes
    the neighboring-dataset setup.  perturb = (client, local sample index).
    """
    i_star, j_star = perturb
    if not 0 <= i_star < n_clients:
        raise ValueError(f"perturb client {i_star} out of range [0, {n_clients})")
    made = make_blobs(
        n_samples, n_features, n_classes,
        separation=separation, cluster_std=cluster_std, seed=seed, n_test=n_test,
    )
    train, test = made if n_test > 0 else (made, None)  # no test split: no loss gap
    plan = dirichlet_partition(
        train.y, n_clients, concentration, seed=seed, with_replacement=with_replacement
    )
    shards_a = shard_dataset(train, plan)
    size = len(shards_a[i_star])
    if not 0 <= j_star < size:
        raise ValueError(
            f"perturb sample index {j_star} out of range [0, {size}) for client {i_star}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_KEY_PERTURB,)))
    centers = blob_centers(n_classes, n_features, separation, seed)
    y_new = int(rng.integers(n_classes))
    x_new = centers[y_new] + cluster_std * rng.normal(size=n_features)
    shards_b = [s.subset(np.arange(len(s))) for s in shards_a]
    shards_b[i_star] = replace_sample(shards_b[i_star], j_star, x_new, y_new)

    if model_kind == "logistic-regression":
        if n_classes != 2:
            raise ValueError("logistic regression needs exactly 2 classes")
        model = LogisticRegression(n_features)
        model_b = LogisticRegression(n_features)
    elif model_kind == "mlp":
        model = MLPClassifier(n_features, hidden, n_classes)
        model_b = MLPClassifier(n_features, hidden, n_classes)
    else:
        raise ValueError(f"unsupported stability model {model_kind!r}")
    problem_a = DatasetProblem(model, shards_a, test)
    problem_b = DatasetProblem(model_b, shards_b, test)
    meta = {
        "perturb_client": i_star,
        "perturb_index": j_star,
        "shard_sizes": [len(s) for s in shards_a],
        "replacement_class": y_new,
    }
    return problem_a, problem_b, meta


def paired_run(
    problem_a,
    problem_b,
    spec: StrategySpec,
    hp: HyperParams,
    seed: int,
) -> StabilityTrace:
    """Run the two problems in lockstep on shared random streams."""
    if hp.lr_schedule != "inverse_t":
        raise ValueError(
            "the stability analysis assumes the decaying schedule eta_t = c/(t+1); "
            "set lr_schedule='inverse_t'"
        )
    if problem_a.n_clients != problem_b.n_clients or problem_a.dim != problem_b.dim:
        raise ValueError("paired problems must agree on client count and parameter dimension")
    sim_a = Simulation(problem_a, spec, hp, seed)
    sim_b = Simulation(problem_b, spec, hp, seed, w0=sim_a.server.global_params.copy())
    deltas: list[float] = []
    global_dists: list[float] = []
    for _ in range(hp.rounds):
        sim_a.step()
        sim_b.step()
        gap = 0.0
        for la, lb in zip(sim_a.last_local, sim_b.last_local):
            gap += float(np.linalg.norm(la - lb))
        deltas.append(gap / problem_a.n_clients)
        global_dists.append(
            float(np.linalg.norm(sim_a.server.global_params - sim_b.server.global_params))
        )
    t0 = next((t for t, d in enumerate(deltas) if d > 0.0), None)
    loss_gap = u_bound = None
    if getattr(problem_a, "test", None) is not None:
        la = problem_a.per_sample_test_losses(sim_a.server.global_params)
        lb = problem_a.per_sample_test_losses(sim_b.server.global_params)
        loss_gap = float(np.max(np.abs(la - lb)))
        u_bound = 1.1 * float(max(np.max(la), np.max(lb)))
    return StabilityTrace(
        beta=spec.beta,
        seed=seed,
        k_local=hp.k_local,
        c=hp.eta,
        deltas=deltas,
        global_dists=global_dists,
        final_param_dist=global_dists[-1],
        loss_gap=loss_gap,
        u_bound=u_bound,
        t0=t0,
    )


def stability_experiment(
    problem_pair_factory: Callable[[int], tuple],
    base_spec: StrategySpec,
    hp: HyperParams,
    betas: Sequence[float],
    seeds: Sequence[int],
) -> list[StabilityTrace]:
    """Paired runs for every (beta, seed), beta-major; factory(seed) -> (problem_a, problem_b, ...).

    One pair per seed serves every beta (a run never changes its problems), and
    every beta composes RI onto the base spec, overriding its beta; beta = 0
    starts every client at w exactly, which is plain averaging bit for bit.
    """
    pairs = [problem_pair_factory(int(seed))[:2] for seed in seeds]
    return [
        paired_run(problem_a, problem_b, compose_ri(base_spec, float(beta)), hp, int(seed))
        for beta in betas
        for seed, (problem_a, problem_b) in zip(seeds, pairs)
    ]


def summarize_traces(traces: Sequence[StabilityTrace]) -> dict:
    """Mean final delta / loss gap per beta, sorted by beta."""
    by_beta: dict[float, list[StabilityTrace]] = {}
    for tr in traces:
        by_beta.setdefault(tr.beta, []).append(tr)
    rows = []
    for beta in sorted(by_beta):
        group = by_beta[beta]
        gaps = [tr.loss_gap for tr in group if tr.loss_gap is not None]
        rows.append({
            "beta": beta,
            "n_runs": len(group),
            "mean_final_delta": float(np.mean([tr.final_delta for tr in group])),
            "mean_final_param_dist": float(np.mean([tr.final_param_dist for tr in group])),
            "mean_loss_gap": float(np.mean(gaps)) if gaps else None,
            "max_u_bound": max((tr.u_bound for tr in group if tr.u_bound is not None), default=None),
        })
    deltas = [r["mean_final_delta"] for r in rows]
    return {
        "per_beta": rows,
        "monotone_nonincreasing": all(b <= a * (1.0 + 1e-12) for a, b in zip(deltas, deltas[1:])),
    }
