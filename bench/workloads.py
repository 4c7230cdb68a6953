"""The three pinned fedrelax workloads: inputs, one job, and its output checks.

Each workload builds its inputs from a seed (``setup``) and runs a fixed
amount of simulation work on them (``job``), which also checks what that work
produced. Only inputs reach the program; the seed never does.

Why these three, and which layer each stresses and bypasses:

* ``mlp-noniid`` is the paper's headline task (acceptance criterion 10).
  Round time splits about evenly between dataset evaluation and mini-batch
  MLP gradients. C = 20, so per-client population state costs almost nothing.
* ``quad-population`` stresses large-C costs: the per-client Python loops of
  quadratic evaluation, the C x d divergence stack, checkpoints that encode C
  client entries (writes beside a read) and the QR draws of set-up. Local
  training is a small share.
* ``stability-paired`` (criterion 9) has tiny C and d, so Python overhead per
  local step dominates and two simulations run in lockstep. Population-state
  and checkpoint changes should show no change here.

Every function of the program is reached through its module attribute
(``fr_core.run_experiment``, not ``from fedrelax import ...``), so that a
traced run which replaces those attributes sees the calls.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fedrelax import artifacts as fr_artifacts
from fedrelax import core as fr_core
from fedrelax import datasets as fr_datasets
from fedrelax import metrics as fr_metrics
from fedrelax import models as fr_models
from fedrelax import problems as fr_problems
from fedrelax import quadratics as fr_quadratics
from fedrelax import stability as fr_stability
from fedrelax import strategies as fr_strategies

# Reference values in references.json are pinned for inputs built from this seed.
REFERENCE_SEED = 0

# Pinned and measured finals agree when |measured - pinned| <= RTOL * |pinned| + ATOL.
# Training arithmetic is float64 and deterministic, so the tolerance only has to
# absorb last-bit differences in evaluation sums; an accuracy of k/400 must match.
RTOL = 1e-6
ATOL = 1e-12

SHAPES = {
    "full": {
        "mlp-noniid": dict(
            n_samples=1000, n_features=10, n_classes=10, separation=1.0, cluster_std=1.5,
            n_test=400, n_clients=20, concentration=0.1, hidden=16,
            n_active=10, k_local=5, batch_size=32, rounds=100, eta=0.1, lr_decay=0.998,
        ),
        "quad-population": dict(
            n_clients=1000, dim=50, spread=1.0, cond=10.0, beta=0.1,
            n_active=100, k_local=5, rounds=100, eta=0.01, checkpoint_every=10,
        ),
        "stability-paired": dict(
            n_clients=3, n_samples=300, n_features=5, n_classes=2, separation=2.0,
            concentration=0.2, n_test=50, n_active=3, k_local=10, rounds=80, eta=1.5,
            betas=(0.0, 0.05, 0.1), n_seeds=5, control_beta=0.1,
        ),
    },
    # a few-second shape for the benchmark's self-test
    "tiny": {
        "mlp-noniid": dict(
            n_samples=200, n_features=4, n_classes=3, separation=2.0, cluster_std=1.0,
            n_test=50, n_clients=5, concentration=0.5, hidden=4,
            n_active=3, k_local=2, batch_size=16, rounds=6, eta=0.1, lr_decay=0.998,
        ),
        "quad-population": dict(
            n_clients=20, dim=5, spread=1.0, cond=10.0, beta=0.1,
            n_active=5, k_local=2, rounds=10, eta=0.01, checkpoint_every=5,
        ),
        "stability-paired": dict(
            n_clients=3, n_samples=60, n_features=3, n_classes=2, separation=2.0,
            concentration=0.5, n_test=20, n_active=3, k_local=2, rounds=6, eta=1.5,
            betas=(0.0, 0.1), n_seeds=2, control_beta=0.1,
        ),
    },
}


@dataclass
class JobOutput:
    digest: str            # sha256 of the job's deterministic outputs; reruns must match
    finals: dict           # final values compared with the pinned references
    local_steps: int       # local client steps the job asked for
    failures: list[str]    # failed output checks of the job itself


def _finite(values) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


def _record_failures(label: str, records) -> list[str]:
    out = []
    for r in records:
        d = r.to_dict()
        if not _finite(v for v in d.values() if isinstance(v, float)):
            out.append(f"{label}: non-finite value in round {d['round']}")
            break
    if records and not records[-1].train_loss < records[0].train_loss:
        out.append(f"{label}: train loss did not decrease "
                   f"({records[0].train_loss!r} -> {records[-1].train_loss!r})")
    return out


# -- mlp-noniid ----------------------------------------------------------------

MLP_STRATEGIES = (
    ("fedavg", lambda: fr_strategies.make_strategy("fedavg")),
    ("fedinit", lambda: fr_strategies.make_strategy("fedinit", beta=0.1)),
    ("scaffold+ri", lambda: fr_strategies.compose_ri(fr_strategies.make_strategy("scaffold"), 0.05)),
)


def mlp_setup(seed: int, s: dict):
    train, test = fr_datasets.make_blobs(
        s["n_samples"], s["n_features"], s["n_classes"], separation=s["separation"],
        cluster_std=s["cluster_std"], seed=seed, n_test=s["n_test"],
    )
    plan = fr_datasets.dirichlet_partition(train.y, s["n_clients"], s["concentration"], seed=seed)
    shards = fr_datasets.shard_dataset(train, plan)
    model = fr_models.MLPClassifier(s["n_features"], s["hidden"], s["n_classes"])
    return {"seed": seed, "problems": [fr_problems.DatasetProblem(model, shards, test)]}


def mlp_job(inputs: dict, s: dict, scratch_dir: str) -> JobOutput:
    (problem,) = inputs["problems"]
    hp = fr_core.HyperParams(eta=s["eta"], rounds=s["rounds"], n_active=s["n_active"],
                             k_local=s["k_local"], batch_size=s["batch_size"],
                             lr_decay=s["lr_decay"])
    digest = hashlib.sha256()
    finals, failures = {}, []
    for name, make in MLP_STRATEGIES:
        res = fr_core.run_experiment(problem, make(), hp, seed=inputs["seed"])
        digest.update(fr_metrics.rounds_csv_text(res.records, name).encode())
        final = res.summary["final"]
        finals[name] = {k: final[k] for k in ("train_loss", "divergence", "test_acc")}
        failures += _record_failures(name, res.records)
        if not _finite(finals[name].values()):
            failures.append(f"{name}: non-finite final value {finals[name]}")
    steps = len(MLP_STRATEGIES) * s["rounds"] * s["n_active"] * s["k_local"]
    return JobOutput(digest.hexdigest(), finals, steps, failures)


# -- quad-population -----------------------------------------------------------

def quad_setup(seed: int, s: dict):
    family = fr_quadratics.make_quadratic_family(
        s["n_clients"], s["dim"], spread=s["spread"], cond=s["cond"], seed=seed)
    return {"seed": seed, "problems": [fr_problems.QuadraticProblem(family)]}


def quad_job(inputs: dict, s: dict, scratch_dir: str) -> JobOutput:
    (problem,) = inputs["problems"]
    spec = fr_strategies.make_strategy("fedinit", beta=s["beta"])
    hp = fr_core.HyperParams(eta=s["eta"], rounds=s["rounds"], n_active=s["n_active"],
                             k_local=s["k_local"])
    ckpt = os.path.join(scratch_dir, "quad.ckpt.json")
    resaved = os.path.join(scratch_dir, "quad.restored.ckpt.json")
    sim = fr_core.Simulation(problem, spec, hp, inputs["seed"])
    res = sim.run(checkpoint_every=s["checkpoint_every"], checkpoint_path=ckpt)
    # the last checkpoint holds the final state: restoring it and saving the
    # restored simulation again must reproduce it byte for byte
    restored = fr_artifacts.restore_simulation(problem, spec, hp, fr_artifacts.load_checkpoint(ckpt))
    fr_artifacts.save_checkpoint(resaved, restored)
    failures = _record_failures("fedinit", res.records)
    with open(ckpt, "rb") as a, open(resaved, "rb") as b:
        if a.read() != b.read():
            failures.append("restored checkpoint differs from the run's final state")
    if not np.array_equal(restored.server.global_params, sim.server.global_params):
        failures.append("restored global model differs from the run's final model")
    final = res.summary["final"]
    finals = {"fedinit": {k: final[k] for k in ("train_loss", "divergence")}}
    if not _finite(finals["fedinit"].values()):
        failures.append(f"non-finite final value {finals['fedinit']}")
    digest = hashlib.sha256(fr_metrics.rounds_csv_text(res.records, "fedinit").encode())
    steps = s["rounds"] * s["n_active"] * s["k_local"]
    return JobOutput(digest.hexdigest(), finals, steps, failures)


# -- stability-paired ----------------------------------------------------------

def _stability_seeds(seed: int, s: dict) -> list[int]:
    return [seed * s["n_seeds"] + j for j in range(s["n_seeds"])]


def stability_setup(seed: int, s: dict):
    pairs = {}
    for pair_seed in _stability_seeds(seed, s):
        a, b, _ = fr_stability.make_paired_blob_problems(
            n_clients=s["n_clients"], n_samples=s["n_samples"], n_features=s["n_features"],
            n_classes=s["n_classes"], perturb=(0, 0), separation=s["separation"],
            concentration=s["concentration"], n_test=s["n_test"], seed=pair_seed,
        )
        pairs[pair_seed] = (a, b)
    return {"seed": seed, "pairs": pairs,
            "problems": [p for pair in pairs.values() for p in pair]}


def stability_job(inputs: dict, s: dict, scratch_dir: str) -> JobOutput:
    pairs = inputs["pairs"]
    seeds = list(pairs)
    hp = fr_core.HyperParams(eta=s["eta"], rounds=s["rounds"], n_active=s["n_active"],
                             k_local=s["k_local"], lr_schedule="inverse_t")
    base = fr_strategies.make_strategy("fedavg")
    traces = fr_stability.stability_experiment(
        lambda pair_seed: pairs[pair_seed], base, hp, betas=s["betas"], seeds=seeds)
    summary = fr_stability.summarize_traces(traces)
    # zero-perturbation control: a problem paired with itself never splits
    same = pairs[seeds[0]][0]
    control = fr_stability.paired_run(
        same, same, fr_strategies.compose_ri(base, s["control_beta"]), hp, seeds[0])

    failures = []
    digest = hashlib.sha256()
    for tr in traces + [control]:
        digest.update(np.asarray(tr.deltas, dtype=np.float64).tobytes())
        if not _finite(tr.deltas):
            failures.append(f"beta {tr.beta} seed {tr.seed}: non-finite delta")
    if any(d != 0.0 for d in control.deltas) or control.t0 is not None:
        failures.append("zero-perturbation control: delta is not exactly 0")
    finals = {f"beta={row['beta']:g}": {"mean_final_delta": row["mean_final_delta"]}
              for row in summary["per_beta"]}
    runs = len(traces) + 1
    steps = runs * 2 * s["rounds"] * s["n_active"] * s["k_local"]
    return JobOutput(digest.hexdigest(), finals, steps, failures)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, dict], dict]            # (seed, shape) -> inputs
    job: Callable[[dict, dict, str], JobOutput]   # (inputs, shape, scratch dir) -> output
    calibration: str  # the calibration.py kernel doing the same kind of work


WORKLOADS = {
    w.name: w for w in (
        Workload("mlp-noniid", mlp_setup, mlp_job, "dense"),
        Workload("quad-population", quad_setup, quad_job, "stream"),
        Workload("stability-paired", stability_setup, stability_job, "dense"),
    )
}


def reference_failures(finals: dict, pinned: dict) -> list[str]:
    """Compare a job's finals at REFERENCE_SEED with the pinned values."""
    out = []
    for run, values in pinned.items():
        for key, want in values.items():
            got = finals.get(run, {}).get(key)
            if got is None or not abs(got - want) <= RTOL * abs(want) + ATOL:
                out.append(f"reference mismatch {run}.{key}: got {got!r}, pinned {want!r}")
    return out
