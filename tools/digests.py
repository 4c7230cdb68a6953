"""Print one sha256 per run of a fixed strategy x problem grid and a CLI grid.

    python3 tools/digests.py SRC_DIR

SRC_DIR is the directory that holds the ``fedrelax`` package (``src`` of a
checkout). Two trees that print the same lines produce the same artifacts on
every run of the grid, so a refactor that must keep results byte-identical
is checked with

    diff <(python3 tools/digests.py OLD/src) <(python3 tools/digests.py src)

Each run hashes the bytes of every checkpoint it writes, each as soon as
``save_checkpoint`` returns (a later one overwrites it), then its rounds.csv
text, its summary, the final global model, the ``last_local`` matrix and the
client and server aux arrays. The ``family-stacks`` line hashes the arrays of
two quadratic families whose draws cross the QR stack boundaries of
``make_quadratic_family``. Each paired stability run hashes its whole
trace: deltas, global distances, t0, loss gap and U. Each run of the CLI grid
calls ``fedrelax.cli.main`` in-process from its own scratch directory, with
relative paths only, so no temporary path reaches an artifact; it hashes
every checkpoint as it is written, then the exit code, stdout and every file
the run leaves. A CLI grid run the CLI refuses (exit 2) stops the tool with
exit code 1, naming the run.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

ROUNDS = 8

# the fedrelax modules the grids read, each imported by name
MODULES = ("artifacts", "cli", "core", "datasets", "metrics", "models", "problems", "quadratics",
           "stability", "strategies")


def load_modules(src: str) -> SimpleNamespace:
    """The MODULES of the fedrelax package in the directory src, as attributes."""
    sys.path.insert(0, os.path.abspath(src))
    return SimpleNamespace(**{m: importlib.import_module(f"fedrelax.{m}") for m in MODULES})


def _strategies(fs):
    make, ri = fs.make_strategy, fs.compose_ri
    return {
        "fedavg": lambda: make("fedavg"),
        "fedinit": lambda: make("fedinit", beta=0.1),
        "scaffold": lambda: make("scaffold"),
        "scaffold+ri": lambda: ri(make("scaffold"), 0.05),
        "feddyn": lambda: make("feddyn"),
        "fedadam": lambda: make("fedadam"),
        "fedcm": lambda: make("fedcm"),
        "fedcm+ri": lambda: ri(make("fedcm"), 0.1),
        "fedsam": lambda: make("fedsam"),
    }


def _problems(fr):
    """name -> (problem, HyperParams), built fresh for every run."""
    core, quad, prob, ds, models = fr.core, fr.quadratics, fr.problems, fr.datasets, fr.models
    hp = core.HyperParams

    def quadratic(c, d, noise, seed):
        fam = quad.make_quadratic_family(c, d, spread=1.0, cond=3.0, seed=seed)
        return prob.QuadraticProblem(fam, grad_noise=noise)

    def blobs():
        train, test = ds.make_blobs(240, 4, 3, seed=1, n_test=60)
        shards = ds.shard_dataset(train, ds.dirichlet_partition(train.y, 6, 0.5, seed=1))
        return prob.DatasetProblem(models.MLPClassifier(4, 5, 3), shards, test)

    def binary_blobs():
        train, test = ds.make_blobs(200, 3, 2, separation=2.0, seed=2, n_test=40)
        shards = ds.shard_dataset(train, ds.dirichlet_partition(train.y, 5, 0.5, seed=2))
        return prob.DatasetProblem(models.LogisticRegression(3), shards, test)

    def uneven_regression():
        # shards of 1 to 61 samples: short last batches of several lengths
        data = ds.make_blobs(150, 3, 3, separation=1.0, seed=3)
        cuts = np.cumsum([0, 1, 9, 13, 22, 44, 61])
        shards = [ds.Dataset(data.x[a:b], data.y[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        return prob.DatasetProblem(models.LinearRegression(3), shards)

    return {
        "quad-d4": lambda: (quadratic(8, 4, 0.0, 0), hp(eta=0.1, rounds=ROUNDS, n_active=4, k_local=3)),
        "quad-noisy": lambda: (quadratic(8, 3, 0.2, 1), hp(eta=0.1, rounds=ROUNDS, n_active=3, k_local=3)),
        "quad-d1-n18": lambda: (quadratic(20, 1, 0.1, 2), hp(eta=0.1, rounds=ROUNDS, n_active=18, k_local=2)),
        # 8 rows per block at d = 128 (QuadraticProblem.block_rows): each round trains two blocks of 5
        "quad-d128-split": lambda: (quadratic(12, 128, 0.1, 4), hp(eta=0.05, rounds=ROUNDS, n_active=10,
                                                                   k_local=3)),
        "mlp-minibatch": lambda: (blobs(), hp(eta=0.2, rounds=ROUNDS, n_active=4, k_local=3, batch_size=8)),
        "mlp-epochs-weighted": lambda: (blobs(), hp(eta=0.2, rounds=ROUNDS, n_active=4, local_epochs=1,
                                                    batch_size=16, weighted_aggregation=True)),
        "mlp-fullbatch": lambda: (blobs(), hp(eta=0.2, rounds=ROUNDS, n_active=3, k_local=2)),
        "logistic-fullbatch": lambda: (binary_blobs(), hp(eta=0.3, rounds=ROUNDS, n_active=4, k_local=3)),
        "linear-minibatch": lambda: (uneven_regression(), hp(eta=0.02, rounds=ROUNDS, n_active=4,
                                                            k_local=4, batch_size=8)),
    }


def _arrays(h, arrays: dict) -> None:
    for k in sorted(arrays):
        h.update(k.encode())
        h.update(np.ascontiguousarray(arrays[k], dtype="<f8").tobytes())


@contextlib.contextmanager
def hashing_checkpoints(fr, h):
    """Within the block, every checkpoint fedrelax saves is fed to h right after it is written."""
    save = fr.artifacts.save_checkpoint

    def save_and_hash(path, sim, config_hash=None):
        save(path, sim, config_hash)
        with open(path, "rb") as f:
            h.update(f.read())

    fr.artifacts.save_checkpoint = save_and_hash
    try:
        yield
    finally:
        fr.artifacts.save_checkpoint = save


def run_digest(fr, spec, problem, hp, tmp: str) -> str:
    ckpt = os.path.join(tmp, "checkpoint.json")
    h = hashlib.sha256()
    with hashing_checkpoints(fr, h):
        res = fr.core.run_experiment(problem, spec, hp, seed=3, checkpoint_every=3, checkpoint_path=ckpt)
    sim = res.sim
    h.update(fr.metrics.rounds_csv_text(res.records, "0" * 64).encode())
    h.update(json.dumps(res.summary, sort_keys=True).encode())
    _arrays(h, {"final_global": res.final_global, "last_local": sim.last_local})
    _arrays(h, {f"client_aux.{k}": v for k, v in sim.client_aux.items()})
    _arrays(h, {f"server_aux.{k}": v for k, v in sim.server.aux.items()})
    os.unlink(ckpt)
    return h.hexdigest()


# name -> (pair shape, HyperParams arguments, make_strategy arguments) of one paired stability run;
# a shape without model_kind pairs two logistic regressions
PAIRED = {
    # mini-batches, N = 3 of C = 5
    "fedinit-blobs": ({"n_clients": 5, "perturb": (1, 2)},
                      {"eta": 0.5, "n_active": 3, "k_local": 3, "batch_size": 8},
                      {"name": "fedinit", "beta": 0.1}),
    # full batches, N = C: the shape of acceptance criterion 9
    "fedinit-fullbatch": ({"n_clients": 3, "perturb": (0, 0)},
                          {"eta": 1.5, "n_active": 3, "k_local": 10},
                          {"name": "fedinit", "beta": 0.1}),
    # FedSAM's ascent radius is a norm per side, not one over both sides' models
    "fedsam+ri-minibatch": ({"n_clients": 5, "perturb": (1, 2)},
                            {"eta": 0.5, "n_active": 3, "k_local": 3, "batch_size": 8},
                            {"name": "fedsam", "beta": 0.1, "rho": 0.05}),
    # full batches, N = C: both final test-loss reads go through one MLP evaluation Block
    "fedinit-mlp-full": ({"n_clients": 4, "perturb": (2, 1), "model_kind": "mlp", "n_classes": 3},
                         {"eta": 0.5, "n_active": 4, "k_local": 3},
                         {"name": "fedinit", "beta": 0.1}),
    # MLP pairs on shards of 26/16/14/17/37/40, batches of 8, N = 3 of C = 6: short last
    # batches make steps of several runs, whose biases go in once per block over both sides
    "fedinit-mlp-mini": ({"n_clients": 6, "perturb": (1, 2), "model_kind": "mlp", "n_classes": 3,
                          "concentration": 0.3},
                         {"eta": 0.5, "n_active": 3, "k_local": 3, "batch_size": 8},
                         {"name": "fedinit", "beta": 0.1}),
    # shards of 28/28/29/25/40 samples: 4 or 5 steps per epoch, so a round that samples
    # client 4 trains two blocks, each side's batches n_i rows past side 0's on uneven shards
    "fedinit-epochs": ({"n_clients": 5, "perturb": (1, 2)},
                       {"eta": 0.5, "n_active": 3, "local_epochs": 1, "batch_size": 8,
                        "weighted_aggregation": True},
                       {"name": "fedinit", "beta": 0.1}),
}


# (C, d, cond) of the families hashed by the family-stacks line: 37 clients at d = 60
# fill four stacks of 9 and a one-client tail; at d = 200 every stack holds one client
FAMILY_STACKS = ((37, 60, 4.0), (3, 200, 9.0))


def family_digest(fr) -> str:
    h = hashlib.sha256()
    for c, d, cond in FAMILY_STACKS:
        fam = fr.quadratics.make_quadratic_family(c, d, spread=1.0, cond=cond, seed=c)
        _arrays(h, {"a_matrices": fam.a_matrices, "b_vectors": fam.b_vectors})
    return h.hexdigest()


def paired_digest(fr, shape: dict, hp_args: dict, strategy_args: dict) -> str:
    a, b, _ = fr.stability.make_paired_blob_problems(
        **{"model_kind": "logistic-regression", "n_classes": 2, **shape},
        n_samples=150, n_features=3, n_test=30, seed=4,
    )
    hp = fr.core.HyperParams(**hp_args, rounds=ROUNDS, lr_schedule="inverse_t")
    trace = fr.stability.paired_run(a, b, fr.strategies.make_strategy(**strategy_args), hp, 4)
    return hashlib.sha256(json.dumps(trace.to_dict(), sort_keys=True).encode()).hexdigest()


_QUAD = {"problem": "quadratic", "n_clients": 6, "dim": 3, "rounds": 6, "n_active": 3,
         "local_iters": 3, "lr": 0.1, "cond": 3.0}
_BLOBS = {"problem": "blobs", "n_clients": 5, "n_samples": 200, "n_features": 3, "n_test": 40,
          "rounds": 5, "n_active": 3, "local_iters": 2, "batch_size": 16, "lr": 0.3}
_MLP = {**_BLOBS, "n_classes": 3, "model": "mlp", "hidden": 4}
_STABILITY = {**_BLOBS, "strategy": "fedinit", "rounds": 4, "betas": [0.0, 0.1], "stability_seeds": 2,
              "perturb_client": 1, "perturb_index": 2}

# name -> (one argv per call, config); every config is one the CLI accepts
CLI_GRID = {
    "run-quad-fedinit": ([["run", "--seed", "2"]], {**_QUAD, "strategy": "fedinit", "beta": 0.1,
                                                  "grad_noise": 0.1, "checkpoint_every": 2}),
    "run-mlp-epochs": ([["run"]], {**_MLP, "strategy": "scaffold", "local_iters": None,
                                 "local_epochs": 1, "weighted_aggregation": True,
                                 "client_bias_sigma": 0.3, "category_bias_sigma": 0.3}),
    "run-resume": ([["run"], ["run", "--resume"]], {**_QUAD, "strategy": "fedcm",
                                                    "checkpoint_every": 3}),
    "run-linear": ([["run"]], {**_BLOBS, "model": "linear-regression", "lr": 0.05}),
    "sweep-beta": ([["sweep", "--jobs", "1"]], {**_QUAD, "strategy": "fedinit",
                   "sweep": {"axis": "beta", "values": [0.0, 0.1], "seeds": [0, 1]}}),
    "sweep-strategy": ([["sweep", "--jobs", "2"]], {**_BLOBS, "sweep": {
                       "axis": "strategy", "values": ["fedavg", "fedcm"], "seeds": [3]}}),
    "bounds-thm1": ([["verify-bounds"]], {**_QUAD, "n_clients": 4, "n_active": 4, "cond": 1.0,
                    "strategy": "fedinit", "beta": 0.05, "lr": 0.05, "rounds": 60, "theorem": 1}),
    "bounds-thm2": ([["verify-bounds"]], {**_QUAD, "cond": 2.0, "strategy": "fedinit", "beta": 0.05,
                    "lr": 0.05, "rounds": 80, "theorem": 2}),
    "bounds-thm3": ([["verify-bounds"]], {**_QUAD, "n_clients": 5, "n_active": 2, "strategy": "fedinit",
                    "beta": 0.1, "lr": 0.1, "rounds": 50, "theorem": 3}),
    "bounds-thm4": ([["verify-bounds"]], {**_QUAD, "n_clients": 5, "n_active": 5, "dim": 4,
                    "spread": 2.0, "cond": 5.0, "lr": 0.05, "rounds": 800, "theorem": 4}),
    "stability": ([["stability"]], _STABILITY),
    "stability-mlp": ([["stability"]], {**_STABILITY, "model": "mlp", "n_classes": 3, "hidden": 4}),
    "partition-blobs": ([["partition-report"]], {**_MLP, "n_clients": 6, "concentration": 0.3,
                        "with_replacement": True, "category_bias_sigma": 0.5}),
    "partition-csv": ([["partition-report", "--seed", "1"]], {
                      "problem": "csv", "csv_path": "data.csv", "n_clients": 4, "concentration": 0.5}),
}


def cli_digest(fr, argvs: list, cfg: dict, run_dir: str) -> str | None:
    """The run's digest, or None when the CLI refuses one of its calls (exit 2)."""
    os.makedirs(run_dir)
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        if cfg.get("csv_path"):
            fr.datasets.save_csv(fr.datasets.make_blobs(120, 3, 2, seed=5), cfg["csv_path"])
        with open("config.json", "w") as f:
            json.dump({k: v for k, v in cfg.items() if v is not None}, f)
        h = hashlib.sha256()
        for argv in argvs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), hashing_checkpoints(fr, h):
                code = fr.cli.main(argv + ["--config", "config.json", "--out", "out"])
            if code == 2:
                return None
            h.update(f"{code}\n{stdout.getvalue()}".encode())
        for root, dirs, files in os.walk("out"):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        return h.hexdigest()
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "fedrelax")):
        print("usage: digests.py SRC_DIR  (the directory holding the fedrelax package)", file=sys.stderr)
        return 2
    fr = load_modules(argv[0])
    problems = _problems(fr)
    with tempfile.TemporaryDirectory() as tmp:
        for sname, make in _strategies(fr.strategies).items():
            for pname, build in problems.items():
                problem, hp = build()
                print(f"{sname:<12} {pname:<20} {run_digest(fr, make(), problem, hp, tmp)}")
        print(f"{'quadratic':<12} {'family-stacks':<20} {family_digest(fr)}")
        for name, (shape, hp_args, strategy_args) in PAIRED.items():
            print(f"{'paired':<12} {name:<20} {paired_digest(fr, shape, hp_args, strategy_args)}")
        for name, (argvs, cfg) in CLI_GRID.items():
            digest = cli_digest(fr, argvs, cfg, os.path.join(tmp, name))
            if digest is None:
                print(f"CLI grid run {name!r} exited 2; the grid must hold accepted configs",
                      file=sys.stderr)
                return 1
            print(f"{'cli':<12} {name:<20} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
