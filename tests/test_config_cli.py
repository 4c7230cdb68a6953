"""Config schema validation, hashing, builders, and the CLI end to end."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fedrelax.cli import _effective_jobs, _effective_out, build_parser, main
from fedrelax.config import (
    MODE_PROBLEMS,
    SCHEMA,
    ConfigError,
    build_hp,
    build_problem,
    build_strategy,
    config_hash,
    load_config,
    resolve_config,
)
from fedrelax.core import Simulation
from fedrelax.artifacts import save_checkpoint
from fedrelax.problems import DatasetProblem, QuadraticProblem


# -- schema ---------------------------------------------------------------------

def test_defaults_echoed():
    cfg = resolve_config({})
    assert cfg["problem"] == "quadratic"
    assert cfg["n_clients"] == 10
    assert cfg["n_active"] == 10  # defaults to full participation
    assert cfg["local_iters"] == 5 and cfg["local_epochs"] is None
    assert cfg["lr_decay"] == 0.998
    assert cfg["strategy"] == "fedavg"
    assert cfg["schema_version"] == 1
    assert cfg["theorem"] == 1


def test_mode_aware_lr_defaults():
    assert resolve_config({"strategy": "feddyn"})["lr_decay"] == 0.9995
    assert resolve_config({}, mode="verify-bounds")["lr_decay"] == 1.0
    assert resolve_config({"lr_schedule": "inverse_t"})["lr_decay"] == 1.0
    st = resolve_config({"problem": "blobs"}, mode="stability")
    assert st["lr_schedule"] == "inverse_t" and st["lr_decay"] == 1.0
    # explicit values always win
    assert resolve_config({"lr_decay": 0.9})["lr_decay"] == 0.9
    st2 = resolve_config({"problem": "blobs", "lr_schedule": "constant"}, mode="stability")
    assert st2["lr_schedule"] == "constant"
    # stability traces these betas unless told otherwise, and its echo says so
    assert st["betas"] == [0.0, 0.05, 0.1]
    echo = {k: v for k, v in st.items() if k != "schema_version"}
    assert resolve_config(echo, mode="stability") == st


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="'learning_rate'"):
        resolve_config({"learning_rate": 0.1})


def test_type_and_allowed_checks():
    with pytest.raises(ConfigError, match="'n_clients' must be int"):
        resolve_config({"n_clients": "10"})
    with pytest.raises(ConfigError, match="got bool"):
        resolve_config({"n_clients": True})
    with pytest.raises(ConfigError, match="must be one of"):
        resolve_config({"problem": "mnist"})
    with pytest.raises(ConfigError, match="must be one of"):
        resolve_config({"theorem": 5})
    with pytest.raises(ConfigError, match="finite"):
        resolve_config({"lr": float("inf")})
    with pytest.raises(ConfigError, match="'sweep' must be dict"):
        resolve_config({"sweep": [1, 2]})


def test_participation_and_local_steps_guards():
    with pytest.raises(ConfigError, match="n_active=7 exceeds n_clients=4"):
        resolve_config({"n_clients": 4, "n_active": 7})
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config({"local_iters": 3, "local_epochs": 2})


def test_quadratic_guards():
    with pytest.raises(ConfigError, match="batch_size"):
        resolve_config({"batch_size": 32})
    with pytest.raises(ConfigError, match="'local_epochs'"):
        resolve_config({"local_epochs": 2})
    with pytest.raises(ConfigError, match="cond"):
        resolve_config({"cond": 0.5})
    with pytest.raises(ConfigError, match=">= 0"):
        resolve_config({"spread": -1.0})


def test_dataset_guards():
    with pytest.raises(ConfigError, match="csv_path"):
        resolve_config({"problem": "csv"})
    with pytest.raises(ConfigError, match="n_classes=2"):
        resolve_config({"problem": "blobs", "n_classes": 3})
    resolve_config({"problem": "blobs", "n_classes": 3, "model": "mlp"})  # fine
    with pytest.raises(ConfigError, match="concentration"):
        resolve_config({"problem": "blobs", "concentration": 0.0})
    # epoch mode is legal for dataset problems
    cfg = resolve_config({"problem": "blobs", "local_epochs": 2, "batch_size": 32})
    assert cfg["local_epochs"] == 2 and cfg["local_iters"] is None


def test_betas_coerced():
    cfg = resolve_config({"problem": "blobs", "betas": [0, 0.05]}, mode="stability")
    assert cfg["betas"] == [0.0, 0.05]
    assert all(isinstance(b, float) for b in cfg["betas"])
    with pytest.raises(ConfigError, match="numbers"):
        resolve_config({"problem": "blobs", "betas": [0.1, True]}, mode="stability")
    with pytest.raises(ConfigError, match="finite numbers"):
        resolve_config({"problem": "blobs", "betas": [0.0, float("nan")]}, mode="stability")


def test_stability_betas_nonnegative():
    with pytest.raises(ConfigError, match="'betas' must be >= 0"):
        resolve_config({"problem": "blobs", "betas": [0.0, -0.05]}, mode="stability")
    # other modes do not read betas at all
    with pytest.raises(ConfigError, match="'betas' is not honored in run mode"):
        resolve_config({"betas": [-0.05]})


def test_sweep_validation():
    ok = {"axis": "lr", "values": [0.1, 0.2], "seeds": [0, 1]}
    resolve_config({"sweep": ok}, mode="sweep")
    with pytest.raises(ConfigError, match="sweep axis"):
        resolve_config({"sweep": {**ok, "axis": "rounds"}}, mode="sweep")
    with pytest.raises(ConfigError, match="non-empty"):
        resolve_config({"sweep": {**ok, "values": []}}, mode="sweep")
    with pytest.raises(ConfigError, match="integers"):
        resolve_config({"sweep": {**ok, "seeds": [0.5]}}, mode="sweep")
    with pytest.raises(ConfigError, match="unknown sweep key"):
        resolve_config({"sweep": {**ok, "step": 2}}, mode="sweep")


def test_overrides_merge():
    cfg = resolve_config({"seed": 3}, {"seed": 7})
    assert cfg["seed"] == 7
    cfg = resolve_config({"seed": 3}, {"seed": None})  # None-valued overrides ignored
    assert cfg["seed"] == 3


def test_config_hash_semantics():
    base = resolve_config({"lr": 0.1})
    h = config_hash(base)
    assert len(h) == 64
    assert config_hash(resolve_config({"lr": 0.1})) == h
    # operational keys never move the hash
    assert config_hash(resolve_config({"lr": 0.1, "out": "elsewhere",
                                       "jobs": 7, "checkpoint_every": 3})) == h
    # semantic keys do
    assert config_hash(resolve_config({"lr": 0.2})) != h
    assert config_hash(resolve_config({"lr": 0.1, "seed": 1})) != h


def test_load_config_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(p2)


# -- builders -------------------------------------------------------------------

def test_build_problem_quadratic():
    problem, plan = build_problem(resolve_config({"n_clients": 3, "dim": 2}))
    assert isinstance(problem, QuadraticProblem)
    assert plan is None
    assert problem.n_clients == 3 and problem.dim == 2


def test_build_problem_blobs():
    cfg = resolve_config({
        "problem": "blobs", "n_clients": 4, "n_samples": 200, "n_features": 3,
        "n_test": 40, "batch_size": 16,
    })
    problem, plan = build_problem(cfg)
    assert isinstance(problem, DatasetProblem)
    assert plan is not None and plan.n_clients == 4
    assert problem.n_clients == 4
    assert problem.test is not None and len(problem.test) == 40
    assert sum(problem.shard_size(i) for i in range(4)) == 200


def test_build_strategy_and_hp():
    cfg = resolve_config({"strategy": "fedadam", "rho": 0.2})
    spec = build_strategy(cfg)
    assert spec.name == "fedadam"
    assert spec.server_lr == 0.1  # adaptive server default
    fedavg = build_strategy(resolve_config({}))
    assert fedavg.server_lr == 1.0
    fedinit = build_strategy(resolve_config({"strategy": "fedinit"}))
    assert fedinit.ri and fedinit.beta > 0
    hp = build_hp(resolve_config({"lr": 0.25, "rounds": 7, "n_active": 3,
                                  "n_clients": 5, "local_iters": 4}))
    assert (hp.eta, hp.rounds, hp.n_active, hp.k_local) == (0.25, 7, 3, 4)


# -- CLI ------------------------------------------------------------------------

CLI = [sys.executable, "-m", "fedrelax.cli"]

RUN_CFG = {
    "problem": "blobs", "n_clients": 5, "n_samples": 200, "n_features": 3,
    "n_test": 40, "strategy": "fedinit", "beta": 0.1, "lr": 0.3,
    "rounds": 6, "n_active": 3, "local_iters": 2, "batch_size": 16, "seed": 1,
}


def cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("FEDRELAX_OUT", None)
    env.pop("FEDRELAX_JOBS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, env=env, cwd=cwd,
    )


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_cli_run_deterministic_rerun(tmp_path):
    cfg_path = write_cfg(tmp_path, RUN_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    r1 = cli("run", "--config", cfg_path, "--out", out1)
    assert r1.returncode == 0, r1.stderr
    assert "fedinit" in r1.stdout and "6 rounds" in r1.stdout
    rounds1 = open(os.path.join(out1, "rounds.csv"), "rb").read()
    # rerun into the same directory: artifacts overwritten byte-identically
    r1b = cli("run", "--config", cfg_path, "--out", out1)
    assert r1b.returncode == 0
    assert open(os.path.join(out1, "rounds.csv"), "rb").read() == rounds1
    # rerun into a different directory: rounds table still identical
    cli("run", "--config", cfg_path, "--out", out2)
    assert open(os.path.join(out2, "rounds.csv"), "rb").read() == rounds1
    summary = json.loads(open(os.path.join(out1, "summary.json")).read())
    assert summary["strategy"] == "fedinit"
    assert summary["schema_version"] == 1
    assert summary["config"]["beta"] == 0.1
    assert summary["config_hash"] in open(os.path.join(out1, "rounds.csv")).readline()


def test_cli_seed_override_changes_results(tmp_path):
    cfg_path = write_cfg(tmp_path, RUN_CFG)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    cli("run", "--config", cfg_path, "--out", out1)
    cli("run", "--config", cfg_path, "--out", out2, "--seed", "99")
    a = open(os.path.join(out1, "rounds.csv")).read()
    b = open(os.path.join(out2, "rounds.csv")).read()
    assert a != b


def test_cli_env_out_and_cli_priority(tmp_path):
    cfg_path = write_cfg(tmp_path, RUN_CFG)
    env_dir = str(tmp_path / "envout")
    r = cli("run", "--config", cfg_path, env_extra={"FEDRELAX_OUT": env_dir})
    assert r.returncode == 0
    assert os.path.exists(os.path.join(env_dir, "rounds.csv"))
    cli_dir = str(tmp_path / "cliout")
    r2 = cli("run", "--config", cfg_path, "--out", cli_dir,
             env_extra={"FEDRELAX_OUT": str(tmp_path / "ignored")})
    assert r2.returncode == 0
    assert os.path.exists(os.path.join(cli_dir, "rounds.csv"))
    assert not os.path.exists(str(tmp_path / "ignored"))


def test_cli_resume_matches_uninterrupted(tmp_path):
    cfg_raw = dict(RUN_CFG, rounds=8)
    cfg_path = write_cfg(tmp_path, cfg_raw)
    ref_dir = str(tmp_path / "ref")
    r = cli("run", "--config", cfg_path, "--out", ref_dir)
    assert r.returncode == 0, r.stderr

    # simulate an interrupted run: checkpoint after 5 of 8 rounds
    cfg = resolve_config(load_config(cfg_path), mode="run")
    h = config_hash(cfg)
    problem, _ = build_problem(cfg)
    sim = Simulation(problem, build_strategy(cfg), build_hp(cfg), cfg["seed"])
    sim.config_hash = h
    for _ in range(5):
        sim.step()
    resume_dir = tmp_path / "resumed"
    resume_dir.mkdir()
    save_checkpoint(resume_dir / "checkpoint.json", sim, config_hash=h)

    r2 = cli("run", "--config", cfg_path, "--out", str(resume_dir), "--resume")
    assert r2.returncode == 0, r2.stderr
    ref = open(os.path.join(ref_dir, "rounds.csv"), "rb").read()
    res = open(os.path.join(resume_dir, "rounds.csv"), "rb").read()
    assert res == ref


def test_cli_resume_without_checkpoint_errors(tmp_path):
    cfg_path = write_cfg(tmp_path, RUN_CFG)
    r = cli("run", "--config", cfg_path, "--out", str(tmp_path / "empty"), "--resume")
    assert r.returncode == 2
    assert "no checkpoint found" in r.stderr


def test_cli_resume_rejects_other_config(tmp_path):
    cfg_path = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "mismatch"
    out.mkdir()
    cfg = resolve_config(load_config(cfg_path), mode="run")
    problem, _ = build_problem(cfg)
    sim = Simulation(problem, build_strategy(cfg), build_hp(cfg), cfg["seed"])
    sim.step()
    save_checkpoint(out / "checkpoint.json", sim, config_hash="0" * 64)
    r = cli("run", "--config", cfg_path, "--out", str(out), "--resume")
    assert r.returncode == 2
    assert "different configuration" in r.stderr


def test_cli_resume_non_object_checkpoint_exit_2(tmp_path):
    cfg_path = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "listed"
    out.mkdir()
    (out / "checkpoint.json").write_text("[1, 2]")
    r = cli("run", "--config", cfg_path, "--out", str(out), "--resume")
    assert r.returncode == 2
    assert "must hold a JSON object" in r.stderr and "Traceback" not in r.stderr


def test_cli_unknown_key_exit_2(tmp_path):
    cfg_path = write_cfg(tmp_path, {"learning_rate": 0.1})
    r = cli("run", "--config", cfg_path, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "unknown config key" in r.stderr


def test_cli_missing_config_file(tmp_path):
    r = cli("run", "--config", str(tmp_path / "nope.json"))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_cli_verify_bounds_pass_and_fail(tmp_path):
    passing = {
        "problem": "quadratic", "n_clients": 4, "dim": 3, "spread": 1.0,
        "strategy": "fedinit", "beta": 0.05, "lr": 0.05, "rounds": 60,
        "local_iters": 3, "lr_schedule": "constant", "theorem": 1,
    }
    out = str(tmp_path / "ok")
    r = cli("verify-bounds", "--config", write_cfg(tmp_path, passing), "--out", out)
    assert r.returncode == 0, r.stderr
    assert "holds=True" in r.stdout
    report = json.loads(open(os.path.join(out, "bounds_report.json")).read())
    assert report["report"]["holds_at_most_favorable"] is True
    assert len(report["report"]["grid"]) == 9

    # the interpolation-regime statement fails once its assumption is violated:
    # heterogeneous curvature, no common minimizer, beta = 0
    failing = {
        "problem": "quadratic", "n_clients": 5, "dim": 4, "spread": 2.0,
        "cond": 5.0, "strategy": "fedavg", "lr": 0.05, "rounds": 800,
        "local_iters": 3, "lr_schedule": "constant", "theorem": 4,
    }
    out2 = str(tmp_path / "fail")
    r2 = cli("verify-bounds", "--config", write_cfg(tmp_path, failing, "f.json"),
             "--out", out2)
    assert r2.returncode == 3, r2.stdout + r2.stderr
    assert "holds=False" in r2.stdout
    report2 = json.loads(open(os.path.join(out2, "bounds_report.json")).read())
    assert report2["report"]["holds_at_most_favorable"] is False


def test_cli_verify_bounds_needs_quadratic(tmp_path):
    cfg_path = write_cfg(tmp_path, {"problem": "blobs"})
    r = cli("verify-bounds", "--config", cfg_path, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "quadratic" in r.stderr


def test_cli_stability(tmp_path):
    cfg = {
        "problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3,
        "n_test": 40, "lr": 0.5, "rounds": 3, "n_active": 2, "local_iters": 2,
        "batch_size": 16, "betas": [0.0, 0.05], "stability_seeds": 2,
        "perturb_client": 1, "perturb_index": 0,
    }
    out = str(tmp_path / "stab")
    r = cli("stability", "--config", write_cfg(tmp_path, cfg), "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(open(os.path.join(out, "stability_report.json")).read())
    assert report["perturb"] == {"client": 1, "sample": 0}
    assert [row["beta"] for row in report["summary"]["per_beta"]] == [0.0, 0.05]
    assert len(report["traces"]) == 4
    assert "non-increasing in beta" in r.stdout


def test_cli_stability_guards(tmp_path):
    r = cli("stability", "--config", write_cfg(tmp_path, {"problem": "quadratic"}),
            "--out", str(tmp_path / "o"))
    assert r.returncode == 2 and "blobs" in r.stderr
    bad = {
        "problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3,
        "rounds": 2, "local_iters": 2, "stability_seeds": 1, "perturb_client": 9,
    }
    r2 = cli("stability", "--config", write_cfg(tmp_path, bad, "b.json"),
             "--out", str(tmp_path / "o2"))
    assert r2.returncode == 2
    assert "out of range" in r2.stderr


def test_cli_stability_without_test_split(tmp_path):
    cfg = {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3,
           "n_test": 0, "rounds": 2, "local_iters": 2, "stability_seeds": 1, "betas": [0.0, 0.1]}
    out = tmp_path / "o"
    r = cli("stability", "--config", write_cfg(tmp_path, cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "stability_report.json").read_text())
    assert len(report["traces"]) == 2
    assert all(t["loss_gap"] is None and t["u_bound"] is None for t in report["traces"])
    assert all(row["mean_loss_gap"] is None for row in report["summary"]["per_beta"])


def test_cli_zero_batch_size_refused_before_training(tmp_path):
    cfg = {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3,
           "rounds": 2, "local_epochs": 1, "batch_size": 0}
    out = tmp_path / "o"
    r = cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "batch_size" in r.stderr and "Traceback" not in r.stderr
    assert not (out / "rounds.csv").exists()


@pytest.mark.parametrize("mode,problem", [("verify-bounds", "blobs"), ("stability", "quadratic"),
                                          ("partition-report", "quadratic")])
def test_resolve_refuses_problem_kind_the_mode_cannot_run(mode, problem):
    with pytest.raises(ConfigError, match=f"{mode} mode needs problem in .*got {problem!r}"):
        resolve_config({"problem": problem}, mode=mode)


def test_cli_stability_refuses_negative_beta(tmp_path):
    cfg = {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3,
           "rounds": 2, "local_iters": 2, "stability_seeds": 1, "betas": [0.0, -0.05]}
    cfg_path = write_cfg(tmp_path, cfg)
    r = cli("stability", "--config", cfg_path, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "'betas' must be >= 0" in r.stderr
    r2 = cli("stability", "--config", cfg_path, "--out", str(tmp_path / "o"), "--allow-negative-beta")
    assert r2.returncode == 2
    assert "unrecognized arguments: --allow-negative-beta" in r2.stderr


UNHONORED_CASES = [
    ("sweep", "checkpoint_every", 2,
     {"problem": "quadratic", "n_clients": 4, "dim": 3, "rounds": 4, "local_iters": 2,
      "strategy": "fedinit", "sweep": {"axis": "beta", "values": [0.0, 0.1]}}),
    ("verify-bounds", "checkpoint_every", 2,
     {"problem": "quadratic", "n_clients": 4, "dim": 3, "rounds": 4, "local_iters": 2}),
    ("stability", "beta", 0.3,
     {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3, "rounds": 2,
      "local_iters": 2, "stability_seeds": 1, "strategy": "fedinit", "betas": [0.0, 0.05]}),
    # the replacement sample is drawn unbiased, so biased shards would not be neighbors
    ("stability", "client_bias_sigma", 0.5,
     {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3, "rounds": 2,
      "local_iters": 2, "stability_seeds": 1, "betas": [0.0, 0.05]}),
    ("stability", "category_bias_sigma", 0.5,
     {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3, "rounds": 2,
      "local_iters": 2, "stability_seeds": 1, "betas": [0.0, 0.05]}),
    ("stability", "checkpoint_every", 2,
     {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3, "rounds": 2,
      "local_iters": 2, "stability_seeds": 1, "betas": [0.0, 0.05]}),
    ("run", "sweep", {"axis": "lr", "values": [0.1]},
     {"problem": "quadratic", "n_clients": 4, "dim": 3, "rounds": 4, "local_iters": 2}),
]


@pytest.mark.parametrize("mode,key,value,cfg", UNHONORED_CASES,
                         ids=[f"{m}-{k}" for m, k, _, _ in UNHONORED_CASES])
def test_cli_refuses_keys_the_mode_ignores(tmp_path, mode, key, value, cfg):
    out = tmp_path / "o"
    r = cli(mode, "--config", write_cfg(tmp_path, {**cfg, key: value}), "--out", str(out))
    assert r.returncode == 2
    assert f"config key {key!r} is not honored in {mode} mode" in r.stderr
    assert not out.exists()
    # without the key the same config runs; sweep points re-resolve their defaults
    r2 = cli(mode, "--config", write_cfg(tmp_path, cfg, "ok.json"), "--out", str(out))
    assert r2.returncode in (0, 3), r2.stderr  # verify-bounds exits 3 on a violated bound
    with pytest.raises(ConfigError, match=repr(key)):
        resolve_config({**cfg, key: value}, mode=mode)


# who reads each key: problem kinds and/or subcommands (README's readers table)
KINDS = ("quadratic", "blobs", "csv")
MODES = ("run", "sweep", "verify-bounds", "stability", "partition-report")
NOT_STABILITY = ("run", "sweep", "verify-bounds", "partition-report")
READERS = {
    **dict.fromkeys(("dim", "spread", "cond", "grad_noise"), ("quadratic",)),
    **dict.fromkeys(("n_samples", "n_features", "n_classes", "separation", "cluster_std",
                     "n_test"), ("blobs",)),
    **dict.fromkeys(("csv_path", "csv_test_path"), ("csv",)),
    **dict.fromkeys(("model", "hidden", "concentration", "with_replacement", "batch_size",
                     "local_epochs", "weighted_aggregation"), ("blobs", "csv")),
    **dict.fromkeys(("client_bias_sigma", "category_bias_sigma"), ("blobs", "csv") + NOT_STABILITY),
    "beta": NOT_STABILITY,
    "checkpoint_every": ("run",),
    "sweep": ("sweep",),
    "theorem": ("verify-bounds",),
    **dict.fromkeys(("betas", "stability_seeds", "perturb_client", "perturb_index"), ("stability",)),
}
# per key, a value other than its default that passes every other check
OFF_DEFAULT = {
    "dim": 3, "spread": 2.0, "cond": 2.0, "grad_noise": 0.1, "n_samples": 100, "n_features": 3,
    "n_classes": 3, "separation": 2.0, "cluster_std": 0.5, "n_test": 20, "csv_path": "a.csv",
    "csv_test_path": "b.csv", "model": "linear-regression", "hidden": 4, "concentration": 0.5,
    "with_replacement": True, "batch_size": 8, "local_epochs": 1, "weighted_aggregation": True,
    "client_bias_sigma": 0.3, "category_bias_sigma": 0.3, "beta": 0.1, "checkpoint_every": 2,
    "sweep": {"axis": "lr", "values": [0.2]}, "theorem": 2, "betas": [0.0, 0.1],
    "stability_seeds": 2, "perturb_client": 1, "perturb_index": 1,
}
# the smallest config of each kind and mode; blobs and csv use mlp so n_classes may move
KIND_BASE = {"quadratic": {}, "blobs": {"model": "mlp"}, "csv": {"model": "mlp", "csv_path": "t.csv"}}
MODE_BASE = {"sweep": {"sweep": {"axis": "lr", "values": [0.1]}}}
PAIRS = [(m, k) for m in MODES for k in MODE_PROBLEMS.get(m, KINDS)]


def test_readers_declared_for_exactly_the_tabled_keys():
    assert {k for k, entry in SCHEMA.items() if len(entry) == 4} == set(READERS)
    assert len(PAIRS) == 10


@pytest.mark.parametrize("mode,kind", PAIRS, ids=[f"{m}-{k}" for m, k in PAIRS])
@pytest.mark.parametrize("key", sorted(READERS))
def test_off_default_key_refused_exactly_where_unread(key, mode, kind):
    base = {"problem": kind, **KIND_BASE[kind], **MODE_BASE.get(mode, {})}
    value, readers = OFF_DEFAULT[key], READERS[key]
    assert value != SCHEMA[key][1]
    kind_reads = kind in readers or not set(readers) & set(KINDS)
    mode_reads = mode in readers or not set(readers) - set(KINDS)
    if kind_reads and mode_reads:
        assert resolve_config({**base, key: value}, mode=mode)[key] == value
    elif not kind_reads:
        with pytest.raises(ConfigError, match=f"config key {key!r} is not read by {kind!r} problems"):
            resolve_config({**base, key: value}, mode=mode)
    else:
        with pytest.raises(ConfigError, match=f"config key {key!r} is not honored in {mode} mode"):
            resolve_config({**base, key: value}, mode=mode)
    # the default passes everywhere, except where the kind or mode needs the key set
    if key not in ({"csv": "csv_path"}.get(kind), {"sweep": "sweep"}.get(mode)):
        resolve_config({**base, key: SCHEMA[key][1]}, mode=mode)


_QUAD_SMALL = {"problem": "quadratic", "n_clients": 4, "dim": 3, "rounds": 3, "local_iters": 2}
_BLOBS_SMALL = {"problem": "blobs", "n_clients": 4, "n_samples": 160, "n_features": 3, "rounds": 2,
                "local_iters": 2}
_STABILITY_SMALL = {**_BLOBS_SMALL, "stability_seeds": 1, "betas": [0.0, 0.05]}

# configs whose key would shape nothing (or whose run would test nothing)
REFUSED_CASES = [
    ("sweep", "concentration", {**_QUAD_SMALL, "sweep": {"axis": "concentration", "values": [0.1, 10.0]}}),
    ("sweep", "grad_noise", {**_BLOBS_SMALL, "sweep": {"axis": "grad_noise", "values": [0.0, 0.5]}}),
    ("run", "dim", {**_BLOBS_SMALL, "dim": 50, "cond": 9.0, "theorem": 3, "betas": [0.5]}),
    ("run", "model", {**_QUAD_SMALL, "model": "mlp", "concentration": 0.1}),
    ("run", "checkpoint_every", {**_QUAD_SMALL, "checkpoint_every": -2}),
    ("stability", "stability_seeds", {**_STABILITY_SMALL, "stability_seeds": 0}),
    ("stability", "betas", {**_STABILITY_SMALL, "betas": []}),
    ("run", "lr_decay", {**_QUAD_SMALL, "lr_schedule": "inverse_t", "lr_decay": 0.5}),
    ("run", "jobs", {**_QUAD_SMALL, "jobs": -3}),
]


@pytest.mark.parametrize("mode,key,cfg", REFUSED_CASES,
                         ids=[f"{m}-{k}" for m, k, _ in REFUSED_CASES])
def test_cli_refuses_configs_that_would_change_nothing(tmp_path, mode, key, cfg):
    out = tmp_path / "o"
    r = cli(mode, "--config", write_cfg(tmp_path, cfg), "--out", str(out))
    assert r.returncode == 2, r.stdout
    assert key in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("mode,problem", [("run", "quadratic"), ("sweep", "quadratic"),
                                          ("verify-bounds", "quadratic"), ("stability", "blobs"),
                                          ("partition-report", "blobs")])
def test_resolve_refuses_jobs_below_one_in_every_mode(mode, problem):
    sweep = {"axis": "lr", "values": [0.1]} if mode == "sweep" else None
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match=f"config key 'jobs' must be >= 1, got {jobs}"):
            resolve_config({"problem": problem, "jobs": jobs, "sweep": sweep}, mode=mode)


def test_cli_diverging_run_exits_4_and_writes_no_report(tmp_path):
    cfg = {"problem": "quadratic", "lr": 5, "cond": 10, "rounds": 40, "checkpoint_every": 5}
    out = tmp_path / "o"
    r = cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(out))
    assert r.returncode == 4, r.stdout
    assert "run diverged at round 20" in r.stderr and "Traceback" not in r.stderr
    assert not (out / "rounds.csv").exists() and not (out / "summary.json").exists()
    # the checkpoint of the last finite round stays
    assert json.loads((out / "checkpoint.json").read_text())["round"] == 20


def test_cli_stability_echoes_default_betas(tmp_path):
    out = tmp_path / "o"
    r = cli("stability", "--config", write_cfg(tmp_path, {**_BLOBS_SMALL, "stability_seeds": 1}),
            "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "stability_report.json").read_text())
    assert report["config"]["betas"] == [0.0, 0.05, 0.1]
    assert [row["beta"] for row in report["summary"]["per_beta"]] == [0.0, 0.05, 0.1]


def test_jobs_zero_refused_from_every_source(monkeypatch):
    monkeypatch.delenv("FEDRELAX_JOBS", raising=False)
    with pytest.raises(ConfigError, match="jobs must be >= 1, got 0"):
        _effective_jobs({"jobs": 0}, None)
    with pytest.raises(ConfigError, match="jobs must be >= 1, got 0"):
        _effective_jobs({"jobs": 2}, 0)
    monkeypatch.setenv("FEDRELAX_JOBS", "0")
    with pytest.raises(ConfigError, match="jobs must be >= 1, got 0"):
        _effective_jobs({"jobs": 2}, None)


def test_cli_partition_report(tmp_path):
    cfg = {"problem": "blobs", "n_clients": 5, "n_samples": 300, "n_features": 3,
           "concentration": 0.5, "n_test": 0}
    out = str(tmp_path / "part")
    r = cli("partition-report", "--config", write_cfg(tmp_path, cfg), "--out", out)
    assert r.returncode == 0, r.stderr
    rep = json.loads(open(os.path.join(out, "partition_report.json")).read())
    assert rep["n_clients"] == 5
    assert sum(rep["sizes"]) == 300
    assert rep["concentration"] == 0.5
    assert "mean TV" in r.stdout
    r2 = cli("partition-report", "--config",
             write_cfg(tmp_path, {"problem": "quadratic"}, "q.json"),
             "--out", str(tmp_path / "o"))
    assert r2.returncode == 2


def test_cli_sweep_serial_and_parallel_identical(tmp_path):
    cfg = {
        "problem": "quadratic", "n_clients": 4, "dim": 3, "rounds": 10,
        "local_iters": 3, "lr": 0.05,
        "sweep": {"axis": "beta", "values": [0.0, 0.1], "seeds": [0, 1]},
        "strategy": "fedinit",
    }
    cfg_path = write_cfg(tmp_path, cfg)
    out1, out2 = str(tmp_path / "j1"), str(tmp_path / "j2")
    r1 = cli("sweep", "--config", cfg_path, "--out", out1, "--jobs", "1")
    assert r1.returncode == 0, r1.stderr
    assert "4 runs (2 x 2)" in r1.stdout
    r2 = cli("sweep", "--config", cfg_path, "--out", out2, "--jobs", "2")
    assert r2.returncode == 0, r2.stderr
    csv1 = open(os.path.join(out1, "sweep.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "sweep.csv"), "rb").read()
    assert csv1 == csv2
    lines = csv1.decode().splitlines()
    assert lines[0].startswith("# schema=1 config_hash=")
    assert lines[1].split(",")[0] == "axis"
    assert len(lines) == 2 + 4 + 4  # header block + runs + mean/std per value
    j = json.loads(open(os.path.join(out1, "sweep.json")).read())
    assert len(j["rows"]) == 4 and len(j["aggregates"]) == 4
    assert {row["seed"] for row in j["aggregates"]} == {"mean", "std"}


def test_cli_sweep_requires_block(tmp_path):
    r = cli("sweep", "--config", write_cfg(tmp_path, {"problem": "quadratic"}),
            "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "sweep" in r.stderr


FLAG_HOMES = {"--resume": ("run",), "--jobs": ("sweep",),
              "--allow-negative-beta": ("run", "sweep", "verify-bounds")}


def test_cli_flags_registered_only_where_honored(tmp_path, capsys):
    parser = build_parser()
    accepted = 0
    for flag, homes in FLAG_HOMES.items():
        for sub in ("run", "sweep", "verify-bounds", "stability", "partition-report"):
            argv = [sub, flag] + (["2"] if flag == "--jobs" else [])
            if sub in homes:
                parser.parse_args(argv)
                accepted += 1
            else:
                with pytest.raises(SystemExit) as e:
                    parser.parse_args(argv)
                assert e.value.code == 2
    assert accepted == 5
    cfg = {"problem": "quadratic", "sweep": {"axis": "lr", "values": [0.1]}}
    r = cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o"), "--resume")
    assert r.returncode == 2
    assert "unrecognized arguments: --resume" in r.stderr
    assert not (tmp_path / "o").exists()


def test_effective_out_and_jobs_helpers():
    cfg = {"out": "from-cfg", "jobs": 3}
    assert _effective_out(cfg, "cli-dir", "x") == "cli-dir"
    assert _effective_out({"out": None, "jobs": None}, None, "zz").endswith("zz")
    os.environ["FEDRELAX_JOBS"] = "5"
    try:
        assert _effective_jobs(cfg, None) == 5
        assert _effective_jobs(cfg, 2) == 2
    finally:
        del os.environ["FEDRELAX_JOBS"]
    assert _effective_jobs(cfg, None) == 3
    with pytest.raises(ConfigError, match="jobs"):
        _effective_jobs(cfg, -1)


def test_main_in_process_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.skipif(shutil.which("fedrelax") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    r = subprocess.run(["fedrelax", "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    for sub in ("run", "sweep", "verify-bounds", "stability", "partition-report"):
        assert sub in r.stdout
