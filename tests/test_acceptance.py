"""End-to-end acceptance gate: eleven checks, one printed verdict line each.

Each test prints ``[PASS] criterion N: <name>`` (or ``[FAIL] ...``) before
asserting, so a plain ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist.  Fixtures are deliberately small so the whole gate runs in well
under the per-criterion runtime budgets on a laptop.
"""
import math

import numpy as np

from fedrelax.artifacts import load_checkpoint, restore_simulation, save_checkpoint
from fedrelax.core import HyperParams, Simulation, run_experiment
from fedrelax.datasets import dirichlet_partition, make_blobs, shard_dataset
from fedrelax.metrics import comm_storage_accounting, divergence, rounds_csv_text
from fedrelax.models import (
    Batch,
    LinearRegression,
    LogisticRegression,
    MLPClassifier,
    QuadraticModel,
    finite_diff_grad,
)
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import make_quadratic_family
from fedrelax.stability import make_paired_blob_problems, paired_run, stability_experiment, summarize_traces
from fedrelax.strategies import PAYLOADS, compose_ri, make_strategy
from fedrelax.theory import divergence_decay_check, verify_convergence_bound


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num}: {name}"
    if detail:
        line += f"  -- {detail}"
    print(line)
    assert ok, line


def _records_equal(a, b) -> bool:
    return [r.to_dict() for r in a] == [r.to_dict() for r in b]


# -- 1: beta=0 degrades to plain averaging, bitwise ------------------------------

def test_criterion_01_beta_zero_matches_fedavg_exactly():
    hp = HyperParams(eta=0.05, rounds=20, n_active=5, k_local=5)
    quad = QuadraticProblem(make_quadratic_family(10, 6, spread=1.0, cond=2.0, seed=11))
    ok = True
    for prob, hp_run in (
        (quad, hp),
        (_logistic_problem(seed=11), HyperParams(eta=0.2, rounds=20, n_active=5,
                                                 k_local=5, batch_size=16)),
    ):
        a = run_experiment(prob, make_strategy("fedinit", beta=0.0), hp_run, seed=0)
        b = run_experiment(prob, make_strategy("fedavg"), hp_run, seed=0)
        ok = ok and np.array_equal(a.final_global, b.final_global)
        ok = ok and np.array_equal(a.sim.last_local, b.sim.last_local)
        ok = ok and _records_equal(a.records, b.records)
    _report(1, "beta=0 trajectory identical to plain averaging", ok)


def _logistic_problem(seed: int) -> DatasetProblem:
    train, test = make_blobs(400, 5, 2, seed=seed, n_test=80)
    plan = dirichlet_partition(train.y, 10, 1.0, seed=seed)
    return DatasetProblem(LogisticRegression(5), shard_dataset(train, plan), test)


# -- 2: analytic gradients match central finite differences ----------------------

def _random_case(kind: str, rng):
    if kind == "quadratic":
        m = rng.normal(size=(4, 4))
        model = QuadraticModel(m @ m.T + 0.5 * np.eye(4), rng.normal(size=4))
        batch = None
    elif kind == "linear-regression":
        model = LinearRegression(5)
        batch = Batch(rng.normal(size=(8, 5)), rng.normal(size=8))
    elif kind == "logistic-regression":
        model = LogisticRegression(5)
        batch = Batch(rng.normal(size=(8, 5)), rng.integers(2, size=8))
    else:
        model = MLPClassifier(4, 3, 3)
        batch = Batch(rng.normal(size=(6, 4)), rng.integers(3, size=6))
    w = 0.5 * rng.normal(size=model.dim)
    return model, w, batch


def test_criterion_02_gradients_match_finite_differences():
    kinds = ("quadratic", "linear-regression", "logistic-regression", "mlp")
    worst = {k: 0.0 for k in kinds}
    for kind in kinds:
        rng = np.random.default_rng(hash(kind) % (2**32))
        for _ in range(100):
            model, w, batch = _random_case(kind, rng)
            g = model.grad(w, batch)
            fd = finite_diff_grad(model, w, batch, eps=1e-6)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            worst[kind] = max(worst[kind], rel)
    ok = all(v <= 1e-5 for v in worst.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    _report(2, "analytic vs finite-difference gradients (rel <= 1e-5)", ok, detail)


# -- 3: divergence equals an independent brute-force sum -------------------------

def _brute_divergence(global_w, last_locals) -> float:
    total = 0.0
    for row in last_locals:
        s = 0.0
        for a, g in zip(row, global_w):
            d = float(a) - float(g)
            s += d * d
        total += s
    return total / len(last_locals)


def test_criterion_03_divergence_matches_brute_force():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 11))
        d = int(rng.integers(1, 11))
        g = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
        locals_ = g + rng.normal(size=(c, d))
        worst = max(worst, abs(divergence(g, locals_) - _brute_divergence(g, locals_)))
    _report(3, "divergence equals brute-force oracle (abs <= 1e-12)",
            worst <= 1e-12, f"max abs err {worst:.2e}")


# -- 4: communication / storage accounting, predicted and measured ---------------

def test_criterion_04_comm_storage_accounting_exact():
    n_clients, n_active, dim = 6, 4, 100
    expected = {  # name -> (comm multiple of N*d, storage multiple of C*d)
        "fedavg": (1, 1),
        "fedadam": (1, 2),
        "fedsam": (1, 2),
        "scaffold": (2, 2),
        "feddyn": (1, 2),
        "fedcm": (2, 2),
        "fedinit": (1, 1),
    }
    prob = QuadraticProblem(make_quadratic_family(n_clients, dim, spread=1.0, cond=2.0, seed=4))
    hp = HyperParams(eta=0.01, rounds=3, n_active=n_active, k_local=2)
    ok = True
    for name, (comm_mult, store_mult) in expected.items():
        spec = make_strategy(name)
        acc = comm_storage_accounting(spec, n_clients, n_active, dim)
        ok = ok and acc.comm_floats == comm_mult * n_active * dim
        ok = ok and acc.comm_ratio == float(comm_mult)
        ok = ok and acc.storage_floats == store_mult * n_clients * dim
        ok = ok and acc.storage_ratio == float(store_mult)
        down, up = PAYLOADS[spec.kind]
        ok = ok and acc.bytes_down_per_round == down * n_active * dim * 8
        ok = ok and acc.bytes_up_per_round == up * n_active * dim * 8
        res = run_experiment(prob, spec, hp, seed=0)
        for rec in res.records:
            ok = ok and rec.bytes_down == acc.bytes_down_per_round
            ok = ok and rec.bytes_up == acc.bytes_up_per_round
    _report(4, "traffic/storage table exact, measured counters match", ok)


# -- 5: measured average gradient norm sits under the evaluated guarantee --------

def test_criterion_05_convergence_bound_holds_theorems_1_and_3():
    prob = QuadraticProblem(make_quadratic_family(10, 6, spread=0.0, cond=1.0, seed=7))
    spec = make_strategy("fedinit", beta=0.05)
    hp = HyperParams(eta=0.05, rounds=200, n_active=5, k_local=3)
    res = run_experiment(prob, spec, hp, seed=0)
    rep1 = verify_convergence_bound(1, res, prob)
    rep3 = verify_convergence_bound(3, res, prob)
    ok = bool(rep1["holds_at_most_favorable"]) and bool(rep3["holds_at_most_favorable"])
    detail = (f"T1 lhs {rep1['lhs']:.3e} <= rhs {rep1['most_favorable']['rhs']:.3e}; "
              f"T3 lhs {rep3['lhs']:.3e} <= rhs {rep3['most_favorable']['rhs']:.3e}")
    _report(5, "general + interpolation-regime guarantees hold", ok, detail)


# -- 6: linear-rate regime reaches the optimum ------------------------------------

def test_criterion_06_pl_regime_reaches_optimum():
    fam = make_quadratic_family(10, 6, spread=0.1, cond=2.0, seed=3)
    prob = QuadraticProblem(fam)
    abar = fam.a_matrices.mean(axis=0)
    eigs = np.linalg.eigvalsh(abar)
    big_l, mu = float(eigs[-1]), float(eigs[0])
    n, k, t, lam = 10, 5, 500, 0.05
    eta = min(1.0 / (n * k * big_l), math.log(n * k * t) / (lam * mu * k * t))
    hp = HyperParams(eta=eta, rounds=t, n_active=n, k_local=k)
    res = run_experiment(prob, make_strategy("fedinit", beta=0.05), hp, seed=0)
    gap = prob.global_loss(res.final_global) - prob.f_star
    _report(6, "linear-rate regime drives loss gap below 1e-6",
            gap <= 1e-6, f"gap {gap:.3e} after {t} rounds, eta {eta:.5f}")


# -- 7: relaxed initialization lowers the final divergence (sign test) -----------

def test_criterion_07_ri_reduces_divergence_sign_test():
    hp = HyperParams(eta=0.05, rounds=60, n_active=10, k_local=10)
    wins = 0
    for seed in range(10):
        fam = make_quadratic_family(20, 8, spread=1.0, cond=2.0, seed=100 + seed)
        prob = QuadraticProblem(fam, grad_noise=0.2)
        base = run_experiment(prob, make_strategy("fedavg"), hp, seed=seed)
        ri = run_experiment(prob, make_strategy("fedinit", beta=0.1), hp, seed=seed)
        if ri.records[-1].divergence < base.records[-1].divergence:
            wins += 1
    _report(7, "relaxed init lowers final divergence in >= 8/10 seeds",
            wins >= 8, f"{wins}/10 wins")


# -- 8: divergence scaling with eta and with T ------------------------------------

def test_criterion_08_divergence_decay_scaling():
    spec = make_strategy("fedinit", beta=0.05)
    hp = HyperParams(eta=0.1, rounds=120, n_active=5, k_local=5)

    def noisy(seed):
        fam = make_quadratic_family(10, 6, spread=0.0, cond=1.0, seed=200 + seed)
        return QuadraticProblem(fam, grad_noise=0.3)

    def clean(seed):
        return QuadraticProblem(make_quadratic_family(10, 6, spread=0.0, cond=4.0, seed=300 + seed))

    noisy_rep = divergence_decay_check(noisy, spec, hp, etas=(0.05, 0.025),
                                       t_values=(10,), seeds=range(10))
    clean_rep = divergence_decay_check(clean, spec, hp, etas=(0.1,),
                                       t_values=(120, 240), seeds=range(10))
    eta_ratio = noisy_rep["eta"]["ratios"][0]
    t_ratio = clean_rep["rounds"]["ratios"][0]
    ok = (4.0 / 1.5 <= eta_ratio <= 4.0 * 1.5) and (2.0 / 1.5 <= t_ratio <= 2.0 * 1.5)
    _report(8, "halving eta ~ /4, doubling T ~ /2 (factor 1.5)", ok,
            f"eta ratio {eta_ratio:.3f}, T ratio {t_ratio:.3f}")


# -- 9: paired-run stability trend in beta ----------------------------------------

def _stability_pair(seed: int):
    return make_paired_blob_problems(
        n_clients=3, n_samples=300, n_features=5, n_classes=2,
        perturb=(0, 0), separation=2.0, concentration=0.2, n_test=50, seed=seed,
    )


def test_criterion_09_stability_trend_and_zero_perturbation_control():
    hp = HyperParams(eta=1.5, rounds=80, n_active=3, k_local=10, lr_schedule="inverse_t")
    traces = stability_experiment(_stability_pair, make_strategy("fedavg"), hp,
                                  betas=[0.0, 0.05, 0.1], seeds=range(20))
    summary = summarize_traces(traces)
    means = [row["mean_final_delta"] for row in summary["per_beta"]]

    prob_a, _, _ = _stability_pair(0)
    control_hp = HyperParams(eta=1.5, rounds=10, n_active=3, k_local=10, lr_schedule="inverse_t")
    control = paired_run(prob_a, prob_a, compose_ri(make_strategy("fedavg"), 0.1),
                         control_hp, seed=0)
    control_ok = all(d == 0.0 for d in control.deltas) and control.t0 is None
    ok = bool(summary["monotone_nonincreasing"]) and control_ok
    _report(9, "mean final delta non-increasing in beta; zero-perturb delta == 0", ok,
            "deltas " + ", ".join(f"{m:.6f}" for m in means))


# -- 10: scaled accuracy ordering on a non-IID classification task ---------------

def test_criterion_10_accuracy_ordering():
    hp = HyperParams(eta=0.1, rounds=100, n_active=10, k_local=5,
                     batch_size=32, lr_decay=0.998)
    configs = {
        "fedavg": make_strategy("fedavg"),
        "fedinit05": make_strategy("fedinit", beta=0.05),
        "fedinit10": make_strategy("fedinit", beta=0.1),
        "scaffold": make_strategy("scaffold"),
        "scaffold_ri": compose_ri(make_strategy("scaffold"), 0.05),
    }
    accs = {k: [] for k in configs}
    for seed in range(5):
        train, test = make_blobs(1000, 10, 10, separation=1.0, cluster_std=1.5,
                                 seed=seed, n_test=400)
        plan = dirichlet_partition(train.y, 20, 0.1, seed=seed)
        shards = shard_dataset(train, plan)
        for key, spec in configs.items():
            prob = DatasetProblem(MLPClassifier(10, 16, 10), shards, test)
            res = run_experiment(prob, spec, hp, seed=seed)
            accs[key].append(res.summary["smoothed_max_test_acc"]["value"])
    means = {k: float(np.mean(v)) for k, v in accs.items()}
    best_ri = max(means["fedinit05"], means["fedinit10"])
    tuned_ok = best_ri >= means["fedavg"]
    wins = sum(r >= s for r, s in zip(accs["scaffold_ri"], accs["scaffold"]))
    ok = tuned_ok and wins >= 3
    detail = (f"fedavg {means['fedavg']:.4f}, best tuned RI {best_ri:.4f}, "
              f"scaffold+RI wins {wins}/5")
    _report(10, "tuned RI >= plain averaging; RI-composed scaffold wins >= 3/5", ok, detail)


# -- 11: determinism and checkpoint resume ----------------------------------------

def test_criterion_11_determinism_and_resume(tmp_path):
    hp = HyperParams(eta=0.2, rounds=8, n_active=3, k_local=4, batch_size=16)
    spec = make_strategy("scaffold", beta=0.1)
    cfg_hash = "f" * 64

    def fresh():
        return _logistic_problem(seed=21)

    ref = run_experiment(fresh(), spec, hp, seed=9)
    rerun = run_experiment(fresh(), spec, hp, seed=9)
    determinism_ok = (
        rounds_csv_text(ref.records, cfg_hash) == rounds_csv_text(rerun.records, cfg_hash)
        and np.array_equal(ref.final_global, rerun.final_global)
    )

    interrupted = Simulation(fresh(), spec, hp, seed=9)
    for _ in range(5):
        interrupted.step()
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, interrupted, config_hash=cfg_hash)
    resumed = restore_simulation(fresh(), spec, hp, load_checkpoint(ckpt),
                                 expect_config_hash=cfg_hash)
    while resumed.server.round < hp.rounds:
        resumed.step()
    resume_ok = (
        np.array_equal(resumed.server.global_params, ref.final_global)
        and rounds_csv_text(resumed.records, cfg_hash) == rounds_csv_text(ref.records, cfg_hash)
    )
    _report(11, "rerun and checkpoint-resume byte-identical",
            determinism_ok and resume_ok)
