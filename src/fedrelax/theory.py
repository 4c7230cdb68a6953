"""Numerical verification of the convergence and divergence guarantees.

The four checkable statements (selected by number on the CLI):

1. smooth non-convex rate: avg_t ||grad f(w^t)||^2 <= D/(lam eta K T)
   + eta kappa L sigma/(lam N) - 13 beta^2 kappa_beta L^2 Delta_T/(lam eta N K T)
2. smooth PL rate: f(w^T)-f* <= exp(-lam mu eta K T) D + eta kappa L sigma/(lam mu N)
   + composite tail (the averaged-divergence guarantee substituted explicitly)
3. interpolation non-convex rate: avg grad^2 <= D/(zeta eta K T)
   - 2 gamma_beta beta^2 L Delta_T/(zeta eta K T)
4. interpolation PL rate: f(w^T)-f* <= exp(-zeta mu eta K T) D + R_beta eta^2 K^2 L D

lam and zeta are only pinned to (0, 1/2) by the statements, so every check
scans the grid {0.05, ..., 0.45} and reports each point plus the most
favorable one.  check_assumptions holds every refusal; it reads no trace,
so the CLI refuses a run before its first round.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace as dc_replace
from functools import reduce

import numpy as np

from .core import HyperParams, RunResult, run_experiment
from .problems import QuadraticProblem
from .quadratics import QuadraticFamily, block_grad
from .strategies import StrategySpec

LAMBDA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 10))
PROBES = 200  # probe points of estimate_problem_constants

THEOREM_LABELS = {
    1: "smooth-nonconvex-rate",
    2: "smooth-pl-rate",
    3: "interpolation-nonconvex-rate",
    4: "interpolation-pl-rate",
}


class TheoryAssumptionError(ValueError):
    """A check refused to run because the trace violates an assumption."""


@dataclass(frozen=True)
class BoundConstants:
    """The closed-form constants the guarantees are stated with.

    kappa_beta = 1/(1 - 141 beta^2)          (needs 141 beta^2 < 1)
    kappa      = 8 + 78 beta^2 kappa_beta^2
    gamma_beta = 1/(1 - 39 beta^2)           (needs 39 beta^2 < 1)
    c_beta     = kappa_beta/(1 - 48 beta^2 kappa_beta)   (needs the denominator > 0)
    j_beta     = c_beta (132 + 804 kappa/(lam N))        (needs lam and N)
    r_beta     = 228 mu gamma_beta beta^2 b^2 (a = 1: full-batch quadratic gradients
                 are exact); the appendix variant squares gamma_beta

    A constant whose condition fails, or that is built from one, is None.
    """

    kappa_beta: float | None
    kappa: float | None
    gamma_beta: float | None
    c_beta: float | None
    j_beta: float | None
    r_beta: float | None
    r_beta_appendix: float | None


def compute_constants(
    beta: float,
    *,
    lam: float | None = None,
    n_active: int | None = None,
    mu: float | None = None,
    b: float = 1.0,
) -> BoundConstants:
    """Evaluate the bound constants at a given beta; undefined ones are None."""
    b2 = beta * beta
    kappa_beta = kappa = gamma_beta = c_beta = j_beta = r_beta = r_beta_appendix = None
    if 141.0 * b2 < 1.0:
        kappa_beta = 1.0 / (1.0 - 141.0 * b2)
        kappa = 8.0 + 78.0 * b2 * kappa_beta * kappa_beta
        c_denom = 1.0 - 48.0 * b2 * kappa_beta
        if c_denom > 0.0:
            c_beta = kappa_beta / c_denom
    if 39.0 * b2 < 1.0:
        gamma_beta = 1.0 / (1.0 - 39.0 * b2)
    if lam is not None and n_active is not None:
        if not 0.0 < lam < 0.5:
            raise ValueError(f"lam must lie in (0, 1/2), got {lam}")
        if c_beta is not None:
            j_beta = c_beta * (132.0 + 804.0 * kappa / (lam * n_active))
    if mu is not None and gamma_beta is not None:
        r_beta = 228.0 * mu * gamma_beta * b2 * b * b
        r_beta_appendix = 228.0 * mu * gamma_beta * gamma_beta * b2 * b * b
    return BoundConstants(kappa_beta, kappa, gamma_beta, c_beta, j_beta, r_beta, r_beta_appendix)


def estimate_problem_constants(problem: QuadraticProblem) -> dict:
    """Problem-side constants for a quadratic problem.

    L is the local smoothness max_i lambda_max(A_i); mu the PL modulus of the
    mean curvature; sigma_l = grad_noise sqrt(d), exact.  The heterogeneity
    level sigma_g is exact when all clients share a curvature matrix and
    otherwise the max of ||grad f_i - grad f|| over PROBES points w* + s u, u
    standard normal, log s uniform on [log 1e-3, 0] (flagged as an estimate).
    The interpolation ratio b is an empirical sup over the same probes.
    """
    family = problem.family
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0x7E0,)))
    sup_gap = 0.0
    sup_ratio = 1.0
    for _ in range(PROBES):
        scale = math.exp(rng.uniform(math.log(1e-3), 0.0))
        w = family.w_star + scale * rng.normal(size=family.dim)
        g = family.global_grad(w)
        g_norm = float(np.linalg.norm(g))
        # every client's gradient at once; sqrt(vecdot) is each row's 1-D norm bit
        # for bit (norm(axis=1) is not), and a max is exact in any order
        grads = block_grad(family.a_matrices, family.b_vectors, w)
        gaps = grads - g
        sup_gap = max(sup_gap, float(np.sqrt(np.vecdot(gaps, gaps)).max()))
        if g_norm > 1e-12:
            sup_ratio = max(sup_ratio, float((np.sqrt(np.vecdot(grads, grads)) / g_norm).max()))
    sigma_g = family.heterogeneity_bound()
    return {
        "L": family.smoothness,
        "mu": family.pl_constant,
        "sigma_l": problem.grad_noise * math.sqrt(family.dim),  # E||noise|| scale
        "sigma_g": sup_gap if sigma_g is None else sigma_g,
        "sigma_g_exact": sigma_g is not None,
        "b": sup_ratio,
    }


def check_assumptions(theorem: int, problem, spec: StrategySpec, hp: HyperParams) -> None:
    """Refuse a run the theorem cannot be checked on: invalid hyperparameters, a
    problem without exact constants, K not uniform or below 2, more than one
    learning rate, noisy gradients under theorems 3-4, eta above the cap or too
    small for a finite bound, or a beta at which a constant the theorem reads
    is undefined. Theorem 1 reads kappa_beta (141 beta^2 < 1), theorem 2 also
    c_beta (48 beta^2 kappa_beta < 1), and theorems 3-4 read gamma_beta
    (39 beta^2 < 1).
    """
    hp.validate(problem.n_clients)
    if theorem not in THEOREM_LABELS:
        raise ValueError(f"theorem must be one of {sorted(THEOREM_LABELS)}, got {theorem}")
    if not isinstance(problem, QuadraticProblem):
        raise TheoryAssumptionError(
            "bound verification needs a quadratic family (exact constants); "
            f"got {type(problem).__name__}"
        )
    k = hp.k_local
    if k is None:
        raise TheoryAssumptionError("bound verification needs a uniform local step count (local_iters)")
    if k < 2:
        raise TheoryAssumptionError(f"the guarantees assume K > 1 local steps, got K={k}")
    lrs = {hp.lr_at(t) for t in range(hp.rounds)}
    if len(lrs) != 1:
        raise TheoryAssumptionError(
            "the guarantees assume a constant learning rate; this trace used "
            f"{len(lrs)} distinct values (schedule {hp.lr_schedule!r}, decay {hp.lr_decay})"
        )
    beta = spec.beta
    consts = compute_constants(beta)
    factor, base = (141, consts.kappa_beta) if theorem in (1, 2) else (39, consts.gamma_beta)
    if base is None:
        raise TheoryAssumptionError(f"beta={beta}: {factor}*beta^2 >= 1, constants undefined")
    if theorem == 2 and consts.c_beta is None:
        raise TheoryAssumptionError(
            f"beta={beta} outside the contraction region: 48*beta^2*kappa_beta = "
            f"{48.0 * beta * beta * consts.kappa_beta:.6g} >= 1"
        )
    if theorem in (3, 4) and problem.grad_noise > 0.0:
        raise TheoryAssumptionError(
            "the interpolation-regime guarantees assume exact local gradients; "
            "this trace used stochastic batches"
        )
    big_l = problem.family.smoothness
    if theorem in (1, 2):
        eta_cap, rule = 1.0 / (hp.n_active * k * big_l), "1/(NKL)"
    else:  # a = 1: full-batch quadratic gradients are exact
        eta_cap, rule = 1.0 / (k * big_l), "1/(aKL)"
    if hp.eta > eta_cap * (1.0 + 1e-12):  # lr_at(0) == eta, the one learning rate
        raise TheoryAssumptionError(f"eta={hp.eta} violates the admissibility eta <= {rule} = {eta_cap:.6g}")
    span = LAMBDA_GRID[0] * hp.eta * k * hp.rounds  # the smallest divisor of the bound's terms
    if span == 0.0 or math.isinf(1.0 / span):
        raise TheoryAssumptionError(f"lr={hp.eta} is too small: the bound divides by lam*eta*K*T = "
                                    f"{span:.6g} at lam={LAMBDA_GRID[0]}, which has no finite reciprocal")


def verify_convergence_bound(
    theorem: int,
    result: RunResult,
    problem: QuadraticProblem,
) -> dict:
    """Check a guarantee against a finished run; returns the per-grid report."""
    spec: StrategySpec = result.sim.spec
    hp = result.sim.hp
    check_assumptions(theorem, problem, spec, hp)
    eta, k = hp.eta, hp.k_local  # check_assumptions admits only runs at eta throughout
    beta = spec.beta
    t_rounds = len(result.records)
    n = hp.n_active
    c_clients = problem.n_clients

    # D comes from the trace itself: record 0 evaluates f at w^0
    f0 = result.records[0].train_loss
    f_star = problem.f_star
    d_gap = f0 - f_star
    est = estimate_problem_constants(problem)
    big_l, mu, sigma_l, sigma_g = est["L"], est["mu"], est["sigma_l"], est["sigma_g"]
    notes = []
    if not est["sigma_g_exact"]:
        notes.append("sigma_g estimated from probe points (heterogeneous curvature)")
    b_ratio = est["b"]

    if n == c_clients:
        notes.append("full participation: the statements are posed for 1 < N < C")
    sigma = sigma_l * sigma_l + 6.0 * k * sigma_g * sigma_g
    delta_final = result.summary["final"]["divergence"]
    avg_divergence = result.summary["avg_divergence"]
    if theorem in (1, 3):
        lhs = float(np.mean([r.grad_norm_sq for r in result.records]))
    else:
        lhs = result.summary["final"]["train_loss"] - f_star

    grid_report = []
    for lam in LAMBDA_GRID:
        consts = compute_constants(beta, lam=lam, n_active=n, mu=mu, b=b_ratio)
        ekt = eta * k * t_rounds
        if theorem == 1:
            neg = 13.0 * beta * beta * consts.kappa_beta * big_l * big_l * delta_final / (lam * eta * n * k * t_rounds)
            terms = {
                "optimality_gap": d_gap / (lam * ekt),
                "variance": eta * consts.kappa * big_l * sigma / (lam * n),
                "divergence_term": -neg,
            }
        elif theorem == 2:
            tail_avg_div = (
                eta * 804.0 * consts.c_beta * k * d_gap / (lam * t_rounds)
                + eta * eta * consts.j_beta * k * sigma
            )
            composite = (13.0 * beta * beta * consts.kappa_beta * lam * mu * eta * k * t_rounds * big_l / n) * tail_avg_div
            terms = {
                "contraction": math.exp(-lam * mu * ekt) * d_gap,
                "variance": eta * consts.kappa * big_l * sigma / (lam * mu * n),
                "composite_divergence_tail": composite,
            }
        elif theorem == 3:
            terms = {
                "optimality_gap": d_gap / (lam * ekt),
                "divergence_term": -2.0 * consts.gamma_beta * beta * beta * big_l * delta_final / (lam * ekt),
            }
        else:
            terms = {
                "contraction": math.exp(-lam * mu * ekt) * d_gap,
                "relaxation_bias": consts.r_beta * eta * eta * k * k * big_l * d_gap,
            }
            terms["relaxation_bias_appendix_variant"] = (
                consts.r_beta_appendix * eta * eta * k * k * big_l * d_gap
            )
        # folded left to right: sum() compensates from Python 3.12 on
        rhs = reduce(operator.add, (v for kname, v in terms.items()
                                    if kname != "relaxation_bias_appendix_variant"), 0.0)
        entry = {
            "lam": lam,
            "rhs": rhs,
            "holds": bool(lhs <= rhs),
            "margin": rhs - lhs,
            "terms": terms,
        }
        if theorem == 4:
            rhs_app = terms["contraction"] + terms["relaxation_bias_appendix_variant"]
            entry["rhs_appendix_variant"] = rhs_app
            entry["holds_appendix_variant"] = bool(lhs <= rhs_app)
        grid_report.append(entry)

    best = max(grid_report, key=lambda e: e["rhs"])
    return {
        "theorem": theorem,
        "label": THEOREM_LABELS[theorem],
        "lhs": lhs,
        "holds_at_most_favorable": best["holds"],
        "most_favorable": best,
        "grid": grid_report,
        "D": d_gap,
        "L": big_l,
        "mu": mu,
        "sigma_l": sigma_l,
        "sigma_g": sigma_g,
        "sigma": sigma,
        "a": 1.0,  # full-batch quadratic gradients are exact
        "b": b_ratio,
        "beta": beta,
        "eta": eta,
        "K": k,
        "T": t_rounds,
        "N": n,
        "C": c_clients,
        "final_divergence": delta_final,
        "avg_divergence": avg_divergence,
        "notes": notes,
    }


def divergence_decay_check(
    problem_factory,
    spec: StrategySpec,
    hp: HyperParams,
    *,
    etas=(0.1, 0.05),
    t_values=(120, 240),
    seeds=range(10),
) -> dict:
    """Measure how the round-averaged divergence scales with eta and with T.

    The variance-dominated prediction is avg divergence ~ eta^2 (runs start at
    the optimum so the transient term is negligible); the full-batch
    common-optimum prediction is avg divergence ~ 1/T at fixed eta.
    problem_factory(seed) must return a fresh problem per seed.
    """
    eta_avgs = {e: [] for e in etas}
    t_avgs = {t: [] for t in t_values}
    for seed in seeds:
        problem = problem_factory(seed)
        for e in etas:
            res = run_experiment(problem, spec, dc_replace(hp, eta=e), seed, w0=problem.w_star)
            eta_avgs[e].append(res.summary["avg_divergence"])
        for t in t_values:
            res = run_experiment(problem, spec, dc_replace(hp, rounds=t), seed)
            t_avgs[t].append(res.summary["avg_divergence"])
    eta_means = {e: float(np.mean(v)) for e, v in eta_avgs.items()}
    t_means = {t: float(np.mean(v)) for t, v in t_avgs.items()}
    etas_sorted = sorted(eta_means, reverse=True)
    ts_sorted = sorted(t_means)
    return {
        "eta": {
            "means": eta_means,
            # ratio when eta halves; the variance regime predicts 4
            "ratios": [
                eta_means[a] / eta_means[b]
                for a, b in zip(etas_sorted, etas_sorted[1:])
            ],
        },
        "rounds": {
            "means": t_means,
            # ratio when T doubles; the transient regime predicts 2
            "ratios": [
                t_means[a] / t_means[b]
                for a, b in zip(ts_sorted, ts_sorted[1:])
            ],
        },
    }
