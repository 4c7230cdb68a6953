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
favorable one.  Checks refuse to run when the trace violates an assumption
(non-constant learning rate, inadmissible eta, stochastic gradients where
exact noise levels are unavailable, beta outside the contraction region).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace as dc_replace

import numpy as np

from .core import HyperParams, RunResult, run_experiment
from .problems import QuadraticProblem
from .quadratics import QuadraticFamily
from .strategies import StrategySpec

LAMBDA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 10))

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
    r_beta     = 228 mu gamma_beta beta^2 a^2 b^2; the appendix variant squares gamma_beta
    """

    beta: float
    kappa_beta: float
    kappa: float
    gamma_beta: float
    c_beta: float
    lam: float | None = None
    n_active: int | None = None
    j_beta: float | None = None
    mu: float | None = None
    a: float | None = None
    b: float | None = None
    r_beta: float | None = None
    r_beta_appendix: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def compute_constants(
    beta: float,
    *,
    lam: float | None = None,
    n_active: int | None = None,
    mu: float | None = None,
    a: float = 1.0,
    b: float = 1.0,
) -> BoundConstants:
    """Evaluate the bound constants at a given beta; raises outside the valid region."""
    b2 = beta * beta
    if 141.0 * b2 >= 1.0:
        raise ValueError(
            f"beta={beta} outside the contraction region: 141*beta^2 = {141.0 * b2:.6g} >= 1"
        )
    kappa_beta = 1.0 / (1.0 - 141.0 * b2)
    kappa = 8.0 + 78.0 * b2 * kappa_beta * kappa_beta
    gamma_beta = 1.0 / (1.0 - 39.0 * b2)
    c_denom = 1.0 - 48.0 * b2 * kappa_beta
    if c_denom <= 0.0:
        raise ValueError(
            f"beta={beta} outside the contraction region: 48*beta^2*kappa_beta = "
            f"{48.0 * b2 * kappa_beta:.6g} >= 1"
        )
    c_beta = kappa_beta / c_denom
    j_beta = None
    if lam is not None and n_active is not None:
        if not 0.0 < lam < 0.5:
            raise ValueError(f"lam must lie in (0, 1/2), got {lam}")
        j_beta = c_beta * (132.0 + 804.0 * kappa / (lam * n_active))
    r_beta = r_beta_appendix = None
    if mu is not None:
        r_beta = 228.0 * mu * gamma_beta * b2 * a * a * b * b
        r_beta_appendix = 228.0 * mu * gamma_beta * gamma_beta * b2 * a * a * b * b
    return BoundConstants(
        beta=beta, kappa_beta=kappa_beta, kappa=kappa, gamma_beta=gamma_beta,
        c_beta=c_beta, lam=lam, n_active=n_active, j_beta=j_beta,
        mu=mu, a=a, b=b, r_beta=r_beta, r_beta_appendix=r_beta_appendix,
    )


def estimate_problem_constants(
    family: QuadraticFamily,
    w0: np.ndarray,
    *,
    grad_noise: float = 0.0,
    probe_budget: int = 1000,
) -> dict:
    """Problem-side constants for a quadratic family.

    L is the local smoothness max_i lambda_max(A_i); mu the PL modulus of the
    mean curvature; D = f(w0) - f(w*) exactly.  The heterogeneity level sigma_g
    is exact when all clients share a curvature matrix and otherwise the max of
    ||grad f_i - grad f|| over probe points (flagged as an estimate).  The
    interpolation ratios a and b are empirical sups over the same probes.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0x7E0,)))
    w_star = family.w_star
    sigma_g = family.heterogeneity_bound()
    out = {
        "L": family.smoothness,
        "mu": family.pl_constant,
        "D": family.global_loss(np.asarray(w0, dtype=np.float64)) - family.f_star,
        "f_star": family.f_star,
        "sigma_l": float(grad_noise) * math.sqrt(family.dim),  # E||noise|| scale, exact
        "sigma_g": sigma_g,
        "sigma_g_exact": sigma_g is not None,
    }
    radius = max(float(np.linalg.norm(np.asarray(w0) - w_star)), 1.0)
    sup_gap = 0.0
    sup_ratio = 1.0
    for _ in range(probe_budget):
        scale = radius * math.exp(rng.uniform(math.log(1e-3), 0.0))
        w = w_star + scale * rng.normal(size=family.dim)
        g = family.global_grad(w)
        g_norm = float(np.linalg.norm(g))
        for i in range(family.n_clients):
            gi = family.client_grad(i, w)
            sup_gap = max(sup_gap, float(np.linalg.norm(gi - g)))
            if g_norm > 1e-12:
                sup_ratio = max(sup_ratio, float(np.linalg.norm(gi)) / g_norm)
    if out["sigma_g"] is None:
        out["sigma_g"] = sup_gap
    out["a"] = 1.0 if grad_noise == 0.0 else None  # full-batch local gradients are exact
    out["b"] = sup_ratio
    return out


def _check_trace(result: RunResult, problem) -> tuple[float, int]:
    """Shared refusals; returns (eta, K)."""
    if not isinstance(problem, QuadraticProblem):
        raise TheoryAssumptionError(
            "bound verification needs a quadratic family (exact constants); "
            f"got {type(problem).__name__}"
        )
    hp = result.sim.hp
    if hp.k_local is None:
        raise TheoryAssumptionError("bound verification needs a uniform local step count (local_iters)")
    if hp.k_local < 2:
        raise TheoryAssumptionError(f"the guarantees assume K > 1 local steps, got K={hp.k_local}")
    lrs = {r.lr for r in result.records}
    if len(lrs) != 1:
        raise TheoryAssumptionError(
            "the guarantees assume a constant learning rate; this trace used "
            f"{len(lrs)} distinct values (schedule {hp.lr_schedule!r}, decay {hp.lr_decay})"
        )
    return lrs.pop(), hp.k_local


def verify_convergence_bound(
    theorem: int,
    result: RunResult,
    problem: QuadraticProblem,
) -> dict:
    """Check a guarantee against a finished run; returns the per-grid report."""
    if theorem not in THEOREM_LABELS:
        raise ValueError(f"theorem must be one of {sorted(THEOREM_LABELS)}, got {theorem}")
    eta, k = _check_trace(result, problem)
    spec: StrategySpec = result.sim.spec
    hp = result.sim.hp
    beta = spec.beta
    t_rounds = len(result.records)
    n = hp.n_active
    c_clients = problem.n_clients

    # D comes from the trace itself: record 0 evaluates f at w^0
    f0 = result.records[0].train_loss
    f_star = problem.f_star
    d_gap = f0 - f_star
    family = problem.family
    est = estimate_problem_constants(
        family, family.w_star, grad_noise=problem.grad_noise, probe_budget=200
    )
    big_l, mu, sigma_l, sigma_g = est["L"], est["mu"], est["sigma_l"], est["sigma_g"]
    notes = []
    if not est["sigma_g_exact"]:
        notes.append("sigma_g estimated from probe points (heterogeneous curvature)")
    stochastic = result.sim.uses_batch_randomness()

    if theorem in (1, 2):
        if 141.0 * beta * beta >= 1.0:
            raise TheoryAssumptionError(f"beta={beta}: 141*beta^2 >= 1, constants undefined")
        eta_cap = 1.0 / (n * k * big_l)
        if eta > eta_cap * (1.0 + 1e-12):
            raise TheoryAssumptionError(
                f"eta={eta} violates the admissibility eta <= 1/(NKL) = {eta_cap:.6g}"
            )
    else:
        if 39.0 * beta * beta >= 1.0:
            raise TheoryAssumptionError(f"beta={beta}: 39*beta^2 >= 1, constants undefined")
        if stochastic:
            raise TheoryAssumptionError(
                "the interpolation-regime guarantees assume exact local gradients; "
                "this trace used stochastic batches"
            )

    a_ratio = 1.0  # full-batch quadratic gradients are exact
    b_ratio = est["b"]
    if theorem in (3, 4):
        eta_cap = 1.0 / (a_ratio * k * big_l)
        if eta > eta_cap * (1.0 + 1e-12):
            raise TheoryAssumptionError(
                f"eta={eta} violates the admissibility eta <= 1/(aKL) = {eta_cap:.6g}"
            )

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
        consts = compute_constants(beta, lam=lam, n_active=n, mu=mu, a=a_ratio, b=b_ratio)
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
        rhs = sum(v for kname, v in terms.items() if kname != "relaxation_bias_appendix_variant")
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
        "a": a_ratio,
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
