"""Bound constants against exact rational oracles; guarantee checks and refusals."""
import dataclasses
import math
from dataclasses import replace as dc_replace
from fractions import Fraction

import numpy as np
import pytest

from fedrelax.core import HyperParams, run_experiment
from fedrelax.datasets import dirichlet_partition, make_blobs, shard_dataset
from fedrelax.models import LogisticRegression
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import QuadraticFamily, make_quadratic_family
from fedrelax.strategies import make_strategy
from fedrelax.theory import (
    LAMBDA_GRID,
    THEOREM_LABELS,
    TheoryAssumptionError,
    check_assumptions,
    compute_constants,
    divergence_decay_check,
    estimate_problem_constants,
    verify_convergence_bound,
)


def rational_constants(beta: Fraction):
    """Exact rational evaluation of the constant definitions (independent oracle)."""
    b2 = beta * beta
    kb = 1 / (1 - 141 * b2)
    kappa = 8 + 78 * b2 * kb * kb
    gb = 1 / (1 - 39 * b2)
    cb = kb / (1 - 48 * b2 * kb)
    return kb, kappa, gb, cb


def test_constants_match_rational_oracle():
    for beta in (Fraction(1, 20), Fraction(0), Fraction(3, 100), Fraction(7, 100)):
        kb, kappa, gb, cb = rational_constants(beta)
        got = compute_constants(float(beta))
        assert got.kappa_beta == pytest.approx(float(kb), rel=1e-12)
        assert got.kappa == pytest.approx(float(kappa), rel=1e-12)
        assert got.gamma_beta == pytest.approx(float(gb), rel=1e-12)
        assert got.c_beta == pytest.approx(float(cb), rel=1e-12)


def test_constants_beta_005_literals():
    got = compute_constants(0.05)
    assert got.kappa_beta == pytest.approx(400 / 259, rel=1e-15)
    assert got.kappa == pytest.approx(567848 / 67081, rel=1e-12)
    assert got.gamma_beta == pytest.approx(400 / 361, rel=1e-15)
    assert got.c_beta == pytest.approx(400 / 211, rel=1e-12)


def test_j_beta_and_r_beta_against_rational_oracle():
    # a = 1: the checked runs take exact full-batch gradients
    beta, lam, n, mu, b = Fraction(1, 20), Fraction(1, 10), 10, Fraction(2), Fraction(2)
    kb, kappa, gb, _cb = rational_constants(beta)
    cb = kb / (1 - 48 * beta * beta * kb)
    j = cb * (132 + 804 * kappa / (lam * n))
    r = 228 * mu * gb * beta * beta * b * b
    r_app = 228 * mu * gb * gb * beta * beta * b * b
    got = compute_constants(float(beta), lam=float(lam), n_active=n, mu=float(mu), b=float(b))
    assert got.j_beta == pytest.approx(float(j), rel=1e-12)
    assert got.r_beta == pytest.approx(float(r), rel=1e-12)
    assert got.r_beta_appendix == pytest.approx(float(r_app), rel=1e-12)


def test_constants_zero_beta_degenerate():
    got = compute_constants(0.0, mu=1.0)
    assert got.kappa_beta == 1.0
    assert got.kappa == 8.0
    assert got.gamma_beta == 1.0
    assert got.c_beta == 1.0
    assert got.r_beta == 0.0


def test_constants_even_in_beta():
    plus = compute_constants(0.05)
    minus = compute_constants(-0.05)
    assert plus.kappa_beta == minus.kappa_beta
    assert plus.c_beta == minus.c_beta


def test_constants_region_errors():
    # 141 * 0.01 = 1.41: kappa_beta and all built from it are undefined, gamma_beta is not
    got = compute_constants(0.1, lam=0.1, n_active=4, mu=1.0)
    assert (got.kappa_beta, got.kappa, got.c_beta, got.j_beta) == (None, None, None, None)
    assert got.gamma_beta == pytest.approx(1 / 0.61) and got.r_beta is not None
    for theorem in (1, 2):
        with pytest.raises(TheoryAssumptionError, match="141"):
            check_assumptions(theorem, *admissible_setup(beta=0.1))
    for theorem in (3, 4):
        check_assumptions(theorem, *admissible_setup(beta=0.1))
    # 141 b^2 < 1 but 48 b^2 kappa_beta >= 1 for b^2 in [1/189, 1/141): only c_beta is undefined
    got = compute_constants(0.075, lam=0.1, n_active=4)
    assert got.kappa_beta is not None and (got.c_beta, got.j_beta) == (None, None)
    with pytest.raises(TheoryAssumptionError, match="48"):
        check_assumptions(2, *admissible_setup(beta=0.075))
    for theorem in (1, 3, 4):
        check_assumptions(theorem, *admissible_setup(beta=0.075))
    with pytest.raises(ValueError, match="lam"):
        compute_constants(0.05, lam=0.5, n_active=10)
    with pytest.raises(ValueError, match="lam"):
        compute_constants(0.05, lam=0.0, n_active=10)


def test_constants_hold_only_the_derived_constants():
    got = compute_constants(0.05, lam=0.1, n_active=4, mu=1.0)
    assert dataclasses.astuple(got) == (got.kappa_beta, got.kappa, got.gamma_beta, got.c_beta,
                                        got.j_beta, got.r_beta, got.r_beta_appendix)
    assert got.kappa_beta == pytest.approx(400 / 259)
    assert None not in dataclasses.astuple(got)


def test_lambda_grid_shape():
    assert len(LAMBDA_GRID) == 9
    np.testing.assert_allclose(LAMBDA_GRID, np.arange(1, 10) * 0.05, atol=1e-15)
    assert all(0.0 < lam < 0.5 for lam in LAMBDA_GRID)
    assert set(THEOREM_LABELS) == {1, 2, 3, 4}


def scalar_family(b_vals, a_vals=None):
    n = len(b_vals)
    a_vals = a_vals or [1.0] * n
    a = np.array([[[v]] for v in a_vals])
    return QuadraticFamily(a, np.array([[v] for v in b_vals], dtype=float))


def test_estimate_problem_constants_shared_curvature():
    fam = scalar_family([0.0, 1.0])
    est = estimate_problem_constants(QuadraticProblem(fam))
    assert est["L"] == pytest.approx(1.0)
    assert est["mu"] == pytest.approx(1.0)
    # shared curvature: sup_i ||grad_i - grad|| = max_i |mean(b) - b_i| exactly
    assert est["sigma_g"] == pytest.approx(0.5, abs=1e-15)
    assert est["sigma_g_exact"] is True
    assert est["sigma_l"] == 0.0
    # the bound's D = f(w0) - f* comes from the trace: f(2) = 0.5 * mean(4, 1) = 1.25; f* = f(0.5) = 0.125
    assert fam.f_star == pytest.approx(0.125, abs=1e-15)
    prob, hp = QuadraticProblem(fam), HyperParams(eta=0.1, rounds=3, n_active=2, k_local=2)
    res = run_experiment(prob, make_strategy("fedinit", beta=0.05), hp, 0, w0=np.array([2.0]))
    assert verify_convergence_bound(1, res, prob)["D"] == pytest.approx(1.125, abs=1e-14)


def test_estimate_problem_constants_common_minimizer():
    fam = scalar_family([1.0, 1.0])
    est = estimate_problem_constants(QuadraticProblem(fam))
    assert est["sigma_g"] == 0.0
    assert fam.global_loss(np.array([3.0])) - fam.f_star == pytest.approx(2.0, abs=1e-14)
    assert est["b"] == pytest.approx(1.0, abs=1e-12)  # grad_i == grad everywhere


def test_estimate_problem_constants_mixed_curvature_estimates():
    fam = scalar_family([0.0, 0.0], a_vals=[1.0, 2.0])
    est = estimate_problem_constants(QuadraticProblem(fam))
    assert est["sigma_g_exact"] is False
    assert 0.0 < est["sigma_g"] < 1.0  # |A_i - mean A| * |w| <= 0.5 * probe radius
    assert est["b"] >= 1.0


def test_estimate_noise_scaling():
    fam = make_quadratic_family(3, 4, spread=1.0, cond=2.0, seed=0)
    est = estimate_problem_constants(QuadraticProblem(fam, grad_noise=0.5))
    assert est["sigma_l"] == pytest.approx(0.5 * math.sqrt(4))


def admissible_setup(beta):
    """(problem, spec, hp) with eta under both caps, so that only beta can be refused."""
    hp = HyperParams(eta=0.1, rounds=5, n_active=2, k_local=2)
    return pair_problem(), make_strategy("fedinit", beta=beta), hp


def pair_problem(grad_noise=0.0):
    return QuadraticProblem(scalar_family([0.0, 1.0]), grad_noise=grad_noise)


def run_pair(eta=0.2, rounds=30, k=2, beta=0.05, schedule="constant", noise=0.0, seed=0):
    prob = pair_problem(noise)
    spec = make_strategy("fedinit", beta=beta) if beta else make_strategy("fedavg")
    hp = HyperParams(
        eta=eta, rounds=rounds, n_active=2, k_local=k, lr_schedule=schedule
    )
    return run_experiment(prob, spec, hp, seed=seed), prob


def test_theorem_one_holds_and_report_shape():
    res, prob = run_pair()
    rep = verify_convergence_bound(1, res, prob)
    assert rep["theorem"] == 1
    assert rep["label"] == "smooth-nonconvex-rate"
    assert rep["holds_at_most_favorable"]
    assert len(rep["grid"]) == len(LAMBDA_GRID)
    assert [e["lam"] for e in rep["grid"]] == pytest.approx(list(LAMBDA_GRID))
    best = rep["most_favorable"]
    assert best["rhs"] == max(e["rhs"] for e in rep["grid"])
    for e in rep["grid"]:
        assert e["margin"] == pytest.approx(e["rhs"] - rep["lhs"], rel=1e-12)
        assert set(e["terms"]) == {"optimality_gap", "variance", "divergence_term"}
        assert e["terms"]["divergence_term"] <= 0.0
    # D recovered from the trace: f(w0) - f* with w0 ~ default init
    assert rep["D"] == pytest.approx(res.records[0].train_loss - prob.f_star)
    assert rep["sigma_g"] == pytest.approx(0.5)
    assert rep["sigma"] == pytest.approx(6 * rep["K"] * 0.25)
    assert (rep["N"], rep["C"], rep["K"], rep["T"]) == (2, 2, 2, 30)
    assert any("full participation" in n for n in rep["notes"])
    # lhs is the round-averaged squared gradient norm
    assert rep["lhs"] == pytest.approx(
        float(np.mean([r.grad_norm_sq for r in res.records]))
    )


def test_theorem_two_holds():
    res, prob = run_pair(rounds=200)
    rep = verify_convergence_bound(2, res, prob)
    assert rep["holds_at_most_favorable"]
    assert rep["lhs"] == pytest.approx(res.records[-1].train_loss - prob.f_star)
    terms = rep["most_favorable"]["terms"]
    assert set(terms) == {"contraction", "variance", "composite_divergence_tail"}


def test_theorem_three_holds():
    res, prob = run_pair(eta=0.2, rounds=100)
    rep = verify_convergence_bound(3, res, prob)
    assert rep["holds_at_most_favorable"]
    terms = rep["most_favorable"]["terms"]
    assert set(terms) == {"optimality_gap", "divergence_term"}


def test_theorem_four_holds_with_appendix_variant():
    fam = make_quadratic_family(4, 3, spread=0.0, cond=2.0, seed=2)
    prob = QuadraticProblem(fam)
    hp = HyperParams(eta=0.05, rounds=100, n_active=4, k_local=4)
    res = run_experiment(prob, make_strategy("fedinit", beta=0.05), hp, seed=0)
    rep = verify_convergence_bound(4, res, prob)
    assert rep["holds_at_most_favorable"]
    for e in rep["grid"]:
        assert "rhs_appendix_variant" in e and "holds_appendix_variant" in e
        assert e["rhs_appendix_variant"] >= e["terms"]["contraction"]
    # the appendix variant is never smaller: gamma_beta >= 1
    for e in rep["grid"]:
        assert e["rhs_appendix_variant"] >= e["rhs"] - 1e-15


def test_refuses_dataset_problem():
    train, test = make_blobs(120, 3, 2, seed=0, n_test=30)
    shards = shard_dataset(train, dirichlet_partition(train.y, 3, 1.0, seed=0))
    prob = DatasetProblem(LogisticRegression(3), shards, test)
    hp = HyperParams(eta=0.1, rounds=2, n_active=2, k_local=2)
    res = run_experiment(prob, make_strategy("fedavg"), hp, seed=0)
    with pytest.raises(TheoryAssumptionError, match="quadratic"):
        verify_convergence_bound(1, res, prob)


def test_refuses_bad_theorem_number():
    res, prob = run_pair(rounds=3)
    with pytest.raises(ValueError, match="theorem must be one of"):
        verify_convergence_bound(5, res, prob)


def test_refuses_single_local_step():
    res, prob = run_pair(rounds=3, k=1)
    with pytest.raises(TheoryAssumptionError, match="K > 1"):
        verify_convergence_bound(1, res, prob)


def test_refuses_epoch_mode_traces():
    res, prob = run_pair(rounds=3)
    res.sim.hp = dc_replace(res.sim.hp, k_local=None, local_epochs=2)
    with pytest.raises(TheoryAssumptionError, match="local_iters"):
        verify_convergence_bound(1, res, prob)


def test_refuses_varying_learning_rate():
    res, prob = run_pair(rounds=3, schedule="inverse_t")
    with pytest.raises(TheoryAssumptionError, match="constant learning rate"):
        verify_convergence_bound(1, res, prob)


def test_refuses_inadmissible_eta():
    res, prob = run_pair(eta=0.3, rounds=3)  # cap 1/(NKL) = 0.25
    with pytest.raises(TheoryAssumptionError, match="1/\\(NKL\\)"):
        verify_convergence_bound(1, res, prob)
    res3, prob3 = run_pair(eta=0.6, rounds=3)  # cap 1/(aKL) = 0.5
    with pytest.raises(TheoryAssumptionError, match="1/\\(aKL\\)"):
        verify_convergence_bound(3, res3, prob3)


def test_refuses_stochastic_trace_for_interpolation_theorems():
    res, prob = run_pair(rounds=3, noise=0.1)
    with pytest.raises(TheoryAssumptionError, match="exact local gradients"):
        verify_convergence_bound(3, res, prob)
    # but the smooth-regime statements accept noisy traces
    rep = verify_convergence_bound(1, res, prob)
    assert rep["sigma_l"] == pytest.approx(0.1)


def test_refuses_beta_outside_contraction():
    res, prob = run_pair(rounds=3, beta=0.1)
    with pytest.raises(TheoryAssumptionError, match="141"):
        verify_convergence_bound(1, res, prob)
    res2, prob2 = run_pair(rounds=3, beta=0.2)
    with pytest.raises(TheoryAssumptionError, match="39"):
        verify_convergence_bound(3, res2, prob2)


def test_heterogeneous_curvature_note():
    fam = make_quadratic_family(3, 2, spread=1.0, cond=3.0, seed=1)
    prob = QuadraticProblem(fam)
    hp = HyperParams(eta=0.02, rounds=5, n_active=3, k_local=2)
    res = run_experiment(prob, make_strategy("fedavg"), hp, seed=0)
    rep = verify_convergence_bound(1, res, prob)
    assert any("estimated" in n for n in rep["notes"])


def test_divergence_decay_check_structure():
    spec = make_strategy("fedinit", beta=0.05)
    hp = HyperParams(eta=0.1, rounds=20, n_active=2, k_local=3)

    def factory(seed):
        return QuadraticProblem(
            make_quadratic_family(4, 2, spread=1.0, cond=1.0, seed=seed),
            grad_noise=0.3,
        )

    out = divergence_decay_check(
        factory, spec, hp, etas=(0.1, 0.05), t_values=(20, 40), seeds=range(2)
    )
    assert set(out) == {"eta", "rounds"}
    assert set(out["eta"]["means"]) == {0.1, 0.05}
    assert set(out["rounds"]["means"]) == {20, 40}
    assert len(out["eta"]["ratios"]) == 1
    assert len(out["rounds"]["ratios"]) == 1
    assert all(v > 0 for v in out["eta"]["means"].values())
    # halving eta must strictly shrink the variance-driven divergence
    assert out["eta"]["ratios"][0] > 1.0
