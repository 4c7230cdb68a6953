"""Strategy rules checked against single-step pencil math on (1, d) blocks and null degradations."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedrelax.core import HyperParams, Simulation, run_experiment
from fedrelax.metrics import rounds_csv_text
from fedrelax.problems import QuadraticProblem
from fedrelax.quadratics import QuadraticFamily, make_quadratic_family
from fedrelax.strategies import (
    PAYLOADS,
    LocalCtx,
    StrategySpec,
    client_step,
    compose_ri,
    finish_local,
    init_client_aux,
    init_server_aux,
    make_strategy,
    server_step,
)


def quad_grad(b):
    """grad of f(w) = 0.5 ||w - b||^2, row by row over a block."""
    return lambda w: w - b


def block(*values):
    """A (1, d) block: one participant's row."""
    return np.array([values])


def ctx_for(spec, w0, eta=0.1, k=1, anchor=None, dim=1):
    """Round inputs for the block w0; anchor defaults to its first row."""
    return LocalCtx(
        anchor=w0[0].copy() if anchor is None else anchor,
        start=w0.copy(),
        eta=eta,
        k_steps=k,
        client_aux={key: np.tile(v, (len(w0), 1)) for key, v in init_client_aux(spec, dim).items()},
        server_aux=init_server_aux(spec, dim),
    )


# -- single-step hand values on (1, d) blocks --------------------------------------

def test_fedavg_step_by_hand():
    spec = make_strategy("fedavg")
    w = block(2.0)
    out = client_step(spec, w, quad_grad(block(0.0)), ctx_for(spec, w, eta=0.1))
    assert out == pytest.approx(block(2.0 - 0.1 * 2.0))


def test_fedsam_step_by_hand():
    # g0 = w - b = 2; ascent point w + rho*g0/|g0| = 2.5; d = 2.5 - 0 = 2.5
    spec = make_strategy("fedsam", rho=0.5)
    w = block(2.0)
    out = client_step(spec, w, quad_grad(block(0.0)), ctx_for(spec, w, eta=0.1))
    assert out == pytest.approx(block(2.0 - 0.1 * 2.5))


def test_fedsam_zero_gradient_short_circuits():
    spec = make_strategy("fedsam", rho=0.5)
    w = block(3.0)
    out = client_step(spec, w, quad_grad(block(3.0)), ctx_for(spec, w, eta=0.1))
    assert out == pytest.approx(block(3.0))


def test_fedsam_zero_gradient_row_stays_while_others_move():
    # row 0 sits at its optimum (scale 0); row 1 takes the hand step above
    spec = make_strategy("fedsam", rho=0.5)
    w = np.array([[3.0], [2.0]])
    out = client_step(spec, w, quad_grad(np.array([[3.0], [0.0]])), ctx_for(spec, w, eta=0.1))
    np.testing.assert_array_equal(out[0], [3.0])
    assert out[1] == pytest.approx([2.0 - 0.1 * 2.5])


def test_scaffold_step_by_hand():
    spec = make_strategy("scaffold")
    w = block(1.0)
    ctx = ctx_for(spec, w, eta=0.1)
    ctx.client_aux["control"] = block(0.3)
    ctx.server_aux["control"] = np.array([0.1])
    # d = g - c_i + c = 1 - 0.3 + 0.1
    out = client_step(spec, w, quad_grad(block(0.0)), ctx)
    assert out == pytest.approx(block(1.0 - 0.1 * 0.8))


def test_scaffold_control_update_equals_mean_pass_gradient():
    # zero controls: after K plain-SGD steps the new control must equal the
    # average of the K gradients actually used
    spec = make_strategy("scaffold")
    b = block(0.0)
    w = block(1.0)
    eta, k = 0.1, 4
    ctx = ctx_for(spec, w, eta=eta, k=k)
    grads = []
    cur = ctx.start
    for _ in range(k):
        grads.append(cur - b)
        cur = client_step(spec, cur, quad_grad(b), ctx)
    new_aux = finish_local(spec, ctx, cur)
    np.testing.assert_allclose(new_aux["control"], np.mean(grads, axis=0), atol=1e-12)


def test_feddyn_step_and_dual_update_by_hand():
    spec = make_strategy("feddyn", dyn_alpha=0.5)
    anchor = np.array([1.0])
    w = block(1.0)
    ctx = ctx_for(spec, w, eta=0.1, anchor=anchor)
    ctx.client_aux["dual"] = block(0.2)
    # d = g - dual + alpha (w - anchor) = 1 - 0.2 + 0
    out = client_step(spec, w, quad_grad(block(0.0)), ctx)
    assert out == pytest.approx(block(1.0 - 0.1 * 0.8))
    new_aux = finish_local(spec, ctx, out)
    # dual' = dual - alpha (w_end - anchor)
    assert new_aux["dual"] == pytest.approx(block(0.2 - 0.5 * (out[0, 0] - 1.0)))


def test_fedcm_step_by_hand():
    spec = make_strategy("fedcm", cm_alpha=0.25)
    w = block(2.0)
    ctx = ctx_for(spec, w, eta=0.1)
    ctx.server_aux["momentum"] = np.array([4.0])
    # d = alpha m + (1-alpha) g = 0.25*4 + 0.75*2 = 2.5
    out = client_step(spec, w, quad_grad(block(0.0)), ctx)
    assert out == pytest.approx(block(2.0 - 0.1 * 2.5))


def test_fedcm_server_momentum_update():
    spec = make_strategy("fedcm")
    aux = init_server_aux(spec, 1)
    w = np.array([1.0])
    agg = np.array([0.4])
    new = server_step(spec, w, agg, aux, eta=0.1, mean_k=3.0, round_idx=0,
                      aux_change={}, n_clients=4)
    assert np.array_equal(new, agg)
    # m = (w - w') / (eta * K) = 0.6 / 0.3
    assert aux["momentum"] == pytest.approx([2.0])


def test_fedadam_server_step_by_hand():
    spec = make_strategy("fedadam")  # server_lr defaults to 0.1
    assert spec.server_lr == 0.1
    aux = init_server_aux(spec, 1)
    w = np.array([1.0])
    agg = np.array([0.0])  # pseudo-gradient = 1
    new = server_step(spec, w, agg, aux, eta=0.1, mean_k=5.0, round_idx=0,
                      aux_change={}, n_clients=4)
    # bias-corrected first step: m_hat = pseudo, v_hat = pseudo^2
    expected = 1.0 - 0.1 * 1.0 / (1.0 + spec.adam_tau)
    assert new == pytest.approx([expected])
    assert aux["m"] == pytest.approx([(1 - 0.9) * 1.0])
    assert aux["v"] == pytest.approx([(1 - 0.99) * 1.0])


def test_fedadam_zero_pseudo_gradient_is_noop():
    spec = make_strategy("fedadam")
    aux = init_server_aux(spec, 2)
    w = np.array([1.0, -1.0])
    new = server_step(spec, w, w.copy(), aux, eta=0.1, mean_k=5.0, round_idx=0,
                      aux_change={}, n_clients=4)
    np.testing.assert_array_equal(new, w)


def test_scaffold_server_control_update():
    spec = make_strategy("scaffold")
    aux = init_server_aux(spec, 1)
    w = np.array([1.0])
    change = {"control": np.array([[0.4], [0.2]])}  # two participants' (N, d) control change
    server_step(spec, w, np.array([0.5]), aux, eta=0.1, mean_k=2.0, round_idx=0,
                aux_change=change, n_clients=4)
    # c += (1/C) sum of the changes = 0.6 / 4
    assert aux["control"] == pytest.approx([0.15])


def test_plain_server_step_is_aggregate():
    spec = make_strategy("fedavg")
    new = server_step(spec, np.array([5.0]), np.array([2.0]), {}, eta=0.1,
                      mean_k=1.0, round_idx=0, aux_change={}, n_clients=2)
    assert np.array_equal(new, [2.0])


def test_partial_server_lr_interpolates():
    spec = make_strategy("fedavg", server_lr=0.5)
    new = server_step(spec, np.array([4.0]), np.array([2.0]), {}, eta=0.1,
                      mean_k=1.0, round_idx=0, aux_change={}, n_clients=2)
    assert new == pytest.approx([3.0])


# -- null degradations over full runs ----------------------------------------------

NULL_CASES = [
    ("fedsam", {"rho": 0.0}),
    ("fedcm", {"cm_alpha": 0.0}),
    ("feddyn", {"dyn_alpha": 0.0}),
    ("fedinit", {"beta": 0.0}),
    ("scaffold", {}),  # one round only: every control variate is still zero
]


@st.composite
def quadratic_runs(draw, max_rounds=8):
    """A random quadratic family and schedule; d = 1 with N > 8 is in range."""
    c = draw(st.integers(1, 20))
    return dict(
        n_clients=c, dim=draw(st.integers(1, 5)), cond=draw(st.floats(1.0, 10.0)),
        family_seed=draw(st.integers(0, 2**16)), grad_noise=draw(st.sampled_from([0.0, 0.1, 0.5])),
        eta=draw(st.floats(0.01, 0.08)), rounds=draw(st.integers(1, max_rounds)),
        n_active=draw(st.integers(1, c)), k=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**16)),
    )


def _run(spec, run, rounds=None):
    fam = make_quadratic_family(run["n_clients"], run["dim"], spread=1.0, cond=run["cond"],
                                seed=run["family_seed"])
    prob = QuadraticProblem(fam, grad_noise=run["grad_noise"])
    hp = HyperParams(eta=run["eta"], rounds=rounds or run["rounds"], n_active=run["n_active"],
                     k_local=run["k"])
    return run_experiment(prob, spec, hp, seed=run["seed"])


def _csv(res, zero_bytes):
    """rounds.csv text; zero_bytes blanks the byte columns, which count each strategy's payloads."""
    records = res.records
    if zero_bytes:
        records = [replace(r, bytes_up=0, bytes_down=0) for r in records]
    return rounds_csv_text(records, "0" * 64)


PINNED_RUN = dict(n_clients=6, dim=4, cond=3.0, family_seed=0, grad_noise=0.1, eta=0.05,
                  rounds=12, n_active=3, k=4, seed=1)
D1_RUN = dict(n_clients=20, dim=1, cond=4.0, family_seed=3, grad_noise=0.1, eta=0.05,
              rounds=6, n_active=18, k=3, seed=2)


@pytest.mark.parametrize("name,null_kw", NULL_CASES)
@settings(max_examples=15, deadline=None)
@example(run=PINNED_RUN)
@example(run=D1_RUN)
@given(run=quadratic_runs())
def test_null_parameters_degrade_to_fedavg_bitwise(name, null_kw, run):
    rounds = 1 if name == "scaffold" else None
    spec = make_strategy(name, **null_kw)
    base = _run(make_strategy("fedavg"), run, rounds)
    degraded = _run(spec, run, rounds)
    np.testing.assert_array_equal(degraded.final_global, base.final_global)
    np.testing.assert_array_equal(degraded.sim.last_local, base.sim.last_local)
    zero_bytes = PAYLOADS[spec.kind] != PAYLOADS["fedavg"]
    assert _csv(degraded, zero_bytes) == _csv(base, zero_bytes)


# the controls shrink to 6.4e-6 by round 20 after peaking at 1.45: the running
# sum's rounding follows the magnitudes it summed, not the final controls
SHRINKING_CONTROLS_RUN = dict(n_clients=1, dim=2, cond=4.0, family_seed=1, grad_noise=0.0,
                              eta=0.0625, rounds=20, n_active=1, k=5, seed=0)


@settings(max_examples=30, deadline=None)
@example(run=SHRINKING_CONTROLS_RUN, ri=False)
@given(run=quadratic_runs(max_rounds=30), ri=st.booleans())
def test_scaffold_server_control_is_mean_of_client_controls(run, ri):
    """The server control tracks the mean of the client controls within 1e-12 of
    the largest |c_i| seen at any round of the run."""
    fam = make_quadratic_family(run["n_clients"], run["dim"], spread=1.0, cond=run["cond"],
                                seed=run["family_seed"])
    hp = HyperParams(eta=run["eta"], rounds=run["rounds"], n_active=run["n_active"],
                     k_local=run["k"])
    sim = Simulation(QuadraticProblem(fam, grad_noise=run["grad_noise"]),
                     make_strategy("scaffold", beta=0.1 if ri else None), hp, seed=run["seed"])
    peak = 0.0
    for _ in range(hp.rounds):
        sim.step()
        peak = max(peak, float(np.max(np.abs(sim.client_aux["control"]))))
    controls = sim.client_aux["control"]
    gap = np.max(np.abs(sim.server.aux["control"] - controls.mean(axis=0)))
    assert gap <= 1e-12 * peak


def test_ri_composition_only_changes_start():
    # with every last_local equal to the global model, RI is inert even for beta != 0
    fam = make_quadratic_family(3, 2, spread=1.0, cond=2.0, seed=4)
    prob = QuadraticProblem(fam)
    hp = HyperParams(eta=0.05, rounds=1, n_active=3, k_local=3)
    plain = run_experiment(prob, make_strategy("scaffold"), hp, seed=0)
    composed = run_experiment(prob, make_strategy("scaffold", beta=0.3), hp, seed=0)
    # round 0: all last_locals start at w0, so trajectories agree...
    assert np.array_equal(plain.final_global, composed.final_global)
    hp2 = HyperParams(eta=0.05, rounds=2, n_active=2, k_local=3)
    plain2 = run_experiment(prob, make_strategy("scaffold"), hp2, seed=0)
    composed2 = run_experiment(prob, make_strategy("scaffold", beta=0.3), hp2, seed=0)
    # ...and diverge once some client's last_local differs from the global model
    assert not np.array_equal(plain2.final_global, composed2.final_global)


# -- spec construction ---------------------------------------------------------------

def test_strategy_names():
    assert make_strategy("fedinit").name == "fedinit"
    assert make_strategy("fedinit").kind == "fedavg"
    assert make_strategy("fedinit").beta == 0.1
    assert make_strategy("scaffold", beta=0.05).name == "scaffold+ri"
    assert make_strategy("fedavg").name == "fedavg"
    assert make_strategy("fedavg", beta=0.2).name == "fedinit"


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("fedprox")


def test_negative_beta_needs_flag():
    with pytest.raises(ValueError, match="negative beta"):
        make_strategy("fedinit", beta=-0.1)
    spec = make_strategy("fedinit", beta=-0.1, allow_negative_beta=True)
    assert spec.beta == -0.1
    with pytest.raises(ValueError, match="negative beta"):
        compose_ri(make_strategy("fedavg"), -0.1)


def test_beta_without_ri_rejected():
    with pytest.raises(ValueError, match="relaxed initialization"):
        StrategySpec(kind="fedavg", ri=False, beta=0.1)
    # compose_ri flips the flag and validates in one move
    assert compose_ri(StrategySpec(kind="fedavg"), 0.1).ri is True


@pytest.mark.parametrize("fields,match", [
    ({"kind": "nope"}, "unknown base kind"),
    ({"kind": "fedavg", "beta": 0.3}, "relaxed initialization"),
    ({"kind": "fedsam", "rho": -0.1}, "rho"),
    ({"kind": "fedcm", "cm_alpha": -0.1}, "cm_alpha"),
])
def test_spec_validated_at_construction(fields, match):
    with pytest.raises(ValueError, match=match):
        StrategySpec(**fields)
    base = StrategySpec(kind="fedavg")
    with pytest.raises(ValueError, match=match):  # dataclasses.replace validates too
        replace(base, **fields)


def test_cm_alpha_range_enforced():
    with pytest.raises(ValueError, match="cm_alpha"):
        make_strategy("fedcm", cm_alpha=1.5)


def test_payload_counts_table():
    assert PAYLOADS[make_strategy("fedavg").kind] == (1, 1)
    assert PAYLOADS[make_strategy("scaffold").kind] == (2, 2)
    assert PAYLOADS[make_strategy("fedcm").kind] == (2, 1)
    assert PAYLOADS[make_strategy("fedinit").kind] == (1, 1)


def test_aux_initialization():
    assert set(init_client_aux(make_strategy("scaffold"), 3)) == {"control"}
    assert set(init_client_aux(make_strategy("feddyn"), 3)) == {"dual"}
    assert init_client_aux(make_strategy("fedavg"), 3) == {}
    assert set(init_server_aux(make_strategy("fedadam"), 3)) == {"m", "v"}
    assert set(init_server_aux(make_strategy("fedcm"), 3)) == {"momentum"}
