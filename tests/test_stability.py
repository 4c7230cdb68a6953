"""Paired-run stability: exact zero gaps, split detection, the fused pair against two runs."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedrelax.core import DivergedError, HyperParams, Simulation
from fedrelax.datasets import Dataset
from fedrelax.models import LinearRegression, MLPClassifier
from fedrelax.problems import DatasetProblem
from fedrelax.stability import (
    StabilityTrace,
    _paired_distances,
    improvement_factor,
    make_paired_blob_problems,
    paired_run,
    replace_sample,
    stability_experiment,
    summarize_traces,
)
from fedrelax.strategies import compose_ri, make_strategy


def small_pair(perturb=(0, 0), **kw):
    args = dict(
        n_clients=4, n_samples=160, n_features=3, n_classes=2,
        perturb=perturb, n_test=40, seed=0,
    )
    args.update(kw)
    return make_paired_blob_problems(**args)


# (C, 2d) end models of C paired clients and the (2d,) global pair, at mixed magnitudes
_PAIRED_MODELS = st.tuples(st.integers(1, 7), st.integers(1, 346), st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150])
                           ).flatmap(lambda cds: st.tuples(
                               hnp.arrays(np.float64, (cds[0] + 1, 2 * cds[1]), elements=st.floats(-1e3, 1e3)),
                               st.just(cds[1]), st.just(cds[2])))


@settings(max_examples=200, deadline=None)
@given(case=_PAIRED_MODELS)
def test_paired_distances_match_the_per_row_norm_loop(case):
    models, d, scale = case
    models = scale * models
    last_local, w = models[:-1], models[-1]
    gap = 0.0
    for diff in last_local[:, :d] - last_local[:, d:]:
        gap += float(np.linalg.norm(diff))
    want = gap / len(last_local), float(np.linalg.norm(w[:d] - w[d:]))
    got = _paired_distances(last_local, w, d)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_replace_sample_copy_and_values():
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]))
    out = replace_sample(ds, 1, [9.0, 9.0], 1)
    np.testing.assert_array_equal(out.x[1], [9.0, 9.0])
    assert out.y[1] == 1
    np.testing.assert_array_equal(ds.x[1], [2.0, 3.0])  # original untouched
    np.testing.assert_array_equal(out.x[0], ds.x[0])
    with pytest.raises(IndexError, match=r"out of range \[0, 3\)"):
        replace_sample(ds, 3, [0.0, 0.0], 0)
    with pytest.raises(IndexError):
        replace_sample(ds, -1, [0.0, 0.0], 0)


def test_improvement_factor_hand_values():
    assert improvement_factor(0.0, 1.0, 1, 1.0) == 1.0
    # c*K*L = 1 -> exponent 1/2; beta = 0.5 -> (1/2)^(1/2)
    assert improvement_factor(0.5, 1.0, 1, 1.0) == pytest.approx(0.5 ** 0.5, rel=1e-15)
    assert improvement_factor(0.25, 0.5, 2, 1.0) == pytest.approx(
        (1 / 1.5) ** 0.5, rel=1e-15
    )
    # larger beta => smaller factor; larger cKL pushes the factor toward 1
    assert improvement_factor(0.1, 1.0, 1, 1.0) > improvement_factor(0.2, 1.0, 1, 1.0)
    assert improvement_factor(0.1, 10.0, 5, 10.0) > improvement_factor(0.1, 0.1, 1, 1.0)
    with pytest.raises(ValueError, match="beta >= 0"):
        improvement_factor(-0.1, 1.0, 1, 1.0)


def test_paired_blobs_single_sample_difference():
    prob_a, prob_b, meta = small_pair(perturb=(2, 1))
    assert meta["perturb_client"] == 2 and meta["perturb_index"] == 1
    assert meta["shard_sizes"] == [len(s) for s in prob_a.shards]
    for i in range(4):
        if i == 2:
            continue
        np.testing.assert_array_equal(prob_a.shards[i].x, prob_b.shards[i].x)
        np.testing.assert_array_equal(prob_a.shards[i].y, prob_b.shards[i].y)
    diff_rows = np.nonzero(
        np.any(prob_a.shards[2].x != prob_b.shards[2].x, axis=1)
        | (prob_a.shards[2].y != prob_b.shards[2].y)
    )[0]
    assert diff_rows.tolist() == [1]
    assert prob_b.shards[2].y[1] == meta["replacement_class"]
    np.testing.assert_array_equal(prob_a.test.x, prob_b.test.x)


def test_paired_blobs_range_errors():
    with pytest.raises(ValueError, match=r"client 9 out of range \[0, 4\)"):
        small_pair(perturb=(9, 0))
    with pytest.raises(ValueError, match=r"for client 0"):
        small_pair(perturb=(0, 10_000))
    with pytest.raises(ValueError, match="2 classes"):
        small_pair(n_classes=3)
    with pytest.raises(ValueError, match="unsupported stability model"):
        small_pair(model_kind="tree")


def test_paired_blobs_mlp_models():
    prob_a, prob_b, _ = small_pair(n_classes=3, model_kind="mlp", hidden=4)
    assert prob_a.dim == prob_b.dim
    assert prob_a.model is prob_b.model  # a model holds no state: bound gradients live on each side's Blocks


def test_zero_perturbation_gap_identically_zero():
    prob_a, _, _ = small_pair()
    spec = make_strategy("fedinit", beta=0.05)
    hp = HyperParams(eta=0.5, rounds=4, n_active=2, k_local=3,
                     batch_size=8, lr_schedule="inverse_t")
    tr = paired_run(prob_a, prob_a, spec, hp, seed=3)
    assert tr.deltas == [0.0] * 4
    assert tr.global_dists == [0.0] * 4
    assert tr.final_param_dist == 0.0
    assert tr.loss_gap == 0.0
    assert tr.t0 is None
    assert tr.final_delta == 0.0
    assert tr.c == 0.5 and tr.k_local == 3 and tr.beta == 0.05


def test_full_batch_perturbation_splits_at_first_participation():
    prob_a, prob_b, _ = small_pair(perturb=(1, 0))
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.5, rounds=3, n_active=4, k_local=2, lr_schedule="inverse_t")
    tr = paired_run(prob_a, prob_b, spec, hp, seed=0)
    # full participation + full batch: the perturbed sample enters at round 0
    assert tr.t0 == 0
    assert tr.deltas[0] > 0.0
    assert tr.final_param_dist > 0.0
    assert tr.loss_gap is not None and tr.loss_gap > 0.0
    assert tr.u_bound is not None and tr.u_bound > 0.0


def test_partial_participation_zero_until_first_draw():
    prob_a, prob_b, _ = small_pair(perturb=(1, 0))
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.5, rounds=6, n_active=1, k_local=2, lr_schedule="inverse_t")
    # find the first round client 1 participates, from an identical solo run
    sim = Simulation(prob_a, spec, hp, seed=7)
    first = None
    for t in range(hp.rounds):
        before = sim.last_local[1].copy()
        sim.step()
        if first is None and not np.array_equal(before, sim.last_local[1]):
            first = t
    tr = paired_run(prob_a, prob_b, spec, hp, seed=7)
    assert tr.t0 == first
    if first is not None:
        assert all(d == 0.0 for d in tr.deltas[:first])
        assert tr.deltas[first] > 0.0
    else:
        assert tr.deltas == [0.0] * hp.rounds


def test_schedule_refusal_and_override():
    prob_a, prob_b, _ = small_pair()
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.1, rounds=2, n_active=2, k_local=2)
    with pytest.raises(ValueError, match="inverse_t"):
        paired_run(prob_a, prob_b, spec, hp, seed=0)


def test_mismatched_pair_rejected():
    prob_a, _, _ = small_pair()
    prob_c, _, _ = small_pair(n_clients=5, perturb=(0, 0))
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.1, rounds=1, n_active=1, k_local=1, lr_schedule="inverse_t")
    with pytest.raises(ValueError, match="agree"):
        paired_run(prob_a, prob_c, spec, hp, seed=0)


def test_unfusable_pair_rejected():
    # make_paired_blob_problems never builds these; a pair trains as one only if both
    # sides' models compute one function and every client holds n_i samples on both sides
    prob_a, prob_b, _ = small_pair()
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.1, rounds=1, n_active=1, k_local=1, lr_schedule="inverse_t")
    short = list(prob_b.shards)
    short[2] = short[2].subset(np.arange(len(short[2]) - 1))
    with pytest.raises(ValueError, match=rf"shard sizes: client 2 holds {len(short[2]) + 1} samples "
                                         rf"on one side and {len(short[2])} on the other"):
        paired_run(prob_a, DatasetProblem(prob_b.model, short, prob_b.test), spec, hp, seed=0)
    linear = DatasetProblem(LinearRegression(3), prob_b.shards, prob_b.test)
    assert linear.dim == prob_a.dim
    with pytest.raises(ValueError, match="models of one kind and shape"):
        paired_run(prob_a, linear, spec, hp, seed=0)
    # two MLPs of one parameter count, (hidden, classes) = (2, 4) and (1, 8)
    mlp_a, mlp_b = MLPClassifier(3, 2, 4), MLPClassifier(3, 1, 8)
    assert mlp_a.dim == mlp_b.dim
    with pytest.raises(ValueError, match="models of one kind and shape"):
        paired_run(DatasetProblem(mlp_a, prob_a.shards), DatasetProblem(mlp_b, prob_b.shards),
                   spec, hp, seed=0)


@pytest.mark.parametrize("model_kind,n_classes", [("logistic-regression", 2), ("mlp", 3)])
def test_side_by_side_pair_refuses_to_evaluate(model_kind, n_classes):
    # a pair's model is (w_a, w_b); each side evaluates on its own problem, never the pair
    prob_a, prob_b, _ = small_pair(model_kind=model_kind, n_classes=n_classes)
    pair = DatasetProblem.side_by_side(prob_a, prob_b)
    w = np.zeros(pair.dim)
    for evaluate in (pair.eval_metrics, pair.per_sample_test_losses):
        with pytest.raises(ValueError, match="side-by-side pair trains but does not evaluate"):
            evaluate(w)
    # each side still evaluates
    assert prob_a.eval_metrics(w[:prob_a.dim])["test_loss"] is not None


def test_stability_experiment_and_summary():
    def factory(seed):
        return small_pair(seed=seed)

    base = make_strategy("fedavg")
    hp = HyperParams(eta=0.5, rounds=3, n_active=2, k_local=2,
                     batch_size=16, lr_schedule="inverse_t")
    traces = stability_experiment(factory, base, hp, betas=[0.0, 0.05], seeds=[0, 1])
    assert len(traces) == 4
    assert [tr.beta for tr in traces] == [0.0, 0.0, 0.05, 0.05]
    assert [tr.seed for tr in traces] == [0, 1, 0, 1]
    summary = summarize_traces(traces)
    rows = summary["per_beta"]
    assert [r["beta"] for r in rows] == [0.0, 0.05]
    assert all(r["n_runs"] == 2 for r in rows)
    assert isinstance(summary["monotone_nonincreasing"], bool)
    for r in rows:
        assert r["mean_final_delta"] >= 0.0
        assert r["mean_loss_gap"] is not None


def old_stability_experiment(factory, base_spec, hp, betas, seeds):
    """Reference loop: a fresh pair per (beta, seed), and RI switched off at beta = 0."""
    traces = []
    for beta in betas:
        spec = replace(base_spec, ri=False, beta=0.0) if beta == 0.0 else compose_ri(base_spec, beta)
        for seed in seeds:
            problem_a, problem_b, _ = factory(seed)
            traces.append(paired_run(problem_a, problem_b, spec, hp, seed))
    return traces


def _trace_bytes(traces):
    return [json.dumps(tr.to_dict(), sort_keys=True) for tr in traces]  # repr-exact floats


STABILITY_HP = HyperParams(eta=0.5, rounds=4, n_active=2, k_local=2, batch_size=8,
                           lr_schedule="inverse_t")


@pytest.mark.parametrize("base", ["fedavg", "scaffold"])
def test_experiment_builds_one_pair_per_seed_and_matches_old_loop(base):
    calls = []

    def factory(seed):
        calls.append(seed)
        return small_pair(perturb=(1, 0), seed=seed)

    betas, seeds = [0.0, 0.05, 0.1], [0, 1, 2]
    traces = stability_experiment(factory, make_strategy(base), STABILITY_HP, betas, seeds)
    assert sorted(calls) == seeds  # one pair per seed, reused for every beta
    assert [(tr.beta, tr.seed) for tr in traces] == [(b, s) for b in betas for s in seeds]
    old = old_stability_experiment(factory, make_strategy(base), STABILITY_HP, betas, seeds)
    assert _trace_bytes(traces) == _trace_bytes(old)
    assert any(tr.t0 is not None for tr in traces)  # the pairs split: the check saw real gaps


def test_fedinit_base_traces_equal_fedavg_base():
    def factory(seed):
        return small_pair(perturb=(1, 0), seed=seed)

    betas, seeds = [0.0, 0.1], [0, 1]
    from_fedinit = stability_experiment(factory, make_strategy("fedinit", beta=0.3),
                                        STABILITY_HP, betas, seeds)
    from_fedavg = stability_experiment(factory, make_strategy("fedavg"), STABILITY_HP, betas, seeds)
    assert [tr.beta for tr in from_fedinit] == [0.0, 0.0, 0.1, 0.1]
    assert _trace_bytes(from_fedinit) == _trace_bytes(from_fedavg)


def test_trace_round_trip():
    tr = StabilityTrace(
        beta=0.1, seed=2, k_local=3, c=0.5, deltas=[0.0, 0.2],
        global_dists=[0.0, 0.1], final_param_dist=0.1,
        loss_gap=0.05, u_bound=1.2, t0=1,
    )
    d = tr.to_dict()
    assert d["final_delta"] == 0.2
    assert d["t0"] == 1
    assert d["beta"] == 0.1
    empty = StabilityTrace(0.0, 0, 1, 0.1, [], [], 0.0, None, None, None)
    assert empty.final_delta == 0.0


# -- paired runs against the recording loop they replace -----------------------------

def reference_paired_run(problem_a, problem_b, spec, hp, seed):
    """Two recording Simulations stepped in lockstep, the trace computed from their models."""
    sim_a = Simulation(problem_a, spec, hp, seed)
    sim_b = Simulation(problem_b, spec, hp, seed, w0=sim_a.server.global_params.copy())
    deltas, global_dists = [], []
    for _ in range(hp.rounds):
        sim_a.step()
        sim_b.step()
        gap = 0.0
        for la, lb in zip(sim_a.last_local, sim_b.last_local):
            gap += float(np.linalg.norm(la - lb))
        deltas.append(gap / problem_a.n_clients)
        global_dists.append(
            float(np.linalg.norm(sim_a.server.global_params - sim_b.server.global_params)))
    assert len(sim_a.records) == len(sim_b.records) == hp.rounds  # the loop evaluated every round
    la = problem_a.per_sample_test_losses(sim_a.server.global_params)
    lb = problem_a.per_sample_test_losses(sim_b.server.global_params)
    return {
        "deltas": deltas,
        "global_dists": global_dists,
        "t0": next((t for t, d in enumerate(deltas) if d > 0.0), None),
        "loss_gap": float(np.max(np.abs(la - lb))),
        "u_bound": 1.1 * float(max(np.max(la), np.max(lb))),
    }


def _hp(**kw):
    return HyperParams(**{"eta": 0.5, "rounds": 5, "k_local": 3, "lr_schedule": "inverse_t", **kw})


# name -> (pair arguments, HyperParams, strategy, whether the pair is one problem twice)
PAIRED_CASES = {
    # full batches over all C clients: the whole-population block
    "logistic-fullbatch-all": ({}, _hp(n_active=4), make_strategy("fedinit", beta=0.1), False),
    "logistic-minibatch": ({}, _hp(n_active=2, batch_size=8), make_strategy("fedinit", beta=0.1), False),
    "mlp-fullbatch-all": (dict(n_classes=3, model_kind="mlp", hidden=4), _hp(n_active=4),
                          compose_ri(make_strategy("fedavg"), 0.05), False),
    "mlp-minibatch": (dict(n_classes=3, model_kind="mlp", hidden=4), _hp(n_active=3, batch_size=16),
                      make_strategy("fedinit", beta=0.1), False),
    "scaffold-fullbatch-all": ({}, _hp(n_active=4), compose_ri(make_strategy("scaffold"), 0.1), False),
    "feddyn-minibatch": ({}, _hp(n_active=3, batch_size=8), compose_ri(make_strategy("feddyn"), 0.1),
                         False),
    "control-fullbatch-all": ({}, _hp(n_active=4), make_strategy("fedinit", beta=0.1), True),
    # FedSAM's ascent radius is the one rule that is not coordinate-wise on the pair's row
    "fedsam-minibatch": ({}, _hp(n_active=3, batch_size=8),
                         compose_ri(make_strategy("fedsam", rho=0.05), 0.1), False),
    "fedsam-mlp-fullbatch-all": (dict(n_classes=3, model_kind="mlp", hidden=4), _hp(n_active=4),
                                 make_strategy("fedsam", rho=0.05), False),
    "fedcm-minibatch": ({}, _hp(n_active=2, batch_size=8), compose_ri(make_strategy("fedcm"), 0.1),
                        False),
    "fedadam-fullbatch": ({}, _hp(n_active=3), compose_ri(make_strategy("fedadam"), 0.1), False),
    # shards of 39-41 samples: 5 or 6 steps per epoch, so one block per step count
    "epochs-weighted": ({}, _hp(n_active=3, k_local=None, local_epochs=1, batch_size=8,
                                weighted_aggregation=True), make_strategy("fedinit", beta=0.1), False),
    "with-replacement": (dict(with_replacement=True), _hp(n_active=3, batch_size=8),
                         make_strategy("fedinit", beta=0.1), False),
}


@pytest.mark.parametrize("name", list(PAIRED_CASES))
def test_paired_run_equals_recording_loop(name, monkeypatch):
    pair_args, hp, spec, same = PAIRED_CASES[name]
    problem_a, problem_b, _ = small_pair(perturb=(1, 0), **pair_args)
    if same:
        problem_b = problem_a
    want = reference_paired_run(problem_a, problem_b, spec, hp, seed=2)

    steps = []
    real_step = Simulation.step
    monkeypatch.setattr(Simulation, "step", lambda sim: steps.append(sim) or real_step(sim))
    with monkeypatch.context() as m:  # a paired run must not evaluate, the fused pair included
        m.setattr(DatasetProblem, "eval_metrics", None)
        tr = paired_run(problem_a, problem_b, spec, hp, seed=2)

    got = {k: getattr(tr, k) for k in want}
    assert got == want
    assert len(steps) == hp.rounds and len(set(map(id, steps))) == 1  # one simulation of the pair
    fused = steps[0].problem
    assert fused.sides == 2
    if same:
        assert tr.deltas == [0.0] * hp.rounds and tr.t0 is None
    else:
        assert tr.t0 is not None  # the pair split, so the comparison saw real gaps
    whole = hp.batch_size is None and hp.n_active == problem_a.n_clients
    assert ("_population_block" in vars(fused)) == whole


def test_paired_run_stops_at_a_non_finite_model():
    problem_a, problem_b, _ = small_pair(perturb=(1, 0))
    hp = HyperParams(eta=1e308, rounds=3, n_active=4, k_local=2, lr_schedule="inverse_t")
    with pytest.raises(DivergedError, match=r"^run diverged at round 0: non-finite model$"):
        paired_run(problem_a, problem_b, make_strategy("fedavg"), hp, seed=0)


def test_paired_run_names_the_round_its_distance_overflows():
    # FedDyn's proximal pull overshoots for eta * alpha > 2: the models grow
    # geometrically until the paired distance overflows
    problem_a, problem_b, _ = small_pair(perturb=(1, 0))
    spec = make_strategy("feddyn")
    hp = HyperParams(eta=1e4, rounds=40, n_active=4, k_local=10, lr_schedule="inverse_t")
    with pytest.raises(DivergedError, match=r"round \d+: non-finite paired distance") as err:
        paired_run(problem_a, problem_b, spec, hp, seed=0)
    bad = int(err.value.args[0].split("round ")[1].split(":")[0])
    assert bad > 0
    # every round before it is finite
    tr = paired_run(problem_a, problem_b, spec, replace(hp, rounds=bad), seed=0)
    assert np.isfinite(tr.deltas + tr.global_dists + [tr.loss_gap, tr.u_bound]).all()


def test_paired_run_refuses_a_non_finite_final_test_loss(monkeypatch):
    problem_a, problem_b, _ = small_pair(perturb=(1, 0))
    monkeypatch.setattr(problem_a, "per_sample_test_losses", lambda w: np.full(3, np.inf))
    hp = HyperParams(eta=0.5, rounds=3, n_active=4, k_local=2, lr_schedule="inverse_t")
    with pytest.raises(DivergedError, match=r"^run diverged at round 2: non-finite test loss$"):
        paired_run(problem_a, problem_b, make_strategy("fedavg"), hp, seed=0)
