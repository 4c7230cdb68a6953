"""Paired-run stability: exact zero gaps, split detection, bound arithmetic."""
import numpy as np
import pytest

from fedrelax.core import HyperParams, Simulation
from fedrelax.datasets import Dataset
from fedrelax.stability import (
    StabilityTrace,
    improvement_factor,
    make_paired_blob_problems,
    paired_run,
    replace_sample,
    stability_bound,
    stability_experiment,
    summarize_traces,
)
from fedrelax.strategies import make_strategy


def small_pair(perturb=(0, 0), **kw):
    args = dict(
        n_clients=4, n_samples=160, n_features=3, n_classes=2,
        perturb=perturb, n_test=40, seed=0,
    )
    args.update(kw)
    return make_paired_blob_problems(**args)


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


def test_stability_bound_hand_values():
    # ckl = 0.1 * 2 * 5 = 1; explicit t0 = 4
    out = stability_bound(
        0.0, c=0.1, k=2, t_rounds=100, n_active=5, n_clients=10, shard_size=50,
        sigma_l=1.0, big_l=5.0, l_g=2.0, u_bound=1.0, t0=4.0,
    )
    assert out["sampling_term"] == pytest.approx(5 * 1.0 * 2 * 4 / (10 * 50), rel=1e-15)
    assert out["growth_term"] == pytest.approx(
        (2 * 1.0 * 2.0 / (10 * 50 * 5.0)) * (100 / 4) ** 1.0, rel=1e-12
    )
    assert out["bound"] == pytest.approx(out["sampling_term"] + out["growth_term"])
    assert out["improvement_factor"] == 1.0


def test_stability_bound_optimal_t0():
    # default t0 = [2 s Lg / ((1+2b) N U K L)]^(1/(1+ckl)) * T^(ckl/(1+ckl))
    out = stability_bound(
        0.0, c=0.1, k=2, t_rounds=100, n_active=5, n_clients=10, shard_size=50,
        sigma_l=1.0, big_l=5.0, l_g=2.0, u_bound=1.0,
    )
    expected = (2 * 1.0 * 2.0 / (1.0 * 5 * 1.0 * 2 * 5.0)) ** 0.5 * 100 ** 0.5
    assert out["t0"] == pytest.approx(expected, rel=1e-12)
    # sigma_l = 0 would give t0 = 0; it is clamped to one round
    clamped = stability_bound(
        0.0, c=0.1, k=2, t_rounds=100, n_active=5, n_clients=10, shard_size=50,
        sigma_l=0.0, big_l=5.0, l_g=2.0, u_bound=1.0,
    )
    assert clamped["t0"] == 1.0
    # relaxation shrinks the growth term at fixed t0
    relaxed = stability_bound(
        0.1, c=0.1, k=2, t_rounds=100, n_active=5, n_clients=10, shard_size=50,
        sigma_l=1.0, big_l=5.0, l_g=2.0, u_bound=1.0, t0=4.0,
    )
    base = stability_bound(
        0.0, c=0.1, k=2, t_rounds=100, n_active=5, n_clients=10, shard_size=50,
        sigma_l=1.0, big_l=5.0, l_g=2.0, u_bound=1.0, t0=4.0,
    )
    assert relaxed["growth_term"] < base["growth_term"]
    assert relaxed["sampling_term"] == base["sampling_term"]


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
    assert prob_a.model is not prob_b.model  # separate mutable model objects


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
    tr = paired_run(prob_a, prob_b, spec, hp, seed=0, allow_constant_lr=True)
    assert len(tr.deltas) == 2


def test_mismatched_pair_rejected():
    prob_a, _, _ = small_pair()
    prob_c, _, _ = small_pair(n_clients=5, perturb=(0, 0))
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.1, rounds=1, n_active=1, k_local=1, lr_schedule="inverse_t")
    with pytest.raises(ValueError, match="agree"):
        paired_run(prob_a, prob_c, spec, hp, seed=0)


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
