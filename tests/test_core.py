"""Round-engine behavior: hand-traced rounds, stragglers, determinism, schedules."""
import numpy as np
import pytest

from fedrelax.core import (
    DivergedError,
    HyperParams,
    Simulation,
    aggregate,
    relaxed_init,
    run_experiment,
    sample_clients,
)
from fedrelax.datasets import dirichlet_partition, make_blobs, shard_dataset
from fedrelax.models import LogisticRegression
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import QuadraticFamily, make_quadratic_family
from fedrelax.strategies import make_strategy


def scalar_pair_problem(b0=0.0, b1=1.0):
    """Two 1-D clients f_i(w) = 0.5 (w - b_i)^2."""
    fam = QuadraticFamily(np.ones((2, 1, 1)), np.array([[b0], [b1]]))
    return QuadraticProblem(fam)


def test_two_rounds_traced_by_hand():
    # eta=0.1, K=2, beta=0.5, full participation, w0=0, targets {0, 1}.
    # Round 0 (RI no-op): client 0 stays at 0; client 1: w <- 0.9w + 0.1 twice
    # from 0 -> 0.19; aggregate 0.095.
    # Round 1 starts: 0.095 +/- 0.5 * 0.095 -> 0.1425 and 0.0475;
    # client 0: *0.9 twice -> 0.115425; client 1: 0.9w+0.1 twice -> 0.228475;
    # aggregate 0.17195; divergence at round 1 = 0.095^2 = 0.009025.
    prob = scalar_pair_problem()
    spec = make_strategy("fedinit", beta=0.5)
    hp = HyperParams(eta=0.1, rounds=2, n_active=2, k_local=2)
    res = run_experiment(prob, spec, hp, seed=0, w0=np.array([0.0]))
    assert res.records[0].divergence == 0.0
    assert res.records[1].divergence == pytest.approx(0.009025, abs=1e-15)
    assert res.final_global[0] == pytest.approx(0.17195, abs=1e-15)
    locs = res.sim.last_local
    assert locs[0, 0] == pytest.approx(0.115425, abs=1e-15)
    assert locs[1, 0] == pytest.approx(0.228475, abs=1e-15)


def test_round_zero_relaxation_is_noop():
    # beta large but all last_locals start at w0: round 0 must match beta=0 exactly
    prob = scalar_pair_problem()
    hp = HyperParams(eta=0.1, rounds=1, n_active=2, k_local=3)
    big = run_experiment(prob, make_strategy("fedinit", beta=0.9), hp, seed=0)
    none = run_experiment(prob, make_strategy("fedavg"), hp, seed=0)
    assert np.array_equal(big.final_global, none.final_global)


def test_straggler_state_frozen():
    prob = scalar_pair_problem(b0=5.0, b1=-5.0)
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.1, rounds=1, n_active=1, k_local=2)
    sim = Simulation(prob, spec, hp, seed=0, w0=np.array([0.0]))
    w0 = sim.server.global_params.copy()
    sim.step()
    active = [i for i, row in enumerate(sim.last_local) if not np.array_equal(row, w0)]
    assert len(active) == 1  # with these targets the trained client always moves
    idle = 1 - active[0]
    assert np.array_equal(sim.last_local[idle], w0)


def test_straggler_keeps_old_model_across_rounds():
    rng_probe = np.random.default_rng(0)
    fam = make_quadratic_family(5, 2, spread=2.0, cond=1.0, seed=1)
    prob = QuadraticProblem(fam)
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.05, rounds=1, n_active=2, k_local=3)
    sim = Simulation(prob, spec, hp, seed=3)
    before = sim.last_local.copy()
    rec = sim.step()
    after = sim.last_local
    moved = [i for i in range(5) if not np.array_equal(before[i], after[i])]
    assert len(moved) == hp.n_active
    del rng_probe, rec


def test_relaxed_init_formula_and_copy():
    # one start row per participant's last local model
    w = np.array([1.0, 2.0])
    last = np.array([[0.0, 4.0], [1.0, 2.0]])
    np.testing.assert_allclose(relaxed_init(w, last, 0.5), [[1.5, 1.0], [1.0, 2.0]])
    # negative beta pulls toward the previous local model instead
    np.testing.assert_allclose(relaxed_init(w, last, -0.5), [[0.5, 3.0], [1.0, 2.0]])
    out = relaxed_init(w, last, 0.0)
    np.testing.assert_array_equal(out, [w, w])
    out[0, 0] = 99.0
    assert w[0] == 1.0 and out[1, 0] == 1.0  # beta = 0 returns independent rows


def test_sample_clients_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        picked = sample_clients(rng, 10, 4)
        assert len(picked) == 4
        assert len(set(picked.tolist())) == 4
        assert np.array_equal(picked, np.sort(picked))
        assert picked.min() >= 0 and picked.max() < 10
    with pytest.raises(ValueError):
        sample_clients(rng, 3, 4)


def test_aggregate_order_invariance_and_mean():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(5, 3))
    np.testing.assert_allclose(aggregate(rows), rows.mean(axis=0), atol=1e-15)
    # rows are summed one at a time in row order, also where NumPy's pairwise
    # sum(axis=0) would group them differently (d = 1, N > 8)
    for _ in range(20):
        col = rng.normal(size=(int(rng.integers(9, 40)), 1)) * 10.0 ** rng.integers(-3, 4)
        running = np.zeros(1)
        for w in col:
            running += w
        assert np.array_equal(aggregate(col), running / len(col))


def test_aggregate_weighted():
    rows = np.array([[0.0], [1.0]])
    out = aggregate(rows, weights=np.array([1.0, 3.0]))
    assert out == pytest.approx([0.75])
    with pytest.raises(ValueError, match="positive"):
        aggregate(rows, weights=np.zeros(2))
    with pytest.raises(ValueError, match="nothing"):
        aggregate(np.zeros((0, 1)))


def blob_problem(seed=0, n_clients=6):
    train, test = make_blobs(240, 4, 2, seed=seed, n_test=60)
    plan = dirichlet_partition(train.y, n_clients, 1.0, seed=seed)
    shards = shard_dataset(train, plan)
    return DatasetProblem(LogisticRegression(4), shards, test)


def test_same_seed_bitwise_reproducible():
    prob = blob_problem()
    spec = make_strategy("fedinit", beta=0.1)
    hp = HyperParams(eta=0.2, rounds=5, n_active=3, k_local=2, batch_size=16)
    a = run_experiment(prob, spec, hp, seed=9)
    b = run_experiment(prob, spec, hp, seed=9)
    c = run_experiment(prob, spec, hp, seed=10)
    assert np.array_equal(a.final_global, b.final_global)
    assert not np.array_equal(a.final_global, c.final_global)


def test_client_batch_streams_independent_of_participation():
    # client 2's private stream must not advance when it sits out a round
    prob = blob_problem()
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.1, rounds=3, n_active=2, k_local=2, batch_size=8)
    sim = Simulation(prob, spec, hp, seed=11)
    states = {i: sim.client_rng(i).bit_generator.state["state"]["state"] for i in range(6)}
    sim.step()
    # exactly the sampled clients' generators advanced
    moved = {i for i in range(6)
             if sim.client_rng(i).bit_generator.state["state"]["state"] != states[i]}
    assert len(moved) == hp.n_active
    # generators are created on first draw: a fresh run creates only the sampled ones
    lazy = Simulation(prob, spec, hp, seed=11)
    lazy.step()
    assert {i for i, g in enumerate(lazy.client_rngs) if g is not None} == moved


def test_lr_schedules():
    hp_const = HyperParams(eta=0.1, rounds=3, n_active=1, k_local=1, lr_decay=0.5)
    assert hp_const.lr_at(0) == 0.1
    assert hp_const.lr_at(2) == pytest.approx(0.025)
    hp_inv = HyperParams(eta=0.3, rounds=3, n_active=1, k_local=1, lr_schedule="inverse_t")
    assert hp_inv.lr_at(0) == 0.3
    assert hp_inv.lr_at(2) == pytest.approx(0.1)


def test_records_carry_schedule():
    prob = scalar_pair_problem()
    hp = HyperParams(eta=0.2, rounds=3, n_active=2, k_local=1, lr_schedule="inverse_t")
    res = run_experiment(prob, make_strategy("fedavg"), hp, seed=0)
    assert [r.lr for r in res.records] == pytest.approx([0.2, 0.1, 0.2 / 3])
    assert [r.round for r in res.records] == [0, 1, 2]


def test_hyperparams_validation():
    good = dict(eta=0.1, rounds=5, n_active=2, k_local=3)
    HyperParams(**good).validate(4)
    with pytest.raises(ValueError, match="learning rate"):
        HyperParams(**{**good, "eta": 0.0}).validate(4)
    with pytest.raises(ValueError, match="round"):
        HyperParams(**{**good, "rounds": 0}).validate(4)
    with pytest.raises(ValueError, match="N <= C"):
        HyperParams(**{**good, "n_active": 5}).validate(4)
    with pytest.raises(ValueError, match="exactly one"):
        HyperParams(eta=0.1, rounds=5, n_active=2).validate(4)
    with pytest.raises(ValueError, match="exactly one"):
        HyperParams(eta=0.1, rounds=5, n_active=2, k_local=3, local_epochs=1).validate(4)
    with pytest.raises(ValueError, match="schedule"):
        HyperParams(**{**good, "lr_schedule": "cosine"}).validate(4)
    with pytest.raises(ValueError, match="lr_decay"):
        HyperParams(**{**good, "lr_decay": 1.5}).validate(4)


def test_inverse_t_refuses_lr_decay():
    # eta / (t+1) has no decay factor, so any other value would be ignored
    hp = HyperParams(eta=0.1, rounds=5, n_active=2, k_local=3, lr_schedule="inverse_t")
    hp.validate(4)
    with pytest.raises(ValueError, match="lr_decay must be 1.0 under inverse_t"):
        HyperParams(**{**vars(hp), "lr_decay": 0.5}).validate(4)


def test_local_epochs_step_counts():
    prob = blob_problem()
    sizes = [prob.shard_size(i) for i in range(6)]
    hp = HyperParams(eta=0.1, rounds=1, n_active=3, local_epochs=2, batch_size=16)
    sim = Simulation(prob, make_strategy("fedavg"), hp, seed=0)
    for i in range(6):
        expected = 2 * -(-sizes[i] // 16)  # epochs * ceil(shard / batch)
        assert sim.steps_for(i) == expected


def test_quadratic_rejects_epoch_mode():
    prob = scalar_pair_problem()
    hp = HyperParams(eta=0.1, rounds=1, n_active=2, local_epochs=1)
    sim = Simulation(prob, make_strategy("fedavg"), hp, seed=0)
    with pytest.raises(ValueError, match="local_iters"):
        sim.step()


def test_quadratic_rejects_batch_size():
    prob = scalar_pair_problem()
    hp = HyperParams(eta=0.1, rounds=1, n_active=2, k_local=2, batch_size=4)
    sim = Simulation(prob, make_strategy("fedavg"), hp, seed=0)
    with pytest.raises(ValueError, match="batch"):
        sim.step()


def test_uses_batch_randomness():
    quad = scalar_pair_problem()
    hp = HyperParams(eta=0.1, rounds=1, n_active=2, k_local=2)
    assert not Simulation(quad, make_strategy("fedavg"), hp, 0).uses_batch_randomness()
    noisy = QuadraticProblem(quad.family, grad_noise=0.5)
    assert Simulation(noisy, make_strategy("fedavg"), hp, 0).uses_batch_randomness()
    data = blob_problem()
    hp_full = HyperParams(eta=0.1, rounds=1, n_active=3, k_local=2)
    assert not Simulation(data, make_strategy("fedavg"), hp_full, 0).uses_batch_randomness()
    hp_batch = HyperParams(eta=0.1, rounds=1, n_active=3, k_local=2, batch_size=4)
    assert Simulation(data, make_strategy("fedavg"), hp_batch, 0).uses_batch_randomness()


def test_weighted_aggregation_requires_counts_and_weights_correctly():
    quad = scalar_pair_problem()
    hp = HyperParams(eta=0.1, rounds=1, n_active=2, k_local=1, weighted_aggregation=True)
    with pytest.raises(ValueError, match="sample counts"):  # at construction, before any round
        Simulation(quad, make_strategy("fedavg"), hp, 0)


def test_weighted_aggregation_matches_hand_mean():
    from fedrelax.datasets import Dataset

    ds = make_blobs(60, 2, 2, seed=0, n_test=0)
    # two shards of known unequal sizes
    shard_a = Dataset(ds.x[:40], ds.y[:40])
    shard_b = Dataset(ds.x[40:], ds.y[40:])
    prob = DatasetProblem(LogisticRegression(2), [shard_a, shard_b])
    spec = make_strategy("fedavg")
    hp_w = HyperParams(eta=0.3, rounds=1, n_active=2, k_local=2, weighted_aggregation=True)
    hp_u = HyperParams(eta=0.3, rounds=1, n_active=2, k_local=2)
    sim_w = Simulation(prob, spec, hp_w, 0)
    sim_u = Simulation(prob, spec, hp_u, 0)
    sim_w.step()
    sim_u.step()
    la_w = sim_w.last_local
    expected = (40.0 * la_w[0] + 20.0 * la_w[1]) / 60.0
    np.testing.assert_allclose(sim_w.server.global_params, expected, atol=1e-15)
    assert not np.array_equal(sim_w.server.global_params, sim_u.server.global_params)


def test_w0_shape_validation():
    prob = scalar_pair_problem()
    hp = HyperParams(eta=0.1, rounds=1, n_active=2, k_local=1)
    with pytest.raises(ValueError, match="shape"):
        Simulation(prob, make_strategy("fedavg"), hp, 0, w0=np.zeros(3))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_stops_at_first_non_finite_round():
    # lr 5 on cond-10 curvature overshoots: the loss grows until it overflows at round 20
    fam = make_quadratic_family(10, 10, cond=10.0, seed=0)
    hp = HyperParams(eta=5.0, rounds=40, n_active=10, k_local=5, lr_decay=0.998)
    sim = Simulation(QuadraticProblem(fam), make_strategy("fedavg"), hp, 0)
    with pytest.raises(DivergedError, match=r"round 20: train_loss=inf"):
        sim.run()
    assert sim.server.round == 20 and len(sim.records) == 20
    assert all(np.isfinite([r.train_loss, r.divergence]).all() for r in sim.records)
    # a model that turns non-finite in the last round is caught by the summary
    last = Simulation(QuadraticProblem(fam), make_strategy("fedavg"),
                      HyperParams(eta=5.0, rounds=20, n_active=10, k_local=5, lr_decay=0.998), 0)
    with pytest.raises(DivergedError, match=r"round 20"):
        last.run()
    assert len(last.records) == 20
    # a client model far from a finite global one: only the divergence overflows
    far = Simulation(QuadraticProblem(fam), make_strategy("fedavg"), hp, 0)
    far.last_local[3, 0] = 1e200
    with pytest.raises(DivergedError, match=r"round 0: train_loss=\d.*, divergence=inf"):
        far.step()


def test_summary_contents():
    prob = blob_problem()
    hp = HyperParams(eta=0.2, rounds=4, n_active=3, k_local=2)
    res = run_experiment(prob, make_strategy("fedavg"), hp, seed=1)
    s = res.summary
    assert s["rounds"] == 4
    assert s["total_bytes_up"] == sum(r.bytes_up for r in res.records)
    assert "smoothed_max_test_acc" in s
    assert s["smoothed_max_test_acc"]["window"] == 50
    assert s["avg_divergence"] == pytest.approx(
        np.mean([r.divergence for r in res.records])
    )
    quad_res = run_experiment(
        scalar_pair_problem(), make_strategy("fedavg"),
        HyperParams(eta=0.1, rounds=2, n_active=2, k_local=1), seed=0,
    )
    assert "smoothed_max_test_acc" not in quad_res.summary  # no test accuracy stream
