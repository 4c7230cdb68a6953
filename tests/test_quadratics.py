"""Quadratic family oracles: optima, curvature moduli, heterogeneity, the stacked draw."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fedrelax.quadratics import STACK_BYTES, QuadraticFamily, make_quadratic_family


def test_two_client_scalar_family_by_hand():
    # f(w) = 1/2 [ 1/2 w^2 + 1/2 (w-2)^2 ]: minimizer 1, value 1/2
    fam = QuadraticFamily(np.ones((2, 1, 1)), np.array([[0.0], [2.0]]))
    assert fam.w_star == pytest.approx([1.0])
    assert fam.f_star == pytest.approx(0.5)
    assert fam.smoothness == pytest.approx(1.0)
    assert fam.pl_constant == pytest.approx(1.0)
    assert fam.global_grad(np.array([3.0])) == pytest.approx([2.0])
    assert fam.client_loss(1, np.array([0.0])) == pytest.approx(2.0)
    assert fam.heterogeneity_bound() == pytest.approx(1.0)  # ||A (b_bar - b_i)|| = 1


def test_w_star_matches_numeric_minimizer():
    for seed in range(5):
        fam = make_quadratic_family(6, 4, spread=1.5, cond=8.0, seed=seed)
        res = minimize(fam.global_loss, np.zeros(4), jac=fam.global_grad,
                       method="BFGS", tol=1e-14)
        np.testing.assert_allclose(fam.w_star, res.x, atol=1e-6)
        assert np.linalg.norm(fam.global_grad(fam.w_star)) < 1e-10
        assert fam.f_star <= fam.global_loss(res.x) + 1e-12


def _power_iteration_lmax(a, iters=500):
    v = np.ones(a.shape[0]) / np.sqrt(a.shape[0])
    for _ in range(iters):
        v = a @ v
        v /= np.linalg.norm(v)
    return float(v @ a @ v)


def test_smoothness_matches_power_iteration():
    fam = make_quadratic_family(5, 6, spread=1.0, cond=10.0, seed=3)
    expected = max(_power_iteration_lmax(a) for a in fam.a_matrices)
    assert fam.smoothness == pytest.approx(expected, rel=1e-9)
    mean_lmax = float(np.linalg.eigvalsh(fam.a_matrices.mean(axis=0))[-1])  # lambda_max(A_bar)
    assert mean_lmax <= fam.smoothness + 1e-12
    assert 0.0 < fam.pl_constant <= mean_lmax


@pytest.mark.parametrize("c,d", [(200, 50), (37, 60), (5, 4), (3, 1)])
def test_smoothness_is_the_per_client_maximum_computed_once(c, d):
    fam = make_quadratic_family(c, d, spread=1.0, cond=10.0, seed=c)
    per_client = float(max(np.linalg.eigvalsh(a)[-1] for a in fam.a_matrices))
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        first, second = fam.smoothness, fam.smoothness
    assert first == second == per_client
    assert eigvalsh.call_count == 1


def test_family_matrices_spd_with_bounded_spectrum():
    cond = 7.0
    fam = make_quadratic_family(8, 5, spread=1.0, cond=cond, seed=11)
    for a in fam.a_matrices:
        np.testing.assert_allclose(a, a.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(a)
        assert eigs[0] >= 1.0 - 1e-9
        assert eigs[-1] <= cond + 1e-9


def test_cond_one_gives_exact_identity():
    fam = make_quadratic_family(4, 3, spread=1.0, cond=1.0, seed=0)
    for a in fam.a_matrices:
        assert np.array_equal(a, np.eye(3))


def test_spread_zero_gives_identical_targets():
    fam = make_quadratic_family(5, 3, spread=0.0, cond=4.0, seed=0)
    for b in fam.b_vectors[1:]:
        assert np.array_equal(b, fam.b_vectors[0])
    # common minimizer: every client gradient vanishes at w_star
    for i in range(5):
        assert np.linalg.norm(fam.client_grad(i, fam.w_star)) < 1e-10


def test_heterogeneity_bound_hand_value():
    a = 2.0 * np.eye(2)
    fam = QuadraticFamily(np.stack([a, a]), np.array([[0.0, 0.0], [2.0, 0.0]]))
    # b_bar = (1,0): gaps are A(±1,0) with norm 2
    assert fam.heterogeneity_bound() == pytest.approx(2.0)


def test_heterogeneity_bound_none_for_mixed_curvature():
    fam = make_quadratic_family(4, 3, spread=1.0, cond=5.0, seed=2)
    assert fam.heterogeneity_bound() is None


def test_global_loss_is_client_mean():
    fam = make_quadratic_family(7, 4, spread=2.0, cond=3.0, seed=9)
    w = np.linspace(-1, 1, 4)
    mean = sum(fam.client_loss(i, w) for i in range(7)) / 7
    assert fam.global_loss(w) == pytest.approx(mean, rel=1e-14)
    grads = np.mean([fam.client_grad(i, w) for i in range(7)], axis=0)
    np.testing.assert_allclose(fam.global_grad(w), grads, atol=1e-14)


def test_same_seed_reproducible_distinct_seeds_differ():
    f1 = make_quadratic_family(3, 3, spread=1.0, cond=2.0, seed=5)
    f2 = make_quadratic_family(3, 3, spread=1.0, cond=2.0, seed=5)
    f3 = make_quadratic_family(3, 3, spread=1.0, cond=2.0, seed=6)
    assert np.array_equal(f1.a_matrices, f2.a_matrices)
    assert np.array_equal(f1.b_vectors, f2.b_vectors)
    assert not np.array_equal(f1.b_vectors, f3.b_vectors)


def test_constructor_validation():
    with pytest.raises(ValueError, match="n_clients"):
        make_quadratic_family(0, 3)
    with pytest.raises(ValueError, match="condition"):
        make_quadratic_family(2, 3, cond=0.5)
    with pytest.raises(ValueError, match="spread"):
        make_quadratic_family(2, 3, spread=-1.0)
    with pytest.raises(ValueError, match="inconsistent"):
        QuadraticFamily(np.ones((2, 3, 3)), np.ones((2, 2)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(0.01, 3.0))
def test_w_star_is_a_minimum(seed, scale):
    fam = make_quadratic_family(4, 3, spread=1.0, cond=4.0, seed=seed % 50)
    rng = np.random.default_rng(seed)
    probe = fam.w_star + scale * rng.normal(size=3)
    assert fam.global_loss(probe) >= fam.f_star - 1e-12


def reference_family(n_clients, dim, cond, seed):
    """The per-client draw the stacked one replaced: one QR and one product per
    client, with Q's columns signed by diag(R)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x51AD,)))
    b0 = rng.normal(size=dim)
    a = np.empty((n_clients, dim, dim))
    for i in range(n_clients):
        eigs = np.exp(rng.uniform(0.0, np.log(cond), size=dim))
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
        q = q * np.sign(np.diag(r))
        a[i] = (q * eigs) @ q.T
    return a, b0 + rng.normal(size=(n_clients, dim))


def check_stacked_draw(n_clients, dim, cond, seed):
    ref_a, ref_b = reference_family(n_clients, dim, cond, seed)
    shapes = []
    qr = np.linalg.qr

    def recording_qr(m, *args, **kwargs):
        shapes.append(m.shape)
        return qr(m, *args, **kwargs)

    with mock.patch.object(np.linalg, "qr", recording_qr):
        fam = make_quadratic_family(n_clients, dim, spread=1.0, cond=cond, seed=seed)
    assert fam.a_matrices.tobytes() == ref_a.tobytes()
    assert fam.b_vectors.tobytes() == ref_b.tobytes()
    # full stacks of the byte budget (at least one client), in client order, then the rest
    size = max(1, STACK_BYTES // (8 * dim * dim))
    full, rest = divmod(n_clients, size)
    assert shapes == [(size, dim, dim)] * full + [(rest, dim, dim)] * (rest > 0)
    assert all(8 * c * dim * dim <= max(STACK_BYTES, 8 * dim * dim) for c, _, _ in shapes)


@settings(max_examples=100, deadline=None)
@given(n_clients=st.integers(1, 70), dim=st.integers(1, 80),
       cond=st.floats(1.0, 50.0, exclude_min=True), seed=st.integers(0, 2**20))
def test_stacked_draw_is_the_per_client_draw(n_clients, dim, cond, seed):
    check_stacked_draw(n_clients, dim, cond, seed)


@pytest.mark.parametrize("n_clients, dim, cond", [
    (1, 50, 10.0),   # one client in a stack of 13
    (13, 50, 10.0),  # exactly one full stack
    (27, 50, 10.0),  # two full stacks and a one-client tail
    (37, 60, 4.0),   # stacks of 9 and a tail of 1
    (3, 200, 9.0),   # one matrix exceeds the budget: stacks of one client
])
def test_stacked_draw_at_stack_boundaries(n_clients, dim, cond):
    check_stacked_draw(n_clients, dim, cond, seed=7)
