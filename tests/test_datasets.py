"""Data generation, Dirichlet partitioning, bias transforms, CSV round-trips."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrelax.datasets import (
    Dataset,
    apply_category_bias,
    apply_client_bias,
    blob_centers,
    dirichlet_partition,
    load_csv,
    make_blobs,
    partition_statistics,
    save_csv,
    shard_dataset,
)


# -- blobs ---------------------------------------------------------------------

def test_blobs_shapes_and_balance():
    ds = make_blobs(103, 4, 5, seed=0)
    assert ds.x.shape == (103, 4) and ds.y.shape == (103,)
    counts = np.bincount(ds.y, minlength=5)
    assert counts.max() - counts.min() <= 1  # remainder spread one-per-class
    assert set(np.unique(ds.y)) == set(range(5))


def test_blobs_train_test_share_centers():
    train, test = make_blobs(4000, 3, 2, separation=6.0, cluster_std=0.5, seed=1, n_test=4000)
    centers = blob_centers(2, 3, 6.0, seed=1)
    for c in range(2):
        np.testing.assert_allclose(train.x[train.y == c].mean(axis=0), centers[c], atol=0.1)
        np.testing.assert_allclose(test.x[test.y == c].mean(axis=0), centers[c], atol=0.1)


def test_blobs_deterministic_per_seed():
    a = make_blobs(50, 3, 2, seed=7)
    b = make_blobs(50, 3, 2, seed=7)
    c = make_blobs(50, 3, 2, seed=8)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)


def test_dataset_subset_copies():
    ds = make_blobs(10, 2, 2, seed=0)
    sub = ds.subset(np.array([0, 1]))
    sub.x[0, 0] = 1e9
    assert ds.x[0, 0] != 1e9


# -- dirichlet partition ---------------------------------------------------------

def test_partition_without_replacement_is_exact_cover():
    ds = make_blobs(500, 3, 4, seed=2)
    plan = dirichlet_partition(ds.y, 7, 0.5, seed=3)
    all_idx = np.concatenate(plan.assignments)
    assert len(all_idx) == 500
    assert np.array_equal(np.sort(all_idx), np.arange(500))  # disjoint, complete
    assert all(len(a) > 0 for a in plan.assignments)
    assert all(np.array_equal(a, np.sort(a)) for a in plan.assignments)


def test_partition_with_replacement_quotas():
    ds = make_blobs(500, 3, 4, seed=2)
    plan = dirichlet_partition(ds.y, 7, 0.5, seed=3, with_replacement=True)
    assert all(len(a) == 500 // 7 for a in plan.assignments)
    assert plan.with_replacement


def test_partition_deterministic():
    y = make_blobs(300, 2, 3, seed=4).y
    p1 = dirichlet_partition(y, 5, 0.3, seed=9)
    p2 = dirichlet_partition(y, 5, 0.3, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(p1.assignments, p2.assignments))


def test_partition_impossible_split_raises():
    # 2 samples over 5 clients: someone is always empty, retries exhaust
    with pytest.raises(RuntimeError, match="no samples after 8 attempts"):
        dirichlet_partition(np.array([0, 1]), 5, 1.0, seed=0)


def test_partition_proportions_shape():
    y = make_blobs(200, 2, 4, seed=1).y
    plan = dirichlet_partition(y, 6, 0.2, seed=2)
    assert plan.proportions.shape == (6, 4)
    np.testing.assert_allclose(plan.proportions.sum(axis=1), 1.0, atol=1e-12)


def test_concentration_controls_skew():
    # Monte-Carlo over seeds: TV to the global label distribution shrinks as Dr grows
    y = make_blobs(3000, 2, 10, seed=5).y
    mean_tv = {}
    for dr in (0.1, 0.6, 1e6):
        tvs = []
        for seed in range(5):
            plan = dirichlet_partition(y, 20, dr, seed=seed)
            stats = partition_statistics(plan)
            tvs.append(stats["mean_tv"])
        mean_tv[dr] = np.mean(tvs)
    assert mean_tv[0.1] > mean_tv[0.6] > mean_tv[1e6]
    assert mean_tv[1e6] < 0.05


def test_near_uniform_partition_statistics():
    y = make_blobs(5000, 2, 10, seed=6).y
    frac_ok = []
    for seed in range(5):
        plan = dirichlet_partition(y, 20, 1e6, seed=seed)
        stats = partition_statistics(plan)
        frac_ok.append(stats["frac_clients_tv_le_005"])
    assert np.mean(frac_ok) >= 0.95


def test_partition_plan_references_its_labels():
    y = make_blobs(60, 2, 3, seed=2).y
    for with_replacement in (False, True):
        plan = dirichlet_partition(y, 4, 0.5, seed=3, with_replacement=with_replacement)
        assert plan.labels is y  # a reference, not a copy


def test_partition_statistics_hand_values():
    y = np.array([0, 0, 1, 1])
    plan = dirichlet_partition(y, 2, 1e9, seed=1)
    stats = partition_statistics(plan)
    assert stats["sizes"] == [2, 2]
    # both read the plan's own labels: the histograms cover them, the global split is even
    assert np.sum(stats["label_histograms"], axis=0).tolist() == [2, 2]
    assert stats["global_label_distribution"] == [0.5, 0.5]
    # global dist is (1/2, 1/2); a perfectly mixed client has TV 0
    assert all(tv in (0.0, 0.5) for tv in stats["tv_to_global"])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(20, 120),
    n_classes=st.integers(2, 5),
    n_clients=st.integers(2, 6),
    dr=st.floats(0.05, 100.0),
    seed=st.integers(0, 1000),
)
def test_partition_cover_property(n, n_classes, n_clients, dr, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(n_classes, size=n)
    try:
        plan = dirichlet_partition(y, n_clients, dr, seed=seed)
    except RuntimeError:
        return  # tiny skewed draws can legitimately fail after retries
    all_idx = np.sort(np.concatenate(plan.assignments))
    assert np.array_equal(all_idx, np.arange(n))


# -- bias transforms --------------------------------------------------------------

def test_category_bias_same_class_same_shift():
    ds = make_blobs(60, 3, 3, seed=0)
    out = apply_category_bias(ds, 0.5, seed=1)
    shifts = out.x - ds.x
    for c in range(3):
        rows = shifts[ds.y == c]
        # one scalar shift per class, applied to every feature
        assert np.allclose(rows, rows[0, 0])
    assert np.array_equal(out.y, ds.y)
    # distinct classes get distinct shifts (a.s.)
    s = [shifts[ds.y == c][0, 0] for c in range(3)]
    assert len(set(np.round(s, 12))) == 3


def test_category_bias_zero_sigma_copies():
    ds = make_blobs(20, 2, 2, seed=0)
    out = apply_category_bias(ds, 0.0, seed=1)
    assert np.array_equal(out.x, ds.x)
    out.x[0, 0] = 99.0
    assert ds.x[0, 0] != 99.0


def test_client_bias_per_client_scales():
    ds = make_blobs(40, 3, 2, seed=0)
    plan = dirichlet_partition(ds.y, 4, 10.0, seed=0)
    shards = shard_dataset(ds, plan)
    out = apply_client_bias(shards, 0.3, seed=2)
    scales = []
    for orig, biased in zip(shards, out):
        ratio = biased.x / orig.x
        # every row of one shard is scaled by the same per-feature vector
        np.testing.assert_allclose(ratio, np.broadcast_to(ratio[0], ratio.shape), atol=1e-10)
        assert np.array_equal(biased.y, orig.y)
        scales.append(ratio[0])
    assert not np.allclose(scales[0], scales[1])  # clients differ


def test_client_bias_negative_sigma_rejected():
    with pytest.raises(ValueError):
        apply_client_bias([make_blobs(10, 2, 2, seed=0)], -0.1)
    with pytest.raises(ValueError):
        apply_category_bias(make_blobs(10, 2, 2, seed=0), -0.1)


# -- csv -------------------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    ds = make_blobs(30, 4, 3, seed=3)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.x, ds.x)  # repr round-trips float64 exactly
    assert np.array_equal(back.y, ds.y)


def test_csv_label_column_position_free(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,label,b\n1.0,2,3.0\n4.0,0,6.0\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.x, [[1.0, 3.0], [4.0, 6.0]])
    np.testing.assert_array_equal(ds.y, [2, 0])


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("f0,label\n1.0,0\n2.0\n", "line 3"),  # wrong field count
        ("f0,label\n1.0,zero\n", "not an integer"),
        ("f0,label\noops,1\n", "not a number"),
        ("f0,label\nnan,1\n", "not finite"),
        ("f0,f1\n1.0,2.0\n", "label"),
        ("", "empty file"),
        ("f0,label\n", "no data rows"),
    ],
)
def test_csv_errors_name_line_and_cause(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=fragment):
        load_csv(path)


def test_csv_error_line_numbers_are_file_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0\n2.0,1\nbroken,1\n")
    with pytest.raises(ValueError, match="line 4"):
        load_csv(path)
