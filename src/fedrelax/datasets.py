"""Synthetic classification data, non-IID partitioning, and feature biases."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """Feature matrix x (n, p) float64 and integer labels y (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise ValueError("dataset needs x (n,p) and y (n,) of equal length")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0

    def subset(self, idx: np.ndarray) -> "Dataset":
        # copies, never views: per-client shards must be independently mutable
        return Dataset(self.x[idx].copy(), self.y[idx].copy())


def blob_centers(n_classes: int, n_features: int, separation: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB10B, 0)))
    return separation * rng.normal(size=(n_classes, n_features))


def sample_blobs(centers: np.ndarray, n_samples: int, rng: np.random.Generator,
                 cluster_std: float) -> Dataset:
    """Balanced gaussian blobs around given class centers, shuffled."""
    k = len(centers)
    counts = np.full(k, n_samples // k)
    counts[: n_samples % k] += 1
    xs, ys = [], []
    for c in range(k):
        xs.append(centers[c] + cluster_std * rng.normal(size=(counts[c], centers.shape[1])))
        ys.append(np.full(counts[c], c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(n_samples)
    return Dataset(x[order], y[order])


@np.errstate(over="ignore", invalid="ignore")  # a DatasetProblem refuses non-finite samples
def make_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    *,
    separation: float = 4.0,
    cluster_std: float = 1.0,
    seed: int = 0,
    n_test: int = 0,
):
    """Gaussian-blob classification data with balanced classes.

    Returns a Dataset, or a (train, test) pair drawn from the same centers
    when n_test > 0.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if n_features < 1:
        raise ValueError("need at least one feature")
    centers = blob_centers(n_classes, n_features, separation, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB10B, 1)))
    train = sample_blobs(centers, n_samples, rng, cluster_std)
    if n_test <= 0:
        return train
    test = sample_blobs(centers, n_test, rng, cluster_std)
    return train, test


@dataclass
class PartitionPlan:
    """Assignment of sample indices to clients, and how it was drawn."""

    assignments: list[np.ndarray]
    concentration: float
    with_replacement: bool
    labels: np.ndarray  # the labels the assignments index: a reference, never a copy

    @property
    def n_clients(self) -> int:
        return len(self.assignments)

    def counts_matrix(self) -> np.ndarray:
        """Per-client label histogram, shape (C, n_classes)."""
        n_classes = int(self.labels.max()) + 1
        out = np.zeros((self.n_clients, n_classes), dtype=np.int64)
        for i, idx in enumerate(self.assignments):
            for c, n in zip(*np.unique(self.labels[idx], return_counts=True)):
                out[i, int(c)] = n
        return out


def partition_statistics(plan: PartitionPlan) -> dict:
    """Per-client heterogeneity report: sizes, histograms, TV-to-global, max share."""
    counts = plan.counts_matrix()
    sizes = counts.sum(axis=1)
    global_counts = np.bincount(plan.labels, minlength=counts.shape[1])
    global_dist = global_counts / global_counts.sum()
    tv = np.zeros(plan.n_clients)
    max_share = np.zeros(plan.n_clients)
    for i in range(plan.n_clients):
        if sizes[i] > 0:
            p = counts[i] / sizes[i]
            tv[i] = 0.5 * float(np.abs(p - global_dist).sum())
            max_share[i] = float(p.max())
    return {
        "n_clients": plan.n_clients,
        "concentration": plan.concentration,
        "with_replacement": plan.with_replacement,
        "sizes": sizes.tolist(),
        "label_histograms": counts.tolist(),
        "global_label_distribution": global_dist.tolist(),
        "tv_to_global": tv.tolist(),
        "max_label_share": max_share.tolist(),
        "mean_tv": float(tv.mean()),
        "max_tv": float(tv.max()),
        "frac_clients_tv_le_005": float(np.mean(tv <= 0.05)),
        "mean_max_label_share": float(max_share.mean()),
    }


def _draw_partition(labels, n_clients, concentration, rng, with_replacement):
    n_classes = int(labels.max()) + 1
    props = rng.dirichlet(np.full(n_classes, concentration), size=n_clients)
    class_pools = [np.flatnonzero(labels == c) for c in range(n_classes)]
    assignments = [[] for _ in range(n_clients)]
    if with_replacement:
        quota = len(labels) // n_clients
        for i in range(n_clients):
            counts = rng.multinomial(quota, props[i])
            for c, k in enumerate(counts):
                if k and len(class_pools[c]):
                    assignments[i].extend(rng.choice(class_pools[c], size=k, replace=True))
    else:
        for c, pool in enumerate(class_pools):
            if not len(pool):
                continue
            pool = rng.permutation(pool)
            weights = props[:, c]
            total = weights.sum()
            if total <= 0.0:
                weights = np.full(n_clients, 1.0 / n_clients)
            else:
                weights = weights / total
            # cumulative rounding keeps the split exact: every index lands somewhere
            cuts = np.floor(np.cumsum(weights) * len(pool) + 0.5).astype(int)
            start = 0
            for i, stop in enumerate(cuts):
                assignments[i].extend(pool[start:stop])
                start = stop
            assignments[-1].extend(pool[start:])
    return [np.sort(np.asarray(a, dtype=np.int64)) for a in assignments]


_PARTITION_DRAWS = 8  # plans drawn before an empty client is an error


def dirichlet_partition(
    labels: np.ndarray,
    n_clients: int,
    concentration: float,
    *,
    seed: int = 0,
    with_replacement: bool = False,
) -> PartitionPlan:
    """Label-skew partition: client i draws proportions p_i ~ Dirichlet(concentration * 1).

    Without replacement each class's indices are split across clients
    proportionally to the normalized client weights for that class, so the
    assignment is a disjoint cover of the dataset. Plans that leave any client
    empty are redrawn, up to _PARTITION_DRAWS draws in all; then ValueError is raised.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) == 0:
        raise ValueError("labels must be a non-empty 1-D integer array")
    if n_clients < 1:
        raise ValueError("need at least one client")
    if concentration <= 0.0:
        raise ValueError(f"Dirichlet concentration must be positive, got {concentration}")
    for attempt in range(_PARTITION_DRAWS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xD1A, attempt)))
        assignments = _draw_partition(labels, n_clients, concentration, rng, with_replacement)
        if all(len(a) > 0 for a in assignments):
            return PartitionPlan(assignments, concentration, with_replacement, labels)
    raise ValueError(
        f"dirichlet_partition left a client with no samples after {_PARTITION_DRAWS} attempts "
        f"(n_samples={len(labels)}, n_clients={n_clients}, concentration={concentration}); "
        "increase n_samples or concentration, or lower n_clients"
    )


def shard_dataset(dataset: Dataset, plan: PartitionPlan) -> list[Dataset]:
    """Materialize per-client copies according to a partition plan."""
    return [dataset.subset(idx) for idx in plan.assignments]


@np.errstate(over="ignore", invalid="ignore")
def apply_category_bias(dataset: Dataset, shift_sigma: float, seed: int) -> Dataset:
    """Add a per-class scalar shift ~ N(0, shift_sigma^2) to all features of that class.

    Two samples of the same class always receive the same shift, wherever they
    end up after partitioning.
    """
    if shift_sigma < 0.0:
        raise ValueError("shift_sigma must be >= 0")
    if shift_sigma == 0.0:
        return Dataset(dataset.x.copy(), dataset.y.copy())
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xCA7,)))
    shifts = rng.normal(0.0, shift_sigma, size=dataset.n_classes)
    x = dataset.x + shifts[dataset.y][:, None]
    return Dataset(x, dataset.y.copy())


@np.errstate(over="ignore", invalid="ignore")
def apply_client_bias(shards: list[Dataset], scale_sigma: float, seed: int) -> list[Dataset]:
    """Multiply each client's features by a per-client scale vector ~ N(1, scale_sigma^2).

    Operates on the materialized per-client copies, so a sample duplicated
    across clients (with-replacement partitions) gets a different copy on each.
    """
    if scale_sigma < 0.0:
        raise ValueError("scale_sigma must be >= 0")
    if scale_sigma == 0.0:
        return [Dataset(s.x.copy(), s.y.copy()) for s in shards]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xC11E,)))
    out = []
    for s in shards:
        scale = rng.normal(1.0, scale_sigma, size=s.n_features)
        out.append(Dataset(s.x * scale, s.y.copy()))
    return out


def load_csv(path) -> Dataset:
    """Load a dataset from CSV: header row, one `label` column, float features.

    Malformed cells raise with the 1-based file line number; NaN and a
    negative label are rejected.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path}: header must contain a 'label' column, got {header}")
        label_col = header.index("label")
        feature_cols = [j for j in range(len(header)) if j != label_col]
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                label = int(row[label_col])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: label {row[label_col]!r} is not an integer"
                ) from None
            if label < 0:
                raise ValueError(f"{path}: line {lineno}: label {label} is negative; labels are class ids")
            feats = np.empty(len(feature_cols))
            for k, j in enumerate(feature_cols):
                try:
                    v = float(row[j])
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: field {header[j]!r} value {row[j]!r} is not a number"
                    ) from None
                if not np.isfinite(v):
                    raise ValueError(
                        f"{path}: line {lineno}: field {header[j]!r} is not finite ({row[j]!r})"
                    )
                feats[k] = v
            xs.append(feats)
            ys.append(label)
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.asarray(xs), np.asarray(ys, dtype=np.int64))


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the format load_csv reads (features f0..fk, then label)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(dataset.n_features)] + ["label"])
        for row, label in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
