"""Round instrumentation: divergence, gaps, cost accounting, smoothing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .strategies import PAYLOADS, STORAGE_VECTORS, StrategySpec

FLOAT_BYTES = 8  # float64 on the wire
SCHEMA_VERSION = 1  # artifact layout, stamped in rounds.csv and every report envelope

# pinned rounds.csv column order
CSV_HEADER = (
    "round", "divergence", "grad_norm_sq", "train_loss", "test_loss",
    "train_acc", "test_acc", "bytes_up", "bytes_down", "lr",
)


@dataclass
class RoundRecord:
    """Start-of-round metrics plus the round's traffic and learning rate.

    divergence and grad_norm_sq are evaluated at the global model *before* the
    round trains, so record t describes state t; end-of-run state lives in the
    summary.
    """

    round: int
    divergence: float
    grad_norm_sq: float
    train_loss: float
    test_loss: float | None
    train_acc: float | None
    test_acc: float | None
    bytes_up: int
    bytes_down: int
    lr: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)  # every field is a scalar, so a shallow copy suffices


# the record columns a run stops on when they are not finite (core raises
# DivergedError); the other float columns may hold an infinity or NaN the run
# recorded, which checkpoints save as JSON's Infinity and NaN
FINITE_COLUMNS = ("train_loss", "divergence")


def divergence(global_w: np.ndarray, last_locals: np.ndarray) -> float:
    """Mean over all clients (stragglers included) of ||last_local_i - global||^2."""
    last_locals = np.asarray(last_locals)
    if last_locals.ndim != 2 or last_locals.shape[1] != len(global_w):
        raise ValueError(
            f"expected last_locals (C, {len(global_w)}), got {last_locals.shape}"
        )
    diff = last_locals - global_w
    return float(np.mean(np.einsum("cd,cd->c", diff, diff)))


SMOOTHING_WINDOW = 50  # the final rounds smoothed_max_last reads
SMOOTHING_WIDTH = 5    # the points of each of its centred means


def smoothed_max_last(series) -> float:
    """Max over the final SMOOTHING_WINDOW entries of the centred SMOOTHING_WIDTH-point
    moving average, whose window is truncated at the series' ends; ValueError when empty."""
    s = np.asarray(series, dtype=np.float64)
    half = SMOOTHING_WIDTH // 2
    tail = range(max(0, len(s) - SMOOTHING_WINDOW), len(s))
    return float(np.array([s[max(0, i - half):i + half + 1].mean() for i in tail]).max())


@dataclass(frozen=True)
class AccountingRecord:
    """Per-round communication and client-side storage, in parameter-vector units."""

    comm_floats: int           # table-convention entry: N * d * max(down, up) payloads
    comm_ratio: float          # relative to plain averaging (N * d)
    storage_floats: int        # persistent client-side floats across the population
    storage_ratio: float       # relative to plain averaging (C * d)
    bytes_down_per_round: int
    bytes_up_per_round: int


def comm_storage_accounting(spec: StrategySpec, n_clients: int, n_active: int, dim: int) -> AccountingRecord:
    """Predict the per-round traffic and persistent storage for a strategy.

    The single "communication" figure counts the heavier direction, matching
    the convention that the extra vectors a strategy ships are the 2x factor;
    the per-direction byte predictions are what the engine's counters must hit
    exactly.  Relaxed initialization adds nothing: the last local model it
    needs is the baseline one vector every client already keeps.
    """
    down, up = PAYLOADS[spec.kind]
    storage_vectors = STORAGE_VECTORS[spec.kind]
    return AccountingRecord(
        comm_floats=n_active * dim * max(down, up),
        comm_ratio=float(max(down, up)),
        storage_floats=n_clients * dim * storage_vectors,
        storage_ratio=float(storage_vectors),
        bytes_down_per_round=n_active * dim * FLOAT_BYTES * down,
        bytes_up_per_round=n_active * dim * FLOAT_BYTES * up,
    )


def csv_cell(v) -> str:
    """One CSV field: empty for None, strings as they are, exact ints, repr of floats."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def rounds_csv_text(records, config_hash: str, columns=CSV_HEADER) -> str:
    """Render records or dicts as CSV text: hash comment, header, one line per record.

    The default columns are the pinned rounds.csv header; sweep.csv passes its own.
    """
    lines = [f"# schema={SCHEMA_VERSION} config_hash={config_hash}", ",".join(columns)]
    for r in records:
        d = r.to_dict() if isinstance(r, RoundRecord) else r
        lines.append(",".join(csv_cell(d[k]) for k in columns))
    return "\n".join(lines) + "\n"
