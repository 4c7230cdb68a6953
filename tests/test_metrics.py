"""Metric oracles: brute-force divergence, cost table, smoothing, CSV text."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrelax.metrics import (
    CSV_HEADER,
    RoundRecord,
    comm_storage_accounting,
    divergence,
    moving_average,
    rounds_csv_text,
    smoothed_max_last,
)
from fedrelax.strategies import make_strategy


def brute_force_divergence(global_w, last_locals):
    total = 0.0
    for row in last_locals:
        acc = 0.0
        for a, b in zip(row, global_w):
            acc += (a - b) ** 2
        total += acc
    return total / len(last_locals)


@settings(max_examples=100, deadline=None)
@given(c=st.integers(1, 40), d=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_divergence_invariant_under_client_permutation(c, d, seed):
    # the per-client terms are the same numbers in another order; only the
    # summation order of their mean changes, which moves at most a few ulps
    rng = np.random.default_rng(seed)
    g = rng.normal(size=d)
    locals_ = rng.normal(scale=rng.uniform(0.1, 10.0), size=(c, d))
    perm = rng.permutation(c)
    assert divergence(g, locals_[perm]) == pytest.approx(divergence(g, locals_), rel=1e-13)


def test_divergence_matches_brute_force_100_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = int(rng.integers(1, 11))
        d = int(rng.integers(1, 11))
        g = rng.normal(size=d)
        locals_ = rng.normal(size=(c, d))
        assert divergence(g, locals_) == pytest.approx(
            brute_force_divergence(g, locals_), abs=1e-12
        )


def test_divergence_zero_when_identical():
    g = np.array([1.0, -2.0])
    assert divergence(g, np.stack([g, g, g])) == 0.0


def test_divergence_shape_validation():
    with pytest.raises(ValueError):
        divergence(np.zeros(3), np.zeros((2, 4)))


# -- cost accounting: every row of the table, exactly ---------------------------

TABLE = {
    # strategy -> (comm multiples of N*d, storage multiples of C*d)
    "fedavg": (1, 1),
    "fedadam": (1, 2),
    "fedsam": (1, 2),
    "scaffold": (2, 2),
    "feddyn": (1, 2),
    "fedcm": (2, 2),
    "fedinit": (1, 1),
}


@pytest.mark.parametrize("name,expected", TABLE.items())
def test_cost_table_rows(name, expected):
    comm_mult, storage_mult = expected
    c, n, d = 100, 10, 50
    rec = comm_storage_accounting(make_strategy(name), c, n, d)
    assert rec.comm_floats == comm_mult * n * d
    assert rec.comm_ratio == comm_mult
    assert rec.storage_floats == storage_mult * c * d
    assert rec.storage_ratio == storage_mult
    assert rec.bytes_down_per_round == rec.payloads_down * n * d * 8
    assert rec.bytes_up_per_round == rec.payloads_up * n * d * 8


def test_ri_composition_does_not_change_costs():
    for name in ("fedavg", "scaffold", "fedcm"):
        plain = comm_storage_accounting(make_strategy(name), 20, 5, 7)
        ri = comm_storage_accounting(make_strategy(name, beta=0.1), 20, 5, 7)
        assert (plain.comm_floats, plain.storage_floats) == (ri.comm_floats, ri.storage_floats)
        assert (plain.payloads_down, plain.payloads_up) == (ri.payloads_down, ri.payloads_up)


# -- smoothing --------------------------------------------------------------------

def test_moving_average_hand_values():
    out = moving_average([1.0, 2.0, 3.0, 4.0, 5.0], width=3)
    # edges truncate: [mean(1,2), mean(1,2,3), ..., mean(4,5)]
    np.testing.assert_allclose(out, [1.5, 2.0, 3.0, 4.0, 4.5])


def test_moving_average_width_one_is_identity():
    s = [3.0, 1.0, 2.0]
    np.testing.assert_array_equal(moving_average(s, width=1), s)


def test_moving_average_rejects_bad_width():
    with pytest.raises(ValueError):
        moving_average([1.0], width=0)


def test_smoothed_max_last_window():
    # spike at the start must be invisible to a window covering only the tail
    series = [100.0] + [0.0] * 60 + [1.0, 2.0, 3.0]
    got = smoothed_max_last(series, window=50, width=1)
    assert got == 3.0
    assert smoothed_max_last(series, window=len(series), width=1) == 100.0


def test_smoothed_max_smooths_single_spikes():
    series = [0.0] * 30 + [10.0] + [0.0] * 30
    assert smoothed_max_last(series, window=61, width=5) == pytest.approx(2.0)


def test_smoothed_max_empty_series_rejected():
    with pytest.raises(ValueError):
        smoothed_max_last([])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=80), st.integers(1, 9))
def test_moving_average_bounded_by_extremes(series, width):
    out = moving_average(series, width)
    assert out.min() >= min(series) - 1e-9
    assert out.max() <= max(series) + 1e-9


# -- csv text ----------------------------------------------------------------------

def _record(t):
    return RoundRecord(
        round=t, divergence=0.5 * t, grad_norm_sq=1.0, train_loss=2.0,
        test_loss=None, train_acc=None, test_acc=None,
        bytes_up=80, bytes_down=80, lr=0.1,
    )


def test_rounds_csv_layout():
    text = rounds_csv_text([_record(0), _record(1)], "abc123")
    lines = text.strip().split("\n")
    assert lines[0] == "# schema=1 config_hash=abc123"
    assert lines[1] == ",".join(CSV_HEADER)
    assert lines[2].startswith("0,0.0,1.0,2.0,,,")
    assert len(lines) == 4


def test_csv_text_with_own_columns_and_string_cells():
    rows = [{"axis": "strategy", "value": "fedcm", "seed": 3, "x": 0.1, "y": None},
            {"axis": "strategy", "value": "fedcm", "seed": "mean", "x": np.float64(0.25), "y": 2}]
    text = rounds_csv_text(rows, "h", columns=("axis", "value", "seed", "x", "y"))
    assert text == ("# schema=1 config_hash=h\naxis,value,seed,x,y\n"
                    "strategy,fedcm,3,0.1,\nstrategy,fedcm,mean,0.25,2\n")


def test_rounds_csv_deterministic():
    records = [_record(i) for i in range(3)]
    assert rounds_csv_text(records, "h") == rounds_csv_text(records, "h")


def test_round_record_round_trips_via_dict():
    rec = _record(2)
    assert RoundRecord(**rec.to_dict()) == rec
