"""Metric oracles: brute-force divergence, cost table, smoothing, CSV text."""
import dataclasses
import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrelax.core import HyperParams, Simulation
from fedrelax.datasets import make_blobs
from fedrelax.metrics import (
    CSV_HEADER,
    SMOOTHING_WIDTH,
    SMOOTHING_WINDOW,
    RoundRecord,
    comm_storage_accounting,
    divergence,
    rounds_csv_text,
    smoothed_max_last,
)
from fedrelax.models import LogisticRegression
from fedrelax.problems import DatasetProblem
from fedrelax.strategies import PAYLOADS, make_strategy


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
    spec = make_strategy(name)
    rec = comm_storage_accounting(spec, c, n, d)
    assert rec.comm_floats == comm_mult * n * d
    assert rec.comm_ratio == comm_mult
    assert rec.storage_floats == storage_mult * c * d
    assert rec.storage_ratio == storage_mult
    down, up = PAYLOADS[spec.kind]
    assert rec.bytes_down_per_round == down * n * d * 8
    assert rec.bytes_up_per_round == up * n * d * 8


def test_ri_composition_does_not_change_costs():
    for name in ("fedavg", "scaffold", "fedcm"):
        plain = comm_storage_accounting(make_strategy(name), 20, 5, 7)
        ri = comm_storage_accounting(make_strategy(name, beta=0.1), 20, 5, 7)
        assert (plain.comm_floats, plain.storage_floats) == (ri.comm_floats, ri.storage_floats)
        assert (plain.bytes_down_per_round, plain.bytes_up_per_round) == (ri.bytes_down_per_round,
                                                                          ri.bytes_up_per_round)


# -- smoothing --------------------------------------------------------------------

def reference_smoothed_max(series):
    """The summary's smoothed accuracy as a plain loop: 5-point centred means, each
    over the entries that exist, then the largest of the last 50 of them."""
    means = []
    for i in range(len(series)):
        window = series[max(0, i - 2):i + 3]
        total = 0.0
        for v in window:
            total += v
        means.append(total / len(window))
    return max(means[-50:])


@functools.cache
def _simulation():
    train, test = make_blobs(8, 2, 2, seed=0, n_test=4)
    return Simulation(DatasetProblem(LogisticRegression(2), [train], test), make_strategy("fedavg"),
                      HyperParams(eta=0.1, rounds=1, n_active=1, k_local=1), seed=0)


def summarized(series) -> dict:
    """The smoothed_max_test_acc entry of a summary whose records hold series as test accuracies."""
    sim = _simulation()
    sim.records = [dataclasses.replace(_record(t), test_acc=a) for t, a in enumerate(series)]
    return sim.build_summary()["smoothed_max_test_acc"]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=130))
def test_summary_value_is_the_reference_loop_bit_for_bit(series):
    want = bits(reference_smoothed_max(series))
    assert bits(smoothed_max_last(series)) == want
    assert bits(summarized(series)["value"]) == want


def test_summary_echoes_the_window_and_width_it_computed_with():
    assert (SMOOTHING_WINDOW, SMOOTHING_WIDTH) == (50, 5)  # the reference loop's 50 and 5
    entry = summarized([0.5] * 60)
    assert (entry["window"], entry["kernel_width"]) == (SMOOTHING_WINDOW, SMOOTHING_WIDTH)


def test_smoothed_max_truncates_the_window_at_the_ends():
    # the last means are over (0, 0, 10), (0, 0, 0, 10) and (0, 0, 0, 0, 10)
    assert smoothed_max_last([0.0, 0.0, 0.0, 0.0, 10.0]) == 10.0 / 3.0


def test_smoothed_max_of_a_constant_series_is_the_constant():
    for n in (1, 4, 49, 50, 51, 120):
        assert smoothed_max_last([0.75] * n) == 0.75


def test_smoothed_max_reads_only_the_last_50_rounds():
    # the spike's means sit in the first 14 of 64 rounds, outside the window
    series = [100.0] + [0.0] * 60 + [1.0, 2.0, 3.0]
    assert smoothed_max_last(series) == 2.0  # mean(1, 2, 3)


def test_smoothed_max_reads_every_round_of_a_run_shorter_than_50():
    for n in (1, 3, 49, 50):
        series = [100.0] + [0.0] * (n - 1)
        assert smoothed_max_last(series) == 100.0 / min(n, 3)
    assert smoothed_max_last([100.0] + [0.0] * 50) == 25.0  # round 0 is out; round 1 reads mean(100, 0, 0, 0)


def test_smoothed_max_smooths_single_spikes():
    series = [0.0] * 30 + [10.0] + [0.0] * 30
    assert smoothed_max_last(series) == pytest.approx(2.0)


def test_smoothed_max_takes_no_window_or_width():
    for knob in ({"window": 0}, {"window": -2}, {"width": 4}):
        with pytest.raises(TypeError):
            smoothed_max_last([1.0, 2.0], **knob)


def test_smoothed_max_empty_series_rejected():
    with pytest.raises(ValueError):
        smoothed_max_last([])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=80))
def test_smoothed_max_bounded_by_extremes(series):
    out = smoothed_max_last(series)
    assert min(series) - 1e-9 <= out <= max(series) + 1e-9


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
