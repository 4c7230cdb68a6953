"""Artifact round-trips: arrays, generator states, checkpoints, atomic writes."""
import base64
import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrelax.artifacts import (
    CHECKPOINT_VERSION,
    atomic_write_text,
    decode_array,
    load_checkpoint,
    restore_rng,
    restore_simulation,
    rng_state,
    save_checkpoint,
    write_json,
)
from fedrelax.core import DivergedError, HyperParams, Simulation, run_experiment
from fedrelax.datasets import dirichlet_partition, make_blobs, shard_dataset
from fedrelax.metrics import RoundRecord, rounds_csv_text
from fedrelax.models import LogisticRegression
from fedrelax.problems import DatasetProblem, QuadraticProblem
from fedrelax.quadratics import QuadraticFamily, make_quadratic_family
from fedrelax.strategies import compose_ri, make_strategy


def encode_array(a: np.ndarray) -> dict:
    """Reference: an array's checkpoint entry as one dict, base64 through an ASCII str."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "dtype": "float64",
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def reference_checkpoint_bytes(sim, config_hash=None) -> bytes:
    """Reference: the whole payload, arrays as encode_array dicts, through one json.dumps."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash if config_hash is not None else getattr(sim, "config_hash", None),
        "seed": sim.seed,
        "round": sim.server.round,
        "global_params": encode_array(sim.server.global_params),
        "server_aux": {k: encode_array(v) for k, v in sim.server.aux.items()},
        "server_rng": rng_state(sim.server.rng),
        "last_local": encode_array(sim.last_local),
        "client_aux": {k: encode_array(v) for k, v in sim.client_aux.items()},
        "client_rngs": {str(i): rng_state(g) for i, g in enumerate(sim.client_rngs) if g is not None},
        "records": [r.to_dict() for r in sim.records],
    }
    return json.dumps(payload, sort_keys=True, default=lambda o: o.item()).encode("utf-8")


def test_encode_decode_array_bitwise():
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 4), (1,), (5, 1, 2)]:
        a = rng.normal(size=shape)
        d = encode_array(a)
        back = decode_array(json.loads(json.dumps(d)), "global_params")  # survives JSON transport
        assert back.shape == a.shape
        assert np.array_equal(back, a)
        assert back.dtype == np.float64


def test_decode_rejects_foreign_dtype():
    with pytest.raises(ValueError, match="checkpoint last_local has unsupported array dtype 'float32'"):
        decode_array({"dtype": "float32", "shape": [1], "data": ""}, "last_local")


def test_rng_state_round_trip_continues_stream():
    gen = np.random.default_rng(42)
    gen.normal(size=10)
    state = json.loads(json.dumps(rng_state(gen)))  # through JSON like a checkpoint
    expected = gen.normal(size=5)
    resumed = restore_rng(state)
    np.testing.assert_array_equal(resumed.normal(size=5), expected)


def blob_problem():
    train, test = make_blobs(200, 4, 2, seed=1, n_test=50)
    shards = shard_dataset(train, dirichlet_partition(train.y, 5, 1.0, seed=1))
    return DatasetProblem(LogisticRegression(4), shards, test)


def make_sim(problem, rounds=8):
    spec = make_strategy("scaffold", beta=0.1)
    hp = HyperParams(eta=0.3, rounds=rounds, n_active=3, k_local=3, batch_size=16)
    return Simulation(problem, spec, hp, seed=4)


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    problem = blob_problem()
    full = make_sim(problem)
    for _ in range(8):
        full.step()

    first = make_sim(problem)
    for _ in range(5):
        first.step()
    path = tmp_path / "ck.json"
    save_checkpoint(path, first, config_hash="abc123" + "0" * 58)

    payload = load_checkpoint(path)
    assert payload["round"] == 5
    resumed = restore_simulation(
        problem, first.spec, first.hp, payload,
        expect_config_hash="abc123" + "0" * 58,
    )
    for _ in range(3):
        resumed.step()

    assert np.array_equal(resumed.server.global_params, full.server.global_params)
    assert np.array_equal(resumed.last_local, full.last_local)
    assert resumed.client_aux.keys() == full.client_aux.keys() == {"control"}
    for k in resumed.client_aux:
        assert np.array_equal(resumed.client_aux[k], full.client_aux[k])
    assert [r.to_dict() for r in resumed.records] == [r.to_dict() for r in full.records]
    assert resumed.config_hash == "abc123" + "0" * 58


def test_checkpoint_hash_mismatch_refused(tmp_path):
    problem = blob_problem()
    sim = make_sim(problem)
    sim.step()
    path = tmp_path / "ck.json"
    save_checkpoint(path, sim, config_hash="a" * 64)
    payload = load_checkpoint(path)
    with pytest.raises(ValueError, match="different configuration"):
        restore_simulation(problem, sim.spec, sim.hp, payload, expect_config_hash="b" * 64)
    # no expectation, or no saved hash: accepted
    restore_simulation(problem, sim.spec, sim.hp, payload)


def test_checkpoint_version_refused(tmp_path):
    path = tmp_path / "ck.json"
    for version in (1, CHECKPOINT_VERSION + 1):  # 1: the per-client layout
        atomic_write_text(path, json.dumps({"version": version}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


def test_checkpoint_client_count_mismatch(tmp_path):
    problem = blob_problem()
    sim = make_sim(problem)
    sim.step()
    path = tmp_path / "ck.json"
    save_checkpoint(path, sim)
    payload = load_checkpoint(path)
    train, test = make_blobs(120, 4, 2, seed=2, n_test=30)
    other = DatasetProblem(
        LogisticRegression(4),
        shard_dataset(train, dirichlet_partition(train.y, 3, 1.0, seed=2)),
        test,
    )
    hp3 = HyperParams(eta=0.3, rounds=8, n_active=3, k_local=3, batch_size=16)
    with pytest.raises(ValueError, match="clients"):
        restore_simulation(other, sim.spec, hp3, payload)


def _grow(p, field, axis):
    """Replace a saved array by zeros one longer along axis."""
    shape = list(p[field]["shape"])
    shape[axis] += 1
    p[field] = encode_array(np.zeros(shape))


def _poison(entry, value):
    """Set the first entry of a saved array to value."""
    a = decode_array(entry, "entry").copy()
    a.flat[0] = value
    entry.update(encode_array(a))


# each edit breaks one consistency check of a valid scaffold checkpoint
# (8 rounds, saved after round 2); an edit that is not callable replaces the
# whole payload
BAD_PAYLOADS = {
    "top_level_list": ([1, 2], "must hold a JSON object, got list"),
    "global_params": (lambda p: _grow(p, "global_params", 0), "global_params"),
    "last_local_clients": (lambda p: _grow(p, "last_local", 0), "last_local"),
    "last_local_dim": (lambda p: _grow(p, "last_local", 1), "last_local"),
    "client_aux_shape": (lambda p: _grow(p["client_aux"], "control", 0),
                         r"client_aux\['control'\]"),
    "client_aux_keys": (lambda p: p["client_aux"].update(dual=p["client_aux"]["control"]),
                        "client_aux keys"),
    "server_aux_keys": (lambda p: p["server_aux"].pop("control"), "server_aux keys"),
    "server_aux_shape": (lambda p: _grow(p["server_aux"], "control", 0),
                         r"server_aux\['control'\]"),
    "round_negative": (lambda p: p.update(round=-1, records=[]), "round -1"),
    "round_past_end": (lambda p: p.update(round=9, records=p["records"] * 5), "round 9"),
    "records": (lambda p: p["records"].pop(), "1 records for round 2"),
    "client_rngs_id": (lambda p: p["client_rngs"].update({"5": p["server_rng"]}), "client_rngs"),
    "client_rngs_negative_id": (lambda p: p["client_rngs"].update({"-1": p["server_rng"]}),
                                "client_rngs"),
    # ids spelled other than str(i) would load as client i, beside or instead of "i"
    "client_rngs_leading_zero": (lambda p: p["client_rngs"].update({"01": p["server_rng"]}),
                                 "client_rngs"),
    "client_rngs_full_width_digit": (lambda p: p["client_rngs"].update({"\uff12": p["server_rng"]}),
                                     "client_rngs"),
    "missing_field": (lambda p: p.pop("last_local"), r"lacks the fields \['last_local'\]"),
    # no run saves a non-finite model or state: it stops when the next round evaluates it
    "global_params_nan": (lambda p: _poison(p["global_params"], np.nan), "global_params holds non-finite"),
    "last_local_inf": (lambda p: _poison(p["last_local"], np.inf), "last_local holds non-finite"),
    "client_aux_inf": (lambda p: _poison(p["client_aux"]["control"], -np.inf),
                       r"client_aux\['control'\] holds non-finite"),
    "server_aux_nan": (lambda p: _poison(p["server_aux"]["control"], np.nan),
                       r"server_aux\['control'\] holds non-finite"),
    # a record's lr and traffic follow from the run; no metric leaves its range
    "record_lr": (lambda p: p["records"][1].update(lr=123.0), r"records\[1\]\.lr is 123\.0, expected 0\.3"),
    "record_bytes_up": (lambda p: p["records"][0].update(bytes_up=-5), r"records\[0\]\.bytes_up is -5"),
    "record_bytes_down": (lambda p: p["records"][1].update(bytes_down=p["records"][1]["bytes_up"] + 8),
                          r"records\[1\]\.bytes_down"),
    "record_divergence": (lambda p: p["records"][1].update(divergence=-1.0),
                          r"records\[1\]\.divergence is -1\.0, outside \[0\.0, inf\]"),
    "record_test_loss": (lambda p: p["records"][0].update(test_loss=-math.inf), r"records\[0\]\.test_loss"),
    "record_grad_norm_sq": (lambda p: p["records"][0].update(grad_norm_sq=-0.5), r"records\[0\]\.grad_norm_sq"),
    "record_test_acc": (lambda p: p["records"][0].update(test_acc=2.0),
                        r"records\[0\]\.test_acc is 2\.0, outside \[0\.0, 1\.0\]"),
    "record_train_acc_inf": (lambda p: p["records"][1].update(train_acc=math.inf), r"records\[1\]\.train_acc"),
}


@pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
def test_inconsistent_checkpoint_refused_naming_the_field(tmp_path, case):
    problem = blob_problem()
    sim = make_sim(problem)
    sim.step()
    sim.step()
    path = tmp_path / "ck.json"
    save_checkpoint(path, sim)
    payload = load_checkpoint(path)
    restore_simulation(problem, sim.spec, sim.hp, copy.deepcopy(payload))  # valid as saved
    edit, match = BAD_PAYLOADS[case]
    if callable(edit):
        edit(payload)
    else:
        payload = edit
    atomic_write_text(path, json.dumps(payload))
    with pytest.raises(ValueError, match=match):  # the file goes the way of --resume
        restore_simulation(problem, sim.spec, sim.hp, load_checkpoint(path))


ROUND_TRIP_STRATEGIES = {
    "fedavg": lambda: make_strategy("fedavg"),
    "fedinit": lambda: make_strategy("fedinit", beta=0.1),
    "scaffold+ri": lambda: compose_ri(make_strategy("scaffold"), 0.05),
    "feddyn": lambda: make_strategy("feddyn"),
    "fedadam": lambda: make_strategy("fedadam"),
    "fedcm": lambda: make_strategy("fedcm"),
}
ROUND_TRIP_ROUNDS = 6


def _round_trip_problem(kind):
    if kind == "noisy-quadratic":
        fam = make_quadratic_family(6, 3, spread=1.0, cond=4.0, seed=2)
        hp = HyperParams(eta=0.1, rounds=ROUND_TRIP_ROUNDS, n_active=3, k_local=2)
        return QuadraticProblem(fam, grad_noise=0.3), hp
    hp = HyperParams(eta=0.3, rounds=ROUND_TRIP_ROUNDS, n_active=3, k_local=3, batch_size=8)
    return blob_problem(), hp


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(ROUND_TRIP_STRATEGIES)),
    kind=st.sampled_from(["noisy-quadratic", "blobs-minibatch"]),
    stop=st.integers(0, ROUND_TRIP_ROUNDS),
    seed=st.integers(0, 2**16),
)
def test_checkpoint_round_trip_property(tmp_path_factory, name, kind, stop, seed):
    problem, hp = _round_trip_problem(kind)
    spec = ROUND_TRIP_STRATEGIES[name]()
    full = Simulation(problem, spec, hp, seed)
    full.run()

    first = Simulation(problem, spec, hp, seed)
    for _ in range(stop):
        first.step()
    d = tmp_path_factory.mktemp("ck")
    path, resaved = d / "ck.json", d / "again.json"
    save_checkpoint(path, first)
    resumed = restore_simulation(problem, spec, hp, load_checkpoint(path))
    save_checkpoint(resaved, resumed)
    assert resaved.read_bytes() == path.read_bytes()
    resumed.run()

    assert np.array_equal(resumed.server.global_params, full.server.global_params)
    assert np.array_equal(resumed.last_local, full.last_local)
    assert resumed.client_aux.keys() == full.client_aux.keys()
    for k in full.client_aux:
        assert np.array_equal(resumed.client_aux[k], full.client_aux[k])
    for k in full.server.aux:
        assert np.array_equal(resumed.server.aux[k], full.server.aux[k])
    assert rounds_csv_text(resumed.records, "h") == rounds_csv_text(full.records, "h")


# every aux key a checkpoint can hold: control (both sides), dual, m and v, momentum
ORACLE_STRATEGIES = ("fedinit", "scaffold", "feddyn", "fedadam", "fedcm")


@pytest.mark.parametrize("name", ORACLE_STRATEGIES)
@pytest.mark.parametrize("dim", [1, 2, 3])  # 5 clients: arrays of 8d and 40d bytes, every residue mod 3
@pytest.mark.parametrize("noise", [0.0, 0.3])  # with 0.3 the clients that trained keep generators
@pytest.mark.parametrize("stop", [0, 3])
def test_checkpoint_bytes_match_reference_encoder(tmp_path, name, dim, noise, stop):
    fam = make_quadratic_family(5, dim, spread=1.0, cond=4.0, seed=dim)
    hp = HyperParams(eta=0.1, rounds=6, n_active=3, k_local=2)
    spec = make_strategy(name, beta=0.1)
    sim = Simulation(QuadraticProblem(fam, grad_noise=noise), spec, hp, seed=7)
    for _ in range(stop):
        sim.step()
    assert any(g is not None for g in sim.client_rngs) == (noise > 0 and stop > 0)
    path, resaved = tmp_path / "ck.json", tmp_path / "again.json"
    save_checkpoint(path, sim, config_hash="c" * 64)
    assert path.read_bytes() == reference_checkpoint_bytes(sim, "c" * 64)
    restored = restore_simulation(sim.problem, spec, hp, load_checkpoint(path))
    save_checkpoint(resaved, restored)
    assert resaved.read_bytes() == path.read_bytes()


def test_a_save_encodes_only_the_records_added_since_the_last(tmp_path, monkeypatch):
    encoded = []
    to_dict = RoundRecord.to_dict
    monkeypatch.setattr(RoundRecord, "to_dict", lambda r: encoded.append(r.round) or to_dict(r))
    fam = make_quadratic_family(5, 3, spread=1.0, cond=4.0, seed=1)
    hp = HyperParams(eta=0.1, rounds=8, n_active=3, k_local=2)
    spec = make_strategy("scaffold", beta=0.1)
    sim = Simulation(QuadraticProblem(fam, grad_noise=0.1), spec, hp, seed=7)
    path = tmp_path / "ck.json"
    per_save = []
    for rounds in (0, 3, 3, 5, 8):
        while sim.server.round < rounds:
            sim.step()
        encoded.clear()
        save_checkpoint(path, sim, config_hash="c" * 64)
        per_save.append(list(encoded))
        encoded.clear()
        assert path.read_bytes() == reference_checkpoint_bytes(sim, "c" * 64)
    assert per_save == [[], [0, 1, 2], [], [3, 4], [5, 6, 7]]
    # a restored simulation encodes its records on its first save, then only new ones
    restored = restore_simulation(sim.problem, spec, hp, load_checkpoint(path))
    encoded.clear()
    save_checkpoint(tmp_path / "again.json", restored, config_hash="c" * 64)
    assert encoded == list(range(8))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    # records replaced wholesale are encoded afresh
    sim.records = sim.records[:4]
    sim.server.round = 4
    encoded.clear()
    save_checkpoint(path, sim, config_hash="c" * 64)
    assert encoded == [0, 1, 2, 3]
    assert path.read_bytes() == reference_checkpoint_bytes(sim, "c" * 64)


def test_checkpoint_with_an_infinite_grad_norm_resumes(tmp_path):
    # on this 1-D quadratic grad_norm_sq (~A^2 w^2) overflows a round before the train loss does
    fam = QuadraticFamily(np.full((2, 1, 1), 10.0), np.array([[0.0], [1.0]]))
    hp = HyperParams(eta=1.0, rounds=400, n_active=2, k_local=1)
    spec = make_strategy("fedavg")
    full, first = (Simulation(QuadraticProblem(fam), spec, hp, seed=0) for _ in range(2))
    while math.isfinite(first.step().grad_norm_sq):
        pass
    path = tmp_path / "ck.json"
    save_checkpoint(path, first)
    assert b'"grad_norm_sq": Infinity' in path.read_bytes()
    resumed = restore_simulation(first.problem, spec, hp, load_checkpoint(path))
    assert rounds_csv_text(resumed.records, "h") == rounds_csv_text(first.records, "h")
    for sim in (full, resumed):
        with pytest.raises(DivergedError, match=f"round {first.server.round}:"):
            while True:
                sim.step()
    assert rounds_csv_text(resumed.records, "h") == rounds_csv_text(full.records, "h")
    assert "inf" in rounds_csv_text(full.records, "h")


def test_no_batch_randomness_checkpoints_no_client_streams(tmp_path):
    quad = QuadraticProblem(make_quadratic_family(6, 3, seed=2))
    data = blob_problem()
    for problem, hp in (
        (quad, HyperParams(eta=0.1, rounds=3, n_active=3, k_local=2)),
        (data, HyperParams(eta=0.3, rounds=3, n_active=3, k_local=2)),  # full batches
    ):
        sim = Simulation(problem, make_strategy("scaffold", beta=0.1), hp, seed=1)
        sim.run(checkpoint_every=1, checkpoint_path=tmp_path / "ck.json")
        assert sim.client_rngs == [None] * problem.n_clients  # no client generator was created
        assert load_checkpoint(tmp_path / "ck.json")["client_rngs"] == {}


def _largest_collection(obj) -> int:
    if isinstance(obj, dict):
        return max([len(obj)] + [_largest_collection(v) for v in obj.values()])
    if isinstance(obj, list):
        return max([len(obj)] + [_largest_collection(v) for v in obj])
    return 0


def test_population_checkpoint_is_matrix_sized(tmp_path):
    # a per-client layout (one entry per client) would fail both assertions
    c, d = 1000, 5
    problem = QuadraticProblem(make_quadratic_family(c, d, cond=10.0, seed=0))
    hp = HyperParams(eta=0.01, rounds=3, n_active=100, k_local=2)
    sim = Simulation(problem, make_strategy("fedinit", beta=0.1), hp, seed=0)
    path = tmp_path / "ck.json"
    sim.run(checkpoint_every=3, checkpoint_path=path)
    assert _largest_collection(load_checkpoint(path)) < c
    base64_matrix = math.ceil(c * d * 8 / 3) * 4
    assert path.stat().st_size <= base64_matrix + 64 * 1024


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "sub" / "file.txt"
    atomic_write_text(target, "hello")
    assert target.read_text() == "hello"
    atomic_write_text(target, "replaced")
    assert target.read_text() == "replaced"
    leftovers = [p for p in os.listdir(tmp_path / "sub") if p != "file.txt"]
    assert leftovers == []


def test_write_json_sorted_and_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    obj = {"b": np.float64(1.5), "a": np.array([1.0, 2.0]), "c": np.int64(3)}
    write_json(p1, obj)
    write_json(p2, {"c": np.int64(3), "a": np.array([1.0, 2.0]), "b": np.float64(1.5)})
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert list(loaded) == ["a", "b", "c"]
    assert loaded["a"] == [1.0, 2.0]
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(tmp_path / "c.json", {"x": object()})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_write_json_refuses_non_finite(tmp_path, bad):
    target = tmp_path / "r.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(target, {"final": {"train_loss": bad}})
    assert os.listdir(tmp_path) == []  # no file, no temp file


def test_rounds_csv_and_summary_files(tmp_path):
    problem = blob_problem()
    spec = make_strategy("fedavg")
    hp = HyperParams(eta=0.2, rounds=3, n_active=2, k_local=2)
    res = run_experiment(problem, spec, hp, seed=0)
    csv_path = tmp_path / "rounds.csv"
    atomic_write_text(csv_path, rounds_csv_text(res.records, "f" * 64))
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#") and "f" * 64 in lines[0]
    assert lines[1].startswith("round,")
    assert len(lines) == 2 + 3
