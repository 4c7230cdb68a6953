"""On-disk run artifacts: checkpoints and report JSON.

Every writer goes through an atomic temp-file + fsync + rename so a crash
mid-write never leaves a truncated artifact.  Checkpoints are JSON: parameter
vectors as base64 little-endian float64, generator states as their native
state dicts, so a resumed run continues bit-for-bit where the original would
have gone.

Checkpoint layout (version 2): ``seed``, ``round``, ``config_hash``,
``global_params`` and the server's ``server_aux`` vectors and ``server_rng``
state; the client population as whole matrices, ``last_local`` (C, d) and
``client_aux`` with one (C, d) matrix per auxiliary key; ``client_rngs``
mapping a client id to its generator state, for the generators created so far
only (a client that never drew is at its seeded start and needs no entry);
and ``records``, the rounds run so far.  Keys are sorted at every level; an
array is ``{"data": <base64>, "dtype": "float64", "shape": [...]}``.  Files of
another version are refused.

A checkpoint is encoded in one pass: ``json.dumps`` writes everything but the
array data and the records, with a placeholder where each array's base64 text
goes, and each array is base64-encoded once, straight from its buffer, and
spliced in at its placeholder.  Base64 holds no character JSON escapes, so the
file is the one ``json.dumps`` of the whole payload would write.  Each record's
JSON text is kept once encoded, and the records list is spliced in from those
texts, so a save encodes only the records added since the one before.
``restore_simulation`` refuses a payload that does not fit the run with a
ValueError naming the field: a wrong shape, type or key set, data that is not
base64 of the shape's byte count, a non-finite array entry, a record value that
is not a number where one belongs (or not finite in a metrics.FINITE_COLUMNS
column), a record column that differs from what the run fixes for its round
(Simulation.fixed_columns), or a metric outside its range (_METRIC_RANGES).
"""
from __future__ import annotations

import base64
import binascii
import json
import math
import os
import tempfile
from dataclasses import fields

import numpy as np

from . import strategies as strat
from .metrics import FINITE_COLUMNS, RoundRecord

CHECKPOINT_VERSION = 2


# -- low-level helpers --------------------------------------------------------

def _atomic_write(path, chunks) -> None:
    """Write the byte chunks to path through a temp file, fsync and rename."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, [text.encode("utf-8")])


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_json(path, obj) -> None:
    """Write obj as JSON; NaN and infinities are refused, as JSON has no token for them."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
    atomic_write_text(path, text + "\n")


def decode_array(d, field: str) -> np.ndarray:
    """The float64 array of a checkpoint entry; ValueError naming field if it is malformed."""
    if not isinstance(d, dict):
        raise ValueError(f"checkpoint {field} must be an array object, got {type(d).__name__}")
    if d.get("dtype") != "float64":
        raise ValueError(f"checkpoint {field} has unsupported array dtype {d.get('dtype')!r}")
    shape, data = d.get("shape"), d.get("data")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"checkpoint {field} shape must be a list of sizes, got {shape!r}")
    if not isinstance(data, str):
        raise ValueError(f"checkpoint {field} lacks its base64 data string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"checkpoint {field} data is not base64: {e}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"checkpoint {field} data holds {len(raw)} bytes, "
                         f"shape {shape} needs {8 * math.prod(shape)}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise ValueError(f"checkpoint {field} holds non-finite entries")
    return a


def rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.default_rng(0)
    gen.bit_generator.state = state
    return gen


# -- checkpoints ---------------------------------------------------------------

def _record_texts(sim) -> list[str]:
    """The JSON text of each of sim's records, as json.dumps writes it inside the
    payload, kept on sim once encoded (sim.record_texts)."""
    kept, records = sim.record_texts, sim.records
    if len(kept) > len(records) or (kept and kept[-1][0] is not records[len(kept) - 1]):
        kept.clear()  # the records were replaced
    kept += [(r, json.dumps(r.to_dict(), sort_keys=True)) for r in records[len(kept):]]
    return [text for _, text in kept]


def save_checkpoint(path, sim, config_hash: str | None = None) -> None:
    """Write sim's state to path in one encoding pass (see the module docstring)."""
    arrays = []

    def array_slot(o):
        if isinstance(o, np.ndarray):
            a = np.ascontiguousarray(o, dtype="<f8")
            arrays.append(a)  # the encoder calls this in output order
            return {"data": "\x00", "dtype": "float64", "shape": list(a.shape)}
        return _json_default(o)

    payload = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash if config_hash is not None else sim.config_hash,
        "seed": sim.seed,
        "round": sim.server.round,
        "global_params": sim.server.global_params,
        "server_aux": sim.server.aux,
        "server_rng": rng_state(sim.server.rng),
        "last_local": sim.last_local,
        "client_aux": sim.client_aux,
        "client_rngs": {str(i): rng_state(g) for i, g in enumerate(sim.client_rngs) if g is not None},
        "records": "\x01",
    }
    # the records list is spliced in from each record's kept text, at the only
    # string that dumps as "\u0001"
    text = json.dumps(payload, sort_keys=True, default=array_slot).replace(
        '"records": "\\u0001"', '"records": [' + ", ".join(_record_texts(sim)) + "]", 1)
    # only an array's "data" entry dumps as this text: other strings escape their
    # quotes, and no other "data" key exists in the payload
    parts = text.encode("ascii").split(b'"data": "\\u0000"')
    chunks = [parts[0]]
    for a, rest in zip(arrays, parts[1:]):
        chunks += [b'"data": "', binascii.b2a_base64(a, newline=False), b'"', rest]
    _atomic_write(path, chunks)


def load_checkpoint(path) -> dict:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} must hold a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    return payload


_PAYLOAD_FIELDS = ("seed", "round", "global_params", "server_aux", "server_rng",
                   "last_local", "client_aux", "client_rngs", "records")

# record column -> (holds an int, may be null), read off RoundRecord's annotations
_RECORD_COLUMNS = {f.name: (f.type == "int", "None" in f.type) for f in fields(RoundRecord)}

# the closed interval no recorded metric leaves; NaN stays where the type check admits it
_METRIC_RANGES = {**dict.fromkeys(("divergence", "grad_norm_sq", "train_loss", "test_loss"), (0.0, math.inf)),
                  "train_acc": (0.0, 1.0), "test_acc": (0.0, 1.0)}


def _check_type(field: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise ValueError(f"checkpoint {field} must be a JSON {kind.__name__}, got {type(value).__name__}")


def _check_shape(field: str, a: np.ndarray, shape: tuple, what: str) -> None:
    if a.shape != shape:
        raise ValueError(f"checkpoint {field} has shape {a.shape}, expected {shape} ({what})")


def _decode_aux(field: str, saved, expected: dict, spec, shape: tuple, what: str) -> dict:
    """Decode a checkpoint's aux arrays after checking them against the strategy's."""
    _check_type(field, saved, dict)
    if set(saved) != set(expected):
        raise ValueError(
            f"checkpoint {field} keys {sorted(saved)} do not match strategy "
            f"{spec.name!r}, which keeps {sorted(expected)}"
        )
    out = {k: decode_array(v, f"{field}[{k!r}]") for k, v in saved.items()}
    for k, v in out.items():
        _check_shape(f"{field}[{k!r}]", v, shape, what)
    return out


def _decode_rng(field: str, state) -> np.random.Generator:
    try:
        return restore_rng(state)
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise ValueError(f"checkpoint {field} is not a generator state ({e})") from None


def _decode_record(r, fixed: dict) -> RoundRecord:
    """The record of round fixed["round"], refused unless it has exactly RoundRecord's
    columns, each of its type, the fixed columns' values and every metric in its range."""
    field = f"records[{fixed['round']}]"
    _check_type(field, r, dict)
    if set(r) != set(_RECORD_COLUMNS):
        raise ValueError(f"checkpoint {field} keys {sorted(r)} are not the record "
                         f"columns {sorted(_RECORD_COLUMNS)}")
    for k, (integer, nullable) in _RECORD_COLUMNS.items():
        v, finite = r[k], k in FINITE_COLUMNS
        if (v is None and nullable) or type(v) is int:
            continue
        if not integer and type(v) is float and not (finite and not math.isfinite(v)):
            continue
        want = ("an int" if integer else "a finite number" if finite else "a number") + (
            " or null" if nullable else "")
        raise ValueError(f"checkpoint {field}.{k} must be {want}, got {v!r}")
    for k, v in fixed.items():
        if r[k] != v:
            raise ValueError(f"checkpoint {field}.{k} is {r[k]!r}, expected {v!r}")
    for k, (lo, hi) in _METRIC_RANGES.items():
        if r[k] is not None and (r[k] < lo or r[k] > hi):
            raise ValueError(f"checkpoint {field}.{k} is {r[k]!r}, outside [{lo}, {hi}]")
    return RoundRecord(**r)


def restore_simulation(
    problem,
    spec,
    hp,
    payload: dict,
    *,
    expect_config_hash: str | None = None,
):
    """Rebuild a Simulation mid-run from a checkpoint payload; a payload that
    does not fit the problem, strategy and hyperparameters is refused as the
    module docstring says."""
    from .core import Simulation

    saved_hash = payload.get("config_hash")
    if saved_hash is not None:
        _check_type("config_hash", saved_hash, str)
    if expect_config_hash is not None and saved_hash != expect_config_hash:
        saved = "null" if saved_hash is None else f"{saved_hash[:12]}…"
        raise ValueError(f"checkpoint config_hash {saved} belongs to a different configuration "
                         f"(expected {expect_config_hash[:12]}…)")
    missing = [k for k in _PAYLOAD_FIELDS if k not in payload]
    if missing:
        raise ValueError(f"checkpoint lacks the fields {missing}")
    c, d = problem.n_clients, problem.dim
    population = f"{c} clients of dimension {d}"
    global_params = decode_array(payload["global_params"], "global_params")
    _check_shape("global_params", global_params, (d,), f"dimension {d}")
    last_local = decode_array(payload["last_local"], "last_local")
    _check_shape("last_local", last_local, (c, d), population)
    server_aux = _decode_aux("server_aux", payload["server_aux"], strat.init_server_aux(spec, d),
                             spec, (d,), f"dimension {d}")
    client_aux = _decode_aux("client_aux", payload["client_aux"], strat.init_client_aux(spec, d),
                             spec, (c, d), population)
    seed, rnd, records = payload["seed"], payload["round"], payload["records"]
    if type(seed) is not int or seed < 0:
        raise ValueError(f"checkpoint seed must be a non-negative int, got {seed!r}")
    if type(rnd) is not int or not 0 <= rnd <= hp.rounds:
        raise ValueError(f"checkpoint round {rnd!r} is not an int in [0, {hp.rounds}]")
    _check_type("records", records, list)
    if len(records) != rnd:
        raise ValueError(f"checkpoint has {len(records)} records for round {rnd}")
    sim = Simulation(problem, spec, hp, seed)
    records = [_decode_record(r, sim.fixed_columns(i)) for i, r in enumerate(records)]
    server_rng = _decode_rng("server_rng", payload["server_rng"])
    _check_type("client_rngs", payload["client_rngs"], dict)
    # only the ids the writer spells, str(i): "01" or a full-width digit would
    # otherwise load as another key's client
    bad = [k for k in payload["client_rngs"] if not (k.isdecimal() and int(k) < c and k == str(int(k)))]
    if bad:
        raise ValueError(f"checkpoint client_rngs ids {bad} are not client ids in [0, {c})")
    client_rngs = {int(k): _decode_rng(f"client_rngs[{k!r}]", state)
                   for k, state in payload["client_rngs"].items()}

    sim.server.round = rnd
    sim.server.global_params = global_params
    sim.server.aux = server_aux
    sim.server.rng = server_rng
    sim.last_local = last_local
    sim.client_aux = client_aux
    for i, gen in client_rngs.items():
        sim.client_rngs[i] = gen
    sim.records = records
    sim.config_hash = saved_hash
    return sim
