"""On-disk run artifacts: checkpoints and report JSON.

Every writer goes through an atomic temp-file + rename so a crash mid-write
never leaves a truncated artifact.  Checkpoints are JSON: parameter vectors as
base64 little-endian float64, generator states as their native state dicts,
so a resumed run continues bit-for-bit where the original would have gone.

Checkpoint layout (version 2): ``seed``, ``round``, ``config_hash``,
``global_params`` and the server's ``server_aux`` vectors and ``server_rng``
state; the client population as whole matrices, ``last_local`` (C, d) and
``client_aux`` with one (C, d) matrix per auxiliary key; ``client_rngs``
mapping a client id to its generator state, for the generators created so far
only (a client that never drew is at its seeded start and needs no entry);
and ``records``, the rounds run so far.  Files of another version are refused.
"""
from __future__ import annotations

import base64
import json
import os
import tempfile

import numpy as np

from . import strategies as strat
from .metrics import RoundRecord

CHECKPOINT_VERSION = 2


# -- low-level helpers --------------------------------------------------------

def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "dtype": "float64",
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(d: dict) -> np.ndarray:
    if d.get("dtype") != "float64":
        raise ValueError(f"unsupported array dtype {d.get('dtype')!r}")
    raw = base64.b64decode(d["data"])
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return a.reshape(d["shape"])


def rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.default_rng(0)
    gen.bit_generator.state = state
    return gen


# -- checkpoints ---------------------------------------------------------------

def save_checkpoint(path, sim, config_hash: str | None = None) -> None:
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
    atomic_write_text(path, json.dumps(payload, sort_keys=True, default=_json_default))


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


def _check_shape(field: str, a: np.ndarray, shape: tuple, what: str) -> None:
    if a.shape != shape:
        raise ValueError(f"checkpoint {field} has shape {a.shape}, expected {shape} ({what})")


def _decode_aux(field: str, saved: dict, expected: dict, spec, shape: tuple, what: str) -> dict:
    """Decode a checkpoint's aux arrays after checking them against the strategy's."""
    if set(saved) != set(expected):
        raise ValueError(
            f"checkpoint {field} keys {sorted(saved)} do not match strategy "
            f"{spec.name!r}, which keeps {sorted(expected)}"
        )
    out = {k: decode_array(v) for k, v in saved.items()}
    for k, v in out.items():
        _check_shape(f"{field}[{k!r}]", v, shape, what)
    return out


def restore_simulation(
    problem,
    spec,
    hp,
    payload: dict,
    *,
    expect_config_hash: str | None = None,
):
    """Rebuild a Simulation mid-run from a checkpoint payload.

    Raises ValueError naming the field when the payload does not fit the
    problem, strategy or hyperparameters it is restored into.
    """
    from .core import Simulation

    saved_hash = payload.get("config_hash")
    if expect_config_hash is not None and saved_hash is not None and saved_hash != expect_config_hash:
        raise ValueError(
            f"checkpoint belongs to a different configuration "
            f"(saved {saved_hash[:12]}…, expected {expect_config_hash[:12]}…)"
        )
    missing = [k for k in _PAYLOAD_FIELDS if k not in payload]
    if missing:
        raise ValueError(f"checkpoint lacks the fields {missing}")
    c, d = problem.n_clients, problem.dim
    population = f"{c} clients of dimension {d}"
    global_params = decode_array(payload["global_params"])
    _check_shape("global_params", global_params, (d,), f"dimension {d}")
    last_local = decode_array(payload["last_local"])
    _check_shape("last_local", last_local, (c, d), population)
    server_aux = _decode_aux("server_aux", payload["server_aux"], strat.init_server_aux(spec, d),
                             spec, (d,), f"dimension {d}")
    client_aux = _decode_aux("client_aux", payload["client_aux"], strat.init_client_aux(spec, d),
                             spec, (c, d), population)
    rnd = int(payload["round"])
    if not 0 <= rnd <= hp.rounds:
        raise ValueError(f"checkpoint round {rnd} lies outside [0, {hp.rounds}]")
    if len(payload["records"]) != rnd:
        raise ValueError(f"checkpoint has {len(payload['records'])} records for round {rnd}")
    bad = [k for k in payload["client_rngs"] if not (k.isdecimal() and int(k) < c)]
    if bad:
        raise ValueError(f"checkpoint client_rngs ids {bad} lie outside [0, {c})")

    sim = Simulation(problem, spec, hp, payload["seed"])
    sim.server.round = rnd
    sim.server.global_params = global_params
    sim.server.aux = server_aux
    sim.server.rng = restore_rng(payload["server_rng"])
    sim.last_local = last_local
    sim.client_aux = client_aux
    for k, state in payload["client_rngs"].items():
        sim.client_rngs[int(k)] = restore_rng(state)
    sim.records = [RoundRecord.from_dict(r) for r in payload["records"]]
    if saved_hash is not None:
        sim.config_hash = saved_hash
    return sim

