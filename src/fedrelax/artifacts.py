"""On-disk run artifacts: checkpoints, rounds tables, report JSON.

Every writer goes through an atomic temp-file + rename so a crash mid-write
never leaves a truncated artifact.  Checkpoints are JSON: parameter vectors as
base64 little-endian float64, generator states as their native state dicts,
so a resumed run continues bit-for-bit where the original would have gone.
"""
from __future__ import annotations

import base64
import json
import os
import tempfile

import numpy as np

from .metrics import RoundRecord, rounds_csv_text

CHECKPOINT_VERSION = 1


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
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


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
        "clients": [
            {
                "id": c.client_id,
                "last_local": encode_array(c.last_local),
                "aux": {k: encode_array(v) for k, v in c.aux.items()},
                "rng": rng_state(c.rng),
            }
            for c in sim.clients
        ],
        "records": [r.to_dict() for r in sim.records],
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, default=_json_default))


def load_checkpoint(path) -> dict:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    return payload


def restore_simulation(
    problem,
    spec,
    hp,
    payload: dict,
    *,
    expect_config_hash: str | None = None,
):
    """Rebuild a Simulation mid-run from a checkpoint payload."""
    from .core import Simulation

    saved_hash = payload.get("config_hash")
    if expect_config_hash is not None and saved_hash is not None and saved_hash != expect_config_hash:
        raise ValueError(
            f"checkpoint belongs to a different configuration "
            f"(saved {saved_hash[:12]}…, expected {expect_config_hash[:12]}…)"
        )
    sim = Simulation(problem, spec, hp, payload["seed"])
    if len(payload["clients"]) != problem.n_clients:
        raise ValueError(
            f"checkpoint has {len(payload['clients'])} clients, problem has {problem.n_clients}"
        )
    sim.server.round = int(payload["round"])
    sim.server.global_params = decode_array(payload["global_params"])
    sim.server.aux = {k: decode_array(v) for k, v in payload["server_aux"].items()}
    sim.server.rng = restore_rng(payload["server_rng"])
    for entry in payload["clients"]:
        c = sim.clients[entry["id"]]
        c.last_local = decode_array(entry["last_local"])
        c.aux = {k: decode_array(v) for k, v in entry["aux"].items()}
        c.rng = restore_rng(entry["rng"])
    sim.records = [RoundRecord.from_dict(r) for r in payload["records"]]
    if saved_hash is not None:
        sim.config_hash = saved_hash
    return sim


# -- run outputs ----------------------------------------------------------------

def write_rounds_csv(path, records, config_hash: str) -> None:
    atomic_write_text(path, rounds_csv_text(records, config_hash))


def write_summary(path, summary: dict, config_hash: str) -> None:
    write_json(path, {"config_hash": config_hash, **summary})
