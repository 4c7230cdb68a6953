"""Experiment configuration: a flat JSON document with a typed schema.

Every key is top-level (except the optional ``sweep`` block).  SCHEMA holds
each key's type, default, valid values and readers.  Unknown keys are
rejected by name, and so are a key set away from its default that the
config's problem kind or subcommand does not read and a value outside its
key's valid values.  Every defaulted value is echoed back into the resolved
config so runs are self-describing, and the sha256 of the resolved config
(minus the purely operational keys: output directory, job count, checkpoint
cadence) stamps every artifact.  Only the output directory and job count may
come from the environment (cli.py).
"""
from __future__ import annotations

import hashlib
import json
import math

from .core import HyperParams
from .datasets import (
    apply_category_bias,
    apply_client_bias,
    dirichlet_partition,
    load_csv,
    make_blobs,
    shard_dataset,
)
from .metrics import SCHEMA_VERSION
from .models import make_model
from .problems import DatasetProblem, QuadraticProblem
from .quadratics import make_quadratic_family
from .strategies import STRATEGY_NAMES, make_strategy

_BOOL, _INT, _FLOAT, _STR = "bool", "int", "float", "str"

_DATA = ("blobs", "csv")
_NOT_STABILITY = ("run", "sweep", "verify-bounds", "partition-report")

# key -> (type, default, valid values[, readers]).  None default + not required = optional.
# valid values: a number's interval as text ("[1, inf)", "(0, 1]"), a tuple of
# allowed values, or None.
# readers names the problem kinds and/or subcommands that read the key; a key set
# away from its default must be read by the config's kind and by its subcommand.
SCHEMA: dict[str, tuple] = {
    # problem
    "problem": (_STR, "quadratic", ("quadratic", "blobs", "csv")),
    "n_clients": (_INT, 10, "[1, inf)"),
    "seed": (_INT, 0, "[0, inf)"),
    # quadratic family
    "dim": (_INT, 10, "[1, inf)", ("quadratic",)),
    "spread": (_FLOAT, 1.0, "[0, inf)", ("quadratic",)),
    "cond": (_FLOAT, 1.0, "[1, inf)", ("quadratic",)),
    "grad_noise": (_FLOAT, 0.0, "[0, inf)", ("quadratic",)),
    # dataset problems
    "n_samples": (_INT, 1000, "[1, inf)", ("blobs",)),
    "n_features": (_INT, 10, "[1, inf)", ("blobs",)),
    "n_classes": (_INT, 2, "[2, inf)", ("blobs",)),
    "separation": (_FLOAT, 4.0, "[0, inf)", ("blobs",)),
    "cluster_std": (_FLOAT, 1.0, "[0, inf)", ("blobs",)),
    "n_test": (_INT, 200, "[0, inf)", ("blobs",)),
    "model": (_STR, "logistic-regression", ("linear-regression", "logistic-regression", "mlp"), _DATA),
    "hidden": (_INT, 16, "[1, inf)", _DATA),
    "concentration": (_FLOAT, 1.0, "(0, inf)", _DATA),
    "with_replacement": (_BOOL, False, None, _DATA),
    # a stability pair redraws one sample from the unbiased blob process, so
    # biased shards would not be neighbors
    "client_bias_sigma": (_FLOAT, 0.0, "[0, inf)", _DATA + _NOT_STABILITY),
    "category_bias_sigma": (_FLOAT, 0.0, "[0, inf)", _DATA + _NOT_STABILITY),
    "csv_path": (_STR, None, None, ("csv",)),
    "csv_test_path": (_STR, None, None, ("csv",)),
    # strategy
    "strategy": (_STR, "fedavg", STRATEGY_NAMES),
    "beta": (_FLOAT, None, "(-inf, inf)", _NOT_STABILITY),  # stability takes beta from betas
    "rho": (_FLOAT, 0.05, "[0, inf)"),
    "dyn_alpha": (_FLOAT, 0.1, "[0, inf)"),
    "cm_alpha": (_FLOAT, 0.1, "[0, 1]"),
    "server_lr": (_FLOAT, None, "(0, inf)"),
    "adam_beta1": (_FLOAT, 0.9, "[0, 1)"),
    "adam_beta2": (_FLOAT, 0.99, "[0, 1)"),
    "adam_tau": (_FLOAT, 1e-3, "(0, inf)"),
    # optimization schedule; quadratics are full-objective: no epochs, no batches
    "lr": (_FLOAT, 0.1, "(0, inf)"),
    "rounds": (_INT, 100, "[1, inf)"),
    "n_active": (_INT, None, "[1, inf)"),
    "local_iters": (_INT, None, "[1, inf)"),
    "local_epochs": (_INT, None, "[1, inf)", _DATA),
    "batch_size": (_INT, None, "[1, inf)", _DATA),
    "lr_schedule": (_STR, "constant", ("constant", "inverse_t")),
    "lr_decay": (_FLOAT, None, "(0, 1]"),
    "weighted_aggregation": (_BOOL, False, None, _DATA),
    # runner
    "out": (_STR, None, None),
    "checkpoint_every": (_INT, 0, "[0, inf)", ("run",)),  # no other subcommand checkpoints
    "jobs": (_INT, None, "[1, inf)"),
    # verify-bounds
    "theorem": (_INT, 1, (1, 2, 3, 4), ("verify-bounds",)),
    # stability
    "betas": ("list", None, None, ("stability",)),
    "stability_seeds": (_INT, 20, "[1, inf)", ("stability",)),
    "perturb_client": (_INT, 0, "[0, inf)", ("stability",)),
    "perturb_index": (_INT, 0, "[0, inf)", ("stability",)),
    # sweep block (validated separately)
    "sweep": ("dict", None, None, ("sweep",)),
}

# keys that change where/how results are written, never what they are
NONSEMANTIC_KEYS = ("out", "jobs", "checkpoint_every")

# problem kinds a mode can run; any other kind is refused
MODE_PROBLEMS = {
    "verify-bounds": ("quadratic",),         # the bounds need exact constants
    "stability": ("blobs",),                 # paired runs redraw one blob sample
    "partition-report": ("blobs", "csv"),    # only datasets are partitioned
}

_TYPE_CHECKS = {
    _BOOL: lambda v: isinstance(v, bool),
    _INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    _FLOAT: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    _STR: lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
}


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return raw


def resolve_config(raw: dict, overrides: dict | None = None, *, mode: str = "run") -> dict:
    """Merge overrides, fill defaults, validate; returns the echoed full config."""
    merged = dict(raw)
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v
    for k in merged:
        if k not in SCHEMA:
            raise ConfigError(f"unknown config key {k!r}")
    cfg = {}
    for k, (typ, default, allowed, *_) in SCHEMA.items():
        v = merged.get(k, default)
        if v is not None:
            if not _TYPE_CHECKS[typ](v):
                raise ConfigError(f"config key {k!r} must be {typ}, got {type(v).__name__}")
            if typ == _FLOAT:
                v = float(v)
                if not math.isfinite(v):
                    raise ConfigError(f"config key {k!r} must be finite, got {v}")
            if isinstance(allowed, tuple) and v not in allowed:
                raise ConfigError(
                    f"config key {k!r} must be one of {list(allowed)}, got {v!r}"
                )
        cfg[k] = v

    # mode-aware defaults: plain runs decay multiplicatively per round; bound
    # checks need a constant rate; stability needs the c/(t+1) schedule and
    # traces plain averaging and two relaxations unless told otherwise
    if mode == "stability":
        if "lr_schedule" not in merged:
            cfg["lr_schedule"] = "inverse_t"
        if cfg["betas"] is None:
            cfg["betas"] = [0.0, 0.05, 0.1]
    if cfg["lr_decay"] is None:
        if cfg["lr_schedule"] == "inverse_t" or mode == "verify-bounds":
            cfg["lr_decay"] = 1.0
        elif cfg["strategy"] == "feddyn":
            cfg["lr_decay"] = 0.9995
        else:
            cfg["lr_decay"] = 0.998
    if cfg["n_active"] is None:
        cfg["n_active"] = cfg["n_clients"]
    if cfg["n_active"] > cfg["n_clients"]:
        raise ConfigError(
            f"n_active={cfg['n_active']} exceeds n_clients={cfg['n_clients']}"
        )
    if cfg["local_iters"] is not None and cfg["local_epochs"] is not None:
        raise ConfigError("set exactly one of local_iters and local_epochs, not both")
    if cfg["local_iters"] is None and cfg["local_epochs"] is None:
        cfg["local_iters"] = 5

    # a key set away from its default must be read by this problem kind and mode
    kinds = set(SCHEMA["problem"][2])
    for k, (_, default, _, *readers) in SCHEMA.items():
        names = set(readers[0]) if readers and cfg[k] != default else set()
        if names & kinds and cfg["problem"] not in names:
            raise ConfigError(f"config key {k!r} is not read by {cfg['problem']!r} problems")
        if names - kinds and mode not in names:
            raise ConfigError(f"config key {k!r} is not honored in {mode} mode")
    # each value below is at its default unless the problem kind or mode reads it
    for k, (_, _, interval, *_) in SCHEMA.items():
        v = cfg[k]
        if not isinstance(interval, str) or v is None:
            continue
        lo, hi = interval[1:-1].split(", ")
        if not ((float(lo) <= v if interval[0] == "[" else float(lo) < v)
                and (v <= float(hi) if interval[-1] == "]" else v < float(hi))):
            rule = f"lie in {interval}" if hi != "inf" else f"be {'>=' if interval[0] == '[' else '>'} {lo}"
            raise ConfigError(f"config key {k!r} must {rule}, got {v}")
    if cfg["problem"] == "csv" and not cfg["csv_path"]:
        raise ConfigError("problem 'csv' needs csv_path")
    if cfg["model"] == "logistic-regression" and cfg["n_classes"] != 2:
        raise ConfigError("logistic-regression needs n_classes=2; use model='mlp' for more classes")
    if cfg["betas"] is not None:
        if not all(isinstance(b, (int, float)) and not isinstance(b, bool) and math.isfinite(b)
                   for b in cfg["betas"]):
            raise ConfigError("betas must be a list of finite numbers")
        cfg["betas"] = [float(b) for b in cfg["betas"]]
        if not cfg["betas"]:
            raise ConfigError("config key 'betas' must be a non-empty list")
        if min(cfg["betas"]) < 0.0:
            raise ConfigError("config key 'betas' must be >= 0 in stability mode: "
                              "the stability factor is stated for beta >= 0")
    if cfg["sweep"] is not None:
        _validate_sweep(cfg["sweep"])
    elif mode == "sweep":
        raise ConfigError("sweep mode needs a 'sweep' block: {axis, values, seeds}")
    if mode in MODE_PROBLEMS and cfg["problem"] not in MODE_PROBLEMS[mode]:
        raise ConfigError(
            f"{mode} mode needs problem in {list(MODE_PROBLEMS[mode])}, got {cfg['problem']!r}"
        )
    cfg["schema_version"] = SCHEMA_VERSION
    return cfg


def _validate_sweep(sw: dict) -> None:
    allowed = {"axis", "values", "seeds"}
    unknown = set(sw) - allowed
    if unknown:
        raise ConfigError(f"unknown sweep key {sorted(unknown)[0]!r}")
    axis = sw.get("axis")
    sweepable = ("beta", "local_iters", "lr", "concentration", "strategy", "grad_noise")
    if axis not in sweepable:
        raise ConfigError(f"sweep axis must be one of {list(sweepable)}, got {axis!r}")
    values = sw.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep values must be a non-empty list")
    seeds = sw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("sweep seeds must be a non-empty list of integers")


def config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k not in NONSEMANTIC_KEYS}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- builders -------------------------------------------------------------------

def build_strategy(cfg: dict, *, allow_negative_beta: bool = False):
    overrides = {k: cfg[k] for k in ("rho", "dyn_alpha", "cm_alpha", "adam_beta1", "adam_beta2", "adam_tau")}
    if cfg["server_lr"] is not None:
        overrides["server_lr"] = cfg["server_lr"]
    return make_strategy(cfg["strategy"], beta=cfg["beta"], allow_negative_beta=allow_negative_beta, **overrides)


def build_hp(cfg: dict) -> HyperParams:
    """The run's HyperParams, validated as Simulation validates them."""
    hp = HyperParams(
        eta=cfg["lr"],
        rounds=cfg["rounds"],
        n_active=cfg["n_active"],
        k_local=cfg["local_iters"],
        local_epochs=cfg["local_epochs"],
        batch_size=cfg["batch_size"],
        lr_schedule=cfg["lr_schedule"],
        lr_decay=cfg["lr_decay"],
        weighted_aggregation=cfg["weighted_aggregation"],
    )
    hp.validate(cfg["n_clients"])
    return hp


def build_problem(cfg: dict):
    """Returns (problem, partition_plan_or_None)."""
    seed = cfg["seed"]
    if cfg["problem"] == "quadratic":
        family = make_quadratic_family(
            cfg["n_clients"], cfg["dim"],
            spread=cfg["spread"], cond=cfg["cond"], seed=seed,
        )
        return QuadraticProblem(family, grad_noise=cfg["grad_noise"]), None

    if cfg["problem"] == "blobs":
        made = make_blobs(
            cfg["n_samples"], cfg["n_features"], cfg["n_classes"],
            separation=cfg["separation"], cluster_std=cfg["cluster_std"],
            seed=seed, n_test=cfg["n_test"],
        )
        train, test = made if cfg["n_test"] > 0 else (made, None)
    else:
        train = load_csv(cfg["csv_path"])
        test = load_csv(cfg["csv_test_path"]) if cfg["csv_test_path"] else None
        if test is not None and test.n_features != train.n_features:
            raise ConfigError(f"csv_test_path has {test.n_features} features, csv_path has {train.n_features}")
    if cfg["category_bias_sigma"] > 0.0:
        train = apply_category_bias(train, cfg["category_bias_sigma"], seed)
    plan = dirichlet_partition(
        train.y, cfg["n_clients"], cfg["concentration"],
        seed=seed, with_replacement=cfg["with_replacement"],
    )
    shards = shard_dataset(train, plan)
    if cfg["client_bias_sigma"] > 0.0:
        shards = apply_client_bias(shards, cfg["client_bias_sigma"], seed)
    n_classes = max(int(train.y.max()) + 1, test.n_classes if test is not None else 0)
    model = make_model(cfg["model"], train.n_features, n_classes, cfg["hidden"])
    return DatasetProblem(model, shards, test), plan
