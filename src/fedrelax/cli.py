"""Command-line runner.

Subcommands: run, sweep, verify-bounds, stability, partition-report.
Config is a flat JSON file (--config); --seed/--out (and --jobs on sweep)
override file values; FEDRELAX_OUT and FEDRELAX_JOBS may override output
directory and parallelism only.  --resume belongs to run, --allow-negative-beta
to run, sweep and verify-bounds.  Every artifact embeds the config hash, and
reruns of the same config + seed are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import artifacts
from .config import (
    UNHONORED_KEYS,
    ConfigError,
    build_hp,
    build_problem,
    build_strategy,
    config_hash,
    load_config,
    resolve_config,
)
from .core import Simulation
from .datasets import load_csv, make_blobs, partition_statistics
from .stability import make_paired_blob_problems, stability_experiment, summarize_traces
from .theory import verify_convergence_bound

CHECKPOINT_NAME = "checkpoint.json"

SWEEP_COLUMNS = (
    "axis", "value", "seed", "final_train_loss", "final_test_loss",
    "final_test_acc", "final_divergence", "avg_divergence", "smoothed_max_test_acc",
)


def _effective_out(cfg: dict, cli_out: str | None, default_name: str) -> str:
    return cli_out or os.environ.get("FEDRELAX_OUT") or cfg["out"] or os.path.join("runs", default_name)


def _effective_jobs(cfg: dict, cli_jobs: int | None) -> int:
    env = os.environ.get("FEDRELAX_JOBS")
    jobs = cli_jobs or (int(env) if env else None) or cfg["jobs"] or os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _load_and_resolve(args, mode: str) -> dict:
    raw = load_config(args.config) if args.config else {}
    overrides = {"seed": args.seed}
    return resolve_config(raw, overrides, mode=mode)


def _run_once(cfg: dict, *, allow_negative_beta: bool, out_dir: str | None,
              resume: bool = False):
    """Build everything from a resolved config and run to completion.

    Only with an out_dir does it checkpoint and write rounds.csv + summary.json.
    """
    h = config_hash(cfg)
    problem, plan = build_problem(cfg)
    spec = build_strategy(cfg, allow_negative_beta=allow_negative_beta)
    hp = build_hp(cfg)
    ckpt_path = os.path.join(out_dir, CHECKPOINT_NAME) if out_dir else None
    if resume:
        if ckpt_path is None or not os.path.exists(ckpt_path):
            raise ConfigError(f"--resume: no checkpoint found at {ckpt_path}")
        payload = artifacts.load_checkpoint(ckpt_path)
        sim = artifacts.restore_simulation(problem, spec, hp, payload, expect_config_hash=h)
    else:
        sim = Simulation(problem, spec, hp, cfg["seed"])
        sim.config_hash = h
    result = sim.run(
        checkpoint_every=cfg["checkpoint_every"] if ckpt_path else 0,
        checkpoint_path=ckpt_path,
    )
    if out_dir:
        artifacts.write_rounds_csv(os.path.join(out_dir, "rounds.csv"), result.records, h)
        artifacts.write_summary(
            os.path.join(out_dir, "summary.json"),
            {"schema_version": cfg["schema_version"], "config": cfg,
             "strategy": spec.name, **result.summary},
            h,
        )
    return result, problem, spec, h


def cmd_run(args) -> int:
    cfg = _load_and_resolve(args, "run")
    h = config_hash(cfg)
    out_dir = _effective_out(cfg, args.out, h[:12])
    cfg["out"] = out_dir
    result, _, spec, _ = _run_once(
        cfg, allow_negative_beta=args.allow_negative_beta,
        out_dir=out_dir, resume=args.resume,
    )
    final = result.summary["final"]
    print(f"{spec.name}: {result.summary['rounds']} rounds, "
          f"final train_loss={final['train_loss']:.6g}, divergence={final['divergence']:.6g}")
    print(f"wrote {os.path.join(out_dir, 'rounds.csv')} and summary.json (config {h[:12]})")
    return 0


def _sweep_cell(payload: str):
    """Executed in worker processes; payload is JSON to stay picklable."""
    job = json.loads(payload)
    cfg = job["cfg"]
    result, _, _, _ = _run_once(
        cfg, allow_negative_beta=job["allow_negative_beta"], out_dir=None,
    )
    final = result.summary["final"]
    row = {
        "axis": job["axis"],
        "value": job["value"],
        "seed": cfg["seed"],
        "final_train_loss": final["train_loss"],
        "final_test_loss": final["test_loss"],
        "final_test_acc": final["test_acc"],
        "final_divergence": final["divergence"],
        "avg_divergence": result.summary["avg_divergence"],
        "smoothed_max_test_acc": result.summary.get("smoothed_max_test_acc", {}).get("value"),
    }
    return row


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_sweep(args) -> int:
    cfg = _load_and_resolve(args, "sweep")
    if cfg["sweep"] is None:
        raise ConfigError("sweep mode needs a 'sweep' block: {axis, values, seeds}")
    sweep = cfg["sweep"]
    axis, values = sweep["axis"], sweep["values"]
    seeds = sweep.get("seeds", [cfg["seed"]])
    h = config_hash(cfg)
    out_dir = _effective_out(cfg, args.out, f"sweep-{h[:12]}")
    jobs = _effective_jobs(cfg, args.jobs)

    payloads = []
    for v in values:
        for s in seeds:
            sub = {k: vv for k, vv in cfg.items()
                   if k not in ("sweep", "schema_version", *UNHONORED_KEYS["sweep"])}
            sub[axis] = v
            sub["seed"] = s
            sub = resolve_config(sub, mode="sweep")  # re-validate the derived point
            payloads.append(json.dumps({
                "cfg": sub, "axis": axis, "value": v,
                "allow_negative_beta": args.allow_negative_beta,
            }))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, payloads))
    else:
        rows = [_sweep_cell(p) for p in payloads]

    # aggregate mean/std per axis value over seeds
    agg_rows = []
    for v in values:
        group = [r for r in rows if r["value"] == v]
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            agg = {"axis": axis, "value": v, "seed": stat}
            for col in SWEEP_COLUMNS[3:]:
                vals = [g[col] for g in group if g[col] is not None]
                agg[col] = float(fn(vals)) if vals else None
            agg_rows.append(agg)

    buf = io.StringIO()
    buf.write(f"# schema=1 config_hash={h}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for r in rows + agg_rows:
        writer.writerow([_csv_cell(r[c]) for c in SWEEP_COLUMNS])
    artifacts.atomic_write_text(os.path.join(out_dir, "sweep.csv"), buf.getvalue())
    artifacts.write_json(
        os.path.join(out_dir, "sweep.json"),
        {"config_hash": h, "schema_version": cfg["schema_version"], "config": cfg,
         "rows": rows, "aggregates": agg_rows},
    )
    print(f"{len(rows)} runs ({len(values)} x {len(seeds)}), wrote {os.path.join(out_dir, 'sweep.csv')}")
    return 0


def cmd_verify_bounds(args) -> int:
    cfg = _load_and_resolve(args, "verify-bounds")
    if cfg["problem"] != "quadratic":
        raise ConfigError("verify-bounds needs problem='quadratic' (exact constants)")
    h = config_hash(cfg)
    out_dir = _effective_out(cfg, args.out, f"bounds-{h[:12]}")
    result, problem, spec, _ = _run_once(
        cfg, allow_negative_beta=args.allow_negative_beta, out_dir=None,
    )
    report = verify_convergence_bound(cfg["theorem"], result, problem)
    artifacts.write_json(
        os.path.join(out_dir, "bounds_report.json"),
        {"config_hash": h, "schema_version": cfg["schema_version"], "config": cfg,
         "strategy": spec.name, "report": report},
    )
    best = report["most_favorable"]
    print(f"theorem {cfg['theorem']} ({report['label']}): lhs={report['lhs']:.6g}, "
          f"best rhs={best['rhs']:.6g} at lam={best['lam']}, holds={best['holds']}")
    print(f"wrote {os.path.join(out_dir, 'bounds_report.json')}")
    return 0 if report["holds_at_most_favorable"] else 3


def cmd_stability(args) -> int:
    cfg = _load_and_resolve(args, "stability")
    if cfg["problem"] != "blobs":
        raise ConfigError("stability mode generates paired blob datasets; set problem='blobs'")
    h = config_hash(cfg)
    out_dir = _effective_out(cfg, args.out, f"stability-{h[:12]}")
    betas = cfg["betas"] if cfg["betas"] is not None else [0.0, 0.05, 0.1]
    seeds = [cfg["seed"] + i for i in range(cfg["stability_seeds"])]
    perturb = (cfg["perturb_client"], cfg["perturb_index"])

    def factory(seed: int):
        a, b, _meta = make_paired_blob_problems(
            n_clients=cfg["n_clients"], n_samples=cfg["n_samples"],
            n_features=cfg["n_features"], n_classes=cfg["n_classes"],
            perturb=perturb, separation=cfg["separation"],
            cluster_std=cfg["cluster_std"], concentration=cfg["concentration"],
            n_test=cfg["n_test"], model_kind=cfg["model"], hidden=cfg["hidden"],
            seed=seed, with_replacement=cfg["with_replacement"],
        )
        return a, b

    # beta enters through the betas axis, not the base spec; fedinit is fedavg + RI
    strategy = "fedavg" if cfg["strategy"] == "fedinit" else cfg["strategy"]
    base_spec = build_strategy({**cfg, "strategy": strategy})
    hp = build_hp(cfg)
    traces = stability_experiment(factory, base_spec, hp, betas, seeds)
    summary = summarize_traces(traces)
    artifacts.write_json(
        os.path.join(out_dir, "stability_report.json"),
        {"config_hash": h, "schema_version": cfg["schema_version"], "config": cfg,
         "perturb": {"client": perturb[0], "sample": perturb[1]},
         "summary": summary, "traces": [t.to_dict() for t in traces]},
    )
    for row in summary["per_beta"]:
        print(f"beta={row['beta']}: mean final delta={row['mean_final_delta']:.6g} "
              f"over {row['n_runs']} seeds")
    print(f"non-increasing in beta: {summary['monotone_nonincreasing']}")
    print(f"wrote {os.path.join(out_dir, 'stability_report.json')}")
    return 0


def cmd_partition_report(args) -> int:
    cfg = _load_and_resolve(args, "partition-report")
    if cfg["problem"] not in ("blobs", "csv"):
        raise ConfigError("partition-report needs a dataset problem (blobs or csv)")
    h = config_hash(cfg)
    out_dir = _effective_out(cfg, args.out, f"partition-{h[:12]}")
    _, plan = build_problem(cfg)
    # the plan indexes the pre-partition dataset; regenerate its labels
    if cfg["problem"] == "blobs":
        train = make_blobs(
            cfg["n_samples"], cfg["n_features"], cfg["n_classes"],
            separation=cfg["separation"], cluster_std=cfg["cluster_std"],
            seed=cfg["seed"],
        )
    else:
        train = load_csv(cfg["csv_path"])
    stats = partition_statistics(plan, train.y)
    artifacts.write_json(
        os.path.join(out_dir, "partition_report.json"),
        {"config_hash": h, "schema_version": cfg["schema_version"], "config": cfg,
         **stats},
    )
    print(f"C={stats['n_clients']} Dr={stats['concentration']}: mean TV={stats['mean_tv']:.4f}, "
          f"max TV={stats['max_tv']:.4f}, sizes min/max={min(stats['sizes'])}/{max(stats['sizes'])}")
    print(f"wrote {os.path.join(out_dir, 'partition_report.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedrelax",
        description="Federated-learning simulation engine with relaxed initialization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": ("run one experiment and write rounds.csv + summary.json", cmd_run),
        "sweep": ("run a grid over one axis x seeds and aggregate", cmd_sweep),
        "verify-bounds": ("run a quadratic experiment and check a stated bound", cmd_verify_bounds),
        "stability": ("paired-run uniform-stability experiment", cmd_stability),
        "partition-report": ("report per-client label statistics for a partition", cmd_partition_report),
    }
    parsers = {}
    for name, (help_text, fn) in handlers.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to flat JSON config")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--out", help="output directory (also FEDRELAX_OUT)")
        p.set_defaults(handler=fn)
    # each flag only where its subcommand honors it
    parsers["run"].add_argument("--resume", action="store_true",
                                help="continue from the checkpoint in the output directory")
    parsers["sweep"].add_argument("--jobs", type=int, help="parallel jobs (also FEDRELAX_JOBS)")
    for name in ("run", "sweep", "verify-bounds"):
        parsers[name].add_argument("--allow-negative-beta", action="store_true",
                                   help="permit beta < 0 (reversed relaxation)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:  # ConfigError and TheoryAssumptionError included
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
