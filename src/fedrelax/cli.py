"""Command-line runner.

Subcommands: run, sweep, verify-bounds, stability, partition-report.
Config is a flat JSON file (--config); --seed/--out (and --jobs on sweep)
override file values; FEDRELAX_OUT and FEDRELAX_JOBS may override output
directory and parallelism only.  Every subcommand takes one path: main resolves
the config for its mode (config.py holds the mode rules), hashes it and picks the
output directory; the handler builds, runs and writes its report.  Every
artifact embeds the config hash, and reruns of the same config + seed are
byte-identical.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import artifacts
from .config import (
    ConfigError,
    build_hp,
    build_problem,
    build_strategy,
    config_hash,
    load_config,
    resolve_config,
)
from .core import DivergedError, Simulation, run_experiment
from .datasets import partition_statistics
from .metrics import rounds_csv_text
from .stability import make_paired_blob_problems, stability_experiment, summarize_traces
from .theory import check_assumptions, verify_convergence_bound

CHECKPOINT_NAME = "checkpoint.json"

SWEEP_COLUMNS = (
    "axis", "value", "seed", "final_train_loss", "final_test_loss",
    "final_test_acc", "final_divergence", "avg_divergence", "smoothed_max_test_acc",
)


def _effective_out(cfg: dict, cli_out: str | None, default_name: str) -> str:
    return cli_out or os.environ.get("FEDRELAX_OUT") or cfg["out"] or os.path.join("runs", default_name)


def _effective_jobs(cfg: dict, cli_jobs: int | None) -> int:
    env = os.environ.get("FEDRELAX_JOBS")
    try:
        env_jobs = int(env) if env else None
    except ValueError:
        raise ConfigError(f"FEDRELAX_JOBS must be an integer, got {env!r}") from None
    given = [j for j in (cli_jobs, env_jobs, cfg["jobs"]) if j is not None]
    jobs = given[0] if given else os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _write_report(out_dir: str, name: str, cfg: dict, h: str, body: dict) -> str:
    """Write body into out_dir/name under the config envelope; returns the path."""
    path = os.path.join(out_dir, name)
    artifacts.write_json(path, {"config_hash": h, "schema_version": cfg["schema_version"],
                                "config": cfg, **body})
    return path


def _run_once(cfg: dict, *, allow_negative_beta: bool, out_dir: str | None,
              resume: bool = False):
    """Build everything from a resolved config and run to completion.

    Only with an out_dir does it checkpoint and write rounds.csv + summary.json.
    """
    h = config_hash(cfg)
    problem, _ = build_problem(cfg)
    spec = build_strategy(cfg, allow_negative_beta=allow_negative_beta)
    hp = build_hp(cfg)
    ckpt_path = os.path.join(out_dir, CHECKPOINT_NAME) if out_dir else None
    if resume:
        if ckpt_path is None or not os.path.exists(ckpt_path):
            raise ConfigError(f"--resume: no checkpoint found at {ckpt_path}")
        payload = artifacts.load_checkpoint(ckpt_path)
        sim = artifacts.restore_simulation(problem, spec, hp, payload, expect_config_hash=h)
        if sim.seed != cfg["seed"]:  # the hash covers the seed, so the checkpoint contradicts itself
            raise ConfigError(f"checkpoint seed {sim.seed} is not the config's seed {cfg['seed']}")
    else:
        sim = Simulation(problem, spec, hp, cfg["seed"])
        sim.config_hash = h
    result = sim.run(
        checkpoint_every=cfg["checkpoint_every"] if ckpt_path else 0,
        checkpoint_path=ckpt_path,
    )
    if out_dir:
        artifacts.atomic_write_text(os.path.join(out_dir, "rounds.csv"), rounds_csv_text(result.records, h))
        _write_report(out_dir, "summary.json", cfg, h, {"strategy": spec.name, **result.summary})
    return result, spec


def cmd_run(args, cfg: dict, h: str, out_dir: str) -> int:
    cfg["out"] = out_dir
    result, spec = _run_once(
        cfg, allow_negative_beta=args.allow_negative_beta,
        out_dir=out_dir, resume=args.resume,
    )
    final = result.summary["final"]
    print(f"{spec.name}: {result.summary['rounds']} rounds, "
          f"final train_loss={final['train_loss']:.6g}, divergence={final['divergence']:.6g}")
    print(f"wrote {os.path.join(out_dir, 'rounds.csv')} and summary.json (config {h[:12]})")
    return 0


def _sweep_cell(job: dict) -> dict:
    """One sweep point; runs in a worker process when jobs > 1."""
    cfg = job["cfg"]
    try:
        result, _ = _run_once(cfg, allow_negative_beta=job["allow_negative_beta"], out_dir=None)
    except DivergedError as e:
        raise DivergedError(f"sweep point {job['axis']}={job['value']!r}, seed {cfg['seed']}: {e}") from None
    final = result.summary["final"]
    return {
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


def cmd_sweep(args, cfg: dict, h: str, out_dir: str) -> int:
    axis, values = cfg["sweep"]["axis"], cfg["sweep"]["values"]
    seeds = cfg["sweep"].get("seeds", [cfg["seed"]])
    jobs = _effective_jobs(cfg, args.jobs)
    base = {k: v for k, v in cfg.items() if k not in ("sweep", "schema_version")}
    points = [
        # each derived point is re-validated as the single run it is
        {"cfg": resolve_config({**base, axis: v, "seed": s}), "axis": axis, "value": v,
         "allow_negative_beta": args.allow_negative_beta}
        for v in values for s in seeds
    ]
    if jobs > 1:
        # imported only here: it loads multiprocessing and subprocess, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, points))
    else:
        rows = [_sweep_cell(p) for p in points]

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

    csv_path = os.path.join(out_dir, "sweep.csv")
    artifacts.atomic_write_text(csv_path, rounds_csv_text(rows + agg_rows, h, columns=SWEEP_COLUMNS))
    _write_report(out_dir, "sweep.json", cfg, h, {"rows": rows, "aggregates": agg_rows})
    print(f"{len(rows)} runs ({len(values)} x {len(seeds)}), wrote {csv_path}")
    return 0


def cmd_verify_bounds(args, cfg: dict, h: str, out_dir: str) -> int:
    problem, _ = build_problem(cfg)
    spec = build_strategy(cfg, allow_negative_beta=args.allow_negative_beta)
    hp = build_hp(cfg)
    check_assumptions(cfg["theorem"], problem, spec, hp)  # every refusal, before the first round
    result = run_experiment(problem, spec, hp, cfg["seed"])
    report = verify_convergence_bound(cfg["theorem"], result, problem)
    path = _write_report(out_dir, "bounds_report.json", cfg, h,
                         {"strategy": spec.name, "report": report})
    best = report["most_favorable"]
    print(f"theorem {cfg['theorem']} ({report['label']}): lhs={report['lhs']:.6g}, "
          f"best rhs={best['rhs']:.6g} at lam={best['lam']}, holds={best['holds']}")
    print(f"wrote {path}")
    return 0 if report["holds_at_most_favorable"] else 3


# config keys make_paired_blob_problems takes under the same names
STABILITY_DATA_KEYS = (
    "n_clients", "n_samples", "n_features", "n_classes", "separation", "cluster_std",
    "concentration", "n_test", "hidden", "with_replacement",
)


def cmd_stability(args, cfg: dict, h: str, out_dir: str) -> int:
    seeds = [cfg["seed"] + i for i in range(cfg["stability_seeds"])]
    perturb = (cfg["perturb_client"], cfg["perturb_index"])
    data = {k: cfg[k] for k in STABILITY_DATA_KEYS}

    def pair(seed: int):
        return make_paired_blob_problems(**data, model_kind=cfg["model"], perturb=perturb, seed=seed)

    traces = stability_experiment(pair, build_strategy(cfg), build_hp(cfg), cfg["betas"], seeds)
    summary = summarize_traces(traces)
    path = _write_report(out_dir, "stability_report.json", cfg, h, {
        "perturb": {"client": perturb[0], "sample": perturb[1]},
        "summary": summary, "traces": [t.to_dict() for t in traces],
    })
    for row in summary["per_beta"]:
        print(f"beta={row['beta']}: mean final delta={row['mean_final_delta']:.6g} "
              f"over {row['n_runs']} seeds")
    print(f"non-increasing in beta: {summary['monotone_nonincreasing']}")
    print(f"wrote {path}")
    return 0


def cmd_partition_report(args, cfg: dict, h: str, out_dir: str) -> int:
    # refuse what no run of this config could start (--allow-negative-beta aside)
    build_strategy(cfg, allow_negative_beta=True)
    build_hp(cfg)
    _, plan = build_problem(cfg)
    stats = partition_statistics(plan)
    path = _write_report(out_dir, "partition_report.json", cfg, h, stats)
    print(f"C={stats['n_clients']} Dr={stats['concentration']}: mean TV={stats['mean_tv']:.4f}, "
          f"max TV={stats['max_tv']:.4f}, sizes min/max={min(stats['sizes'])}/{max(stats['sizes'])}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedrelax",
        description="Federated-learning simulation engine with relaxed initialization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> (help, default output directory prefix, handler)
    handlers = {
        "run": ("run one experiment and write rounds.csv + summary.json", "", cmd_run),
        "sweep": ("run a grid over one axis x seeds and aggregate", "sweep-", cmd_sweep),
        "verify-bounds": ("run a quadratic experiment and check a stated bound", "bounds-",
                          cmd_verify_bounds),
        "stability": ("paired-run uniform-stability experiment", "stability-", cmd_stability),
        "partition-report": ("report per-client label statistics for a partition", "partition-",
                             cmd_partition_report),
    }
    parsers = {}
    for name, (help_text, out_prefix, fn) in handlers.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to flat JSON config")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--out", help="output directory (also FEDRELAX_OUT)")
        p.set_defaults(handler=fn, out_prefix=out_prefix)
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
        raw = load_config(args.config) if args.config else {}
        cfg = resolve_config(raw, {"seed": args.seed}, mode=args.command)
        h = config_hash(cfg)
        return args.handler(args, cfg, h, _effective_out(cfg, args.out, args.out_prefix + h[:12]))
    except (ValueError, OSError) as e:  # ConfigError and TheoryAssumptionError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DivergedError as e:  # nothing is written; checkpoints of earlier rounds stay
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
