"""Before/after timing of one benchmark workload on two checkouts.

    python3 tools/bench_compare.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N --seconds S [--shape tiny]

Each root is a checkout that holds ``bench/run.py`` and ``src/``; the parent
root can be a ``git worktree`` of the parent commit. The tool runs each
root's ``bench/run.py`` untraced, with the same ``--seconds``, ``--shape``
and seed (SEED), N times each, alternating in ABBA order: pair i runs the
parent first when i is even and the change first when i is odd, so a host
that drifts during the comparison favours neither side.

It writes ``BENCH_<workload>.json`` in the working directory, or the file
``--out`` names. For each end-to-end metric of the change root's
``BENCHMARK.json`` it holds each side's runs, median, interquartile range,
minimum and maximum (so that a metric whose runs fall into two modes shows
both, rather than reading as a shift of the median), the change of the
median in percent, and the pairs the change won: better in
the direction that ``BENCHMARK.json`` gives, ties not counted. It also holds
the run order, the environment ``bench/run.py`` reports, and for both roots
the ``src/`` line count and the split of ``src/fedrelax/*.py`` into
docstring, comment, blank and code lines (``line_kinds``), so that a change
that deletes code reads apart from one that deletes comments. A run that
exits non-zero or reports a failed job stops the tool with exit code 1 and
writes no file.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SEED = 1  # every run builds its inputs from this seed


def run_once(root: Path, args) -> tuple[dict | None, dict, str]:
    """One untraced bench/run.py run in root: (its metrics or None, its environment, its stderr)."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(SEED), "--seconds", str(args.seconds), "--trace", "0",
           "--shape", args.shape]
    # bench/run.py imports the program from src/ beside it; an inherited path must not shadow it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        return None, {}, proc.stderr
    report = root / ".bench-out" / f"{args.workload}.trace0.json"
    environment = json.loads(report.read_text(encoding="utf-8"))["environment"]
    return {name: m["value"] for name, m in result["metrics"].items()}, environment, proc.stderr


def line_kinds(package: Path) -> dict:
    """Docstring, comment, blank and code lines of package/*.py: a docstring spans
    its string's lines (ast), a comment line holds only a comment, and a code
    line is any other line that is not blank."""
    counts = dict.fromkeys(("docstring", "comment", "blank", "code"), 0)
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for i, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            kind = "docstring" if i in docs else "blank" if not line else "comment" if line[0] == "#" else "code"
            counts[kind] += 1
    return counts


def side_summary(values: list[float]) -> dict:
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": statistics.median(values), "iqr": float(q3 - q1),
            "min": min(values), "max": max(values), "runs": values}


def compare(runs: dict, contract: dict) -> dict:
    """Per end-to-end metric: each side's summary, the median's change in % and the pairs won."""
    out = {}
    for metric in contract["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent, change = ([r[name] for r in runs[side]] for side in SIDES)
        before, after = statistics.median(parent), statistics.median(change)
        won = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": side_summary(parent), "change": side_summary(change),
            "delta_pct": None if before == 0 else 100.0 * (after - before) / before,
            "pairs_won": won,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--shape", default="full")
    parser.add_argument("--out", type=Path, help="the output file; BENCH_<workload>.json by default")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    for side, root in roots.items():
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{side} root {root} holds no bench/run.py")
    contract = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = {side: [] for side in SIDES}
    environments, order = {}, []
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            metrics, environment, stderr = run_once(roots[side], args)
            if metrics is None:
                print(f"pair {i}: the {side} run failed\n{stderr}", file=sys.stderr)
                return 1
            runs[side].append(metrics)
            environments.setdefault(side, environment)
            order.append(side)
            print(f"pair {i} {side:<6} run_s {metrics['run_s']:.6g}", flush=True)

    table = compare(runs, contract)
    report = {
        "workload": args.workload, "shape": args.shape, "seed": SEED,
        "seconds": args.seconds, "pairs": args.pairs, "order": order,
        "environment": {k: v for k, v in environments["change"].items() if k != "src_lines"},
        "src_lines": {side: environments[side]["src_lines"] for side in SIDES},
        "src_line_kinds": {side: line_kinds(roots[side] / "src" / "fedrelax") for side in SIDES},
        "metrics": table,
    }
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, row in table.items():
        delta = "n/a" if row["delta_pct"] is None else f"{row['delta_pct']:+.1f}%"
        spread = "  ".join(f"{side} [{row[side]['min']:.6g}, {row[side]['max']:.6g}] iqr {row[side]['iqr']:.3g}"
                           for side in SIDES)
        print(f"{name:20s} {row['parent']['median']:>12.6g} -> {row['change']['median']:<12.6g} "
              f"{row['unit']:4s} {delta:>8s}  won {row['pairs_won']}/{args.pairs}  {spread}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
