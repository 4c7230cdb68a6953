"""Self-test of the benchmark at the tiny shape.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the end-to-end metrics every run prints, with their units
PRINTED_E2E = {
    "setup_s": "s", "run_s": "s", "client_steps_per_s": "1/s", "round_ms_p50": "ms",
    "round_ms_p90": "ms", "peak_rss_mb": "MB", "error_rate": "ratio",
}


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--shape", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str) -> dict[str, tuple[float, str]]:
    """The human-readable 'name value unit' lines before the JSON line."""
    rows = (line.split() for line in stdout.splitlines()[:-1])
    return {row[0]: (float(row[1]), row[2]) for row in rows if len(row) == 3}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4

    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = printed_metrics(proc.stdout)
    for name, unit in (PRINTED_E2E if trace == 0 else declared).items():
        assert name in printed and printed[name][1] == unit, f"{name} [{unit}] not printed"


def test_wrong_pinned_reference_fails_the_run(tmp_path):
    pinned = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    pinned["tiny"]["quad-population"]["fedinit"]["train_loss"] *= 1.0 + 1e-4
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps(pinned), encoding="utf-8")

    proc = run_bench("quad-population", 0, "--references", str(wrong))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert "reference mismatch fedinit.train_loss" in proc.stderr
    assert printed_metrics(proc.stdout)["error_rate"][0] == pytest.approx(1 / result["attempted"], rel=1e-5)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("mlp-noniid", 0, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_missing_hook_is_reported_absent(monkeypatch):
    gone = ("core.gone", "fedrelax.core", "no_such_function")
    monkeypatch.setattr(spans, "PHASE_HOOKS", spans.PHASE_HOOKS + (gone,))
    tracer = spans.Tracer()
    tracer.install([object()])
    tracer.uninstall()
    assert tracer.absent == {
        "core.gone (fedrelax.core.no_such_function)",
        "problems.eval (object.eval_metrics)",
        "models/quadratics (problem has neither .model nor .family)",
    }


def test_self_time_subtracts_direct_children_only():
    # step [0, 10) holds eval [1, 4) and local_train [4, 9), which holds client_step [5, 7)
    recorded = [
        ("core.step", 0.0, 10.0, -1, 0),
        ("problems.eval", 1.0, 4.0, 0, 0),
        ("core.local_train", 4.0, 9.0, 0, 0),
        ("strategies.client_step", 5.0, 7.0, 2, 0),
    ]
    count, incl, self_s = spans.span_totals(recorded)
    assert incl["core.step"] == 10.0 and self_s["core.step"] == 2.0
    assert self_s["core.local_train"] == 3.0 and self_s["strategies.client_step"] == 2.0
    assert count["core.step"] == 1
    metrics = spans.job_layer_metrics(recorded, 0, spans.Tracer().tallies)
    assert metrics["problems.eval_share"] == 0.3
