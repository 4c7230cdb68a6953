"""fedrelax benchmark: one pinned workload per run, timed end to end or traced.

    python3 bench/run.py --workload mlp-noniid --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory. One run of one workload:

1. runs one job on inputs built from ``workloads.REFERENCE_SEED`` and checks
   its final values against ``references.json`` (this also warms up);
2. builds the workload's inputs from ``--seed``;
3. runs jobs on those inputs for ``--seconds`` (at least three); every rerun
   must reproduce the first job's output digest byte for byte. After each
   job it builds the inputs again for about 0.1 s (at least once), and
   ``setup_s`` is the median of all those set-up times.

``--trace 0`` reports the end-to-end metrics. The timed jobs carry no
tracing, only one timer pair around each ``Simulation.step`` call. Every
rerun makes the same step calls with the same work, so each call's median
over the reruns is taken first: ``round_ms_p50`` and ``round_ms_p90`` are the
median and 90th percentile of those over the job's calls, and ``run_s`` is
their sum plus the median time a job spends outside ``step``. That keeps
sporadic stalls from other tenants of the host out of the figures. All times
are then scaled to a fixed host speed (see ``calibration.py``); the unscaled
values are printed below them. ``--trace 1`` alternates untraced and traced
jobs and reports per-layer metrics (see ``spans.py``) plus the tracing
overhead. Human-readable lines come first; the
last line of standard output is one JSON object. A failed job makes the run
exit with code 1, and the program missing from ``src/`` with code 2.
"""
from __future__ import annotations

import os

# one BLAS thread: the benchmark runs in a single process and measures the
# simulator, not BLAS thread scheduling on matrices of a few kilobytes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from calibration import Calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench-out"

MIN_JOBS = 3
# set-ups are timed after every job, so they see the same host as the jobs
SETUP_SECONDS_PER_JOB = 0.1
TRACED_SETUPS = 5

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "client_steps_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
# error_rate is printed but left out of the JSON line: it equals failed/attempted there
JSON_E2E = tuple(name for name in E2E_UNITS if name != "error_rate")

COUNT_UNITS = "count"
LAYER_UNITS = {
    "core.step_self_s": "s", "core.local_train_self_s": "s", "core.sample_s": "s",
    "core.relaxed_init_s": "s", "core.aggregate_s": "s",
    "core.rounds": COUNT_UNITS, "core.local_steps": COUNT_UNITS,
    "strategies.client_step_s": "s", "strategies.client_step_calls": COUNT_UNITS,
    "strategies.finish_local_s": "s", "strategies.server_step_s": "s",
    "problems.eval_s": "s", "problems.eval_calls": COUNT_UNITS, "problems.eval_share": "ratio",
    "models.grad_calls": COUNT_UNITS, "models.loss_calls": COUNT_UNITS,
    "models.rows_processed": COUNT_UNITS, "models.grad_s": "s",
    "quadratics.client_grad_calls": COUNT_UNITS, "quadratics.client_loss_calls": COUNT_UNITS,
    "quadratics.grad_s": "s",
    "metrics.divergence_s": "s", "metrics.divergence_calls": COUNT_UNITS,
    "artifacts.checkpoint_s": "s", "artifacts.checkpoints": COUNT_UNITS,
    "artifacts.checkpoint_bytes": "bytes", "artifacts.restore_s": "s",
    "stability.pair_self_s": "s",
    "datasets.setup_s": "s", "quadratics.family_s": "s",
    "trace.overhead_ratio": "ratio", "trace.absent_hooks": COUNT_UNITS,
}


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fedrelax
    except ImportError as exc:
        print(f"cannot import fedrelax from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(fedrelax.__file__).resolve().parent.parent != src.resolve():
        print(f"fedrelax was imported from {fedrelax.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


class StepTimer:
    """One timer pair around every Simulation.step call while installed."""

    def __init__(self, simulation_cls):
        self.cls = simulation_cls
        self.durations: list[float] = []

    def __enter__(self):
        original = self.original = self.cls.step
        durations = self.durations

        def step(sim):
            start = perf_counter()
            try:
                return original(sim)
            finally:
                durations.append(perf_counter() - start)

        self.cls.step = step
        return self

    def __exit__(self, *exc):
        self.cls.step = self.original


class Run:
    """Bookkeeping of attempted and failed jobs within one benchmark run."""

    def __init__(self, workload, shape: dict, scratch: str):
        self.workload = workload
        self.shape = shape
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_jobs: set[str] = set()
        self.digest = None

    @property
    def failed(self) -> int:
        return len(self.failed_jobs)

    def job(self, inputs, label: str, check_digest: bool = True):
        """Run one job, check it and return (seconds, output or None)."""
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        try:
            out = self.workload.job(inputs, self.shape, self.scratch)
        except Exception:  # a failing job is counted, and the run goes on
            elapsed = perf_counter() - start
            self.fail(label, ["raised:\n" + traceback.format_exc()])
            return elapsed, None
        elapsed = perf_counter() - start
        problems = list(out.failures)
        if check_digest:
            if self.digest is None:
                self.digest = out.digest
            elif out.digest != self.digest:
                problems.append(f"rerun differs from the first job "
                                f"(digest {out.digest[:12]} != {self.digest[:12]})")
        self.fail(label, problems)
        return elapsed, out

    def fail(self, label: str, problems: list[str]) -> None:
        """Mark the job with this label failed, once however many problems it has."""
        if problems:
            self.failed_jobs.add(label)
            self.failures += [f"{label}: {p}" for p in problems]


def timed_setups(workload, seed: int, shape: dict, times: list[float], seconds: float):
    """Build the inputs at least once and for at least `seconds`; return the last."""
    spent = 0.0
    while True:
        gc.collect()
        start = perf_counter()
        inputs = workload.setup(seed, shape)
        times.append(perf_counter() - start)
        spent += times[-1]
        if spent >= seconds:
            return inputs


def main(argv=None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=sorted(workloads.SHAPES), default="full",
                        help="input shape; 'tiny' is for the benchmark's self-test")
    parser.add_argument("--references", type=Path, default=BENCH_DIR / "references.json",
                        help="pinned final values of the reference-seed job")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    shape = workloads.SHAPES[args.shape][args.workload]
    pinned = json.loads(args.references.read_text(encoding="utf-8"))[args.shape][args.workload]
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        run = Run(workload, shape, scratch)
        # 1. reference job, which also warms up
        ref_inputs = workload.setup(workloads.REFERENCE_SEED, shape)
        label = f"reference job (seed {workloads.REFERENCE_SEED})"
        _, ref = run.job(ref_inputs, label, check_digest=False)
        if ref is not None:
            run.fail(label, workloads.reference_failures(ref.finals, pinned))
        del ref_inputs

        if args.trace:
            metrics, extra = traced(run, workload, args, shape)
        else:
            metrics, extra = untraced(run, workload, args, shape)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = E2E_UNITS if not args.trace else LAYER_UNITS
    for f in run.failures:
        print(f"FAILED {f}", file=sys.stderr)
    if metrics is None:
        print(f"{args.workload}: {extra['note']}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} shape={args.shape} trace={args.trace}: "
          f"{run.attempted} jobs attempted, {run.failed} failed; {extra['note']}")
    if not args.trace:
        metrics["error_rate"] = run.failed / run.attempted
    for name, value in metrics.items():
        print(f"  {name:30s} {value:>14.6g} {units[name]}")
    for name, value in extra.get("wall", {}).items():
        print(f"  unscaled wall time {name}: {value:.6g} {units[name]}")
    for hook in extra.get("absent", []):
        print(f"  absent hook: {hook}")
    for name, seconds in extra.get("self_s_by_span", []):
        print(f"  self time per traced job of {name}: {seconds:.6g} s")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in (JSON_E2E if not args.trace else LAYER_UNITS)},
    }
    report = {"workload": args.workload, "seed": args.seed, "shape": args.shape,
              "trace": args.trace, "environment": env, "failures": run.failures,
              **extra, "result": result}
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def untraced(run, workload, args, shape):
    from fedrelax.core import Simulation

    host = Calibration(workload.calibration)
    host.sample()
    setup_times = []
    inputs = timed_setups(workload, args.seed, shape, setup_times, 0.0)
    job_times, job_steps, other_times, local_steps = [], [], [], 0
    with StepTimer(Simulation) as timer:
        budget_start = perf_counter()
        while len(job_times) < MIN_JOBS or perf_counter() - budget_start < args.seconds:
            host.sample()
            first = len(timer.durations)
            elapsed, out = run.job(inputs, f"job {len(job_times)}")
            job_times.append(elapsed)
            if out is not None:
                local_steps = out.local_steps
                job_steps.append(timer.durations[first:])
                other_times.append(elapsed - sum(job_steps[-1]))
            timed_setups(workload, args.seed, shape, setup_times, SETUP_SECONDS_PER_JOB)
        host.sample()
    if not job_steps:
        return None, {"note": "no job completed"}
    counts = sorted({len(steps) for steps in job_steps})
    if len(counts) > 1:
        run.fail("step count", [f"reruns made different numbers of step calls: {counts}"])
    # every rerun does the same work round by round, so each round's median over
    # the reruns keeps sporadic stalls of the host out of the latencies
    rounds = np.median([steps[:counts[0]] for steps in job_steps], axis=0)
    wall = {
        "setup_s": statistics.median(setup_times),
        "run_s": float(rounds.sum()) + statistics.median(other_times),
        "round_ms_p50": float(np.median(rounds)) * 1e3,
        "round_ms_p90": float(np.percentile(rounds, 90)) * 1e3,
    }
    # timings at the reference host speed; see calibration.py
    metrics = {name: value * host.factor for name, value in wall.items()}
    metrics["client_steps_per_s"] = local_steps / metrics["run_s"]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib * 1024 - host.resident_bytes) / 2**20
    metrics = {name: metrics[name] for name in JSON_E2E}
    note = (f"{len(setup_times)} set-ups, {len(job_times)} timed jobs of {len(rounds)} step calls "
            f"and {local_steps} local steps; {host.kind} calibration kernel median "
            f"{host.median_s * 1e3:.3f} ms "
            f"over {len(host.times)} samples, so times are scaled by {host.factor:.4f} "
            f"to the reference host speed")
    return metrics, {"note": note, "wall": wall, "host_factor": host.factor,
                     "calibration_times": host.times, "setup_times": setup_times,
                     "job_times": job_times}


def traced(run, workload, args, shape):
    tracer = spans.Tracer()
    origin = perf_counter()
    setup_rows = []
    tracer.install([])
    try:
        for _ in range(TRACED_SETUPS):
            first = len(tracer.spans)
            inputs = workload.setup(args.seed, shape)
            setup_rows.append(spans.setup_layer_metrics(tracer.spans, first))
    finally:
        tracer.uninstall()

    plain_times, traced_times, job_rows, self_rows = [], [], [], []
    budget_start = perf_counter()
    while len(traced_times) < MIN_JOBS or perf_counter() - budget_start < args.seconds:
        elapsed, _ = run.job(inputs, f"untraced job {len(plain_times)}")
        plain_times.append(elapsed)
        label = f"traced job {len(traced_times)}"
        start_index = len(tracer.spans)
        tracer.reset_tallies()
        tracer.install(inputs["problems"])
        try:
            elapsed, _ = run.job(inputs, label)
        finally:
            tracer.uninstall()
        traced_times.append(elapsed)
        row = spans.job_layer_metrics(tracer.spans, start_index, tracer.tallies)
        job_rows.append(row)
        self_rows.append(spans.span_totals(tracer.spans, start_index)[2])
        run.fail(label, [f"count {name} = {row[name]}, first traced job counted {job_rows[0][name]}"
                         for name in spans.COUNT_METRICS if row[name] != job_rows[0][name]])
    metrics = {name: statistics.median(row[name] for row in job_rows) for name in job_rows[0]}
    for name in setup_rows[0]:
        metrics[name] = statistics.median(row[name] for row in setup_rows)
    metrics["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(plain_times)
    metrics["trace.absent_hooks"] = len(tracer.absent)
    self_by_span = sorted(((name, statistics.median(row.get(name, 0.0) for row in self_rows))
                           for name in set().union(*self_rows)), key=lambda kv: -kv[1])

    spans_path = OUT_DIR / f"{args.workload}.spans.csv"
    tracer.write_spans(spans_path, origin)
    note = (f"{len(setup_rows)} traced set-ups, {len(traced_times)} traced and "
            f"{len(plain_times)} untraced jobs, {len(tracer.spans)} spans in {spans_path.name}")
    return metrics, {"note": note, "absent": sorted(tracer.absent), "self_s_by_span": self_by_span,
                     "traced_job_times": traced_times, "untraced_job_times": plain_times}


if __name__ == "__main__":
    sys.exit(main())
