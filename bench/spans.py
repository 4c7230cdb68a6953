"""Spans and counters recorded from outside fedrelax, around calls into it.

A traced run replaces public functions of the package's modules, and methods
of the problem and model instances the benchmark builds, with wrappers. Each
wrapper around a round phase records a span: name, start, end, the index of
the enclosing span and the round id of the enclosing ``Simulation.step``.
Model and quadratic gradient/loss calls run thousands of times per round, so
they are tallied (calls, rows, seconds) rather than spanned; their time stays
inside the phase that asked for them. Spans stay in memory until the run ends.

Hooks are looked up by name. A name that a refactor removed is reported as an
absent hook, and the metrics that depended on it read 0.
"""
from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path); every call is one span
PHASE_HOOKS = (
    ("core.step", "fedrelax.core", "Simulation.step"),
    ("core.local_train", "fedrelax.core", "local_train"),
    ("core.sample", "fedrelax.core", "sample_clients"),
    ("core.relaxed_init", "fedrelax.core", "relaxed_init"),
    ("core.aggregate", "fedrelax.core", "aggregate"),
    ("metrics.divergence", "fedrelax.core", "divergence"),
    ("strategies.client_step", "fedrelax.strategies", "client_step"),
    ("strategies.finish_local", "fedrelax.strategies", "finish_local"),
    ("strategies.server_step", "fedrelax.strategies", "server_step"),
    ("artifacts.checkpoint", "fedrelax.artifacts", "save_checkpoint"),
    ("artifacts.restore", "fedrelax.artifacts", "load_checkpoint"),
    ("artifacts.restore", "fedrelax.artifacts", "restore_simulation"),
    ("stability.paired_run", "fedrelax.stability", "paired_run"),
    ("datasets.setup", "fedrelax.datasets", "make_blobs"),
    ("datasets.setup", "fedrelax.datasets", "dirichlet_partition"),
    ("datasets.setup", "fedrelax.datasets", "shard_dataset"),
    ("datasets.setup", "fedrelax.stability", "make_paired_blob_problems"),
    ("quadratics.family", "fedrelax.quadratics", "make_quadratic_family"),
)


def _local_steps(args, kwargs, result):
    return next((a.k_steps for a in args if hasattr(a, "k_steps")), 0)


def _rows(args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs.get("batch")
    return 0 if batch is None else len(batch)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# extra amounts tallied per span name, beside the span itself
SPAN_AMOUNTS = {"core.local_train": _local_steps, "artifacts.checkpoint": _file_bytes}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, round)
        self.tallies = defaultdict(lambda: [0, 0, 0.0])  # name -> [calls, amount, seconds]
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._round = -1
        self._undo: list[tuple] = []

    # -- installing wrappers ---------------------------------------------------

    def install(self, problems) -> None:
        """Wrap the package's phase functions and the given problem instances."""
        for name, module, path in PHASE_HOOKS:
            owner, attr = self._resolve(module, path)
            if owner is None:
                self.absent.add(f"{name} ({module}.{path})")
                continue
            self._replace(owner, attr, self._span(name, getattr(owner, attr), SPAN_AMOUNTS.get(name)))
        for problem in problems:
            self._hook_instance("problems.eval", problem, "eval_metrics", self._span)
            if hasattr(problem, "family"):
                for kernel in ("client_grad", "client_loss"):
                    self._hook_instance(f"quadratics.{kernel}", problem.family, kernel, self._tally)
            elif hasattr(problem, "model"):
                for kernel in ("grad", "loss"):
                    self._hook_instance(f"models.{kernel}", problem.model, kernel, self._tally, _rows)
            else:
                self.absent.add("models/quadratics (problem has neither .model nor .family)")

    def uninstall(self) -> None:
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    @staticmethod
    def _resolve(module: str, path: str):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None, attr
        return owner, attr

    def _replace(self, owner, attr, wrapper) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _hook_instance(self, name, obj, attr, make, amount=None) -> None:
        fn = getattr(obj, attr, None)
        if not callable(fn):
            self.absent.add(f"{name} ({type(obj).__name__}.{attr})")
            return
        self._replace(obj, attr, make(name, fn, amount))

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, amount=None):
        spans, stack, tally = self.spans, self._stack, self.tallies[name]
        is_step = name == "core.step"

        def wrapper(*args, **kwargs):
            outer_round = self._round
            if is_step:
                self._round = getattr(getattr(args[0], "server", None), "round", -1)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._round)
                self._round = outer_round
            if amount is not None:
                tally[1] += amount(args, kwargs, result)
            return result

        return wrapper

    def _tally(self, name, fn, amount=None):
        tally = self.tallies[name]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            tally[2] += perf_counter() - start
            tally[0] += 1
            if amount is not None:
                tally[1] += amount(args, kwargs, result)
            return result

        return wrapper

    def reset_tallies(self) -> None:
        for t in self.tallies.values():
            t[:] = [0, 0, 0.0]

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_ns,end_ns,parent,round\n")
            for name, start, end, parent, rnd in self.spans:
                f.write(f"{name},{round((start - origin) * 1e9)},"
                        f"{round((end - origin) * 1e9)},{parent},{rnd}\n")


def span_totals(spans: list[tuple], first: int = 0):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus that of its direct children; spans
    nest and run on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    count, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans[first:], start=first):
        count[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - child_time[i]
    return count, incl, self_s


def job_layer_metrics(spans: list[tuple], first: int, tallies) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its spans and tallies."""
    count, incl, self_s = span_totals(spans, first)
    eval_in_step = sum(end - start for name, start, end, parent, _ in spans[first:]
                       if name == "problems.eval" and parent >= 0 and spans[parent][0] == "core.step")
    t = tallies
    return {
        "core.step_self_s": self_s["core.step"],
        "core.local_train_self_s": self_s["core.local_train"],
        "core.sample_s": incl["core.sample"],
        "core.relaxed_init_s": incl["core.relaxed_init"],
        "core.aggregate_s": incl["core.aggregate"],
        "core.rounds": count["core.step"],
        "core.local_steps": t["core.local_train"][1],
        "strategies.client_step_s": incl["strategies.client_step"],
        "strategies.client_step_calls": count["strategies.client_step"],
        "strategies.finish_local_s": incl["strategies.finish_local"],
        "strategies.server_step_s": incl["strategies.server_step"],
        "problems.eval_s": incl["problems.eval"],
        "problems.eval_calls": count["problems.eval"],
        "problems.eval_share": eval_in_step / incl["core.step"] if incl["core.step"] else 0.0,
        "models.grad_calls": t["models.grad"][0],
        "models.loss_calls": t["models.loss"][0],
        "models.rows_processed": t["models.grad"][1] + t["models.loss"][1],
        "models.grad_s": t["models.grad"][2],
        "quadratics.client_grad_calls": t["quadratics.client_grad"][0],
        "quadratics.client_loss_calls": t["quadratics.client_loss"][0],
        "quadratics.grad_s": t["quadratics.client_grad"][2],
        "metrics.divergence_s": incl["metrics.divergence"],
        "metrics.divergence_calls": count["metrics.divergence"],
        "artifacts.checkpoint_s": incl["artifacts.checkpoint"],
        "artifacts.checkpoints": count["artifacts.checkpoint"],
        "artifacts.checkpoint_bytes": t["artifacts.checkpoint"][1],
        "artifacts.restore_s": incl["artifacts.restore"],
        "stability.pair_self_s": self_s["stability.paired_run"],
    }


def setup_layer_metrics(spans: list[tuple], first: int) -> dict[str, float]:
    _, incl, _ = span_totals(spans, first)
    return {"datasets.setup_s": incl["datasets.setup"], "quadratics.family_s": incl["quadratics.family"]}


# metrics that count work; they must repeat exactly from job to job
COUNT_METRICS = (
    "core.rounds", "core.local_steps", "strategies.client_step_calls", "problems.eval_calls",
    "models.grad_calls", "models.loss_calls", "models.rows_processed",
    "quadratics.client_grad_calls", "quadratics.client_loss_calls",
    "metrics.divergence_calls", "artifacts.checkpoints", "artifacts.checkpoint_bytes",
)
