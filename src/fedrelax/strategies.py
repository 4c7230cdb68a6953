"""Federated optimization strategies: local update rules and server rules.

A strategy is a frozen spec naming a base algorithm plus an optional relaxed
initialization (RI) hook.  RI only changes where a participating client starts
its local pass: start = w + beta * (w - last_local).  ``fedinit`` is plain SGD
clients + mean server with RI enabled; composing RI onto any other base
algorithm changes nothing except that starting point.

Null parameters degrade every base rule to plain FedAvg bit-for-bit:
rho = 0 (fedsam), cm_alpha = 0 (fedcm), dyn_alpha = 0 (feddyn), zero control
variates (scaffold single step), beta = 0 (RI).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

BASE_KINDS = ("fedavg", "fedadam", "fedsam", "scaffold", "feddyn", "fedcm")
STRATEGY_NAMES = BASE_KINDS + ("fedinit",)


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    ri: bool = False
    beta: float = 0.0
    rho: float = 0.05          # fedsam neighborhood radius
    dyn_alpha: float = 0.1     # feddyn proximal weight
    cm_alpha: float = 0.1      # fedcm client mixing weight
    server_lr: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_tau: float = 1e-3

    @property
    def name(self) -> str:
        if self.kind == "fedavg" and self.ri:
            return "fedinit"
        return self.kind + "+ri" if self.ri else self.kind

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"unknown base kind {self.kind!r}; known: {', '.join(BASE_KINDS)}")
        if self.beta != 0.0 and not self.ri:
            raise ValueError("beta is set but relaxed initialization is disabled")
        if self.rho < 0.0:
            raise ValueError("rho must be >= 0")
        if not 0.0 <= self.cm_alpha <= 1.0:
            raise ValueError("cm_alpha must lie in [0, 1]")


def make_strategy(name: str, *, beta: float | None = None,
                  allow_negative_beta: bool = False, **overrides) -> StrategySpec:
    """Build a StrategySpec by public name.

    ``fedinit`` selects SGD clients + mean server with RI on (default beta 0.1).
    Any base name accepts ``beta`` to compose RI on top of it.
    """
    name = name.lower()
    if name not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}")
    if name == "fedinit":
        kind, ri = "fedavg", True
        if beta is None:
            beta = 0.1
    else:
        kind, ri = name, beta is not None
    if kind == "fedadam" and "server_lr" not in overrides:
        overrides["server_lr"] = 0.1
    beta = float(beta or 0.0)
    _check_beta_sign(beta, allow_negative_beta)
    return StrategySpec(kind=kind, ri=ri, beta=beta, **overrides)


def compose_ri(spec: StrategySpec, beta: float, *, allow_negative_beta: bool = False) -> StrategySpec:
    """Enable relaxed initialization on an existing strategy; nothing else changes."""
    _check_beta_sign(float(beta), allow_negative_beta)
    return replace(spec, ri=True, beta=float(beta))


def _check_beta_sign(beta: float, allow_negative_beta: bool) -> None:
    if beta < 0.0 and not allow_negative_beta:
        raise ValueError(
            f"negative beta ({beta}) is simulation-only; pass allow_negative_beta/--allow-negative-beta"
        )


def init_client_aux(spec: StrategySpec, dim: int) -> dict[str, np.ndarray]:
    if spec.kind == "scaffold":
        return {"control": np.zeros(dim)}
    if spec.kind == "feddyn":
        return {"dual": np.zeros(dim)}
    return {}


def init_server_aux(spec: StrategySpec, dim: int) -> dict[str, np.ndarray]:
    if spec.kind == "scaffold":
        return {"control": np.zeros(dim)}
    if spec.kind == "fedadam":
        return {"m": np.zeros(dim), "v": np.zeros(dim)}
    if spec.kind == "fedcm":
        return {"momentum": np.zeros(dim)}
    return {}


@dataclass
class LocalCtx:
    """Per-round inputs to the local update rule of a block of N participants.

    start and client_aux hold one row per participant; anchor and server_aux
    are shared by every row.
    """

    anchor: np.ndarray                      # global model w^t this round, (d,)
    start: np.ndarray                       # actual local starts (after RI), (N, d)
    eta: float
    k_steps: int
    client_aux: dict[str, np.ndarray] = field(default_factory=dict)  # key -> (N, d)
    server_aux: dict[str, np.ndarray] = field(default_factory=dict)  # key -> (d,)


def client_step(spec: StrategySpec, w: np.ndarray, grad_fn, ctx: LocalCtx) -> np.ndarray:
    """One local step of the (N, d) block w, row by row exactly as each client alone.

    grad_fn evaluates the current batches' (N, d) gradient block at any (N, d) point.
    """
    kind = spec.kind
    if kind in ("fedavg", "fedadam"):
        d = grad_fn(w)
    elif kind == "fedsam":
        g0 = grad_fn(w)
        if spec.rho == 0.0:
            d = g0
        else:
            # per-row 1-D norms (norm(axis=1) rounds differently); a zero-gradient row gets scale 0
            norms = [float(np.linalg.norm(g)) for g in g0]
            scale = np.array([0.0 if n == 0.0 else spec.rho / n for n in norms])
            d = grad_fn(w + scale[:, None] * g0)
    elif kind == "scaffold":
        d = grad_fn(w) - ctx.client_aux["control"] + ctx.server_aux["control"]
    elif kind == "feddyn":
        d = grad_fn(w) - ctx.client_aux["dual"]
        if spec.dyn_alpha != 0.0:
            d = d + spec.dyn_alpha * (w - ctx.anchor)
    else:  # fedcm; StrategySpec admits no other kind
        g = grad_fn(w)
        if spec.cm_alpha == 0.0:
            d = g
        else:
            d = spec.cm_alpha * ctx.server_aux["momentum"] + (1.0 - spec.cm_alpha) * g
    return w - ctx.eta * d


def finish_local(spec: StrategySpec, ctx: LocalCtx, w_end: np.ndarray) -> dict[str, np.ndarray]:
    """Post-pass client-state updates; returns replacement aux entries."""
    if spec.kind == "scaffold":
        # difference-of-models control update: equals the mean sampled gradient
        # along the pass because the corrections telescope out
        new_c = (ctx.client_aux["control"] - ctx.server_aux["control"]
                 + (ctx.start - w_end) / (ctx.k_steps * ctx.eta))
        return {"control": new_c}
    if spec.kind == "feddyn":
        return {"dual": ctx.client_aux["dual"] - spec.dyn_alpha * (w_end - ctx.anchor)}
    return {}


def server_step(
    spec: StrategySpec,
    global_w: np.ndarray,
    aggregated: np.ndarray,
    server_aux: dict[str, np.ndarray],
    *,
    eta: float,
    mean_k: float,
    round_idx: int,
    n_clients: int,
    aux_change: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Produce w^{t+1} from the aggregated client mean; mutates server_aux in place.

    aux_change maps each client aux key to the (N, d) change of the
    participants' rows this round, in ascending client id; SCAFFOLD needs it.
    n_clients is the population size C. SCAFFOLD's server control moves by
    (1/C) * sum of the participants' control changes, summed row by row, so it
    stays the mean of all C client controls.
    """
    if spec.kind == "fedadam":
        pseudo = global_w - aggregated
        b1, b2 = spec.adam_beta1, spec.adam_beta2
        server_aux["m"] = b1 * server_aux["m"] + (1.0 - b1) * pseudo
        server_aux["v"] = b2 * server_aux["v"] + (1.0 - b2) * pseudo * pseudo
        t = round_idx + 1
        m_hat = server_aux["m"] / (1.0 - b1 ** t)
        v_hat = server_aux["v"] / (1.0 - b2 ** t)
        new_global = global_w - spec.server_lr * m_hat / (np.sqrt(v_hat) + spec.adam_tau)
    elif spec.server_lr == 1.0:
        new_global = aggregated.copy()
    else:
        new_global = global_w + spec.server_lr * (aggregated - global_w)

    if spec.kind == "scaffold":
        server_aux["control"] = server_aux["control"] + sum(aux_change["control"]) / n_clients
    elif spec.kind == "fedcm":
        server_aux["momentum"] = (global_w - new_global) / (eta * mean_k)
    return new_global


# parameter-vector payloads exchanged per active client per round, (down, up)
PAYLOADS = {
    "fedavg": (1, 1),
    "fedadam": (1, 1),
    "fedsam": (1, 1),
    "scaffold": (2, 2),   # model + control variate each way
    "feddyn": (1, 1),
    "fedcm": (2, 1),      # server broadcasts model + momentum
}

# client-side persistent parameter vectors per client (last local model is the
# baseline 1; control/dual state doubles it)
STORAGE_VECTORS = {
    "fedavg": 1,
    "fedadam": 2,
    "fedsam": 2,
    "scaffold": 2,
    "feddyn": 2,
    "fedcm": 2,
}
