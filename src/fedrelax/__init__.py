"""Federated-learning simulation engine with personalized relaxed initialization.

Clients start each round not at the broadcast global model but at
w + beta * (w - last_local): the global model pushed away from the client's
previous local endpoint.  The engine instruments the client-drift divergence
term, composes the relaxation with six classic aggregation strategies, checks
the stated convergence/divergence bounds numerically on quadratic families,
and runs paired-dataset uniform-stability experiments — all bit-for-bit
reproducible from (config, seed).
"""

from .core import (
    DivergedError,
    HyperParams,
    RunResult,
    Simulation,
    aggregate,
    relaxed_init,
    run_experiment,
    sample_clients,
)
from .datasets import (
    Dataset,
    PartitionPlan,
    apply_category_bias,
    apply_client_bias,
    blob_centers,
    dirichlet_partition,
    load_csv,
    make_blobs,
    partition_statistics,
    save_csv,
    shard_dataset,
)
from .metrics import (
    AccountingRecord,
    RoundRecord,
    comm_storage_accounting,
    divergence,
    generalization_gap,
    moving_average,
    optimization_error,
    smoothed_max_last,
)
from .models import (
    Batch,
    LinearRegression,
    LogisticRegression,
    MLPClassifier,
    QuadraticModel,
    finite_diff_grad,
)
from .problems import DatasetProblem, QuadraticProblem
from .quadratics import QuadraticFamily, make_quadratic_family
from .stability import (
    StabilityTrace,
    improvement_factor,
    make_paired_blob_problems,
    paired_run,
    replace_sample,
    stability_bound,
    stability_experiment,
    summarize_traces,
)
from .strategies import (
    PAYLOADS,
    STORAGE_VECTORS,
    STRATEGY_NAMES,
    StrategySpec,
    compose_ri,
    make_strategy,
)
from .theory import (
    BoundConstants,
    TheoryAssumptionError,
    compute_constants,
    divergence_decay_check,
    estimate_problem_constants,
    verify_convergence_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AccountingRecord",
    "Batch",
    "BoundConstants",
    "Dataset",
    "DatasetProblem",
    "DivergedError",
    "HyperParams",
    "LinearRegression",
    "LogisticRegression",
    "MLPClassifier",
    "PAYLOADS",
    "PartitionPlan",
    "QuadraticFamily",
    "QuadraticModel",
    "QuadraticProblem",
    "RoundRecord",
    "RunResult",
    "STORAGE_VECTORS",
    "STRATEGY_NAMES",
    "Simulation",
    "StabilityTrace",
    "StrategySpec",
    "TheoryAssumptionError",
    "aggregate",
    "apply_category_bias",
    "apply_client_bias",
    "blob_centers",
    "comm_storage_accounting",
    "compose_ri",
    "compute_constants",
    "dirichlet_partition",
    "divergence",
    "divergence_decay_check",
    "estimate_problem_constants",
    "finite_diff_grad",
    "generalization_gap",
    "improvement_factor",
    "load_csv",
    "make_blobs",
    "make_paired_blob_problems",
    "make_quadratic_family",
    "make_strategy",
    "moving_average",
    "optimization_error",
    "paired_run",
    "partition_statistics",
    "relaxed_init",
    "replace_sample",
    "run_experiment",
    "sample_clients",
    "save_csv",
    "shard_dataset",
    "smoothed_max_last",
    "stability_bound",
    "stability_experiment",
    "summarize_traces",
    "__version__",
]
