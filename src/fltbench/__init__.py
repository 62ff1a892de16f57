"""fltbench: a deterministic federated learning benchmark for long-tailed data.

The package simulates federated training over synthetic or CIFAR-10 data
under three partition regimes (IID, Dirichlet label skew, rotated long-tail)
with four algorithms (FedAvg, FedProx, FedPer, CReFF), and reports per-class
and head/medium/tail accuracy alongside partition imbalance statistics.
"""

from .algorithms import (
    ALGORITHMS,
    AlgoConfig,
    ClientUpdate,
    CreffServer,
    aggregate_rep_only,
    aggregate_weighted,
    creff_client_head_grads,
    local_update_fedavg,
    local_update_fedper,
    local_update_fedprox,
)
from .datasets import (
    Dataset,
    class_counts,
    generate_synthetic,
    load_cifar10,
    subset,
)
from .errors import ConfigError, FltbenchError
from .lt_shaping import (
    LtProfile,
    exponential_profile,
    shape_long_tailed,
)
from .nn import (
    Metrics,
    ModelConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    forward,
    init_model,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    sgd_epochs,
)
from .orchestrator import (
    DataConfig,
    ExperimentConfig,
    ExperimentReport,
    ModelSpec,
    SweepCell,
    head_tail_groups,
    run_experiment,
    run_sweep,
    sweep_table,
)
from .partition import (
    Partition,
    PartitionReport,
    PartitionSpec,
    build_partition,
    imbalance_factor,
    partition_report,
)

__version__ = "0.1.0"
