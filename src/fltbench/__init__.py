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
    ClientShard,
    Dataset,
    class_counts,
    gather,
    generate_synthetic,
    load_cifar10,
    read_record_file,
    stratified_holdout,
    subset,
    write_cifar_batch,
    write_record_file,
)
from .errors import (
    CapacityError,
    ConfigError,
    CorruptRecordError,
    DegenerateClassError,
    EmptyPartitionError,
    EmptyShardError,
    ExperimentError,
    FltbenchError,
    InfeasibleSpecError,
    MalformedFileError,
    NonFiniteError,
    ProfileTooSteepError,
)
from .lt_shaping import (
    LtProfile,
    exponential_profile,
    profile_from_json,
    rotate_profile,
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
)
from .partition import (
    Partition,
    PartitionReport,
    PartitionSpec,
    build_partition,
    partition_dirichlet,
    partition_iid,
    partition_report,
    partition_rotated_longtail,
)
from .stats import (
    DistributionStats,
    global_distribution,
    global_imbalance_factor,
    imbalance_factor_from_counts,
    local_distribution,
    local_imbalance_factor,
)

__version__ = "0.1.0"
