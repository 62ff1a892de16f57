"""fltbench: a deterministic federated learning benchmark for long-tailed data.

The package simulates federated training over synthetic or CIFAR-10 data
under three partition regimes (IID, Dirichlet label skew, rotated long-tail)
with four algorithms (FedAvg, FedProx, FedPer, CReFF), and reports per-class
and head/medium/tail accuracy alongside partition imbalance statistics.

The package exports the names of README's Python API example; everything
else is reached through its submodule, such as fltbench.orchestrator.
"""

from .datasets import exponential_profile, generate_synthetic, shape_long_tailed
from .partition import PartitionSpec, build_partition, partition_report

__version__ = "0.1.0"
