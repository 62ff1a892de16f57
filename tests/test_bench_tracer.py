"""The benchmark's tracer wraps fltbench functions by the names callers look
up. A binding that is renamed or removed must fail here, not mid-benchmark,
and a step that calls past a wrapped name must fail here, not read 0 in the
benchmark's per-layer metrics."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import fltbench.orchestrator
from fltbench.algorithms import ALGORITHMS, AlgoConfig
from fltbench.nn import TrainConfig
from fltbench.orchestrator import DataConfig, ExperimentConfig, ModelSpec
from fltbench.partition import PartitionSpec

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# The spans one round of each algorithm records, evaluation included.
EVERY_ALGORITHM = {
    "algorithms.local_update", "algorithms.aggregate", "nn.evaluate",
    "orchestrator.sample_clients",
}
CREFF = {
    "algorithms.head_grads", "algorithms.server_round", "algorithms.matching",
    "algorithms.retrain_head",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("fltbench_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_target_binding_resolves_through_owner_dict():
    missing = []
    for module_name, path, _ in _load_tracer().TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{module_name}.{path}")
    assert not missing, f"bindings the benchmark tracer wraps are gone: {missing}"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_one_round_records_the_spans_of_every_step(algorithm):
    config = ExperimentConfig(
        data=DataConfig(source="synthetic", num_classes=3, per_class=20, test_per_class=4, dim=2),
        partition=PartitionSpec(kind="iid", num_clients=3, min_shard_size=1),
        model=ModelSpec(arch="linear_softmax"),
        train=TrainConfig(learning_rate=0.1, batch_size=8),
        algo=AlgoConfig(algorithm=algorithm, rounds=1, ff_per_class=2, ff_steps=2,
                        retrain_steps=2),
        eval_every=1,
        client_holdout_fraction=0.3,
    )
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        fltbench.orchestrator.run_experiment(config)
    finally:
        tracer.uninstall()
    recorded = {name for name, *_ in tracer.spans}
    expected = EVERY_ALGORITHM | (CREFF if algorithm == "creff" else set())
    assert expected <= recorded, f"no spans of {sorted(expected - recorded)}"


def test_setup_of_a_long_tail_run_records_its_spans():
    config = ExperimentConfig(
        data=DataConfig(source="synthetic", num_classes=3, per_class=40, test_per_class=4,
                        dim=2, lt_target_if=4.0),
        partition=PartitionSpec(kind="iid", num_clients=3, min_shard_size=1),
        model=ModelSpec(arch="linear_softmax"),
        train=TrainConfig(learning_rate=0.1, batch_size=8),
        algo=AlgoConfig(algorithm="fedavg", rounds=0),
        client_holdout_fraction=0.3,
    )
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        fltbench.orchestrator.run_experiment(config)
    finally:
        tracer.uninstall()
    recorded = {name for name, *_ in tracer.spans}
    expected = {
        "datasets.build", "lt_shaping.shape", "datasets.subset", "partition.build",
        "partition.report", "datasets.split",
    }
    assert expected <= recorded, f"no spans of {sorted(expected - recorded)}"


@pytest.mark.parametrize("algorithm", ["fedavg", "fedprox", "fedper"])
def test_sgd_spans_count_every_batch_and_row(algorithm):
    # samples_per_s is the tracer's SGD rows over run_s: every batch of
    # sgd_epochs must go through the fltbench.nn.loss_and_grad binding with
    # its labels fourth, or the benchmark reads 0 samples per second.
    rounds, epochs, batch = 2, 2, 7
    config = ExperimentConfig(
        data=DataConfig(source="synthetic", num_classes=3, per_class=20, test_per_class=4, dim=2),
        partition=PartitionSpec(kind="dirichlet", num_clients=3, alpha=0.5, min_shard_size=1),
        model=ModelSpec(arch="mlp1h", hidden_units=4),
        train=TrainConfig(learning_rate=0.1, batch_size=batch, local_epochs=epochs),
        algo=AlgoConfig(algorithm=algorithm, rounds=rounds),
    )
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        report = fltbench.orchestrator.run_experiment(config)
    finally:
        tracer.uninstall()
    sizes = [int(n) for n in report.partition.client_sizes]
    assert len(set(sizes)) > 1  # unequal shards, so short batches differ by client
    batches = sum(name == "nn.loss_and_grad" for name, *_ in tracer.spans)
    assert batches == rounds * epochs * sum(-(-n // batch) for n in sizes)
    assert tracer.sgd_rows() == rounds * epochs * sum(sizes)
