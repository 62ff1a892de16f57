"""Shared fixtures and helpers, and the acceptance-criterion summary printer."""
import re

import numpy as np
import pytest

from fltbench.datasets import generate_synthetic
from fltbench.nn import ModelConfig, ModelParams
from fltbench.config import SweepCell
from fltbench.orchestrator import run_sweep

_CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)_(\w+)")


@pytest.fixture(scope="session")
def balanced_ds():
    """Small balanced dataset shared by partition-level tests."""
    return generate_synthetic(10, 500, 4, 0.5, seed=1)


@pytest.fixture(scope="session")
def cifar_scale_ds():
    """Balanced stand-in at CIFAR scale: 10 classes x 5000 samples."""
    return generate_synthetic(10, 5000, 4, 0.5, seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def as_vector(params: ModelParams) -> np.ndarray:
    """All parameters as one flat vector: the rep block, then the head block."""
    return np.concatenate([params.rep_block, params.head_block])


def split_vector(config: ModelConfig, vec: np.ndarray) -> ModelParams:
    """Inverse of as_vector for the given architecture."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (config.rep_size + config.head_size,):
        raise ValueError("vector length does not match the architecture")
    return ModelParams(vec[: config.rep_size].copy(), vec[config.rep_size :].copy())


def with_ones(config: ModelConfig, x: np.ndarray) -> np.ndarray:
    """Rows as loss_and_grad takes them: x with a trailing ones column for
    mlp1h, whose rep block carries the bias as its last row; x itself for
    linear_softmax."""
    if config.hidden_units is None:
        return x
    return np.hstack([x, np.ones((x.shape[0], 1))])


def run_configs(configs):
    """run_experiment's report for each config, in config order, run two at a
    time on run_sweep's process pool (so without final_params or
    federated_features). Fails the calling test if any run raised."""
    cells = [SweepCell(row="", col="", seed_index=i, config=c) for i, c in enumerate(configs)]
    outcomes = run_sweep(cells, workers=2)
    errors = [error for _, _, error in outcomes if error is not None]
    assert not errors, errors
    return [report for _, report, _ in outcomes]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION_PATTERN.search(getattr(report, "nodeid", ""))
            if match and getattr(report, "when", "call") == "call":
                status = "PASS" if outcome == "passed" else "FAIL"
                lines.append((int(match.group(1)), match.group(2), status))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for number, name, status in sorted(lines):
            terminalreporter.write_line(f"CRITERION {number:02d} {name}: {status}")
