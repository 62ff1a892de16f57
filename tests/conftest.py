"""Shared fixtures and helpers, and the acceptance-criterion summary printer."""
import re

import numpy as np
import pytest

from fltbench.datasets import generate_synthetic
from fltbench.nn import ModelConfig, ModelParams

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
