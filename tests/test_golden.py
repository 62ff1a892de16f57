"""Golden digests: the output bytes of the benchmark workloads, pinned.

Each case runs one workload config of bench/workloads.py at seed 0 through
``fltbench.cli.main``, with its rounds cut to ROUNDS to keep the test short,
and compares the sha256 digest of every output file with tests/golden.json.
``wall_clock_sec`` is masked out of reports first. ``table_sweep`` runs at
``--workers`` 1 and 2 against the same digests. The ``partition`` command's
outputs for the three single-run workloads are pinned the same way.

The digests hold for one numpy version, one BLAS build and one machine type,
which golden.json records; anywhere else the test skips and names the
difference. A change that keeps outputs byte-identical must pass without
regenerating. A change that alters outputs by design regenerates them with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fltbench import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEED = 0
# Rounds per workload here; the benchmark runs 20, 8, 60 and 10.
ROUNDS = {"fedavg_iid": 4, "creff_lt": 2, "fedper_c100": 10, "table_sweep": 2}
CASES = [("fedavg_iid", None), ("creff_lt", None), ("fedper_c100", None),
         ("table_sweep", 1), ("table_sweep", 2)]
PARTITION_CASES = ["fedavg_iid", "creff_lt", "fedper_c100"]


@functools.cache
def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "fltbench_bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    """What the digests depend on beyond the source: the numpy version, the
    name and version of the BLAS numpy was built with and the machine type."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def digests(name: str, workers: int | None, work: Path) -> dict[str, str]:
    """sha256 of every file one workload's command writes, by relative path."""
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    doc = workload.config_doc(SEED, tiny=False, setup=False)
    (doc["base"] if workload.sweep else doc)["algo"]["rounds"] = ROUNDS[name]
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    outcome = workloads.run_op(workload, config, work / "out", workers or 1, floor=0.0)
    if outcome.problems:
        raise RuntimeError(f"{name}: {'; '.join(outcome.problems)}")
    return {path: hashlib.sha256(data).hexdigest() for path, data in outcome.files.items()}


def partition_digests(name: str, work: Path) -> dict[str, str]:
    """sha256 of every file the partition command writes for one workload."""
    doc = _load_workloads().WORKLOADS[name].config_doc(SEED, tiny=False, setup=False)
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["partition", "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name}: partition exited {code}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _golden() -> dict:
    """golden.json, or a skip when this run's environment differs from its."""
    golden = json.loads(GOLDEN.read_text())
    have = environment()
    for key, want in golden["environment"].items():
        if have.get(key) != want:
            pytest.skip(f"golden digests were made with {key} {want!r}, this run has "
                        f"{have.get(key)!r}")
    return golden


@pytest.mark.parametrize("name,workers", CASES)
def test_outputs_match_golden_digests(name, workers, tmp_path):
    assert digests(name, workers, tmp_path) == _golden()["digests"][name]


@pytest.mark.parametrize("name", PARTITION_CASES)
def test_partition_outputs_match_golden_digests(name, tmp_path):
    assert partition_digests(name, tmp_path) == _golden()["partition"][name]


def regenerate() -> None:
    table = {}
    for name, workers in CASES:
        with tempfile.TemporaryDirectory() as work:
            found = digests(name, workers, Path(work))
        if table.setdefault(name, found) != found:
            raise RuntimeError(f"{name}: outputs differ between worker counts")
    partitions = {}
    for name in PARTITION_CASES:
        with tempfile.TemporaryDirectory() as work:
            partitions[name] = partition_digests(name, Path(work))
    doc = {"environment": environment(), "partition": partitions, "digests": table}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for section in ("partition", "digests"):
        for name, files in doc[section].items():
            before = old.get(section, {}).get(name, {})
            for path in sorted(files.keys() | before.keys()):
                if files.get(path) != before.get(path):
                    print(f"changed: {section} {name} {path}")
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    regenerate()
