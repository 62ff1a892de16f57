#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Runs every workload with --trace 0 and --trace 1 in --tiny mode and checks
that each run passes its correctness gate and emits every metric that
BENCHMARK.json names, with its unit. Also checks that predictions.json maps
every per-layer metric, and that the benchmark fails without printing a
result when the fltbench sources are missing. Takes about a minute.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stdout[-2000:]} {proc.stderr[-2000:]}"]
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: gate failed: {detail['problems']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metrics {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} = {got}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {m['name']} is {value}")
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "loadavg_start",
                "loadavg_end"):
        if key not in detail["environment"]:
            errors.append(f"{where}: environment lacks {key}")
    return errors


def check_predictions(spec: dict) -> list[str]:
    groups = json.loads((BENCH / "predictions.json").read_text())
    mapped = [layer for g in groups for layer in g["layers"]]
    names = [m["name"] for m in spec["per_layer"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    errors = []
    if sorted(mapped) != sorted(names):
        errors.append(f"predictions.json maps {sorted(set(mapped) ^ set(names))} wrongly")
    for g in groups:
        if not set(g["moves"]) <= e2e or not set(g["on"]) <= workloads:
            errors.append(f"predictions.json group {g['layers'][0]} names unknown metrics")
    return errors


def check_fails_without_sources() -> list[str]:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("fedavg_iid", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_predictions(spec) + check_fails_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: done", file=sys.stderr)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest passed" if not errors else f"selftest failed ({len(errors)} errors)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
