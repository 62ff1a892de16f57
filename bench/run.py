#!/usr/bin/env python3
"""fltbench benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload fedavg_iid --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports fltbench from ``src/``.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
measures the per-layer metrics: it alternates untraced and traced operations
and also reports the tracing overhead. Metric names and units come from
BENCHMARK.json. The last line of stdout is the result object; the line
before it records the environment, each timing's distribution and the
exact counts. Work files go to ``.bench_work/`` and are removed at exit.

Every operation is checked: exit code 0, output files byte-identical to the
first operation's (apart from ``wall_clock_sec``), finite final parameters,
best accuracy above the workload's floor, and for the sweep no ERROR cell.
The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_OP = 2
MIN_OPS = 3


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="few rounds and low accuracy floors, for the self-test")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_start": os.getloadavg(),
    }


def distribution(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it when that percentile is above the median."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


class Bench:
    """One measurement. fltbench and the sibling modules are imported only
    once main() has put src/ on sys.path."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        from tracer import Tracer
        from workloads import SWEEP_WORKERS, TINY_FLOOR, WORKLOADS, write_config

        self.workload = WORKLOADS[args.workload]
        self.seconds = args.seconds
        self.work = work
        self.tracer = Tracer()
        self.workers = SWEEP_WORKERS
        self.floor = TINY_FLOOR if args.tiny else self.workload.floor
        self.config = write_config(self.workload, args.seed, args.tiny, False, work / "run.json")
        self.setup_config = write_config(
            self.workload, args.seed, args.tiny, True, work / "setup.json"
        )
        doc = self.workload.config_doc(args.seed, args.tiny, False)
        base = doc.get("base", doc)
        self.ff_steps = base["algo"]["ff_steps"]
        self.num_classes = base["data"]["num_classes"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: dict[Path, dict] = {}
        self._count = 0

    def op(self, config: Path, traced: bool = False, workers: int | None = None,
           floor: float | None = None):
        """Run one operation, check it, and compare its files with the first."""
        from workloads import run_op

        self._count += 1
        out = self.work / f"op{self._count}"
        if traced:
            self.tracer.clear()
            self.tracer.install()
        try:
            outcome = run_op(self.workload, config, out, workers or self.workers,
                             self.floor if floor is None else floor)
        finally:
            if traced:
                self.tracer.uninstall()
            shutil.rmtree(out, ignore_errors=True)
        reference = self.references.setdefault(config, outcome.files)
        if outcome.files != reference:
            changed = sorted(k for k in reference.keys() | outcome.files.keys()
                             if reference.get(k) != outcome.files.get(k))
            outcome.problems.append(f"outputs differ from the first run: {changed}")
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.problems += outcome.problems
        return outcome

    def warm_up(self):
        """First operation: traced, so it gives exact counts; it also warms
        caches and sets the reference outputs. The sweep runs serially here,
        so its cells are visible to the tracer and the later two-worker
        tables must match a serial one."""
        outcome = self.op(self.config, traced=True, workers=1)
        return outcome, self.tracer.sgd_rows()

    def timed(self, make_op, min_ops: int = MIN_OPS) -> None:
        deadline = time.perf_counter() + self.seconds
        done = 0
        while done < min_ops or time.perf_counter() < deadline:
            make_op(done)
            done += 1

    def end_to_end(self) -> tuple[dict, dict]:
        first, samples = self.warm_up()
        run_s, setup = [], []

        def run_and_set_up(i: int) -> None:
            # Set-ups are interleaved with the runs, so both medians sample
            # the same stretch of time on a host whose speed drifts.
            run_s.append(self.op(self.config).seconds)
            setup.extend(self.op(self.setup_config, floor=0.0).seconds
                          for _ in range(SETUP_PER_OP))

        self.timed(run_and_set_up)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workload.sweep:
            peak_kib = max(peak_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        median_run = statistics.median(run_s)
        metrics = {
            "run_s": median_run,
            "setup_s": statistics.median(setup),
            "samples_per_s": samples / median_run,
            "peak_rss_mb": peak_kib / 1024,
            "best_accuracy": first.best_accuracy,
            "tail_accuracy": first.tail_accuracy,
        }
        detail = {
            "run_s": distribution(run_s),
            "setup_s": distribution(setup),
            "samples_per_run": samples,
        }
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        from tracer import EXACT

        self.warm_up()
        plain, traced, layers = [], [], []

        def alternate(i: int) -> None:
            if i % 2:
                outcome = self.op(self.config, traced=True)
                traced.append(outcome.seconds)
                layer = self.tracer.layer_metrics(self.ff_steps, self.num_classes)
                layer.update(self.sweep_metrics(outcome))
                layers.append(layer)
            else:
                plain.append(self.op(self.config).seconds)

        self.timed(alternate, 2 * MIN_OPS)
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in EXACT and len(set(values)) != 1:
                self.problems.append(f"count {name} differs between runs: {values}")
            metrics[name] = values[0] if name in EXACT else statistics.median(values)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
        )
        detail = {
            "run_s_untraced": distribution(plain),
            "run_s_traced": distribution(traced),
            "counts": {name: metrics[name] for name in EXACT},
        }
        return metrics, detail

    def sweep_metrics(self, outcome) -> dict:
        if not self.workload.sweep:
            return {"orchestrator.sweep_busy_share": 0.0, "orchestrator.sweep_cell_s_sum": 0.0}
        return {
            "orchestrator.sweep_busy_share":
                outcome.cell_seconds / (self.workers * outcome.seconds),
            "orchestrator.sweep_cell_s_sum": outcome.cell_seconds,
        }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "fltbench" / "__init__.py").is_file():
        print(f"fltbench sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        bench = Bench(args, work)
        values, detail = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        bench.problems.append(f"metrics not computed: {missing}")
    correct = not bench.problems and bench.failed == 0
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, environment=env,
        failed_ratio=bench.failed / max(bench.attempted, 1), problems=bench.problems[:20],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
