"""Per-layer tracing of fltbench from outside the program.

The tracer swaps module (and class) attributes that callers look up at call
time for wrappers that record one span per call: name, start, end and the
index of the enclosing span. Nothing inside ``src/`` changes. Spans stay in
memory and are turned into the per-layer metrics of one operation by
``layer_metrics``. Work done inside sweep pool workers is not visible here.
"""
from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute path, span name). One row per binding a caller looks
# up; a function bound in two modules is wrapped at each binding.
# fltbench.algorithms.loss_and_grad is a separate binding from
# fltbench.nn.loss_and_grad: it carries the CReFF head calls, while the nn
# binding carries local SGD (sgd_epochs looks it up in nn).
TARGETS = (
    ("fltbench.cli", "main", "cli.main"),
    ("fltbench.cli", "parse_experiment_config", "config.parse"),
    ("fltbench.cli", "parse_grid_config", "config.parse"),
    ("fltbench.config", "parse_experiment_config", "config.parse"),
    ("fltbench.cli", "run_experiment", "orchestrator.run_experiment"),
    ("fltbench.orchestrator", "run_experiment", "orchestrator.run_experiment"),
    ("fltbench.cli", "run_sweep", "orchestrator.run_sweep"),
    ("fltbench.orchestrator", "build_data", "datasets.build"),
    ("fltbench.orchestrator", "shape_long_tailed", "lt_shaping.shape"),
    ("fltbench.orchestrator", "build_partition", "partition.build"),
    ("fltbench.orchestrator", "partition_report", "partition.report"),
    ("fltbench.orchestrator", "stratified_split_indices", "datasets.split"),
    ("fltbench.datasets", "subset", "datasets.subset"),
    ("fltbench.orchestrator", "derive_seed", "seeding.derive_seed"),
    ("fltbench.seeding", "derive_seed", "seeding.derive_seed"),
    ("fltbench.orchestrator", "sample_clients", "orchestrator.sample_clients"),
    ("fltbench.orchestrator", "local_update_fedavg", "algorithms.local_update"),
    ("fltbench.orchestrator", "local_update_fedprox", "algorithms.local_update"),
    ("fltbench.orchestrator", "local_update_fedper", "algorithms.local_update"),
    ("fltbench.orchestrator", "aggregate_weighted", "algorithms.aggregate"),
    ("fltbench.orchestrator", "aggregate_rep_only", "algorithms.aggregate"),
    ("fltbench.orchestrator", "creff_client_head_grads", "algorithms.head_grads"),
    ("fltbench.algorithms", "CreffServer.server_round", "algorithms.server_round"),
    ("fltbench.algorithms", "matching_loss_and_grad", "algorithms.matching"),
    ("fltbench.algorithms", "retrain_head", "algorithms.retrain_head"),
    ("fltbench.algorithms", "loss_and_grad", "algorithms.loss_and_grad"),
    ("fltbench.nn", "loss_and_grad", "nn.loss_and_grad"),
    ("fltbench.orchestrator", "evaluate", "nn.evaluate"),
)

# Per-layer metrics that are exact counts: they must repeat between runs.
EXACT = (
    "datasets.split_calls",
    "nn.loss_and_grad_calls",
    "nn.batch_rows_mean",
    "nn.sgd_mflop",
    "nn.evaluate_calls",
    "datasets.subset_calls",
    "seeding.derive_seed_calls",
    "algorithms.local_update_calls",
    "algorithms.matching_calls",
    "algorithms.retrain_loss_and_grad_calls",
    "algorithms.classes_matched_ratio",
)


def _flop_per_row(config) -> int:
    """Flops of one batch row in loss_and_grad: 2 x the multiply-adds of the
    forward and backward matrix products (element-wise work left out)."""
    d, m = config.input_dim, config.num_classes
    if config.hidden_units is None:
        return 2 * (2 * d * m)
    h = config.hidden_units
    return 2 * (2 * d * h + 3 * h * m)


class Tracer:
    """Records spans of the wrapped bindings while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.rows: dict[int, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.rows.clear()

    def _wrap(self, fn, name: str):
        spans, stack, rows, clock = self.spans, self._stack, self.rows, time.perf_counter
        sgd = name == "nn.loss_and_grad"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if sgd:  # loss_and_grad(params, config, batch_x, batch_y, ...)
                n = len(args[3])
                rows[idx] = (n, n * _flop_per_row(args[1]))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def layer_metrics(self, ff_steps: int, num_classes: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last clear().

        A span counts toward its layer's time only when no enclosing span has
        the same name, so nested calls (parse_grid_config calling
        parse_experiment_config) are not counted twice.
        """
        spans = self.spans
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        children_s: dict[int, float] = {}
        nested_in: dict[int, set] = {}
        round_starts: dict[int, list[float]] = {}
        retrain_calls = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            names = nested_in.get(parent, set()) | {spans[parent][0]} if parent >= 0 else set()
            nested_in[idx] = names
            calls[name] = calls.get(name, 0) + 1
            if name not in names:
                total[name] = total.get(name, 0.0) + dur
            if parent >= 0:
                children_s[parent] = children_s.get(parent, 0.0) + dur
            if name == "orchestrator.sample_clients":
                round_starts.setdefault(parent, []).append(start)
            if name == "algorithms.loss_and_grad" and "algorithms.retrain_head" in names:
                retrain_calls += 1

        def self_time(layer: str) -> float:
            return sum(
                end - start - children_s.get(idx, 0.0)
                for idx, (name, start, end, _) in enumerate(spans)
                if name == layer
            )

        intervals_ms = [
            1e3 * (b - a)
            for starts in round_starts.values()
            for a, b in zip(starts, starts[1:])
        ]
        sgd_calls = calls.get("nn.loss_and_grad", 0)
        sgd_rows = self.sgd_rows()
        server_rounds = calls.get("algorithms.server_round", 0)
        matched = calls.get("algorithms.matching", 0) / ff_steps if ff_steps else 0.0
        return {
            "datasets.build_s": total.get("datasets.build", 0.0),
            "lt_shaping.shape_s": total.get("lt_shaping.shape", 0.0),
            "partition.build_s": total.get("partition.build", 0.0),
            "partition.report_s": total.get("partition.report", 0.0),
            "config.parse_s": total.get("config.parse", 0.0),
            "datasets.split_calls": calls.get("datasets.split", 0),
            "nn.loss_and_grad_calls": sgd_calls,
            "nn.loss_and_grad_s": total.get("nn.loss_and_grad", 0.0),
            "nn.loss_and_grad_us": (
                1e6 * total["nn.loss_and_grad"] / sgd_calls if sgd_calls else 0.0
            ),
            "nn.batch_rows_mean": sgd_rows / sgd_calls if sgd_calls else 0.0,
            "nn.sgd_mflop": sum(f for _, f in self.rows.values()) / 1e6,
            "nn.evaluate_calls": calls.get("nn.evaluate", 0),
            "nn.evaluate_s": total.get("nn.evaluate", 0.0),
            "datasets.subset_calls": calls.get("datasets.subset", 0),
            "seeding.derive_seed_calls": calls.get("seeding.derive_seed", 0),
            "seeding.derive_seed_s": total.get("seeding.derive_seed", 0.0),
            "orchestrator.self_s": self_time("orchestrator.run_experiment"),
            "algorithms.aggregate_s": total.get("algorithms.aggregate", 0.0),
            "algorithms.local_update_calls": calls.get("algorithms.local_update", 0),
            "algorithms.local_update_s": total.get("algorithms.local_update", 0.0),
            "algorithms.server_round_s": total.get("algorithms.server_round", 0.0),
            "algorithms.matching_calls": calls.get("algorithms.matching", 0),
            "algorithms.matching_s": total.get("algorithms.matching", 0.0),
            "algorithms.retrain_head_s": total.get("algorithms.retrain_head", 0.0),
            "algorithms.retrain_loss_and_grad_calls": retrain_calls,
            "algorithms.head_grads_s": total.get("algorithms.head_grads", 0.0),
            "algorithms.classes_matched_ratio": (
                matched / (num_classes * server_rounds) if server_rounds else 0.0
            ),
            "orchestrator.round_ms_p50": _quantile(intervals_ms, 0.5),
            "orchestrator.round_ms_p90": _quantile(intervals_ms, 0.9),
            "cli.write_s": self_time("cli.main"),
        }

    def sgd_rows(self) -> int:
        """Training rows consumed by local SGD since the last clear()."""
        return sum(n for n, _ in self.rows.values())


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]
