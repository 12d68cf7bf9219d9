"""The layer boundaries the traced run wraps, and the per-layer metrics.

Every workload reports every per-layer metric; a layer the workload
does not reach reads 0 (it did no work).  Span-derived times are
milliseconds per headline operation of the workload, counts are per
headline operation, unless the metric's README entry says otherwise.
"""

from __future__ import annotations

import numpy as np

from common import metric_units
from spans import Tracer

#: (``module:attr`` to wrap, span name).  Several targets may share a name.
WRAPS = [
    ("repro.engines.auto:AutoEngine.sort", "engines.auto"),
    ("repro.planner.planner:Planner.plan", "planner.plan"),
    ("repro.planner.planner:Planner._score", "planner.score"),
    ("repro.planner.planner:Planner.plan_batch", "planner.plan_batch"),
    ("repro.cluster.sharded:ShardedSorter.sort", "cluster.sort"),
    ("repro.cluster.scheduler:Scheduler.run", "cluster.schedule"),
    ("repro.exec.stream_tier:counting_sort_run", "exec.stream_run"),
    ("repro.exec.stream_tier:sorted_output", "exec.forcing"),
    ("repro.exec.stream_tier:_clone_record", "stream.op_record"),
    ("repro.cluster.sharded:merge_sorted_runs", "exec.merge"),
    ("repro.exec.vectorized:VectorizedBackend.merge_runs", "exec.vectorized_merge"),
    ("repro.exec.backend:ReferenceBackend.merge_runs", "exec.reference_merge"),
    ("repro.core.values:check_unique_ids", "core.unique_check"),
    ("repro.stream.gpu_model:estimate_gpu_time_ms", "stream.model"),
    ("repro.fleet.scheduler:CostOracle.duration_ms", "fleet.oracle"),
    ("repro.fleet.harness:replay", "fleet.replay"),
    ("repro.store.store:SortedStore.insert", "store.insert"),
    ("repro.store.store:SortedStore.range", "store.range"),
    ("repro.store.store:engine_sort", "store.engine_sort"),
    ("repro.store.runs:write_run", "store.write_run"),
    ("repro.store.manifest:StoreManifest.save", "store.manifest_save"),
    ("repro.service.metrics:ServiceInstrumentation.on_execute", "obs.observe"),
    ("repro.service.metrics:ServiceInstrumentation.on_batch", "obs.observe"),
]


def halves(seconds: float, trace: bool) -> list[tuple[float, bool]]:
    """The timed phases of a run: (seconds, traced) pairs.

    A traced run spends half its time untraced, so the same run gives
    the tracing overhead.
    """
    return [(seconds / 2, False), (seconds / 2, True)] if trace else [(seconds, False)]


def install(tracer: Tracer) -> Tracer:
    """Wrap every boundary in :data:`WRAPS`; returns ``tracer``."""
    for target, name in WRAPS:
        tracer.wrap(target, name)
    return tracer


def zeroed() -> dict[str, float]:
    """Every per-layer metric at 0, ready to be filled in."""
    return {name: 0.0 for name in metric_units("per_layer")}


def span_metrics(tracer: Tracer, ops: int, merge_under: str | None = None) -> dict:
    """The span-derived per-layer metrics, per headline operation.

    ``merge_under`` restricts ``exec.merge_ms`` to merges inside that
    span (the store counts its query merges, not its compactions).
    """
    total, self_s, calls = tracer.totals()
    ops = max(ops, 1)

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    merge_s = (
        total["exec.merge"]
        if merge_under is None
        else tracer.seconds_under("exec.merge", merge_under)
    )
    sharded = calls["cluster.sort"]
    return {
        "core.unique_check_ms": ms(total["core.unique_check"]),
        "core.unique_checks": calls["core.unique_check"] / ops,
        "exec.forcing_ms": ms(total["exec.forcing"]),
        "exec.stream_run_ms": ms(self_s["exec.stream_run"]),
        "exec.merge_ms": ms(merge_s),
        "exec.fallbacks": tracer.count_under(
            "exec.reference_merge", "exec.vectorized_merge"
        ) / ops,
        "stream.model_ms": ms(total["stream.model"]),
        "stream.op_records": calls["stream.op_record"] / ops,
        "cluster.shards": (
            tracer.count_under("exec.stream_run", "cluster.sort") / sharded
            if sharded else 0.0
        ),
        "cluster.sort_self_ms": ms(self_s["cluster.sort"]),
        "cluster.schedule_ms": ms(total["cluster.schedule"]),
        "engines.auto_self_ms": ms(self_s["engines.auto"]),
        "planner.plan_ms": ms(total["planner.plan"]),
        "planner.plan_batch_ms": ms(total["planner.plan_batch"]),
        "planner.plans": calls["planner.score"] / ops,
        "planner.score_ms": ms(total["planner.score"]),
        "fleet.schedule_ms": ms(total["fleet.replay"] - total["fleet.oracle"]),
        "obs.observe_ms": ms(total["obs.observe"]),
    }


def store_span_metrics(tracer: Tracer) -> dict:
    """Store ingest and probe split, per insert and per range query."""
    _total, self_s, calls = tracer.totals()
    inserts = max(calls["store.insert"], 1)
    ranges = max(calls["store.range"], 1)
    write_s = tracer.seconds_under(
        "store.write_run", "store.insert"
    ) + tracer.seconds_under("store.manifest_save", "store.insert")
    return {
        "store.insert_sort_ms": 1000.0 * tracer.seconds_under(
            "store.engine_sort", "store.insert"
        ) / inserts,
        "store.insert_write_ms": 1000.0 * write_s / inserts,
        "store.range_probe_ms": 1000.0 * self_s["store.range"] / ranges,
    }


def overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Tracing overhead: traced headline median over untraced, in percent."""
    return 100.0 * (np.median(traced) / np.median(untraced) - 1.0)
