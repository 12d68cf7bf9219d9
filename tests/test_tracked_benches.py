"""The committed repository-root ``BENCH_*.json`` files are valid and complete.

Each tracked bench mirrors its results to the repository root so the
numbers survive across changes; these checks keep those files whole:
the expected row sets, the keys every row carries, and the recorded
gates the fleet (E29) and observability (E30) benches must meet.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (file, entry, row names, keys every row must carry).
ROW_TABLES = [
    (
        "BENCH_exec_tier.json",
        "test_merge_speedup_and_identity",
        {"2", "8", "32"},
        {"n", "k", "comparisons", "reference_s", "vectorized_s", "speedup"},
    ),
    (
        "BENCH_stream_tier.json",
        "test_abisort_speedup_and_identity",
        {"4096", "16384", "65536"},
        {"n", "stream_ops", "bytes_moved", "reference_s", "vectorized_s", "speedup"},
    ),
    (
        "BENCH_fleet_policies.json",
        "test_burst_policy_comparison",
        {"fifo-priority", "weighted-fair", "deadline-edf"},
        {"fairness", "makespan_ms", "completed", "evicted", "preemptions", "tenants"},
    ),
]

#: (file, entry, keys the entry must carry).
ENTRIES = [
    (
        "BENCH_exec_tier.json",
        "test_external_pipeline_identity",
        {"speedup", "merge_comparisons"},
    ),
    ("BENCH_stream_tier.json", "test_auto_engine_end_to_end", {"engine", "speedup"}),
    (
        "BENCH_obs_overhead.json",
        "test_obs_overhead",
        {
            "in_flight", "devices", "rounds", "bare_s", "instrumented_s",
            "overhead", "gate", "spans_recorded",
        },
    ),
]


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


@pytest.mark.parametrize("name,entry,names,required", ROW_TABLES)
def test_row_tables_are_complete(name, entry, names, required):
    rows = _load(name)[entry]["rows"]
    assert set(rows) == names, sorted(rows)
    missing = [key for key, row in rows.items() if not required <= set(row)]
    assert not missing, missing


@pytest.mark.parametrize("name,entry,required", ENTRIES)
def test_entries_are_complete(name, entry, required):
    row = _load(name)[entry]
    assert required <= set(row), sorted(required - set(row))


def test_fleet_policies_meet_their_gates():
    data = _load("BENCH_fleet_policies.json")
    burst = data["test_burst_policy_comparison"]
    wfs = burst["rows"]["weighted-fair"]
    fifo = burst["rows"]["fifo-priority"]
    assert wfs["fairness"] >= burst["gate"], wfs["fairness"]
    assert (
        wfs["tenants"]["background"]["p99_wait_ms"]
        < fifo["tenants"]["background"]["p99_wait_ms"]
    )
    flood = data["test_flood_quota_and_eviction"]
    assert all(row["evicted"] > 0 for row in flood["rows"].values())


def test_obs_overhead_meets_its_gate():
    row = _load("BENCH_obs_overhead.json")["test_obs_overhead"]
    assert row["overhead"] <= row["gate"], row
    assert row["spans_recorded"] > 0, row
