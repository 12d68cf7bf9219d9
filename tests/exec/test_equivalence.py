"""Seeded fuzz: the vectorized tier is bit- and telemetry-identical.

Every case runs both execution tiers on the same input and asserts the
whole contract at once -- byte-identical output *and* identical modeled
accounting (comparison counts, :class:`DiskStats`, reports, makespans).
The grid deliberately includes the inputs that break naive fast paths:
duplicate keys, duplicate (key, id) pairs (which force the wholesale
reference fallback), signed zeros, infinities, denormals, empty and
mid-exhausting runs, and non-power-of-two fan-ins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.sharded import merge_sorted_runs
from repro.hybrid.disk import SimulatedDisk
from repro.hybrid.external import ExternalSorter
from repro.store import SortedStore
from repro.stream.stream import VALUE_DTYPE
from repro.workloads.rng import seeded_rng


def _values(keys, ids) -> np.ndarray:
    out = np.empty(len(keys), dtype=VALUE_DTYPE)
    out["key"] = np.asarray(keys, dtype=np.float32)
    out["id"] = np.asarray(ids, dtype=np.uint32)
    return out


def _as_sorted_run(keys, ids) -> np.ndarray:
    values = _values(keys, ids)
    order = np.lexsort((values["id"], values["key"]))
    return np.ascontiguousarray(values[order])


def _random_runs(rng, k: int, max_len: int = 200) -> list[np.ndarray]:
    lengths = rng.integers(0, max_len, size=k)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return [
        _as_sorted_run(
            rng.random(lengths[i], dtype=np.float32),
            np.arange(offsets[i], offsets[i + 1], dtype=np.uint32),
        )
        for i in range(k)
    ]


def _assert_merge_identical(runs: list[np.ndarray]) -> None:
    ref, ref_comparisons = merge_sorted_runs(runs, tier="reference")
    vec, vec_comparisons = merge_sorted_runs(runs, tier="vectorized")
    assert ref.tobytes() == vec.tobytes()
    assert ref_comparisons == vec_comparisons


class TestMergeEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 32, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_random(self, k, seed):
        rng = seeded_rng(seed)
        _assert_merge_identical(_random_runs(rng, k))

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_heavily_duplicated_keys(self, k):
        rng = seeded_rng(20060425)
        runs = []
        offset = 0
        for _ in range(k):
            n = int(rng.integers(1, 120))
            keys = rng.choice(
                np.array([0.0, 0.25, 0.5], dtype=np.float32), size=n
            )
            runs.append(
                _as_sorted_run(keys, np.arange(offset, offset + n))
            )
            offset += n
        _assert_merge_identical(runs)

    def test_duplicate_key_id_pairs_fall_back_identically(self):
        # The same (key, id) pair in two runs: the vectorized order is
        # ambiguous, so the backend must run the reference tree outright.
        run = _as_sorted_run([0.5] * 8, np.arange(8))
        _assert_merge_identical([run, run.copy(), run.copy()])

    def test_signed_zeros_infinities_denormals(self):
        a = _as_sorted_run(
            [-np.inf, -0.0, 0.0, 1e-45, np.inf], [0, 2, 4, 6, 8]
        )
        b = _as_sorted_run(
            [-np.inf, -1e-45, -0.0, 0.0, np.inf], [1, 3, 5, 7, 9]
        )
        _assert_merge_identical([a, b])

    def test_nan_keys_fall_back_identically(self):
        a = _as_sorted_run([0.1, 0.9], [0, 1])
        b = _values([0.5, np.nan], [2, 3])  # unsortable: left as given
        _assert_merge_identical([a, b])

    def test_empty_and_mid_exhausting_runs(self):
        empty = _values([], [])
        early = _as_sorted_run([0.01, 0.02, 0.03], [0, 1, 2])  # exhausts first
        late = _as_sorted_run([0.5, 0.6, 0.7, 0.8], [3, 4, 5, 6])
        inter = _as_sorted_run([0.015, 0.55, 0.75], [7, 8, 9])
        _assert_merge_identical([empty, early, late, inter, empty])

    def test_all_runs_empty(self):
        _assert_merge_identical([_values([], []), _values([], [])])


class TestExternalPipelineEquivalence:
    @pytest.mark.parametrize(
        "n, chunk, buffer",
        [
            (1000, 64, 16),
            (4096, 256, 8),
            (777, 128, 1),
            (513, 512, 256),
            (100, 16, 100),
            (65, 4, 3),
        ],
    )
    def test_disk_accounting_and_bytes(self, n, chunk, buffer):
        rng = seeded_rng(n)
        values = _values(
            rng.random(n, dtype=np.float32), np.arange(n, dtype=np.uint32)
        )
        outs, reports, stats = [], [], []
        for tier in ("reference", "vectorized"):
            sorter = ExternalSorter(
                chunk, merge_buffer=buffer, exec_tier=tier
            )
            disk = SimulatedDisk(VALUE_DTYPE)
            disk.write_file("input", values)
            reports.append(sorter.sort_file(disk, "input", "output"))
            outs.append(disk.read("output", 0, disk.size("output")).copy())
            stats.append(disk.stats)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert reports[0] == reports[1]
        assert stats[0] == stats[1]

    def test_duplicate_ids_across_chunks_fall_back_identically(self):
        # Constant keys + per-chunk-repeating ids: the merged runs hold
        # duplicate (key, id) pairs, so the vectorized merge must detect
        # the ambiguity and replay the reference path bit-for-bit.
        values = _values(
            np.full(64, 0.5, dtype=np.float32),
            np.tile(np.arange(16, dtype=np.uint32), 4),
        )
        outs, reports = [], []
        for tier in ("reference", "vectorized"):
            sorter = ExternalSorter(16, merge_buffer=8, exec_tier=tier)
            disk = SimulatedDisk(VALUE_DTYPE)
            disk.write_file("input", values)
            reports.append(sorter.sort_file(disk, "input", "output"))
            outs.append(disk.read("output", 0, disk.size("output")).copy())
        assert outs[0].tobytes() == outs[1].tobytes()
        assert reports[0] == reports[1]


class TestStoreEquivalence:
    def _build(self, path, tier, rng):
        store = SortedStore(
            path, engine="cpu-std", exec_tier=tier, memory_pairs=1024
        )
        for seed in range(4):
            batch = seeded_rng(seed).random(
                512, dtype=np.float32
            )
            store.insert(batch)
        return store

    def test_queries_compaction_and_reopen(self, tmp_path, rng):
        stores = {
            tier: self._build(tmp_path / tier, tier, rng)
            for tier in ("reference", "vectorized")
        }
        windows = [(0.1, 0.3), (0.0, 1.0), (0.49, 0.51)]

        answers = {
            tier: (
                [s.range(lo, hi) for lo, hi in windows],
                s.top_k(37),
            )
            for tier, s in stores.items()
        }
        for (ref_r, ref_k), (vec_r, vec_k) in [
            (answers["reference"], answers["vectorized"])
        ]:
            for a, b in zip(ref_r, vec_r):
                assert a.tobytes() == b.tobytes()
            assert ref_k.tobytes() == vec_k.tobytes()

        reports = {tier: s.compact() for tier, s in stores.items()}
        for tier, report in reports.items():
            # Closed-form comparisons hold on both tiers, so the measured
            # makespan equals the planner's prediction exactly.
            assert report.makespan_ms == pytest.approx(report.predicted_ms)
        assert (
            reports["reference"].merge_comparisons
            == reports["vectorized"].merge_comparisons
        )
        assert reports["reference"].merged_pairs == (
            reports["vectorized"].merged_pairs
        )

        # Reopen mid-query: a fresh handle on the same directory (the
        # on-disk state, not the warm cache) answers identically.
        reopened = {
            tier: SortedStore(tmp_path / tier, exec_tier=tier)
            for tier in stores
        }
        for lo, hi in windows:
            assert (
                reopened["reference"].range(lo, hi).tobytes()
                == reopened["vectorized"].range(lo, hi).tobytes()
            )
        assert (
            reopened["reference"].top_k(100).tobytes()
            == reopened["vectorized"].top_k(100).tobytes()
        )
