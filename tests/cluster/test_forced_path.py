"""The vectorized sharded sort: one forcing pass, memoized telemetry.

Under the ``vectorized`` tier :class:`ShardedSorter` no longer sorts and
merges shards: one global :func:`sorted_output` pass yields the values,
and each shard contributes only its memoized op log and modeled sort
time.  Everything a caller can observe must still equal the reference
tier, which really sorts every shard on its device and plays the
loser-tree merge: bytes, per-shard modeled time, merge comparisons, the
pipeline schedule, and every device's op log and counters.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro
from repro.cluster import ShardedSorter, make_devices
from repro.errors import SortInputError
from repro.exec import stream_tier
from repro.stream.gpu_model import (
    GEFORCE_6800_ULTRA,
    GEFORCE_7800_GTX,
    estimate_gpu_time_ms,
)
from repro.stream.mapping2d import RowWiseMapping, ZOrderMapping
from repro.stream.stream import VALUE_DTYPE
from repro.workloads.rng import seeded_rng

DEVICES = (1, 2, 4, 7)
SIZES = (2, 1000)
LARGE = (1 << 16) + 3
ID_KINDS = ("default", "offset", "permutation", "ceiling")
KEY_KINDS = ("uniform", "equal", "zeros", "infinities")


def _keys(kind: str, n: int, rng) -> np.ndarray:
    if kind == "uniform":
        return rng.random(n, dtype=np.float32)
    if kind == "equal":
        return np.full(n, 0.5, dtype=np.float32)
    if kind == "zeros":
        return rng.choice(np.float32([0.0, -0.0]), n)
    return rng.choice(np.float32([-np.inf, np.inf]), n)


def _ids(kind: str, n: int, rng) -> np.ndarray:
    if kind == "default":
        return np.arange(n, dtype=np.uint32)
    if kind == "offset":  # contiguous, not starting at zero
        return np.arange(12345, 12345 + n, dtype=np.uint32)
    if kind == "permutation":
        return rng.permutation(n).astype(np.uint32)
    # The top n ids, descending: shard padding must draw small free ids.
    return np.arange((1 << 32) - 1, (1 << 32) - 1 - n, -1, dtype=np.int64).astype(
        np.uint32
    )


def _values(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    out = np.empty(keys.shape[0], dtype=VALUE_DTYPE)
    out["key"] = keys
    out["id"] = ids
    return out


def _sort(values: np.ndarray, devices: int, tier: str):
    sorter = ShardedSorter(make_devices(devices), exec_tier=tier)
    return sorter.sort(values.copy())


def _assert_identical(ref, vec) -> None:
    assert vec.values.tobytes() == ref.values.tobytes()
    assert vec.shard_sort_ms == ref.shard_sort_ms
    assert vec.merge_comparisons == ref.merge_comparisons
    assert vec.merge_modeled_ms == ref.merge_modeled_ms
    assert vec.schedule == ref.schedule
    assert len(vec.devices) == len(ref.devices)
    for dv, dr in zip(vec.devices, ref.devices):
        assert dv.counters() == dr.counters()
        assert dv.ops() == dr.ops()


def _check(devices: int, n: int, id_kind: str, key_kind: str) -> None:
    rng = seeded_rng(n * 31 + devices)
    values = _values(_keys(key_kind, n, rng), _ids(id_kind, n, rng))
    _assert_identical(
        _sort(values, devices, "reference"), _sort(values, devices, "vectorized")
    )


@pytest.mark.parametrize("key_kind", KEY_KINDS)
@pytest.mark.parametrize("id_kind", ID_KINDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("devices", DEVICES)
def test_vectorized_matches_reference(devices, n, id_kind, key_kind):
    _check(devices, n, id_kind, key_kind)


@pytest.mark.slow
@pytest.mark.parametrize(
    "id_kind,key_kind", list(zip(ID_KINDS, KEY_KINDS))
)
@pytest.mark.parametrize("devices", DEVICES)
def test_vectorized_matches_reference_large(devices, id_kind, key_kind):
    """2^16 + 3: every shard pads; ids and keys paired, not crossed,
    since the reference tier interprets each shard (about 1 s a run)."""
    _check(devices, LARGE, id_kind, key_kind)


class TestFallbacksAndInputContract:
    @pytest.mark.parametrize("devices", DEVICES)
    def test_nan_keys_fall_back_with_identical_bytes(self, devices):
        rng = seeded_rng(7)
        keys = rng.random(300, dtype=np.float32)
        keys[rng.integers(0, 300, size=9)] = np.nan
        values = _values(keys, np.arange(300, dtype=np.uint32))
        assert stream_tier.sorted_output(values) is None
        _assert_identical(
            _sort(values, devices, "reference"),
            _sort(values, devices, "vectorized"),
        )

    @pytest.mark.parametrize("tier", ["reference", "vectorized"])
    def test_duplicate_id_within_a_shard_raises(self, tier):
        rng = seeded_rng(8)
        ids = rng.permutation(400).astype(np.uint32)
        ids[10] = ids[20]  # both in the first of 4 shards
        values = _values(rng.random(400, dtype=np.float32), ids)
        with pytest.raises(SortInputError, match="ids must be unique"):
            _sort(values, 4, tier)

    def test_ids_repeated_across_shards_are_accepted(self):
        rng = seeded_rng(9)
        ids = np.concatenate([np.arange(100), np.arange(100)]).astype(np.uint32)
        values = _values(rng.random(200, dtype=np.float32), ids)  # distinct keys
        ref = _sort(values, 2, "reference")
        vec = _sort(values, 2, "vectorized")
        _assert_identical(ref, vec)
        order = np.lexsort((values["id"], values["key"]))
        assert vec.values.tobytes() == values[order].tobytes()

    def test_repeated_composites_across_shards_fall_back(self):
        # Same (key, id) pair in two shards: no strict order, so the
        # vectorized tier runs the reference sort-and-merge wholesale.
        values = _values(
            np.float32([0.5, 0.25, 0.5, 0.75]), np.uint32([1, 2, 1, 3])
        )
        assert stream_tier.sorted_output(values) is None
        _assert_identical(_sort(values, 2, "reference"), _sort(values, 2, "vectorized"))


#: (engine, warm request length, engine options): the sharded sort at
#: the perfbench size, and the single-device ABiSort and network engines.
WARM_ENGINES = [
    ("sharded-abisort", 1 << 20, {"devices": 8}),
    ("abisort", 1 << 16, {}),
    ("bitonic-network", 1 << 14, {}),
]


class TestMemoizedTelemetry:
    @pytest.mark.parametrize("engine,n,options", WARM_ENGINES)
    def test_second_large_request_drives_and_models_nothing(
        self, monkeypatch, engine, n, options
    ):
        rng = seeded_rng(10)
        request = lambda: repro.SortRequest(  # noqa: E731
            keys=rng.random(n, dtype=np.float32), exec_tier="vectorized"
        )
        first = repro.sort(request(), engine=engine, **options)
        drives, models = [], []
        kernel = stream_tier.CountingStreamMachine._execute_kernel
        model = stream_tier.estimate_gpu_time_ms

        def counted_kernel(self, *args, **kwargs):
            drives.append(args[0])
            return kernel(self, *args, **kwargs)

        def counted_model(*args, **kwargs):
            models.append(1)
            return model(*args, **kwargs)

        monkeypatch.setattr(
            stream_tier.CountingStreamMachine, "_execute_kernel", counted_kernel
        )
        monkeypatch.setattr(stream_tier, "estimate_gpu_time_ms", counted_model)
        monkeypatch.setattr(
            "repro.cluster.sharded.estimate_gpu_time_ms", counted_model
        )
        monkeypatch.setattr(
            "repro.engines.adapters.estimate_gpu_time_ms", counted_model
        )
        second = repro.sort(request(), engine=engine, **options)
        assert drives == [] and models == []
        assert second.telemetry.modeled_gpu_ms == first.telemetry.modeled_gpu_ms
        assert second.telemetry.stream_ops == first.telemetry.stream_ops
        order = np.lexsort((second.ids, second.keys))
        assert np.array_equal(order, np.arange(n))

    @pytest.mark.parametrize(
        "engine,options", [(engine, options) for engine, _, options in WARM_ENGINES]
    )
    def test_mutating_a_result_leaves_the_memo_intact(self, engine, options):
        """Results share the memo's frozen records, never its mutable
        parts: editing one result's telemetry or op-log lists must not
        reach the next same-size request."""
        keys = seeded_rng(14).random(1 << 12, dtype=np.float32)
        request = lambda: repro.SortRequest(  # noqa: E731
            keys=keys, exec_tier="vectorized"
        )
        first = repro.sort(request(), engine=engine, **options)
        expected = dataclasses.replace(first.telemetry, wall_time_s=0.0)
        for field in dataclasses.fields(first.telemetry):
            value = getattr(first.telemetry, field.name)
            if isinstance(value, (int, float)):
                setattr(first.telemetry, field.name, value + 1)
        machines = [first.machine] if first.machine is not None else [
            machine for device in first.cluster.devices
            for machine in device.machines
        ]
        assert machines
        for machine in machines:
            machine.ops.clear()
            machine.ops.append(None)
        if first.cluster is not None:
            first.cluster.counters.stream_ops += 1000
        second = repro.sort(request(), engine=engine, **options)
        assert dataclasses.replace(second.telemetry, wall_time_s=0.0) == expected
        reference = repro.sort(
            repro.SortRequest(keys=keys, exec_tier="reference"),
            engine=engine,
            **options,
        )
        assert (
            dataclasses.replace(reference.telemetry, wall_time_s=0.0) == expected
        )

    @pytest.mark.parametrize("gpu", [GEFORCE_7800_GTX, GEFORCE_6800_ULTRA])
    @pytest.mark.parametrize(
        "mapping", [ZOrderMapping(), RowWiseMapping(64), RowWiseMapping(256)]
    )
    def test_modeled_time_memo_keys_on_hardware(self, gpu, mapping):
        """The same shard sizes on other hardware or mappings must not
        hit another configuration's memoized milliseconds."""
        values = repro.make_values(seeded_rng(13).random(700, dtype=np.float32))
        results = [
            ShardedSorter(
                make_devices(3, gpu=gpu), mapping=mapping, exec_tier=tier
            ).sort(values)
            for tier in ("reference", "vectorized")
        ]
        _assert_identical(*results)

    def test_replays_share_frozen_records(self):
        values = repro.make_values(seeded_rng(11).random(512, dtype=np.float32))
        a = ShardedSorter(2, exec_tier="vectorized").sort(values)
        b = ShardedSorter(2, exec_tier="vectorized").sort(values)
        assert a.devices[0].ops()[0] is b.devices[0].ops()[0]

    def test_op_records_are_frozen(self):
        values = repro.make_values(seeded_rng(12).random(64, dtype=np.float32))
        op = ShardedSorter(1, exec_tier="vectorized").sort(values).devices[0].ops()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.tag = "changed"
        assert isinstance(op.output_blocks, tuple)


def test_memo_fill_races_leave_whole_logs():
    """Threads racing to fill the same memo keys may each drive, but
    every reader sees a whole, reference-identical log and time."""
    config = repro.ABiSortConfig(schedule="sequential")
    sizes = (256, 512, 1024)
    for n in sizes:
        stream_tier._OPLOG_MEMO.pop((config, n), None)
    for key in [k for k in stream_tier._SORT_MS_MEMO if k[0] == config]:
        del stream_tier._SORT_MS_MEMO[key]
    expected = {}
    for n in sizes:
        sorter = repro.make_sorter(config)
        sorter.sort(repro.make_values(np.zeros(n, dtype=np.float32)))
        expected[n] = tuple(sorter.last_machine.ops)
    mapping = ZOrderMapping()
    results, errors = [], []

    def work():
        try:
            for n in sizes:
                log = stream_tier.memo_op_log(config, n)
                ms = stream_tier.memo_sort_ms(config, n, GEFORCE_7800_GTX, mapping)
                results.append((n, log, ms))
        except Exception as err:  # noqa: BLE001 -- reported below
            errors.append(err)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 6 * len(sizes)
    for n, log, ms in results:
        assert log == expected[n]
        assert ms == estimate_gpu_time_ms(
            expected[n], GEFORCE_7800_GTX, mapping
        ).total_ms
    for n in sizes:
        assert stream_tier._OPLOG_MEMO[(config, n)] == expected[n]
