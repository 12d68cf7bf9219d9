"""Sharded GPU-ABiSort: plan, pipeline, sort per device, k-way merge.

The scale-out sort the cluster subsystem exists for:

1. :class:`~repro.cluster.planner.ShardPlanner` partitions the input into
   contiguous shards (one or more pipeline slices per device);
2. every shard is sorted on its device -- a per-device GPU-ABiSort driver
   bound to that device's stream machines (so op logs and counters stay
   per device);
3. the :class:`~repro.cluster.scheduler.Scheduler` lays the shards'
   upload/sort/download stages onto the devices' modeled resources,
   overlapping transfers with compute (Section 7 generalised to N devices);
4. the sorted shard runs are recombined by a k-way merge reusing
   :class:`repro.hybrid.external.LoserTree` under the same (key, id) total
   order the devices sorted by.

Because the total order is identical at every step, the output is
**bit-identical** to a single-device GPU-ABiSort of the whole input, for
any shard count -- sharding changes only the modeled schedule, never the
answer.  The ``vectorized`` tier exploits exactly that: it forces the
whole input in one :func:`~repro.exec.stream_tier.sorted_output` pass
and charges each shard its memoized op log and modeled time (see
:meth:`ShardedSorter._sort_forced`), skipping steps 2 and 4 while every
result field stays identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import ABiSortConfig
from repro.core.values import check_unique_ids, contiguous_id_base
from repro.cluster.device import Device, make_devices
from repro.cluster.planner import ShardPlan, ShardPlanner
from repro.cluster.scheduler import ClusterSchedule, PipelineTask, Scheduler
from repro.errors import SortInputError
from repro.exec import get_backend, resolve_tier
from repro.exec.stream_tier import (
    memo_op_log,
    memo_sort_ms,
    replay_machine,
    sorted_output,
)
from repro.stream.gpu_model import PCIE_SYSTEM, HostSystem, estimate_gpu_time_ms
from repro.stream.mapping2d import Mapping2D, ZOrderMapping
from repro.stream.stream import VALUE_DTYPE

__all__ = ["ShardedSorter", "ShardedSortResult", "merge_sorted_runs"]


def _padded_length(n: int) -> int:
    """The power-of-two length (at least 2) a shard of ``n`` sorts at."""
    return 1 << max(1, (n - 1).bit_length())


def _pad_shard(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Pad one shard to a power of two with +inf keys and *fresh* ids.

    Unlike :func:`repro.workloads.records.pad_to_power_of_two` (whose
    padding ids continue past the chunk length), a shard's ids are global
    input positions, so ids starting at the chunk length could collide with
    real ids of a later shard range.  Padding here draws ids past the
    shard's own maximum, which sort strictly after every real row, so the
    caller truncates with ``sorted[:len(chunk)]`` (returns ``None``).

    At the uint32 ceiling no larger ids exist; the fallback draws *unused*
    small ids instead and returns them, and the caller must then drop the
    padding rows **by id** -- slice truncation would be wrong there, since
    a small-id pad sorts before a real row whose key is also +inf.
    """
    n = chunk.shape[0]
    target = _padded_length(n)
    if target == n:
        return chunk.copy(), None
    pad = np.empty(target - n, dtype=VALUE_DTYPE)
    pad["key"] = np.inf
    base = int(chunk["id"].max()) + 1
    if base + (target - n) <= 1 << 32:
        pad["id"] = np.arange(base, base + target - n, dtype=np.uint32)
        pad_ids = None
    else:
        used = np.unique(chunk["id"])
        free = np.setdiff1d(
            np.arange(2 * target, dtype=np.uint32), used, assume_unique=True
        )
        pad["id"] = free[: target - n]
        pad_ids = pad["id"].copy()
    return np.concatenate([chunk, pad]), pad_ids


def _strip_padding(sorted_padded: np.ndarray, orig: int,
                   pad_ids: np.ndarray | None) -> np.ndarray:
    """Remove the padding rows from a sorted padded shard."""
    if pad_ids is None:
        # Pads have +inf keys and ids above every real id: they sort last.
        return sorted_padded[:orig]
    out = sorted_padded[~np.isin(sorted_padded["id"], pad_ids)]
    assert out.shape[0] == orig
    return out


def merge_sorted_runs(
    runs: list[np.ndarray], tier: str | None = None
) -> tuple[np.ndarray, int]:
    """K-way merge of sorted ``VALUE_DTYPE`` runs, loser-tree semantics.

    Returns the merged array and the number of comparisons the loser
    tree plays (~``n log2 k``, the counted cost of the host-side merge
    stage).  Empty runs are skipped; a single run returns a copy with
    zero comparisons.  ``tier`` selects the execution backend (see
    :mod:`repro.exec`): ``"reference"`` plays every match, ``"vectorized"``
    merges with numpy, ``None`` uses the process default -- the merged
    bytes and the comparison count are identical either way.
    """
    return get_backend(tier).merge_runs(runs)


@dataclass
class ShardedSortResult:
    """Everything one sharded sort produced."""

    values: np.ndarray
    plan: ShardPlan
    schedule: ClusterSchedule
    devices: list[Device]
    #: Modeled sort milliseconds per shard, in shard order.
    shard_sort_ms: list[float] = field(default_factory=list)
    merge_comparisons: int = 0
    merge_modeled_ms: float = 0.0

    @property
    def makespan_ms(self) -> float:
        """Critical-path completion time, merge included."""
        return self.schedule.makespan_ms


class ShardedSorter:
    """Sort one request across a device cluster with transfer overlap.

    Parameters
    ----------
    devices:
        A device list (see :func:`repro.cluster.device.make_devices`) or a
        device count (builds the default GeForce 7800 GTX / PCIe cluster).
    config:
        The GPU-ABiSort variant each device runs.
    slices_per_device:
        Pipeline depth per device (2 enables intra-device transfer overlap;
        see :class:`~repro.cluster.planner.ShardPlanner`).
    overlap:
        Overlap upload/sort/download across a device's pipeline resources
        (the Section-7 trick); ``False`` serializes every stage.
    mapping:
        The 1D->2D mapping the per-device cost model charges reads under.
    host:
        The CPU side: prices the final merge at ``cpu_op_ns`` per
        comparison.
    exec_tier:
        Execution tier (see :mod:`repro.exec`); ``None`` uses the process
        default.  Under ``vectorized`` one global forcing pass replaces
        the per-shard sorts and the merge, and each shard's memoized op
        log is adopted into its device's machine log, so per-device op
        logs and counters stay identical to a reference run.  Bit- and
        telemetry-identical either way.
    """

    def __init__(
        self,
        devices: list[Device] | int = 2,
        *,
        config: ABiSortConfig | None = None,
        slices_per_device: int = 1,
        overlap: bool = True,
        mapping: Mapping2D | None = None,
        host: HostSystem = PCIE_SYSTEM,
        exec_tier: str | None = None,
    ):
        if isinstance(devices, int):
            devices = make_devices(devices, host=host)
        if not devices:
            raise SortInputError("sharded sorter needs at least one device")
        self.devices = devices
        self.config = config or ABiSortConfig()
        self.planner = ShardPlanner(len(devices), slices_per_device)
        self.overlap = overlap
        self.mapping = mapping or ZOrderMapping()
        self.host = host
        self.exec_tier = exec_tier
        self._sorters = {d.index: d.make_sorter(self.config) for d in devices}

    def sort(self, values: np.ndarray) -> ShardedSortResult:
        """Sort a ``VALUE_DTYPE`` array of any length across the cluster."""
        if values.dtype != VALUE_DTYPE:
            raise SortInputError(
                f"expected VALUE_DTYPE input, got {values.dtype}; "
                f"use repro.make_values"
            )
        for device in self.devices:
            device.reset()
        n = values.shape[0]
        plan = self.planner.plan(n)
        if n <= 1:
            return ShardedSortResult(
                values=values.copy(),
                plan=plan,
                schedule=ClusterSchedule(overlap=self.overlap),
                devices=self.devices,
                # Keep one entry per planned shard (a 1-element plan still
                # has one shard) so reports can index shard_sort_ms safely.
                shard_sort_ms=[0.0] * len(plan.shards),
            )
        if resolve_tier(self.exec_tier) == "vectorized":
            result = self._sort_forced(values, plan)
            if result is not None:
                return result
        return self._sort_shards(values, plan)

    def _task(self, shard, sort_ms: float, itemsize: int) -> PipelineTask:
        nbytes = len(shard) * itemsize
        return PipelineTask(
            label=f"shard{shard.index}",
            device=shard.device,
            upload_bytes=nbytes,
            sort_ms=sort_ms,
            download_bytes=nbytes,
        )

    def _result(self, values, plan, tasks, shard_sort_ms, comparisons):
        merge_ms = comparisons * self.host.cpu_op_ns * 1e-6
        scheduler = Scheduler(self.devices, overlap=self.overlap)
        schedule = scheduler.run(tasks, merge_ms=merge_ms)
        return ShardedSortResult(
            values=values,
            plan=plan,
            schedule=schedule,
            devices=self.devices,
            shard_sort_ms=shard_sort_ms,
            merge_comparisons=comparisons,
            merge_modeled_ms=merge_ms,
        )

    def _sort_forced(
        self, values: np.ndarray, plan: ShardPlan
    ) -> ShardedSortResult | None:
        """The vectorized path: one global forcing pass, memoized telemetry.

        Under the strict (key, id) order the merged output of the sorted
        shards is the one sorted permutation of the whole input, so one
        :func:`sorted_output` pass produces it.  Each shard contributes
        only what a reference run would have logged: its memoized op log
        (adopted into its device's machine list) and modeled sort time,
        and the merge its closed-form loser-tree comparison count.
        ``None`` (nothing adopted) sends the caller to the reference path.
        """
        if contiguous_id_base(values["id"]) is None:
            # Each shard's driver rejects repeated ids within the shard;
            # ids repeated across shards are accepted, as on that path.
            for shard in plan.shards:
                check_unique_ids(values[shard.start : shard.stop])
        out = sorted_output(values)
        if out is None:
            return None
        logs: list[tuple] = []
        tasks: list[PipelineTask] = []
        shard_sort_ms: list[float] = []
        for shard in plan.shards:
            sort_ms = 0.0
            if len(shard) >= 2:
                size = _padded_length(len(shard))
                device = self.devices[shard.device]
                log = memo_op_log(self.config, size)
                if log is None:
                    return None
                logs.append((device, log))
                sort_ms = memo_sort_ms(self.config, size, device.gpu, self.mapping)
            shard_sort_ms.append(sort_ms)
            tasks.append(self._task(shard, sort_ms, values.dtype.itemsize))
        for device, log in logs:
            device.machines.append(replay_machine(self.config, log))
        # Late import: repro.analysis reports on this module's results.
        from repro.analysis.complexity import loser_tree_merge_comparisons

        comparisons = loser_tree_merge_comparisons(
            values.shape[0], len(plan.shards)  # planned shards are non-empty
        )
        return self._result(out, plan, tasks, shard_sort_ms, comparisons)

    def _sort_shards(self, values: np.ndarray, plan: ShardPlan) -> ShardedSortResult:
        """The reference path: sort every shard on its device, then merge."""
        runs: list[np.ndarray] = []
        tasks: list[PipelineTask] = []
        shard_sort_ms: list[float] = []
        for shard in plan.shards:
            chunk = values[shard.start : shard.stop]
            sort_ms = 0.0
            if chunk.shape[0] >= 2:
                padded, pad_ids = _pad_shard(chunk)
                sorter = self._sorters[shard.device]
                sorted_padded = sorter.sort(padded)
                sorted_chunk = _strip_padding(
                    sorted_padded, chunk.shape[0], pad_ids
                )
                sort_ms = estimate_gpu_time_ms(
                    sorter.last_machine.ops,
                    self.devices[shard.device].gpu,
                    self.mapping,
                ).total_ms
            else:
                sorted_chunk = chunk.copy()
            runs.append(sorted_chunk)
            shard_sort_ms.append(sort_ms)
            tasks.append(self._task(shard, sort_ms, values.dtype.itemsize))

        if len(runs) > 1:
            merged, comparisons = merge_sorted_runs(runs, tier=self.exec_tier)
        else:
            merged, comparisons = runs[0], 0
        return self._result(merged, plan, tasks, shard_sort_ms, comparisons)
