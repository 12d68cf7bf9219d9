"""The persistent sorted store: ingest, query, compact, recover.

:class:`SortedStore` is the system's memory.  Each :meth:`insert` sorts
one batch through the engine registry (``engine="auto"`` routes through
the planner like every other entry point) and persists it as an
immutable sorted run; :meth:`range` and :meth:`top_k` answer queries by
a k-way loser-tree merge over the live runs; :meth:`compact` merges runs
down under a planner-chosen (fan-in, devices) policy; and reopening a
directory recovers exactly the last committed state from the manifest.

**Bit-identity contract.**  Default ids are the global ingest positions
(pair j of the store's lifetime gets id ``j mod 2^32``), so the store's
logical content *is* ``repro.sort`` of everything ever ingested, and
every query answer is bit-identical to the matching slice of that one
big sort -- before compaction, after it, and after a reopen.  The
acceptance tests assert exactly this.

**Cost accounting.**  The store prices its real file traffic with the
hybrid layer's :class:`~repro.hybrid.disk.DiskStats` seek/bandwidth
model: queries charge their O(log n) bisect probes plus result slices,
compaction charges the buffered streaming merge the planner's
:class:`~repro.planner.models.CompactionCostModel` prices (so measured
compaction cost equals the plan's prediction).  A bounded in-memory run
cache serves hot runs without disk charges -- cache hits are RAM, which
is the point of compacting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.cluster.sharded import merge_sorted_runs
from repro.core.values import make_values
from repro.engines import sort as engine_sort
from repro.engines.base import SortRequest
from repro.errors import SortInputError
from repro.hybrid.disk import DiskStats
from repro.planner.models import (
    COMPACTION_MEMORY_PAIRS,
    CompactionCostModel,
    CompactionPlan,
    plan_compaction,
)
from repro.store.compaction import CompactionReport, run_compaction
from repro.store.manifest import (
    MANIFEST_NAME,
    RUN_SUFFIX,
    TMP_SUFFIX,
    RunMeta,
    StoreManifest,
)
from repro.store.runs import (
    PAIR_BYTES,
    bisect_run,
    read_run,
    read_run_slice,
    write_run,
)
from repro.stream.gpu_model import (
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
    GPUModel,
    HostSystem,
)

__all__ = ["StoreConfig", "StoreStats", "SortedStore"]


def _float32_bounds(lo: float, hi: float) -> tuple[np.float32, np.float32]:
    """``[lo, hi]`` rounded outward to float32: the least float32 ``>= lo``
    and the greatest ``<= hi``.

    For every float32 key ``x``, ``x < lo`` iff ``x < lo32`` and
    ``x <= hi`` iff ``x <= hi32``, so a cached run searched with these
    bounds answers exactly like the float64 comparisons of
    :func:`~repro.store.runs.bisect_run` -- without ``searchsorted``
    promoting the whole key column to float64 on every call.
    """
    with np.errstate(over="ignore"):  # beyond float32 range -> +-inf
        lo32, hi32 = np.float32(lo), np.float32(hi)
    if float(lo32) < lo:
        lo32 = np.nextafter(lo32, np.float32(np.inf))
    if float(hi32) > hi:
        hi32 = np.nextafter(hi32, np.float32(-np.inf))
    return lo32, hi32


@dataclass
class StoreConfig:
    """Tuning knobs of one :class:`SortedStore` (see ``docs/store.md``).

    ``engine`` names the backend each ingest batch is sorted with
    (default ``"auto"``: the planner).  ``gpu``/``host`` are the hardware
    models every modeled cost is priced on.  ``max_fan_in`` /
    ``max_devices`` bound the compaction planner's candidate grid, and
    ``memory_pairs`` is the merge memory budget its I/O model splits
    over the cursors.  With ``auto_compact`` on, an insert that leaves
    ``compact_trigger`` or more live runs starts a background
    compaction.  ``cache_pairs`` bounds the in-memory run cache (0
    disables caching entirely; every query then pays disk charges).
    ``exec_tier`` selects the execution tier of every query and
    compaction merge (see :mod:`repro.exec`; ``None`` = process
    default, normally ``"vectorized"``) -- answers and modeled
    accounting are identical across tiers.
    """

    engine: str = "auto"
    gpu: GPUModel = field(default_factory=lambda: GEFORCE_7800_GTX)
    host: HostSystem = field(default_factory=lambda: PCIE_SYSTEM)
    max_fan_in: int = 8
    max_devices: int = 4
    memory_pairs: int = COMPACTION_MEMORY_PAIRS
    auto_compact: bool = False
    compact_trigger: int = 8
    cache_pairs: int = 1 << 22
    exec_tier: str | None = None


@dataclass
class StoreStats:
    """Lifetime telemetry of one store handle (in-process counters).

    ``runs``/``levels``/``live_pairs`` snapshot the manifest;
    ``bytes_read``/``bytes_written``/``seeks`` mirror the store's
    modeled :class:`~repro.hybrid.disk.DiskStats`.  The amplification
    properties are the LSM health numbers: write amplification is total
    bytes written (ingest + compaction rewrites) over bytes ingested,
    read amplification is disk bytes read by queries over bytes
    returned to callers.
    """

    runs: int = 0
    levels: int = 0
    live_pairs: int = 0
    ingested_pairs: int = 0
    ingested_runs: int = 0
    ingest_modeled_ms: float = 0.0
    queries: int = 0
    query_pairs: int = 0
    query_read_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    compactions: int = 0
    compaction_passes: int = 0
    merge_comparisons: int = 0
    compaction_makespan_ms: float = 0.0
    compaction_predicted_ms: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0

    @property
    def write_amplification(self) -> float:
        """Total bytes written over bytes ingested (1.0 = no rewrites)."""
        ingested = self.ingested_pairs * PAIR_BYTES
        return self.bytes_written / ingested if ingested else 0.0

    @property
    def read_amplification(self) -> float:
        """Disk bytes read by queries over bytes returned to callers."""
        returned = self.query_pairs * PAIR_BYTES
        return self.query_read_bytes / returned if returned else 0.0

    def to_json(self) -> dict:
        """All fields plus the amplification properties, JSON-ready."""
        payload = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
        }
        payload["write_amplification"] = self.write_amplification
        payload["read_amplification"] = self.read_amplification
        return payload


class SortedStore:
    """A persistent LSM-style store of sorted (key, id) pairs.

    ``SortedStore(path)`` opens or creates the directory ``path``:
    loading the manifest if one exists, sweeping crash leftovers
    (``*.tmp`` files and run files the manifest does not reference), and
    answering queries from exactly the last committed state.  All public
    methods are thread-safe under one internal lock, which is what lets
    :meth:`compact_in_background` run while inserts and queries proceed.
    """

    def __init__(self, path, config: StoreConfig | None = None, **overrides):
        if config is not None and overrides:
            raise SortInputError("pass a StoreConfig or keyword overrides, not both")
        self.config = config or StoreConfig(**overrides)
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: Modeled disk accounting of every charged file access.
        self.disk = DiskStats()
        self._stats = StoreStats()
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._cache_pairs = 0
        self._compactor: threading.Thread | None = None
        self._compaction_error: BaseException | None = None
        if (self.path / MANIFEST_NAME).exists():
            self.manifest = StoreManifest.load(self.path)
        else:
            self.manifest = StoreManifest()
            self.manifest.save(self.path)
        self._sweep_orphans()

    # ------------------------------------------------------------------
    # recovery

    def _sweep_orphans(self) -> None:
        """Delete crash leftovers: temp files and unreferenced runs."""
        referenced = {run.name for run in self.manifest.runs}
        for entry in self.path.iterdir():
            if entry.name.endswith(TMP_SUFFIX):
                entry.unlink(missing_ok=True)
            elif entry.name.endswith(RUN_SUFFIX) and entry.name not in referenced:
                entry.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # the run cache

    def _cache_put(self, name: str, values: np.ndarray) -> None:
        budget = self.config.cache_pairs
        if budget <= 0 or values.shape[0] > budget:
            return
        if name in self._cache:
            self._cache_pairs -= self._cache.pop(name).shape[0]
        self._cache[name] = values
        self._cache_pairs += values.shape[0]
        while self._cache_pairs > budget:
            _evicted, dropped = self._cache.popitem(last=False)
            self._cache_pairs -= dropped.shape[0]

    def _cache_drop(self, name: str) -> None:
        values = self._cache.pop(name, None)
        if values is not None:
            self._cache_pairs -= values.shape[0]

    def _run_values(self, meta: RunMeta) -> np.ndarray:
        """A run's full array: from cache (free) or disk (charged)."""
        cached = self._cache.get(name := meta.name)
        if cached is not None:
            self._cache.move_to_end(name)
            self._stats.cache_hits += 1
            return cached
        self._stats.cache_misses += 1
        values = read_run(self.path / name, meta.n, self.disk)
        self._cache_put(name, values)
        return values

    # ------------------------------------------------------------------
    # ingest

    def insert(self, keys, ids=None, *, engine: str | None = None) -> RunMeta | None:
        """Sort one batch and persist it as a new generation-0 run.

        ``keys`` is any 1-D array-like of float32 keys.  When ``ids`` is
        omitted, the batch gets the store's globally increasing ingest
        positions -- the default that makes query answers bit-identical
        to one ``repro.sort`` of everything ingested.  Explicit ids are
        the caller's responsibility to keep globally unique.  Returns
        the new run's :class:`~repro.store.manifest.RunMeta`, or ``None``
        for an empty batch (nothing to persist).
        """
        keys = np.asarray(keys, dtype=np.float32)
        if keys.ndim != 1:
            raise SortInputError(f"store inserts take 1-D keys, got {keys.ndim}-D")
        n = int(keys.shape[0])
        if n == 0:
            return None
        with self._lock:
            if ids is None:
                start = self.manifest.ingested_pairs
                ids = (
                    np.arange(start, start + n, dtype=np.uint64) % (1 << 32)
                ).astype(np.uint32)
            else:
                ids = np.asarray(ids, dtype=np.uint32)
            request = SortRequest(
                values=make_values(keys, ids),
                gpu=self.config.gpu,
                host=self.config.host,
            )
            result = engine_sort(request, engine=engine or self.config.engine)
            meta = RunMeta(
                name=self.manifest.new_run_name(0),
                n=n,
                generation=0,
                min_key=float(result.values["key"][0]),
                max_key=float(result.values["key"][-1]),
            )
            write_run(self.path / meta.name, result.values, self.disk)
            self.manifest.runs.append(meta)
            self.manifest.ingested_pairs += n
            self.manifest.save(self.path)
            self._cache_put(meta.name, result.values)
            self._stats.ingested_pairs += n
            self._stats.ingested_runs += 1
            self._stats.ingest_modeled_ms += result.telemetry.modeled_total_ms
            trigger = (
                self.config.auto_compact
                and len(self.manifest.runs) >= self.config.compact_trigger
            )
        if trigger:
            self.compact_in_background()
        return meta

    # ------------------------------------------------------------------
    # queries

    def range(self, lo, hi) -> np.ndarray:
        """All pairs with ``lo <= key <= hi``, in (key, id) order.

        Runs whose manifest key bounds miss the window are pruned
        without touching their files; each overlapping run contributes
        the slice found by an on-disk bisect (O(log n) probe records)
        or, when cached, a :func:`numpy.searchsorted`; the slices merge
        through the cluster layer's loser tree.
        """
        lo, hi = float(lo), float(hi)
        if np.isnan(lo) or np.isnan(hi) or lo > hi:
            raise SortInputError(f"bad range [{lo}, {hi}]")
        lo32, hi32 = _float32_bounds(lo, hi)
        with self._lock:
            read0 = self.disk.bytes_read
            slices = []
            for meta in self.manifest.runs:
                if meta.n == 0 or meta.max_key < lo or meta.min_key > hi:
                    continue
                cached = self._cache.get(meta.name)
                if cached is not None:
                    self._cache.move_to_end(meta.name)
                    self._stats.cache_hits += 1
                    start = int(np.searchsorted(cached["key"], lo32, side="left"))
                    stop = int(np.searchsorted(cached["key"], hi32, side="right"))
                    if stop > start:
                        slices.append(cached[start:stop])
                    continue
                self._stats.cache_misses += 1
                path = self.path / meta.name
                start = bisect_run(path, meta.n, lo, "left", self.disk)
                stop = bisect_run(path, meta.n, hi, "right", self.disk)
                if stop > start:
                    slices.append(
                        read_run_slice(path, start, stop - start, self.disk)
                    )
            merged, _comparisons = merge_sorted_runs(
                slices, tier=self.config.exec_tier
            )
            self._stats.queries += 1
            self._stats.query_pairs += int(merged.shape[0])
            self._stats.query_read_bytes += self.disk.bytes_read - read0
            return merged

    def top_k(self, k: int) -> np.ndarray:
        """The ``k`` smallest pairs under the (key, id) total order.

        Reads at most ``min(k, n)`` head records per live run (the
        bounded read amplification of an LSM top-k), merges them, and
        truncates to ``k``.
        """
        k = int(k)
        if k < 0:
            raise SortInputError(f"top_k needs k >= 0, got {k}")
        with self._lock:
            read0 = self.disk.bytes_read
            slices = []
            if k > 0:
                for meta in self.manifest.runs:
                    if meta.n == 0:
                        continue
                    head = min(k, meta.n)
                    cached = self._cache.get(meta.name)
                    if cached is not None:
                        self._cache.move_to_end(meta.name)
                        self._stats.cache_hits += 1
                        slices.append(cached[:head])
                    else:
                        self._stats.cache_misses += 1
                        slices.append(
                            read_run_slice(self.path / meta.name, 0, head, self.disk)
                        )
            merged, _comparisons = merge_sorted_runs(
                slices, tier=self.config.exec_tier
            )
            out = merged[:k].copy()
            self._stats.queries += 1
            self._stats.query_pairs += int(out.shape[0])
            self._stats.query_read_bytes += self.disk.bytes_read - read0
            return out

    # ------------------------------------------------------------------
    # compaction

    def compaction_plan(self) -> CompactionPlan:
        """The planner's (fan-in, devices) pick for the current runs."""
        with self._lock:
            return plan_compaction(
                [run.n for run in self.manifest.runs],
                host=self.config.host,
                memory_pairs=self.config.memory_pairs,
                max_fan_in=self.config.max_fan_in,
                max_devices=self.config.max_devices,
            )

    def compact(
        self, *, fan_in: int | None = None, devices: int | None = None
    ) -> CompactionReport | None:
        """Merge the live runs down to one, planner-driven by default.

        With ``fan_in``/``devices`` omitted the compaction planner
        scores the candidate grid and the cheapest policy runs;
        pinning either (or both) overrides the planner, with the
        prediction re-scored at the pinned point.  Returns the
        :class:`~repro.store.compaction.CompactionReport`, or ``None``
        when fewer than two non-empty runs exist (nothing to do).
        """
        with self._lock:
            lengths = [run.n for run in self.manifest.runs if run.n > 0]
            if len(lengths) < 2:
                return None
            if fan_in is None or devices is None:
                plan = plan_compaction(
                    lengths,
                    host=self.config.host,
                    memory_pairs=self.config.memory_pairs,
                    max_fan_in=self.config.max_fan_in,
                    max_devices=self.config.max_devices,
                )
                fan_in = fan_in if fan_in is not None else plan.fan_in
                devices = devices if devices is not None else plan.devices
            fan_in = max(2, int(fan_in))
            devices = max(1, int(devices))
            model = CompactionCostModel(
                host=self.config.host, memory_pairs=self.config.memory_pairs
            )
            predicted = model.estimate(
                lengths, fan_in=fan_in, devices=devices
            ).cost_ms
            report = run_compaction(
                self, fan_in=fan_in, devices=devices, predicted_ms=predicted
            )
            self._stats.compactions += 1
            self._stats.compaction_passes += report.passes
            self._stats.merge_comparisons += report.merge_comparisons
            self._stats.compaction_makespan_ms += report.makespan_ms
            self._stats.compaction_predicted_ms += report.predicted_ms
            return report

    def _commit_compaction(self, produced, consumed) -> None:
        """Commit one compaction pass: manifest swap, then input cleanup.

        The manifest save is the commit point -- everything before it is
        invisible to a reopened store, everything after is cleanup of
        files the manifest no longer references.  The crash-safety tests
        inject failures here to prove both sides recover.
        """
        gone = set(consumed)
        self.manifest.runs = [
            run for run in self.manifest.runs if run not in gone
        ] + [meta for meta, _values in produced]
        self.manifest.save(self.path)
        for meta in consumed:
            (self.path / meta.name).unlink(missing_ok=True)
            self._cache_drop(meta.name)
        for meta, values in produced:
            self._cache_put(meta.name, values)

    def compact_in_background(self, **policy) -> threading.Thread:
        """Start (or join onto) a background compaction thread.

        At most one compaction runs at a time; a second call while one
        is alive returns the running thread.  Failures are captured and
        re-raised by :meth:`wait_for_compaction`.
        """
        with self._lock:
            if self._compactor is not None and self._compactor.is_alive():
                return self._compactor

            def worker() -> None:
                try:
                    self.compact(**policy)
                except BaseException as err:  # noqa: BLE001 -- surfaced on join
                    self._compaction_error = err

            self._compaction_error = None
            self._compactor = threading.Thread(
                target=worker, name=f"compact-{self.path.name}", daemon=True
            )
            self._compactor.start()
            return self._compactor

    def wait_for_compaction(self) -> None:
        """Join the background compaction, re-raising its failure if any."""
        compactor = self._compactor
        if compactor is not None:
            compactor.join()
        if self._compaction_error is not None:
            error, self._compaction_error = self._compaction_error, None
            raise error

    # ------------------------------------------------------------------
    # introspection

    @property
    def run_count(self) -> int:
        """Live runs in the manifest."""
        with self._lock:
            return len(self.manifest.runs)

    def bind_metrics(self, registry) -> None:
        """Register callback-backed store metrics on ``registry``.

        Every instrument reads :attr:`stats` at collection time (a
        :class:`repro.obs.metrics.MetricsRegistry` scrape), so the store
        pays nothing on its own hot paths and an exposition always agrees
        with a simultaneously-taken stats snapshot.
        """
        def g(field_name):
            return lambda: getattr(self.stats, field_name)

        registry.gauge(
            "repro_store_runs", "Live runs in the manifest", fn=g("runs")
        )
        registry.gauge(
            "repro_store_levels", "Occupied size-tier levels", fn=g("levels")
        )
        registry.gauge(
            "repro_store_live_pairs", "Live (key, id) pairs",
            fn=g("live_pairs"),
        )
        registry.counter(
            "repro_store_ingested_pairs_total", "Pairs ingested",
            fn=g("ingested_pairs"),
        )
        registry.counter(
            "repro_store_queries_total", "Range/top-k queries served",
            fn=g("queries"),
        )
        registry.counter(
            "repro_store_run_cache_hits_total", "Run-file cache hits",
            fn=g("cache_hits"),
        )
        registry.counter(
            "repro_store_run_cache_misses_total", "Run-file cache misses",
            fn=g("cache_misses"),
        )
        registry.counter(
            "repro_store_compactions_total", "Compactions executed",
            fn=g("compactions"),
        )
        registry.counter(
            "repro_store_compaction_passes_total",
            "Multi-pass merge passes across all compactions",
            fn=g("compaction_passes"),
        )
        registry.counter(
            "repro_store_bytes_read_total", "Modeled disk bytes read",
            fn=g("bytes_read"),
        )
        registry.counter(
            "repro_store_bytes_written_total", "Modeled disk bytes written",
            fn=g("bytes_written"),
        )
        registry.counter(
            "repro_store_seeks_total", "Modeled disk seeks", fn=g("seeks")
        )
        registry.gauge(
            "repro_store_write_amplification",
            "Bytes written over bytes ingested (1.0 = no rewrites)",
            fn=g("write_amplification"),
        )
        registry.gauge(
            "repro_store_read_amplification",
            "Query bytes read over bytes returned",
            fn=g("read_amplification"),
        )

    def __len__(self) -> int:
        with self._lock:
            return self.manifest.live_pairs

    @property
    def stats(self) -> StoreStats:
        """A snapshot of the store's lifetime telemetry."""
        with self._lock:
            return replace(
                self._stats,
                runs=len(self.manifest.runs),
                levels=self.manifest.levels,
                live_pairs=self.manifest.live_pairs,
                bytes_read=self.disk.bytes_read,
                bytes_written=self.disk.bytes_written,
                seeks=self.disk.seeks,
            )
