"""``store-mixed``: writes beside reads on one ``SortedStore`` on disk.

Closed loop, one caller, in cycles of :data:`CYCLE_INSERTS` inserts on a
fresh store in the checkout's scratch directory.  Each insert persists
2^14 uniform float32 keys; after it come :data:`RANGES_PER_INSERT`
``range`` windows of about 0.1% selectivity and one ``top_k(1000)``.
An explicit ``compact()`` runs whenever :data:`COMPACT_AT` live runs
have accumulated, so reads see the same sawtooth of run counts in
every cycle.  Every answer is checked against a numpy reference over
everything ingested; that reference's own range lookup is the floor.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from common import (
    WORK,
    BenchFailure,
    Outcome,
    cold_start_s,
    own_peak_rss_mb,
)
import layers
from spans import Tracer

BATCH = 1 << 14
CYCLE_INSERTS = 48
COMPACT_AT = 16
RANGES_PER_INSERT = 8
WINDOW = 0.001
TOP_K = 1000


def first_request(seed: int) -> None:
    from repro.store import SortedStore

    path = WORK / f"setup-store-{seed}"
    shutil.rmtree(path, ignore_errors=True)
    try:
        rng = np.random.default_rng(seed)
        store = SortedStore(path)
        store.insert(rng.random(BATCH, dtype=np.float32))
        store.range(0.5, 0.5 + WINDOW)
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Reference:
    """Everything ingested, as one (key, id)-sorted pair of numpy arrays."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.float32)
        self.ids = np.empty(0, dtype=np.uint32)

    def insert(self, keys: np.ndarray) -> None:
        # The store numbers pairs by ingest position; later ids sort after
        # earlier ones among equal keys, hence side="right".
        ids = np.arange(self.ids.shape[0], self.ids.shape[0] + keys.shape[0],
                        dtype=np.uint32)
        order = np.argsort(keys, kind="stable")
        at = np.searchsorted(self.keys, keys[order], side="right")
        self.keys = np.insert(self.keys, at, keys[order])
        self.ids = np.insert(self.ids, at, ids[order])

    def range(self, lo, hi):
        a = np.searchsorted(self.keys, lo, side="left")
        b = np.searchsorted(self.keys, hi, side="right")
        return self.keys[a:b], self.ids[a:b]


def _same(answer, keys, ids) -> bool:
    return np.array_equal(answer["key"], keys) and np.array_equal(answer["id"], ids)


class Loop:
    """One store workload: operation timings plus the store's own counters."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.ops = 0
        self.cycles = 0
        self.range_s: list[float] = []
        self.range_x: list[float] = []
        self.insert_s: list[float] = []
        self.topk_s: list[float] = []
        self.compact_s: list[float] = []
        self.compact_ratio: list[float] = []
        self.live_runs: list[int] = []
        self.stats = []

    def cycle(self) -> None:
        """Run one whole cycle on a fresh store."""
        from repro.store import SortedStore

        path = WORK / "store"
        shutil.rmtree(path, ignore_errors=True)
        store = SortedStore(path)
        ref = Reference()
        for _ in range(CYCLE_INSERTS):
            keys = self.rng.random(BATCH, dtype=np.float32)
            t0 = time.perf_counter()
            store.insert(keys)
            self.insert_s.append(time.perf_counter() - t0)
            ref.insert(keys)
            self.ops += 1
            if store.run_count >= COMPACT_AT:
                t0 = time.perf_counter()
                report = store.compact()
                wall = time.perf_counter() - t0
                self.compact_s.append(wall)
                # Measured wall time against the cost model's prediction.
                self.compact_ratio.append(1000.0 * wall / report.predicted_ms)
                self.ops += 1
            self._reads(store, ref)
        self.stats.append(store.stats)
        self.cycles += 1

    def _reads(self, store, ref: Reference) -> None:
        for _ in range(RANGES_PER_INSERT):
            lo = np.float32(self.rng.random() * (1.0 - WINDOW))
            hi = np.float32(lo + WINDOW)
            t0 = time.perf_counter()
            got = store.range(float(lo), float(hi))
            t1 = time.perf_counter()
            keys, ids = ref.range(lo, hi)
            t2 = time.perf_counter()
            if not _same(got, keys, ids):
                raise BenchFailure(f"store-mixed: range [{lo}, {hi}] differs from numpy")
            self.range_s.append(t1 - t0)
            self.range_x.append((t1 - t0) / (t2 - t1))
            self.live_runs.append(store.run_count)
            self.ops += 1
        t0 = time.perf_counter()
        top = store.top_k(TOP_K)
        self.topk_s.append(time.perf_counter() - t0)
        if not _same(top, ref.keys[:TOP_K], ref.ids[:TOP_K]):
            raise BenchFailure("store-mixed: top_k differs from numpy")
        self.ops += 1


def run(opts) -> Outcome:
    warm = Loop(opts.seed + 104729)
    warm.cycle()  # imports, calibration, file cache
    setup, setup_wall, ref_wall = cold_start_s("store-mixed", opts.seed)

    # Whole cycles only, so every run reads the same mix of run counts.
    loop = traced_loop = None
    tracer = Tracer()
    for seconds, traced in layers.halves(opts.seconds, opts.trace):
        current = Loop(opts.seed)
        if traced:
            traced_loop = current
            layers.install(tracer)
        else:
            loop = current
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                current.cycle()
        finally:
            tracer.restore()

    attempted = loop.ops + (traced_loop.ops if traced_loop else 0)
    out = Outcome(attempted=attempted, failed=0)
    r_ms = [1000.0 * s for s in loop.range_s]
    p50 = np.median(r_ms)
    out.e2e = {
        "setup_s": setup,
        "peak_rss_mb": own_peak_rss_mb(),
        "x_floor": np.median(loop.range_x),
        "tail_x_p50": np.quantile(loop.range_x, 0.9) / np.median(loop.range_x),
    }
    extra = {
        "store.insert_p50_ms": 1000.0 * np.median(loop.insert_s),
        "store.topk_p50_ms": 1000.0 * np.median(loop.topk_s),
        "store.compact_ms": 1000.0 * np.median(loop.compact_s) if loop.compact_s else 0.0,
    }
    n = len(r_ms)
    out.table = [
        ("setup_s", setup, "s", "cold process to first insert + range, reference-machine s"),
        ("setup_wall_s", setup_wall, "s", f"as measured; reference start {ref_wall:.3f} s"),
        ("store_range_p50_ms", p50, "ms", f"n={n}, not gated"),
        ("store_range_p90_ms", np.quantile(r_ms, 0.9), "ms", f"n={n}, not gated"),
        ("store_range_p99_ms", np.quantile(r_ms, 0.99), "ms", f"n={n}, not gated"),
        ("store_range_x_numpy", out.e2e["x_floor"], "x", f"n={n}"),
        ("store_range_x_numpy_p90_x_p50", out.e2e["tail_x_p50"], "x", f"n={n}"),
        ("store_range_p90_x_p50", np.quantile(r_ms, 0.9) / p50, "x", f"n={n}, not gated"),
        ("store_insert_p50_ms", extra["store.insert_p50_ms"], "ms", f"n={len(loop.insert_s)}"),
        ("store_topk_p50_ms", extra["store.topk_p50_ms"], "ms", f"n={len(loop.topk_s)}"),
        ("store_compact_ms", extra["store.compact_ms"], "ms", f"n={len(loop.compact_s)}"),
        ("peak_rss_mb", out.e2e["peak_rss_mb"], "MB", f"{loop.cycles} cycles"),
    ]
    if opts.trace:
        values = layers.zeroed()
        values.update(layers.span_metrics(tracer, len(traced_loop.range_s), merge_under="store.range"))
        values.update(layers.store_span_metrics(tracer))
        values.update(extra)
        stats = loop.stats
        hits = sum(s.cache_hits for s in stats)
        misses = sum(s.cache_misses for s in stats)
        values.update({
            "store.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "store.read_amplification": np.median([s.read_amplification for s in stats]),
            "store.write_amplification": np.median([s.write_amplification for s in stats]),
            "store.live_runs": sum(loop.live_runs) / len(loop.live_runs),
            "store.compact_measured_vs_predicted": (
                np.median(loop.compact_ratio) if loop.compact_ratio else 0.0
            ),
            "bench.headline_p50_ms": p50,
            "bench.samples": len(traced_loop.range_s),
            "bench.trace_overhead_pct": layers.overhead_pct(loop.range_s, traced_loop.range_s),
        })
        out.layers = values
    return out
