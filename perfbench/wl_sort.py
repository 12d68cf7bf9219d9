"""``sort-1m``: the paper's workload through ``repro.sort`` and ``auto``.

Closed loop, one caller: each request sorts fresh 2^20 uniform float32
keys (value/pointer pairs) with the default planner, between two calls
of ``np.argsort(kind="stable")`` on the same keys, the in-run floor.
"""

from __future__ import annotations

import time

import numpy as np

from common import BenchFailure, Outcome, cold_start_s, own_peak_rss_mb
import layers
from spans import Tracer

N = 1 << 20


def make_keys(rng: np.random.Generator) -> np.ndarray:
    return rng.random(N, dtype=np.float32)


def first_request(seed: int) -> None:
    """The cold-start probe: one request, as a fresh process serves it."""
    import repro

    repro.sort(repro.SortRequest(keys=make_keys(np.random.default_rng(seed))))


def _one(repro, keys: np.ndarray):
    """One request and its floor; checks the answer.

    The floor is the mean of an argsort right before and one right after
    the request, so host speed drift during the request cancels.
    """
    def sort():
        t0 = time.perf_counter()
        result = repro.sort(repro.SortRequest(keys=keys))
        return result, time.perf_counter() - t0

    def floor():
        t0 = time.perf_counter()
        order = np.argsort(keys, kind="stable")
        return order, time.perf_counter() - t0

    (order, before), (result, wall), (_, after) = floor(), sort(), floor()
    if not (
        np.array_equal(result.ids, order) and np.array_equal(result.keys, keys[order])
    ):
        raise BenchFailure("sort-1m: result differs from the stable argsort")
    return wall, (before + after) / 2


def run(opts) -> Outcome:
    import repro

    rng = np.random.default_rng(opts.seed)
    _one(repro, make_keys(rng))  # warm: calibration and imports
    # Its cold start is the longest (2^20 keys) and the steadiest: fewer suffice.
    setup, setup_wall, ref_wall = cold_start_s("sort-1m", opts.seed, repeats=5)

    walls, floors = [], []
    traced_walls = []
    tracer = Tracer()
    for seconds, traced in layers.halves(opts.seconds, opts.trace):
        if traced:
            layers.install(tracer)
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                wall, floor_s = _one(repro, make_keys(rng))
                if traced:
                    traced_walls.append(wall)
                else:
                    walls.append(wall)
                    floors.append(floor_s)
        finally:
            tracer.restore()

    ratios = [w / f for w, f in zip(walls, floors)]
    out = Outcome(attempted=len(walls) + len(traced_walls), failed=0)
    p50 = np.median(walls)
    out.e2e = {
        "setup_s": setup,
        "peak_rss_mb": own_peak_rss_mb(),
        "x_floor": np.median(ratios),
        "tail_x_p50": np.quantile(ratios, 0.9) / np.median(ratios),
    }
    n = len(walls)
    out.table = [
        ("setup_s", setup, "s", "cold process to first 2^20 answer, reference-machine s"),
        ("setup_wall_s", setup_wall, "s", f"as measured; reference start {ref_wall:.3f} s"),
        ("sort_p50_ms", 1000.0 * p50, "ms", f"n={n}, not gated"),
        ("sort_p90_ms", 1000.0 * np.quantile(walls, 0.9), "ms", f"n={n}, not gated"),
        ("sort_x_argsort", out.e2e["x_floor"], "x", f"n={n}"),
        ("sort_x_argsort_p90_x_p50", out.e2e["tail_x_p50"], "x", f"n={n}"),
        ("sort_p90_x_p50", np.quantile(walls, 0.9) / p50, "x", f"n={n}, not gated"),
        ("sort_keys_per_s", N / p50, "1/s", "at the median, not gated"),
        ("peak_rss_mb", out.e2e["peak_rss_mb"], "MB", ""),
    ]
    if opts.trace:
        out.layers = layers.zeroed()
        out.layers.update(layers.span_metrics(tracer, len(traced_walls)))
        out.layers["floor.argsort_ms"] = 1000.0 * np.median(floors)
        out.layers["bench.headline_p50_ms"] = 1000.0 * p50
        out.layers["bench.samples"] = len(traced_walls)
        out.layers["bench.trace_overhead_pct"] = layers.overhead_pct(walls, traced_walls)
    return out
