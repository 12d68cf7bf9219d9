"""``fleet-replay``: seeded ``burst`` traces replayed under weighted-fair.

Closed loop, one caller.  The seed picks :data:`TRACES` burst traces;
the run replays them round-robin, each time with a fresh ``CostOracle``
(a cold planner, as a fresh ``fleet replay`` CLI call has), then once
more on the now-warm oracle, which checks that replays repeat.  The
in-run floor is :func:`floor_pass`, a fixed list-scheduling pass over
the same trace that never calls the program.  Times are normalised per
1000 trace requests, so traces of different lengths compare, and each
trace counts once in the statistics, so they do not hinge on how far
round the trace set a run got.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from collections import defaultdict

import numpy as np

from common import BenchFailure, Outcome, cold_start_s, own_peak_rss_mb
import layers
from spans import Tracer

TRACES = 96
#: The per-layer fleet counts sum the reports of this many first traces.
COUNTED_TRACES = 16
POLICY = "weighted-fair"
DEVICES = 4
#: Cost polynomials in log2(n) of the floor's candidate engines: fixed
#: numbers, so the floor's work never depends on the program.
FLOOR_MODELS = [np.array([0.002 * (k + 1), 0.05, 1.0 + k, 0.3 * k]) for k in range(8)]


def floor_pass(trace) -> float:
    """The floor: a fixed list-scheduling pass over the trace; returns its makespan.

    It does the kinds of work a replay does, without the program: costs
    each distinct size once (the cheapest of :data:`FLOOR_MODELS`, by
    ``np.polyval``) and keeps a ``heapq`` of device free times.
    """
    cost: dict[int, float] = {}
    free = [0.0] * DEVICES
    for request in trace.requests:
        c = cost.get(request.n)
        if c is None:
            x = math.log2(request.n)
            c = cost[request.n] = min(float(np.polyval(m, x)) for m in FLOOR_MODELS)
        start = max(heapq.heappop(free), request.arrival_ms)
        heapq.heappush(free, start + c)
    return max(free)


def make_traces(seed: int):
    from repro.workloads.traces import scenario_trace

    return [scenario_trace("burst", seed=seed * 1000 + i) for i in range(TRACES)]


#: The set-up probe replays this one trace whatever the seed: trace
#: lengths differ by seed, and set-up time must not follow them.
SETUP_TRACE_SEED = 0


def first_request(seed: int) -> None:
    from repro.fleet import replay
    from repro.workloads.traces import scenario_trace

    replay(scenario_trace("burst", seed=SETUP_TRACE_SEED), POLICY)


def _floor(trace) -> float:
    t0 = time.perf_counter()
    floor_pass(trace)
    return time.perf_counter() - t0


def _replay(trace, oracle):
    from repro.fleet import replay

    t0 = time.perf_counter()
    report = replay(trace, POLICY, oracle=oracle)
    return report, time.perf_counter() - t0


def run(opts) -> Outcome:
    from repro.fleet.scheduler import CostOracle

    traces = make_traces(opts.seed)
    _replay(traces[0], CostOracle())  # imports and planner calibration
    setup, setup_wall, ref_wall = cold_start_s("fleet-replay", opts.seed)

    golden: dict[int, str] = {}  # each trace's first report, as JSON
    counts = {"completed": 0, "evicted": 0, "preemptions": 0}
    # Wall ms per 1000 trace requests, per trace: cold replays, the floor
    # pass and the warm-oracle replays.
    cold_k: dict[int, list[float]] = defaultdict(list)
    floor_k: dict[int, list[float]] = defaultdict(list)
    warm_k: dict[int, list[float]] = defaultdict(list)
    traced_k: dict[int, list[float]] = defaultdict(list)
    tracer = Tracer()
    replays = 0
    for seconds, traced in layers.halves(opts.seconds, opts.trace):
        if traced:
            layers.install(tracer)
        deadline = time.perf_counter() + seconds
        done = 0  # each half starts at the first trace, so the halves compare
        try:
            while time.perf_counter() < deadline:
                i = done % TRACES
                done += 1
                replays += 1
                trace = traces[i]
                oracle = CostOracle()
                scale = 1e6 / len(trace)
                if traced:
                    report, wall = _replay(trace, oracle)
                    traced_k[i].append(wall * scale)
                    answers = [report]
                else:
                    # The floor runs right before or after the cold replay,
                    # alternately, so host drift between them cancels.
                    if replays % 2:
                        floor_s = _floor(trace)
                        report, wall = _replay(trace, oracle)
                    else:
                        report, wall = _replay(trace, oracle)
                        floor_s = _floor(trace)
                    warm, warm_wall = _replay(trace, oracle)
                    answers = [report, warm]
                    cold_k[i].append(wall * scale)
                    floor_k[i].append(floor_s * scale)
                    warm_k[i].append(warm_wall * scale)
                if report.completed + report.evicted != len(trace):
                    raise BenchFailure(f"fleet-replay: trace {i} lost requests")
                if i not in golden:
                    golden[i] = json.dumps(report.to_json(), sort_keys=True)
                    if i < COUNTED_TRACES:
                        for name in counts:
                            counts[name] += getattr(report, name)
                for answer in answers:
                    if json.dumps(answer.to_json(), sort_keys=True) != golden[i]:
                        raise BenchFailure(f"fleet-replay: trace {i} replayed differently")
        finally:
            tracer.restore()

    # One value per trace, however often the run replayed it, so the
    # statistics do not depend on where in the trace set the run stopped.
    cold = {i: np.median(v) for i, v in cold_k.items()}
    per_trace = list(cold.values())
    p50 = np.median(per_trace)
    # Per trace, each cold replay over the floor pass next to it.
    ratios = [np.median(np.divide(cold_k[i], floor_k[i])) for i in cold_k]
    warm_x = [np.median(np.divide(cold_k[i], warm_k[i])) for i in cold_k]
    out = Outcome(attempted=replays, failed=0)
    out.e2e = {
        "setup_s": setup,
        "peak_rss_mb": own_peak_rss_mb(),
        "x_floor": np.median(ratios),
        "tail_x_p50": np.quantile(ratios, 0.9) / np.median(ratios),
    }
    n = f"n={len(per_trace)} traces, {sum(map(len, cold_k.values()))} replays"
    out.table = [
        ("setup_s", setup, "s", "cold process to first replay, reference-machine s"),
        ("setup_wall_s", setup_wall, "s", f"as measured; reference start {ref_wall:.3f} s"),
        ("replay_req_per_s", 1e6 / p50, "1/s", f"{n}, not gated"),
        ("replay_ms_per_1k_req_p50", p50, "ms", f"{n}, not gated"),
        ("replay_ms_per_1k_req_p90", np.quantile(per_trace, 0.9), "ms", f"{n}, not gated"),
        ("replay_x_floor_pass", out.e2e["x_floor"], "x", n),
        ("replay_x_warm_oracle", float(np.median(warm_x)), "x", f"{n}, not gated"),
        ("replay_x_floor_p90_x_p50", out.e2e["tail_x_p50"], "x", n),
        ("replay_p90_x_p50", np.quantile(per_trace, 0.9) / p50, "x", f"{n}, not gated"),
        ("peak_rss_mb", out.e2e["peak_rss_mb"], "MB", ""),
    ]
    if opts.trace:
        out.layers = layers.zeroed()
        traced_n = sum(map(len, traced_k.values()))
        out.layers.update(layers.span_metrics(tracer, traced_n))
        out.layers["bench.headline_p50_ms"] = p50
        out.layers["bench.samples"] = traced_n
        # Traces replayed in both halves only: trace lengths differ, and
        # the traced half, doing one replay per trace, gets further round.
        both = [i for i in traced_k if i in cold_k]
        out.layers["bench.trace_overhead_pct"] = 100.0 * (
            np.median([np.median(traced_k[i]) / np.median(cold_k[i]) for i in both]) - 1.0
        )
        # Summed over the first COUNTED_TRACES traces: these repeat exactly.
        for name, value in counts.items():
            out.layers[f"fleet.{name}"] = value
    return out
