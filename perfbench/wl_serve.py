"""``serve-socket``: the real NDJSON server, driven over its socket.

The server runs as a child process (``python -m repro serve --port 0``).
One asyncio client sends an open loop of Poisson arrivals at the fixed
rate :data:`RATE_HZ` over :data:`CONNECTIONS` persistent pipelined
connections, plus ``{"op": "ping"}`` lines at :data:`PING_HZ`.  Sizes come
from the repo's own ``lognormal_sizes`` and are not clipped below the
server's 64 KiB line limit, so the oversize tail (about 1% of lines)
shows up as failed requests: the server drops those connections.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    BENCH_DIR,
    BenchFailure,
    Outcome,
    ROOT,
    child_env,
    proc_cpu_s,
    proc_peak_rss_mb,
    stop_process,
    WORK,
    setup_s,
)
import layers
from spans import Tracer

#: Offered load, fixed: about a quarter of the capacity measured on the
#: reference machine (2-core x86 container, Python 3.11), never derived at
#: run time.
RATE_HZ = 60.0
PING_HZ = 5.0
CONNECTIONS = 2
#: An unanswered line counts as failed this long after it was due.
DEADLINE_S = 10.0
#: Requests of at least this many keys (twice the median size, about the
#: largest fifth) make up the size tail that the gated tail times.
TAIL_KEYS = 1 << 10
WARMUP_S = 3.0
SIZE_MEDIAN = 1 << 9
SIZE_SIGMA = 0.8
SIZE_MAX = 1 << 13
#: Bytes of client socket buffer: large answers exceed asyncio's default.
CLIENT_LIMIT = 1 << 24
_TAG = re.compile(rb'\{"id": (\d+),')


@dataclass
class Req:
    tag: int
    due: float
    keys: np.ndarray | None  # None for a ping
    line: bytes
    sent: float = 0.0
    done: float | None = None
    answer: bytes | None = None
    telemetry: dict | None = None
    failed: str | None = None


@dataclass
class Conn:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    outstanding: dict = field(default_factory=dict)
    closed: bool = False
    task: asyncio.Task | None = None
    #: Set by the reader loop on every answer and on the drop.
    settled: asyncio.Event = field(default_factory=asyncio.Event)


def make_requests(seed: int, seconds: float, first_tag: int) -> list[Req]:
    """The seeded open-loop schedule: sorts and pings, in due order."""
    from repro.workloads.traces import lognormal_sizes, poisson_arrivals

    rng = np.random.default_rng(seed)
    sort_due = poisson_arrivals(rng, RATE_HZ, seconds * 1000.0)
    ping_due = list(np.arange(0.0, seconds * 1000.0, 1000.0 / PING_HZ))
    sizes = lognormal_sizes(
        rng, len(sort_due), median=SIZE_MEDIAN, sigma=SIZE_SIGMA, n_max=SIZE_MAX
    )
    reqs = []
    for due_ms, n in zip(sort_due, sizes):
        keys = rng.random(n, dtype=np.float32)
        reqs.append(Req(0, due_ms / 1000.0, keys, b""))
    reqs += [Req(0, due_ms / 1000.0, None, b"") for due_ms in ping_due]
    reqs.sort(key=lambda r: r.due)
    for i, req in enumerate(reqs):
        req.tag = first_tag + i
        if req.keys is None:
            message = {"op": "ping", "id": req.tag}
        else:  # the repo client's encoding (see repro.service.server)
            message = {"keys": [float(k) for k in req.keys], "id": req.tag}
        req.line = (json.dumps(message) + "\n").encode()
    return reqs


# -- the server child ---------------------------------------------------------


def spawn_server(log_name: str, spans_out=None):
    """Start a server child; returns (process, port, spawn time)."""
    logs = WORK / "serve"
    logs.mkdir(parents=True, exist_ok=True)
    if spans_out is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "serve_boot.py"), str(spans_out),
               "serve", "--port", "0"]
    started = time.perf_counter()
    with open(logs / log_name, "w") as stderr:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
            cwd=ROOT, text=True,
        )
    line = proc.stdout.readline()
    match = re.search(r"serving on [^:]+:(\d+)", line)
    if match is None:
        stop_process(proc)
        raise BenchFailure(f"server did not start: {line.strip()!r}")
    return proc, int(match.group(1)), started


def stop_server(proc) -> None:
    """Interrupt the server (it unwinds and reports), then reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    stop_process(proc)
    proc.stdout.close()


async def _first_answer(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=CLIENT_LIMIT)
    try:
        keys = np.random.default_rng(0).random(SIZE_MEDIAN, dtype=np.float32)
        writer.write((json.dumps({"keys": [float(k) for k in keys]}) + "\n").encode())
        await writer.drain()
        reply = json.loads(await reader.readline())
        if "keys" not in reply:
            raise BenchFailure(f"first request failed: {reply}")
    finally:
        writer.close()
        await writer.wait_closed()


def cold_start():
    """:func:`~common.setup_s` over server spawns to first answer.

    Keeps the last server running.  Returns ``(process, port, setup)``,
    where ``setup`` is what :func:`~common.setup_s` returns.
    """
    server = []  # the live (process, port), at most one

    def probe() -> float:
        if server:
            stop_server(server.pop()[0])
        proc, port, started = spawn_server("setup.log")
        server.append((proc, port))
        asyncio.run(_first_answer(port))
        return time.perf_counter() - started

    try:
        setup = setup_s(probe)
    except BaseException:
        for proc, _port in server:
            stop_server(proc)
        raise
    return (*server[0], setup)


# -- the load generator -------------------------------------------------------


async def _reader_loop(conn: Conn) -> None:
    while True:
        try:
            line = await conn.reader.readline()
        except (ConnectionError, OSError):
            line = b""
        if not line:
            break
        req = conn.outstanding.pop(_tag_of(line), None)
        if req is not None:
            req.done = time.perf_counter()
            req.answer = line  # checked after the timed phase
            conn.settled.set()
    # What is still outstanding was lost with the connection; the
    # :class:`Link` that owns it resends it.
    conn.closed = True
    conn.settled.set()


def _tag_of(line: bytes):
    """The ``"id"`` of an answer line, without decoding the whole line.

    The server writes ``"id"`` first; decoding a large answer inside the
    timed loop would delay the timestamps of the answers behind it.
    """
    match = _TAG.match(line)
    return int(match.group(1)) if match else json.loads(line).get("id")


async def _connect(port: int) -> Conn:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=CLIENT_LIMIT)
    conn = Conn(reader, writer)
    conn.task = asyncio.create_task(_reader_loop(conn))
    return conn


async def _send(conn: Conn, req: Req) -> None:
    conn.outstanding[req.tag] = req
    try:
        conn.writer.write(req.line)
        await conn.writer.drain()
    except (ConnectionError, OSError):
        pass  # the reader loop sees the drop


class Link:
    """One pipelined connection slot, redialled after the server drops it.

    A drop loses every line in flight on the connection, how many depends
    on timing.  So each lost line is resent alone on the new connection,
    and only a line that drops the connection again with nothing else in
    flight counts as failed: the failed count depends on the inputs only.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Conn | None = None
        self.retired: list[Conn] = []

    async def _redial(self) -> None:
        if self.conn is not None:
            self.retired.append(self.conn)
        self.conn = await _connect(self.port)

    async def live(self) -> Conn:
        """The open connection, after resending what a drop lost."""
        if self.conn is None:
            await self._redial()
        if self.conn.closed:
            lost = sorted(self.conn.outstanding.values(), key=lambda r: r.tag)
            self.conn.outstanding.clear()
            for req in lost:
                await self._alone(req)
            if self.conn.closed:
                await self._redial()
        return self.conn

    async def _alone(self, req: Req) -> None:
        if self.conn.closed:
            await self._redial()
        conn = self.conn
        await _send(conn, req)
        try:
            await asyncio.wait_for(
                _settled(conn, req), max(req.due + DEADLINE_S - time.perf_counter(), 0.0)
            )
        except asyncio.TimeoutError:
            pass
        if req.done is None:
            conn.outstanding.pop(req.tag, None)
            req.done = time.perf_counter()
            req.failed = "connection dropped" if conn.closed else "no answer by the deadline"

    def close(self) -> list[Conn]:
        conns = self.retired + ([self.conn] if self.conn is not None else [])
        for conn in conns:
            conn.writer.close()
        return conns


async def _settled(conn: Conn, req: Req) -> None:
    """Wait until ``req`` is answered or ``conn`` drops."""
    while req.tag in conn.outstanding and not conn.closed:
        conn.settled.clear()
        await conn.settled.wait()


async def _sender(link: Link, queue: asyncio.Queue, late: list, deadline) -> None:
    """Send what ``queue`` hands over on ``link``, then wait for the answers."""
    while (req := await queue.get()) is not None:
        conn = await link.live()
        req.sent = time.perf_counter()
        late.append(req.sent - req.due)
        await _send(conn, req)
    while True:
        conn = await link.live()
        remaining = deadline() - time.perf_counter()
        if not conn.outstanding or remaining <= 0:
            return
        conn.settled.clear()
        try:
            await asyncio.wait_for(conn.settled.wait(), remaining)
        except asyncio.TimeoutError:
            return


async def drive(port: int, reqs: list[Req]) -> list[float]:
    """Send ``reqs`` on schedule; returns how late each send was (s).

    Request ``i`` goes to connection ``i % CONNECTIONS``; each connection
    has its own sender, so resending after a drop holds up only its own.
    """
    links = [Link(port) for _ in range(CONNECTIONS)]
    queues = [asyncio.Queue() for _ in links]
    late = []
    senders = []
    try:
        for link in links:
            await link.live()
        t0 = time.perf_counter()
        for req in reqs:
            req.due += t0
        last_due = reqs[-1].due if reqs else t0
        senders = [
            asyncio.create_task(_sender(link, queue, late, lambda: last_due + DEADLINE_S))
            for link, queue in zip(links, queues)
        ]
        for i, req in enumerate(reqs):
            await asyncio.sleep(max(req.due - time.perf_counter(), 0.0))
            queues[i % CONNECTIONS].put_nowait(req)
        for queue in queues:
            queue.put_nowait(None)
        await asyncio.gather(*senders)
    finally:
        for task in senders:
            task.cancel()
        conns = [c for link in links for c in link.close()]
        for conn in conns:
            if conn.task is not None:
                await asyncio.gather(conn.task, return_exceptions=True)
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    for req in reqs:
        if req.done is None:
            req.done, req.failed = time.perf_counter(), "no answer by the deadline"
    return late


async def _scrape(port: int) -> dict[str, float]:
    """The server's metrics exposition, as {sample name: value}."""
    from repro.service.server import request_op

    text = (await request_op("127.0.0.1", port, "metrics"))["metrics"]
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def verify(reqs: list[Req]) -> None:
    """Check every answer against numpy; keep only what the metrics need.

    A wrong answer raises :class:`BenchFailure`: it fails the whole run.
    """
    for req in reqs:
        if req.answer is not None:
            _verify_one(req, json.loads(req.answer))
            req.answer = None


def _verify_one(req: Req, message: dict) -> None:
    """Check one decoded answer.

    A sort answer must hold the float32 keys in ``np.sort`` order and
    the matching stable permutation.  An ``"error"`` answer marks the
    request failed; an answer holding other keys or ids fails the run.
    """
    if req.keys is None:
        req.failed = None if message.get("ok") else "bad ping answer"
        return
    if "keys" not in message:
        req.failed = f"error: {message.get('error')}"
        return
    order = np.argsort(req.keys, kind="stable")
    got_keys = np.asarray(message["keys"], dtype=np.float32)
    got_ids = np.asarray(message["ids"], dtype=np.int64)
    if not (np.array_equal(got_keys, req.keys[order]) and np.array_equal(got_ids, order)):
        raise BenchFailure(f"serve-socket: response {req.tag} differs from np.sort")
    req.telemetry = message["telemetry"]


def count_failed(reqs: list[Req]) -> int:
    """Failed sort requests: errors, dropped or unanswered lines."""
    return sum(1 for r in reqs if r.keys is not None and r.failed)


def _phase(proc, port: int, seed: int, seconds: float, first_tag: int):
    """Warm up, then one timed phase; returns its requests and measurements."""
    warm = make_requests(seed + 7919, WARMUP_S, first_tag)
    asyncio.run(drive(port, warm))
    reqs = make_requests(seed, seconds, first_tag + len(warm))
    before = asyncio.run(_scrape(port))
    cpu0 = proc_cpu_s(proc.pid)
    client0 = time.process_time()
    late = asyncio.run(drive(port, reqs))
    client_s = time.process_time() - client0
    cpu_s = proc_cpu_s(proc.pid) - cpu0
    after = asyncio.run(_scrape(port))
    verify(warm)
    verify(reqs)
    return reqs, late, (cpu_s, client_s), before, after, warm


def _latencies_ms(reqs: list[Req], pings: bool) -> list[float]:
    """Due-to-answer latency; failures rank slowest, at the deadline."""
    return [
        1000.0 * (DEADLINE_S if r.failed else r.done - r.due)
        for r in reqs
        if (r.keys is None) == pings
    ]


def size_tail(reqs: list[Req]) -> tuple[float, int]:
    """Median latency of the size tail / median latency of all sort requests.

    The size tail is every request of at least :data:`TAIL_KEYS` keys;
    failures rank slowest in both medians.  A host stall delays a few
    requests of either kind and moves neither median much, while a
    per-key cost of the server (JSON, transfer, sorting) moves the ratio.
    Returns ``(ratio, requests in the size tail)``.
    """
    sorts = [r for r in reqs if r.keys is not None]
    lat = np.asarray(_latencies_ms(sorts, pings=False))
    large = np.array([len(r.keys) >= TAIL_KEYS for r in sorts])
    return float(np.median(lat[large]) / np.median(lat)), int(np.count_nonzero(large))


def run(opts) -> Outcome:
    proc, port, (setup, setup_wall, ref_wall) = cold_start()
    try:
        reqs, late, (cpu_s, client_s), before, after, _warm = _phase(
            proc, port, opts.seed, opts.seconds / (2 if opts.trace else 1), 1_000_000
        )
        rss = proc_peak_rss_mb(proc.pid)
    finally:
        stop_server(proc)
    failed = count_failed(reqs)
    sorts = [r for r in reqs if r.keys is not None]
    lat = _latencies_ms(reqs, pings=False)
    cpu_ms = 1000.0 * cpu_s / len(sorts)
    client_ms = 1000.0 * client_s / len(sorts)
    oversize = sum(1 for r in sorts if len(r.line) > 1 << 16)
    out = Outcome(attempted=len(sorts), failed=failed)
    p50 = np.median(lat)
    tail, n_large = size_tail(reqs)
    out.e2e = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "x_floor": cpu_ms / client_ms,
        "tail_x_p50": tail,
    }
    n = len(lat)
    out.table = [
        ("setup_s", setup, "s", "server spawn to first answer, reference-machine s"),
        ("setup_wall_s", setup_wall, "s", f"as measured; reference start {ref_wall:.3f} s"),
        ("serve_p50_ms", p50, "ms", f"n={n}, from due time, not gated"),
        ("serve_p90_ms", np.quantile(lat, 0.9), "ms", f"n={n}, failures slowest, not gated"),
        ("serve_cpu_ms_per_req", cpu_ms, "ms", "server utime+stime / attempted, not gated"),
        ("serve_x_client_cpu", out.e2e["x_floor"], "x", f"client {client_ms:.3f} ms/req"),
        ("serve_large_p50_x_p50", tail, "x",
         f"n={n_large} of >= {TAIL_KEYS} keys over n={n}, failures slowest"),
        ("serve_p90_x_p50", np.quantile(lat, 0.9) / p50, "x", f"n={n}, whole phase, not gated"),
        ("failed_share", failed / len(sorts), "ratio",
         f"{failed}/{len(sorts)}; {oversize} lines over 64 KiB"),
        ("peak_rss_mb", rss, "MB", "server child VmHWM"),
    ]
    if opts.trace:
        out.layers = _layers(opts, reqs, late, cpu_ms, before, after)
    return out


def _layers(opts, reqs, late, cpu_ms, before, after) -> dict:
    """The per-layer split: telemetry, a metrics scrape, pings, then spans."""
    answered = [r for r in reqs if r.keys is not None and not r.failed]
    tele = [r.telemetry for r in answered]
    lat = {r.tag: 1000.0 * (r.done - r.due) for r in answered}
    pings = _latencies_ms(reqs, pings=True)

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    hits = delta("repro_planner_cache_hits_total")
    misses = delta("repro_planner_cache_misses_total")
    batches = delta("repro_service_batch_size_count")
    values = layers.zeroed()
    values.update({
        "service.queue_wait_ms": np.median([t["queue_wait_ms"] for t in tele]),
        "service.coalesce_ms": np.median([t["coalesce_ms"] for t in tele]),
        "engines.exec_ms": np.median([1000.0 * t["wall_time_s"] for t in tele]),
        "server.overhead_ms": np.median([
            lat[r.tag] - t["queue_wait_ms"] - 1000.0 * t["wall_time_s"]
            for r, t in zip(answered, tele)
        ]),
        "service.batch_size": delta("repro_service_batch_size_sum") / batches if batches else 0.0,
        "service.rejected": delta("repro_service_rejected_total"),
        "planner.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.ping_p50_ms": np.median(pings),
        "server.ping_p90_ms": np.quantile(pings, 0.9),
        "client.late_p99_ms": 1000.0 * np.quantile(late, 0.99),
    })

    # The traced half: the same wrappers, installed in a fresh server child.
    spans_out = WORK / "serve" / "spans.jsonl"
    proc, port, _started = spawn_server("traced.log", spans_out)
    try:
        asyncio.run(_first_answer(port))
        traced, _late, (traced_cpu_s, _client_s), _b, _a, warm = _phase(
            proc, port, opts.seed, opts.seconds / 2, 2_000_000
        )
    finally:
        stop_server(proc)
    if not spans_out.exists():
        raise BenchFailure("traced server wrote no spans")
    tracer = Tracer.load(spans_out)
    # Spans cover every request the traced server answered.
    served = sum(1 for r in traced if r.keys is not None and not r.failed)
    warm_served = sum(1 for r in warm if r.keys is not None and not r.failed)
    values.update(layers.span_metrics(tracer, 1 + warm_served + served))
    traced_cpu_ms = 1000.0 * traced_cpu_s / sum(1 for r in traced if r.keys is not None)
    values["bench.headline_p50_ms"] = np.median(_latencies_ms(reqs, pings=False))
    values["bench.samples"] = served
    values["bench.trace_overhead_pct"] = 100.0 * (traced_cpu_ms / cpu_ms - 1.0)
    return values
