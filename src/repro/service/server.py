"""Newline-delimited-JSON socket front end for :class:`SortService`.

``python -m repro serve`` binds a :class:`repro.service.SortService` to a
TCP socket.  The wire protocol is one JSON object per line, in both
directions:

Request lines
    ``{"keys": [0.3, 0.1, ...]}`` sorts; optional fields: ``"ids"`` (payload
    permutation input), ``"engine"`` (a registered backend name; omitted =
    the service default, normally the planner), and ``"id"`` (an opaque
    tag echoed back, for matching pipelined responses).  Control lines:
    ``{"op": "stats"}`` returns the running :class:`ServiceStats` fields,
    ``{"op": "ping"}`` returns ``{"ok": true}``, ``{"op": "metrics"}``
    returns the Prometheus-style text exposition of the attached
    :class:`~repro.service.metrics.ServiceInstrumentation` registry, and
    ``{"op": "trace"}`` its recorded spans as Chrome trace-event JSON
    (both error when the service carries no instrumentation).  When the
    server was
    started with a :class:`repro.store.SortedStore` attached
    (``python -m repro serve --store DIR``), ``{"op": "store", "action":
    ...}`` lines reach it: ``"insert"`` (with ``"keys"``) persists a
    batch as a new run, ``"query"`` (with ``"lo"``/``"hi"``) answers a
    range, ``"topk"`` (with ``"k"``) the k smallest, ``"compact"``
    (optional ``"fan_in"``/``"devices"``) runs a compaction, and
    ``"stats"`` returns the :class:`repro.store.StoreStats` fields.
    Store lines on a server without a store get an ``"error"`` line.
    ``{"op": "fleet", "action": ...}`` lines drive the multi-tenant
    fleet harness (:mod:`repro.fleet`): ``"replay"`` replays a trace --
    either ``"trace"`` (an inline :meth:`repro.fleet.Trace.to_json`
    object) or ``"scenario"`` (a named scenario with optional ``"seed"``)
    -- under ``"policy"`` and returns the
    :meth:`repro.fleet.FleetReport.to_json` fields; ``"compare"`` does so
    under every built-in policy; ``"policies"`` lists the built-ins.

Response lines
    ``{"id": ..., "engine": "...", "n": 5, "keys": [...], "ids": [...],
    "telemetry": {...}}`` on success, where ``telemetry`` carries the
    service-relevant fields (queue wait, coalesce, service makespan,
    modeled totals).  On failure ``{"id": ..., "error": "..."}``; admission
    rejections use ``{"error": "overloaded", "retry_after_ms": ...}`` so
    clients know how long to back off.

Each connection may pipeline: request lines are served concurrently (that
is what lets the service coalesce them into one batch) and responses come
back **in completion order**, so pipelining clients should tag requests
with ``"id"``.

:func:`request_sort` / :func:`sort_over_socket` are the matching client
helpers used by the tests and the cookbook; :func:`request_op` sends one
control line (``python -m repro metrics`` scrapes through it).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.engines.base import SortRequest, SortResult
from repro.errors import ReproError, ServiceOverloadError
from repro.service.config import ServiceConfig
from repro.service.service import SortService

__all__ = [
    "start_server",
    "serve_forever",
    "request_sort",
    "request_op",
    "sort_over_socket",
]


def _telemetry_payload(result: SortResult) -> dict:
    """The service-relevant telemetry fields of one result, JSON-ready."""
    t = result.telemetry
    return {
        "queue_wait_ms": t.queue_wait_ms,
        "coalesce_ms": t.coalesce_ms,
        "service_makespan_ms": t.service_makespan_ms,
        "modeled_total_ms": t.modeled_total_ms,
        "modeled_makespan_ms": t.modeled_makespan_ms,
        "stream_ops": t.stream_ops,
        "devices": t.devices,
        "wall_time_s": t.wall_time_s,
    }


def _parse_request(message: dict, config) -> tuple[SortRequest, str | None]:
    """Build the (request, engine) pair one JSON sort line describes.

    The wire protocol carries no hardware fields: requests inherit the
    serving :class:`~repro.service.ServiceConfig`'s ``gpu``/``host``
    models, so ``python -m repro serve --gpu 6800`` prices every socket
    request on the system it advertises.
    """
    if "keys" not in message:
        raise ReproError('sort lines need a "keys" array')
    keys = np.asarray(message["keys"], dtype=np.float32)
    ids = message.get("ids")
    if ids is not None:
        ids = np.asarray(ids, dtype=np.uint32)
    request = SortRequest(keys=keys, ids=ids, gpu=config.gpu, host=config.host)
    return request, message.get("engine")


async def _serve_store(store, message: dict) -> dict:
    """Serve one ``{"op": "store"}`` line against the attached store.

    Store calls are blocking file work, so they run in the default
    executor -- the event loop keeps serving sort lines while a store
    insert or compaction is on disk.
    """
    if store is None:
        raise ReproError("no store attached (start the server with --store)")
    action = message.get("action")
    loop = asyncio.get_running_loop()
    if action == "insert":
        if "keys" not in message:
            raise ReproError('store inserts need a "keys" array')
        keys = np.asarray(message["keys"], dtype=np.float32)
        meta = await loop.run_in_executor(
            None, lambda: store.insert(keys, engine=message.get("engine"))
        )
        return {
            "run": None if meta is None else meta.to_json(),
            "runs": store.run_count,
            "pairs": len(store),
        }
    if action == "query":
        if "lo" not in message or "hi" not in message:
            raise ReproError('store queries need "lo" and "hi"')
        hits = await loop.run_in_executor(
            None, lambda: store.range(message["lo"], message["hi"])
        )
        return {
            "n": int(hits.shape[0]),
            "keys": [float(k) for k in hits["key"]],
            "ids": [int(i) for i in hits["id"]],
        }
    if action == "topk":
        if "k" not in message:
            raise ReproError('store topk needs "k"')
        hits = await loop.run_in_executor(None, lambda: store.top_k(message["k"]))
        return {
            "n": int(hits.shape[0]),
            "keys": [float(k) for k in hits["key"]],
            "ids": [int(i) for i in hits["id"]],
        }
    if action == "compact":
        def compact():
            return store.compact(
                fan_in=message.get("fan_in"), devices=message.get("devices")
            )

        report = await loop.run_in_executor(None, compact)
        if report is None:
            return {"compacted": False, "runs": store.run_count}
        return {
            "compacted": True,
            "fan_in": report.fan_in,
            "devices": report.devices,
            "passes": report.passes,
            "runs": store.run_count,
            "makespan_ms": report.makespan_ms,
            "predicted_ms": report.predicted_ms,
        }
    if action == "stats":
        return store.stats.to_json()
    raise ReproError(f"unknown store action {action!r}")


async def _serve_fleet(message: dict) -> dict:
    """Serve one ``{"op": "fleet"}`` line (replay / compare / policies).

    Replays are pure CPU work over virtual time, so they run in the
    default executor; the event loop keeps serving sort lines meanwhile.
    """
    from repro.fleet import Trace, compare_policies, replay
    from repro.fleet.policy import POLICIES
    from repro.workloads.traces import scenario_trace

    action = message.get("action")
    if action == "policies":
        return {"policies": sorted(POLICIES)}
    if action not in ("replay", "compare"):
        raise ReproError(f"unknown fleet action {action!r}")
    if "trace" in message:
        trace = Trace.from_json(message["trace"])
    elif "scenario" in message:
        trace = scenario_trace(
            message["scenario"],
            seed=message.get("seed", 0),
            duration_ms=message.get("duration_ms"),
        )
    else:
        raise ReproError('fleet replays need a "trace" or a "scenario"')
    devices = message.get("devices", 4)
    queue_bound = message.get("queue_bound", 64)
    loop = asyncio.get_running_loop()
    if action == "replay":
        policy = message.get("policy", "weighted-fair")
        report = await loop.run_in_executor(
            None,
            lambda: replay(
                trace, policy, devices=devices, queue_bound=queue_bound
            ),
        )
        return report.to_json()
    reports = await loop.run_in_executor(
        None,
        lambda: compare_policies(
            trace, devices=devices, queue_bound=queue_bound
        ),
    )
    return {"reports": {name: r.to_json() for name, r in reports.items()}}


async def _serve_line(service: SortService, message, store=None) -> dict:
    """Serve one parsed request line, returning the response object."""
    if not isinstance(message, dict):
        # Valid JSON that is not an object ([1], 5, null, "x"): answer
        # with one typed error line instead of killing the respond task.
        return {
            "id": None,
            "error": f"request line must be a JSON object, "
            f"got {type(message).__name__}",
        }
    tag = message.get("id")
    try:
        if message.get("op") == "ping":
            return {"id": tag, "ok": True}
        if message.get("op") == "store":
            response = await _serve_store(store, message)
            response["id"] = tag
            return response
        if message.get("op") == "fleet":
            response = await _serve_fleet(message)
            response["id"] = tag
            return response
        if message.get("op") == "stats":
            response = service.stats.snapshot().to_json()
            response["id"] = tag
            return response
        if message.get("op") == "metrics":
            if service.observer is None:
                raise ReproError(
                    "no metrics attached (start the server with --metrics)"
                )
            return {"id": tag, "metrics": service.observer.registry.expose()}
        if message.get("op") == "trace":
            if service.observer is None:
                raise ReproError(
                    "no metrics attached (start the server with --metrics)"
                )
            return {"id": tag, "trace": service.observer.spans.to_chrome()}
        request, engine = _parse_request(message, service.config)
        result = await service.submit(request, engine=engine)
        return {
            "id": tag,
            "engine": result.engine,
            "n": len(result),
            "keys": [float(k) for k in result.keys],
            "ids": [int(i) for i in result.ids],
            "telemetry": _telemetry_payload(result),
        }
    except ServiceOverloadError as err:
        return {
            "id": tag,
            "error": "overloaded",
            "retry_after_ms": err.retry_after_ms,
        }
    except ReproError as err:
        return {"id": tag, "error": str(err)}
    except Exception as err:  # noqa: BLE001 -- a client must always get a
        # response line; e.g. np.asarray raising on non-numeric keys would
        # otherwise kill the respond task and hang the client's readline.
        return {"id": tag, "error": f"{type(err).__name__}: {err}"}


async def start_server(
    service: SortService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    limit: int | None = None,
    done: asyncio.Event | None = None,
    store=None,
) -> asyncio.AbstractServer:
    """Bind ``service`` to a TCP socket (``port=0`` picks a free port).

    The returned server is started; its bound port is
    ``server.sockets[0].getsockname()[1]``.  ``limit`` sets ``done`` (if
    given) after that many responses have been written -- the hook
    :func:`serve_forever` and the tests use to stop a server
    deterministically.  ``store`` (a :class:`repro.store.SortedStore`)
    enables the ``{"op": "store"}`` protocol lines.  The caller owns the
    server, service, and store lifecycles.
    """
    served = 0

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        nonlocal served
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def respond(message: dict) -> None:
            nonlocal served
            response = await _serve_line(service, message, store)
            async with write_lock:
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
            served += 1
            if limit is not None and served >= limit and done is not None:
                done.set()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode().strip()
                if not text:
                    continue
                try:
                    message = json.loads(text)
                except json.JSONDecodeError as err:
                    async with write_lock:
                        writer.write(
                            (json.dumps({"error": f"bad JSON: {err}"}) + "\n").encode()
                        )
                        await writer.drain()
                    continue
                # Serve concurrently so one connection's pipelined lines
                # can coalesce into a single batch.
                task = asyncio.create_task(respond(message))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*list(pending), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # client went away first
                pass

    return await asyncio.start_server(handle, host, port)


async def serve_forever(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 7806,
    *,
    limit: int | None = None,
    on_ready=None,
    service: SortService | None = None,
    store=None,
    metrics_out=None,
    trace_out=None,
    sample_every_s: float = 1.0,
) -> "SortService":
    """Run a service-backed NDJSON server until cancelled (or ``limit``).

    Starts a :class:`SortService` under ``config`` (or the caller's own
    un-started ``service`` -- useful to keep a handle on its
    :class:`ServiceStats` when cancellation unwinds through
    ``asyncio.run``), binds it to ``host:port``, then serves until the
    task is cancelled -- or, with ``limit``, until that many responses
    have been written (the CLI's ``--limit`` smoke/testing hook).
    ``on_ready(port)`` is called once the socket is bound (the CLI prints
    the listening line from it).  ``store`` attaches a
    :class:`repro.store.SortedStore` for ``{"op": "store"}`` lines.

    When the service carries instrumentation (``service.observer``, see
    :func:`repro.service.metrics.instrument`), ``metrics_out`` appends a
    metrics-NDJSON sample every ``sample_every_s`` seconds (plus a final
    one at shutdown) and ``trace_out`` saves the span ring as Chrome
    trace JSON at shutdown.  Returns the (closed) service so callers can
    inspect its final stats.
    """
    if service is None:
        service = SortService(config)
    await service.start()
    stop = asyncio.Event()
    server = await start_server(
        service, host, port, limit=limit, done=stop, store=store
    )
    sampler = None
    sampler_task = None
    if metrics_out is not None and service.observer is not None:
        from repro.obs.sampler import MetricsSampler

        sampler = MetricsSampler(service.observer.registry, metrics_out)

        async def sample_loop() -> None:
            while True:
                await asyncio.sleep(sample_every_s)
                sampler.sample(service.observer.now_ms())

        sampler_task = asyncio.create_task(sample_loop())
    try:
        bound = server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(bound)
        if limit is None:
            await asyncio.Event().wait()  # until cancelled
        else:
            await stop.wait()
    finally:
        if sampler_task is not None:
            sampler_task.cancel()
        server.close()
        await server.wait_closed()
        await service.close()
        if sampler is not None:
            sampler.sample(service.observer.now_ms())
        if trace_out is not None and service.observer is not None:
            service.observer.spans.save(trace_out)
    return service


async def request_sort(
    host: str,
    port: int,
    keys,
    *,
    engine: str | None = None,
    tag=None,
) -> dict:
    """One round trip against a running NDJSON server (async client)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        message: dict = {"keys": [float(k) for k in keys]}
        if engine is not None:
            message["engine"] = engine
        if tag is not None:
            message["id"] = tag
        writer.write((json.dumps(message) + "\n").encode())
        await writer.drain()
        line = await reader.readline()
        return json.loads(line.decode())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def sort_over_socket(host: str, port: int, keys, *, engine: str | None = None) -> dict:
    """Synchronous convenience wrapper over :func:`request_sort`."""
    return asyncio.run(request_sort(host, port, keys, engine=engine))


async def request_op(host: str, port: int, op: str, **fields) -> dict:
    """One control-line round trip: send ``{"op": op, **fields}``.

    The client side of ``{"op": "stats"/"metrics"/"trace"/...}`` lines;
    ``python -m repro metrics`` scrapes a live server through it.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((json.dumps({"op": op, **fields}) + "\n").encode())
        await writer.drain()
        line = await reader.readline()
        return json.loads(line.decode())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
