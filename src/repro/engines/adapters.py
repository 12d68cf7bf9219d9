"""Built-in engine adapters: every sorter in the repository, one interface.

Thirteen backends, grouped by substrate:

==========================  =============================================
engine name                 wraps
==========================  =============================================
``abisort``                 overlapped + Section-7 optimized + GPU
                            semantics -- the paper's benchmarked config
``abisort-overlapped``      overlapped schedule, unoptimized (Section 5.4)
``abisort-sequential``      sequential phases, unoptimized (Appendix A)
``abisort-sequential-optimized``  sequential phases + Section 7
``abisort-brook``           overlapped + optimized under Brook-style
                            single-stream semantics (Section 6.1, off)
``sharded-abisort``         GPU-ABiSort sharded across N modeled devices
                            with the transfer-overlap pipeline and a
                            loser-tree merge (:mod:`repro.cluster`)
``bitonic-network``         Batcher bitonic network / GPUSort [GRHM05]
``odd-even-merge``          Batcher odd-even merge sort [KSW04, KW05]
``periodic-balanced``       periodic balanced sorting network [GRM05]
``odd-even-transition``     O(n^2) transition sort (Section 7.1 block)
``cpu-quicksort``           instrumented median-of-3 quicksort (the
                            paper's "C++ STL sort" stand-in)
``cpu-std``                 the host library sort (NumPy lexsort oracle)
``external``                out-of-core run-formation + k-way merge
                            (the GPUTeraSort-style hybrid pipeline)
==========================  =============================================

The ABiSort engines accept any input length by +inf padding (Section 4);
the network engines keep the power-of-two restriction of their GPU-era
implementations and raise :class:`~repro.errors.CapabilityError` otherwise.
Modeled times follow the same conventions as the paper benchmarks:
GPU-ABiSort is costed under the request's 1D->2D mapping (Z-order by
default), the networks under the GPU's fixed software-tiling efficiency
(the GPUSort B=64 footnote), CPU sorts by counted operations times the
host's per-op cost, and the external pipeline adds the simulated disk's
seek + bandwidth model.
"""

from __future__ import annotations


from repro.engines.base import (
    EngineCapabilities,
    SortEngine,
    SortRequest,
    SortTelemetry,
)
from repro.engines.registry import register
from repro.engines.telemetry import fill_schedule_telemetry, machine_telemetry
from repro.baselines.bitonic_network import gpusort_stream
from repro.baselines.cpu_sort import CPUSortCounters, quicksort, std_sort
from repro.baselines.odd_even_merge import odd_even_merge_stream
from repro.baselines.odd_even_transition import (
    odd_even_transition_exchanges,
    odd_even_transition_sort,
)
from repro.baselines.periodic_balanced import periodic_balanced_stream
from repro.core.api import ABiSortConfig, make_sorter
from repro.exec import resolve_request_tier
from repro.exec.stream_tier import counting_sort_run, memo_sort_ms, replay_machine
from repro.hybrid.disk import SimulatedDisk
from repro.hybrid.external import ExternalSorter
from repro.stream.gpu_model import cpu_sort_time_ms, estimate_gpu_time_ms
from repro.stream.mapping2d import ZOrderMapping
from repro.stream.stream import VALUE_DTYPE

__all__ = [
    "ABiSortEngine",
    "ShardedABiSortEngine",
    "NetworkEngine",
    "TransitionSortEngine",
    "QuicksortEngine",
    "StdSortEngine",
    "ExternalSortEngine",
]


def _stream_run(program, values, request: SortRequest, mapping, reference):
    """Run one stream program; ``(out, telemetry, machine)``.

    Under the ``vectorized`` tier the output comes from the forcing pass
    and the op log, its counters and its modeled time from the
    process-wide memos (:func:`repro.exec.stream_tier.counting_sort_run`):
    a warm length drives and models nothing.  Otherwise -- or when the
    stream tier declines the input -- ``reference(values)`` interprets
    the program and its log is counted and modeled here.  ``mapping`` is
    the 1D->2D mapping reads are charged under; ``None`` selects the
    GPU's fixed software-tiling efficiency (the network convention).
    """
    gpu = request.gpu
    fast = None
    if resolve_request_tier(request) == "vectorized":
        fast = counting_sort_run(program, values)
    if fast is not None:
        out, log = fast
        telemetry = machine_telemetry(log.counters)
        if request.model_time:
            telemetry.modeled_gpu_ms = memo_sort_ms(
                program, values.shape[0], gpu, mapping
            )
        return out, telemetry, replay_machine(program, log)
    out, machine = reference(values)
    telemetry = machine_telemetry(machine.counters())
    if request.model_time:
        tiled = gpu.tiled_read_efficiency if mapping is None else None
        telemetry.modeled_gpu_ms = estimate_gpu_time_ms(
            machine.ops, gpu, mapping, fixed_read_efficiency=tiled
        ).total_ms
    return out, telemetry, machine


class ABiSortEngine(SortEngine):
    """GPU-ABiSort behind the engine interface.

    One engine per :class:`ABiSortConfig`; the underlying sorter object is
    built once and reused across requests (this is the batch-mode machine
    reuse: layout plans and kernel closures persist, only the per-sort
    streams are fresh).  Non-power-of-two input is padded with +inf keys
    and truncated (Section 4), so ``any_length`` holds.

    Under the ``vectorized`` tier one forcing pass produces the output
    and the op log, counters and modeled time come from the process-wide
    memos (:func:`repro.exec.stream_tier.counting_sort_run`).  Inputs the
    stream tier cannot cover (NaN keys, duplicate composites) fall back
    to the reference interpreter.
    """

    capabilities = EngineCapabilities(any_length=True, key_value=True, stable=True)

    def __init__(self, name: str, config: ABiSortConfig, description: str):
        self.name = name
        self.description = description
        self.config = config
        self._sorter = make_sorter(config)

    def _reference(self, values):
        return self._sorter.sort(values), self._sorter.last_machine

    def _run(self, values, request):
        from repro.workloads.records import pad_to_power_of_two

        n = values.shape[0]
        if n & (n - 1):
            padded, orig = pad_to_power_of_two(values)
        else:
            padded, orig = values, n
        out, telemetry, machine = _stream_run(
            self.config,
            padded,
            request,
            request.mapping or ZOrderMapping(),
            self._reference,
        )
        return out[:orig], telemetry, machine


class ShardedABiSortEngine(SortEngine):
    """Multi-device GPU-ABiSort (:mod:`repro.cluster`) behind the engine API.

    The request is partitioned across ``request.devices`` modeled devices
    (default 2) built from the request's GPU and host models; every shard
    sorts for real on its own device's stream machines, the scheduler
    overlaps each shard's upload/sort/download over the per-device transfer
    links, and a loser-tree k-way merge recombines the runs.  Output is
    bit-identical to the single-device ``abisort`` engine for any device
    count.

    This engine always runs the cost model (the overlapped schedule *is*
    modeled time), so the cluster telemetry fields are populated regardless
    of ``request.model_time``.
    """

    name = "sharded-abisort"
    description = (
        "GPU-ABiSort sharded across N devices, transfer-overlap pipeline + "
        "loser-tree merge"
    )
    capabilities = EngineCapabilities(any_length=True, key_value=True, stable=True)

    def __init__(
        self,
        devices: int = 2,
        slices_per_device: int = 2,
        overlap: bool = True,
        config: ABiSortConfig | None = None,
    ):
        self.default_devices = devices
        self.slices_per_device = slices_per_device
        self.overlap = overlap
        self.config = config or ABiSortConfig()

    def _run(self, values, request):
        from repro.cluster.device import make_devices
        from repro.cluster.sharded import ShardedSorter

        count = request.devices or self.default_devices
        devices = make_devices(count, gpu=request.gpu, host=request.host)
        sorter = ShardedSorter(
            devices,
            config=self.config,
            slices_per_device=self.slices_per_device,
            overlap=self.overlap,
            mapping=request.mapping or ZOrderMapping(),
            host=request.host,
            exec_tier=request.exec_tier,
        )
        res = sorter.sort(values)

        telemetry = machine_telemetry(
            res.counters,
            cpu_ops=res.merge_comparisons,
            modeled_gpu_ms=sum(res.shard_sort_ms),
            modeled_cpu_ms=res.merge_modeled_ms,
        )
        fill_schedule_telemetry(
            telemetry, res.schedule, devices=res.plan.used_devices
        )
        return res.values, telemetry, None, res


class NetworkEngine(SortEngine):
    """A sorting network run as a stream program (the Section-2.2 family).

    Power-of-two input only, as for the GPU implementations these stand in
    for; modeled time uses the GPU's fixed software-tiling read efficiency
    (the GPUSort B=64 modeling convention).  Under the ``vectorized`` tier
    the output is forced by one batched sort and the op log, counters and
    modeled time come from the process-wide memos
    (:func:`repro.exec.stream_tier.counting_sort_run`); networks are not
    stable, so inputs with duplicate (key, id) composites stay on the
    reference interpreter.
    """

    capabilities = EngineCapabilities(any_length=False, key_value=True, stable=True)

    def __init__(self, name: str, stream_sorter, description: str):
        self.name = name
        self.description = description
        self._stream_sorter = stream_sorter

    def _run(self, values, request):
        return _stream_run(
            self._stream_sorter, values, request, None, self._stream_sorter
        )


class TransitionSortEngine(SortEngine):
    """Standalone odd-even transition sort (the O(n^2) Section-7.1 block).

    Any length, but quadratic work: ``cpu_ops`` counts the network's
    compare-exchanges.  Useful as a tiny-n backend and as the reference for
    the ``local_sort8`` kernel.
    """

    name = "odd-even-transition"
    description = "O(n^2) odd-even transition sort (Section 7.1 building block)"
    capabilities = EngineCapabilities(any_length=True, key_value=True, stable=True)

    def _run(self, values, request):
        out = odd_even_transition_sort(values)
        telemetry = SortTelemetry(
            cpu_ops=odd_even_transition_exchanges(values.shape[0])
        )
        if request.model_time:
            telemetry.modeled_cpu_ms = cpu_sort_time_ms(
                telemetry.cpu_ops, request.host
            )
        return out, telemetry, None


class QuicksortEngine(SortEngine):
    """The paper's CPU baseline: instrumented median-of-3 quicksort."""

    name = "cpu-quicksort"
    description = "instrumented median-of-3 quicksort (the paper's CPU baseline)"
    capabilities = EngineCapabilities(any_length=True, key_value=True, stable=True)

    def _run(self, values, request):
        counters = CPUSortCounters()
        out = quicksort(values, counters)
        telemetry = SortTelemetry(cpu_ops=counters.total_ops)
        if request.model_time:
            telemetry.modeled_cpu_ms = cpu_sort_time_ms(
                counters.total_ops, request.host
            )
        return out, telemetry, None


class StdSortEngine(SortEngine):
    """The host library sort (NumPy lexsort) -- the correctness oracle.

    Its modeled cost follows the ``n log2 n`` library-sort comparison
    convention (:func:`repro.analysis.complexity.library_sort_comparisons`)
    so the oracle competes fairly in planner scoring instead of reporting
    an impossible zero-cost sort.
    """

    name = "cpu-std"
    description = "host library sort (NumPy lexsort reference)"
    capabilities = EngineCapabilities(any_length=True, key_value=True, stable=True)

    def _run(self, values, request):
        from repro.analysis.complexity import library_sort_comparisons

        telemetry = SortTelemetry(
            cpu_ops=library_sort_comparisons(values.shape[0])
        )
        if request.model_time:
            telemetry.modeled_cpu_ms = cpu_sort_time_ms(
                telemetry.cpu_ops, request.host
            )
        return std_sort(values), telemetry, None


class ExternalSortEngine(SortEngine):
    """The out-of-core hybrid pipeline behind the engine interface.

    The request's values are spilled to a simulated disk, sorted by run
    formation (GPU-ABiSort over in-core chunks) plus a loser-tree k-way
    merge, and read back.  Telemetry carries the full cost picture: modeled
    GPU sorting time, counted merge comparisons, and the disk's seek/byte
    accounting with modeled I/O time.
    """

    name = "external"
    description = "out-of-core run formation + k-way merge (GPUTeraSort-style)"
    capabilities = EngineCapabilities(
        any_length=True, key_value=True, out_of_core=True, stable=True
    )

    def __init__(self, chunk_size: int = 1 << 12, merge_buffer: int = 1 << 8):
        self.chunk_size = chunk_size
        self.merge_buffer = merge_buffer

    def _run(self, values, request):
        sorter = ExternalSorter(
            min(self.chunk_size, _next_pow2(values.shape[0])),
            gpu=request.gpu,
            mapping=request.mapping or ZOrderMapping(),
            merge_buffer=self.merge_buffer,
            exec_tier=request.exec_tier,
        )
        disk = SimulatedDisk(VALUE_DTYPE)
        disk.write_file("input", values)
        report = sorter.sort_file(disk, "input", "output")
        out = disk.read("output", 0, disk.size("output")).copy()
        telemetry = SortTelemetry(
            cpu_ops=report.merge_comparisons,
            disk_seeks=report.disk_seeks,
            disk_bytes=report.disk_bytes,
        )
        if request.model_time:
            telemetry.modeled_gpu_ms = report.gpu_modeled_ms
            telemetry.modeled_io_ms = report.io_modeled_ms
            telemetry.modeled_cpu_ms = cpu_sort_time_ms(
                report.merge_comparisons, request.host
            )
        return out, telemetry, None


def _next_pow2(n: int) -> int:
    """The smallest power of two >= max(n, 2)."""
    return 1 << max(n - 1, 1).bit_length()


def register_builtin_engines() -> None:
    """Register the thirteen built-in backends (idempotent)."""
    from repro.engines.registry import _REGISTRY

    abisort_variants = [
        (
            "abisort",
            ABiSortConfig(schedule="overlapped", optimized=True),
            "GPU-ABiSort, overlapped + Section-7 optimized (the paper's "
            "benchmarked configuration)",
        ),
        (
            "abisort-overlapped",
            ABiSortConfig(schedule="overlapped", optimized=False),
            "GPU-ABiSort, overlapped schedule (Section 5.4), unoptimized",
        ),
        (
            "abisort-sequential",
            ABiSortConfig(schedule="sequential", optimized=False),
            "GPU-ABiSort, sequential phases (Appendix A), unoptimized",
        ),
        (
            "abisort-sequential-optimized",
            ABiSortConfig(schedule="sequential", optimized=True),
            "GPU-ABiSort, sequential phases + Section-7 optimizations",
        ),
        (
            "abisort-brook",
            ABiSortConfig(
                schedule="overlapped", optimized=True, gpu_semantics=False
            ),
            "GPU-ABiSort under Brook-style single-stream semantics "
            "(no Section-6.1 copy-back)",
        ),
    ]
    for name, config, description in abisort_variants:
        if name not in _REGISTRY:
            register(
                name,
                lambda n=name, c=config, d=description: ABiSortEngine(n, c, d),
            )

    networks = [
        (
            "bitonic-network",
            gpusort_stream,
            "Batcher bitonic sorting network (the GPUSort [GRHM05] baseline)",
        ),
        (
            "odd-even-merge",
            odd_even_merge_stream,
            "Batcher odd-even merge sort (the Kipfer [KSW04/KW05] baseline)",
        ),
        (
            "periodic-balanced",
            periodic_balanced_stream,
            "periodic balanced sorting network (the Govindaraju [GRM05] "
            "baseline)",
        ),
    ]
    for name, stream_sorter, description in networks:
        if name not in _REGISTRY:
            register(
                name,
                lambda n=name, s=stream_sorter, d=description: NetworkEngine(
                    n, s, d
                ),
            )

    for cls in (
        ShardedABiSortEngine,
        TransitionSortEngine,
        QuicksortEngine,
        StdSortEngine,
        ExternalSortEngine,
    ):
        if cls.name not in _REGISTRY:
            register(cls.name, cls)
