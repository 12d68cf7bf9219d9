"""The ``vectorized`` stream tier: whole-pass execution of stream programs.

PR 7's tier split covered the serving hot loops (the k-way merge and the
out-of-core pipeline); this module extends it down into
:mod:`repro.stream`, where the reference interpreter still evaluates every
kernel pass with per-stage numpy work and per-op Python dispatch whenever a
chunk is actually sorted.  The fast path rests on two facts the test suite
pins down:

1.  **The drivers are data-independent.**  The GPU-ABiSort drivers
    (:mod:`repro.core.abisort` / :mod:`repro.core.optimized`) and the
    network runner (:func:`repro.baselines.bitonic_network.run_network_stream`)
    never branch on stream *contents* -- the op sequence, every launch's
    port declarations, and all substream block lists are a pure function of
    the input length and the configured schedule.  So the whole op log can
    be produced without executing a single kernel body: the unchanged
    driver runs against a :class:`CountingStreamMachine`, which performs
    the full validation sequence of :class:`~repro.stream.context.StreamMachine`
    but replaces execution with closed-form traffic accounting.

2.  **The output is forced.**  With unique (key, id) pairs the total order
    is strict, so the sorted permutation is unique: one
    :func:`~repro.exec.vectorized.forced_order` pass (:func:`sorted_output`)
    -- one batched array pass over the whole input instead of O(log^2 n)
    interpreted stream operations -- must produce the byte-identical
    reference output.

Because a stream program's op log depends only on (program, length),
where a program is an :class:`~repro.core.api.ABiSortConfig` or a network
stream function, the logs -- with their counter totals -- and their
modeled times are memoized once per process (:func:`memo_op_log`,
:func:`memo_sort_ms`) and replayed by sharing the frozen
:class:`~repro.stream.context.StreamOpRecord` objects.
:func:`counting_sort_run` is the one entry point that combines the
forced output with the memoized log.

The closed forms are *proved equal to the interpreter*, not re-modeled:
linear reads/writes follow exactly the per-port charging of
:class:`~repro.stream.kernel.KernelContext` / ``finalize_kernel``
(``instances x per_instance`` elements at the port's element size, with
the ``value_only`` ports charged at ``VALUE_DTYPE`` size), and gather
traffic follows :data:`KERNEL_GATHER_PROFILE`, the audited per-kernel
gather counts of every kernel body in the repository.  The fuzz suite
(``tests/exec/test_stream_equivalence.py``) replays both tiers and asserts
record-for-record equality of op logs, counters, and derived cache
statistics.

**Fallback conditions** (wholesale, to the reference interpreter -- the
tier contract is bit-identity, so anything not provably coverable runs the
real thing):

* NaN keys or duplicate (key, id) composites: no forced unique output
  (:func:`sorted_output` returns ``None``);
* ``validate_levels`` debugging runs: the driver reads stream contents
  mid-sort;
* gather tracing (``trace_gathers``): traces are data-dependent by
  definition;
* any kernel name without an entry in :data:`KERNEL_GATHER_PROFILE`
  (raises :class:`StreamTierUnsupported`, which :func:`memo_op_log`
  translates into a reference re-run).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Union

import numpy as np

from repro.core.api import ABiSortConfig, make_sorter
from repro.core.values import check_unique_ids, contiguous_id_base, make_values
from repro.exec.vectorized import forced_order
from repro.stream.context import MachineCounters, StreamMachine, StreamOpRecord
from repro.stream.gpu_model import GPUModel, estimate_gpu_time_ms
from repro.stream.kernel import (
    KernelBody,
    KernelStats,
    _InputPort,
    _IterPort,
    _OutputPort,
)
from repro.stream.mapping2d import Mapping2D
from repro.stream.stream import Stream, Substream, VALUE_DTYPE

__all__ = [
    "KERNEL_GATHER_PROFILE",
    "StreamTierUnsupported",
    "CountingStreamMachine",
    "counting_machine",
    "sorted_output",
    "OpLog",
    "memo_op_log",
    "memo_sort_ms",
    "replay_machine",
    "counting_sort_run",
]


class StreamTierUnsupported(Exception):
    """Internal signal: this launch has no closed-form profile.

    Raised by :class:`CountingStreamMachine` mid-drive; :func:`memo_op_log`
    catches it and its callers re-run the whole sort on the reference
    interpreter (the counting drive has no caller-visible side effects,
    so a wholesale restart is safe where a per-op fallback would not be
    -- stream contents are never materialised in counting mode).
    """


#: Audited gather traffic per kernel body: ``{kernel name: {gather port:
#: elements gathered per instance}}``.  These counts restate what each body
#: in :mod:`repro.core.kernels` / :mod:`repro.baselines.bitonic_network`
#: does unconditionally -- e.g. ``traverse16`` gathers the 2 + 4 + 8 nodes
#: of its subtree levels, ``bitonic_merge16`` its full 16-sequence -- so
#: charging them closed-form is exact, not approximate.  A kernel absent
#: here cannot run in counting mode (see :class:`StreamTierUnsupported`).
KERNEL_GATHER_PROFILE: dict[str, dict[str, int]] = {
    "init_tree_links": {},
    "local_sort8": {},
    "extract_roots": {"trees": 2},
    "phase0": {},
    "phaseI": {"trees": 2},
    "traverse16": {"trees": 14},
    "bitonic_merge16": {"seq": 16},
    "network_pass": {"data": 1},
}


class CountingStreamMachine(StreamMachine):
    """A stream machine that logs exactly like the reference, sans compute.

    Every validation step of :meth:`StreamMachine.kernel` / ``copy`` /
    ``copy_values`` (length checks, duplicate ports, const shapes, the
    Section-6.1 distinct-IO rules, output overlap) still runs, so the
    machine raises the same errors in the same order; only the execution
    halves are replaced: kernel bodies are never called (traffic is charged
    closed-form from the port declarations plus
    :data:`KERNEL_GATHER_PROFILE`) and copies move no bytes (their records
    are pure functions of lengths and element sizes).  Stream *contents*
    are therefore garbage by design -- callers must obtain the sorted
    output elsewhere (see :func:`sorted_output`) and may read only the op
    log, counters, and allocation accounting, all of which are identical
    to a reference run by construction.
    """

    def _execute_kernel(
        self,
        name: str,
        instances: int,
        body: KernelBody,
        in_ports: dict[str, _InputPort],
        gathers: dict[str, Stream],
        iter_ports: dict[str, _IterPort],
        consts: dict[str, np.ndarray],
        out_ports: dict[str, _OutputPort],
    ) -> KernelStats:
        if self.trace_gathers:
            raise StreamTierUnsupported(
                "gather traces are data-dependent; use the reference tier"
            )
        profile = KERNEL_GATHER_PROFILE.get(name)
        if profile is None or set(profile) != set(gathers):
            raise StreamTierUnsupported(
                f"no closed-form gather profile for kernel {name!r}"
            )
        stats = KernelStats(instances=instances)
        # Linear reads: KernelContext.read charges `instances` elements per
        # declared read, and finalize_kernel enforces exactly per_instance
        # reads per port -- so the total is forced by the declaration.
        for port in in_ports.values():
            elems = instances * port.per_instance
            itemsize = (
                VALUE_DTYPE.itemsize
                if port.value_only
                else port.substream.stream.itemsize
            )
            stats.linear_read_elems += elems
            stats.linear_read_bytes += elems * itemsize
        # Gathers: the audited per-instance counts times the gather
        # stream's element size (KernelContext.gather charges idx.size).
        for gname, per in profile.items():
            elems = per * instances
            stats.gather_elems += elems
            stats.gather_bytes += elems * gathers[gname].itemsize
        # Writes: finalize_kernel commits exactly instances x per_instance
        # elements per output port, value-only ports at VALUE_DTYPE size.
        for port in out_ports.values():
            elems = instances * port.per_instance
            itemsize = (
                VALUE_DTYPE.itemsize
                if port.value_only
                else port.substream.stream.itemsize
            )
            stats.linear_write_elems += elems
            stats.linear_write_bytes += elems * itemsize
        return stats

    def _execute_copy(self, src: Substream, dst: Substream) -> None:
        pass  # record fields depend only on lengths and element sizes

    def _execute_copy_values(self, src: Substream, dst: Substream) -> None:
        pass


def counting_machine(distinct_io: bool) -> CountingStreamMachine:
    """A ``machine_factory`` that binds a sorter to counting mode."""
    return CountingStreamMachine(distinct_io=distinct_io)


def sorted_output(values: np.ndarray) -> np.ndarray | None:
    """The forced sorted result of ``values`` under the strict total order.

    :func:`~repro.exec.vectorized.forced_order` applied to one array.
    Returns ``None`` when the order is not strict -- NaN keys, or
    duplicate (canonical key, id) composites -- or the dtype is wrong,
    in which case the reference interpreter must decide (and raise).
    """
    if values.dtype != VALUE_DTYPE:
        return None  # let the reference path raise its usual dtype error
    order = forced_order(values)
    return None if order is None else values[order]


#: A stream program: a GPU-ABiSort configuration, or a network stream
#: function ``(values, machine) -> (out, machine)`` such as
#: :func:`repro.baselines.bitonic_network.gpusort_stream`.
Program = Union[ABiSortConfig, Callable]


class OpLog(tuple):
    """A memoized op log: its frozen records, plus ``counters``, their
    :class:`~repro.stream.context.MachineCounters` totals (shared; read,
    do not mutate)."""

    counters: MachineCounters

    def __new__(cls, records) -> OpLog:
        log = super().__new__(cls, records)
        log.counters = MachineCounters.of(log)
        return log


#: Process-wide op-log memo, ``(program, padded n) -> OpLog``.  A stream
#: program's op log is a pure function of that pair and its records are
#: frozen, so every replay shares one entry.  Entries are stored whole
#: (``setdefault`` of a finished log): racing threads may both drive, but
#: no reader ever sees a partial log.
_OPLOG_MEMO: dict[tuple[Program, int], OpLog] = {}

#: Process-wide modeled sort milliseconds, keyed ``(program, padded n,
#: repr(gpu), mapping key)``.  ``GPUModel`` holds a dict (its kernel cycle
#: table), so its ``repr`` -- every field, deterministic -- stands in.
_SORT_MS_MEMO: dict[tuple, float] = {}


def _clone_record(op: StreamOpRecord) -> StreamOpRecord:
    """A distinct :class:`StreamOpRecord` equal to ``op``.

    Records are frozen, so memoized logs are shared by reference and no
    replay path copies them; this remains for callers that want a
    separate object (and is the record-copy counter of the
    ``perfbench`` layer split).
    """
    return replace(op)


def memo_op_log(program: Program, n: int) -> OpLog | None:
    """The op log of a length-``n`` run of ``program``, memoized.

    A miss drives ``program`` once in counting mode on placeholder input
    (the drivers never read stream contents).  ``None`` when counting
    mode cannot produce the log (``validate_levels``, an unprofiled
    kernel); input errors for ``n`` itself propagate like the driver's
    own.
    """
    key = (program, n)
    log = _OPLOG_MEMO.get(key)
    if log is None:
        placeholder = make_values(np.zeros(n, dtype=np.float32))
        try:
            if isinstance(program, ABiSortConfig):
                if program.validate_levels:
                    return None  # the validator reads stream contents
                sorter = make_sorter(program, machine_factory=counting_machine)
                sorter.sort(placeholder)
                machine = sorter.last_machine
            else:
                _out, machine = program(placeholder, counting_machine(True))
        except StreamTierUnsupported:
            return None
        log = _OPLOG_MEMO.setdefault(key, OpLog(machine.ops))
    return log


def replay_machine(program: Program, log: OpLog) -> CountingStreamMachine:
    """A counting machine whose op log is ``log``'s shared records."""
    # The Section-6.1 semantics: networks always run GPU semantics.
    distinct_io = (
        program.gpu_semantics if isinstance(program, ABiSortConfig) else True
    )
    machine = CountingStreamMachine(distinct_io=distinct_io)
    machine.ops = list(log)
    return machine


def _mapping_key(mapping: Mapping2D) -> tuple | None:
    """A hashable identity for ``mapping``'s parameters, or ``None``."""
    try:
        key = (type(mapping), tuple(sorted(vars(mapping).items())))
        hash(key)
    except TypeError:  # __slots__ or unhashable parameters: no memo
        return None
    return key


def memo_sort_ms(
    program: Program, n: int, gpu: GPUModel, mapping: Mapping2D | None
) -> float | None:
    """Modeled milliseconds of a length-``n`` sort on ``gpu``, memoized.

    Exactly ``estimate_gpu_time_ms(memo_op_log(program, n), gpu,
    mapping).total_ms``; ``mapping=None`` charges reads at the GPU's
    fixed software-tiling efficiency instead (the networks' GPUSort B=64
    convention).  ``None`` where :func:`memo_op_log` is.
    """
    mkey = "tiled" if mapping is None else _mapping_key(mapping)
    key = (program, n, repr(gpu), mkey)
    ms = _SORT_MS_MEMO.get(key) if mkey is not None else None
    if ms is None:
        log = memo_op_log(program, n)
        if log is None:
            return None
        if mapping is None:
            cost = estimate_gpu_time_ms(
                log, gpu, fixed_read_efficiency=gpu.tiled_read_efficiency
            )
        else:
            cost = estimate_gpu_time_ms(log, gpu, mapping)
        ms = cost.total_ms
        if mkey is not None:
            _SORT_MS_MEMO[key] = ms
    return ms


def counting_sort_run(
    program: Program, values: np.ndarray
) -> tuple[np.ndarray, OpLog] | None:
    """Sort ``values`` as ``program`` would, output forced, log memoized.

    Returns ``(sorted values, op log)`` -- the log reference-identical
    to a run of ``program`` on ``values`` -- or ``None`` when the caller
    must fall back to a reference run (unstrict order, wrong dtype,
    ``validate_levels``, or an unprofiled kernel).  The GPU-ABiSort
    drivers' id check runs here (repeated ids raise the driver's
    :class:`~repro.errors.SortInputError`; contiguous ids are unique by
    construction); networks accept repeated ids, as their drivers do.
    Errors for the length itself propagate from the memo's drive.
    """
    out = sorted_output(values)
    if out is None:
        return None
    if isinstance(program, ABiSortConfig) and (
        contiguous_id_base(values["id"]) is None
    ):
        check_unique_ids(values)
    log = memo_op_log(program, values.shape[0])
    return None if log is None else (out, log)
