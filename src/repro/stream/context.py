"""The stream machine: allocation, stream operations, and the op log.

:class:`StreamMachine` is the simulated stream processor on which every GPU
algorithm in this repository runs (GPU-ABiSort and the sorting-network
baselines alike).  It provides

* stream allocation (with a high-water-mark accounting of stream memory,
  which Section 5.3 of the paper works hard to keep at two n-node streams),
* kernel execution (:meth:`kernel`) -- one call is one *stream operation*,
  the unit in which the paper counts parallel complexity,
* plain copies (:meth:`copy`) -- also stream operations; the GPU
  implementation needs them for the copy-back of Section 6.1,
* the **operation log**: per-op element/byte/gather counts and the output
  block lists, from which :mod:`repro.analysis.complexity` checks the
  O(log^2 n) / O(log^3 n) stream-operation claims and
  :mod:`repro.stream.gpu_model` derives modeled running times.

Constraint enforcement
----------------------

``distinct_io=True`` (the GPU mode, Section 6.1: "on current GPUs input and
output streams must always be distinct") makes :meth:`kernel` reject any
invocation whose output substream shares storage with a linear input or a
gather stream.  The Brook-style mode (``distinct_io=False``) permits it and
relies on the read-before-write semantics that the kernel machinery provides
anyway.  The faithful Listing-5 implementation runs in Brook mode; the GPU
drivers run with ping-pong/copy-back and pass in GPU mode.

Execution hook
--------------

Every stream operation is split into two halves: *validation and logging*
(always performed here, identically) and *execution* (the data movement and
kernel-body evaluation), which is routed through the overridable methods
:meth:`StreamMachine._execute_kernel`, :meth:`StreamMachine._execute_copy`,
and :meth:`StreamMachine._execute_copy_values`.  This is the machine-level
hook of the vectorized stream execution tier: a subclass
(:class:`repro.exec.stream_tier.CountingStreamMachine`) replaces execution
with closed-form traffic accounting while the validation sequence, the
:class:`StreamOpRecord` log, and :class:`MachineCounters` stay identical by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import KernelError, StreamError
from repro.stream.iterator import IteratorStream
from repro.stream.kernel import (
    KernelBody,
    KernelContext,
    KernelStats,
    _InputPort,
    _IterPort,
    _OutputPort,
    finalize_kernel,
)
from repro.stream.stream import Stream, Substream


@dataclass(frozen=True, slots=True)
class StreamOpRecord:
    """Log entry for one stream operation.

    Frozen, with tuple block lists: a record is a value, so op logs
    memoized by the vectorized tier (:mod:`repro.exec.stream_tier`) are
    shared by reference between machines instead of copied.
    """

    index: int
    kind: str  # "kernel" or "copy"
    name: str
    instances: int
    linear_read_elems: int
    linear_read_bytes: int
    linear_write_elems: int
    linear_write_bytes: int
    gather_elems: int
    gather_bytes: int
    #: (stream name, [(start, stop), ...]) for each output substream; used by
    #: the 2D-mapping/cache analysis to reconstruct block shapes.
    output_blocks: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = ()
    #: Same for linear inputs (gathers have no static block structure).
    input_blocks: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = ()
    #: Optional label used to group ops into algorithm phases in reports.
    tag: str = ""

    @property
    def total_bytes(self) -> int:
        """All bytes this operation moved (linear + gathered)."""
        return self.linear_read_bytes + self.linear_write_bytes + self.gather_bytes


@dataclass
class MachineCounters:
    """Aggregate counters over all logged operations."""

    stream_ops: int = 0
    kernel_ops: int = 0
    copy_ops: int = 0
    instances: int = 0
    linear_read_bytes: int = 0
    linear_write_bytes: int = 0
    gather_elems: int = 0
    gather_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """All bytes moved across the logged operations."""
        return self.linear_read_bytes + self.linear_write_bytes + self.gather_bytes


class StreamMachine:
    """A simulated gather-capable, scatter-free stream processor."""

    def __init__(self, *, distinct_io: bool = True, trace_gathers: bool = False):
        self.distinct_io = distinct_io
        self.trace_gathers = trace_gathers
        self.ops: list[StreamOpRecord] = []
        self.gather_traces: list[tuple[str, list[np.ndarray]]] = []
        self._streams: dict[str, Stream] = {}
        self._alloc_bytes = 0
        self.peak_alloc_bytes = 0
        self._logged_blocks: dict = {}

    # -- allocation --------------------------------------------------------

    def alloc(self, name: str, dtype: np.dtype, size: int) -> Stream:
        """Allocate a stream of ``size`` elements of ``dtype``."""
        if name in self._streams:
            raise StreamError(f"stream {name!r} already allocated")
        data = np.zeros(int(size), dtype=dtype)
        stream = Stream(name, data)
        self._streams[name] = stream
        self._alloc_bytes += data.nbytes
        self.peak_alloc_bytes = max(self.peak_alloc_bytes, self._alloc_bytes)
        return stream

    def wrap(self, name: str, data: np.ndarray) -> Stream:
        """Adopt an existing array as a stream (e.g. the sort input)."""
        if name in self._streams:
            raise StreamError(f"stream {name!r} already allocated")
        stream = Stream(name, data)
        self._streams[name] = stream
        self._alloc_bytes += data.nbytes
        self.peak_alloc_bytes = max(self.peak_alloc_bytes, self._alloc_bytes)
        return stream

    def free(self, stream: Stream) -> None:
        """Release a stream (the pq streams are freed per stage, Section 5.2)."""
        if self._streams.get(stream.name) is not stream:
            raise StreamError(f"stream {stream.name!r} is not allocated here")
        del self._streams[stream.name]
        self._alloc_bytes -= stream.nbytes

    @property
    def allocated_bytes(self) -> int:
        """Stream memory currently allocated."""
        return self._alloc_bytes

    # -- stream operations ---------------------------------------------------

    def kernel(
        self,
        name: str,
        instances: int,
        body: KernelBody,
        *,
        inputs: Mapping[str, tuple[Substream, int]] | None = None,
        value_only_inputs: Mapping[str, tuple[Substream, int]] | None = None,
        gathers: Mapping[str, Stream] | None = None,
        iterators: Mapping[str, tuple[IteratorStream, int]] | None = None,
        consts: Mapping[str, np.ndarray] | None = None,
        outputs: Mapping[str, tuple[Substream, int]] | None = None,
        value_only_outputs: Mapping[str, tuple[Substream, int]] | None = None,
        tag: str = "",
    ) -> StreamOpRecord:
        """Execute one stream operation: ``body`` over ``instances`` instances.

        ``inputs``/``outputs`` map port names to ``(substream, elements per
        instance)``.  The ``value_only_*`` variants read/write only the
        ``key``/``id`` record fields of a node substream (the paper's
        ``.value`` notation).
        """
        if instances <= 0:
            raise KernelError(f"kernel {name!r} invoked with {instances} instances")
        inputs = dict(inputs or {})
        value_only_inputs = dict(value_only_inputs or {})
        gathers = dict(gathers or {})
        iterators = dict(iterators or {})
        consts = dict(consts or {})
        out_specs: list[tuple[str, Substream, int, bool]] = [
            (pname, sub, per, False) for pname, (sub, per) in (outputs or {}).items()
        ] + [
            (pname, sub, per, True)
            for pname, (sub, per) in (value_only_outputs or {}).items()
        ]

        in_ports: dict[str, _InputPort] = {}
        for pname, (sub, per) in inputs.items():
            if len(sub) != instances * per:
                raise KernelError(
                    f"kernel {name!r} input {pname!r}: substream length "
                    f"{len(sub)} != {instances} instances x {per}"
                )
            in_ports[pname] = _InputPort(sub, per)
        for pname, (sub, per) in value_only_inputs.items():
            if pname in in_ports:
                raise KernelError(f"kernel {name!r}: duplicate input port {pname!r}")
            if len(sub) != instances * per:
                raise KernelError(
                    f"kernel {name!r} input {pname!r}: substream length "
                    f"{len(sub)} != {instances} instances x {per}"
                )
            in_ports[pname] = _InputPort(sub, per, value_only=True)

        iter_ports: dict[str, _IterPort] = {
            pname: _IterPort(it, per) for pname, (it, per) in iterators.items()
        }
        for pname, arr in consts.items():
            if np.asarray(arr).shape[0] != instances:
                raise KernelError(
                    f"kernel {name!r} constant {pname!r} must have one entry "
                    f"per instance"
                )

        out_ports: dict[str, _OutputPort] = {}
        for pname, sub, per, value_only in out_specs:
            if len(sub) != instances * per:
                raise KernelError(
                    f"kernel {name!r} output {pname!r}: substream length "
                    f"{len(sub)} != {instances} instances x {per}"
                )
            if self.distinct_io:
                # Section 6.1: "input and output streams must always be
                # distinct (and it is currently not sufficient to use just
                # distinct substreams from the same stream)".
                for iname, iport in in_ports.items():
                    if sub.stream is iport.substream.stream:
                        raise StreamError(
                            f"kernel {name!r}: output {pname!r} shares stream "
                            f"{sub.stream.name!r} with input {iname!r}; GPU "
                            f"streams must be distinct (Section 6.1)"
                        )
                for gname, gstream in gathers.items():
                    if sub.stream is gstream:
                        raise StreamError(
                            f"kernel {name!r}: output {pname!r} writes gather "
                            f"stream {gname!r}; GPU streams must be distinct "
                            f"(Section 6.1)"
                        )
            for oname, oport in out_ports.items():
                if sub.overlaps(oport.substream):
                    raise StreamError(
                        f"kernel {name!r}: outputs {pname!r} and {oname!r} "
                        f"overlap"
                    )
            out_ports[pname] = _OutputPort(sub, per, value_only)

        stats = self._execute_kernel(
            name, instances, body, in_ports, gathers, iter_ports, consts, out_ports
        )

        record = StreamOpRecord(
            index=len(self.ops),
            kind="kernel",
            name=name,
            instances=instances,
            linear_read_elems=stats.linear_read_elems,
            linear_read_bytes=stats.linear_read_bytes,
            linear_write_elems=stats.linear_write_elems,
            linear_write_bytes=stats.linear_write_bytes,
            gather_elems=stats.gather_elems,
            gather_bytes=stats.gather_bytes,
            output_blocks=tuple(
                self._logged(port.substream) for port in out_ports.values()
            ),
            input_blocks=tuple(
                self._logged(port.substream) for port in in_ports.values()
            ),
            tag=tag,
        )
        self.ops.append(record)
        return record

    def _logged(self, sub: Substream) -> tuple[str, tuple[tuple[int, int], ...]]:
        """``(stream name, blocks)`` of ``sub`` for a record, interned.

        Drivers reuse the same substreams op after op (a kernel's output
        is the next copy's input), so one shared tuple per distinct
        substream keeps long op logs -- and the memoized ones the
        vectorized tier retains -- small.
        """
        entry = (sub.stream.name, tuple(sub.blocks))
        return self._logged_blocks.setdefault(entry, entry)

    # -- execution hook (see module docstring) -------------------------------

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
        """Run one validated kernel launch and return its traffic stats.

        The reference implementation: evaluate ``body`` over a
        :class:`KernelContext` (counting traffic as the body reads and
        pushes) and commit the pushes.  Subclasses may replace this with
        closed-form accounting, provided the returned stats -- and the
        streams' observable *op log* -- are identical.
        """
        stats = KernelStats(instances=instances)
        trace: list[np.ndarray] | None = [] if self.trace_gathers else None
        ctx = KernelContext(
            instances, in_ports, gathers, iter_ports, consts, out_ports, stats, trace
        )
        body(ctx)
        finalize_kernel(instances, in_ports, out_ports, stats)
        if trace is not None:
            self.gather_traces.append((name, trace))
        return stats

    def _execute_copy(self, src: Substream, dst: Substream) -> None:
        """Move the data of one validated :meth:`copy` operation."""
        data = src.gather_view()
        if data.base is src.stream.data or data.base is None:
            data = data.copy()
        dst.write(data)

    def _execute_copy_values(self, src: Substream, dst: Substream) -> None:
        """Move the key/id payload of one validated :meth:`copy_values`."""
        from repro.stream.stream import VALUE_DTYPE  # local to avoid cycle

        raw = src.gather_view()
        # Both node and value dtypes expose key/id fields.
        keys, ids = raw["key"].copy(), raw["id"].copy()
        if dst.stream.dtype == VALUE_DTYPE:
            vals = np.empty(len(dst), dtype=VALUE_DTYPE)
            vals["key"] = keys
            vals["id"] = ids
            dst.write(vals)
        else:
            dst.write_field("key", keys)
            dst.write_field("id", ids)

    def copy(
        self,
        src: Substream,
        dst: Substream,
        *,
        name: str = "copy",
        tag: str = "",
    ) -> StreamOpRecord:
        """Copy ``src`` into ``dst`` as one stream operation.

        Used for the Section 6.1 copy-back ("all nodes that have just been
        written to the output stream are simply copied back to the input
        stream") and for initial data placement.
        """
        if len(src) != len(dst):
            raise StreamError(
                f"copy length mismatch: {len(src)} -> {len(dst)} elements"
            )
        if self.distinct_io and src.overlaps(dst):
            raise StreamError(
                "copy source and destination overlap; GPU streams must be "
                "distinct (Section 6.1)"
            )
        self._execute_copy(src, dst)
        nbytes = len(src) * src.stream.itemsize
        record = StreamOpRecord(
            index=len(self.ops),
            kind="copy",
            name=name,
            instances=len(src),
            linear_read_elems=len(src),
            linear_read_bytes=nbytes,
            linear_write_elems=len(dst),
            linear_write_bytes=len(dst) * dst.stream.itemsize,
            gather_elems=0,
            gather_bytes=0,
            output_blocks=(self._logged(dst),),
            input_blocks=(self._logged(src),),
            tag=tag,
        )
        self.ops.append(record)
        return record

    def copy_values(
        self,
        src: Substream,
        dst: Substream,
        *,
        name: str = "copy_values",
        tag: str = "",
    ) -> StreamOpRecord:
        """Copy only the ``key``/``id`` fields between substreams.

        Either side may be a node or a value substream; only the value
        payload moves (the paper's ``a.value = b.value`` assignments, e.g.
        directing the merge output back into the tree stream in Listing 2,
        where "the left and right child indexes in this stream area are left
        unmodified").  Counted as one stream operation moving value-sized
        bytes.
        """
        if len(src) != len(dst):
            raise StreamError(
                f"value copy length mismatch: {len(src)} -> {len(dst)}"
            )
        if self.distinct_io and src.overlaps(dst):
            raise StreamError(
                "value copy source and destination overlap; GPU streams "
                "must be distinct (Section 6.1)"
            )
        from repro.stream.stream import VALUE_DTYPE  # local to avoid cycle

        self._execute_copy_values(src, dst)
        nbytes = len(src) * VALUE_DTYPE.itemsize
        record = StreamOpRecord(
            index=len(self.ops),
            kind="copy",
            name=name,
            instances=len(src),
            linear_read_elems=len(src),
            linear_read_bytes=nbytes,
            linear_write_elems=len(dst),
            linear_write_bytes=nbytes,
            gather_elems=0,
            gather_bytes=0,
            output_blocks=(self._logged(dst),),
            input_blocks=(self._logged(src),),
            tag=tag,
        )
        self.ops.append(record)
        return record

    # -- reporting -----------------------------------------------------------

    def counters(self) -> MachineCounters:
        """Aggregate the operation log into one counter record."""
        agg = MachineCounters()
        for op in self.ops:
            agg.stream_ops += 1
            if op.kind == "kernel":
                agg.kernel_ops += 1
            else:
                agg.copy_ops += 1
            agg.instances += op.instances
            agg.linear_read_bytes += op.linear_read_bytes
            agg.linear_write_bytes += op.linear_write_bytes
            agg.gather_elems += op.gather_elems
            agg.gather_bytes += op.gather_bytes
        return agg

    def ops_by_tag(self) -> dict[str, list[StreamOpRecord]]:
        """Group the op log by tag (algorithm phase labels)."""
        groups: dict[str, list[StreamOpRecord]] = {}
        for op in self.ops:
            groups.setdefault(op.tag, []).append(op)
        return groups

    def reset_log(self) -> None:
        """Clear the operation log (allocation state is kept)."""
        self.ops.clear()
        self.gather_traces.clear()
