"""The Device abstraction: one modeled GPU with its own machine and bus.

The paper sorts on *one* stream architecture; everything in
:mod:`repro.stream` was therefore written against a single implicit
:class:`~repro.stream.context.StreamMachine` plus a free-standing
:class:`~repro.stream.gpu_model.GPUModel`.  The cluster layer makes that
pairing explicit: a :class:`Device` is

* a :class:`GPUModel` (what the hardware cost model is parameterised on),
* a :class:`~repro.stream.transfer.TransferLink` (its own PCIe/AGP bus,
  with modeled up/down bandwidth), and
* a private stream-machine source: every sort dispatched to the device runs
  on a machine created by :meth:`new_machine`, so op logs and counters
  accumulate *per device* instead of on a global sorter attribute.

:func:`make_devices` builds a homogeneous cluster from the paper's two
hardware models (Table 2's GeForce 6800 Ultra / AGP and Table 3's GeForce
7800 GTX / PCIe).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ModelError
from repro.core.api import ABiSortConfig, make_sorter
from repro.stream.context import MachineCounters, StreamMachine, StreamOpRecord
from repro.stream.gpu_model import (
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
    GPUModel,
    HostSystem,
)
from repro.stream.transfer import TransferLink, link_for_host

__all__ = ["Device", "make_devices"]


@dataclass
class Device:
    """One simulated GPU: hardware model + transfer link + machine log."""

    index: int
    gpu: GPUModel
    link: TransferLink
    #: Every stream machine created for this device, in dispatch order.
    machines: list[StreamMachine] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Display name, e.g. ``dev0 (GeForce 7800 GTX)``."""
        return f"dev{self.index} ({self.gpu.name})"

    # -- machine management --------------------------------------------------

    def new_machine(self, distinct_io: bool = True) -> StreamMachine:
        """A fresh stream machine whose op log stays with this device."""
        machine = StreamMachine(distinct_io=distinct_io)
        self.machines.append(machine)
        return machine

    def make_sorter(self, config: ABiSortConfig | None = None):
        """A GPU-ABiSort driver bound to this device's machines."""
        return make_sorter(config, machine_factory=self.new_machine)

    def reset(self) -> None:
        """Drop the accumulated machine log (between scheduling rounds)."""
        self.machines.clear()

    # -- accounting ----------------------------------------------------------

    def ops(self) -> list[StreamOpRecord]:
        """All logged stream operations across this device's machines."""
        out: list[StreamOpRecord] = []
        for machine in self.machines:
            out.extend(machine.ops)
        return out

    def counters(self) -> MachineCounters:
        """Aggregate counters over every machine run on this device."""
        return sum((m.counters() for m in self.machines), MachineCounters())


def make_devices(
    count: int,
    *,
    gpu: GPUModel = GEFORCE_7800_GTX,
    host: HostSystem = PCIE_SYSTEM,
    link: TransferLink | None = None,
) -> list[Device]:
    """A homogeneous cluster of ``count`` devices.

    Every device's bus is modeled as *independent* -- transfers on one
    device never contend with another's, as on a machine where every card
    has its own slot.  The scheduler enforces this by keying transfer
    queues on the device, so the (immutable, stateless)
    :class:`TransferLink` object itself may be shared between devices.
    """
    if count < 1:
        raise ModelError(f"a cluster needs at least one device, got {count}")
    link = link or link_for_host(host)
    return [Device(index=i, gpu=gpu, link=link) for i in range(count)]
