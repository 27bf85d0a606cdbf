"""Virtualization layer: VM lifecycle, DFX module exchange, reconfiguration.

Each VM's region slot holds one DFX module at a time. The one request,
:meth:`Hypervisor.exchange_module`, replaces it: the old module ceases to
exist when programming starts and the new one is usable when it ends. A
VM's requests run one at a time in FIFO order.

Queue invariant: between events, every VM with queued requests is
reconfiguring or waits on a full reconfiguration in flight. A request is
queued only when one of the two holds, and only a finish can end either.
So a partial's finish starts at most its own VM's next request, and only
a full's finish walks every VM's queue.

Reconfiguration cost is a bytes-over-configuration-port model. A full
reconfiguration reprograms the whole fabric and stalls every VM for its
duration; a partial reconfiguration reprograms one region slot and stalls
only the owning VM. Port rule: partials on distinct VMs overlap. A device
with one configuration port (ICAP) would load them one at a time; that
rule is not modelled.
"""

from __future__ import annotations

import enum
from collections import deque

from neurovirt.engine import Engine, round_half_up, NS_PER_S
from neurovirt.fabric import Fabric, FabricConfig, ResourceVector
from neurovirt.iodriver import IoDriver, IoRing, LinkModel
from neurovirt.record import FrozenRecord, Record


class VmUnknown(Exception):
    pass


class VmBusy(Exception):
    pass


class FootprintOverflow(Exception):
    pass


class ReconfigMode(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"


class DfxModule(FrozenRecord):
    """Loadable hardware function; bitstream size drives reconfiguration time."""

    __slots__ = ("id", "footprint", "bitstream_bytes")

    def __init__(self, id: str, footprint: ResourceVector, bitstream_bytes: int):
        setattr_ = object.__setattr__
        setattr_(self, "id", id)
        setattr_(self, "footprint", footprint)
        setattr_(self, "bitstream_bytes", bitstream_bytes)


class ReconfigParams(FrozenRecord):
    __slots__ = ("config_port_bw", "partial_setup_overhead_ns")

    def __init__(
        self,
        config_port_bw: int = 400 * 1024 * 1024,  # bytes/s, ICAP-class port
        partial_setup_overhead_ns: int = 100_000,
    ):
        object.__setattr__(self, "config_port_bw", config_port_bw)
        object.__setattr__(self, "partial_setup_overhead_ns", partial_setup_overhead_ns)


class ReconfigRecord(Record):
    __slots__ = ("vm", "mode", "started_at", "duration", "module")

    def __init__(self, vm: str, mode: ReconfigMode, started_at: int, duration: int,
                 module: str):
        self.vm = vm  # the requesting VM; a FULL mode reprograms the whole fabric
        self.mode = mode
        self.started_at = started_at
        self.duration = duration
        self.module = module


class VirtualMachine(Record):
    __slots__ = ("id", "slot_id", "cores", "ring", "loaded", "inflight_module",
                 "pending_reconfigs")

    def __init__(
        self,
        id: str,
        slot_id: int,
        cores: int,
        ring: IoRing,
        loaded: DfxModule | None = None,
        inflight_module: DfxModule | None = None,
        pending_reconfigs: deque | None = None,
    ):
        self.id = id
        self.slot_id = slot_id
        self.cores = cores
        self.ring = ring  # its one I/O ring
        self.loaded = loaded  # the module the region holds, if any
        self.inflight_module = inflight_module  # the module being programmed, if any
        # (module, mode) requests queued behind the one in flight
        self.pending_reconfigs = deque() if pending_reconfigs is None else pending_reconfigs

    @property
    def reconfiguring(self) -> bool:
        return self.inflight_module is not None


def module_from_share(
    module_id: str, share: float, total: ResourceVector, bitstream_total_bytes: int
) -> DfxModule:
    """Module whose footprint is a fabric share. The one rule for its
    bitstream size: bitstream_total * (footprint.lut / total.lut), rounded
    half up."""
    footprint = total.share(share)
    bitstream = round_half_up(bitstream_total_bytes * footprint.lut / total.lut)
    return DfxModule(module_id, footprint, bitstream)


# Default loadable-function catalog, as fabric shares. Sized so a 5% region
# slot can hold any single module and sixteen such slots fit the fabric.
DEFAULT_MODULE_SHARES = {"lif_core": 0.04, "router": 0.015, "pooling": 0.025}


def default_module_catalog(config: FabricConfig) -> dict[str, DfxModule]:
    """One module per :data:`DEFAULT_MODULE_SHARES` entry, in its order."""
    return {
        name: module_from_share(name, share, config.total, config.bitstream_total_bytes)
        for name, share in DEFAULT_MODULE_SHARES.items()
    }


class Hypervisor:
    """VM manager on top of one fabric and one simulation engine. It owns
    the I/O driver over ``link``: each VM is one fabric slot plus one ring."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        *,
        link: LinkModel | None = None,
        params: ReconfigParams | None = None,
    ):
        self.engine = engine
        self.fabric = fabric
        self.driver = IoDriver(engine, link)
        self.params = params if params is not None else ReconfigParams()
        self.vms: dict[str, VirtualMachine] = {}
        self.records: list[ReconfigRecord] = []
        self.reconfig_accum = {ReconfigMode.FULL: 0, ReconfigMode.PARTIAL: 0}
        self._full_active = False
        self._next_vm = 0

    def create_vm(
        self,
        request: ResourceVector,
        cores: int | None = None,
        vm_id: str | None = None,
    ) -> str:
        """Allocate a region slot and open the VM's one I/O ring.

        Raises ValueError for ``cores`` below 1, before allocating anything."""
        if cores is not None and cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if vm_id is None:
            vm_id = f"vm{self._next_vm}"
            self._next_vm += 1
        if vm_id in self.vms:
            raise ValueError(f"vm id {vm_id} already exists")
        slot_id = self.fabric.allocate(request)
        if cores is None:
            config = self.fabric.config
            exact = config.neurocore_count * request.lut / config.total.lut
            cores = max(1, round_half_up(exact))
        self.vms[vm_id] = VirtualMachine(vm_id, slot_id, cores, self.driver.open_ring(vm_id))
        return vm_id

    def destroy_vm(self, vm_id: str) -> None:
        vm = self._vm(vm_id)
        # the only guard against freeing a slot mid-reprogram; the fabric has none
        if vm.reconfiguring or vm.pending_reconfigs or self._full_active:
            raise VmBusy(f"{vm_id} is mid-reconfiguration")
        self.driver.close_ring(vm.ring)
        self.fabric.release(vm.slot_id)
        del self.vms[vm_id]

    def reconfig_time(self, mode: ReconfigMode, module: DfxModule) -> int:
        """Programming time in ns: bytes over the configuration port, plus a
        fixed setup overhead for partials."""
        bw = self.params.config_port_bw
        if mode is ReconfigMode.FULL:
            total = self.fabric.config.bitstream_total_bytes
            return round_half_up(total * NS_PER_S / bw)
        return (
            round_half_up(module.bitstream_bytes * NS_PER_S / bw)
            + self.params.partial_setup_overhead_ns
        )

    def exchange_module(
        self, vm_id: str, module: DfxModule, mode: ReconfigMode
    ) -> ReconfigRecord | None:
        """Start (or queue) a reconfiguration that replaces the module in
        the VM's region with ``module``.

        Returns the record when the reconfiguration starts immediately and
        None when it is queued behind one in flight.
        """
        vm = self._vm(vm_id)
        if not module.footprint.fits_within(self.fabric.slot(vm.slot_id)):
            raise FootprintOverflow(f"{module.id} does not fit {vm_id}'s slot")
        if vm.reconfiguring or self._full_active:
            vm.pending_reconfigs.append((module, mode))
            return None
        return self._start_reconfig(vm, module, mode)

    def _vm(self, vm_id: str) -> VirtualMachine:
        vm = self.vms.get(vm_id)
        if vm is None:
            raise VmUnknown(vm_id)
        return vm

    def _start_reconfig(
        self, vm: VirtualMachine, module: DfxModule, mode: ReconfigMode
    ) -> ReconfigRecord:
        vm.loaded = None
        duration = self.reconfig_time(mode, module)
        record = ReconfigRecord(vm.id, mode, self.engine.now(), duration, module.id)
        self.records.append(record)
        vm.inflight_module = module
        if mode is ReconfigMode.FULL:
            # global shutdown/reprogram: every VM's in-flight progress slips
            self._full_active = True
            self.engine.postpone_pending(duration)
        else:
            self.engine.postpone_pending(duration, vm=vm.id)
        self.engine.schedule(
            self.engine.now() + duration,
            "ReconfigDone",
            fn=lambda: self._finish_reconfig(vm, record),
            detail=f"vm={vm.id};module={module.id};mode={mode.value}",
            vm=vm.id,
        )
        return record

    def _finish_reconfig(self, vm: VirtualMachine, record: ReconfigRecord) -> None:
        self.reconfig_accum[record.mode] += record.duration
        vm.loaded = vm.inflight_module
        vm.inflight_module = None
        if record.mode is ReconfigMode.PARTIAL:
            # by the queue invariant, every other VM with queued requests is
            # reconfiguring or waits on a full in flight: only this VM's
            # queue can start
            if vm.pending_reconfigs and not self._full_active:
                self._start_reconfig(vm, *vm.pending_reconfigs.popleft())
            return
        self._full_active = False
        # a full reconfiguration may have queued work on any VM, not just its own
        for queued_vm_id in sorted(self.vms):
            queued_vm = self.vms[queued_vm_id]
            if self._full_active:
                break
            if queued_vm.pending_reconfigs and not queued_vm.reconfiguring:
                self._start_reconfig(queued_vm, *queued_vm.pending_reconfigs.popleft())
