"""Virtualization layer: VM lifecycle, DFX module loading, reconfiguration.

Reconfiguration cost is a bytes-over-configuration-port model. A full
reconfiguration reprograms the whole fabric and stalls every VM for its
duration; a partial reconfiguration reprograms one region slot and stalls
only the owning VM. Reconfigurations per VM are serialized; partials on
distinct VMs may overlap.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from neurovirt.engine import Engine, round_half_up, NS_PER_S
from neurovirt.fabric import Fabric, ResourceVector
from neurovirt.iodriver import IoRing


class VmUnknown(Exception):
    pass


class VmBusy(Exception):
    pass


class FootprintOverflow(Exception):
    pass


class ModuleKind(enum.Enum):
    LIF_CORE = "lif_core"
    ROUTER = "router"
    POOLING = "pooling"


class ReconfigMode(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"


@dataclass(frozen=True)
class DfxModule:
    """Loadable hardware function; bitstream size drives reconfiguration time."""

    id: str
    kind: ModuleKind
    footprint: ResourceVector
    bitstream_bytes: int


@dataclass(frozen=True)
class ReconfigParams:
    config_port_bw: int = 400 * 1024 * 1024  # bytes/s, ICAP-class port
    partial_setup_overhead_ns: int = 100_000


@dataclass
class ReconfigRecord:
    vm: str | None  # None marks a fabric-wide (full) reprogram
    mode: ReconfigMode
    started_at: int
    duration: int
    module: str


@dataclass
class VirtualMachine:
    id: str
    slot_id: int
    cores: int
    loaded: dict[str, DfxModule] = field(default_factory=dict)
    ring: IoRing | None = None  # its one I/O ring, when the hypervisor has a driver
    inflight_module: DfxModule | None = None  # the module being programmed, if any
    pending_reconfigs: deque = field(default_factory=deque)

    @property
    def reconfiguring(self) -> bool:
        return self.inflight_module is not None

    def loaded_footprint(self) -> ResourceVector:
        total = ResourceVector()
        for module in self.loaded.values():
            total = total + module.footprint
        if self.inflight_module is not None:
            total = total + self.inflight_module.footprint
        return total


def bitstream_bytes_for(
    footprint: ResourceVector, total: ResourceVector, bitstream_total_bytes: int
) -> int:
    """The single proportionality rule for a module's bitstream size:
    bitstream_total * (footprint.lut / total.lut), rounded half up."""
    return round_half_up(bitstream_total_bytes * footprint.lut / total.lut)


def module_from_share(
    module_id: str,
    kind: ModuleKind,
    share: float,
    total: ResourceVector,
    bitstream_total_bytes: int,
) -> DfxModule:
    """Module whose footprint is a fabric share and whose bitstream size
    follows :func:`bitstream_bytes_for`."""
    footprint = total.share(share)
    bitstream = bitstream_bytes_for(footprint, total, bitstream_total_bytes)
    return DfxModule(module_id, kind, footprint, bitstream)


class Hypervisor:
    """VM manager on top of one fabric and one simulation engine."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        driver=None,
        params: ReconfigParams | None = None,
    ):
        self.engine = engine
        self.fabric = fabric
        self.driver = driver
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
        """Allocate a region slot and, given a driver, open the VM's one I/O ring."""
        if vm_id is None:
            vm_id = f"vm{self._next_vm}"
            self._next_vm += 1
        if vm_id in self.vms:
            raise ValueError(f"vm id {vm_id} already exists")
        slot_id = self.fabric.allocate(request)
        if cores is None:
            config = self.fabric.config
            cores = max(
                1, round(config.neurocore_count * request.lut / config.total.lut)
            )
        vm = VirtualMachine(vm_id, slot_id, cores)
        if self.driver is not None:
            vm.ring = self.driver.open_ring(vm_id)
        self.vms[vm_id] = vm
        return vm_id

    def destroy_vm(self, vm_id: str) -> None:
        vm = self._vm(vm_id)
        # the only guard against freeing a slot mid-reprogram; the fabric has none
        if vm.reconfiguring or vm.pending_reconfigs or self._full_active:
            raise VmBusy(f"{vm_id} is mid-reconfiguration")
        if vm.ring is not None:
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

    def load_module(
        self, vm_id: str, module: DfxModule, mode: ReconfigMode
    ) -> ReconfigRecord | None:
        """Start (or queue) a reconfiguration that adds ``module`` to the slot.

        Returns the record when the reconfiguration starts immediately and
        None when it is queued behind one already in flight for this VM.
        """
        vm = self._vm(vm_id)
        pending_fp = ResourceVector()
        for queued_module, _, exchange in vm.pending_reconfigs:
            if not exchange:
                pending_fp = pending_fp + queued_module.footprint
        combined = vm.loaded_footprint() + pending_fp + module.footprint
        if not combined.fits_within(self.fabric.slot(vm.slot_id)):
            raise FootprintOverflow(
                f"{module.id} does not fit {vm_id}'s slot alongside loaded modules"
            )
        return self._enqueue(vm, module, mode, exchange=False)

    def exchange_module(
        self, vm_id: str, module: DfxModule, mode: ReconfigMode
    ) -> ReconfigRecord | None:
        """Reprogram the VM's region with ``module``, replacing its contents.

        This is the function-exchange path: the previous modules in the
        slot cease to exist when programming starts.
        """
        vm = self._vm(vm_id)
        if not module.footprint.fits_within(self.fabric.slot(vm.slot_id)):
            raise FootprintOverflow(f"{module.id} does not fit {vm_id}'s slot")
        return self._enqueue(vm, module, mode, exchange=True)

    def _enqueue(
        self, vm: VirtualMachine, module: DfxModule, mode: ReconfigMode, exchange: bool
    ) -> ReconfigRecord | None:
        if vm.reconfiguring or self._full_active:
            vm.pending_reconfigs.append((module, mode, exchange))
            return None
        return self._start_reconfig(vm, module, mode, exchange)

    def _vm(self, vm_id: str) -> VirtualMachine:
        vm = self.vms.get(vm_id)
        if vm is None:
            raise VmUnknown(vm_id)
        return vm

    def _start_reconfig(
        self,
        vm: VirtualMachine,
        module: DfxModule,
        mode: ReconfigMode,
        exchange: bool = False,
    ) -> ReconfigRecord:
        if exchange:
            vm.loaded.clear()
        duration = self.reconfig_time(mode, module)
        record = ReconfigRecord(
            vm=None if mode is ReconfigMode.FULL else vm.id,
            mode=mode,
            started_at=self.engine.now(),
            duration=duration,
            module=module.id,
        )
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
            fn=lambda: self._finish_reconfig(vm, module, mode, duration),
            detail=f"vm={vm.id};module={module.id};mode={mode.value}",
            vm=vm.id,
        )
        return record

    def _finish_reconfig(
        self, vm: VirtualMachine, module: DfxModule, mode: ReconfigMode, duration: int
    ) -> None:
        self.reconfig_accum[mode] += duration
        vm.loaded[module.id] = module
        vm.inflight_module = None
        if mode is ReconfigMode.FULL:
            self._full_active = False
        # a full reconfiguration may have queued work on any VM, not just its own
        for queued_vm_id in sorted(self.vms):
            queued_vm = self.vms[queued_vm_id]
            if self._full_active:
                break
            if queued_vm.reconfiguring or not queued_vm.pending_reconfigs:
                continue
            next_module, next_mode, next_exchange = queued_vm.pending_reconfigs.popleft()
            self._start_reconfig(queued_vm, next_module, next_mode, next_exchange)
