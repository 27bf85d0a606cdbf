"""Paravirtualized I/O path: per-VM descriptor rings and the link model.

Transfer completion follows a latency-plus-bandwidth pipe: a transfer of
``s`` bytes finishes after ``latency + s_bits / bw_share`` where the
bandwidth share is the active-VM peak divided by the number of transfers
in flight. Effective throughput therefore rises with transfer size and
saturates at the per-VM-count peak.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from neurovirt.engine import Engine, SimEvent, round_half_up, NS_PER_S

GIB = 2**30  # Gib/s means 2^30 bits per second throughout


class Backpressure(Exception):
    """Ring full; caller requeues at the next tick."""


class RingClosed(Exception):
    pass


class UnknownRing(Exception):
    pass


class Direction(enum.Enum):
    IN = "in"
    OUT = "out"


@dataclass(frozen=True, eq=False)  # keys IoRing.inflight by identity
class TransferDescriptor:
    vm: str
    size: int
    direction: Direction


@dataclass
class IoRing:
    id: int
    vm: str
    closed: bool = False
    inflight: dict[TransferDescriptor, SimEvent] = field(default_factory=dict)


@dataclass(frozen=True)
class LinkModel:
    """Per-transfer latency plus a peak-bandwidth table keyed by VM count.

    Only the 4-VM asymptote is an externally calibrated anchor; the 1- and
    2-VM peaks are sub-linear defaults (shared-interconnect contention)
    and scenario-overridable.
    """

    latency_ns: int = 10_000
    peak_gibps: tuple[tuple[int, float], ...] = ((1, 1.5), (2, 2.9), (4, 5.1))
    ring_capacity: int = 256

    def __post_init__(self):
        if self.latency_ns < 0:
            raise ValueError("latency_ns must be non-negative")
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be positive")
        if not self.peak_gibps:
            raise ValueError("peak table must be non-empty")
        last = 0.0
        for count, peak in self.peak_gibps:
            if count < 1 or peak <= 0:
                raise ValueError("peak table entries must be positive")
            if peak < last:
                raise ValueError("peak table must be non-decreasing in VM count")
            last = peak

    def peak_bw(self, vm_count: int) -> float:
        """Peak Gib/s at the largest tabulated count <= vm_count."""
        if vm_count < self.peak_gibps[0][0]:
            raise ValueError(f"vm_count {vm_count} below model domain")
        best = self.peak_gibps[0][1]
        for count, peak in self.peak_gibps:
            if count <= vm_count:
                best = peak
        return best


def effective_throughput(size_bytes: int, vm_count: int, link: LinkModel) -> float:
    """Closed-form aggregate Gib/s for back-to-back transfers of one size."""
    if size_bytes <= 0:
        raise ValueError("size must be positive")
    bits = size_bytes * 8
    latency_s = link.latency_ns / NS_PER_S
    peak_bits = link.peak_bw(vm_count) * GIB
    return bits / (latency_s + bits / peak_bits) / GIB


class IoDriver:
    """Descriptor-ring device sharing over one engine.

    Occupancy is derived, not counted: a ring holds ``len(ring.inflight)``
    transfers, the driver ``submissions - completions - drained``, and
    ``in_flight_by_vm`` keeps only VMs with a transfer in flight.
    """

    def __init__(self, engine: Engine, link: LinkModel | None = None):
        self.engine = engine
        self.link = link if link is not None else LinkModel()
        self.rings: dict[int, IoRing] = {}  # closed, never removed
        self.in_flight_by_vm: dict[str, int] = {}
        self.submissions = 0
        self.completions = 0
        self.backpressured = 0
        self.drained = 0
        self.completed_bits = 0

    def open_ring(self, vm_id: str) -> int:
        """Open a ring of ``link.ring_capacity`` slots; returns its id."""
        ring_id = len(self.rings)
        self.rings[ring_id] = IoRing(ring_id, vm_id)
        return ring_id

    def close_ring(self, ring_id: int) -> None:
        """Drop in-flight descriptors and refuse further submissions."""
        ring = self._ring(ring_id)
        for event in ring.inflight.values():
            self.engine.cancel(event)
            self.drained += 1
            self._leave(ring.vm)
        ring.inflight.clear()
        ring.closed = True

    @property
    def in_flight(self) -> int:
        return self.submissions - self.completions - self.drained

    def active_vm_count(self) -> int:
        return len(self.in_flight_by_vm)

    def submit(self, ring_id: int, size: int, direction: Direction = Direction.OUT,
               on_complete=None) -> SimEvent:
        """Queue one transfer; returns its completion event.

        Raises Backpressure when the ring is at capacity. The completion
        time is fixed at submission from the current contention level.
        """
        if size <= 0:
            raise ValueError("transfer size must be positive")
        ring = self._ring(ring_id)
        if ring.closed:
            raise RingClosed(f"ring {ring_id}")
        if len(ring.inflight) >= self.link.ring_capacity:
            self.backpressured += 1
            raise Backpressure(f"ring {ring_id} full")
        self.submissions += 1
        self.in_flight_by_vm[ring.vm] = self.in_flight_by_vm.get(ring.vm, 0) + 1
        desc = TransferDescriptor(ring.vm, size, direction)

        peak = self.link.peak_bw(self.active_vm_count())
        bw_share = peak / self.in_flight
        duration = self.link.latency_ns + round_half_up(
            size * 8 * NS_PER_S / (bw_share * GIB)
        )
        event = self.engine.schedule_in(
            duration,
            "TransferComplete",
            fn=lambda: self._complete(ring, desc, on_complete),
            detail=f"vm={ring.vm};size={size};dir={desc.direction.value}",
            vm=ring.vm,
        )
        ring.inflight[desc] = event
        return event

    def _complete(self, ring: IoRing, desc: TransferDescriptor, on_complete) -> None:
        del ring.inflight[desc]
        self._leave(desc.vm)
        self.completions += 1
        self.completed_bits += desc.size * 8
        if on_complete is not None:
            on_complete(desc)

    def _leave(self, vm_id: str) -> None:
        """One of ``vm_id``'s transfers is no longer in flight."""
        if self.in_flight_by_vm[vm_id] == 1:
            del self.in_flight_by_vm[vm_id]
        else:
            self.in_flight_by_vm[vm_id] -= 1

    def _ring(self, ring_id: int) -> IoRing:
        ring = self.rings.get(ring_id)
        if ring is None:
            raise UnknownRing(f"ring {ring_id}")
        return ring
