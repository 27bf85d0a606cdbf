"""Physical substrate: resource pool, neurocores, and region-slot accounting.

Resources are fungible counts in four classes (LUT, memory bytes, IO pins,
DSP slices). Allocation is first-fit against the free pool; there is no
placement or fragmentation model. Conservation holds at all times:
``free + sum(slot capacities) == total`` componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

RESOURCE_CLASSES = ("lut", "memory_bytes", "io_pins", "dsp")


class InsufficientResources(Exception):
    def __init__(self, resource: str, requested: int, available: int):
        self.resource = resource
        self.requested = requested
        self.available = available
        super().__init__(
            f"insufficient {resource}: requested {requested}, available {available}"
        )


class UnknownSlot(Exception):
    pass


@dataclass(frozen=True)
class ResourceVector:
    """Counted capacity/footprint across the four resource classes."""

    lut: int = 0
    memory_bytes: int = 0
    io_pins: int = 0
    dsp: int = 0

    def __post_init__(self):
        for name in RESOURCE_CLASSES:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.lut + other.lut,
            self.memory_bytes + other.memory_bytes,
            self.io_pins + other.io_pins,
            self.dsp + other.dsp,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.lut - other.lut,
            self.memory_bytes - other.memory_bytes,
            self.io_pins - other.io_pins,
            self.dsp - other.dsp,
        )

    def fits_within(self, other: "ResourceVector") -> bool:
        return all(
            getattr(self, name) <= getattr(other, name) for name in RESOURCE_CLASSES
        )

    def any_positive(self) -> bool:
        return any(getattr(self, name) > 0 for name in RESOURCE_CLASSES)

    def scaled(self, numerator: int, denominator: int) -> "ResourceVector":
        """Componentwise integer fraction (floor)."""
        return ResourceVector(
            self.lut * numerator // denominator,
            self.memory_bytes * numerator // denominator,
            self.io_pins * numerator // denominator,
            self.dsp * numerator // denominator,
        )

    def share(self, fraction: float) -> "ResourceVector":
        """Componentwise floating share, floored to whole units."""
        return ResourceVector(
            int(self.lut * fraction),
            int(self.memory_bytes * fraction),
            int(self.io_pins * fraction),
            int(self.dsp * fraction),
        )


# Zynq UltraScale+ XCZU7EV device totals. Memory is stored in decimal
# megabytes (38 MB -> 38,000,000 bytes) so utilization ratios are exact.
DEFAULT_TOTAL = ResourceVector(lut=504_000, memory_bytes=38_000_000, io_pins=464, dsp=1_728)

DEFAULT_BITSTREAM_BYTES = 30 * 1024 * 1024  # full-fabric configuration image


@dataclass(frozen=True)
class FabricConfig:
    total: ResourceVector = DEFAULT_TOTAL
    neurocore_count: int = 16
    neurons_per_core: int = 256
    bitstream_total_bytes: int = DEFAULT_BITSTREAM_BYTES

    def __post_init__(self):
        if self.neurocore_count <= 0:
            raise ValueError("neurocore_count must be positive")
        if self.neurons_per_core <= 0:
            raise ValueError("neurons_per_core must be positive")
        if self.bitstream_total_bytes <= 0:
            raise ValueError("bitstream_total_bytes must be positive")
        # utilization and bitstream shares divide by each class's total
        if not all(getattr(self.total, name) > 0 for name in RESOURCE_CLASSES):
            raise ValueError("total must be positive in every class")


class Fabric:
    """Resource pool; ``slots`` maps each allocated slot id to its capacity."""

    def __init__(self, config: FabricConfig | None = None):
        config = config if config is not None else FabricConfig()
        self.config = config
        self.total = config.total
        self.free = config.total
        self.slots: dict[int, ResourceVector] = {}
        self._next_slot_id = 0

    def allocate(self, request: ResourceVector) -> int:
        """Carve a region slot out of the free pool; returns the slot id."""
        if not request.any_positive():
            raise ValueError("allocation request must be positive in some class")
        for name in RESOURCE_CLASSES:
            want = getattr(request, name)
            have = getattr(self.free, name)
            if want > have:
                raise InsufficientResources(name, want, have)
        slot_id = self._next_slot_id
        self._next_slot_id += 1
        self.free = self.free - request
        self.slots[slot_id] = request
        return slot_id

    def release(self, slot_id: int) -> None:
        self.free = self.free + self.slot(slot_id)
        del self.slots[slot_id]

    def slot(self, slot_id: int) -> ResourceVector:
        """The capacity of an allocated slot."""
        capacity = self.slots.get(slot_id)
        if capacity is None:
            raise UnknownSlot(f"slot {slot_id}")
        return capacity

    def used(self) -> ResourceVector:
        used = ResourceVector()
        for capacity in self.slots.values():
            used = used + capacity
        return used

    def utilization(self) -> dict[str, float]:
        """Per-class 100 * used / available, computed from live allocations."""
        used = self.used()
        return {
            name: 100.0 * getattr(used, name) / getattr(self.total, name)
            for name in RESOURCE_CLASSES
        }
