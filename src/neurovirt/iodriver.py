"""Paravirtualized I/O path: per-VM descriptor rings, transfer streams and
the link model.

Transfer completion follows a latency-plus-bandwidth pipe: a transfer of
``s`` bytes finishes after ``latency + s_bits / bw_share`` where the
bandwidth share is the active-VM peak from the fixed table
:data:`PEAK_GIBPS`, divided by the number of transfers in flight.
Effective throughput therefore rises with transfer size and saturates
at the per-VM-count peak.
"""

from __future__ import annotations

import operator
from collections.abc import Callable

from neurovirt.engine import Engine, SimEvent, round_half_up, NS_PER_S
from neurovirt.record import FrozenRecord, Record

GIB = 2**30  # Gib/s means 2^30 bits per second throughout


class RingClosed(Exception):
    pass


class IoRing(Record):
    """One VM's descriptor ring; ``inflight`` maps a submission number to
    its transfer's completion event (a new dict when None)."""

    __slots__ = ("vm", "closed", "inflight")

    def __init__(self, vm: str, closed: bool = False,
                 inflight: dict[int, SimEvent] | None = None):
        self.vm = vm
        self.closed = closed
        self.inflight = {} if inflight is None else inflight


# Peak Gib/s by active-VM count: a step table from 1 VM, counts ascending,
# peaks non-decreasing. Only the 4-VM peak is an external anchor; the 1-
# and 2-VM peaks are sub-linear defaults (shared-interconnect contention).
PEAK_GIBPS = ((1, 1.5), (2, 2.9), (4, 5.1))


class LinkModel(FrozenRecord):
    """Per-transfer latency and ring slots; peaks come from :data:`PEAK_GIBPS`."""

    __slots__ = ("latency_ns", "ring_capacity")

    def __init__(self, latency_ns: int = 10_000, ring_capacity: int = 256):
        setattr_ = object.__setattr__
        setattr_(self, "latency_ns", latency_ns)
        setattr_(self, "ring_capacity", ring_capacity)
        if self.latency_ns < 0:
            raise ValueError("latency_ns must be non-negative")
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be positive")

    def peak_bw(self, vm_count: int) -> float:
        """Peak Gib/s at the largest tabulated count <= vm_count."""
        if vm_count < 1:
            raise ValueError(f"vm_count {vm_count} below model domain")
        best = PEAK_GIBPS[0][1]
        for count, peak in PEAK_GIBPS:
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

    A ring holds ``len(ring.inflight)`` transfers and the driver
    ``submissions - completions - drained``. Each VM has exactly one ring,
    so :meth:`active_vm_count` is the number of rings that hold a transfer;
    it moves only when a ring goes from empty to non-empty and back.
    """

    def __init__(self, engine: Engine, link: LinkModel | None = None):
        self.engine = engine
        self.link = link if link is not None else LinkModel()
        self._active_rings = 0
        self.submissions = 0
        self.completions = 0
        self.backpressured = 0
        self.drained = 0
        self.completed_bits = 0

    def open_ring(self, vm_id: str) -> IoRing:
        """Open a ring of ``link.ring_capacity`` slots for ``vm_id``."""
        return IoRing(vm_id)

    def close_ring(self, ring: IoRing) -> None:
        """Drop in-flight transfers and refuse further submissions; a
        stream on the ring ends at its next submit."""
        if ring.inflight:
            self._active_rings -= 1
        for event in ring.inflight.values():
            self.engine.cancel(event)
            self.drained += 1
        ring.inflight.clear()
        ring.closed = True

    @property
    def in_flight(self) -> int:
        return self.submissions - self.completions - self.drained

    def active_vm_count(self) -> int:
        return self._active_rings

    def submit(self, ring: IoRing, size: int,
               on_complete: Callable[[], None] | None = None) -> SimEvent | None:
        """Queue one transfer; returns its completion event.

        A full ring refuses the transfer: ``submit`` returns None, counts
        the refusal in ``backpressured`` and schedules nothing, so retrying
        is the caller's choice. A stream counts its own refusals and calls
        ``submit`` only when its ring has room. The completion time is
        fixed at submission from the current contention level. Raises
        TypeError for a ``size`` that is not an integer when the ring has
        room for it.
        """
        if size <= 0:
            raise ValueError("transfer size must be positive")
        if ring.closed:
            raise RingClosed(f"ring of {ring.vm}")
        if len(ring.inflight) >= self.link.ring_capacity:
            self.backpressured += 1
            return None
        size = operator.index(size)
        self.submissions += 1
        number = self.submissions
        if not ring.inflight:
            self._active_rings += 1

        peak = self.link.peak_bw(self._active_rings)
        bw_share = peak / self.in_flight
        duration = self.link.latency_ns + round_half_up(
            size * 8 * NS_PER_S / (bw_share * GIB)
        )
        event = self.engine.schedule(
            self.engine.now() + duration,
            "TransferComplete",
            fn=lambda: self._complete(ring, number, size, on_complete),
            detail=f"vm={ring.vm};size={size};dir=out",
            vm=ring.vm,
        )
        ring.inflight[number] = event
        return event

    def stream(self, ring: IoRing, size: int, count: int, retry_after: int,
               on_complete: Callable[[], None] | None = None) -> Callable[[], None]:
        """Back-to-back transfers of ``size`` bytes on ``ring``, ``count`` in all.

        Returns the callable that submits the stream's next transfer; each
        completion submits the one after it. The stream checks its ring for
        room itself, so only a submit that finds room calls ``submit``: a
        full ring's refusal is counted in ``backpressured`` here, and the
        stream retries ``retry_after`` ns later as a TransferRetry event.
        A stream has one such event: made at its first refusal, re-armed at
        each later one, and dropped when the stream ends. The stream ends
        early once its ring is closed. The ring's capacity is read once,
        when the stream is made: ``LinkModel`` is frozen, and no code
        replaces a driver's ``link``.

        Raises TypeError for a ``size``, a ``count`` or a ``retry_after``
        that is not an integer, and ValueError for one below 1.
        """
        size, count, retry_after = map(operator.index, (size, count, retry_after))
        if size < 1 or count < 1 or retry_after < 1:
            raise ValueError(f"stream on {ring.vm}: size, count and retry_after must be >= 1")
        engine = self.engine
        capacity = self.link.ring_capacity
        remaining = count
        retry: SimEvent | None = None

        def submit_next() -> None:
            nonlocal retry
            if ring.closed:
                retry = None
                return
            # only a submit that finds room reaches self.submit, which
            # then cannot refuse; a refusal is counted here
            if len(ring.inflight) < capacity:
                self.submit(ring, size, done)
                return
            self.backpressured += 1
            # a stream has one submit or retry outstanding, so a refused
            # submit runs with its retry event fired or not yet made
            if retry is None:
                retry = engine.schedule(engine.now() + retry_after, "TransferRetry",
                                        submit_next, f"vm={ring.vm}", ring.vm)
            else:
                engine.reschedule(retry, engine.now() + retry_after)

        def done() -> None:
            nonlocal remaining, retry
            remaining -= 1
            if on_complete is not None:
                on_complete()
            if remaining > 0:
                submit_next()
            else:
                retry = None

        return submit_next

    def _complete(self, ring: IoRing, number: int, size: int, on_complete) -> None:
        del ring.inflight[number]
        if not ring.inflight:
            self._active_rings -= 1
        self.completions += 1
        self.completed_bits += size * 8
        if on_complete is not None:
            on_complete()
