"""Deterministic discrete-event core.

One :class:`Engine` owns one simulation: an integer-nanosecond virtual
clock, a totally ordered event queue, and a family of seeded random
streams. Events with equal fire times are processed in insertion order,
so a run is a pure function of (seed, schedule calls).

The queue is a binary heap of ``(fire_at, seq, event)`` entries, plus
one entry held out of it (below), with one liveness rule: an entry is live iff its time equals ``event.fire_at`` and
its seq equals ``event.seq``. :meth:`Engine.schedule` returns the event
itself as its handle. Postponing an event moves its ``fire_at`` and pushes
a fresh entry; cancelling it, or firing it, sets ``fire_at`` to None.
Either way the old entry goes stale in place and the loop skips it when it
surfaces, so cancelling an event that already fired, or was already
cancelled, is a no-op. :meth:`Engine.reschedule` queues a fired or
cancelled event again under the next seq, so an owner that queues its own
successor keeps one event for its lifetime; its old entries stay stale by
seq even when the new time equals an old one. ``schedule`` builds the
event and hands it to ``reschedule``. Every queued
stallable event is indexed by its VM (untagged ones under None), so a
reconfiguration stall walks only the events it shifts. Each stale entry
is the old entry of one cancel or one shifted event, so the queue holds no
more stale entries than the run's own cancels and shifts.

``reschedule`` does not push the entry it makes. It holds it in one slot,
and first pushes the entry held there before. The loop takes its next
entry with ``heapq.heappushpop(heap, held)``, which hands the held entry
back in O(1) when it precedes the heap's top and otherwise swaps it in
with one sift; only with nothing held does it call ``heappop``. So a
handler that re-arms its own event as the next to fire costs no heap
operation: the "hold" of the event-set literature (Jones, CACM 1986). The
held entry is queued like any other: the liveness rule holds for it,
:meth:`Engine.pending` lists it, and it stays held past a handler that
raises and between runs.

Each processed event is logged as one ``tick,seq,kind,detail`` line by an
engine made with ``trace=True``; an engine made without it formats no line.
The log is held as a few large text chunks of :data:`TRACE_WRITE_LINES`
lines each, not one string per event, and :meth:`Engine.write_trace` hands
it off once: each chunk is released as it is written.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Callable

from neurovirt.record import Record

# not typing's, so that importing the package loads no typing; mypy and
# pyright read a TYPE_CHECKING of their own as true
TYPE_CHECKING = False
# numpy is imported by RandomStreams.values, the one method that uses it,
# so runs without a spiking task never load it
if TYPE_CHECKING:
    import numpy as np

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

# trace lines per chunk, and so per write: one string per line held 3.4x the
# bytes of its text, and one write per line took 3x as long or more on an
# 82k-line trace
TRACE_WRITE_LINES = 4096

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SchedulingInPast(Exception):
    """An event was scheduled before the current virtual time."""


def round_half_up(value: float) -> int:
    """Tick-rounding convention used by every model formula."""
    return math.floor(value + 0.5)


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stream_key(seed: int, stream_id: str) -> int:
    h = 0xCBF29CE484222325  # fnv-1a over the stream name
    for byte in stream_id.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return _mix64((seed * _GOLDEN) ^ h)


class RandomStreams:
    """Counter-based uniform streams: value = f(seed, stream id, call index).

    Streams are independent by construction, so consuming more values on
    one stream never perturbs another.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._keys: dict[str, int] = {}
        self._index: dict[str, int] = {}

    def _key(self, stream_id: str) -> int:
        key = self._keys.get(stream_id)
        if key is None:
            key = self._keys[stream_id] = _stream_key(self.seed, stream_id)
        return key

    def next(self, stream_id: str) -> float:
        """Uniform value in [0, 1)."""
        idx = self._index.get(stream_id, 0)
        self._index[stream_id] = idx + 1
        return self.value_at(stream_id, idx)

    def value_at(self, stream_id: str, index: int) -> float:
        bits = _mix64(self._key(stream_id) + (index + 1) * _GOLDEN)
        return (bits >> 11) / float(1 << 53)

    def values(self, stream_id: str, n: int) -> np.ndarray:
        """The stream's next ``n`` uniforms, bit-identical to ``n`` calls of
        :meth:`next`: the same splitmix64 over a range of indices, in
        wrapping ``uint64`` arithmetic. Raises TypeError for an ``n`` that
        is not an integer, which would put a float in the stream's index,
        and ValueError for ``n < 0``, which would rewind the stream."""
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"cannot draw {n} values from stream {stream_id!r}")
        import numpy as np

        key = self._key(stream_id)
        idx = self._index.get(stream_id, 0)
        self._index[stream_id] = idx + n
        z = np.arange(idx + 1, idx + 1 + n, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(key)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        return z.astype(np.float64) / float(1 << 53)


class SimEvent(Record):
    """A queued simulation event, and the handle :meth:`Engine.schedule`
    returns for it.

    ``(fire_at, seq)`` is unique per run and defines the total processing
    order; ``fire_at`` is None once the event has fired or been cancelled,
    and :meth:`Engine.reschedule` queues it again under a fresh seq.
    ``vm`` tags events that belong to one virtual machine so
    reconfiguration stalls can postpone exactly that machine's progress.
    Two events are equal only if they are the same event.
    """

    __slots__ = ("fire_at", "seq", "kind", "detail", "fn", "vm", "stallable")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        fire_at: int | None,
        seq: int,
        kind: str,
        detail: str = "",
        fn: Callable[[], None] | None = None,
        vm: str | None = None,
        stallable: bool = True,
    ):
        self.fire_at = fire_at
        self.seq = seq
        self.kind = kind
        self.detail = detail
        self.fn = fn
        self.vm = vm
        self.stallable = stallable


def _live(entry: tuple[int, int, SimEvent]) -> bool:
    """Whether a queued entry is live: its time and seq are its event's own."""
    return entry[0] == entry[2].fire_at and entry[1] == entry[2].seq


class Engine:
    """Single-threaded event loop over integer-nanosecond virtual time."""

    def __init__(self, seed: int = 0, *, trace: bool = False):
        self._now = 0
        self._scheduled = 0  # events scheduled so far: the next event's seq
        self._heap: list[tuple[int, int, SimEvent]] = []
        # the entry reschedule made last: queued, but not in the heap
        self._held: tuple[int, int, SimEvent] | None = None
        # queued stallable events of each VM (None: untagged), seq -> event
        self._by_vm: dict[str | None, dict[int, SimEvent]] = {}
        self._processed = 0
        self.rng = RandomStreams(seed)
        # the open chunk (lines not yet joined) and the closed chunks of
        # "\n"-terminated text; both None when the engine keeps no trace
        self._lines: list[str] | None = [] if trace else None
        self._chunks: list[str] | None = [] if trace else None

    def now(self) -> int:
        return self._now

    @property
    def processed_count(self) -> int:
        return self._processed

    @property
    def trace(self) -> list[str]:
        """The lines processed and not yet written, one per event: an O(n)
        copy for diagnostics and tests. Raises ValueError on an engine made
        without ``trace=True``."""
        self._check_traced()
        # split on "\n" only: str.splitlines() also splits on "\r" and others
        return "".join(self._chunks).split("\n")[:-1] + self._lines

    def _check_traced(self) -> None:
        if self._lines is None:
            raise ValueError("this engine keeps no trace: make it with Engine(..., trace=True)")

    def schedule(
        self,
        at: int,
        kind: str,
        fn: Callable[[], None] | None = None,
        detail: str = "",
        vm: str | None = None,
        stallable: bool = True,
    ) -> SimEvent:
        """Queue an event at absolute time ``at``; returns it as a handle."""
        return self.reschedule(SimEvent(None, -1, kind, detail, fn, vm, stallable), at)

    def reschedule(self, event: SimEvent, at: int) -> SimEvent:
        """Queue a fired or cancelled ``event`` again at absolute time ``at``,
        under the next seq, exactly as a fresh :meth:`schedule` of its kind,
        detail, fn, VM and stallable flag would be; returns it.

        Raises TypeError for an ``at`` that is not an integer, which would
        put a fractional tick on the clock, and ValueError while the event
        is still queued."""
        at = operator.index(at)
        if event.fire_at is not None:
            raise ValueError(f"{event.kind} event {event.seq} is still queued")
        if at < self._now:
            raise SchedulingInPast(f"schedule at {at} < now {self._now}")
        seq = self._scheduled
        self._scheduled = seq + 1
        event.fire_at = at
        event.seq = seq
        held = self._held
        if held is not None:
            heapq.heappush(self._heap, held)
        self._held = (at, seq, event)
        if event.stallable:
            index = self._by_vm.get(event.vm)
            if index is None:
                index = self._by_vm[event.vm] = {}
            index[seq] = event
        return event

    def cancel(self, event: SimEvent) -> None:
        """Retire a queued event; a no-op once it has fired or been cancelled."""
        if event.fire_at is None:
            return
        event.fire_at = None
        if event.stallable:
            del self._by_vm[event.vm][event.seq]

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_at <= t_end; clock ends at t_end.
        Raises TypeError for a ``t_end`` that is not an integer."""
        t_end = operator.index(t_end)
        processed = self._drain(t_end)
        if t_end > self._now:
            self._now = t_end
        return processed

    def run(self) -> int:
        """Drain the queue completely; clock ends at the last fire time."""
        return self._drain(math.inf)

    def _drain(self, t_end: float) -> int:
        """Process events in (fire_at, seq) order while the next one fires at
        or before ``t_end``; returns how many were processed."""
        # locals stay valid for the whole loop: handlers only ever mutate the
        # heap, the index and the open chunk in place. The held slot is read
        # afresh: a handler, or a run_until nested in one, fills or takes it
        heap, by_vm, lines = self._heap, self._by_vm, self._lines
        log = None if lines is None else lines.append
        pop, pushpop = heapq.heappop, heapq.heappushpop
        start = self._processed
        while True:
            held = self._held
            if held is None:
                if not heap or heap[0][0] > t_end:
                    break
                fire_at, seq, event = pop(heap)
            else:
                self._held = None
                fire_at, seq, event = entry = pushpop(heap, held)
                if fire_at > t_end:
                    self._held = entry
                    break
            # _live() inlined for speed: the entry is stale once its event
            # moved, fired, was cancelled or was re-armed under a later seq
            if fire_at != event.fire_at or seq != event.seq:
                continue
            event.fire_at = None
            if event.stallable:
                del by_vm[event.vm][seq]
            self._now = fire_at
            if log is not None:
                log(f"{fire_at},{seq},{event.kind},{event.detail}")
                if len(lines) == TRACE_WRITE_LINES:
                    self._close_chunk()
            self._processed += 1
            if event.fn is not None:
                event.fn()
        return self._processed - start

    def pending(self) -> list[SimEvent]:
        """Live queued events in processing order (diagnostic snapshot)."""
        entries = self._heap if self._held is None else [*self._heap, self._held]
        # live entries have distinct (fire_at, seq), so no event is compared
        return [entry[2] for entry in sorted(filter(_live, entries))]

    def postpone_pending(self, delta: int, vm: str | None = None) -> int:
        """Shift queued stallable events ``delta`` ns into the future: those
        of ``vm``, or every one when ``vm`` is None. Returns how many.

        Each shifted event gets a fresh heap entry and its old one goes
        stale. A ``delta`` of 0 changes nothing, since a fresh entry would
        equal the old one and both would be live (:meth:`pending` would
        list the event twice), but still counts the events it selects.
        Relative order among shifted events is preserved because they all
        move by the same amount and keep their sequence numbers. Used to
        model reconfiguration stalls. Raises TypeError for a ``delta`` that
        is not an integer.
        """
        delta = operator.index(delta)
        if delta < 0:
            raise ValueError("delta must be non-negative")
        indexes = self._by_vm.values() if vm is None else [self._by_vm.get(vm, {})]
        shifted = 0
        heap, push = self._heap, heapq.heappush
        for index in indexes:
            shifted += len(index)
            if delta:
                for event in index.values():
                    event.fire_at += delta
                    push(heap, (event.fire_at, event.seq, event))
        return shifted

    def _close_chunk(self) -> None:
        """Join the open chunk's lines into one closed chunk."""
        lines = self._lines
        if lines:
            # the closing newline joined in, not added to a copy: freeing
            # that copy raised glibc's mmap threshold, so later chunks came
            # from the heap and stayed resident once released (+1.3 MiB
            # peak RSS on io-reconfig-churn)
            lines.append("")
            self._chunks.append("\n".join(lines))
            lines.clear()  # in place: a running loop holds this list

    def write_trace(self, fh) -> None:
        """Write the processed-event log, one ``tick,seq,kind,detail`` line
        each, and release it.

        The log is a stream handed off once: each chunk is dropped as it is
        written, so afterwards the engine holds no trace, and a second call
        writes only the events processed since. Raises ValueError on an
        engine made without ``trace=True``."""
        self._check_traced()
        self._close_chunk()
        chunks = self._chunks
        while chunks:
            fh.write(chunks[0])
            del chunks[0]
