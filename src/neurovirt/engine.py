"""Deterministic discrete-event core.

One :class:`Engine` owns one simulation: an integer-nanosecond virtual
clock, a totally ordered event queue, and a family of seeded random
streams. Events with equal fire times are processed in insertion order,
so a run is a pure function of (seed, schedule calls).

The queue is three parts: the run heap, the held slot (below) and the
set-up heap, each holding ``(fire_at, seq, event)`` entries. An entry
queued while no loop runs (a run's set-up, or calls between two
``run_until`` calls) enters the set-up heap; one queued by a handler
enters the held slot, and the entry held before moves to the run heap. One
liveness rule holds over all three: an entry is live iff its time equals
``event.fire_at`` and its seq equals ``event.seq``. :meth:`Engine.schedule`
returns the event itself as its handle. Postponing an event moves its
``fire_at`` and pushes a fresh entry (into the run heap while a loop
runs, else into the set-up heap); cancelling it, or firing it, sets
``fire_at`` to None. Either way the old entry goes stale in place, in
whichever part it sits, and the loop skips it when it surfaces, so
cancelling an event that already fired, or was already cancelled, is a
no-op. :meth:`Engine.reschedule` queues a fired or cancelled event again
under the next seq, so an owner that queues its own successor keeps one
event for its lifetime; its old entries stay stale by seq even when the
new time equals an old one. ``schedule`` builds the event and hands it to
``reschedule``. A stallable event joins its VM's index (untagged ones
under None) when it is queued and stays there until it stops being live:
until it is cancelled, or its handler returns or raises without queuing
it again. So a handler that re-arms its own event does no index work, and
a reconfiguration stall walks only the events it shifts, passing over an
indexed event whose handler is running. Each stale entry, in any of the
three parts, is the old entry of one cancel or one shifted event, so the
queue holds no more stale entries than the run's own cancels and shifts.

The loop takes the run side's next entry with ``heapq.heappushpop(heap,
held)``, which hands the held entry back in O(1) when it precedes the
heap's top and otherwise swaps it in with one sift; only with nothing
held does it call ``heappop``. So a handler that re-arms its own event as
the next to fire costs no heap operation: the "hold" of the event-set
literature (Jones, CACM 1986). That entry is then compared with the
set-up heap's top; when the set-up entry comes first, the run side's
entry goes back into the held slot, which is empty at that point. Seqs
are given at schedule time, so the two heaps merge in exactly the
``(fire_at, seq)`` order of one queue, and ties go by seq alone. Keeping pre-loaded future
events (a scenario's requests and samples) out of the run heap keeps its
sifts as short as the work in flight (Brown, "Calendar queues", CACM
1988). The held entry is queued like any other: :meth:`Engine.pending`
lists it, and it stays held past a handler that raises and between runs.

An event scheduled with ``repeats=n`` and ``every=d`` is counted: it fires
``n + 1`` times, and each of its first ``n`` fires is logged and counted
as any other but runs no handler. The loop re-arms it ``d`` ns later
itself, into the held slot under the next seq, and leaves it in its VM's
index. That is what a handler doing nothing but ``reschedule(event,
now() + d)`` would do: such a handler queues nothing before its re-arm,
so its re-arm takes the seq the loop takes, and no trace line, stall or
cancel tells the two apart. A stall shifts a counted event like any
other, and its later fires follow the shifted time; a cancel keeps its
countdown for a later ``reschedule``. Only the last fire runs the handler.

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
    reconfiguration stalls can postpone exactly that machine's progress;
    change it only while the event is not queued, after a cancel if its
    handler is running. ``every`` and ``repeats`` make it a counted event:
    while ``repeats`` is above 0, a fire runs no handler, takes one off
    ``repeats`` and re-arms the event ``every`` ns later; change ``every``
    only when ``vm`` may change. ``index`` is the engine's VM index that
    holds the event, or None. Two events are equal only if they are the
    same event.
    """

    __slots__ = ("fire_at", "seq", "kind", "detail", "fn", "vm", "stallable", "every",
                 "repeats", "index")
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
        every: int = 0,
        repeats: int = 0,
        index: dict[SimEvent, None] | None = None,
    ):
        self.fire_at = fire_at
        self.seq = seq
        self.kind = kind
        self.detail = detail
        self.fn = fn
        self.vm = vm
        self.stallable = stallable
        self.every = every
        self.repeats = repeats  # fires left that run no handler
        self.index = index


def _live(entry: tuple[int, int, SimEvent]) -> bool:
    """Whether a queued entry is live: its time and seq are its event's own."""
    return entry[0] == entry[2].fire_at and entry[1] == entry[2].seq


class Engine:
    """Single-threaded event loop over integer-nanosecond virtual time."""

    def __init__(self, seed: int = 0, *, trace: bool = False):
        self._now = 0
        self._scheduled = 0  # events scheduled so far: the next event's seq
        # the run heap: entries queued while a loop runs
        self._heap: list[tuple[int, int, SimEvent]] = []
        # the entry reschedule made last in a loop: queued, but in no heap
        self._held: tuple[int, int, SimEvent] | None = None
        # the set-up heap: entries queued while no loop runs
        self._setup: list[tuple[int, int, SimEvent]] = []
        self._depth = 0  # _drain loops running, nested ones included
        # the live stallable events of each VM (None: untagged), in the
        # order they were indexed; a dict keyed by event, as an ordered set
        self._by_vm: dict[str | None, dict[SimEvent, None]] = {}
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
        *,
        every: int = 0,
        repeats: int = 0,
    ) -> SimEvent:
        """Queue an event at absolute time ``at``; returns it as a handle.

        The event fires ``repeats + 1`` times, ``every`` ns apart, and only
        its last fire runs ``fn`` (a counted event: see the module
        docstring). Raises TypeError for an ``every`` or ``repeats`` that is
        not an integer, and ValueError for ``repeats < 0``, or for
        ``repeats > 0`` with ``every < 1``, whose fires would all fall at
        one instant."""
        every, repeats = operator.index(every), operator.index(repeats)
        if repeats < 0 or (repeats and every < 1):
            raise ValueError(f"{kind} event: repeats {repeats} must be >= 0, "
                             f"and every {every} >= 1 when repeats > 0")
        return self.reschedule(
            SimEvent(None, -1, kind, detail, fn, vm, stallable, every, repeats), at)

    def reschedule(self, event: SimEvent, at: int) -> SimEvent:
        """Queue a fired or cancelled ``event`` again at absolute time ``at``,
        under the next seq, exactly as a fresh :meth:`schedule` of its kind,
        detail, fn, VM, stallable flag, ``every`` and remaining ``repeats``
        would be; returns it.

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
        if self._depth:
            held = self._held
            if held is not None:
                heapq.heappush(self._heap, held)
            self._held = (at, seq, event)
        else:
            heapq.heappush(self._setup, (at, seq, event))
        # a re-arm from the event's own handler finds it still indexed
        if event.index is None and event.stallable:
            index = self._by_vm.get(event.vm)
            if index is None:
                index = self._by_vm[event.vm] = {}
            index[event] = None
            event.index = index
        return event

    def cancel(self, event: SimEvent) -> None:
        """Retire a queued event; a no-op once it has fired or been cancelled,
        except that an event whose handler is running leaves its VM's
        index, so that a VM set before it is queued again is the one that
        indexes it."""
        index = event.index
        if index is not None:
            del index[event]
            event.index = None
        event.fire_at = None

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_at <= t_end; clock ends at t_end.
        Returns how many events the engine processed during the call,
        those of a ``run_until`` nested in one of its handlers included.
        Raises TypeError for a ``t_end`` that is not an integer."""
        t_end = operator.index(t_end)
        processed = self._drain(t_end)
        if t_end > self._now:
            self._now = t_end
        return processed

    def run(self) -> int:
        """Drain the queue completely; clock ends at the last fire time.
        Returns the count that ``run_until`` returns."""
        return self._drain(math.inf)

    def _drain(self, t_end: float) -> int:
        """Process events in (fire_at, seq) order while the next one fires at
        or before ``t_end``; returns how many were processed meanwhile,
        by this loop or by one nested in a handler."""
        # locals stay valid for the whole loop: handlers only ever mutate the
        # heaps and the open chunk in place. The held slot is read afresh: a
        # handler, or a run_until nested in one, fills or takes it
        heap, setup, lines = self._heap, self._setup, self._lines
        log = None if lines is None else lines.append
        pop, push, pushpop = heapq.heappop, heapq.heappush, heapq.heappushpop
        start = self._processed
        self._depth += 1
        try:
            while True:
                # the run side's next entry: the held one, or the heap's top
                held = self._held
                if held is not None:
                    self._held = None
                    entry = pushpop(heap, held)
                elif heap:
                    entry = pop(heap)
                else:
                    entry = None
                if setup and (entry is None or setup[0] < entry):
                    # a set-up entry comes first: the run side's entry waits
                    # in the held slot, which the take above emptied
                    self._held = entry
                    if setup[0][0] > t_end:
                        break
                    entry = pop(setup)
                elif entry is None:
                    break
                fire_at, seq, event = entry
                if fire_at > t_end:
                    self._held = entry
                    break
                # _live() inlined for speed: the entry is stale once its event
                # moved, fired, was cancelled or was re-armed under a later seq
                if fire_at != event.fire_at or seq != event.seq:
                    continue
                event.fire_at = None
                self._now = fire_at
                if log is not None:
                    log(f"{fire_at},{seq},{event.kind},{event.detail}")
                    if len(lines) == TRACE_WRITE_LINES:
                        self._close_chunk()
                self._processed += 1
                repeats = event.repeats
                if repeats:
                    # a counted fire: re-armed as reschedule() from its
                    # handler would re-arm it, into the held slot under the
                    # next seq, and left in its VM's index; no handler runs
                    event.repeats = repeats - 1
                    seq = self._scheduled
                    self._scheduled = seq + 1
                    event.fire_at = at = fire_at + event.every
                    event.seq = seq
                    held = self._held
                    if held is not None:
                        push(heap, held)
                    self._held = (at, seq, event)
                    continue
                try:
                    if event.fn is not None:
                        event.fn()
                finally:
                    # the event stays indexed while its handler runs; it
                    # leaves unless the handler queued it again, also when
                    # the handler raised
                    index = event.index
                    if index is not None and event.fire_at is None:
                        del index[event]
                        event.index = None
        finally:
            self._depth -= 1
        return self._processed - start

    def pending(self) -> list[SimEvent]:
        """Live queued events in processing order (diagnostic snapshot)."""
        entries = [*self._heap, *self._setup]
        if self._held is not None:
            entries.append(self._held)
        # live entries have distinct (fire_at, seq), so no event is compared
        return [entry[2] for entry in sorted(filter(_live, entries))]

    def postpone_pending(self, delta: int, vm: str | None = None) -> int:
        """Shift queued stallable events ``delta`` ns into the future: those
        of ``vm``, or every one when ``vm`` is None. Returns how many.

        Each shifted event gets a fresh heap entry and its old one goes
        stale. An event whose handler is running is not queued, so it is
        neither shifted nor counted. A ``delta`` of 0 changes nothing,
        since a fresh entry would equal the old one and both would be live
        (:meth:`pending` would list the event twice), but still counts the
        events it selects.
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
        heap = self._heap if self._depth else self._setup
        push = heapq.heappush
        for index in indexes:
            for event in index:
                at = event.fire_at
                if at is None:  # its handler is running
                    continue
                shifted += 1
                if delta:
                    event.fire_at = at = at + delta
                    push(heap, (at, event.seq, event))
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
