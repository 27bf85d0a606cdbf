"""Deterministic discrete-event core.

One :class:`Engine` owns one simulation: an integer-nanosecond virtual
clock, a totally ordered event queue, and a family of seeded random
streams. Events with equal fire times are processed in insertion order,
so a run is a pure function of (seed, schedule calls).

The queue is a binary heap of ``(fire_at, seq, event)`` entries plus an
index of every queued stallable, VM-tagged event by VM. Postponing one
VM's events walks only its index: each live event's ``fire_at`` moves and
a fresh entry is pushed, leaving the old one in the heap as a *stale*
entry, recognisable because its time no longer equals ``event.fire_at``.
The loop skips stale entries before it looks at cancellations, so a
stale entry never uses up a cancellation. A zero-length postpone is a
no-op, since its fresh entry would equal the old one and fire the event
twice. Once stale entries make up more than half of the heap, the heap is
compacted: stale and cancelled entries are dropped and re-heapified. A
postpone selected by a predicate (a full reconfiguration) does the same
rebuild over every live event.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

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
        wrapping ``uint64`` arithmetic."""
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


@dataclass
class SimEvent:
    """A queued simulation event.

    ``(fire_at, seq)`` is unique per run and defines the total processing
    order. ``vm`` tags events that belong to one virtual machine so
    reconfiguration stalls can postpone exactly that machine's progress;
    a stallable tagged event is indexed under its VM while it is queued.
    """

    fire_at: int
    seq: int
    kind: str
    detail: str = ""
    fn: Callable[[], None] | None = None
    vm: str | None = None
    stallable: bool = True


class Engine:
    """Single-threaded event loop over integer-nanosecond virtual time."""

    def __init__(self, seed: int = 0):
        self._now = 0
        self._next_seq = 0
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._cancelled: set[int] = set()
        # queued stallable events of each VM, seq -> event
        self._by_vm: dict[str, dict[int, SimEvent]] = {}
        self._stale = 0  # heap entries left behind by per-VM postpones
        self._processed = 0
        self.rng = RandomStreams(seed)
        self.trace: list[str] = []

    def now(self) -> int:
        return self._now

    @property
    def processed_count(self) -> int:
        return self._processed

    def schedule(
        self,
        at: int,
        kind: str,
        fn: Callable[[], None] | None = None,
        detail: str = "",
        vm: str | None = None,
        stallable: bool = True,
    ) -> int:
        """Queue an event at absolute time ``at``; returns a stable event id."""
        if at < self._now:
            raise SchedulingInPast(f"schedule at {at} < now {self._now}")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = SimEvent(at, seq, kind, detail, fn, vm, stallable)
        heapq.heappush(self._heap, (at, seq, event))
        if vm is not None and stallable:
            self._by_vm.setdefault(vm, {})[seq] = event
        return seq

    def schedule_in(self, delay: int, kind: str, **kwargs) -> int:
        return self.schedule(self._now + delay, kind, **kwargs)

    def cancel(self, event_id: int) -> None:
        self._cancelled.add(event_id)

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_at <= t_end; clock ends at t_end."""
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
        # heap, the cancelled set, the index and the trace in place
        heap, cancelled, log = self._heap, self._cancelled, self.trace.append
        by_vm = self._by_vm
        pop = heapq.heappop
        start = self._processed
        while heap and heap[0][0] <= t_end:
            fire_at, seq, event = pop(heap)
            if fire_at != event.fire_at:  # stale: a later entry holds the event
                self._stale -= 1
                continue
            if event.vm is not None and event.stallable:
                del by_vm[event.vm][seq]
            if seq in cancelled:
                cancelled.discard(seq)
                continue
            self._now = fire_at
            log(f"{fire_at},{seq},{event.kind},{event.detail}")
            self._processed += 1
            if event.fn is not None:
                event.fn()
        return self._processed - start

    def pending(self) -> list[SimEvent]:
        """Live queued events in processing order (diagnostic snapshot)."""
        cancelled = self._cancelled
        live = [ev for t, s, ev in self._heap if t == ev.fire_at and s not in cancelled]
        return sorted(live, key=lambda ev: (ev.fire_at, ev.seq))

    def postpone_pending(
        self,
        delta: int,
        match: Callable[[SimEvent], bool] | None = None,
        vm: str | None = None,
    ) -> int:
        """Shift pending events ``delta`` ns into the future; returns how many.

        With ``vm``, the events shifted are that VM's stallable ones, found
        through the per-VM index: each gets a fresh heap entry and its old
        one goes stale (the loop and :meth:`pending` skip it, the loop
        before it checks cancellation), and the heap is compacted once stale
        entries are more than half of it. Otherwise every live event that
        ``match`` accepts (all of them when ``match`` is None) shifts in one
        rebuild of the heap, which also drops every stale and cancelled
        entry. A ``delta`` of 0 changes nothing, since a fresh entry would
        equal the old one and fire the event twice, but still counts the
        events it selects.

        Relative order among shifted events is preserved because they all
        move by the same amount and keep their sequence numbers. Used to
        model reconfiguration stalls.
        """
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if vm is None:
            return self._rebuild(delta, match)
        if match is not None:
            raise ValueError("pass match or vm, not both")
        cancelled = self._cancelled
        live = [ev for seq, ev in self._by_vm.get(vm, {}).items() if seq not in cancelled]
        if delta:
            heap, push = self._heap, heapq.heappush
            for event in live:
                event.fire_at += delta
                push(heap, (event.fire_at, event.seq, event))
            self._stale += len(live)
            if 2 * self._stale > len(heap):
                self._rebuild(0)
        return len(live)

    def _rebuild(self, delta: int, match: Callable[[SimEvent], bool] | None = None) -> int:
        """Re-heapify the live entries, shifting those ``match`` accepts (all
        when it is None) by ``delta``; stale and cancelled entries are
        dropped, cancelled events leave the index, and the cancelled set
        empties. Returns the number of events shifted."""
        cancelled, by_vm = self._cancelled, self._by_vm
        shifted = 0
        rebuilt: list[tuple[int, int, SimEvent]] = []
        for entry in self._heap:
            fire_at, seq, event = entry
            if fire_at != event.fire_at:
                continue
            if seq in cancelled:
                if event.vm is not None and event.stallable:
                    del by_vm[event.vm][seq]
                continue
            if match is None or match(event):
                event.fire_at = fire_at + delta
                entry = (event.fire_at, seq, event)
                shifted += 1
            rebuilt.append(entry)
        cancelled.clear()
        heapq.heapify(rebuilt)
        self._heap[:] = rebuilt  # in place: a running loop holds this list
        self._stale = 0
        return shifted

    def write_trace(self, fh) -> None:
        """Dump the processed-event log, one ``tick,seq,kind,detail`` line each."""
        for line in self.trace:
            fh.write(line + "\n")
