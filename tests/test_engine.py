import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.engine import (
    TRACE_WRITE_LINES,
    Engine,
    RandomStreams,
    SchedulingInPast,
    SimEvent,
    round_half_up,
)

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def test_first_event_id_is_zero_and_processes():
    eng = Engine(seed=1)
    event = eng.schedule(0, "X")
    assert event.seq == 0
    assert eng.run_until(10) == 1


def test_events_process_in_timestamp_order():
    eng = Engine(seed=1)
    order = []
    for t in (30, 10, 20):
        eng.schedule(t, "E", fn=lambda t=t: order.append(t))
    eng.run_until(100)
    assert order == [10, 20, 30]


def test_equal_timestamps_break_ties_by_insertion():
    eng = Engine(seed=1)
    order = []
    eng.schedule(10, "A", fn=lambda: order.append("a"))
    eng.schedule(10, "B", fn=lambda: order.append("b"))
    eng.run_until(10)
    assert order == ["a", "b"]


def test_scheduling_in_past_rejected():
    eng = Engine(seed=1)
    eng.schedule(5, "E")
    eng.run_until(5)
    with pytest.raises(SchedulingInPast):
        eng.schedule(4, "late")


def test_run_until_empty_queue_returns_zero():
    eng = Engine(seed=1)
    assert eng.run_until(100) == 0
    assert eng.now() == 100


def test_run_until_advances_clock_to_t_end():
    eng = Engine(seed=1)
    seen = []
    eng.schedule(50, "E", fn=lambda: seen.append(eng.now()))
    assert eng.run_until(100) == 1
    assert seen == [50]
    assert eng.now() == 100


def test_run_drains_skips_cancelled_and_stops_clock_at_last_fire():
    eng = Engine(seed=1)
    fired = []

    def note(name):
        return lambda: fired.append((name, eng.now()))

    # a handler that postpones events mid-loop, and one that schedules more
    eng.schedule(10, "A", fn=lambda: eng.postpone_pending(100, vm="v"))
    eng.schedule(20, "B", fn=note("b"), vm="v")
    eng.schedule(25, "C", fn=lambda: eng.schedule(eng.now() + 5, "D", fn=note("d")))
    eng.cancel(eng.schedule(500, "X", fn=note("x")))
    assert eng.run() == 4
    assert fired == [("d", 30), ("b", 120)]
    assert eng.now() == 120  # the cancelled event at 500 leaves the clock alone
    assert eng.pending() == []
    assert eng.processed_count == 4


def test_cancelled_events_do_not_fire():
    eng = Engine(seed=1)
    fired = []
    keep = eng.schedule(10, "A", fn=lambda: fired.append("a"))
    drop = eng.schedule(10, "B", fn=lambda: fired.append("b"))
    eng.cancel(drop)
    assert eng.run_until(20) == 1
    assert fired == ["a"]
    assert keep.seq == 0


def test_identical_seed_and_schedule_give_identical_traces():
    def build():
        eng = Engine(seed=42)
        for t, kind in ((5, "a"), (3, "b"), (5, "c")):
            eng.schedule(t, kind, detail=f"x={t}")
        eng.run_until(100)
        return eng.trace

    assert build() == build()


def test_rng_value_depends_only_on_seed_stream_index():
    a, b = Engine(seed=9), Engine(seed=9)
    # interleave stream access differently on the two engines
    seq_a = [a.rng.next("s1"), a.rng.next("s2"), a.rng.next("s1")]
    _ = b.rng.next("s2")
    seq_b = [b.rng.next("s1"), None, b.rng.next("s1")]
    assert seq_a[0] == seq_b[0]
    assert seq_a[2] == seq_b[2]
    assert Engine(seed=10).rng.next("s1") != a.rng.value_at("s1", 0)
    for v in seq_a:
        assert 0.0 <= v < 1.0


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.text(max_size=12), st.integers(0, 300), st.integers(0, 2000))
def test_bulk_values_equal_successive_next(seed, stream, prefix, n):
    bulk, scalar = RandomStreams(seed), RandomStreams(seed)
    for _ in range(prefix):
        bulk.next(stream)
        scalar.next(stream)
    got = bulk.values(stream, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tolist() == [scalar.next(stream) for _ in range(n)]


def test_bulk_values_of_zero_is_empty_and_keeps_the_index():
    rs = RandomStreams(5)
    assert rs.values("fresh", 0).shape == (0,)
    assert rs.next("fresh") == rs.value_at("fresh", 0)
    rs.values("fresh", 0)
    assert rs.next("fresh") == rs.value_at("fresh", 1)


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.lists(st.one_of(st.none(), st.integers(0, 300)), max_size=20))
def test_mixed_next_and_values_share_one_index(seed, ops):
    mixed, scalar = RandomStreams(seed), RandomStreams(seed)
    got = []
    for n in ops:  # None is one next() call
        if n is None:
            got.append(mixed.next("s"))
        else:
            got.extend(mixed.values("s", n).tolist())
    assert got == [scalar.next("s") for _ in got]
    assert mixed.next("s") == scalar.next("s")


def test_postpone_pending_shifts_matching_events():
    eng = Engine(seed=1)
    order = []
    eng.schedule(10, "A", fn=lambda: order.append(("a", eng.now())), vm="v1")
    eng.schedule(20, "B", fn=lambda: order.append(("b", eng.now())), vm="v2")
    eng.schedule(30, "C", fn=lambda: order.append(("c", eng.now())), vm="v1")
    eng.postpone_pending(100, vm="v1")
    eng.run_until(1_000)
    assert order == [("b", 20), ("a", 110), ("c", 130)]


@given(
    st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=50)
)
def test_processing_order_is_total_and_clock_monotone(times):
    eng = Engine(seed=0)
    log = []
    for t in times:
        eng.schedule(t, "E", fn=lambda: log.append(eng.now()))
    eng.run_until(2_000)
    assert log == sorted(times)
    assert log == sorted(log)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(7.0) == 7


def test_trace_line_format():
    eng = Engine(seed=1)
    eng.schedule(7, "TransferComplete", detail="vm=a;size=4096")
    eng.run_until(10)
    assert eng.trace == ["7,0,TransferComplete,vm=a;size=4096"]


@pytest.mark.parametrize("events", [0, 1, TRACE_WRITE_LINES, TRACE_WRITE_LINES + 1,
                                    2 * TRACE_WRITE_LINES + 1])
def test_write_trace_writes_each_line_once_in_order(events):
    # lines are held and written in chunks; the pinned stall.json trace
    # (5,891 lines) crosses one chunk boundary, and these add an empty trace,
    # an exact multiple of a chunk and two boundaries
    eng = Engine(seed=1)
    for t in range(events):
        eng.schedule(t, "Tick", detail=f"n={t}")
    eng.run()
    lines = [f"{t},{t},Tick,n={t}" for t in range(events)]
    assert eng.trace == lines
    fh = io.StringIO()
    eng.write_trace(fh)
    assert fh.getvalue() == "".join(line + "\n" for line in lines)
    # the trace is handed off once: the write releases it
    assert eng.trace == []
    again = io.StringIO()
    eng.write_trace(again)
    assert again.getvalue() == ""


def test_held_trace_costs_under_twice_its_text():
    # one str per line held 3.4x the bytes of its text
    events = 20_000
    eng = Engine(seed=1)
    for t in range(events):
        eng.schedule(t, "Tick", detail=f"n={t}")
    tracemalloc.start()
    try:
        eng.run()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = sum(len(f"{t},{t},Tick,n={t}\n") for t in range(events))
    assert held < 2 * text


def _tickers(eng: Engine) -> None:
    """Three self-rescheduling handlers, every 1, 2 and 3 ns."""
    def tick(period: int, n: int) -> None:
        eng.schedule(eng.now() + period, f"P{period}", fn=lambda: tick(period, n + 1),
                     detail=f"n={n}")

    for period in (1, 2, 3):
        eng.schedule(0, f"P{period}", fn=lambda period=period: tick(period, 1), detail="n=0")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 5_000), max_size=6))
def test_split_runs_write_the_same_bytes_as_one_run(splits):
    # 9,169 events to t=5,000: chunks close inside a call and between calls
    end = 5_000
    whole, split = Engine(seed=1), Engine(seed=1)
    _tickers(whole)
    _tickers(split)
    whole.run_until(end)
    for t in splits + [end]:
        split.run_until(t)
    assert whole.processed_count == split.processed_count > 2 * TRACE_WRITE_LINES
    expected, got = io.StringIO(), io.StringIO()
    whole.write_trace(expected)
    split.write_trace(got)
    assert got.getvalue() == expected.getvalue()


@pytest.mark.parametrize("postpones", [
    [dict(vm="v")],
    [dict()],
    [dict(), dict(vm="v")],
])
def test_cancelled_then_postponed_event_never_fires(postpones):
    eng = Engine(seed=1)
    fired = []
    eng.cancel(eng.schedule(10, "A", fn=lambda: fired.append("a"), vm="v"))
    for postpone in postpones:
        assert eng.postpone_pending(5, **postpone) == 0
    assert eng.pending() == []
    assert eng.run() == 0
    assert fired == []


def test_stale_entry_does_not_use_up_a_later_cancellation():
    eng = Engine(seed=1)
    fired = []
    event = eng.schedule(10, "A", fn=lambda: fired.append("a"), vm="v")
    assert eng.postpone_pending(5, vm="v") == 1  # leaves a stale entry at 10
    eng.cancel(event)
    assert eng.run() == 0
    assert fired == []


def test_vm_postpone_skips_other_vms_and_unstallable_events():
    eng = Engine(seed=1)
    eng.schedule(10, "A", vm="v")
    eng.schedule(10, "B", vm="w")
    eng.schedule(10, "C", vm="v", stallable=False)
    eng.schedule(10, "D")
    assert eng.postpone_pending(7, vm="v") == 1
    assert [(ev.fire_at, ev.kind) for ev in eng.pending()] == [
        (10, "B"), (10, "C"), (10, "D"), (17, "A")]


def test_full_postpone_shifts_every_stallable_event():
    eng = Engine(seed=1)
    eng.schedule(10, "A", vm="v")
    eng.schedule(10, "B")
    eng.schedule(10, "C", vm="v", stallable=False)
    eng.schedule(10, "D", stallable=False)
    assert eng.postpone_pending(0) == 2
    assert eng.postpone_pending(7) == 2
    assert [(ev.fire_at, ev.kind) for ev in eng.pending()] == [
        (10, "C"), (10, "D"), (17, "A"), (17, "B")]


def test_cancelling_a_fired_or_cancelled_event_is_a_no_op():
    eng = Engine(seed=1)
    fired = []
    done = eng.schedule(5, "A", vm="v")
    gone = eng.schedule(6, "B", vm="v")
    eng.cancel(gone)
    assert eng.run_until(6) == 1
    # a handler that cancels its own, already firing, event
    later = eng.schedule(10, "C", fn=lambda: (fired.append("c"), eng.cancel(later)), vm="v")
    for event in (done, gone, gone):
        eng.cancel(event)
    assert eng.pending() == [later]
    assert eng.postpone_pending(1, vm="v") == 1
    assert eng.run() == 1
    assert fired == ["c"]
    assert eng.now() == 11


def test_repeated_vm_postpones_compact_the_heap():
    eng = Engine(seed=1)
    for i in range(50):
        eng.schedule(100 + i, "A", vm="v")
        eng.schedule(100 + i, "B", vm="w")
    for _ in range(1_000):
        assert eng.postpone_pending(1, vm="v") == 50
        live = len(eng.pending())
        assert live == 100
        assert len(eng._heap) <= 2 * live + 1
    assert eng.run() == 100
    fired = [line.split(",") for line in eng.trace]
    assert [int(t) for t, _, kind, _ in fired if kind == "A"] == list(range(1_100, 1_150))
    assert len(eng._heap) == 0


class _Oracle:
    """The engine's contract as a plain list kept in (fire_at, seq) order on
    demand: cancelling removes the event, postponing edits its time."""

    def __init__(self):
        self._now = 0
        self._next_seq = 0
        self._live: list[SimEvent] = []
        self.trace: list[str] = []

    def now(self):
        return self._now

    def schedule(self, at, kind, fn=None, vm=None, stallable=True):
        assert at >= self._now
        seq = self._next_seq
        self._next_seq += 1
        event = SimEvent(at, seq, kind, "", fn, vm, stallable)
        self._live.append(event)
        return event

    def cancel(self, event):
        self._live = [ev for ev in self._live if ev is not event]

    def postpone_pending(self, delta, vm=None):
        chosen = [ev for ev in self._live if ev.stallable and vm in (None, ev.vm)]
        for ev in chosen:
            ev.fire_at += delta
        return len(chosen)

    def run_until(self, t_end):
        processed = 0
        while True:
            due = [ev for ev in self._live if ev.fire_at <= t_end]
            if not due:
                break
            ev = min(due, key=lambda e: (e.fire_at, e.seq))
            self._live.remove(ev)
            self._now = ev.fire_at
            self.trace.append(f"{ev.fire_at},{ev.seq},{ev.kind},")
            processed += 1
            if ev.fn is not None:
                ev.fn()
        self._now = max(self._now, t_end)
        return processed

    def pending(self):
        return sorted(self._live, key=lambda ev: (ev.fire_at, ev.seq))


VMS = ("a", "b", "c")
DELTAS = st.one_of(st.just(0), st.integers(1, 60))
# (delta, vm or None): one VM's stallable events, or every one
POSTPONES = st.tuples(st.just("postpone"), DELTAS, st.one_of(st.none(), st.sampled_from(VMS)))
NESTED = st.one_of(
    POSTPONES,
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
    st.tuples(st.just("schedule"), st.integers(0, 80), st.one_of(st.none(), st.sampled_from(VMS)),
              st.booleans(), st.none()),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 80), st.one_of(st.none(), st.sampled_from(VMS)),
                  st.booleans(), st.one_of(st.none(), NESTED)),
        POSTPONES,
        st.tuples(st.just("cancel"), st.integers(0, 1_000)),
        st.tuples(st.just("run"), st.integers(0, 60)),
    ),
    max_size=60,
)


def _replay(eng, ops) -> list:
    """Apply ``ops`` to ``eng``; returns every result, from handlers too."""
    results, events = [], []

    def apply(op):
        name = op[0]
        if name == "schedule":
            _, delay, vm, stallable, action = op
            fn = None if action is None else lambda: apply(action)
            event = eng.schedule(eng.now() + delay, f"k{len(events)}", fn=fn, vm=vm,
                                 stallable=stallable)
            events.append(event)
            results.append(("schedule", event.seq))
        elif name == "cancel":
            if events:
                eng.cancel(events[op[1] % len(events)])
        elif name == "postpone":
            results.append((name, eng.postpone_pending(op[1], vm=op[2])))
        else:
            results.append(("run", eng.run_until(eng.now() + op[1])))
        results.append([(ev.fire_at, ev.seq, ev.kind) for ev in eng.pending()])

    for op in ops:
        apply(op)
    results.append(("drain", eng.run_until(10**9)))
    return results


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_engine_matches_sorted_list_oracle(ops):
    eng, oracle = Engine(seed=0), _Oracle()
    assert _replay(eng, ops) == _replay(oracle, ops)
    assert eng.trace == oracle.trace
    assert eng.pending() == []
