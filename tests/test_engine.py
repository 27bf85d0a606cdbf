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
        eng = Engine(seed=42, trace=True)
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


def test_bulk_values_refuse_a_negative_count_and_keep_the_index():
    # a negative count used to rewind the stream, so later draws repeated
    rs = RandomStreams(5)
    rs.values("s", 3)
    with pytest.raises(ValueError, match="-2"):
        rs.values("s", -2)
    assert rs.next("s") == rs.value_at("s", 3)


@pytest.mark.parametrize("n", [2.5, 2.0])
def test_bulk_values_refuse_a_count_that_is_not_an_integer(n):
    # 2.5 used to return 3 draws and leave the float 2.5 as the stream's index
    rs = RandomStreams(5)
    rs.values("s", 1)
    with pytest.raises(TypeError):
        rs.values("s", n)
    assert rs.values("s", np.int64(2)).tolist() == [rs.value_at("s", i) for i in (1, 2)]
    assert rs.next("s") == rs.value_at("s", 3)


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


def test_a_negative_postpone_is_refused_and_shifts_nothing():
    eng = Engine(seed=1)
    event = eng.schedule(10, "A", vm="v1")
    with pytest.raises(ValueError, match="delta must be non-negative"):
        eng.postpone_pending(-1)
    assert (event.fire_at, eng.pending()) == (10, [event])


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
    eng = Engine(seed=1, trace=True)
    eng.schedule(7, "TransferComplete", detail="vm=a;size=4096")
    eng.run_until(10)
    assert eng.trace == ["7,0,TransferComplete,vm=a;size=4096"]


def test_an_engine_without_a_trace_refuses_to_hand_one_out():
    # an empty list or an empty file would pass for a run that did nothing
    eng = Engine(seed=1)
    eng.schedule(7, "TransferComplete", detail="vm=a;size=4096")
    assert eng.run() == 1
    with pytest.raises(ValueError, match="keeps no trace"):
        eng.trace
    fh = io.StringIO()
    with pytest.raises(ValueError, match="keeps no trace"):
        eng.write_trace(fh)
    assert fh.getvalue() == ""


@pytest.mark.parametrize("events", [0, 1, TRACE_WRITE_LINES, TRACE_WRITE_LINES + 1,
                                    2 * TRACE_WRITE_LINES + 1])
def test_write_trace_writes_each_line_once_in_order(events):
    # lines are held and written in chunks; the pinned stall.json trace
    # (5,891 lines) crosses one chunk boundary, and these add an empty trace,
    # an exact multiple of a chunk and two boundaries
    eng = Engine(seed=1, trace=True)
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
    eng = Engine(seed=1, trace=True)
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
    whole, split = Engine(seed=1, trace=True), Engine(seed=1, trace=True)
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


def test_repeated_vm_postpones_keep_order_and_leave_no_entry():
    eng = Engine(seed=1, trace=True)
    for i in range(50):
        eng.schedule(100 + i, "A", vm="v")
        eng.schedule(100 + i, "B", vm="w")
    for _ in range(1_000):
        assert eng.postpone_pending(1, vm="v") == 50
        assert len(eng.pending()) == 100
    assert eng.run() == 100
    fired = [line.split(",") for line in eng.trace]
    assert [int(t) for t, _, kind, _ in fired if kind == "A"] == list(range(1_100, 1_150))
    assert len(eng._heap) == 0


def test_cancelled_event_rearmed_at_its_old_time_fires_once():
    # its old entry matches the new fire time and differs only in seq, and
    # it is still in the heap when the loop reaches it
    eng = Engine(seed=1)
    fired = []
    for t in range(10):
        eng.schedule(10 + t, "O", vm="v")
    event = eng.schedule(15, "A", fn=lambda: fired.append(eng.now()), vm="v")
    eng.cancel(event)
    assert eng.reschedule(event, 15) is event
    assert event.seq == 11
    assert [ev.seq for ev in eng.pending()].count(11) == 1
    assert eng.run() == 11
    assert fired == [15]
    assert eng.pending() == []


def test_rearmed_event_fires_once_past_its_old_and_a_cancelled_entry():
    eng = Engine(seed=1)
    event = eng.schedule(10, "A")
    other = eng.schedule(20, "B")
    eng.cancel(event)
    eng.reschedule(event, 10)
    eng.cancel(other)  # two stale entries of three
    assert eng.run() == 1
    assert eng._heap == []


def test_rearmed_event_takes_the_next_seq_like_a_fresh_schedule():
    eng = Engine(seed=1, trace=True)
    event = eng.schedule(5, "A", detail="x=1", vm="v")
    eng.run_until(5)
    other = eng.schedule(7, "B")
    assert eng.reschedule(event, 7) is event
    assert (event.fire_at, event.seq, other.seq) == (7, 2, 1)
    eng.run()
    assert eng.trace == ["5,0,A,x=1", "7,1,B,", "7,2,A,x=1"]


def test_rescheduling_a_queued_event_is_refused():
    eng = Engine(seed=1)
    event = eng.schedule(5, "A")
    with pytest.raises(ValueError, match="still queued"):
        eng.reschedule(event, 6)
    assert eng.pending() == [event] and event.fire_at == 5


def test_rescheduling_into_the_past_is_refused():
    eng = Engine(seed=1)
    event = eng.schedule(5, "A")
    eng.run_until(10)
    with pytest.raises(SchedulingInPast):
        eng.reschedule(event, 9)
    assert event.fire_at is None and eng.pending() == []


def test_a_time_that_is_not_an_integer_is_refused():
    # each used to put a fractional tick on the clock or into the trace
    eng = Engine(seed=1, trace=True)
    with pytest.raises(TypeError):
        eng.run_until(2.5)
    assert eng.now() == 0
    with pytest.raises(TypeError):
        eng.schedule(3.25, "B")
    event = eng.schedule(5, "A", vm="v")
    with pytest.raises(TypeError):
        eng.postpone_pending(0.5)
    with pytest.raises(TypeError):
        eng.postpone_pending(1.0, vm="v")
    assert eng.pending() == [event] and event.fire_at == 5
    # numpy integers are integers
    eng.schedule(np.int64(7), "C")
    assert eng.postpone_pending(np.int64(1), vm="v") == 1
    eng.run_until(np.int64(10))
    assert eng.trace == ["6,0,A,", "7,1,C,"]
    assert type(eng.now()) is int


def test_a_counted_event_fires_its_repeats_without_its_handler():
    eng = Engine(seed=1, trace=True)
    calls = []
    event = eng.schedule(5, "A", fn=lambda: calls.append(eng.now()), detail="x=1", vm="v",
                         every=10, repeats=3)
    other = eng.schedule(25, "B")
    assert eng.run_until(24) == 2 and calls == []
    # each fire re-armed the one event under the next seq, and it stays indexed
    assert (event.fire_at, event.seq, event.repeats) == (25, 3, 1)
    assert eng.pending() == [other, event] and eng._by_vm["v"] == {event: None}
    assert eng.run() == 3 and calls == [35]
    assert eng.trace == ["5,0,A,x=1", "15,2,A,x=1", "25,1,B,", "25,3,A,x=1", "35,4,A,x=1"]
    assert eng.pending() == [] and eng._by_vm["v"] == {}


def test_a_counted_event_matches_a_handler_that_rearms_it():
    counted, rearmed = Engine(seed=1, trace=True), Engine(seed=1, trace=True)
    counted.schedule(0, "A", every=7, repeats=4, vm="v")
    left = [4]

    def step():
        if left[0]:
            left[0] -= 1
            rearmed.reschedule(event, rearmed.now() + 7)

    event = rearmed.schedule(0, "A", fn=step, vm="v")
    for eng in (counted, rearmed):
        eng.schedule(14, "B", vm="v")
        eng.run_until(10)
        assert eng.postpone_pending(3, vm="v") == 2
        eng.run()
    assert counted.trace == rearmed.trace
    assert counted.trace[-1] == "31,5,A,"


def test_a_cancelled_counted_event_keeps_its_countdown():
    eng = Engine(seed=1, trace=True)
    event = eng.schedule(0, "A", every=5, repeats=3)
    eng.run_until(5)
    eng.cancel(event)
    assert event.repeats == 1 and eng.run() == 0
    event.every = 2
    eng.reschedule(event, 20)
    assert eng.run() == 2
    assert eng.trace == ["0,0,A,", "5,1,A,", "20,3,A,", "22,4,A,"]


@pytest.mark.parametrize("bad", [dict(every=2.5, repeats=1), dict(every="3"), dict(every=None)],
                         ids=["float", "str", "none"])
def test_a_period_that_is_not_an_integer_is_refused(bad):
    eng = Engine(seed=1)
    with pytest.raises(TypeError):
        eng.schedule(5, "A", **bad)
    # the refusal took no seq
    assert eng.pending() == [] and eng.schedule(5, "B").seq == 0


@pytest.mark.parametrize("bad", [dict(every=1, repeats=1.0), dict(repeats="2"),
                                 dict(repeats=None)], ids=["float", "str", "none"])
def test_a_repeat_count_that_is_not_an_integer_is_refused(bad):
    eng = Engine(seed=1)
    with pytest.raises(TypeError):
        eng.schedule(5, "A", **bad)
    assert eng.pending() == [] and eng.schedule(5, "B").seq == 0


@pytest.mark.parametrize("bad", [dict(repeats=-1), dict(every=3, repeats=-2)])
def test_a_negative_repeat_count_is_refused(bad):
    eng = Engine(seed=1)
    with pytest.raises(ValueError, match="repeats -\\d+ must be >= 0"):
        eng.schedule(5, "A", **bad)
    assert eng.pending() == [] and eng.schedule(5, "B").seq == 0


@pytest.mark.parametrize("bad", [dict(repeats=1), dict(every=0, repeats=3),
                                 dict(every=-4, repeats=2)])
def test_repeats_at_a_period_below_one_are_refused(bad):
    # their fires would all fall at one instant
    eng = Engine(seed=1)
    with pytest.raises(ValueError, match="every -?\\d+ >= 1 when repeats > 0"):
        eng.schedule(5, "A", **bad)
    assert eng.pending() == [] and eng.schedule(5, "B").seq == 0
    # a plain event takes any period, and numpy integers are integers
    eng.schedule(6, "C", every=-4)
    eng.schedule(7, "D", every=np.int64(2), repeats=np.int64(1))
    assert eng.run() == 4


def test_rearmed_stallable_event_is_postponed_with_its_own_vm_only():
    eng = Engine(seed=1, trace=True)
    event = eng.schedule(5, "A", vm="v")
    eng.run_until(5)
    eng.reschedule(event, 10)
    assert eng.postpone_pending(3, vm="w") == 0
    assert eng.postpone_pending(3, vm="v") == 1
    assert event.fire_at == 13
    # moved to another VM while not queued, it follows that VM
    eng.cancel(event)
    event.vm = "w"
    eng.reschedule(event, 13)
    assert eng.postpone_pending(4, vm="v") == 0
    assert eng.postpone_pending(4, vm="w") == 1
    assert eng.run() == 1
    assert eng.trace[-1] == "17,2,A,"


# The tests below reach the entry that reschedule holds out of the heap
# until the loop's next pop: a handler's re-arm is the last entry queued.

def test_a_handler_that_rearms_its_event_then_raises_leaves_it_queued():
    eng = Engine(seed=1, trace=True)
    fired = []

    def tick():
        fired.append(eng.now())
        if len(fired) == 1:
            eng.reschedule(event, 15)
            raise RuntimeError("handler failed")

    event = eng.schedule(10, "T", fn=tick)
    with pytest.raises(RuntimeError, match="handler failed"):
        eng.run()
    assert eng.pending() == [event] and event.fire_at == 15
    eng.schedule(12, "O")
    assert eng.run() == 2
    assert fired == [10, 15]
    assert eng.trace == ["10,0,T,", "12,2,O,", "15,1,T,"]
    assert eng.pending() == []


def _rearming(eng: Engine, period: int, times: int) -> SimEvent:
    """An event at 0 whose handler re-arms it ``period`` ns on, ``times`` times."""
    def tick():
        if event.seq < times:
            eng.reschedule(event, eng.now() + period)

    event = eng.schedule(0, "T", fn=tick)
    return event


@pytest.mark.parametrize("first", [0, 25, 29, 30, 31])
def test_run_until_stops_before_a_held_entry_past_its_end(first):
    split, whole = Engine(seed=1, trace=True), Engine(seed=1, trace=True)
    event = _rearming(split, 10, 5)
    _rearming(whole, 10, 5)
    assert split.run_until(first) == first // 10 + 1
    assert split.now() == first
    assert split.pending() == [event] and event.fire_at == (first // 10 + 1) * 10
    assert split.run_until(100) + first // 10 + 1 == whole.run_until(100) == 6
    assert split.trace == whole.trace
    assert split.now() == whole.now() == 100


def test_pending_in_a_handler_lists_the_event_it_just_rearmed():
    eng = Engine(seed=1)
    seen = []

    def tick():
        eng.reschedule(event, eng.now() + 5)
        seen.append([(ev.kind, ev.fire_at, ev.seq) for ev in eng.pending()])

    event = eng.schedule(10, "T", fn=tick)
    eng.schedule(12, "O")
    assert eng.run_until(10) == 1
    assert seen == [[("O", 12, 1), ("T", 15, 2)]]
    assert [ev.kind for ev in eng.pending()] == ["O", "T"]


def test_a_rearmed_event_postponed_by_its_own_handler_fires_once_shifted():
    eng = Engine(seed=1, trace=True)
    fired = []

    def tick():
        fired.append(eng.now())
        if len(fired) == 1:
            eng.reschedule(event, eng.now() + 5)
            assert eng.pending() == [event, other]
            assert eng.postpone_pending(7, vm="v") == 1
            assert eng.pending() == [event, other]

    event = eng.schedule(10, "T", fn=tick, vm="v")
    other = eng.schedule(30, "O", vm="w")
    assert eng.run_until(21) == 1
    assert eng.pending() == [event, other] and event.fire_at == 22
    assert eng.run() == 2
    assert fired == [10, 22]
    assert eng.trace == ["10,0,T,", "22,2,T,", "30,1,O,"]


def test_run_until_nested_in_a_handler_matches_the_oracle():
    # A's handler re-arms A and, on A's first firing only, queues B and runs
    # the loop on to a time that stops it before A's next re-arm
    def replay(eng):
        log = []

        def tick():
            if event.seq < 8:
                eng.reschedule(event, eng.now() + 3)
            if not log:
                log.append(eng.schedule(eng.now() + 1, "B").seq)
                log.append(eng.run_until(eng.now() + 5))
                log.append((eng.now(), [(ev.fire_at, ev.seq, ev.kind) for ev in eng.pending()]))

        event = eng.schedule(10, "A", fn=tick)
        eng.schedule(14, "C")
        log.append(eng.run_until(18))
        log.append((eng.now(), [(ev.fire_at, ev.seq, ev.kind) for ev in eng.pending()]))
        eng.run_until(10**9)
        return log

    eng, oracle = Engine(seed=0, trace=True), _Oracle()
    expected = replay(oracle)
    # the inner call processed B@11, A@13 and C@14; the outer call's count
    # also takes those in, beside its own A@10 and A@16
    assert expected == [3, 3, (15, [(16, 4, "A")]), 5, (18, [(19, 5, "A")])]
    assert replay(eng) == expected
    assert eng.trace == oracle.trace
    assert eng.pending() == []


# The tests below reach the VM index, which holds a stallable event from
# when it is queued until it stops being live, its handler's run included.

def test_a_rearm_from_its_handler_leaves_the_event_where_its_index_holds_it():
    eng = Engine(seed=1)

    def tick():
        if eng.now() < 30:
            eng.reschedule(event, eng.now() + 10)

    event = eng.schedule(0, "T", fn=tick, vm="v")
    other = eng.schedule(100, "O", vm="v")
    index = eng._by_vm["v"]
    assert list(index) == [event, other] and event.index is index
    assert eng.run_until(20) == 3
    # re-armed under seqs 2 to 4, all after O's 1, it keeps its first place
    assert event.seq == 4 and list(index) == [event, other] and event.index is index
    assert eng.run() == 2
    assert list(index) == [] and event.index is None and other.index is None


def test_a_handler_that_stalls_its_own_vm_neither_shifts_nor_counts_its_event():
    eng = Engine(seed=1, trace=True)
    counts = []

    def stall():
        assert event.index is eng._by_vm["v"] and event.fire_at is None
        counts.append(eng.postpone_pending(5, vm="v"))
        counts.append(eng.postpone_pending(0))

    event = eng.schedule(10, "S", fn=stall, vm="v")
    eng.schedule(12, "O", vm="v")
    eng.schedule(12, "W", vm="w")
    assert eng.run() == 3
    assert counts == [1, 2]
    assert eng.trace == ["10,0,S,", "12,2,W,", "17,1,O,"]
    assert event.index is None and not any(eng._by_vm.values())


def test_a_handler_that_moves_its_event_indexes_it_under_the_new_vm_only():
    eng = Engine(seed=1, trace=True)

    def move():
        if event.vm == "v":
            eng.cancel(event)
            assert event.index is None and list(eng._by_vm["v"]) == [other]
            event.vm = "w"
            eng.reschedule(event, 20)

    event = eng.schedule(10, "M", fn=move, vm="v")
    other = eng.schedule(30, "O", vm="v")
    assert eng.run_until(10) == 1
    assert event.index is eng._by_vm["w"] and list(eng._by_vm["v"]) == [other]
    assert eng.postpone_pending(7, vm="v") == 1
    assert eng.postpone_pending(3, vm="w") == 1
    assert eng.run() == 2
    assert eng.trace == ["10,0,M,", "23,2,M,", "37,1,O,"]


@pytest.mark.parametrize("rearm", [False, True])
def test_a_handler_that_raises_leaves_its_event_indexed_only_if_queued(rearm):
    eng = Engine(seed=1, trace=True)

    def fail():
        if rearm:
            eng.reschedule(event, 15)
        raise RuntimeError("handler failed")

    event = eng.schedule(10, "F", fn=fail, vm="v")
    with pytest.raises(RuntimeError, match="handler failed"):
        eng.run_until(10)
    if rearm:
        assert event.index is eng._by_vm["v"] and list(event.index) == [event]
    else:
        assert event.index is None and list(eng._by_vm["v"]) == []
        # queued again, it is indexed again
        eng.reschedule(event, 15)
    event.fn = None
    assert eng.postpone_pending(2, vm="v") == 1
    assert eng.run() == 1
    assert eng.trace == ["10,0,F,", "17,1,F,"]
    assert event.index is None and list(eng._by_vm["v"]) == []


# The tests below reach the set-up heap: entries queued while no loop runs
# wait there, apart from the run heap that a loop's handlers fill.

def test_pending_lists_set_up_entries_beside_held_and_run_heap_ones():
    eng = Engine(seed=1)
    rearmed = []
    eng.schedule(10, "T", fn=lambda: rearmed.append(eng.schedule(30, "R")))
    early = eng.schedule(25, "S")
    assert eng.run_until(10) == 1
    late = eng.schedule(40, "L")
    postponed = eng.schedule(20, "P", vm="v")
    assert eng.postpone_pending(30, vm="v") == 1
    # R waits in the held slot; S, L and both of P's entries in the set-up heap
    assert eng._held == (30, 2, rearmed[0]) and eng._heap == []
    assert len(eng._setup) == 4
    assert eng.pending() == [early, rearmed[0], late, postponed]
    eng.cancel(late)
    assert eng.pending() == [early, rearmed[0], postponed]
    assert eng.run() == 3 and eng.now() == 50


def test_run_until_nested_in_a_handler_takes_set_up_entries_from_the_outer_loop():
    # set-up entries at 5, 10, 20, 35 and 60. The handler at 5 queues X and
    # X2 on the run side, then runs the loop on to 30: it takes B, X and C,
    # and stops before D at 35 with X2 at 45 held back. Then it queues Y at
    # 33, before D, which the outer loop last saw as the set-up heap's top
    # at 10; the outer loop must still take Y, D and X2 in that order
    def replay(eng):
        log = []

        def nest():
            eng.schedule(12, "X")
            eng.schedule(45, "X2")
            log.append(eng.run_until(30))
            log.append([(ev.fire_at, ev.kind) for ev in eng.pending()])
            eng.schedule(33, "Y")

        eng.schedule(5, "A", fn=nest)
        for at, kind in ((10, "B"), (20, "C"), (35, "D"), (60, "E")):
            eng.schedule(at, kind)
        log.append(eng.run_until(50))
        log.append((eng.now(), [(ev.fire_at, ev.kind) for ev in eng.pending()]))
        return log

    eng, oracle = Engine(seed=0, trace=True), _Oracle()
    expected = replay(oracle)
    assert expected == [3, [(35, "D"), (45, "X2"), (60, "E")], 7, (50, [(60, "E")])]
    assert replay(eng) == expected
    assert [line.split(",")[2] for line in eng.trace] == ["A", "B", "X", "C", "Y", "D", "X2"]
    assert eng.trace == oracle.trace


def test_a_handler_queues_on_the_run_side_after_a_nested_run_until_returns():
    # the outer loop still runs after the nested one ends, so X is a
    # handler's entry: were it put in the set-up heap, whose top the outer
    # loop last saw at 100, the loop would fire R at 50 before it
    eng = Engine(seed=1, trace=True)

    def nest():
        eng.schedule(50, "R")
        assert eng.run_until(6) == 0
        eng.schedule(7, "X")

    eng.schedule(5, "A", fn=nest)
    eng.schedule(100, "E")
    assert eng.run() == 4
    assert eng.trace == ["5,0,A,", "7,3,X,", "50,2,R,", "100,1,E,"]


def test_equal_times_across_the_two_heaps_go_by_seq():
    # R is queued by a handler, so it waits on the run side; S1 was queued
    # before it and S3 after it, both while no loop ran
    eng = Engine(seed=1, trace=True)
    eng.schedule(5, "A", fn=lambda: eng.schedule(20, "R"))
    eng.schedule(20, "S1")
    assert eng.run_until(10) == 1
    eng.schedule(20, "S3")
    assert eng.run() == 3
    assert eng.trace == ["5,0,A,", "20,1,S1,", "20,2,R,", "20,3,S3,"]


def test_a_handler_that_raises_leaves_later_set_up_entries_in_the_set_up_heap():
    eng = Engine(seed=1, trace=True)

    def fail():
        raise RuntimeError("handler failed")

    eng.schedule(10, "F", fn=fail)
    with pytest.raises(RuntimeError, match="handler failed"):
        eng.run()
    # the loop is gone, so this is set-up work again, not a handler's
    later = eng.schedule(20, "S")
    assert eng._setup == [(20, 1, later)]
    assert eng._heap == [] and eng._held is None
    assert eng.run() == 1
    assert eng.trace == ["10,0,F,", "20,1,S,"]


class _Oracle:
    """The engine's contract as a plain list kept in (fire_at, seq) order on
    demand: cancelling removes the event, postponing edits its time, and
    rescheduling removes it, then appends it under the next seq. A counted
    fire reschedules its event ``every`` ns later instead of running it."""

    def __init__(self):
        self._now = 0
        self._next_seq = 0
        self._processed = 0
        self._live: list[SimEvent] = []
        self.trace: list[str] = []

    def now(self):
        return self._now

    def schedule(self, at, kind, fn=None, vm=None, stallable=True, *, every=0, repeats=0):
        assert at >= self._now
        seq = self._next_seq
        self._next_seq += 1
        event = SimEvent(at, seq, kind, "", fn, vm, stallable, every, repeats)
        self._live.append(event)
        return event

    def reschedule(self, event, at):
        assert at >= self._now
        if any(ev is event for ev in self._live):
            raise ValueError("still queued")
        self.cancel(event)
        event.fire_at, event.seq = at, self._next_seq
        self._next_seq += 1
        self._live.append(event)
        return event

    def cancel(self, event):
        self._live = [ev for ev in self._live if ev is not event]
        event.fire_at = None

    def postpone_pending(self, delta, vm=None):
        chosen = [ev for ev in self._live if ev.stallable and vm in (None, ev.vm)]
        for ev in chosen:
            ev.fire_at += delta
        return len(chosen)

    def run_until(self, t_end):
        # the count includes the events of a run_until nested in a handler
        start = self._processed
        while True:
            due = [ev for ev in self._live if ev.fire_at <= t_end]
            if not due:
                break
            ev = min(due, key=lambda e: (e.fire_at, e.seq))
            self._live.remove(ev)
            self._now = ev.fire_at
            self.trace.append(f"{ev.fire_at},{ev.seq},{ev.kind},")
            ev.fire_at = None
            self._processed += 1
            if ev.repeats:
                ev.repeats -= 1
                self.reschedule(ev, ev.every + self._now)
            elif ev.fn is not None:
                ev.fn()
        self._now = max(self._now, t_end)
        return self._processed - start

    def pending(self):
        return sorted(self._live, key=lambda ev: (ev.fire_at, ev.seq))


VMS = ("a", "b", "c")
DELTAS = st.one_of(st.just(0), st.integers(1, 60))
# (delta, vm or None): one VM's stallable events, or every one
POSTPONES = st.tuples(st.just("postpone"), DELTAS, st.one_of(st.none(), st.sampled_from(VMS)))
# (event index, delay): re-arm that event, which is refused while it is
# queued; a delay of None re-arms it at the time it was last queued for,
# where a cancelled event's old heap entry may still sit, unless that time
# is past
RESCHEDULES = st.tuples(st.just("reschedule"), st.integers(0, 1_000),
                        st.one_of(st.none(), st.integers(0, 80)))
# (delay,): a handler re-arms its own event, so the loop's next pop meets
# the entry it holds back from the heap
REARM_SELF = st.tuples(st.just("rearm-self"), st.integers(0, 80))
# a handler acts on its own VM's index, which holds its event while it
# runs: (delta,) stalls its own VM (every VM when untagged), (delay, delta)
# re-arms its event and then stalls, and (vm, delay) cancels its event,
# moves it to another VM and queues it again, as SpikingExecutor.move does
STALL_OWN = st.tuples(st.just("stall-own"), DELTAS)
REARM_STALL = st.tuples(st.just("rearm-stall"), st.integers(0, 80), DELTAS)
VM_TAGS = st.one_of(st.none(), st.sampled_from(VMS))
MOVE_SELF = st.tuples(st.just("move-self"), VM_TAGS, st.integers(0, 80))
# ("schedule", delay, ...) queues at now + delay; ("schedule-on-grid", k,
# ...) at the k-th multiple of GRID at or after now, so that entries queued
# between runs (the set-up heap) and from handlers (the run heap) often
# share a fire time and differ only in seq
GRID = 10
SCHEDULES = st.one_of(st.tuples(st.just("schedule"), st.integers(0, 80)),
                      st.tuples(st.just("schedule-on-grid"), st.integers(0, 6)))
# (every, repeats) of a schedule, last in its op: a plain event, or one that
# fires repeats more times every ns apart, running its handler only at the
# last; a period on the grid often meets other entries at one time
COUNTS = st.one_of(st.just((0, 0)),
                   st.tuples(st.one_of(st.integers(1, 30), st.just(GRID)), st.integers(0, 4)))
# ("schedule-past-run", k, ...), from a handler only: at the k-th multiple
# of GRID after the end of the innermost run_until in progress, so the entry
# waits on the run side past that run, where a set-up schedule on the grid
# often meets it later at the same time under a larger seq
PAST_RUN = st.builds(
    lambda k, vm, stallable, count: ("schedule-past-run", k, vm, stallable, None) + count,
    st.integers(0, 6), VM_TAGS, st.booleans(), COUNTS)
# ("run", delay): run_until(now + delay), between runs or nested in a
# handler, where it takes set-up entries from under the outer loop
RUNS = st.tuples(st.just("run"), st.integers(0, 60))
NESTED = st.one_of(
    REARM_SELF,
    STALL_OWN,
    REARM_STALL,
    MOVE_SELF,
    POSTPONES,
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
    RESCHEDULES,
    st.builds(lambda s, vm, stallable, count: s + (vm, stallable, None) + count, SCHEDULES,
              VM_TAGS, st.booleans(), COUNTS),
    RUNS,
)
OPS = st.lists(
    st.one_of(
        st.builds(lambda s, vm, stallable, action, count: s + (vm, stallable, action) + count,
                  SCHEDULES, VM_TAGS, st.booleans(), st.one_of(st.none(), NESTED, PAST_RUN),
                  COUNTS),
        # a handler that leaves an entry past its run's end
        st.builds(lambda s, vm, stallable, action, count: s + (vm, stallable, action) + count,
                  SCHEDULES, VM_TAGS, st.booleans(), PAST_RUN, COUNTS),
        POSTPONES,
        st.tuples(st.just("cancel"), st.integers(0, 1_000)),
        RESCHEDULES,
        RUNS,
    ),
    max_size=60,
)
# successful re-arms per replay: a handler that re-arms its own event would
# otherwise keep the drain going forever
REARMS = 20


def _check_index(eng: Engine, events: list, held: list) -> None:
    """The VM index holds exactly the queued stallable events and those
    whose handler is running and has not cancelled them, each under its
    own VM; ``held[i]`` says whether a handler of ``events[i]`` runs and
    has not cancelled it since it began."""
    indexed = set()
    for vm, index in eng._by_vm.items():
        for event in index:
            assert event.vm == vm and event.index is index
        indexed.update(index)
    assert indexed == {event for event, running in zip(events, held)
                       if event.stallable and (event.fire_at is not None or running)}
    assert all(event.index is None for event in events if event not in indexed)


def _replay(eng, ops) -> list:
    """Apply ``ops`` to ``eng``; returns every result, from handlers too.
    On an Engine it also checks the VM index as each handler starts and
    after each op."""
    results, events = [], []
    armed_at = []  # per event: the time it was last queued for
    held = []  # per event: whether its handler runs and has not cancelled it
    rearms = 0
    retired = 0  # cancels of queued events plus events shifted by a non-zero delta
    ends = []  # the end of each run_until in progress, innermost last
    engine = isinstance(eng, Engine)

    def handle(action, i):
        held[i] = True
        if engine:  # the index as every event before this one left it
            _check_index(eng, events, held)
        apply(action, i)
        # the loop takes the event out of its index unless it is queued
        held[i] = False

    def apply(op, running=None):
        nonlocal rearms, retired
        name = op[0]
        if name in ("schedule", "schedule-on-grid", "schedule-past-run"):
            _, delay, vm, stallable, action, every, repeats = op
            i = len(events)
            fn = None if action is None else lambda: handle(action, i)
            if name == "schedule":
                at = eng.now() + delay
            elif name == "schedule-on-grid":
                at = (-(-eng.now() // GRID) + delay) * GRID
            else:  # the final drain has no end to wait past: the grid after now
                at = ((ends[-1] if ends else eng.now()) // GRID + 1 + delay) * GRID
            event = eng.schedule(at, f"k{len(events)}", fn=fn, vm=vm, stallable=stallable,
                                 every=every, repeats=repeats)
            events.append(event)
            armed_at.append(event.fire_at)
            held.append(False)
            results.append(("schedule", event.seq))
        elif name == "cancel":
            if events:
                i = op[1] % len(events)
                retired += events[i].fire_at is not None
                eng.cancel(events[i])
                held[i] = False
        elif name == "reschedule":
            if events and rearms < REARMS:
                i = op[1] % len(events)
                event = events[i]
                at = max(eng.now(), armed_at[i]) if op[2] is None else eng.now() + op[2]
                try:
                    eng.reschedule(event, at)
                    armed_at[i] = at
                    rearms += 1
                    results.append((name, event.seq))
                except ValueError:  # still queued
                    results.append((name, None))
        elif name == "rearm-self":
            if rearms < REARMS:  # a running event has fired, so it is never refused
                at = armed_at[running] = eng.now() + op[1]
                eng.reschedule(events[running], at)
                rearms += 1
                results.append((name, events[running].seq))
        elif name == "rearm-stall":
            apply(("rearm-self", op[1]), running)
            apply(("stall-own", op[2]), running)
        elif name == "move-self":
            if rearms < REARMS:
                event = events[running]
                retired += event.fire_at is not None
                eng.cancel(event)
                held[running] = False
                event.vm = op[1]
                at = armed_at[running] = eng.now() + op[2]
                eng.reschedule(event, at)
                rearms += 1
                results.append((name, event.seq))
        elif name in ("postpone", "stall-own"):
            vm = op[2] if name == "postpone" else events[running].vm
            shifted = eng.postpone_pending(op[1], vm=vm)
            retired += shifted if op[1] else 0
            results.append((name, shifted))
        else:
            ends.append(eng.now() + op[1])
            results.append(("run", eng.run_until(ends[-1])))
            ends.pop()
        results.append([(ev.fire_at, ev.seq, ev.kind, ev.repeats) for ev in eng.pending()])
        if engine:  # each stale queued entry is one retired entry
            queued = len(eng._heap) + len(eng._setup) + (eng._held is not None)
            assert queued - len(results[-1]) <= retired
            _check_index(eng, events, held)

    for op in ops:
        apply(op)
    results.append(("drain", eng.run_until(10**9)))
    if engine:
        _check_index(eng, events, held)
    return results


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_engine_matches_sorted_list_oracle(ops):
    eng, bare, oracle = Engine(seed=0, trace=True), Engine(seed=0), _Oracle()
    expected = _replay(oracle, ops)
    assert _replay(eng, ops) == expected
    assert eng.trace == oracle.trace
    assert eng.pending() == []
    # an engine without a trace gives every other result alike
    assert _replay(bare, ops) == expected
    assert (bare.processed_count, bare.now(), bare.pending()) == (
        eng.processed_count, eng.now(), [])


# every handler acts on its own event or VM, and every event is stallable
OWN_ACTIONS = st.one_of(REARM_SELF, STALL_OWN, REARM_STALL, MOVE_SELF)
STALL_OPS = st.lists(
    st.one_of(
        st.builds(lambda s, vm, action, count: s + (vm, True, action) + count, SCHEDULES,
                  VM_TAGS, st.one_of(OWN_ACTIONS, RUNS), COUNTS),
        POSTPONES,
        st.tuples(st.just("cancel"), st.integers(0, 1_000)),
        RESCHEDULES,
        RUNS,
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(STALL_OPS)
def test_the_vm_index_holds_the_queued_stallable_events_and_the_running_ones(ops):
    # _replay checks the index as each handler starts and after each op
    eng, oracle = Engine(seed=0, trace=True), _Oracle()
    expected = _replay(oracle, ops)
    assert _replay(eng, ops) == expected
    assert eng.trace == oracle.trace
    assert not any(eng._by_vm.values())
