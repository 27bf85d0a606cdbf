import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.engine import Engine, RandomStreams, SchedulingInPast, round_half_up

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def test_first_event_id_is_zero_and_processes():
    eng = Engine(seed=1)
    event_id = eng.schedule(0, "X")
    assert event_id == 0
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
    eng.schedule(10, "A", fn=lambda: eng.postpone_pending(100, lambda ev: ev.vm == "v"))
    eng.schedule(20, "B", fn=note("b"), vm="v")
    eng.schedule(25, "C", fn=lambda: eng.schedule_in(5, "D", fn=note("d")))
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
    assert keep == 0


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
    eng.postpone_pending(100, lambda ev: ev.vm == "v1")
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
