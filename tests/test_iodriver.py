import io
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.bench import run_scenario
from neurovirt.engine import Engine
from neurovirt.iodriver import GIB, IoDriver, LinkModel, RingClosed, effective_throughput
from neurovirt.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

KIB = 1024
MIB = 1024 * 1024
GIB_BYTES = 1024 * MIB


def test_ring_capacity_one_backpressures_second_submit():
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=1))
    ring = drv.open_ring("a")
    assert drv.submit(ring, 4096) is not None
    assert drv.submit(ring, 4096) is None
    assert drv.backpressured == 1


def test_refused_submit_leaves_the_engine_untouched():
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=1))
    ring = drv.open_ring("a")
    drv.submit(ring, 4096)

    def queue():
        return [(ev.fire_at, ev.seq, ev.kind) for ev in eng.pending()]

    before = queue()
    assert drv.submit(ring, 4096) is None
    assert queue() == before
    # the refusal took no sequence number: the next event gets the one after
    # the accepted transfer's completion
    assert eng.schedule(0, "Probe").seq == before[-1][1] + 1 == 1


def test_a_refused_stream_keeps_one_retry_event():
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=1))
    ring = drv.open_ring("a")
    # every queueing of an event passes through reschedule, schedule's too
    with mock.patch.object(eng, "reschedule", wraps=eng.reschedule) as arm:
        drv.stream(ring, MIB, 2, 100_000)()  # holds the ring for ~10.4 ms
        drv.stream(ring, 4 * KIB, 3, 100_000)()  # refused until then
        eng.run()
    retries = [call.args[0] for call in arm.call_args_list
               if call.args[0].kind == "TransferRetry"]
    assert len(retries) == drv.backpressured > 100
    assert all(ev is retries[0] for ev in retries)
    assert drv.completions == 5


@pytest.mark.parametrize("size, count, retry_after", [
    (4 * KIB, 0, 100), (4 * KIB, -3, 100), (4 * KIB, 2, 0), (4 * KIB, 2, -1),
    (0, 2, 100), (-4, 2, 100),
], ids=["0-100", "-3-100", "2-0", "2--1", "size-0", "size--4"])
def test_stream_refuses_a_bad_count_or_retry_delay(size, count, retry_after):
    # a zero count still completed one transfer, a zero delay behind a full
    # ring re-armed its retry at one instant forever, and a bad size was
    # refused only when the first submit fired, mid-run
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=1))
    ring = drv.open_ring("a")
    with pytest.raises(ValueError, match="size, count and retry_after must be >= 1"):
        drv.stream(ring, size, count, retry_after)
    assert (eng.pending(), drv.submissions, drv.backpressured) == ([], 0, 0)


@pytest.mark.parametrize("make", [
    lambda drv, ring: drv.stream(ring, 4096.5, 2, 100_000),
    lambda drv, ring: drv.stream(ring, 4096, 2.5, 100_000),
    lambda drv, ring: drv.stream(ring, 4096, 2, 100_000.5),
    lambda drv, ring: drv.stream(ring, 4096.0, 2, 100_000),
    lambda drv, ring: drv.submit(ring, 4096.5),
], ids=["stream-size", "stream-count", "stream-retry", "stream-integral-float", "submit-size"])
def test_a_size_count_or_retry_delay_that_is_not_an_integer_is_refused(make):
    # a count of 2.5 made 3 transfers, a size of 4096.5 gave fractional
    # completed bits, and a retry delay of 100_000.5 raised only at the
    # stream's first refusal, mid-run
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=1))
    ring = drv.open_ring("a")
    with pytest.raises(TypeError):
        make(drv, ring)
    assert (eng.pending(), drv.submissions, drv.backpressured) == ([], 0, 0)


def _run_bytes(scenario):
    """(backpressured submits, metrics CSV, trace) of one run."""
    result = run_scenario(scenario)
    trace = io.StringIO()
    result.engine.write_trace(trace)
    return result.driver.backpressured, result.metrics_csv, trace.getvalue()


@pytest.mark.parametrize("name, streams", [("demo.json", 1), ("stall.json", 3),
                                           ("churn.json", 4)])
def test_a_ring_with_a_slot_per_stream_refuses_nothing(name, streams):
    # a stream has at most one transfer in flight, so a ring with as many
    # slots as its VM has streams is never full, and more slots change no byte
    runs = []
    for extra in (0, 1000):
        scenario = load_scenario(SCENARIOS / name)
        assert max(Counter(t.vm for t in scenario.transfers).values()) == streams
        link = scenario.link
        scenario.link = LinkModel(link.latency_ns, link.peak_gibps, streams + extra)
        runs.append(_run_bytes(scenario))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_single_vm_completion_time_matches_pipe_model():
    # 1 MiB at 1.5 Gib/s: 8 * 2^20 / (1.5 * 2^30) s = 8/1536 s ~= 5.2083 ms,
    # plus 10 us latency
    eng = Engine(0)
    drv = IoDriver(eng)
    ring = drv.open_ring("a")
    done = []
    drv.submit(ring, MIB, on_complete=lambda: done.append(eng.now()))
    eng.run()
    assert done == [10_000 + 5_208_333]


def test_sole_transfer_gets_full_peak():
    eng = Engine(0)
    drv = IoDriver(eng)
    ring = drv.open_ring("a")
    drv.submit(ring, 4096)
    eng.run()
    # duration = latency + bits/peak with share == full 1.5 Gib/s peak
    expected = 10_000 + round(4096 * 8 * 1e9 / (1.5 * GIB))
    assert eng.now() == expected


def test_concurrent_transfers_share_bandwidth():
    eng = Engine(0)
    drv = IoDriver(eng)
    rings = [drv.open_ring(f"vm{i}") for i in range(2)]
    finish = {}
    for i, ring in enumerate(rings):
        drv.submit(ring, MIB, on_complete=lambda i=i: finish.setdefault(i, eng.now()))
    eng.run()
    # first submit saw no competition, second saw two in flight at 2.9 peak
    assert finish[0] < finish[1]


def test_closed_ring_rejects():
    eng = Engine(0)
    drv = IoDriver(eng)
    ring = drv.open_ring("a")
    drv.submit(ring, 4096)
    drv.close_ring(ring)
    with pytest.raises(RingClosed):
        drv.submit(ring, 4096)
    assert drv.in_flight == 0
    eng.run()
    assert drv.completions == 0  # drained descriptors never complete


def test_effective_throughput_saturates_at_asymptote():
    link = LinkModel()
    t = effective_throughput(GIB_BYTES, 4, link)
    assert abs(t - 5.1) / 5.1 < 1e-4  # within 0.01% of the asymptote
    assert t < 5.1


def test_effective_throughput_small_transfer_latency_bound():
    link = LinkModel()
    t = effective_throughput(4 * KIB, 1, link)
    # 32768 bits over 10 us latency + 20.3 us stream time
    expected = 32768 / (10e-6 + 32768 / (1.5 * GIB)) / GIB
    assert t == pytest.approx(expected, rel=1e-12)


def test_effective_throughput_monotone_in_size():
    link = LinkModel()
    for vm_count in (1, 2, 4):
        last = 0.0
        for k in range(8, 31):
            t = effective_throughput(2**k, vm_count, link)
            assert t >= last
            last = t


def test_effective_throughput_monotone_in_vm_count():
    link = LinkModel()
    for k in (12, 20, 30):
        size = 2**k
        t1 = effective_throughput(size, 1, link)
        t2 = effective_throughput(size, 2, link)
        t4 = effective_throughput(size, 4, link)
        assert t1 <= t2 <= t4


def test_throughput_below_peak_for_all_finite_sizes():
    link = LinkModel()
    for vm_count in (1, 2, 4):
        peak = link.peak_bw(vm_count)
        for k in range(8, 34):
            assert effective_throughput(2**k, vm_count, link) < peak


def test_peak_table_lookup_and_domain():
    link = LinkModel()
    assert link.peak_bw(1) == 1.5
    assert link.peak_bw(3) == 2.9  # step lookup at the largest key <= n
    assert link.peak_bw(16) == 5.1
    with pytest.raises(ValueError):
        link.peak_bw(0)
    with pytest.raises(ValueError):
        LinkModel(peak_gibps=((1, 2.0), (2, 1.0)))  # decreasing table
    with pytest.raises(ValueError):
        LinkModel(ring_capacity=0)  # a stream would retry forever
    with pytest.raises(ValueError, match="start at 1 VM"):
        LinkModel(peak_gibps=((2, 2.9),))  # no peak for a lone VM
    with pytest.raises(ValueError, match="must ascend"):
        LinkModel(peak_gibps=((1, 1.5), (1, 2.0)))  # two peaks for one count


def test_ring_conservation_counters():
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=4))
    ring = drv.open_ring("a")
    submitted = 0
    for attempts, size in enumerate((4096, 8192, 4096, 8192, 4096, 4096), 1):
        if drv.submit(ring, size) is not None:
            submitted += 1
        # each refusal returned None and was counted once
        assert drv.backpressured == attempts - submitted
        assert drv.in_flight == len(ring.inflight) == submitted
    eng.run()
    assert drv.completions == submitted
    assert drv.in_flight == len(ring.inflight) == 0
    assert drv.backpressured == 2  # capacity 4, six submits


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 5), st.integers(1, 64 * KIB)),
        st.tuples(st.just("run"), st.integers(0, 200_000)),
        st.tuples(st.just("close"), st.integers(0, 5)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_active_vm_count_equals_recount(ops):
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=2))
    # six rings on three VMs, two each, so one VM's rings share its count
    rings = [drv.open_ring(f"vm{i % 3}") for i in range(6)]

    def recount():
        """(active VMs, transfers in flight), counted from the rings."""
        live = [r for r in rings if r.inflight]
        return len({r.vm for r in live}), sum(len(r.inflight) for r in live)

    for op in ops:
        if op[0] == "submit":
            try:
                drv.submit(rings[op[1]], op[2])
            except RingClosed:
                pass
        elif op[0] == "run":
            eng.run_until(eng.now() + op[1])
        else:
            drv.close_ring(rings[op[1]])
        assert (drv.active_vm_count(), drv.in_flight) == recount()
    eng.run()
    assert (drv.active_vm_count(), drv.in_flight) == recount() == (0, 0)
