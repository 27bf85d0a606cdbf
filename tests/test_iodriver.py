import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.engine import Engine
from neurovirt.iodriver import (
    GIB,
    Backpressure,
    Direction,
    IoDriver,
    LinkModel,
    RingClosed,
    UnknownRing,
    effective_throughput,
)

KIB = 1024
MIB = 1024 * 1024
GIB_BYTES = 1024 * MIB


def test_ring_capacity_one_backpressures_second_submit():
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=1))
    ring = drv.open_ring("a")
    drv.submit(ring, 4096)
    with pytest.raises(Backpressure):
        drv.submit(ring, 4096)
    assert drv.backpressured == 1


def test_single_vm_completion_time_matches_pipe_model():
    # 1 MiB at 1.5 Gib/s: 8 * 2^20 / (1.5 * 2^30) s = 8/1536 s ~= 5.2083 ms,
    # plus 10 us latency
    eng = Engine(0)
    drv = IoDriver(eng)
    ring = drv.open_ring("a")
    done = []
    drv.submit(ring, MIB, on_complete=lambda d: done.append(eng.now()))
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
        drv.submit(ring, MIB, on_complete=lambda d, i=i: finish.setdefault(i, eng.now()))
    eng.run()
    # first submit saw no competition, second saw two in flight at 2.9 peak
    assert finish[0] < finish[1]


def test_closed_ring_rejects_and_unknown_ring_errors():
    eng = Engine(0)
    drv = IoDriver(eng)
    ring = drv.open_ring("a")
    drv.submit(ring, 4096)
    drv.close_ring(ring)
    with pytest.raises(RingClosed):
        drv.submit(ring, 4096)
    with pytest.raises(UnknownRing):
        drv.submit(99, 4096)
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


def test_ring_conservation_counters():
    eng = Engine(0)
    drv = IoDriver(eng, LinkModel(ring_capacity=4))
    ring = drv.open_ring("a")
    submitted = 0
    for size in (4096, 8192, 4096, 8192, 4096, 4096):
        try:
            drv.submit(ring, size)
            submitted += 1
        except Backpressure:
            pass
        assert drv.in_flight == len(drv.rings[ring].inflight) == submitted
    eng.run()
    assert drv.completions == submitted
    assert drv.in_flight == len(drv.rings[ring].inflight) == 0
    assert drv.backpressured == 2  # capacity 4, six submits


def test_direction_recorded():
    eng = Engine(0)
    drv = IoDriver(eng)
    ring = drv.open_ring("a")
    seen = []
    drv.submit(ring, 4096, direction=Direction.IN, on_complete=lambda d: seen.append(d))
    eng.run()
    assert seen[0].direction is Direction.IN
    assert seen[0].size == 4096


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
        live = [r for r in drv.rings.values() if r.inflight]
        return len({r.vm for r in live}), sum(len(r.inflight) for r in live)

    for op in ops:
        if op[0] == "submit":
            try:
                drv.submit(rings[op[1]], op[2])
            except (Backpressure, RingClosed):
                pass
        elif op[0] == "run":
            eng.run_until(eng.now() + op[1])
        else:
            drv.close_ring(rings[op[1]])
        assert (drv.active_vm_count(), drv.in_flight) == recount()
    eng.run()
    assert (drv.active_vm_count(), drv.in_flight) == recount() == (0, 0)
