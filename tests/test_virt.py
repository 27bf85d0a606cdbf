import functools

import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.engine import Engine, NS_PER_MS
from neurovirt.fabric import Fabric, InsufficientResources, ResourceVector
from neurovirt.iodriver import LinkModel
from neurovirt.virt import (
    DfxModule,
    FootprintOverflow,
    Hypervisor,
    ReconfigMode,
    ReconfigParams,
    VmBusy,
    VmUnknown,
    module_from_share,
)

MIB = 1024 * 1024


def _hypervisor(seed=0):
    eng = Engine(seed=seed)
    fab = Fabric()
    return eng, fab, Hypervisor(eng, fab)


def _module(share, hv, name=None):
    cfg = hv.fabric.config
    return module_from_share(name or f"m{share}", share, cfg.total, cfg.bitstream_total_bytes)


def test_four_equal_vms_reach_half_utilization():
    eng, fab, hv = _hypervisor()
    for _ in range(4):
        hv.create_vm(fab.total.scaled(1, 8))
    util = fab.utilization()
    assert all(v == pytest.approx(50.0) for v in util.values())


def test_default_cores_round_half_up():
    # 16 cores x 78,750 / 504,000 LUT = 2.5 cores, which rounds up
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.share(0.15625))
    assert fab.slot(hv.vms[vm].slot_id).lut == 78_750
    assert hv.vms[vm].cores == 3


def test_create_vm_insufficient_resources():
    eng, fab, hv = _hypervisor()
    with pytest.raises(InsufficientResources):
        hv.create_vm(ResourceVector(lut=600_000))


def test_create_vm_refuses_an_id_that_exists_before_allocating():
    eng, fab, hv = _hypervisor()
    hv.create_vm(fab.total.scaled(1, 8), vm_id="a")
    free = fab.free
    with pytest.raises(ValueError, match="vm id a already exists"):
        hv.create_vm(fab.total.scaled(1, 8), vm_id="a")
    assert (fab.free, list(hv.vms)) == (free, ["a"])


@pytest.mark.parametrize("cores", [0, -3])
def test_create_vm_refuses_cores_below_one_before_allocating(cores):
    # the loader refuses such a VM; the API held a fabric slot for it
    eng, fab, hv = _hypervisor()
    with pytest.raises(ValueError, match="cores must be >= 1"):
        hv.create_vm(fab.total.scaled(1, 8), cores=cores)
    assert (fab.free, fab.slots, hv.vms) == (fab.total, {}, {})
    assert hv.create_vm(fab.total.scaled(1, 8), cores=1) == "vm0"


def test_create_destroy_round_trip():
    eng, fab, hv = _hypervisor()
    before = fab.free
    vm = hv.create_vm(fab.total.scaled(1, 8))
    hv.destroy_vm(vm)
    assert fab.free == before
    assert hv.vms == {}


def test_reconfig_time_defaults():
    eng, fab, hv = _hypervisor()
    module = _module(0.10, hv)
    assert module.bitstream_bytes == 3 * MIB  # 10% of a 30 MiB image
    full = hv.reconfig_time(ReconfigMode.FULL, module)
    partial = hv.reconfig_time(ReconfigMode.PARTIAL, module)
    assert full == 75 * NS_PER_MS
    assert partial == 7_600_000  # 7.5 ms stream + 0.1 ms setup


def test_partial_beats_full_up_to_ninety_percent_share():
    eng, fab, hv = _hypervisor()
    for share in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9):
        module = _module(share, hv)
        assert hv.reconfig_time(ReconfigMode.PARTIAL, module) <= hv.reconfig_time(
            ReconfigMode.FULL, module
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30 * MIB))
def test_partial_faster_whenever_bitstream_small_enough(bitstream_bytes):
    eng, fab, hv = _hypervisor()
    params = hv.params
    module = module_from_share("m", 0.5, fab.config.total, fab.config.bitstream_total_bytes)
    module = type(module)("m", module.footprint, bitstream_bytes)
    threshold = (
        fab.config.bitstream_total_bytes
        - params.partial_setup_overhead_ns * params.config_port_bw // 10**9
    )
    if bitstream_bytes < threshold:
        assert hv.reconfig_time(ReconfigMode.PARTIAL, module) < hv.reconfig_time(
            ReconfigMode.FULL, module
        )


def test_load_module_completes_after_duration():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    module = _module(0.10, hv)
    record = hv.exchange_module(vm, module, ReconfigMode.PARTIAL)
    assert record is not None and record.duration == 7_600_000
    assert hv.vms[vm].loaded is None  # not usable until completion
    eng.run_until(record.started_at + record.duration)
    assert hv.vms[vm].loaded is module
    assert hv.reconfig_accum[ReconfigMode.PARTIAL] == record.duration


def test_footprint_overflow_rejected():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 8))
    with pytest.raises(FootprintOverflow):
        hv.exchange_module(vm, _module(0.5, hv), ReconfigMode.PARTIAL)


def _held(vm):
    """The module a VM's region holds or is being programmed with."""
    return vm.inflight_module or vm.loaded


def test_loaded_footprint_never_exceeds_slot():
    # a small module, then an exchange to a large one, then a medium one:
    # each request replaces the region's module, so the two last modules
    # (151,200 LUT together) never share the 126,000-LUT slot
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    slot = fab.slot(hv.vms[vm].slot_id)
    a = _module(0.02, hv, name="a")
    b = _module(0.20, hv, name="b")
    c = _module(0.10, hv, name="c")
    for module in (a, b, c):
        hv.exchange_module(vm, module, ReconfigMode.PARTIAL)
        assert _held(hv.vms[vm]).footprint.fits_within(slot)
    with pytest.raises(FootprintOverflow):
        hv.exchange_module(vm, _module(0.30, hv, name="d"), ReconfigMode.PARTIAL)
    while eng.pending():
        eng.run_until(eng.pending()[0].fire_at)
        assert _held(hv.vms[vm]).footprint.fits_within(slot)
    assert hv.vms[vm].loaded is c


def test_unknown_vm_errors():
    eng, fab, hv = _hypervisor()
    with pytest.raises(VmUnknown):
        hv.exchange_module("nope", _module(0.1, hv), ReconfigMode.FULL)
    with pytest.raises(VmUnknown):
        hv.destroy_vm("nope")


def test_destroy_mid_reconfiguration_is_busy():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    hv.exchange_module(vm, _module(0.10, hv), ReconfigMode.PARTIAL)
    with pytest.raises(VmBusy):
        hv.destroy_vm(vm)
    eng.run()
    hv.destroy_vm(vm)

    # a full reconfiguration reprograms every slot, so a bystander VM is
    # busy while it is in flight, and so is a VM whose only reconfiguration
    # is queued behind it
    owner, bystander, waiting = (hv.create_vm(fab.total.scaled(1, 4)) for _ in range(3))
    hv.exchange_module(owner, _module(0.10, hv), ReconfigMode.FULL)
    assert hv.exchange_module(waiting, _module(0.10, hv), ReconfigMode.PARTIAL) is None
    assert not hv.vms[waiting].reconfiguring
    for busy in (bystander, waiting):
        with pytest.raises(VmBusy):
            hv.destroy_vm(busy)
    eng.run()
    for idle in (owner, bystander, waiting):
        hv.destroy_vm(idle)
    assert fab.slots == {}


def test_destroy_ends_the_vms_transfer_streams():
    # three 3-transfer streams into the 1-slot ring of vm "a": at the
    # destroy (5 us) one transfer is in flight, the second stream waits on
    # a TransferRetry and the third has not started; "b" streams alongside
    eng = Engine(0)
    fab = Fabric()
    hv = Hypervisor(eng, fab, link=LinkModel(ring_capacity=1))
    drv = hv.driver
    completed = {"a": [], "b": []}
    for vm_id, starts in (("a", (0, 0, 20_000)), ("b", (0,))):
        ring = hv.vms[hv.create_vm(fab.total.scaled(1, 8), vm_id=vm_id)].ring
        for start in starts:
            stream = drv.stream(ring, 4096, 3, 100_000,
                                on_complete=lambda t=completed[vm_id]: t.append(eng.now()))
            eng.schedule(start, "TransferStart", fn=stream, vm=vm_id)
    ring_a = hv.vms["a"].ring
    at_destroy = []

    def destroy():
        at_destroy.append(len(ring_a.inflight))
        hv.destroy_vm("a")

    eng.schedule(5_000, "Destroy", fn=destroy, stallable=False)
    eng.run()  # the retry and the late start fire on the closed ring
    assert at_destroy == [1]
    assert completed["a"] == []
    assert len(completed["b"]) == 3
    assert drv.drained == at_destroy[0]
    assert drv.in_flight == 0


def test_per_vm_reconfigs_serialize():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    b = _module(0.05, hv, name="b")
    first = hv.exchange_module(vm, _module(0.05, hv, name="a"), ReconfigMode.PARTIAL)
    queued = hv.exchange_module(vm, b, ReconfigMode.PARTIAL)
    assert first is not None and queued is None
    eng.run()
    assert hv.vms[vm].loaded is b  # the later request ran last
    records = [r for r in hv.records if r.mode is ReconfigMode.PARTIAL]
    assert len(records) == 2
    assert records[1].started_at >= records[0].started_at + records[0].duration


_REQUEST_SHARES = (0.01, 0.03, 0.06, 0.12, 0.20)

_exchange_ops = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.integers(0, 3),
                  st.sampled_from(_REQUEST_SHARES), st.sampled_from(ReconfigMode)),
        st.tuples(st.just("split"), st.integers(0, 100 * NS_PER_MS)),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((4, 8, 16)), min_size=2, max_size=4), _exchange_ops)
def test_exchanges_fit_and_run_in_request_order(slot_divisors, ops):
    eng, fab, hv = _hypervisor()
    vms = [hv.create_vm(fab.total.scaled(1, d)) for d in slot_divisors]
    slots = {vm: fab.slot(hv.vms[vm].slot_id) for vm in vms}
    requested = {vm: [] for vm in vms}  # module ids accepted, in request order
    owner = {}
    for op in ops:
        if op[0] == "split":
            eng.run_until(eng.now() + op[1])
        else:
            _, index, share, mode = op
            vm = vms[index % len(vms)]
            module = _module(share, hv, name=f"r{len(owner)}")
            if module.footprint.fits_within(slots[vm]):
                hv.exchange_module(vm, module, mode)
                requested[vm].append(module.id)
                owner[module.id] = vm
            else:
                with pytest.raises(FootprintOverflow):
                    hv.exchange_module(vm, module, mode)
        for vm in vms:
            held = _held(hv.vms[vm])
            assert held is None or held.footprint.fits_within(slots[vm])
    eng.run()

    # every record, full or partial, names the VM that requested it
    assert all(r.vm == owner[r.module] for r in hv.records)
    for vm in vms:
        state = hv.vms[vm]
        assert not state.reconfiguring and not state.pending_reconfigs
        last = requested[vm][-1] if requested[vm] else None
        assert (state.loaded.id if state.loaded else None) == last
        records = [r for r in hv.records if owner[r.module] == vm]
        assert [r.module for r in records] == requested[vm]
        for before, after in zip(records, records[1:]):
            assert after.started_at >= before.started_at + before.duration
    for i, full in enumerate(hv.records):
        if full.mode is ReconfigMode.FULL:
            for later in hv.records[i + 1:]:
                assert later.started_at >= full.started_at + full.duration


def test_partial_requested_during_full_starts_when_full_ends():
    eng, fab, hv = _hypervisor()
    owner, other = (hv.create_vm(fab.total.scaled(1, 4)) for _ in range(2))
    full = hv.exchange_module(owner, _module(0.10, hv), ReconfigMode.FULL)
    # the other VM is idle, but the full reprogram holds every slot
    eng.schedule(full.duration // 2, "Request",
                 fn=lambda: hv.exchange_module(other, _module(0.05, hv), ReconfigMode.PARTIAL))
    eng.run()
    partial = hv.records[1]
    assert (full.vm, full.mode) == (owner, ReconfigMode.FULL)
    assert (partial.vm, partial.mode) == (other, ReconfigMode.PARTIAL)
    assert partial.started_at == full.started_at + full.duration


def test_exchange_replaces_slot_contents():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    b = _module(0.12, hv, name="b")
    hv.exchange_module(vm, _module(0.10, hv, name="a"), ReconfigMode.PARTIAL)
    eng.run()
    hv.exchange_module(vm, b, ReconfigMode.PARTIAL)
    assert hv.vms[vm].loaded is None  # "a" is gone once programming starts
    eng.run()
    assert hv.vms[vm].loaded is b


def _stream_setup(seed, reconfig_mode=None, reconfig_at=None, share=0.1):
    """VM 'b' streams eight transfers; VM 'a' optionally reconfigures."""
    eng = Engine(seed=seed)
    fab = Fabric()
    hv = Hypervisor(eng, fab)
    drv = hv.driver
    vm_a = hv.create_vm(fab.total.scaled(1, 4), vm_id="a")
    vm_b = hv.create_vm(fab.total.scaled(1, 4), vm_id="b")
    ring_b = hv.vms[vm_b].ring
    completions = []
    remaining = {"n": 8}

    def on_complete():
        completions.append(eng.now())
        remaining["n"] -= 1
        if remaining["n"] > 0:
            drv.submit(ring_b, 256 * 1024, on_complete=on_complete)

    drv.submit(ring_b, 256 * 1024, on_complete=on_complete)

    duration = None
    if reconfig_mode is not None:
        module = module_from_share(
            "mod", share, fab.config.total, fab.config.bitstream_total_bytes
        )
        duration = hv.reconfig_time(reconfig_mode, module)
        eng.schedule(
            reconfig_at,
            "ReconfigRequest",
            fn=lambda: hv.exchange_module(vm_a, module, reconfig_mode),
            stallable=False,
        )
    eng.run()
    return completions, duration


def test_partial_reconfig_of_other_vm_leaves_trace_identical():
    base, _ = _stream_setup(seed=5)
    with_partial, _ = _stream_setup(
        seed=5, reconfig_mode=ReconfigMode.PARTIAL, reconfig_at=3_000_000
    )
    assert with_partial == base


def test_full_reconfig_shifts_inflight_completions_exactly():
    base, _ = _stream_setup(seed=5)
    at = 3_000_000
    shifted, duration = _stream_setup(
        seed=5, reconfig_mode=ReconfigMode.FULL, reconfig_at=at
    )
    assert duration == 75 * NS_PER_MS
    expected = [c if c < at else c + duration for c in base]
    assert shifted == expected


def test_zero_length_partial_fires_each_of_its_vms_events_once():
    eng, fab = Engine(seed=0, trace=True), Fabric()
    hv = Hypervisor(eng, fab, params=ReconfigParams(partial_setup_overhead_ns=0))
    vm = hv.create_vm(fab.total.scaled(1, 4))
    blank = DfxModule("blank", fab.total.scaled(1, 100), 0)
    for t in (0, 5, 5, 10):
        eng.schedule(t, "Work", vm=vm)
    eng.schedule(1, "ReconfigRequest", stallable=False,
                 fn=lambda: hv.exchange_module(vm, blank, ReconfigMode.PARTIAL))
    eng.run()
    assert hv.records[0].duration == 0
    work = [line.split(",")[:2] for line in eng.trace if ",Work," in line]
    assert work == [["0", "0"], ["5", "1"], ["5", "2"], ["10", "3"]]


class _ScanAllHypervisor(Hypervisor):
    """The reference finish: after any reconfiguration, partial or full,
    walk every VM in id order and start each idle one's queue."""

    def _finish_reconfig(self, vm, record):
        self.reconfig_accum[record.mode] += record.duration
        vm.loaded = vm.inflight_module
        vm.inflight_module = None
        if record.mode is ReconfigMode.FULL:
            self._full_active = False
        for queued_vm_id in sorted(self.vms):
            queued_vm = self.vms[queued_vm_id]
            if self._full_active:
                break
            if queued_vm.pending_reconfigs and not queued_vm.reconfiguring:
                self._start_reconfig(queued_vm, *queued_vm.pending_reconfigs.popleft())


class _CheckedEngine(Engine):
    """Runs its ``check`` attribute after every processed event, the
    hypervisor's own ReconfigDone events included."""

    def schedule(self, at, kind, fn=None, *args, **kwargs):
        def checked():
            if fn is not None:
                fn()
            self.check()
        return super().schedule(at, kind, checked, *args, **kwargs)


# (VM index, time in quarter ms, full?): a request at that time, over
# 100 ms; a full takes 75 ms and a partial about 3 ms, so requests often
# queue behind either
_queue_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 400), st.booleans()),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_queue_ops, st.integers(3, 4))
def test_queued_requests_always_wait_on_a_reconfiguration(ops, vm_count):
    # the queue invariant that lets a partial's finish start only its own
    # VM's queue: every VM with queued requests is reconfiguring, or a full
    # is in flight. And the result equals that of walking every VM's queue
    # after every finish
    def replay(hv_class):
        eng = _CheckedEngine(seed=0, trace=True)
        fab = Fabric()
        hv = hv_class(eng, fab)
        vms = [hv.create_vm(fab.total.scaled(1, 8)) for _ in range(vm_count)]
        modules = [_module(share, hv) for share in (0.01, 0.03, 0.06)]

        def check():
            for vm in hv.vms.values():
                assert not vm.pending_reconfigs or vm.reconfiguring or hv._full_active

        eng.check = check
        for i, (index, quarter_ms, full) in enumerate(ops):
            mode = ReconfigMode.FULL if full else ReconfigMode.PARTIAL
            request = functools.partial(hv.exchange_module, vms[index % vm_count],
                                        modules[i % 3], mode)
            eng.schedule(quarter_ms * NS_PER_MS // 4, "Request", request, stallable=False)
        eng.run()
        assert not any(vm.pending_reconfigs or vm.reconfiguring for vm in hv.vms.values())
        return hv.records, hv.reconfig_accum, eng.trace

    assert replay(Hypervisor) == replay(_ScanAllHypervisor)
