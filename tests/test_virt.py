import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.engine import Engine, NS_PER_MS
from neurovirt.fabric import Fabric, InsufficientResources, ResourceVector
from neurovirt.iodriver import IoDriver
from neurovirt.virt import (
    DfxModule,
    FootprintOverflow,
    Hypervisor,
    ModuleKind,
    ReconfigMode,
    ReconfigParams,
    VmBusy,
    VmUnknown,
    module_from_share,
)

MIB = 1024 * 1024


def _hypervisor(driver=False, seed=0):
    eng = Engine(seed=seed)
    fab = Fabric()
    drv = IoDriver(eng) if driver else None
    return eng, fab, Hypervisor(eng, fab, drv)


def _module(share, hv, kind=ModuleKind.LIF_CORE, name=None):
    cfg = hv.fabric.config
    return module_from_share(
        name or f"m{share}", kind, share, cfg.total, cfg.bitstream_total_bytes
    )


def test_four_equal_vms_reach_half_utilization():
    eng, fab, hv = _hypervisor()
    for _ in range(4):
        hv.create_vm(fab.total.scaled(1, 8))
    util = fab.utilization()
    assert all(v == pytest.approx(50.0) for v in util.values())


def test_create_vm_insufficient_resources():
    eng, fab, hv = _hypervisor()
    with pytest.raises(InsufficientResources):
        hv.create_vm(ResourceVector(lut=600_000))


def test_create_destroy_round_trip():
    eng, fab, hv = _hypervisor(driver=True)
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
    module = module_from_share(
        "m", ModuleKind.ROUTER, 0.5, fab.config.total, fab.config.bitstream_total_bytes
    )
    module = type(module)("m", ModuleKind.ROUTER, module.footprint, bitstream_bytes)
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
    record = hv.load_module(vm, module, ReconfigMode.PARTIAL)
    assert record is not None and record.duration == 7_600_000
    assert module.id not in hv.vms[vm].loaded  # not usable until completion
    eng.run_until(record.started_at + record.duration)
    assert module.id in hv.vms[vm].loaded
    assert hv.reconfig_accum[ReconfigMode.PARTIAL] == record.duration


def test_footprint_overflow_rejected():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 8))
    with pytest.raises(FootprintOverflow):
        hv.load_module(vm, _module(0.5, hv), ReconfigMode.PARTIAL)


def test_loaded_footprint_never_exceeds_slot():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    hv.load_module(vm, _module(0.10, hv, name="a"), ReconfigMode.PARTIAL)
    hv.load_module(vm, _module(0.10, hv, kind=ModuleKind.ROUTER, name="b"), ReconfigMode.PARTIAL)
    with pytest.raises(FootprintOverflow):
        hv.load_module(vm, _module(0.10, hv, kind=ModuleKind.POOLING, name="c"), ReconfigMode.PARTIAL)
    eng.run()
    assert hv.vms[vm].loaded_footprint().fits_within(fab.slot(hv.vms[vm].slot_id))


def test_unknown_vm_errors():
    eng, fab, hv = _hypervisor()
    with pytest.raises(VmUnknown):
        hv.load_module("nope", _module(0.1, hv), ReconfigMode.FULL)
    with pytest.raises(VmUnknown):
        hv.destroy_vm("nope")


def test_destroy_mid_reconfiguration_is_busy():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    hv.load_module(vm, _module(0.10, hv), ReconfigMode.PARTIAL)
    with pytest.raises(VmBusy):
        hv.destroy_vm(vm)
    eng.run()
    hv.destroy_vm(vm)

    # a full reconfiguration reprograms every slot, so a bystander VM is
    # busy while it is in flight, and so is a VM whose only reconfiguration
    # is queued behind it
    owner, bystander, waiting = (hv.create_vm(fab.total.scaled(1, 4)) for _ in range(3))
    hv.load_module(owner, _module(0.10, hv), ReconfigMode.FULL)
    assert hv.load_module(waiting, _module(0.10, hv), ReconfigMode.PARTIAL) is None
    assert not hv.vms[waiting].reconfiguring
    for busy in (bystander, waiting):
        with pytest.raises(VmBusy):
            hv.destroy_vm(busy)
    eng.run()
    for idle in (owner, bystander, waiting):
        hv.destroy_vm(idle)
    assert fab.slots == {}


def test_per_vm_reconfigs_serialize():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    first = hv.load_module(vm, _module(0.05, hv, name="a"), ReconfigMode.PARTIAL)
    queued = hv.load_module(
        vm, _module(0.05, hv, kind=ModuleKind.ROUTER, name="b"), ReconfigMode.PARTIAL
    )
    assert first is not None and queued is None
    eng.run()
    assert set(hv.vms[vm].loaded) == {"a", "b"}
    records = [r for r in hv.records if r.mode is ReconfigMode.PARTIAL]
    assert len(records) == 2
    assert records[1].started_at >= records[0].started_at + records[0].duration


def test_exchange_replaces_slot_contents():
    eng, fab, hv = _hypervisor()
    vm = hv.create_vm(fab.total.scaled(1, 4))
    hv.load_module(vm, _module(0.10, hv, name="a"), ReconfigMode.PARTIAL)
    eng.run()
    hv.exchange_module(vm, _module(0.12, hv, kind=ModuleKind.ROUTER, name="b"), ReconfigMode.PARTIAL)
    eng.run()
    assert set(hv.vms[vm].loaded) == {"b"}


def _stream_setup(seed, reconfig_mode=None, reconfig_at=None, share=0.1):
    """VM 'b' streams eight transfers; VM 'a' optionally reconfigures."""
    eng = Engine(seed=seed)
    fab = Fabric()
    drv = IoDriver(eng)
    hv = Hypervisor(eng, fab, drv)
    vm_a = hv.create_vm(fab.total.scaled(1, 4), vm_id="a")
    vm_b = hv.create_vm(fab.total.scaled(1, 4), vm_id="b")
    ring_b = hv.vms[vm_b].ring_id
    completions = []
    remaining = {"n": 8}

    def on_complete(_desc):
        completions.append(eng.now())
        remaining["n"] -= 1
        if remaining["n"] > 0:
            drv.submit(ring_b, 256 * 1024, on_complete=on_complete)

    drv.submit(ring_b, 256 * 1024, on_complete=on_complete)

    duration = None
    if reconfig_mode is not None:
        module = module_from_share(
            "mod", ModuleKind.LIF_CORE, share, fab.config.total,
            fab.config.bitstream_total_bytes,
        )
        duration = hv.reconfig_time(reconfig_mode, module)
        eng.schedule(
            reconfig_at,
            "ReconfigRequest",
            fn=lambda: hv.load_module(vm_a, module, reconfig_mode),
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
    eng, fab = Engine(seed=0), Fabric()
    hv = Hypervisor(eng, fab, params=ReconfigParams(partial_setup_overhead_ns=0))
    vm = hv.create_vm(fab.total.scaled(1, 4))
    blank = DfxModule("blank", ModuleKind.ROUTER, fab.total.scaled(1, 100), 0)
    for t in (0, 5, 5, 10):
        eng.schedule(t, "Work", vm=vm)
    eng.schedule(1, "ReconfigRequest", stallable=False,
                 fn=lambda: hv.exchange_module(vm, blank, ReconfigMode.PARTIAL))
    eng.run()
    assert hv.records[0].duration == 0
    work = [line.split(",")[:2] for line in eng.trace if ",Work," in line]
    assert work == [["0", "0"], ["5", "1"], ["5", "2"], ["10", "3"]]
