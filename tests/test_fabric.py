import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.fabric import (
    Fabric,
    FabricConfig,
    InsufficientResources,
    InvalidConfig,
    ResourceVector,
    SlotBusy,
    UnknownSlot,
)

# reference utilization row for the default device
UTIL_ROW = ResourceVector(lut=151_200, memory_bytes=11_400_000, io_pins=139, dsp=518)


def test_default_totals():
    fab = Fabric()
    assert fab.total.lut == 504_000
    assert fab.total.dsp == 1_728
    assert fab.total.memory_bytes == 38_000_000
    assert fab.total.io_pins == 464


def test_infeasible_config_rejected():
    for cfg in [
        FabricConfig(
            core_footprint=ResourceVector(lut=600_000, memory_bytes=1, io_pins=1, dsp=1)
        ),
        # utilization divides by every class's total
        FabricConfig(
            total=ResourceVector(lut=504_000, memory_bytes=38_000_000, io_pins=464),
            core_footprint=ResourceVector(lut=1),
        ),
    ]:
        with pytest.raises(InvalidConfig):
            Fabric(cfg)


def test_core_footprint_defaults_to_a_32nd_of_total():
    total = ResourceVector(lut=64_000, memory_bytes=3_200, io_pins=320, dsp=32)
    assert FabricConfig(total=total).core_footprint == total.scaled(1, 32)
    assert FabricConfig().core_footprint == FabricConfig().total.scaled(1, 32)


def test_utilization_of_reference_allocation():
    fab = Fabric()
    fab.allocate(UTIL_ROW)
    util = fab.utilization()
    assert util["lut"] == pytest.approx(30.0, abs=1e-9)
    assert util["memory_bytes"] == pytest.approx(30.0, abs=1e-9)
    # computed ratios; the vendor-style profile prints 29.19 / 29.94 instead
    assert util["io_pins"] == pytest.approx(100 * 139 / 464, abs=1e-9)
    assert util["dsp"] == pytest.approx(100 * 518 / 1728, abs=1e-9)
    assert round(util["io_pins"], 2) == 29.96
    assert round(util["dsp"], 2) == 29.98


def test_allocate_entire_pool_then_overcommit():
    fab = Fabric()
    fab.allocate(UTIL_ROW)
    with pytest.raises(InsufficientResources) as err:
        fab.allocate(ResourceVector(lut=400_000))
    assert err.value.resource == "lut"
    assert err.value.available == 504_000 - 151_200  # 352,800 < 400,000


def test_allocating_exact_free_pool_zeroes_it():
    fab = Fabric()
    fab.allocate(fab.free)
    assert fab.free == ResourceVector()
    util = fab.utilization()
    assert all(v == pytest.approx(100.0) for v in util.values())


def test_empty_fabric_utilization_is_zero():
    assert all(v == 0.0 for v in Fabric().utilization().values())


def test_first_deficient_class_reported_in_order():
    fab = Fabric()
    with pytest.raises(InsufficientResources) as err:
        fab.allocate(ResourceVector(lut=1, memory_bytes=10**9, io_pins=10**6, dsp=1))
    assert err.value.resource == "memory_bytes"


def test_release_round_trip_restores_pool():
    fab = Fabric()
    before = fab.free
    slot = fab.allocate(UTIL_ROW)
    fab.release(slot)
    assert fab.free == before
    assert fab.slots == {}


def test_release_errors():
    fab = Fabric()
    with pytest.raises(UnknownSlot):
        fab.release(99)
    slot = fab.allocate(ResourceVector(lut=10))
    fab.begin_reconfig(slot)
    with pytest.raises(SlotBusy):
        fab.release(slot)
    fab.end_reconfig(slot)
    fab.release(slot)


def _conserved(fab: Fabric) -> bool:
    total = fab.free + fab.used()
    return total == fab.total


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_conservation_under_random_op_sequences(seed):
    import random

    rng = random.Random(seed)
    fab = Fabric()
    live: list[int] = []
    for _ in range(200):
        action = rng.random()
        if action < 0.55:
            request = ResourceVector(
                lut=rng.randint(0, 80_000),
                memory_bytes=rng.randint(0, 6_000_000),
                io_pins=rng.randint(0, 64),
                dsp=rng.randint(0, 256),
            )
            if not request.any_positive():
                continue
            try:
                live.append(fab.allocate(request))
            except InsufficientResources:
                pass
        elif live:
            fab.release(live.pop(rng.randrange(len(live))))
        assert _conserved(fab)
        assert fab.free.fits_within(fab.total)
    for slot in list(live):
        fab.release(slot)
    assert fab.free == fab.total
