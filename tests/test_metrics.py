import io

import pytest

from neurovirt.engine import Engine
from neurovirt.fabric import Fabric, ResourceVector
from neurovirt.metrics import (
    SAMPLE_CSV_HEADER,
    EnergyModel,
    MetricsCollector,
    energy_for_accelerators,
    export_samples,
    task_energy,
)
from neurovirt.virt import Hypervisor, ReconfigMode, module_from_share


class _Executor:
    """Stands in for the executor, of which the collector reads only total_synops."""

    def __init__(self, total_synops=0):
        self.total_synops = total_synops


def _collector(eng, fab, hv=None, synops=0):
    """A collector over an idle executor and, unless given, a new
    hypervisor with an idle driver."""
    hv = hv if hv is not None else Hypervisor(eng, fab)
    return MetricsCollector(hv, EnergyModel(), _Executor(synops))


def test_energy_anchors():
    assert energy_for_accelerators(1) == pytest.approx(25.0, abs=1e-9)
    assert energy_for_accelerators(20) == pytest.approx(45.0, abs=1e-9)
    assert energy_for_accelerators(10) == pytest.approx(25 + 9 * 20 / 19, abs=1e-9)


def test_energy_exactly_linear_and_monotone():
    values = [energy_for_accelerators(n) for n in range(1, 21)]
    for a, b in zip(values, values[1:]):
        assert b > a
    second = [
        (values[i + 1] - values[i]) - (values[i] - values[i - 1])
        for i in range(1, 19)
    ]
    assert max(abs(d) for d in second) < 1e-9


def test_energy_validation():
    with pytest.raises(ValueError):
        energy_for_accelerators(0)


def test_task_energy():
    assert task_energy(0) == 0.0
    assert task_energy(10**6) == pytest.approx(1.0)  # 1 nJ/op -> 1 mJ
    assert task_energy(2 * 10**6) == pytest.approx(2 * task_energy(10**6))
    with pytest.raises(ValueError):
        task_energy(-1)


def test_sample_tracks_live_utilization():
    eng = Engine(0)
    fab = Fabric()
    collector = _collector(eng, fab)
    fab.allocate(ResourceVector(lut=151_200, memory_bytes=11_400_000, io_pins=139, dsp=518))
    sample = collector.sample()
    util = fab.utilization()
    assert sample.lut_pct == util["lut"]
    assert sample.io_pct == util["io_pins"]
    assert sample.energy_mj == 0.0


def test_sample_csv_format():
    eng = Engine(0)
    collector = _collector(eng, Fabric(), synops=1_000_000)
    collector.sample()
    buf = io.StringIO()
    export_samples(collector.samples, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == SAMPLE_CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert fields[0] == "0"
    assert float(fields[6]) == pytest.approx(1.0)


def test_export_failure_wrapped():
    class Broken:
        def write(self, _):
            raise OSError("disk gone")

    eng = Engine(0)
    collector = _collector(eng, Fabric())
    collector.sample()
    with pytest.raises(OSError, match="disk gone"):
        export_samples(collector.samples, Broken())


def test_a_sample_period_below_one_is_refused():
    eng = Engine(0)
    collector = _collector(eng, Fabric())
    with pytest.raises(ValueError, match="period must be positive"):
        collector.start_sampling(0, 1_000)
    assert eng.pending() == []


def test_reconfig_accumulators_partial_below_full_for_same_swaps():
    def run(mode):
        eng = Engine(0)
        fab = Fabric()
        hv = Hypervisor(eng, fab)
        vm = hv.create_vm(fab.total.scaled(1, 4))
        for i in range(3):
            module = module_from_share(
                f"m{i}", 0.05, fab.config.total, fab.config.bitstream_total_bytes
            )
            hv.exchange_module(vm, module, mode)
        eng.run()
        return hv.reconfig_accum[mode]

    partial = run(ReconfigMode.PARTIAL)
    full = run(ReconfigMode.FULL)
    assert 0 < partial < full


def test_accumulators_non_decreasing_over_samples():
    eng = Engine(0)
    fab = Fabric()
    hv = Hypervisor(eng, fab)
    collector = _collector(eng, fab, hv)
    vm = hv.create_vm(fab.total.scaled(1, 4))
    module = module_from_share("m", 0.1, fab.config.total, fab.config.bitstream_total_bytes)
    hv.exchange_module(vm, module, ReconfigMode.PARTIAL)
    collector.start_sampling(1_000_000, 20_000_000)
    eng.run_until(20_000_000)
    partials = [s.reconfig_partial_ns for s in collector.samples]
    assert partials == sorted(partials)
    assert partials[-1] == 7_600_000
