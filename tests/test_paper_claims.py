"""The paper's numbers and shapes, one test per row of README's ledger.

An input row checks that the paper's figure is the constant that enters
the model. A predicted row checks a figure the model works out from
other inputs, so it fails when its mechanism is replaced by the figure.
"""

import pytest

from neurovirt.bench import bench_energy, bench_reconfig, bench_throughput
from neurovirt.engine import NS_PER_S, round_half_up
from neurovirt.fabric import FabricConfig
from neurovirt.iodriver import PEAK_GIBPS, LinkModel
from neurovirt.metrics import BASE_MJ, SLOPE_MJ
from neurovirt.virt import ReconfigParams, default_module_catalog


def _rows(csv_text):
    return [[float(x) for x in line.split(",")] for line in csv_text.splitlines()[1:]]


def test_input_throughput_rises_over_1_2_and_4_vms_to_the_papers_5_1_gibs():
    assert PEAK_GIBPS[-1] == (4, 5.1)
    peaks = [LinkModel().peak_bw(n) for n in (1, 2, 4)]
    assert peaks == sorted(peaks) and peaks[-1] == 5.1


def test_predicted_throughput_rises_with_transfer_size():
    # the per-transfer latency does it: with none, every size runs at the peak
    sizes = (4096, 64 * 1024, 1024 * 1024, 1 << 30)
    rows = _rows(bench_throughput(vm_counts=(1, 4), sizes=sizes))
    for vm_count in (1, 4):
        measured = [r[2] for r in rows if r[0] == vm_count]
        assert measured == sorted(measured)
        assert measured[0] < 0.75 * measured[-1]


def test_input_energy_runs_linearly_from_the_papers_25_to_45_mj():
    # two anchors, two unknowns: the slope is fitted in closed form
    assert (BASE_MJ, SLOPE_MJ) == (25.0, (45.0 - 25.0) / 19)
    energies = [r[1] for r in _rows(bench_energy(20))]
    assert energies == [BASE_MJ + n * SLOPE_MJ for n in range(20)]
    assert energies[-1] == pytest.approx(45.0, abs=1e-12)


def test_predicted_partial_beats_full_by_the_bitstream_ratio():
    # each VM exchanges every default module once: a full streams the whole
    # image per exchange, a partial only the module's share plus its setup
    config, params = FabricConfig(), ReconfigParams()
    catalog = default_module_catalog(config).values()

    def port_ns(size_bytes):
        return round_half_up(size_bytes * NS_PER_S / params.config_port_bw)

    full = len(catalog) * port_ns(config.bitstream_total_bytes)
    partial = sum(port_ns(m.bitstream_bytes) + params.partial_setup_overhead_ns
                  for m in catalog)
    counts = (1, 4, 16)
    assert _rows(bench_reconfig(counts)) == [[n, n * full, n * partial] for n in counts]
    assert full / partial == pytest.approx(35.714, abs=1e-3)
