"""Energy model, utilization sampling, and reconfiguration accounting.

The accelerator energy curve is exactly linear through its two calibrated
anchors (25 mJ at one accelerator, 45 mJ at twenty); dynamic energy is
attributed per synaptic op.
"""

from __future__ import annotations

from dataclasses import dataclass

from neurovirt.fabric import Fabric
from neurovirt.iodriver import GIB, IoDriver
from neurovirt.virt import Hypervisor, ReconfigMode

MJ_PER_NJ = 1e-6

BASE_MJ = 25.0  # at one accelerator
SLOPE_MJ = 20.0 / 19.0  # per additional accelerator


@dataclass(frozen=True)
class EnergyModel:
    dyn_nj_per_synop: float = 1.0


def energy_for_accelerators(n: int) -> float:
    """Provisioned energy in mJ for one benchmark workload unit on n accelerators."""
    if n < 1:
        raise ValueError("accelerator count must be >= 1")
    return BASE_MJ + (n - 1) * SLOPE_MJ


def task_energy(ops: int, model: EnergyModel | None = None) -> float:
    """Dynamic energy in mJ attributed to a synaptic-op count."""
    if ops < 0:
        raise ValueError("ops must be non-negative")
    model = model if model is not None else EnergyModel()
    return ops * model.dyn_nj_per_synop * MJ_PER_NJ


@dataclass(frozen=True)
class MetricSample:
    at: int
    lut_pct: float
    mem_pct: float
    io_pct: float
    dsp_pct: float
    throughput_gibs: float
    energy_mj: float
    reconfig_full_ns: int
    reconfig_partial_ns: int


SAMPLE_CSV_HEADER = (
    "tick,lut_pct,mem_pct,io_pct,dsp_pct,throughput_gibs,"
    "energy_mj,reconfig_full_ns,reconfig_partial_ns"
)


class MetricsCollector:
    """Snapshots fabric/driver/virt state and executor synops on the engine loop."""

    def __init__(
        self,
        engine,
        fabric: Fabric,
        driver: IoDriver,
        hypervisor: Hypervisor,
        model: EnergyModel,
        executor,
    ):
        self.engine = engine
        self.fabric = fabric
        self.driver = driver
        self.hypervisor = hypervisor
        self.model = model
        self.executor = executor  # reads its total_synops
        self.samples: list[MetricSample] = []
        self._last_at = 0
        self._last_bits = 0

    def sample(self) -> MetricSample:
        """Append one snapshot; throughput is windowed since the last sample."""
        now = self.engine.now()
        util = self.fabric.utilization()
        bits = self.driver.completed_bits
        window = now - self._last_at
        if window > 0:
            throughput = (bits - self._last_bits) / (window / 1e9) / GIB
        else:
            throughput = 0.0
        self._last_at = now
        self._last_bits = bits
        accum = self.hypervisor.reconfig_accum
        sample = MetricSample(
            at=now,
            lut_pct=util["lut"],
            mem_pct=util["memory_bytes"],
            io_pct=util["io_pins"],
            dsp_pct=util["dsp"],
            throughput_gibs=throughput,
            energy_mj=task_energy(self.executor.total_synops, self.model),
            reconfig_full_ns=accum[ReconfigMode.FULL],
            reconfig_partial_ns=accum[ReconfigMode.PARTIAL],
        )
        self.samples.append(sample)
        return sample

    def start_sampling(self, period: int, until: int) -> None:
        """Schedule periodic samples at period, 2*period, ... <= until."""
        if period <= 0:
            raise ValueError("period must be positive")
        at = period
        while at <= until:
            self.engine.schedule(at, "MetricSample", fn=self.sample, stallable=False)
            at += period


def format_float(x: float) -> str:
    """Six significant digits, the sample-CSV float convention."""
    return f"{x:.6g}"


def export_samples(samples: list[MetricSample], fh) -> None:
    """Write the sample CSV (UTF-8, LF, header included)."""
    fh.write(SAMPLE_CSV_HEADER + "\n")
    for s in samples:
        fh.write(
            f"{s.at},{format_float(s.lut_pct)},{format_float(s.mem_pct)},"
            f"{format_float(s.io_pct)},{format_float(s.dsp_pct)},"
            f"{format_float(s.throughput_gibs)},{format_float(s.energy_mj)},"
            f"{s.reconfig_full_ns},{s.reconfig_partial_ns}\n"
        )
