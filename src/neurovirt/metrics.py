"""Energy model and utilization sampling.

The accelerator energy curve is exactly linear through its two calibrated
anchors (25 mJ at one accelerator, 45 mJ at twenty); dynamic energy is
attributed per synaptic op.
"""

from __future__ import annotations

from neurovirt.iodriver import GIB
from neurovirt.record import FrozenRecord
from neurovirt.virt import Hypervisor, ReconfigMode

MJ_PER_NJ = 1e-6

BASE_MJ = 25.0  # at one accelerator
SLOPE_MJ = 20.0 / 19.0  # per additional accelerator


class EnergyModel(FrozenRecord):
    __slots__ = ("dyn_nj_per_synop",)

    def __init__(self, dyn_nj_per_synop: float = 1.0):
        object.__setattr__(self, "dyn_nj_per_synop", dyn_nj_per_synop)


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


class MetricSample(FrozenRecord):
    __slots__ = ("at", "lut_pct", "mem_pct", "io_pct", "dsp_pct", "throughput_gibs",
                 "energy_mj", "reconfig_full_ns", "reconfig_partial_ns")

    def __init__(
        self,
        at: int,
        lut_pct: float,
        mem_pct: float,
        io_pct: float,
        dsp_pct: float,
        throughput_gibs: float,
        energy_mj: float,
        reconfig_full_ns: int,
        reconfig_partial_ns: int,
    ):
        setattr_ = object.__setattr__
        setattr_(self, "at", at)
        setattr_(self, "lut_pct", lut_pct)
        setattr_(self, "mem_pct", mem_pct)
        setattr_(self, "io_pct", io_pct)
        setattr_(self, "dsp_pct", dsp_pct)
        setattr_(self, "throughput_gibs", throughput_gibs)
        setattr_(self, "energy_mj", energy_mj)
        setattr_(self, "reconfig_full_ns", reconfig_full_ns)
        setattr_(self, "reconfig_partial_ns", reconfig_partial_ns)


SAMPLE_CSV_HEADER = (
    "tick,lut_pct,mem_pct,io_pct,dsp_pct,throughput_gibs,"
    "energy_mj,reconfig_full_ns,reconfig_partial_ns"
)


class MetricsCollector:
    """Snapshots the hypervisor's fabric, driver and reconfiguration time,
    and the executor's synops, on the hypervisor's engine loop."""

    def __init__(self, hypervisor: Hypervisor, model: EnergyModel, executor):
        self.hypervisor = hypervisor
        self.model = model
        self.executor = executor  # reads its total_synops
        self.samples: list[MetricSample] = []
        self._last_at = 0
        self._last_bits = 0

    def sample(self) -> MetricSample:
        """Append one snapshot; throughput is windowed since the last sample."""
        hv = self.hypervisor
        now = hv.engine.now()
        util = hv.fabric.utilization()
        bits = hv.driver.completed_bits
        window = now - self._last_at
        if window > 0:
            throughput = (bits - self._last_bits) / (window / 1e9) / GIB
        else:
            throughput = 0.0
        self._last_at = now
        self._last_bits = bits
        accum = hv.reconfig_accum
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
            self.hypervisor.engine.schedule(at, "MetricSample", fn=self.sample, stallable=False)
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
