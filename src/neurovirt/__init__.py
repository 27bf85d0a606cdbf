"""Deterministic discrete-event simulator of a virtualized neuromorphic fabric.

Subsystems: a seeded event engine, the fabric resource pool, a minimal
spiking workload, VM/DFX virtualization with a reconfiguration cost
model, a contention-aware service scheduler, paravirtualized I/O rings,
metrics/energy accounting, and a benchmark CLI emitting CSV.
"""

from neurovirt.engine import Engine, RandomStreams, SchedulingInPast, SimEvent
from neurovirt.fabric import (
    Fabric,
    FabricConfig,
    InsufficientResources,
    ResourceVector,
)
from neurovirt.iodriver import IoDriver, LinkModel, effective_throughput
from neurovirt.metrics import EnergyModel, MetricsCollector, energy_for_accelerators, task_energy
from neurovirt.sched import Scheduler, TaskSpec, exec_time, profile
from neurovirt.snn import CoreState, LifParams, step_core, workload_cost
from neurovirt.virt import DfxModule, Hypervisor, ReconfigMode

__version__ = "0.1.0"

# the one LIF kernel; perfbench/run.py records it with each run's environment
KERNEL_BACKEND = "python"

__all__ = [
    "Engine",
    "RandomStreams",
    "SchedulingInPast",
    "SimEvent",
    "Fabric",
    "FabricConfig",
    "InsufficientResources",
    "ResourceVector",
    "IoDriver",
    "LinkModel",
    "effective_throughput",
    "EnergyModel",
    "MetricsCollector",
    "energy_for_accelerators",
    "task_energy",
    "Scheduler",
    "TaskSpec",
    "exec_time",
    "profile",
    "CoreState",
    "LifParams",
    "step_core",
    "workload_cost",
    "DfxModule",
    "Hypervisor",
    "ReconfigMode",
    "KERNEL_BACKEND",
    "__version__",
]
