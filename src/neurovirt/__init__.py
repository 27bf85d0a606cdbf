"""Deterministic discrete-event simulator of a virtualized neuromorphic fabric.

Subsystems: a seeded event engine, the fabric resource pool, a minimal
spiking workload, VM/DFX virtualization with a reconfiguration cost
model, a contention-aware service scheduler, paravirtualized I/O rings,
metrics/energy accounting, and a benchmark CLI emitting CSV.

The package re-exports nothing: each name is imported from the one
submodule that defines it (``neurovirt.engine``, ``neurovirt.snn``, ...).
"""

__version__ = "0.1.0"

# the one LIF kernel; perfbench/run.py records it with each run's environment
KERNEL_BACKEND = "python"
