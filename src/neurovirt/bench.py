"""The three benchmark experiments and the mixed-scenario runner.

Every experiment runs an event-driven simulation and is a pure function
of its arguments, so repeated runs emit byte-identical CSV. One column is
not simulated: ``bench_energy``'s ``energy_mj`` is the closed-form anchor
line, :func:`metrics.energy_for_accelerators`, and only its
``synaptic_ops`` column comes from the run (until ROADMAP item 6 drives
energy from the simulation). None takes a seed:
the only random draws, a spiking task's weights and input picks from its
``task/<id>`` streams (``task/ref<i>`` for ``bench_energy``'s reference
tasks), reach no experiment's columns. A scenario run is a pure function
of its scenario, seed included.

Every VM, in each experiment and in the runner, is one fabric slot plus
one I/O ring, made by :meth:`Hypervisor.create_vm`.

The experiments' engines keep no trace, since no column reads one.
:func:`run_scenario`'s engine formats every trace line, whether or not
``run --trace-out`` writes them (ROADMAP item 2 streams them instead).
"""

from __future__ import annotations

import io

from neurovirt.engine import Engine
from neurovirt.fabric import Fabric, FabricConfig, InsufficientResources, ResourceVector
from neurovirt.iodriver import GIB, IoDriver, LinkModel, effective_throughput
from neurovirt.metrics import MetricsCollector, energy_for_accelerators, export_samples
from neurovirt.record import Record
from neurovirt.sched import DEFAULT_TICK_PERIOD_NS, Scheduler
from neurovirt.scenario import ANY, Scenario
from neurovirt.snn import SpikingExecutor
# make_core_state and step_core stay bound here, since perfbench/tracer.py
# patches bench.make_core_state and bench.step_core by name
from neurovirt.snn import make_core_state, step_core  # noqa: F401
from neurovirt.virt import Hypervisor, ReconfigMode, default_module_catalog

# each experiment's default arguments, which are also the CLI's defaults;
# sizes from latency-dominated to saturated, powers of four
DEFAULT_SIZES = tuple(4096 * 4**k for k in range(10))  # 4 KiB .. 1 GiB
DEFAULT_VM_COUNTS = (1, 2, 4)
DEFAULT_ACCELERATORS = 20
DEFAULT_RECONFIG_VM_COUNTS = tuple(range(1, 17))

WARMUP_TRANSFERS = 2
MEASURED_TRANSFERS = 8

# a 1/32 slot each, so the fabric holds 32 single-core VMs
ONE_CORE_SLOT = FabricConfig().total.scaled(1, 32)


def _fmt(x: float) -> str:
    # shortest round-trip form: parsing the CSV recovers the exact float
    return repr(x)


def _counts(values, what: str, unit: str = "", fits: int | None = None) -> tuple:
    """``values`` as a tuple, read once and each value checked as it is
    read, so an iterator is read no further than its first refused value;
    a ValueError names it (below 1; 2**63 or more, which the scenario
    loader also refuses; or above the ``fits`` slots the fabric holds), or
    the absence of any."""
    checked = []
    for value in values:
        if value < 1:
            raise ValueError(f"{what} {value} below 1{unit}")
        if value > ANY[1]:
            raise ValueError(f"{what} {value} must be below 2**63 in magnitude")
        if fits is not None and value > fits:
            raise ValueError(f"{what} {value} does not fit: the fabric holds {fits}")
        checked.append(value)
    if not checked:
        raise ValueError(f"no {what}s")
    return tuple(checked)


def bench_throughput(vm_counts=DEFAULT_VM_COUNTS, sizes=DEFAULT_SIZES) -> str:
    """Aggregate Gib/s per (vm_count, transfer size), measured in simulation.

    Each VM holds a 1/32 fabric slot and streams back-to-back transfers on
    its ring; throughput is taken over each VM's post-warmup completion
    span, which converges to the pipe model's closed form as sizes grow.
    """
    vm_counts = _counts(vm_counts, "vm count", fits=_slots(ONE_CORE_SLOT))
    sizes = _counts(sizes, "transfer size", " byte")
    link = LinkModel()
    out = io.StringIO()
    out.write("vm_count,transfer_bytes,measured_gibs,model_gibs\n")
    for vm_count in vm_counts:
        for size in sizes:
            measured = _measure_cell(vm_count, size, link)
            model = effective_throughput(size, vm_count, link)
            out.write(f"{vm_count},{size},{_fmt(measured)},{_fmt(model)}\n")
    return out.getvalue()


def _measure_cell(vm_count: int, size: int, link: LinkModel) -> float:
    engine = Engine()
    hv = Hypervisor(engine, Fabric(), link=link)
    total_rounds = WARMUP_TRANSFERS + MEASURED_TRANSFERS
    completions: dict[str, list[int]] = {}
    for _ in range(vm_count):
        vm_id = hv.create_vm(ONE_CORE_SLOT)
        times = completions[vm_id] = []
        # one transfer at a time never fills a ring, so no retry is scheduled
        hv.driver.stream(
            hv.vms[vm_id].ring, size, total_rounds, DEFAULT_TICK_PERIOD_NS,
            on_complete=lambda t=times: t.append(engine.now()),
        )()
    engine.run()

    aggregate = 0.0
    for vm, times in sorted(completions.items()):
        span_ns = times[total_rounds - 1] - times[WARMUP_TRANSFERS - 1]
        bits = MEASURED_TRANSFERS * size * 8
        aggregate += bits / (span_ns / 1e9) / GIB
    return aggregate


def _slots(request: ResourceVector) -> int:
    """How many slots of ``request`` the default fabric holds: replayed on a
    scratch fabric, as the scenario loader replays VM requests."""
    scratch = Fabric()
    try:
        while True:
            scratch.allocate(request)
    except InsufficientResources:
        return len(scratch.slots)


REFERENCE_WORKLOAD = dict(steps=50, input_rate=4, fan_in=32, interval=1_000)


def bench_energy(max_accelerators: int = DEFAULT_ACCELERATORS) -> str:
    """Energy per provisioned accelerator count, 1..max.

    Each row runs an n-accelerator simulation of the fixed reference
    spiking workload; the energy column is the provisioned-accelerator
    energy for that workload unit, synaptic ops are the measured compute.
    """
    _counts((max_accelerators,), "accelerator count", fits=_slots(ONE_CORE_SLOT))
    out = io.StringIO()
    out.write("accelerators,energy_mj,synaptic_ops\n")
    for n in range(1, max_accelerators + 1):
        engine = Engine()
        hv = Hypervisor(engine, Fabric())
        executor = SpikingExecutor(engine)
        vm_ids = [hv.create_vm(ONE_CORE_SLOT, cores=1) for _ in range(n)]
        for i, vm_id in enumerate(vm_ids):
            executor.launch(task_id=f"ref{i}", **REFERENCE_WORKLOAD, at=0, vm=vm_id)
        engine.run()
        energy = energy_for_accelerators(n)
        out.write(f"{n},{_fmt(energy)},{executor.total_synops}\n")
    return out.getvalue()


def bench_reconfig(vm_counts=DEFAULT_RECONFIG_VM_COUNTS) -> str:
    """Total reconfiguration time under full-only vs partial-only policies.

    For each VM count, every VM runs the identical module-exchange
    schedule (each module of the default catalog, in catalog order); the
    two policies differ only in reconfiguration mode.
    """
    config = FabricConfig()
    # a 5% region slot each, which holds any default module; 20 fit
    request = config.total.share(0.05)
    vm_counts = _counts(vm_counts, "vm count", fits=_slots(request))
    catalog = default_module_catalog(config)
    out = io.StringIO()
    out.write("vm_count,full_ns,partial_ns\n")
    for count in vm_counts:
        totals = {}
        for mode in (ReconfigMode.FULL, ReconfigMode.PARTIAL):
            engine = Engine()
            hv = Hypervisor(engine, Fabric(config))
            vm_ids = [hv.create_vm(request, cores=1) for _ in range(count)]
            for vm_id in vm_ids:
                for module in catalog.values():
                    hv.exchange_module(vm_id, module, mode)
            engine.run()
            totals[mode] = hv.reconfig_accum[mode]
        out.write(
            f"{count},{totals[ReconfigMode.FULL]},{totals[ReconfigMode.PARTIAL]}\n"
        )
    return out.getvalue()


class RunResult(Record):
    __slots__ = ("metrics_csv", "engine", "scheduler", "metrics", "driver", "hypervisor",
                 "executor")

    def __init__(self, metrics_csv: str, engine: Engine, scheduler: Scheduler,
                 metrics: MetricsCollector, driver: IoDriver, hypervisor: Hypervisor,
                 executor: SpikingExecutor):
        self.metrics_csv = metrics_csv
        self.engine = engine
        self.scheduler = scheduler
        self.metrics = metrics
        self.driver = driver
        self.hypervisor = hypervisor
        self.executor = executor


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a full mixed scenario: wire its VMs, tasks, transfers and
    reconfigurations to the models, then run the engine to its end."""
    engine = Engine(scenario.seed, trace=True)
    fabric = Fabric(scenario.fabric)
    hv = Hypervisor(engine, fabric, link=scenario.link, params=scenario.reconfig)
    scheduler = Scheduler(engine, core_rate=scenario.core_rate,
                          tick_period=scenario.tick_period_ns,
                          migration_penalty=scenario.migration_penalty_ns)
    executor = scheduler.executor
    metrics = MetricsCollector(hv, scenario.energy, executor)

    for vmdef in scenario.vms:
        hv.create_vm(scenario.fabric.total.share(vmdef.share), vmdef.cores, vmdef.id)
        scheduler.add_vm(vmdef.id, hv.vms[vmdef.id].cores)

    for task in scenario.tasks:
        scheduler.submit(task)

    for tr in scenario.transfers:
        engine.schedule(
            tr.start_ns,
            "TransferStart",
            fn=hv.driver.stream(
                hv.vms[tr.vm].ring, tr.size_bytes, tr.count, scenario.tick_period_ns
            ),
            detail=f"vm={tr.vm};size={tr.size_bytes}",
            vm=tr.vm,
        )

    for op in scenario.reconfigs:
        module = scenario.modules[op.module]
        engine.schedule(
            op.at_ns,
            "ReconfigRequest",
            fn=lambda op=op, module=module: hv.exchange_module(op.vm, module, op.mode),
            detail=f"vm={op.vm};module={op.module};mode={op.mode.value}",
            stallable=False,
        )

    metrics.start_sampling(scenario.sample_period_ns, scenario.duration_ns)
    engine.run_until(scenario.duration_ns)

    buf = io.StringIO()
    export_samples(metrics.samples, buf)
    return RunResult(
        metrics_csv=buf.getvalue(),
        engine=engine,
        scheduler=scheduler,
        metrics=metrics,
        driver=hv.driver,
        hypervisor=hv,
        executor=executor,
    )

