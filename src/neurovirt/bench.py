"""The three benchmark experiments and the mixed-scenario runner.

Every experiment is a real event-driven simulation (no closed-form
shortcuts in the measured columns) and is a pure function of its
arguments, so repeated runs emit byte-identical CSV. None takes a seed:
the only random draws, a spiking task's weights and input picks, reach no
experiment's columns. A scenario run is a pure function of its scenario,
seed included.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from neurovirt.engine import Engine, round_half_up
from neurovirt.fabric import Fabric, InsufficientResources, ResourceVector
from neurovirt.iodriver import GIB, IoDriver, LinkModel, effective_throughput
from neurovirt.metrics import MetricsCollector, energy_for_accelerators, export_samples
from neurovirt.sched import DEFAULT_TICK_PERIOD_NS, Scheduler, TaskSpec, exec_time, profile
from neurovirt.scenario import Scenario, TaskDef, default_module_catalog
from neurovirt.snn import SpikingExecutor
# make_core_state and step_core stay bound here, since perfbench/tracer.py
# patches bench.make_core_state and bench.step_core by name
from neurovirt.snn import make_core_state, step_core  # noqa: F401
from neurovirt.virt import Hypervisor, ReconfigMode

# sizes from latency-dominated to saturated, powers of four
DEFAULT_SIZES = tuple(4096 * 4**k for k in range(10))  # 4 KiB .. 1 GiB
DEFAULT_VM_COUNTS = (1, 2, 4)

WARMUP_TRANSFERS = 2
MEASURED_TRANSFERS = 8


def _fmt(x: float) -> str:
    # shortest round-trip form: parsing the CSV recovers the exact float
    return repr(x)


def bench_throughput(vm_counts=DEFAULT_VM_COUNTS, sizes=DEFAULT_SIZES) -> str:
    """Aggregate Gib/s per (vm_count, transfer size), measured in simulation.

    Each VM streams back-to-back transfers; throughput is taken over each
    VM's post-warmup completion span, which converges to the pipe model's
    closed form as sizes grow.
    """
    link = LinkModel()
    for count in vm_counts:
        if count < 1:
            raise ValueError(f"vm count {count} below link model domain")
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
    driver = IoDriver(engine, link)
    total_rounds = WARMUP_TRANSFERS + MEASURED_TRANSFERS
    completions: dict[str, list[int]] = {}
    for i in range(vm_count):
        times = completions[f"vm{i}"] = []
        # one transfer at a time never fills a ring, so no retry is scheduled
        driver.stream(
            driver.open_ring(f"vm{i}"), size, total_rounds, DEFAULT_TICK_PERIOD_NS,
            on_complete=lambda t=times: t.append(engine.now()),
        )()
    engine.run()

    aggregate = 0.0
    for vm, times in sorted(completions.items()):
        span_ns = times[total_rounds - 1] - times[WARMUP_TRANSFERS - 1]
        bits = MEASURED_TRANSFERS * size * 8
        aggregate += bits / (span_ns / 1e9) / GIB
    return aggregate


def _create_vms(hv: Hypervisor, request: ResourceVector, count: int, what: str) -> list[str]:
    """``count`` one-core VMs of ``request``; a ValueError names the
    count when the experiment's fabric holds fewer."""
    vm_ids = []
    for held in range(count):
        try:
            vm_ids.append(hv.create_vm(request, cores=1))
        except InsufficientResources as exc:
            raise ValueError(f"{what} {count} does not fit: the fabric holds {held}") from exc
    return vm_ids


REFERENCE_WORKLOAD = dict(steps=50, input_rate=4, fan_in=32, interval=1_000)


def bench_energy(max_accelerators: int = 20) -> str:
    """Energy per provisioned accelerator count, 1..max.

    Each row runs an n-accelerator simulation of the fixed reference
    spiking workload; the energy column is the provisioned-accelerator
    energy for that workload unit, synaptic ops are the measured compute.
    """
    if max_accelerators < 1:
        raise ValueError("accelerator count must be >= 1")
    out = io.StringIO()
    out.write("accelerators,energy_mj,synaptic_ops\n")
    for n in range(1, max_accelerators + 1):
        engine = Engine()
        fabric = Fabric()
        hv = Hypervisor(engine, fabric)
        executor = SpikingExecutor(engine)
        # a 1/32 slot each, so the fabric holds 32 single-core accelerators
        vm_ids = _create_vms(hv, fabric.total.scaled(1, 32), n, "accelerator count")
        for i, vm_id in enumerate(vm_ids):
            executor.launch(
                task_id=f"ref{i}",
                steps=REFERENCE_WORKLOAD["steps"],
                input_rate=REFERENCE_WORKLOAD["input_rate"],
                fan_in=REFERENCE_WORKLOAD["fan_in"],
                interval=REFERENCE_WORKLOAD["interval"],
                at=0,
                vm=vm_id,
                stream=f"accel/{i}",
            )
        engine.run()
        energy = energy_for_accelerators(n)
        out.write(f"{n},{_fmt(energy)},{executor.total_synops}\n")
    return out.getvalue()


RECONFIG_SLOT_SHARE = 0.05
RECONFIG_SWAP_KINDS = ("lif_core", "router", "pooling")


def bench_reconfig(vm_counts=tuple(range(1, 17))) -> str:
    """Total reconfiguration time under full-only vs partial-only policies.

    For each VM count, every VM runs the identical module-exchange
    schedule (one exchange per catalog kind); the two policies differ only
    in reconfiguration mode.
    """
    for count in vm_counts:
        if count < 1:
            raise ValueError("vm counts must be >= 1")
    out = io.StringIO()
    out.write("vm_count,full_ns,partial_ns\n")
    for count in vm_counts:
        totals = {}
        for mode in (ReconfigMode.FULL, ReconfigMode.PARTIAL):
            engine = Engine()
            fabric = Fabric()
            hv = Hypervisor(engine, fabric)
            catalog = default_module_catalog(fabric.config)
            vm_ids = _create_vms(
                hv, fabric.config.total.share(RECONFIG_SLOT_SHARE), count, "vm count"
            )
            for vm_id in vm_ids:
                for kind in RECONFIG_SWAP_KINDS:
                    hv.exchange_module(vm_id, catalog[kind], mode)
            engine.run()
            totals[mode] = hv.reconfig_accum[mode]
        out.write(
            f"{count},{totals[ReconfigMode.FULL]},{totals[ReconfigMode.PARTIAL]}\n"
        )
    return out.getvalue()


@dataclass
class RunResult:
    metrics_csv: str
    engine: Engine
    scheduler: Scheduler
    metrics: MetricsCollector
    driver: IoDriver
    hypervisor: Hypervisor
    executor: SpikingExecutor


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a full mixed scenario: VMs, tasks, transfers, reconfigs."""
    engine = Engine(scenario.seed)
    fabric = Fabric(scenario.fabric)
    driver = IoDriver(engine, scenario.link)
    hv = Hypervisor(engine, fabric, driver, scenario.reconfig)
    executor = SpikingExecutor(engine)
    metrics = MetricsCollector(engine, fabric, driver, hv, scenario.energy, executor)

    spiking_defs: dict[str, TaskDef] = {
        t.id: t for t in scenario.tasks if t.mode == "spiking"
    }

    def duration_fn(task: TaskSpec, cores: int) -> int:
        base = exec_time(task, cores, scenario.core_rate)
        tdef = spiking_defs.get(task.id)
        if tdef is None:
            return base
        interval = max(1, round_half_up(base / tdef.steps))
        return tdef.steps * interval

    def on_start(run) -> None:
        tdef = spiking_defs.get(run.task.id)
        if tdef is None:
            return
        interval = run.duration // tdef.steps
        executor.launch(
            task_id=run.task.id,
            steps=tdef.steps,
            input_rate=tdef.input_rate,
            fan_in=tdef.fan_in,
            interval=interval,
            at=run.start,
            vm=run.vm_id,
        )

    def on_migrate(run) -> None:
        job = executor.active.get(run.task.id)
        if job is None:
            return
        # re-pace the remaining steps into the post-penalty window
        resume = engine.now() + scenario.migration_penalty_ns
        span = max(run.finish - resume, job.remaining)
        executor.move(job, run.vm_id, resume, span // job.remaining)

    scheduler = Scheduler(
        engine,
        core_rate=scenario.core_rate,
        tick_period=scenario.tick_period_ns,
        migration_penalty=scenario.migration_penalty_ns,
        duration_fn=duration_fn,
        on_start=on_start,
        on_migrate=on_migrate,
    )

    for vmdef in scenario.vms:
        hv.create_vm(vmdef.request, vmdef.cores, vmdef.id)
        scheduler.add_vm(vmdef.id, hv.vms[vmdef.id].cores)

    for tdef in scenario.tasks:
        deadline = tdef.deadline_ns
        spec = profile(
            tdef.id,
            tdef.steps,
            tdef.input_rate,
            tdef.fan_in,
            tdef.data_size,
            scenario.fabric.neurons_per_core,
            deadline=deadline,
            arrival=tdef.arrival_ns,
        )
        scheduler.submit(spec)

    for tr in scenario.transfers:
        engine.schedule(
            tr.start_ns,
            "TransferStart",
            fn=driver.stream(
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
        driver=driver,
        hypervisor=hv,
        executor=executor,
    )

