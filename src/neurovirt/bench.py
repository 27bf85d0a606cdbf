"""Benchmark experiments and the mixed-scenario runner.

Every experiment is a real event-driven simulation (no closed-form
shortcuts in the measured columns) and is a pure function of its seed, so
repeated runs emit byte-identical CSV.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass

from neurovirt.engine import Engine, SimEvent, round_half_up
from neurovirt.fabric import Fabric, FabricConfig, InsufficientResources, ResourceVector
from neurovirt.iodriver import GIB, IoDriver, LinkModel, effective_throughput
from neurovirt.metrics import MetricsCollector, energy_for_accelerators, export_samples
from neurovirt.sched import DEFAULT_TICK_PERIOD_NS, Scheduler, TaskSpec, exec_time, profile
from neurovirt.scenario import Scenario, TaskDef, default_module_catalog
# make_core_state and step_core stay bound here, since perfbench/tracer.py
# patches bench.make_core_state and bench.step_core by name
from neurovirt.snn import LifParams, make_core_state, step_core, step_sorted  # noqa: F401
from neurovirt.virt import Hypervisor, ReconfigMode

# sizes from latency-dominated to saturated, powers of four
DEFAULT_SIZES = tuple(4096 * 4**k for k in range(10))  # 4 KiB .. 1 GiB
DEFAULT_VM_COUNTS = (1, 2, 4)

WARMUP_TRANSFERS = 2
MEASURED_TRANSFERS = 8


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    # shortest round-trip form: parsing the CSV recovers the exact float
    return repr(x)


def bench_throughput(vm_counts=DEFAULT_VM_COUNTS, sizes=DEFAULT_SIZES, seed: int = 0) -> str:
    """Aggregate Gib/s per (vm_count, transfer size), measured in simulation.

    Each VM streams back-to-back transfers; throughput is taken over each
    VM's post-warmup completion span, which converges to the pipe model's
    closed form as sizes grow.
    """
    link = LinkModel()
    for count in vm_counts:
        if count < 1:
            raise ConfigError(f"vm count {count} below link model domain")
    out = io.StringIO()
    out.write("vm_count,transfer_bytes,measured_gibs,model_gibs\n")
    for vm_count in vm_counts:
        for size in sizes:
            measured = _measure_cell(vm_count, size, link, seed)
            model = effective_throughput(size, vm_count, link)
            out.write(f"{vm_count},{size},{_fmt(measured)},{_fmt(model)}\n")
    return out.getvalue()


def _measure_cell(vm_count: int, size: int, link: LinkModel, seed: int) -> float:
    engine = Engine(seed)
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


@dataclass
class _SpikingTask:
    """One spiking workload being stepped on a core."""

    task_id: str
    stream: str
    state: object
    n_inputs: int
    n_neurons: int
    rate: int
    remaining: int
    interval: int
    vm: str | None
    detail: str
    next_event: SimEvent | None = None
    # input ids of the pre-drawn steps, one sorted tuple per step
    picks: Iterator[tuple[int, ...]] = iter(())


# pool cells per refill of a task's input picks: bounds the look-ahead
# memory per active task whatever its step count or fan-in
INPUT_BLOCK = 4096


class SpikingExecutor:
    """Steps LIF workloads on the engine and counts synaptic ops."""

    def __init__(self, engine: Engine, params: LifParams | None = None):
        self.engine = engine
        self.params = params if params is not None else LifParams()
        self.active: dict[str, _SpikingTask] = {}
        self.total_synops = 0
        self.output_spikes = 0

    def launch(
        self,
        task_id: str,
        steps: int,
        input_rate: int,
        fan_in: int,
        interval: int,
        at: int,
        vm: str | None = None,
        stream: str | None = None,
    ) -> None:
        n_inputs = max(fan_in, input_rate)
        stream = stream if stream is not None else f"task/{task_id}"
        state = make_core_state(
            n_inputs, fan_in, rng=self.engine.rng, stream=f"{stream}/weights"
        )
        job = _SpikingTask(
            task_id=task_id,
            stream=f"{stream}/inputs",
            state=state,
            n_inputs=n_inputs,
            n_neurons=fan_in,
            rate=input_rate,
            remaining=steps,
            interval=interval,
            vm=vm,
            detail=f"task={task_id}",
        )
        self.active[task_id] = job
        self._schedule_step(job, at)

    def _schedule_step(self, job: _SpikingTask, at: int) -> None:
        # a closure per step, not one kept on the job: job -> next_event ->
        # closure -> job is then the only cycle, and _step breaks it when the
        # job finishes, so a finished job is freed at once
        job.next_event = self.engine.schedule(
            at, "SpikeStep", fn=lambda: self._step(job), detail=job.detail, vm=job.vm
        )

    def _pick_inputs(self, job: _SpikingTask) -> tuple[int, ...]:
        ids = next(job.picks, None)
        if ids is None:
            job.picks = self._draw_picks(job)
            ids = next(job.picks)
        return ids

    def _draw_picks(self, job: _SpikingTask) -> Iterator[tuple[int, ...]]:
        """Input ids of the next block of steps: per step, the sorted prefix
        of a partial Fisher-Yates shuffle of ``range(n_inputs)`` whose swap
        ``k`` targets ``k + floor(u * (n_inputs - k))``.

        The stream is the task's own, so drawing ahead leaves each value
        and its order unchanged. All steps of a block shuffle together: the
        pool holds position ``p`` of step ``s`` at ``p * steps + s``, and
        swap ``k`` is one gather and one scatter across the block, with at
        most ``max(INPUT_BLOCK, n_inputs)`` cells whatever the fan-in.
        """
        import numpy as np

        n, rate = job.n_inputs, job.rate
        steps = min(job.remaining, max(1, INPUT_BLOCK // n))
        u = self.engine.rng.values(job.stream, steps * rate).reshape(steps, rate)
        k = np.arange(rate)
        there = (k + (u * (n - k)).astype(np.int64)).T * steps + np.arange(steps)
        here = np.arange(rate * steps).reshape(rate, steps)
        forth = np.concatenate((here, there), axis=1)
        back = np.concatenate((there, here), axis=1)
        pool = np.repeat(np.arange(n), steps)
        for to, frm in zip(forth, back):
            pool[to] = pool[frm]
        picks = np.sort(pool[: rate * steps].reshape(rate, steps).T, axis=1)
        return map(tuple, picks.tolist())

    def _step(self, job: _SpikingTask) -> None:
        ids = self._pick_inputs(job)
        self.output_spikes += len(step_sorted(job.state, ids, self.params))
        self.total_synops += job.rate * job.n_neurons
        job.remaining -= 1
        if job.remaining > 0:
            self._schedule_step(job, self.engine.now() + job.interval)
        else:
            job.next_event = None
            del self.active[job.task_id]

    def move(self, job: _SpikingTask, new_vm: str, resume_at: int, interval: int) -> None:
        """Re-home an active workload after a migration, stepping every
        ``interval`` ns from ``resume_at``."""
        self.engine.cancel(job.next_event)
        job.vm = new_vm
        job.interval = max(1, interval)
        self._schedule_step(job, max(resume_at, self.engine.now()))


def _create_vms(hv: Hypervisor, request: ResourceVector, count: int, what: str) -> list[str]:
    """``count`` one-core VMs of ``request``; a ConfigError names the
    count when the experiment's fabric holds fewer."""
    vm_ids = []
    for held in range(count):
        try:
            vm_ids.append(hv.create_vm(request, cores=1))
        except InsufficientResources as exc:
            raise ConfigError(f"{what} {count} does not fit: the fabric holds {held}") from exc
    return vm_ids


REFERENCE_WORKLOAD = dict(steps=50, input_rate=4, fan_in=32, interval=1_000)


def bench_energy(max_accelerators: int = 20, seed: int = 0) -> str:
    """Energy per provisioned accelerator count, 1..max.

    Each row runs an n-accelerator simulation of the fixed reference
    spiking workload; the energy column is the provisioned-accelerator
    energy for that workload unit, synaptic ops are the measured compute.
    """
    if max_accelerators < 1:
        raise ConfigError("accelerator count must be >= 1")
    # a wider grid than the default so twenty single-core accelerators fit
    config = FabricConfig(
        neurocore_count=32,
        core_footprint=FabricConfig().total.scaled(1, 64),
        neurons_per_core=REFERENCE_WORKLOAD["fan_in"],
    )
    out = io.StringIO()
    out.write("accelerators,energy_mj,synaptic_ops\n")
    for n in range(1, max_accelerators + 1):
        engine = Engine(seed)
        fabric = Fabric(config)
        hv = Hypervisor(engine, fabric)
        executor = SpikingExecutor(engine)
        vm_ids = _create_vms(hv, config.total.scaled(1, 32), n, "accelerator count")
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


def bench_reconfig(vm_counts=tuple(range(1, 17)), seed: int = 0) -> str:
    """Total reconfiguration time under full-only vs partial-only policies.

    For each VM count, every VM runs the identical module-exchange
    schedule (one exchange per catalog kind); the two policies differ only
    in reconfiguration mode.
    """
    for count in vm_counts:
        if count < 1:
            raise ConfigError("vm counts must be >= 1")
    out = io.StringIO()
    out.write("vm_count,full_ns,partial_ns\n")
    for count in vm_counts:
        totals = {}
        for mode in (ReconfigMode.FULL, ReconfigMode.PARTIAL):
            engine = Engine(seed)
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
        hv.create_vm(vmdef.request, vmdef.priority, vmdef.cores, vmdef.id)
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

