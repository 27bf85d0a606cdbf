"""Task profiling and the dynamic service scheduler.

Ordering policy per scheduler tick: real-time tasks earliest-deadline
first, then batch tasks in arrival order; each task is list-scheduled
onto the lowest-id VM that has a free core.
When a running real-time task is projected to miss its deadline and some
other VM has idle cores that would make the deadline feasible again, the
task migrates there once (a fixed penalty models state transfer).
A spiking task also runs its steps, on the scheduler's own executor and on
the VM it is placed on, every ``max(1, round_half_up(ticks / steps))`` ns,
where ``ticks`` is its Amdahl time rounded up. A migration re-paces the
remaining steps to ``window // remaining`` ns, at least 1, where ``window``
runs from the end of the penalty to the new finish.
"""

from __future__ import annotations

import heapq
import math

from neurovirt.engine import Engine, SimEvent, round_half_up
from neurovirt.record import FrozenRecord, Record
from neurovirt.snn import SpikingExecutor, workload_cost

DEFAULT_TICK_PERIOD_NS = 100_000  # 100 us simulated
DEFAULT_MIGRATION_PENALTY_NS = 1_000_000  # 1 ms of state transfer
DEFAULT_CORE_RATE = 1  # synaptic ops per tick per core


class TaskSpec(FrozenRecord):
    __slots__ = ("id", "compute_demand", "parallelizability", "deadline", "arrival", "spiking")

    def __init__(
        self,
        id: str,
        compute_demand: int,  # synaptic ops
        parallelizability: float,  # fraction in [0, 1]
        deadline: int | None,  # absolute ns; None = batch
        arrival: int = 0,
        spiking: tuple[int, int, int] | None = None,  # (steps, input_rate, fan_in)
    ):
        setattr_ = object.__setattr__
        setattr_(self, "id", id)
        setattr_(self, "compute_demand", compute_demand)
        setattr_(self, "parallelizability", parallelizability)
        setattr_(self, "deadline", deadline)
        setattr_(self, "arrival", arrival)
        setattr_(self, "spiking", spiking)

    @property
    def is_realtime(self) -> bool:
        return self.deadline is not None


class Assignment(FrozenRecord):
    __slots__ = ("task_id", "vm_id", "cores", "start")

    def __init__(self, task_id: str, vm_id: str, cores: int, start: int):
        setattr_ = object.__setattr__
        setattr_(self, "task_id", task_id)
        setattr_(self, "vm_id", vm_id)
        setattr_(self, "cores", cores)
        setattr_(self, "start", start)


class Migration(FrozenRecord):
    __slots__ = ("task_id", "from_vm", "to_vm", "at")

    def __init__(self, task_id: str, from_vm: str, to_vm: str, at: int):
        setattr_ = object.__setattr__
        setattr_(self, "task_id", task_id)
        setattr_(self, "from_vm", from_vm)
        setattr_(self, "to_vm", to_vm)
        setattr_(self, "at", at)


def profile(
    task_id: str,
    steps: int,
    input_rate: int,
    fan_in: int,
    neurons_per_core: int,
    deadline: int | None = None,
    arrival: int = 0,
    spiking: bool = False,
) -> TaskSpec:
    """Assess a raw task description: compute demand plus how much of it
    can spread across cores (tasks wider than one core parallelize). A
    ``spiking`` task keeps its shape, so the scheduler can run its steps."""
    demand = workload_cost(steps, input_rate, fan_in)
    parallelizability = min(1.0, fan_in / neurons_per_core)
    shape = (steps, input_rate, fan_in) if spiking else None
    return TaskSpec(task_id, demand, parallelizability, deadline, arrival, shape)


def exec_time(task: TaskSpec, cores: int, core_rate: int) -> int:
    """Amdahl-style execution time in ticks, rounded up; a spiking task's
    is then rounded to a whole number of equal steps."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    p = task.parallelizability
    ticks = math.ceil(task.compute_demand * ((1.0 - p) + p / cores) / core_rate)
    if task.spiking is None:
        return ticks
    steps = task.spiking[0]
    return steps * max(1, round_half_up(ticks / steps))


class SchedVm(Record):
    __slots__ = ("id", "cores_total", "cores_free")

    def __init__(self, id: str, cores_total: int, cores_free: int):
        self.id = id
        self.cores_total = cores_total
        self.cores_free = cores_free


class _Running(Record):
    __slots__ = ("task", "vm_id", "cores", "finish", "duration", "done_event", "migrated")

    def __init__(self, task: TaskSpec, vm_id: str, cores: int, finish: int, duration: int,
                 done_event: SimEvent | None = None, migrated: bool = False):
        self.task = task
        self.vm_id = vm_id
        self.cores = cores
        self.finish = finish
        self.duration = duration
        self.done_event = done_event
        self.migrated = migrated


class Scheduler:
    """Tick-driven list scheduler over a set of VMs.

    A spiking task launches on ``self.executor`` when placed and steps
    every ``duration // steps`` ns, which :func:`exec_time` makes exact; a
    migration resumes its remaining steps after the penalty, every
    ``(new finish - resume) // remaining`` ns, at least 1.

    A tick costs O(placed · log backlog): ready tasks wait in two heaps
    (real-time by deadline, batch by arrival), the VMs are kept sorted by
    id, and the tick stops once no VM has a free core. Rebalancing visits
    only the running real-time tasks that are projected late.
    """

    def __init__(
        self,
        engine: Engine,
        core_rate: int = DEFAULT_CORE_RATE,
        tick_period: int = DEFAULT_TICK_PERIOD_NS,
        migration_penalty: int = DEFAULT_MIGRATION_PENALTY_NS,
    ):
        # a zero period would re-arm the tick at one instant forever
        if tick_period < 1 or core_rate <= 0 or migration_penalty < 0:
            raise ValueError("tick_period must be >= 1, core_rate > 0, migration_penalty >= 0")
        self.engine = engine
        self.core_rate = core_rate
        self.tick_period = tick_period
        self.migration_penalty = migration_penalty
        self.executor = SpikingExecutor(engine)
        self.vms: dict[str, SchedVm] = {}
        self._vm_order: list[SchedVm] = []  # self.vms sorted by id
        # ready heaps: (deadline, arrival, id, task) and (arrival, id, task);
        # live ids are unique, so no two entries compare equal
        self._ready_rt: list[tuple] = []
        self._ready_batch: list[tuple] = []
        self._live: set[str] = set()  # ids submitted and not yet finished
        self.running: dict[str, _Running] = {}
        # running real-time tasks, not yet migrated, projected past deadline
        self._late: set[str] = set()
        self.finished: dict[str, int] = {}
        self.assignments: list[Assignment] = []
        self.migrations: list[Migration] = []
        # the one SchedulerTick event, made by the first _ensure_tick and
        # re-armed by each later one
        self._tick: SimEvent | None = None

    def add_vm(self, vm_id: str, cores: int) -> None:
        self.vms[vm_id] = SchedVm(vm_id, cores, cores)
        self._vm_order = [self.vms[key] for key in sorted(self.vms)]

    def submit(self, task: TaskSpec) -> None:
        """Enqueue a task; arrival in the future is honored via an event.

        Raises ValueError for an id that was submitted and has not finished,
        and for a spiking task that its executor would not launch.
        """
        if task.id in self._live:
            raise ValueError(f"task id {task.id} is already submitted")
        if task.spiking is not None:  # refused now, before it takes a core
            self.executor.check_launch(task.id, *task.spiking)
        self._live.add(task.id)
        if task.arrival > self.engine.now():
            self.engine.schedule(
                task.arrival,
                "TaskArrival",
                fn=lambda: self._arrive(task),
                detail=f"task={task.id}",
                stallable=False,
            )
        else:
            self._arrive(task)

    def _arrive(self, task: TaskSpec) -> None:
        if task.is_realtime:
            heapq.heappush(self._ready_rt, (task.deadline, task.arrival, task.id, task))
        else:
            heapq.heappush(self._ready_batch, (task.arrival, task.id, task))
        self._ensure_tick(at_now=True)

    def _ensure_tick(self, at_now: bool = False) -> None:
        tick = self._tick
        at = self.engine.now() + (0 if at_now else self.tick_period)
        if tick is None:
            self._tick = self.engine.schedule(at, "SchedulerTick", fn=self._on_tick)
        elif tick.fire_at is None:  # not already pending
            self.engine.reschedule(tick, at)

    def _on_tick(self) -> None:
        self.schedule_tick()
        self.rebalance_on_contention()
        if self._ready_rt or self._ready_batch or self.running:
            self._ensure_tick()

    def _grant(self, task: TaskSpec, vm: SchedVm) -> int:
        wanted = max(1, math.ceil(task.parallelizability * vm.cores_total))
        return max(1, min(vm.cores_free, wanted))

    def schedule_tick(self) -> None:
        """Assign ready tasks to VMs; unplaceable tasks stay buffered."""
        now = self.engine.now()
        # cores_free only falls within a tick (TaskDone is an event and
        # a launch frees nothing), so the first VM with a free core only
        # moves forward in id order and the tick ends when none is left
        vms = self._vm_order
        at = 0
        while self._ready_rt or self._ready_batch:
            while at < len(vms) and vms[at].cores_free < 1:
                at += 1
            if at == len(vms):
                break
            vm = vms[at]
            task = heapq.heappop(self._ready_rt or self._ready_batch)[-1]
            cores = self._grant(task, vm)
            duration = exec_time(task, cores, self.core_rate)
            finish = now + duration
            vm.cores_free -= cores
            run = _Running(task, vm.id, cores, finish, duration)
            self._schedule_done(run)
            if task.spiking is not None:
                interval = duration // task.spiking[0]
                self.executor.launch(task.id, *task.spiking, interval, at=now, vm=vm.id)
            self.running[task.id] = run
            # a task's lateness is fixed here and only migration changes it
            if task.is_realtime and finish > task.deadline:
                self._late.add(task.id)
            self.assignments.append(Assignment(task.id, vm.id, cores, now))

    def _schedule_done(self, run: _Running) -> None:
        task_id = run.task.id
        migrated = ";migrated=1" if run.migrated else ""
        run.done_event = self.engine.schedule(
            run.finish,
            "TaskDone",
            fn=lambda: self._task_done(task_id),
            detail=f"task={task_id};vm={run.vm_id}{migrated}",
            vm=run.vm_id,
        )

    def _task_done(self, task_id: str) -> None:
        run = self.running.pop(task_id)
        self._live.remove(task_id)
        self._late.discard(task_id)
        self.vms[run.vm_id].cores_free += run.cores
        self.finished[task_id] = self.engine.now()

    def rebalance_on_contention(self) -> None:
        """Migrate late real-time tasks to VMs whose idle cores restore
        deadline feasibility; useless migrations are forbidden."""
        now = self.engine.now()
        for task_id in sorted(self._late):
            run = self.running[task_id]
            if run.finish <= now:
                # a stall moved its TaskDone past run.finish, so any move
                # would have to finish in the past
                continue
            task = run.task
            best: tuple[int, str, int] | None = None  # (finish, vm_id, cores)
            for vm in self._vm_order:
                vm_id = vm.id
                if vm_id == run.vm_id or vm.cores_free < 1:
                    continue
                cores = self._grant(task, vm)
                remaining = run.finish - now
                fraction = remaining / run.duration
                new_remaining = (
                    round_half_up(fraction * exec_time(task, cores, self.core_rate))
                    + self.migration_penalty
                )
                new_finish = now + new_remaining
                if new_finish > task.deadline or new_finish >= run.finish:
                    continue
                if best is None or (new_finish, vm_id) < (best[0], best[1]):
                    best = (new_finish, vm_id, cores)
            if best is None:
                continue
            new_finish, to_vm, cores = best
            self.engine.cancel(run.done_event)
            self.vms[run.vm_id].cores_free += run.cores
            self.vms[to_vm].cores_free -= cores
            self.migrations.append(Migration(task_id, run.vm_id, to_vm, now))
            run.vm_id = to_vm
            run.cores = cores
            run.duration = new_finish - now
            run.finish = new_finish
            run.migrated = True
            self._late.discard(task_id)
            self._schedule_done(run)
            job = self.executor.active.get(task_id)
            if job is not None:
                resume = now + self.migration_penalty
                self.executor.move(job, to_vm, resume, (new_finish - resume) // job.remaining)

    def makespan(self) -> int:
        return max(self.finished.values(), default=0)
