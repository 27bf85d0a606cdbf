import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from neurovirt.engine import Engine, round_half_up
from neurovirt.sched import (
    DEFAULT_TICK_PERIOD_NS,
    Assignment,
    Migration,
    Scheduler,
    TaskSpec,
    _Running,
    exec_time,
    profile,
)
from neurovirt.snn import workload_cost

TICK = DEFAULT_TICK_PERIOD_NS


def test_profile_examples():
    spec = profile("t", steps=100, input_rate=8, fan_in=256, neurons_per_core=256)
    assert spec.compute_demand == 204_800
    assert spec.parallelizability == 1.0
    assert profile("t", 1, 1, 64, 256).parallelizability == 0.25
    assert profile("t", 1, 1, 1, 256).compute_demand == 1


def test_exec_time_examples():
    serial = TaskSpec("s", 1000, 0.0, None)
    assert exec_time(serial, 1, 1) == exec_time(serial, 8, 1) == 1000
    parallel = TaskSpec("p", 1000, 1.0, None)
    assert exec_time(parallel, 4, 1) == 250
    half = TaskSpec("h", 1000, 0.5, None)
    assert exec_time(half, 4, 1) == 625
    # a spiking task's time is a whole number of equal steps, each >= 1 ns:
    # 1000 ticks over 3 steps round down, over 400 half up, over 3000 to 1
    for steps, p, cores, want in ((8, 0.0, 1, 1000), (3, 0.0, 1, 999), (400, 0.0, 1, 1200),
                                  (3000, 0.0, 1, 3000), (3, 1.0, 4, 249)):
        spiking = TaskSpec("k", 1000, p, None, spiking=(steps, 1, 1))
        assert exec_time(spiking, cores, 1) == want and want % steps == 0
    with pytest.raises(ValueError):
        exec_time(serial, 0, 1)


def _run(tasks, vm_cores, seed=0):
    eng = Engine(seed=seed)
    sch = Scheduler(eng)
    for i, cores in enumerate(vm_cores):
        sch.add_vm(f"vm{i}", cores)
    for task in tasks:
        sch.submit(task)
    eng.run()
    return sch


def _spike_ticks(eng):
    return [int(line.split(",")[0]) for line in eng.trace if line.split(",")[2] == "SpikeStep"]


def test_a_spiking_task_runs_its_steps_where_it_is_placed():
    # no runner: the scheduler launches the steps on its own executor
    eng = Engine(seed=0, trace=True)
    sch = Scheduler(eng)
    sch.add_vm("vm0", 2)
    spec = profile("s", steps=50, input_rate=4, fan_in=32, neurons_per_core=256,
                   arrival=TICK, spiking=True)
    sch.submit(spec)
    sch.submit(profile("a", steps=50, input_rate=4, fan_in=32, neurons_per_core=256))
    eng.run()
    placed = {a.task_id: a for a in sch.assignments}["s"]
    duration = sch.finished["s"] - placed.start
    assert duration == exec_time(spec, placed.cores, sch.core_rate)
    # the analytic twin launches nothing, so every step is the spiking task's
    assert sch.executor.total_synops == workload_cost(50, 4, 32)
    ticks = _spike_ticks(eng)
    interval = duration // 50
    assert ticks == [placed.start + k * interval for k in range(50)]
    assert interval * 50 == duration
    assert sch.executor.active == {}


def test_a_migrated_spiking_task_whose_window_is_short_steps_every_ns():
    # s (1000 steps, 4 ns each on vm0's one core, 1 ns on vm1's four) is
    # placed late on vm0 while b holds vm1; vm0 then stalls, so at t=200,
    # when b is done, 962 steps remain but the scheduler's stale finish
    # gives them a post-penalty window of only 950 ns
    eng = Engine(seed=0, trace=True)
    sch = Scheduler(eng, tick_period=100, migration_penalty=100)
    sch.add_vm("vm0", 1)
    sch.add_vm("vm1", 4)
    sch.submit(profile("s", steps=1000, input_rate=1, fan_in=4, neurons_per_core=4,
                       deadline=2000, spiking=True))
    sch.submit(TaskSpec("b", 800, 1.0, None))
    eng.run_until(150)
    assert sch.migrations == [] and sch.executor.active["s"].remaining == 962
    eng.postpone_pending(1000, vm="vm0")
    eng.run()
    assert sch.migrations == [Migration("s", "vm0", "vm1", 200)]
    assert sch.finished["s"] == 200 + 950 + 100
    ticks = _spike_ticks(eng)
    assert ticks[:38] == list(range(0, 150, 4))
    assert ticks[38:] == list(range(300, 300 + 962))
    assert sch.executor.total_synops == workload_cost(1000, 1, 4)


@pytest.mark.parametrize("spec, message", [
    # a finished spiking id: its steps and stream are already taken
    (profile("t", 5, 1, 4, 4, arrival=1, spiking=True), "task t is already launched"),
    # shapes the executor cannot step, including one profile accepts
    (profile("u", 5, 1, 0, 4, spiking=True), "must be >= 1"),
    (TaskSpec("u", 0, 0.0, None, spiking=(0, 1, 4)), "must be >= 1"),
    (TaskSpec("u", 0, 0.0, None, spiking=(5, -1, 4)), "input_rate >= 0"),
], ids=["finished-spiking-id", "profiled-fan-in-0", "no-steps", "negative-rate"])
def test_a_spiking_task_the_executor_would_refuse_is_refused_at_submit(spec, message):
    eng = Engine(seed=0)
    sch = Scheduler(eng)
    sch.add_vm("vm0", 1)
    sch.submit(profile("t", 5, 1, 4, 4, spiking=True))
    eng.run()
    with pytest.raises(ValueError, match=message):
        sch.submit(spec)
    # nothing was queued, and the VM keeps its core
    eng.run()
    assert sch.vms["vm0"].cores_free == 1
    assert [a.task_id for a in sch.assignments] == ["t"]
    # the id is not left live: an analytic task may take it
    sch.submit(TaskSpec(spec.id, 4, 0.0, None, arrival=eng.now()))
    eng.run()
    assert [a.task_id for a in sch.assignments] == ["t", spec.id]


def test_single_task_assigned_immediately():
    task = TaskSpec("t0", 5 * TICK, 0.0, None, arrival=0)
    sch = _run([task], [1])
    assert sch.assignments[0].task_id == "t0"
    assert sch.assignments[0].start == 0
    assert sch.finished["t0"] == 5 * TICK


def test_the_scheduler_keeps_one_tick_event():
    eng = Engine(seed=0, trace=True)
    sch = Scheduler(eng)
    sch.add_vm("vm0", 1)
    # every queueing of an event passes through reschedule, schedule's too
    with mock.patch.object(eng, "reschedule", wraps=eng.reschedule) as arm:
        for i in range(3):
            sch.submit(TaskSpec(f"t{i}", 3 * TICK, 0.0, None, arrival=i * TICK // 2))
        eng.run()
    ticks = [call.args[0] for call in arm.call_args_list
             if call.args[0].kind == "SchedulerTick"]
    assert len(ticks) == [line.split(",")[2] for line in eng.trace].count("SchedulerTick") > 3
    assert all(ev is ticks[0] for ev in ticks)
    assert len(sch.finished) == 3


@pytest.mark.parametrize("bad", [dict(tick_period=0), dict(core_rate=0), dict(core_rate=-1),
                                 dict(migration_penalty=-1)])
def test_scheduler_refuses_a_period_rate_or_penalty_that_cannot_run(bad):
    # at tick_period=0, two long tasks on a 1-core VM re-arm the tick at one
    # instant forever; core_rate=0 divides by zero at the first assignment
    eng = Engine(seed=0)
    with pytest.raises(ValueError, match="tick_period must be >= 1, core_rate > 0"):
        Scheduler(eng, **bad)
    assert eng.pending() == []


def test_realtime_assigned_before_batch_on_single_slot():
    rt = TaskSpec("rt", 5 * TICK, 0.0, deadline=100 * TICK)
    batch = TaskSpec("batch", 5 * TICK, 0.0, None)
    sch = _run([batch, rt], [1])
    first, second = sch.assignments
    assert first.task_id == "rt"
    assert second.task_id == "batch"
    assert first.start <= second.start


def test_no_batch_starts_before_feasible_realtime_at_same_tick():
    tasks = [
        TaskSpec("b1", 3 * TICK, 0.0, None),
        TaskSpec("b2", 3 * TICK, 0.0, None),
        TaskSpec("r1", 3 * TICK, 0.0, deadline=50 * TICK),
    ]
    sch = _run(tasks, [1, 1])
    start_of = {a.task_id: a.start for a in sch.assignments}
    assert all(start_of["r1"] <= start_of[b] for b in ("b1", "b2"))


def test_cores_granted_never_exceed_owned():
    tasks = [TaskSpec(f"t{i}", 4 * TICK, 1.0, None) for i in range(6)]
    sch = _run(tasks, [2, 3])
    for a in sch.assignments:
        assert 1 <= a.cores <= sch.vms[a.vm_id].cores_total


def test_scheduler_output_deterministic():
    tasks = [
        TaskSpec(f"t{i}", (i + 1) * TICK, 0.5, None, arrival=(i % 3) * TICK)
        for i in range(5)
    ]
    a = _run(list(tasks), [1, 2]).assignments
    b = _run(list(tasks), [1, 2]).assignments
    assert a == b


def test_migration_moves_late_rt_task_to_capable_idle_vm():
    # vm0 owns one core, vm1 owns four; a fully parallel RT task lands on
    # vm0 first and is projected late there but feasible on vm1
    task = TaskSpec("rt", 4_000_000, 1.0, deadline=2_500_000)
    sch = _run([task], [1, 4])
    assert len(sch.migrations) == 1
    mig = sch.migrations[0]
    assert (mig.from_vm, mig.to_vm) == ("vm0", "vm1")
    assert sch.finished["rt"] <= task.deadline


def test_no_migration_when_deadline_safe():
    task = TaskSpec("rt", 4 * TICK, 1.0, deadline=1_000 * TICK)
    sch = _run([task], [1, 4])
    assert sch.migrations == []


def test_no_migration_when_nothing_would_help():
    # the only other VM is identical, so moving strictly loses the penalty
    task = TaskSpec("rt", 4_000_000, 1.0, deadline=2_500_000)
    sch = _run([task], [1, 1])
    assert sch.migrations == []
    # late tasks surface via finish time, not errors
    assert sch.finished["rt"] > task.deadline


def test_at_most_one_migration_per_task():
    task = TaskSpec("rt", 8_000_000, 1.0, deadline=2_000_000)
    sch = _run([task], [1, 2, 4])
    assert len(sch.migrations) <= 1


def _optimal_makespan(tasks, n_vms, core_rate=1):
    """Exhaustive search over assignments and per-VM orders."""
    best = None
    for assignment in itertools.product(range(n_vms), repeat=len(tasks)):
        worst = 0
        for vm in range(n_vms):
            mine = [t for t, a in zip(tasks, assignment) if a == vm]
            if not mine:
                continue
            vm_best = None
            for order in itertools.permutations(mine):
                t = 0
                for task in order:
                    start = max(t, task.arrival)
                    t = start + exec_time(task, 1, core_rate)
                vm_best = t if vm_best is None else min(vm_best, t)
            worst = max(worst, vm_best)
        best = worst if best is None else min(best, worst)
    return best


def _random_instance(rng):
    n_tasks = rng.randint(1, 5)
    n_vms = rng.randint(1, 2)
    tasks = []
    for i in range(n_tasks):
        demand = rng.randint(1, 20) * TICK
        arrival = rng.randint(0, 10) * TICK
        if rng.random() < 0.4:
            deadline = arrival + rng.randint(5, 40) * TICK
        else:
            deadline = None
        tasks.append(TaskSpec(f"t{i}", demand, 0.0, deadline, arrival))
    return tasks, n_vms


def test_makespan_within_twice_optimal_sample():
    rng = random.Random(1234)
    for _ in range(60):
        tasks, n_vms = _random_instance(rng)
        sch = _run(list(tasks), [1] * n_vms)
        assert len(sch.finished) == len(tasks)
        makespan = sch.makespan()
        optimum = _optimal_makespan(tasks, n_vms)
        assert makespan <= 2 * optimum


class _Rescanning(Scheduler):
    """The same policy computed by rescanning, kept as the oracle: each
    tick re-sorts the whole backlog and every VM for each ready task, and
    rebalancing visits every running task."""

    def __init__(self, engine, **kwargs):
        super().__init__(engine, **kwargs)
        self.ready = []

    def _arrive(self, task):
        self.ready.append(task)
        self._ensure_tick(at_now=True)

    def _on_tick(self):
        self.schedule_tick()
        self.rebalance_on_contention()
        if self.ready or self.running:
            self._ensure_tick()

    def schedule_tick(self):
        now = self.engine.now()
        rt = sorted((t for t in self.ready if t.is_realtime),
                    key=lambda t: (t.deadline, t.arrival, t.id))
        batch = sorted((t for t in self.ready if not t.is_realtime),
                       key=lambda t: (t.arrival, t.id))
        for task in rt + batch:
            hosts = [vm for _, vm in sorted(self.vms.items()) if vm.cores_free >= 1]
            if not hosts:
                continue
            vm = hosts[0]
            cores = self._grant(task, vm)
            finish = now + exec_time(task, cores, self.core_rate)
            vm.cores_free -= cores
            done = self.engine.schedule(
                finish, "TaskDone", fn=lambda tid=task.id: self._task_done(tid),
                detail=f"task={task.id};vm={vm.id}", vm=vm.id)
            self.running[task.id] = _Running(task, vm.id, cores, finish, finish - now,
                                             done)
            self.ready.remove(task)
            self.assignments.append(Assignment(task.id, vm.id, cores, now))

    def rebalance_on_contention(self):
        now = self.engine.now()
        for task_id in sorted(self.running):
            run = self.running[task_id]
            task = run.task
            if not task.is_realtime or run.migrated or run.finish <= task.deadline:
                continue
            best = None
            for vm_id, vm in sorted(self.vms.items()):
                if vm_id == run.vm_id or vm.cores_free < 1:
                    continue
                cores = self._grant(task, vm)
                fraction = (run.finish - now) / run.duration
                new_finish = now + self.migration_penalty + round_half_up(
                    fraction * exec_time(task, cores, self.core_rate))
                if new_finish > task.deadline or new_finish >= run.finish:
                    continue
                if best is None or (new_finish, vm_id) < best[:2]:
                    best = (new_finish, vm_id, cores)
            if best is None:
                continue
            new_finish, to_vm, cores = best
            self.engine.cancel(run.done_event)
            self.vms[run.vm_id].cores_free += run.cores
            self.vms[to_vm].cores_free -= cores
            self.migrations.append(Migration(task_id, run.vm_id, to_vm, now))
            run.vm_id, run.cores, run.duration = to_vm, cores, new_finish - now
            run.finish, run.migrated = new_finish, True
            run.done_event = self.engine.schedule(
                new_finish, "TaskDone", fn=lambda tid=task_id: self._task_done(tid),
                detail=f"task={task_id};vm={to_vm};migrated=1", vm=to_vm)


def _outcome(cls, tasks, vms, penalty):
    """Everything a run decides."""
    eng = Engine(seed=0, trace=True)
    sch = cls(eng, migration_penalty=penalty)
    for vm_id, cores in vms:
        sch.add_vm(vm_id, cores)
    for task in tasks:
        sch.submit(task)
    eng.run()
    return sch.assignments, sch.migrations, sch.finished, eng.trace


_TASK = st.builds(
    lambda n, demand, p, arrival, slack: TaskSpec(
        f"t{n}", demand * TICK, p,
        None if slack is None else arrival * TICK + slack * TICK, arrival * TICK),
    n=st.integers(0, 40),
    demand=st.sampled_from([1, 2, 5, 10, 20, 40]),
    p=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    arrival=st.sampled_from([0, 1, 2, 5, 10, 20]),
    slack=st.none() | st.integers(1, 30),
)


@settings(max_examples=300, deadline=None)
@given(
    tasks=st.lists(_TASK, min_size=1, max_size=25, unique_by=lambda t: t.id),
    vm_ids=st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True),
    cores=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    penalty=st.sampled_from([0, TICK, 1_000_000]),
)
def test_scheduler_matches_rescanning_oracle(tasks, vm_ids, cores, penalty):
    # ids such as vm2 and vm10, added out of order, so string order matters
    vms = [(f"vm{n}", c) for n, c in zip(vm_ids, cores)]
    assert _outcome(Scheduler, tasks, vms, penalty) == _outcome(
        _Rescanning, tasks, vms, penalty)


def test_late_tasks_migrate_as_in_the_rescanning_oracle():
    # vm10 and vm11 sort first and own one core each, so both parallel RT
    # tasks start late there, and each moves once to an idle 4-core VM
    tasks = [
        TaskSpec("rt1", 4_000_000, 1.0, deadline=2_500_000),
        TaskSpec("rt0", 4_000_000, 1.0, deadline=2_600_000),
        TaskSpec("b", 2 * TICK, 0.0, None, arrival=TICK),
    ]
    for vms in ([("vm2", 4), ("vm3", 4), ("vm10", 1), ("vm11", 1)],
                [("vm11", 1), ("vm3", 4), ("vm10", 1), ("vm2", 4)]):
        got = _outcome(Scheduler, tasks, vms, 1_000_000)
        assert got == _outcome(_Rescanning, tasks, vms, 1_000_000)
        assert [(m.task_id, m.from_vm, m.to_vm) for m in got[1]] == [
            ("rt0", "vm11", "vm2"), ("rt1", "vm10", "vm3")]


def test_a_task_migrates_once_even_when_a_faster_vm_frees_up():
    # rt starts late on vm10 and moves to vm2's two cores; one tick later
    # the batch task leaves vm11's four cores idle, which would be faster
    tasks = [
        TaskSpec("rt", 4_000_000, 1.0, deadline=3_000_000),
        TaskSpec("b", 4 * TICK, 1.0, None),
    ]
    vms = [("vm2", 2), ("vm11", 4), ("vm10", 1)]
    got = _outcome(Scheduler, tasks, vms, TICK)
    assert got == _outcome(_Rescanning, tasks, vms, TICK)
    assert [(m.task_id, m.from_vm, m.to_vm) for m in got[1]] == [("rt", "vm10", "vm2")]


def test_a_live_id_is_rejected_and_a_finished_one_accepted():
    eng = Engine(seed=0)
    sch = Scheduler(eng)
    sch.add_vm("vm0", 1)
    sch.submit(TaskSpec("u", 4 * TICK, 0.0, None))
    sch.submit(TaskSpec("t", 3 * TICK, 0.0, None, arrival=TICK))
    # t before it arrives, then ready behind u, then running
    for until, running in ((0, False), (2 * TICK, False), (5 * TICK, True)):
        eng.run_until(until)
        assert ("t" in sch.running) is running
        with pytest.raises(ValueError, match="task id t is already submitted"):
            sch.submit(TaskSpec("t", 2 * TICK, 0.0, None, arrival=until))
    eng.run()
    assert sch.finished == {"u": 4 * TICK, "t": 7 * TICK}
    sch.submit(TaskSpec("t", 2 * TICK, 0.0, None, arrival=eng.now()))
    eng.run()
    assert sch.finished["t"] == 9 * TICK
    assert [a.task_id for a in sch.assignments] == ["u", "t", "t"]
