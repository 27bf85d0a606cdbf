import itertools
import random

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

TICK = DEFAULT_TICK_PERIOD_NS


def test_profile_examples():
    spec = profile("t", steps=100, input_rate=8, fan_in=256, data_size=0,
                   neurons_per_core=256)
    assert spec.compute_demand == 204_800
    assert spec.parallelizability == 1.0
    assert profile("t", 1, 1, 64, 0, 256).parallelizability == 0.25
    assert profile("t", 1, 1, 1, 0, 256).compute_demand == 1


def test_exec_time_examples():
    serial = TaskSpec("s", 1000, 0.0, 0, None)
    assert exec_time(serial, 1, 1) == exec_time(serial, 8, 1) == 1000
    parallel = TaskSpec("p", 1000, 1.0, 0, None)
    assert exec_time(parallel, 4, 1) == 250
    half = TaskSpec("h", 1000, 0.5, 0, None)
    assert exec_time(half, 4, 1) == 625
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


def test_single_task_assigned_immediately():
    task = TaskSpec("t0", 5 * TICK, 0.0, 0, None, arrival=0)
    sch = _run([task], [1])
    assert sch.assignments[0].task_id == "t0"
    assert sch.assignments[0].start == 0
    assert sch.finished["t0"] == 5 * TICK


def test_realtime_assigned_before_batch_on_single_slot():
    rt = TaskSpec("rt", 5 * TICK, 0.0, 0, deadline=100 * TICK)
    batch = TaskSpec("batch", 5 * TICK, 0.0, 0, None)
    sch = _run([batch, rt], [1])
    first, second = sch.assignments
    assert first.task_id == "rt"
    assert second.task_id == "batch"
    assert first.start <= second.start


def test_no_batch_starts_before_feasible_realtime_at_same_tick():
    tasks = [
        TaskSpec("b1", 3 * TICK, 0.0, 0, None),
        TaskSpec("b2", 3 * TICK, 0.0, 0, None),
        TaskSpec("r1", 3 * TICK, 0.0, 0, deadline=50 * TICK),
    ]
    sch = _run(tasks, [1, 1])
    start_of = {a.task_id: a.start for a in sch.assignments}
    assert all(start_of["r1"] <= start_of[b] for b in ("b1", "b2"))


def test_cores_granted_never_exceed_owned():
    tasks = [TaskSpec(f"t{i}", 4 * TICK, 1.0, 0, None) for i in range(6)]
    sch = _run(tasks, [2, 3])
    for a in sch.assignments:
        assert 1 <= a.cores <= sch.vms[a.vm_id].cores_total


def test_scheduler_output_deterministic():
    tasks = [
        TaskSpec(f"t{i}", (i + 1) * TICK, 0.5, 0, None, arrival=(i % 3) * TICK)
        for i in range(5)
    ]
    a = _run(list(tasks), [1, 2]).assignments
    b = _run(list(tasks), [1, 2]).assignments
    assert a == b


def test_migration_moves_late_rt_task_to_capable_idle_vm():
    # vm0 owns one core, vm1 owns four; a fully parallel RT task lands on
    # vm0 first and is projected late there but feasible on vm1
    task = TaskSpec("rt", 4_000_000, 1.0, 0, deadline=2_500_000)
    sch = _run([task], [1, 4])
    assert len(sch.migrations) == 1
    mig = sch.migrations[0]
    assert (mig.from_vm, mig.to_vm) == ("vm0", "vm1")
    assert sch.finished["rt"] <= task.deadline


def test_no_migration_when_deadline_safe():
    task = TaskSpec("rt", 4 * TICK, 1.0, 0, deadline=1_000 * TICK)
    sch = _run([task], [1, 4])
    assert sch.migrations == []


def test_no_migration_when_nothing_would_help():
    # the only other VM is identical, so moving strictly loses the penalty
    task = TaskSpec("rt", 4_000_000, 1.0, 0, deadline=2_500_000)
    sch = _run([task], [1, 1])
    assert sch.migrations == []
    # late tasks surface via finish time, not errors
    assert sch.finished["rt"] > task.deadline


def test_at_most_one_migration_per_task():
    task = TaskSpec("rt", 8_000_000, 1.0, 0, deadline=2_000_000)
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
        tasks.append(TaskSpec(f"t{i}", demand, 0.0, 0, deadline, arrival))
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
        self._tick_pending = False
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
            finish = now + self.duration_fn(task, cores)
            vm.cores_free -= cores
            done = self.engine.schedule(
                finish, "TaskDone", fn=lambda tid=task.id: self._task_done(tid),
                detail=f"task={task.id};vm={vm.id}", vm=vm.id)
            self.running[task.id] = _Running(task, vm.id, cores, now, finish,
                                             finish - now, done)
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
                    fraction * self.duration_fn(task, cores))
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
    eng = Engine(seed=0)
    sch = cls(eng, migration_penalty=penalty)
    for vm_id, cores in vms:
        sch.add_vm(vm_id, cores)
    for task in tasks:
        sch.submit(task)
    eng.run()
    return sch.assignments, sch.migrations, sch.finished, eng.trace


_TASK = st.builds(
    lambda n, demand, p, arrival, slack: TaskSpec(
        f"t{n}", demand * TICK, p, 0,
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
        TaskSpec("rt1", 4_000_000, 1.0, 0, deadline=2_500_000),
        TaskSpec("rt0", 4_000_000, 1.0, 0, deadline=2_600_000),
        TaskSpec("b", 2 * TICK, 0.0, 0, None, arrival=TICK),
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
        TaskSpec("rt", 4_000_000, 1.0, 0, deadline=3_000_000),
        TaskSpec("b", 4 * TICK, 1.0, 0, None),
    ]
    vms = [("vm2", 2), ("vm11", 4), ("vm10", 1)]
    got = _outcome(Scheduler, tasks, vms, TICK)
    assert got == _outcome(_Rescanning, tasks, vms, TICK)
    assert [(m.task_id, m.from_vm, m.to_vm) for m in got[1]] == [("rt", "vm10", "vm2")]


def test_a_live_id_is_rejected_and_a_finished_one_accepted():
    eng = Engine(seed=0)
    sch = Scheduler(eng)
    sch.add_vm("vm0", 1)
    sch.submit(TaskSpec("u", 4 * TICK, 0.0, 0, None))
    sch.submit(TaskSpec("t", 3 * TICK, 0.0, 0, None, arrival=TICK))
    # t before it arrives, then ready behind u, then running
    for until, running in ((0, False), (2 * TICK, False), (5 * TICK, True)):
        eng.run_until(until)
        assert ("t" in sch.running) is running
        with pytest.raises(ValueError, match="task id t is already submitted"):
            sch.submit(TaskSpec("t", 2 * TICK, 0.0, 0, None, arrival=until))
    eng.run()
    assert sch.finished == {"u": 4 * TICK, "t": 7 * TICK}
    sch.submit(TaskSpec("t", 2 * TICK, 0.0, 0, None, arrival=eng.now()))
    eng.run()
    assert sch.finished["t"] == 9 * TICK
    assert [a.task_id for a in sch.assignments] == ["u", "t", "t"]
