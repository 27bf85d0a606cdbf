import heapq
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurovirt import snn
from neurovirt.bench import bench_energy, bench_reconfig, bench_throughput, run_scenario
from neurovirt.engine import Engine, RandomStreams
from neurovirt.metrics import task_energy
from neurovirt.scenario import load_scenario, scenario_from_dict
from neurovirt.snn import LifParams, SpikingExecutor, make_core_state, step_core, workload_cost
from neurovirt.virt import ReconfigMode

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _rows(csv_text):
    return [line.split(",") for line in csv_text.strip().splitlines()[1:]]


def test_measured_throughput_converges_to_model_at_large_sizes():
    csv = bench_throughput(vm_counts=(1, 2, 4), sizes=(1 << 30,))
    for vm_count, size, measured, model in _rows(csv):
        assert float(measured) == pytest.approx(float(model), rel=1e-3)


def test_throughput_rejects_counts_below_model_domain():
    with pytest.raises(ValueError, match="^vm count 0 below 1$"):
        bench_throughput(vm_counts=(0,), sizes=(4096,))


@pytest.mark.parametrize("experiment, kwargs, message", [
    (bench_throughput, dict(vm_counts=[]), "no vm counts"),
    (bench_throughput, dict(sizes=[]), "no transfer sizes"),
    (bench_reconfig, dict(vm_counts=[]), "no vm counts"),
])
def test_experiments_refuse_empty_input(experiment, kwargs, message):
    # each used to return a header-only CSV
    with pytest.raises(ValueError, match=message):
        experiment(**kwargs)


@pytest.mark.parametrize("experiment, kwargs, once", [
    (bench_throughput, dict(vm_counts=[1], sizes=[4096]), ["vm_counts"]),
    (bench_throughput, dict(vm_counts=[1, 2], sizes=[4096]), ["sizes"]),
    (bench_reconfig, dict(vm_counts=[1]), ["vm_counts"]),
])
def test_experiments_read_each_sequence_argument_once(experiment, kwargs, once):
    # an iterator used to be used up before the rows were made: only the
    # header came out, or bench_throughput dropped the 2-VM row
    iterators = {name: (v for v in kwargs[name]) for name in once}
    assert experiment(**{**kwargs, **iterators}) == experiment(**kwargs)


def test_energy_rows_run_real_reference_workload():
    rows = _rows(bench_energy(4))
    per_accel = workload_cost(50, 4, 32)  # the reference task shape
    for n, _energy, synops in rows:
        assert int(synops) == int(n) * per_accel


def test_reconfig_rejects_bad_counts():
    with pytest.raises(ValueError):
        bench_reconfig(vm_counts=(0,))


def test_reconfig_totals_scale_linearly_with_vm_count():
    rows = _rows(bench_reconfig(vm_counts=(1, 2, 4)))
    full = [int(r[1]) for r in rows]
    partial = [int(r[2]) for r in rows]
    assert full == [full[0], 2 * full[0], 4 * full[0]]
    assert partial == [partial[0], 2 * partial[0], 4 * partial[0]]


def _base_scenario(**extra):
    data = {
        "schema_version": 1,
        "seed": 5,
        "duration_ns": 40_000_000,
        "sample_period_ns": 10_000_000,
        "vms": [{"id": "a", "share": 0.25, "cores": 2}],
        **extra,
    }
    return scenario_from_dict(data)


def test_spiking_task_ops_match_workload_cost_exactly():
    scenario = _base_scenario(
        tasks=[{"id": "t", "steps": 30, "input_rate": 5, "fan_in": 20,
                "mode": "spiking"}],
    )
    result = run_scenario(scenario)
    assert result.scheduler.finished.keys() == {"t"}
    assert result.executor.total_synops == workload_cost(30, 5, 20)
    # the energy column reads the executor's synop count
    done = result.scheduler.finished["t"]
    after = [s for s in result.metrics.samples if s.at >= done]
    assert after[0].energy_mj == task_energy(workload_cost(30, 5, 20))


def test_analytic_and_spiking_tasks_all_finish():
    scenario = _base_scenario(
        tasks=[
            {"id": "s", "steps": 10, "input_rate": 2, "fan_in": 8, "mode": "spiking"},
            {"id": "a1", "steps": 40, "input_rate": 2, "fan_in": 8,
             "mode": "analytic", "arrival_ns": 200_000},
        ],
    )
    result = run_scenario(scenario)
    assert set(result.scheduler.finished) == {"s", "a1"}
    assert result.scheduler.makespan() < scenario.duration_ns


def test_entries_at_the_run_end_still_fire():
    # the loader refuses a time past duration_ns; one equal to it is the
    # last instant the run processes
    end = 40_000_000
    result = run_scenario(_base_scenario(
        tasks=[{"id": "t", "steps": 1, "input_rate": 1, "fan_in": 1, "arrival_ns": end}],
        transfers=[{"vm": "a", "size_bytes": 4096, "start_ns": end}],
        reconfigs=[{"vm": "a", "module": "router", "at_ns": end}],
    ))
    fired = {line.split(",")[2] for line in result.engine.trace
             if line.startswith(f"{end},")}
    assert {"TaskArrival", "TransferStart", "ReconfigRequest"} <= fired


def test_migrating_spiking_task_still_completes_all_steps():
    data = {
        "schema_version": 1,
        "seed": 5,
        "duration_ns": 80_000_000,
        "sample_period_ns": 20_000_000,
        "vms": [
            {"id": "slow", "share": 0.1, "cores": 1},
            {"id": "wide", "share": 0.4, "cores": 8},
        ],
        # fully parallel RT task: lands on 'slow' first (lower id) where it
        # needs 4.096 ms, past its 2.5 ms deadline; on 'wide' it takes
        # 0.512 ms + 1 ms penalty, feasible again
        "tasks": [{"id": "rt", "steps": 1000, "input_rate": 16, "fan_in": 256,
                   "mode": "spiking", "deadline_ns": 2_500_000}],
        "scheduler": {"core_rate": 1, "tick_period_ns": 100_000,
                      "migration_penalty_ns": 1_000_000},
    }
    result = run_scenario(scenario_from_dict(data))
    assert [m.task_id for m in result.scheduler.migrations] == ["rt"]
    mig = result.scheduler.migrations[0]
    assert (mig.from_vm, mig.to_vm) == ("slow", "wide")
    assert result.scheduler.finished["rt"] <= 2_500_000
    assert result.executor.total_synops == workload_cost(1000, 16, 256)


def test_a_spiking_job_keeps_one_event_across_its_steps_and_a_move():
    engine = Engine(1, trace=True)
    executor = SpikingExecutor(engine)
    # every queueing of an event passes through reschedule, schedule's too
    with mock.patch.object(engine, "reschedule", wraps=engine.reschedule) as arm:
        executor.launch(task_id="a", steps=5, input_rate=2, fan_in=4, interval=1_000,
                        at=0, vm="vm0")
        engine.run_until(2_000)  # three steps
        job = executor.active["a"]
        event = job.next_event
        executor.move(job, "vm1", resume_at=engine.now() + 500, interval=700)
        # the event's VM follows the job
        assert event.vm == "vm1" and engine.pending() == [event]
        assert engine.postpone_pending(1, vm="vm0") == 0
        assert engine.postpone_pending(1, vm="vm1") == 1
        engine.run()
    armed = [call.args[0] for call in arm.call_args_list]
    assert len(armed) == 6  # launch, three re-arms by steps, the move, one more step
    assert all(ev is event for ev in armed)
    assert [line.split(",")[0] for line in engine.trace] == [
        "0", "1000", "2000", "2501", "3201"]
    assert job.next_event is None and executor.active == {}


def _assert_retries_fire_one_tick_late(result, tick_period_ns):
    """Every refused submit queued one TransferRetry, and each processed one
    fired ``tick_period_ns`` after a processed transfer event of its VM,
    plus the reconfiguration stalls that postponed it while it waited."""
    lines = [line.split(",", 3) for line in result.engine.trace]
    events = [(int(t), int(seq), kind, dict(kv.split("=", 1) for kv in detail.split(";")))
              for t, seq, kind, detail in lines if detail]
    retries = [e for e in events if e[2] == "TransferRetry"]
    pending = [e for e in result.engine.pending() if e.kind == "TransferRetry"]
    assert retries
    assert result.driver.backpressured == len(retries) + len(pending)
    # a reconfiguration starts when it schedules its ReconfigDone, so the
    # k-th record in start order owns the k-th ReconfigDone seq
    done_seqs = sorted([seq for _, seq, kind, _ in events if kind == "ReconfigDone"]
                       + [e.seq for e in result.engine.pending() if e.kind == "ReconfigDone"])
    records = result.hypervisor.records
    assert len(done_seqs) == len(records)
    first_transfer_seq = {}  # (time, vm) -> seq of its first transfer event
    for t, seq, kind, detail in events:
        if kind.startswith("Transfer"):
            first_transfer_seq.setdefault((t, detail["vm"]), seq)
    for fire_at, seq, _, detail in retries:
        vm = detail["vm"]
        # stalls of the retry's VM, or of the whole fabric, that started
        # after it was queued and before it fired
        stalled = sum(r.duration for r, start_seq in zip(records, done_seqs)
                      if start_seq > seq and r.started_at < fire_at
                      and (r.vm == vm or r.mode is ReconfigMode.FULL))
        queued_at = fire_at - stalled - tick_period_ns
        assert first_transfer_seq.get((queued_at, vm), math.inf) < seq


def test_backpressured_transfer_retries_next_tick():
    data = {
        "schema_version": 1,
        "seed": 5,
        "duration_ns": 300_000_000,
        "sample_period_ns": 100_000_000,
        "link": {"ring_capacity": 1},
        "vms": [{"id": "a", "share": 0.25, "cores": 1}],
        "transfers": [
            {"vm": "a", "size_bytes": 1_048_576, "start_ns": 0, "count": 2},
            {"vm": "a", "size_bytes": 65_536, "start_ns": 0, "count": 2},
        ],
    }
    scenario = scenario_from_dict(data)
    result = run_scenario(scenario)
    assert result.driver.completions == 4  # every transfer eventually lands
    _assert_retries_fire_one_tick_late(result, scenario.tick_period_ns)


def test_churn_retries_fire_one_tick_late_through_stalls():
    scenario = load_scenario(SCENARIOS / "churn.json")
    _assert_retries_fire_one_tick_late(run_scenario(scenario), scenario.tick_period_ns)


def test_churn_sifts_a_run_heap_of_the_work_in_flight_only(monkeypatch):
    # every stream start, request and sample is queued before the loop
    # starts and waits in the set-up heap, so the heap that the loop's
    # handlers sift holds only the work in flight: at most 47 entries here,
    # against the 129 of one heap holding everything
    starts, sifted = [], []
    drain = Engine._drain

    def traced_drain(self, t_end):
        starts.append((len(self._heap), self._held))
        return drain(self, t_end)

    def sizing(op):
        def wrapper(heap, *args):
            sifted.append((heap, len(heap)))
            return op(heap, *args)
        return wrapper

    monkeypatch.setattr(Engine, "_drain", traced_drain)
    for name in ("heappush", "heappop", "heappushpop"):
        monkeypatch.setattr(heapq, name, sizing(getattr(heapq, name)))
    result = run_scenario(load_scenario(SCENARIOS / "churn.json"))
    assert result.engine.processed_count == 2_400
    assert starts == [(0, None)]
    run_heap = [n for heap, n in sifted if heap is result.engine._heap]
    assert len(run_heap) > 2_000
    assert max(run_heap) <= 64


def test_scheduled_partial_reconfig_leaves_transfer_stream_alone():
    common = dict(
        vms=[{"id": "a", "share": 0.25, "cores": 1},
             {"id": "b", "share": 0.25, "cores": 1}],
        transfers=[{"vm": "b", "size_bytes": 262_144, "start_ns": 0, "count": 6}],
    )
    quiet = run_scenario(_base_scenario(**common))
    noisy = run_scenario(_base_scenario(
        **common,
        reconfigs=[{"vm": "a", "module": "lif_core", "mode": "partial",
                    "at_ns": 1_500_000}],
    ))

    def b_completions(result):
        return [
            line.split(",")[0]
            for line in result.engine.trace
            if "TransferComplete" in line and "vm=b" in line
        ]

    assert b_completions(noisy) == b_completions(quiet)
    assert noisy.hypervisor.reconfig_accum


def _oracle_inputs(seed, stream, n_inputs, rate, steps):
    """Input ids per step from one scalar draw per partial Fisher-Yates swap."""
    rng = RandomStreams(seed)
    for _ in range(steps):
        pool = list(range(n_inputs))
        for k in range(rate):
            j = k + int(rng.next(stream) * (n_inputs - k))
            pool[k], pool[j] = pool[j], pool[k]
        yield tuple(sorted(pool[:rate]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    fan_in=st.integers(1, 40),
    rate=st.integers(1, 40),
    steps=st.integers(1, 60),
    move_after=st.integers(0, 59),
)
def test_input_picks_match_scalar_oracle_across_refills_and_moves(
    seed, fan_in, rate, steps, move_after
):
    engine = Engine(seed)
    executor = SpikingExecutor(engine)
    seen: dict[str, list] = {}
    pick = executor._pick_inputs

    def spy(job):
        ids = pick(job)
        seen.setdefault(job.task_id, []).append(ids)
        return ids

    executor._pick_inputs = spy
    for task in ("a", "b"):
        executor.launch(task_id=task, steps=steps, input_rate=rate,
                        fan_in=fan_in, interval=1_000, at=0, vm="vm0")
    engine.run_until((move_after % steps) * 1_000)
    executor.output_spikes  # a read: the replay picks the steps run so far
    job = executor.active.get("a")
    if job is not None:  # "a" has not finished yet
        executor.move(job, "vm1", resume_at=engine.now() + 5_000, interval=700)
    engine.run()
    executor.output_spikes  # and the rest
    n_inputs = max(fan_in, rate)
    for task in ("a", "b"):
        want = _oracle_inputs(seed, f"task/{task}/inputs", n_inputs, rate, steps)
        assert seen[task] == list(want)


def _block_picks(seed, n_inputs, rate, steps):
    """A task's input ids for ``steps`` steps as a replay after the run
    picks them, and the uniforms each draw on its input stream took."""
    engine = Engine(seed)
    executor = SpikingExecutor(engine)
    executor.launch(task_id="t", steps=steps, input_rate=rate, fan_in=n_inputs,
                    interval=1_000, at=0)
    engine.run()
    picks, drawn = [], []
    pick, values = executor._pick_inputs, engine.rng.values

    def spy_pick(job):
        picks.append(pick(job))
        return picks[-1]

    def spy_values(stream, n):
        if stream == "task/t/inputs":
            drawn.append(n)
        return values(stream, n)

    def zero_state(n_inputs, n_neurons, **_):
        # zero weights in no memory: drawn, 5000 x 5000 would take 200 MB
        return snn.CoreState(np.zeros(n_neurons), np.broadcast_to(0.0, (n_inputs, n_neurons)))

    executor._pick_inputs = spy_pick
    with mock.patch.object(engine.rng, "values", spy_values), \
            mock.patch.object(snn, "make_core_state", zero_state):
        assert executor.output_spikes == 0
    return picks, drawn


@pytest.mark.parametrize("n_inputs, rate, steps", [
    (5000, 1, 40),  # wide fan-in, one input per step
    (40, 40, 250),  # rate == n_inputs, a full permutation
    (1, 1, 3),
])
def test_block_picks_match_oracle_with_a_bounded_pool(n_inputs, rate, steps):
    picks, drawn = _block_picks(11, n_inputs, rate, steps)
    assert picks == list(_oracle_inputs(11, "task/t/inputs", n_inputs, rate, steps))
    # each replayed step draws its own uniforms and no more: one pool of
    # n_inputs at a time, whatever the step count
    assert drawn == [rate] * steps


def _eager_spikes(seed, launch, params):
    """Spikes fired after each step, and the final potentials, of one task
    stepped eagerly: weights from ``RandomStreams.values``, inputs from the
    scalar oracle, each step through ``step_core``."""
    stream = f"task/{launch['task_id']}"
    n_inputs, fan_in = max(launch["fan_in"], launch["input_rate"]), launch["fan_in"]
    weights = RandomStreams(seed).values(f"{stream}/weights", n_inputs * fan_in) - 0.5
    state = make_core_state(n_inputs, fan_in, weights=weights.reshape(n_inputs, fan_in))
    fired = [0]
    for ids in _oracle_inputs(seed, f"{stream}/inputs", n_inputs, launch["input_rate"],
                              launch["steps"]):
        fired.append(fired[-1] + len(step_core(state, ids, params)))
    return fired, state.potentials


_launches = st.lists(
    st.fixed_dictionaries(dict(
        steps=st.integers(1, 40),
        input_rate=st.integers(0, 24),
        fan_in=st.integers(1, 24),
        interval=st.integers(1, 3_000),
        at=st.integers(0, 5_000),
    )),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    launches=_launches,
    leak=st.sampled_from([1.0, 0.9, 0.5]),
    split=st.integers(0, 60_000),
    mover=st.integers(0, 2),
)
def test_replay_on_read_equals_eager_stepping(seed, launches, leak, split, mover):
    params = LifParams(v_thresh=0.4, leak=leak)
    launches = [dict(kw, task_id=f"t{i}") for i, kw in enumerate(launches)]
    engine = Engine(seed)
    executor = SpikingExecutor(engine, params)
    eager = {kw["task_id"]: _eager_spikes(seed, kw, params) for kw in launches}
    for kw in launches:
        executor.launch(**kw, vm="vm0")
    engine.run_until(split)
    mid = 0  # the oracle's spikes over the steps processed so far
    for kw in launches:
        job = executor.active.get(kw["task_id"])
        mid += eager[kw["task_id"]][0][kw["steps"] - (job.remaining if job else 0)]
    assert executor.output_spikes == mid
    job = executor.active.get(f"t{mover % len(launches)}")
    if job is not None:
        executor.move(job, "vm1", resume_at=engine.now() + 700, interval=300)
    engine.run()
    assert executor.output_spikes == sum(fired[-1] for fired, _ in eager.values())
    for task, (_, potentials) in eager.items():
        assert executor.potentials(task).tobytes() == potentials.tobytes()


def _launch_kwargs(**kwargs):
    return dict(dict(task_id="a", steps=3, input_rate=2, fan_in=4, interval=1_000, at=0),
                **kwargs)


@pytest.mark.parametrize("bad", [dict(steps=0), dict(steps=-1), dict(fan_in=0),
                                 dict(input_rate=-1), dict(interval=0), dict(interval=-5)])
def test_launch_refuses_an_empty_task(bad):
    engine = Engine(1)
    executor = SpikingExecutor(engine)
    with pytest.raises(ValueError, match="must be >= 1"):
        executor.launch(**_launch_kwargs(**bad))
    assert (engine.pending(), executor.active, executor.output_spikes) == ([], {}, 0)


def test_launch_refuses_a_task_id_already_launched():
    engine = Engine(1)
    executor = SpikingExecutor(engine)
    executor.launch(**_launch_kwargs())
    with pytest.raises(ValueError, match="task a is already launched"):
        executor.launch(**_launch_kwargs(at=500, stream="other"))
    assert len(engine.pending()) == 1
    engine.run()  # "a" finishes, with no KeyError
    with pytest.raises(ValueError, match="task a is already launched"):
        executor.launch(**_launch_kwargs(stream="other"))  # also once it has finished
    assert engine.pending() == [] and executor.total_synops == 3 * 2 * 4


@pytest.mark.parametrize("first, second", [
    (dict(stream="s"), dict(stream="s")),
    ({}, dict(stream="task/a")),  # the first task's default stream
])
def test_launch_refuses_a_stream_already_used(first, second):
    engine = Engine(1)
    executor = SpikingExecutor(engine)
    executor.launch(**_launch_kwargs(**first))
    with pytest.raises(ValueError, match="is already used"):
        executor.launch(**_launch_kwargs(task_id="b", **second))
    assert list(executor.active) == ["a"] and len(engine.pending()) == 1
