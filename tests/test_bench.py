import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from neurovirt import snn
from neurovirt.bench import bench_energy, bench_reconfig, bench_throughput, run_scenario
from neurovirt.engine import Engine, RandomStreams
from neurovirt.metrics import task_energy
from neurovirt.scenario import load_scenario, scenario_from_dict
from neurovirt.snn import SpikingExecutor, workload_cost

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _rows(csv_text):
    return [line.split(",") for line in csv_text.strip().splitlines()[1:]]


def test_measured_throughput_converges_to_model_at_large_sizes():
    csv = bench_throughput(vm_counts=(1, 2, 4), sizes=(1 << 30,))
    for vm_count, size, measured, model in _rows(csv):
        assert float(measured) == pytest.approx(float(model), rel=1e-3)


def test_throughput_rejects_counts_below_model_domain():
    with pytest.raises(ValueError):
        bench_throughput(vm_counts=(0,), sizes=(4096,))


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
                      if start_seq > seq and r.vm in (vm, None) and r.started_at < fire_at)
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
    block=st.integers(1, 64),
    move_after=st.integers(0, 59),
)
def test_input_picks_match_scalar_oracle_across_refills_and_moves(
    seed, fan_in, rate, steps, block, move_after
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
    with mock.patch.object(snn, "INPUT_BLOCK", block):
        for task in ("a", "b"):
            executor.launch(task_id=task, steps=steps, input_rate=rate,
                            fan_in=fan_in, interval=1_000, at=0, vm="vm0")
        engine.run_until((move_after % steps) * 1_000)
        job = executor.active.get("a")
        if job is not None:  # "a" has not finished yet
            executor.move(job, "vm1", resume_at=engine.now() + 5_000, interval=700)
        engine.run()
    n_inputs = max(fan_in, rate)
    for task in ("a", "b"):
        want = _oracle_inputs(seed, f"task/{task}/inputs", n_inputs, rate, steps)
        assert seen[task] == list(want)


def _block_picks(seed, n_inputs, rate, steps):
    """A task's input ids for ``steps`` steps, and the uniforms each refill drew."""
    executor = SpikingExecutor(Engine(seed))
    job = snn._SpikingTask(
        task_id="t", stream="task/t/inputs", state=None, n_inputs=n_inputs,
        n_neurons=n_inputs, rate=rate, remaining=steps, interval=1_000, vm=None,
        detail="task=t",
    )
    drawn = []
    values = executor.engine.rng.values

    def spy(stream, n):
        drawn.append(n)
        return values(stream, n)

    picks = []
    with mock.patch.object(executor.engine.rng, "values", spy):
        for _ in range(steps):
            picks.append(executor._pick_inputs(job))
            job.remaining -= 1
    return picks, drawn


@pytest.mark.parametrize("n_inputs, rate, steps", [
    (5000, 1, 40),  # wide fan-in, one input per step: one step per refill
    (40, 40, 250),  # rate == n_inputs, a full permutation, across refills
    (1, 1, 3),
])
def test_block_picks_match_oracle_with_a_bounded_pool(n_inputs, rate, steps):
    picks, drawn = _block_picks(11, n_inputs, rate, steps)
    assert picks == list(_oracle_inputs(11, "task/t/inputs", n_inputs, rate, steps))
    assert sum(drawn) == steps * rate
    for n in drawn:
        # a refill of n // rate steps shuffles a pool of that many rows
        assert n // rate * n_inputs <= max(snn.INPUT_BLOCK, n_inputs)
