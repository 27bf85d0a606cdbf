"""The CLI defaults' output bytes, pinned to their sha256[:16] digests.

Every output is a function of the seed, so any change to these bytes is a
behaviour change and must update the pins on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from neurovirt.bench import REFERENCE_WORKLOAD, run_scenario
from neurovirt.cli import main
from neurovirt.engine import Engine
from neurovirt.scenario import load_scenario
from neurovirt.snn import LifParams, SpikingExecutor
from neurovirt.virt import ReconfigMode

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("command, digest", [
    ("bench-throughput", "cde039feb154267a"),
    ("bench-energy", "126cd6693b475716"),
    ("bench-reconfig", "1de81251a68a1e4a"),
])
def test_bench_default_output_is_pinned(tmp_path, command, digest):
    out = tmp_path / "out.csv"
    assert main([command, "--out", str(out)]) == 0
    assert _digest(out) == digest


def _run_digests(tmp_path, name: str) -> tuple[str, str]:
    metrics, trace = tmp_path / "metrics.csv", tmp_path / "trace.csv"
    argv = ["run", "--scenario", str(SCENARIOS / name), "--out", str(metrics),
            "--trace-out", str(trace)]
    assert main(argv) == 0
    return _digest(metrics), _digest(trace)


def _held_lines(engine: Engine) -> int | None:
    """How many trace lines the engine holds, or None if it keeps no trace."""
    try:
        return len(engine.trace)
    except ValueError:
        return None


@pytest.mark.parametrize("argv, events, engines", [
    (["bench-throughput"], 700, 30),
    (["bench-energy"], 10_500, 20),
    (["bench-reconfig"], 816, 32),
    (["run", "--scenario", str(SCENARIOS / "demo.json")], 144, 1),
])
def test_cli_default_event_counts_are_pinned(tmp_path, monkeypatch, argv, events, engines):
    # the four together process the 12,160 events perfbench pins for calibration;
    # the bench commands keep no trace, and run keeps one line per event
    held = events if argv[0] == "run" else None
    created = []
    init = Engine.__init__

    def keep(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        created.append(engine)

    monkeypatch.setattr(Engine, "__init__", keep)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert (sum(e.processed_count for e in created), len(created)) == (events, engines)
    assert [_held_lines(e) for e in created] == [held] * engines


def test_demo_run_output_is_pinned(tmp_path):
    assert _run_digests(tmp_path, "demo.json") == ("b0129dec3e98bfcb", "69614e605ac85bde")


def test_churn_run_output_is_pinned(tmp_path):
    # 8 VMs, each with four transfer streams into a 2-slot ring, under 60
    # reconfigurations: two full ones and one zero-length partial
    assert _run_digests(tmp_path, "churn.json") == ("df8204a4aafa6558", "98585428bbd5a2bd")


def test_stall_run_output_is_pinned(tmp_path):
    # full and partial reconfigurations while ticks, task completions and
    # spike steps are queued, migrations that cancel both a TaskDone and a
    # SpikeStep, and transfer streams into 2-slot rings
    assert _run_digests(tmp_path, "stall.json") == ("242fd920a5a84457", "33e8390e96f22665")


def test_stall_scenario_reaches_what_it_pins():
    scenario = load_scenario(SCENARIOS / "stall.json")
    spiking = {task.id for task in scenario.tasks if task.spiking is not None}
    result = run_scenario(scenario)
    migrated = [m.task_id for m in result.scheduler.migrations]
    full = [r for r in result.hypervisor.records if r.mode is ReconfigMode.FULL]
    assert (len(migrated), len(full), result.driver.backpressured) == (2, 5, 671)
    assert spiking.intersection(migrated)


def _spiking_digest(executor, engine, launches) -> str:
    """sha256[:16] of the output spike count and every task's final potentials."""
    for kwargs in launches:
        executor.launch(**kwargs)
    engine.run()
    h = hashlib.sha256(str(executor.output_spikes).encode())
    for kwargs in launches:
        h.update(executor.potentials(kwargs["task_id"]).tobytes())
    return h.hexdigest()[:16]


def test_demo_spiking_counters_are_pinned():
    result = run_scenario(load_scenario(SCENARIOS / "demo.json"))
    assert (result.executor.output_spikes, result.executor.total_synops) == (378, 28160)


def test_wide_spiking_run_is_pinned():
    # 32 of 64 inputs per step, so every step adds at least 16 weight rows
    engine = Engine(7)
    executor = SpikingExecutor(engine, params=LifParams(leak=0.95))
    launches = [
        dict(task_id=f"w{i}", steps=120, input_rate=32, fan_in=64, interval=1_000,
             at=i * 10, vm="vm0")
        for i in range(3)
    ]
    assert _spiking_digest(executor, engine, launches) == "7151b120c6d9a592"


def test_energy_reference_workload_spikes_are_pinned():
    # the 20-accelerator row of bench-energy, seed 0
    engine = Engine(0)
    executor = SpikingExecutor(engine)
    launches = [
        dict(task_id=f"ref{i}", **REFERENCE_WORKLOAD, at=0, vm=f"vm{i}",
             stream=f"accel/{i}")
        for i in range(20)
    ]
    assert _spiking_digest(executor, engine, launches) == "c02eb86cba29aa54"
