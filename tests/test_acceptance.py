"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence when it holds."""

import itertools
import random
import time
from pathlib import Path

import numpy as np

from neurovirt.cli import main
from neurovirt.engine import Engine
from neurovirt.fabric import Fabric, InsufficientResources, ResourceVector
from neurovirt.iodriver import IoDriver
from neurovirt.sched import Scheduler, TaskSpec, exec_time
from neurovirt.snn import LifParams, make_core_state, step_core
from neurovirt.virt import (
    FootprintOverflow,
    Hypervisor,
    ModuleKind,
    ReconfigMode,
    VmBusy,
    module_from_share,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE PASS [criterion {number}]: {text}")


def _rows(csv_text: str) -> list[list[str]]:
    lines = csv_text.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_criterion_1_energy_anchors(tmp_path):
    started = time.monotonic()
    out = tmp_path / "energy.csv"
    assert main(["bench-energy", "--accelerators", "20", "--out", str(out)]) == 0
    rows = _rows(out.read_text())
    energies = [float(r[1]) for r in rows]
    assert len(energies) == 20
    assert abs(energies[0] - 25.0) < 1e-6
    assert abs(energies[19] - 45.0) < 1e-6
    assert all(b > a for a, b in zip(energies, energies[1:]))
    second = [
        (energies[i + 1] - energies[i]) - (energies[i] - energies[i - 1])
        for i in range(1, 19)
    ]
    assert max(abs(d) for d in second) < 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(1, f"energy endpoints 25.000/45.000 mJ, exactly linear, {elapsed:.2f}s")


def test_criterion_2_throughput_saturation(tmp_path):
    started = time.monotonic()
    out = tmp_path / "tp.csv"
    assert main(["bench-throughput", "--out", str(out)]) == 0
    rows = _rows(out.read_text())
    table: dict[int, dict[int, float]] = {}
    for vm_count, size, measured, _model in rows:
        table.setdefault(int(vm_count), {})[int(size)] = float(measured)

    saturated = table[4][1 << 30]
    assert abs(saturated - 5.1) / 5.1 < 0.01

    sizes = sorted(table[1])
    for size in sizes:
        assert table[1][size] <= table[2][size] <= table[4][size]
    for vm_count in (1, 2, 4):
        series = [table[vm_count][s] for s in sizes]
        assert all(b >= a for a, b in zip(series, series[1:]))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(
        2,
        f"4 VMs @ 1 GiB -> {saturated:.4f} Gib/s (within 1% of 5.1), "
        f"orderings hold, {elapsed:.2f}s",
    )


def test_criterion_3_reconfiguration_gap(tmp_path):
    started = time.monotonic()
    out = tmp_path / "rc.csv"
    assert main(["bench-reconfig", "--vm-counts", "1-16", "--out", str(out)]) == 0
    rows = _rows(out.read_text())
    assert len(rows) == 16
    gaps = []
    for vm_count, full_ns, partial_ns in rows:
        full_ns, partial_ns = int(full_ns), int(partial_ns)
        assert partial_ns <= 0.15 * full_ns
        gaps.append(full_ns - partial_ns)
    assert all(b >= a for a, b in zip(gaps, gaps[1:]))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    ratio = int(rows[-1][2]) / int(rows[-1][1])
    _report(3, f"partial/full ratio {ratio:.3f} <= 0.15, gap non-decreasing, {elapsed:.2f}s")


def test_criterion_4_resource_accounting():
    fab = Fabric()
    fab.allocate(ResourceVector(lut=151_200, memory_bytes=11_400_000, io_pins=139, dsp=518))
    util = fab.utilization()
    assert abs(util["lut"] - 30.00) <= 0.01
    assert abs(util["memory_bytes"] - 30.00) <= 0.01
    assert abs(util["io_pins"] - 29.96) <= 0.01
    assert abs(util["dsp"] - 29.98) <= 0.01
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "29.19" in readme and "29.94" in readme, (
        "README must document the printed-vs-computed utilization discrepancy"
    )
    _report(
        4,
        f"utilization {util['lut']:.2f}/{util['memory_bytes']:.2f}/"
        f"{util['io_pins']:.2f}/{util['dsp']:.2f}%, discrepancy documented",
    )


def test_criterion_5_conservation_property_suite():
    seeds = 100
    ops_per_seed = 110
    total_ops = 0
    for seed in range(seeds):
        rng = random.Random(900_000 + seed)
        engine = Engine(seed)
        fabric = Fabric()
        hv = Hypervisor(engine, fabric)
        raw_slots: list[int] = []
        catalog = [
            module_from_share(
                f"mod{i}", kind, share, fabric.config.total,
                fabric.config.bitstream_total_bytes,
            )
            for i, (kind, share) in enumerate(
                [(ModuleKind.LIF_CORE, 0.03), (ModuleKind.ROUTER, 0.01),
                 (ModuleKind.POOLING, 0.02)]
            )
        ]
        for _ in range(ops_per_seed):
            choice = rng.random()
            try:
                if choice < 0.30:
                    share = rng.choice([16, 24, 32, 48])
                    hv.create_vm(fabric.total.scaled(1, share))
                elif choice < 0.45 and hv.vms:
                    hv.destroy_vm(rng.choice(sorted(hv.vms)))
                elif choice < 0.60:
                    request = ResourceVector(
                        lut=rng.randint(1, 40_000),
                        memory_bytes=rng.randint(1, 3_000_000),
                        io_pins=rng.randint(0, 30),
                        dsp=rng.randint(0, 100),
                    )
                    raw_slots.append(fabric.allocate(request))
                elif choice < 0.70 and raw_slots:
                    fabric.release(raw_slots.pop(rng.randrange(len(raw_slots))))
                elif choice < 0.90 and hv.vms:
                    vm = rng.choice(sorted(hv.vms))
                    hv.load_module(vm, rng.choice(catalog), ReconfigMode.PARTIAL)
                else:
                    engine.run_until(engine.now() + rng.randint(1, 20) * 1_000_000)
            except (InsufficientResources, FootprintOverflow, VmBusy):
                pass
            total_ops += 1

            assert fabric.free + fabric.used() == fabric.total
            for capacity in fabric.slots.values():
                assert capacity.fits_within(fabric.total)
            for vm in hv.vms.values():
                assert vm.loaded_footprint().fits_within(fabric.slot(vm.slot_id))
        engine.run()
        assert fabric.free + fabric.used() == fabric.total
    assert total_ops >= 10_000
    _report(5, f"{total_ops} randomized ops over {seeds} seeds, conservation held")


def _isolation_run(seed, streams, reconfig=None):
    """VMs stream transfers; VM 'a' optionally reconfigures mid-run."""
    engine = Engine(seed)
    fabric = Fabric()
    driver = IoDriver(engine)
    hv = Hypervisor(engine, fabric, driver)
    hv.create_vm(fabric.total.scaled(1, 4), vm_id="a")  # roomy: holds any module
    completions: dict[str, list[int]] = {}
    for vm_id, size, count in streams:
        hv.create_vm(fabric.total.scaled(1, 16), vm_id=vm_id)
        ring = hv.vms[vm_id].ring
        completions[vm_id] = []
        state = {"left": count}

        def on_complete(vm_id=vm_id, ring=ring, size=size, state=state):
            completions[vm_id].append(engine.now())
            state["left"] -= 1
            if state["left"] > 0:
                driver.submit(ring, size, on_complete=on_complete)

        driver.submit(ring, size, on_complete=on_complete)
    duration = None
    if reconfig is not None:
        mode, at, share = reconfig
        module = module_from_share(
            "swap", ModuleKind.LIF_CORE, share, fabric.config.total,
            fabric.config.bitstream_total_bytes,
        )
        duration = hv.reconfig_time(mode, module)
        engine.schedule(
            at, "ReconfigRequest",
            fn=lambda: hv.load_module("a", module, mode),
            stallable=False,
        )
    engine.run()
    return completions, duration


def test_criterion_6_isolation_property():
    rng = random.Random(777)
    scenarios = 50
    for i in range(scenarios):
        n_streams = rng.randint(1, 3)
        streams = [
            (f"vm{j}", rng.choice([16_384, 65_536, 262_144, 1_048_576]),
             rng.randint(4, 9))
            for j in range(n_streams)
        ]
        share = rng.choice([0.02, 0.05, 0.10, 0.20])
        base, _ = _isolation_run(i, streams)
        at = rng.randint(1, 8) * 1_000_000

        with_partial, _ = _isolation_run(
            i, streams, reconfig=(ReconfigMode.PARTIAL, at, share)
        )
        assert with_partial == base, "partial reconfig must not disturb other VMs"

        with_full, duration = _isolation_run(
            i, streams, reconfig=(ReconfigMode.FULL, at, share)
        )
        for vm_id, times in base.items():
            expected = [c if c < at else c + duration for c in times]
            assert with_full[vm_id] == expected, (
                "full reconfig must shift in-flight completions by its duration"
            )
    _report(6, f"{scenarios} random scenarios: partial invisible, full shifts exactly")


def _optimal_makespan(tasks, n_vms):
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
                    t = max(t, task.arrival) + exec_time(task, 1, 1)
                vm_best = t if vm_best is None else min(vm_best, t)
            worst = max(worst, vm_best)
        best = worst if best is None else min(best, worst)
    return best


def test_criterion_7_scheduler_oracle():
    started = time.monotonic()
    tick = 100_000
    rng = random.Random(4242)
    instances = 1_000
    worst_ratio = 0.0
    for _ in range(instances):
        n_tasks = rng.randint(1, 5)
        n_vms = rng.randint(1, 2)
        tasks = []
        for i in range(n_tasks):
            demand = rng.randint(1, 20) * tick
            arrival = rng.randint(0, 10) * tick
            deadline = (
                arrival + rng.randint(5, 40) * tick if rng.random() < 0.4 else None
            )
            tasks.append(TaskSpec(f"t{i}", demand, 0.0, 0, deadline, arrival))

        engine = Engine(0)
        scheduler = Scheduler(engine)
        for v in range(n_vms):
            scheduler.add_vm(f"vm{v}", 1)
        for task in tasks:
            scheduler.submit(task)
        engine.run()
        assert len(scheduler.finished) == n_tasks

        makespan = scheduler.makespan()
        optimum = _optimal_makespan(tasks, n_vms)
        assert makespan <= 2 * optimum
        worst_ratio = max(worst_ratio, makespan / optimum)

        # EDF ordering: no batch starts strictly before a ready unstarted RT
        starts = {a.task_id: a.start for a in scheduler.assignments}
        deadlines = {t.id: t.deadline for t in tasks}
        arrivals = {t.id: t.arrival for t in tasks}
        for a in scheduler.assignments:
            if deadlines[a.task_id] is not None:
                continue
            for other in tasks:
                if other.deadline is None or other.id == a.task_id:
                    continue
                if arrivals[other.id] <= a.start:
                    assert starts[other.id] <= a.start
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(
        7,
        f"{instances} instances: makespan/optimal worst {worst_ratio:.3f} <= 2, "
        f"EDF order held, {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    import json

    pairs = []
    for name, argv in (
        ("energy", ["bench-energy", "--accelerators", "6"]),
        ("reconfig", ["bench-reconfig", "--vm-counts", "1-4"]),
        ("throughput", ["bench-throughput", "--vm-counts", "1,2", "--sizes", "4096,1048576"]),
    ):
        outs = []
        for run in range(2):
            out = tmp_path / f"{name}{run}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{name} not byte-deterministic"
        pairs.append(name)

    scenario = {
        "schema_version": 1, "seed": 99, "duration_ns": 20_000_000,
        "sample_period_ns": 4_000_000,
        "vms": [{"id": "x", "share": 0.2, "cores": 2}],
        "tasks": [{"id": "t", "steps": 12, "input_rate": 3, "fan_in": 16,
                   "mode": "spiking"}],
        "transfers": [{"vm": "x", "size_bytes": 65_536, "count": 4}],
    }
    spath = tmp_path / "sc.json"
    spath.write_text(json.dumps(scenario))
    blobs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        trace = tmp_path / f"tr{run}.csv"
        assert main(["run", "--scenario", str(spath), "--out", str(out),
                     "--trace-out", str(trace)]) == 0
        blobs.append(out.read_bytes() + trace.read_bytes())
    assert blobs[0] == blobs[1]
    _report(8, f"byte-identical CSV+trace across reruns: {', '.join(pairs)}, run")


def test_criterion_9_snn_checks():
    # zero weights: no spikes over a whole run
    state = make_core_state(8, 8)
    params = LifParams()
    total = 0
    for _ in range(25):
        total += len(step_core(state, tuple(range(8)), params))
    assert total == 0

    # hand trace 1: unit weight crosses threshold immediately
    state = make_core_state(1, 1, weights=np.array([[1.0]]))
    out = step_core(state, (0,), LifParams(v_thresh=1.0, v_reset=0.0, leak=1.0))
    assert out == (0,)
    assert state.potentials[0] == 0.0

    # hand trace 2: 0.6 weight needs two steps (0.6 then 1.2 >= 1.0)
    state = make_core_state(1, 1, weights=np.array([[0.6]]))
    p = LifParams(v_thresh=1.0, v_reset=0.0, leak=1.0)
    first = step_core(state, (0,), p)
    second = step_core(state, (0,), p)
    assert first == ()
    assert second == (0,)
    _report(9, "zero-weight silence and both hand-traced LIF examples exact")
