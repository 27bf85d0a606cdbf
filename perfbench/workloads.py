"""Benchmark workloads: input generators, one run of each, and its check.

Every input is a pure function of ``(workload, variant)``. A seed picks the
variant (``seed % VARIANTS``), and the program receives only what the
generator wrote: a scenario file passed to ``neurovirt run`` or, for
``calibration``, the CLI defaults. Generators fix the amount of work: task
parameters are evenly spaced quantiles. The seed shuffles when tasks
arrive, which VM streams which transfer size and when each
reconfiguration runs, and it sets the simulator seed. So host time
reflects the code, not the draw.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 16
DEMO_SCENARIO = Path("scenarios") / "demo.json"
SPIKING_TASKS = 45
BACKLOG_TASKS = 1600
CHURN_RECONFIGS = 1000

# name -> (layers it stresses, layers it bypasses); BENCHMARK.json and
# README.md say why each was chosen
WORKLOADS = {
    "calibration": (["cli", "bench", "rng", "snn", "engine"], []),
    "spiking-fleet": (["snn", "rng", "bench", "engine"], ["iodriver", "virt"]),
    "sched-backlog": (["sched", "engine"], ["rng", "snn", "iodriver", "virt"]),
    "io-reconfig-churn": (["iodriver", "virt", "engine"], ["rng", "snn", "sched"]),
}


def variant_of(workload: str, seed: int) -> int:
    """The input variant a seed selects; calibration has only one."""
    return 0 if workload == "calibration" else seed % VARIANTS


def _quantiles(n: int, lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def _shuffled(rng: random.Random, values: list) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def _base(variant: int, duration_ns: int, sample_period_ns: int) -> dict:
    return {
        "schema_version": 1,
        "seed": 1000 + variant,
        "duration_ns": duration_ns,
        "sample_period_ns": sample_period_ns,
    }


def spiking_fleet(variant: int) -> dict:
    n_tasks = SPIKING_TASKS
    # fixed (fan_in, input_rate, steps) design; the seed shuffles arrivals
    design = random.Random("spiking-fleet")
    fan_ins = [(16, 32, 64)[i % 3] for i in range(n_tasks)]
    steps = _shuffled(design, [round(s) for s in _quantiles(n_tasks, 100, 400)])
    rate_q = _shuffled(design, _quantiles(n_tasks, 0.0, 1.0))
    rng = random.Random(f"spiking-fleet/{variant}")
    arrivals = _shuffled(rng, [round(a) for a in _quantiles(n_tasks, 0, 200_000_000)])
    tasks = []
    for i in range(n_tasks):
        fan_in = fan_ins[i]
        rate = 4 + round(rate_q[i] * (fan_in // 2 - 4))
        tasks.append({
            "id": f"s{i:04d}", "mode": "spiking", "steps": steps[i],
            "input_rate": rate, "fan_in": fan_in, "data_size": 4096,
            "arrival_ns": arrivals[i],
        })
    scenario = _base(variant, 260_000_000, 10_000_000)
    scenario["vms"] = [
        {"id": f"vm{v:02d}", "share": 0.05, "cores": 2} for v in range(16)
    ]
    scenario["tasks"] = tasks
    return scenario


def sched_backlog(variant: int) -> dict:
    n_tasks = BACKLOG_TASKS
    # fixed task sizes; the seed shuffles arrivals, deadlines and slack
    steps = [round(s) for s in _quantiles(n_tasks, 100, 300)]
    rng = random.Random(f"sched-backlog/{variant}")
    window = 40_000_000
    arrivals = _shuffled(rng, [round(a) for a in _quantiles(n_tasks, 0, window)])
    has_deadline = _shuffled(rng, [i % 2 == 0 for i in range(n_tasks)])
    slack = _shuffled(rng, [round(s) for s in _quantiles(n_tasks, 1_000_000, 20_000_000)])
    tasks = []
    for i in range(n_tasks):
        task = {
            "id": f"a{i:04d}", "mode": "analytic", "steps": steps[i],
            "input_rate": 16, "fan_in": 200, "data_size": 4096,
            "arrival_ns": arrivals[i],
        }
        if has_deadline[i]:
            task["deadline_ns"] = arrivals[i] + slack[i]
        tasks.append(task)
    scenario = _base(variant, 200_000_000, 10_000_000)
    scenario["vms"] = [
        {"id": f"vm{v:02d}", "share": 0.05, "cores": 1} for v in range(16)
    ]
    scenario["tasks"] = tasks
    return scenario


def io_reconfig_churn(variant: int) -> dict:
    n_reconfigs = CHURN_RECONFIGS
    # a VM's four streams share one transfer size, so which stream holds
    # the ring matters little; the seed shuffles sizes across VMs, stream
    # start times, and which reconfigurations are full and when each runs
    rng = random.Random(f"io-reconfig-churn/{variant}")
    vms = [f"vm{v:02d}" for v in range(32)]
    sizes = _shuffled(rng, [4096 * (1 + 15 * (v % 8) // 7) for v in range(len(vms))])
    transfers = [
        {"vm": vm, "size_bytes": size, "start_ns": rng.randrange(0, 1_000_000),
         "count": 45}
        for vm, size in zip(vms, sizes) for _ in range(4)
    ]
    modules = ("router", "pooling", "lif_small")
    full = set(rng.sample(range(n_reconfigs), max(1, n_reconfigs // 100)))
    times = _shuffled(rng, [round(t) for t in _quantiles(n_reconfigs, 0, 2_000_000_000)])
    reconfigs = [
        {"vm": vms[i % len(vms)], "module": modules[(i // len(vms)) % 3],
         "mode": "full" if i in full else "partial", "at_ns": times[i]}
        for i in range(n_reconfigs)
    ]
    scenario = _base(variant, 4_000_000_000, 20_000_000)
    scenario["link"] = {"ring_capacity": 2}
    scenario["modules"] = [
        {"id": "router", "kind": "router", "share": 0.015},
        {"id": "pooling", "kind": "pooling", "share": 0.025},
        {"id": "lif_small", "kind": "lif_core", "share": 0.02},
    ]
    scenario["vms"] = [{"id": vm, "share": 0.03, "cores": 1} for vm in vms]
    scenario["transfers"] = transfers
    scenario["reconfigs"] = reconfigs
    return scenario


GENERATORS = {
    "spiking-fleet": spiking_fleet,
    "sched-backlog": sched_backlog,
    "io-reconfig-churn": io_reconfig_churn,
}


@dataclass
class Job:
    """One workload run: the CLI calls to make and the files they write."""

    workload: str
    variant: int
    scenario_path: Path  # the file set-up loads and validates
    argvs: list[list[str]]
    outputs: dict[str, Path]  # digest name -> file the run writes
    expect: dict = field(default_factory=dict)  # invariants of the inputs


def prepare(workload: str, seed: int, workdir: Path) -> Job:
    """Write the workload's inputs under ``workdir`` and describe one run."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    variant = variant_of(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    names = ("throughput", "energy", "reconfig") if workload == "calibration" else ()
    outputs = {name: workdir / f"{workload}.{name}" for name in names + ("metrics", "trace")}
    argvs = [[f"bench-{name}", "--out", str(outputs[name])] for name in names]
    if workload == "calibration":
        if not DEMO_SCENARIO.is_file():
            raise FileNotFoundError(f"{DEMO_SCENARIO} not found; run from the repo root")
        path, expect = DEMO_SCENARIO, {}
    else:
        data = GENERATORS[workload](variant)
        path = workdir / f"{workload}-v{variant}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        expect = {
            "tasks": len(data.get("tasks", [])),
            "transfers": sum(t["count"] for t in data.get("transfers", [])),
            "reconfigs": len(data.get("reconfigs", [])),
        }
    argvs.append(["run", "--scenario", str(path), "--out", str(outputs["metrics"]),
                  "--trace-out", str(outputs["trace"])])
    return Job(workload, variant, path, argvs, outputs, expect)


def counters(result) -> dict:
    """Exact simulated statistics of one ``run_scenario`` result."""
    hv = result.hypervisor
    return {
        "events": result.engine.processed_count,
        "finish_ns": sorted(result.scheduler.finished.items()),
        "migrations": len(result.scheduler.migrations),
        "synops": result.executor.total_synops,
        "output_spikes": result.executor.output_spikes,
        "submits": result.driver.submissions,
        "completions": result.driver.completions,
        "backpressured": result.driver.backpressured,
        "completed_bits": result.driver.completed_bits,
        "reconfigs": len(hv.records),
        "reconfig_ns": {mode.value: ns for mode, ns in hv.reconfig_accum.items()},
    }


def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digests(job: Job) -> dict[str, str]:
    """sha256[:16] of every file the job's CLI calls wrote."""
    return {name: short_hash(path.read_bytes()) for name, path in job.outputs.items()}


def digests(job: Job, result) -> dict[str, str]:
    """sha256[:16] of every output file and of the run's exact counters."""
    found = file_digests(job)
    found["counters"] = short_hash(json.dumps(counters(result), sort_keys=True).encode())
    return found


def invariant_errors(job: Job, result) -> list[str]:
    """Work the generated inputs asked for that the run did not finish."""
    if not job.expect:
        return []
    c = counters(result)
    errors = []
    if len(c["finish_ns"]) != job.expect["tasks"]:
        errors.append(f"{len(c['finish_ns'])} of {job.expect['tasks']} tasks finished")
    if c["completions"] != job.expect["transfers"]:
        errors.append(f"{c['completions']} of {job.expect['transfers']} transfers completed")
    busy = sum(vm.reconfiguring or bool(vm.pending_reconfigs)
               for vm in result.hypervisor.vms.values())
    if c["reconfigs"] != job.expect["reconfigs"] or busy:
        errors.append(f"{c['reconfigs']} of {job.expect['reconfigs']} reconfigurations "
                      f"started, {busy} VMs still reconfiguring")
    return errors


def run_job(job: Job) -> tuple[float, dict[str, str], list[str]]:
    """Make the job's CLI calls in this process.

    Returns host seconds for the calls, the digests of what they wrote, and
    any error: a nonzero exit or unfinished work. ``run_scenario`` is wrapped
    outside the timed calls only to keep its result for the counters.
    """
    from neurovirt import bench, cli

    results = []
    inner = bench.run_scenario

    def keep(scenario):
        result = inner(scenario)
        results.append(result)
        return result

    bench.run_scenario = keep
    try:
        gc.collect()
        t0 = time.perf_counter()
        codes = [cli.main(argv) for argv in job.argvs]
        seconds = time.perf_counter() - t0
    finally:
        bench.run_scenario = inner
    errors = [f"neurovirt {a[0]} exited {c}" for a, c in zip(job.argvs, codes) if c != 0]
    if errors or len(results) != 1:
        return seconds, {}, errors or [f"{len(results)} scenario runs, expected 1"]
    return seconds, digests(job, results[0]), invariant_errors(job, results[0])


def mismatches(found: dict[str, str], pinned: dict | None) -> list[str]:
    """Digests that differ from the pinned ones; no pin at all is a failure."""
    if pinned is None:
        return ["no pinned digests for this workload variant"]
    return [
        f"{name} digest {found.get(name)} != pinned {want}"
        for name, want in sorted(pinned.items())
        if name != "events" and found.get(name) != want
    ]


def job_to_json(job: Job) -> str:
    return json.dumps(dataclasses.asdict(job), default=str)


def job_from_json(text: str) -> Job:
    d = json.loads(text)
    d["scenario_path"] = Path(d["scenario_path"])
    d["outputs"] = {k: Path(v) for k, v in d["outputs"].items()}
    return Job(**d)
