#!/usr/bin/env python3
"""neurovirt benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports neurovirt from ``src/``.
``--trace 0`` spends S seconds repeating the workload in this process
with no tracing, with fresh-process probes spread among the runs. It
reports host time relative to a reference loop timed around each run,
the peak RSS of a fresh process running the workload once, and set-up
time (median of fresh processes). Raw wall time and events per second
are printed too. ``--trace 1`` alternates untraced and traced runs for S
seconds and reports per-layer counts and self times. Every run's outputs
are checked against ``pinned.json``; the last stdout line is the JSON
result, and ``.perfbench_out/`` keeps the inputs, outputs, spans and a
results file with quartiles and the environment.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")
SETUP_RUNS = 15  # fresh processes timed for setup_s, after one warm-up
MIN_RUNS = 3  # untraced runs per invocation, however short --seconds is
CHILD_TIMEOUT_S = 150


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child(probe: str, arg: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), probe, arg],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{probe} probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import neurovirt

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": neurovirt.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def reference_seconds() -> float:
    """Host time of fixed pure-Python work: the host's speed right now.

    On a shared host the same run can take 1.8x longer from one minute to
    the next. Dividing each run's time by this work's, measured around it,
    cancels most of that. The work mixes small-dict and heap operations
    with allocation-heavy ones (a 30k-tuple heap, a string-keyed dict, a
    join), because the workloads slow down with the host in both ways.
    """
    t0 = time.perf_counter()
    table, heap, acc = {}, [], 0
    for i in range(40_000):
        key = (i * 2654435761) & 1023
        acc = (acc + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc
        heapq.heappush(heap, (acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    items = [((i * 2654435761) & 0xFFFFF, i, f"ev{i}") for i in range(30_000)]
    heapq.heapify(items)
    {name: key for key, _, name in items}
    ",".join(heapq.heappop(items)[2] for _ in range(10_000))
    return time.perf_counter() - t0


def timed(job, pin, seconds: float) -> dict:
    """Untraced end-to-end metrics; the fresh-process probes count against ``seconds``.

    The set-up probes are spread evenly over the window, between workload
    runs, so they and the runs see the same host speed.
    """
    start = time.perf_counter()
    stop = start + seconds
    probe = child("rss", workloads.job_to_json(job))
    errors = [probe["errors"] + workloads.mismatches(probe["digests"], pin)]
    child("setup", str(job.scenario_path))  # warm-up: fills the file cache
    setups, walls, refs = [], [], []
    while True:
        now = time.perf_counter()
        runs_left = len(walls) < MIN_RUNS or now < stop
        setups_left = len(setups) < SETUP_RUNS
        if not (runs_left or setups_left):
            break
        setups_due = SETUP_RUNS * min(1.0, (now - start) / seconds)
        if setups_left and (len(setups) < setups_due or not runs_left):
            setups.append(child("setup", str(job.scenario_path))["setup_s"])
            continue
        ref_before = reference_seconds()
        wall, found, errs = workloads.run_job(job)
        ref_after = reference_seconds()
        walls.append(wall)
        refs.append((ref_before + ref_after) / 2)
        errors.append(errs + workloads.mismatches(found, pin))
    q1, wall, q3 = quartiles(walls)
    # totals, not a median of per-run ratios: each reference samples the
    # host for only ~0.1 s, so one ratio is noisier than the pooled one
    rel = sum(walls) / sum(refs)
    s1, setup, s3 = quartiles(setups)
    events = pin["events"] if pin else 0
    return {
        "errors": errors,
        "metrics": {
            "wall_rel": (rel, "ratio"),
            "peak_rss_mib": (probe["peak_rss_mib"], "MiB"),
            "setup_s": (setup, "s"),
        },
        "ungated": {
            "wall_s": (wall, "s"),
            "events_per_s": (events / wall, "1/s"),
        },
        "detail": {"wall_s": {"q1": q1, "median": wall, "q3": q3, "runs": len(walls),
                              "values": walls},
                   "reference_s": refs,
                   "setup_s": {"q1": s1, "median": setup, "q3": s3, "values": setups},
                   "events": events},
    }


def traced(job, pin, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics: untraced and traced runs alternate."""
    import tracer

    t = tracer.Tracer()
    walls, traced_walls, per_run, shares, errors = [], [], [], [], []
    stop = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < stop:
        wall, found, errs = workloads.run_job(job)
        walls.append(wall)
        errors.append(errs + workloads.mismatches(found, pin))
        run_id = len(traced_walls)
        with t.installed():
            t.begin_run(run_id)
            wall, found, errs = workloads.run_job(job)
            sim = t.sim_stats()
        traced_walls.append(wall)
        if pin and sim["engine.events"] != pin["events"]:
            errs.append(f"traced run processed {sim['engine.events']} events, "
                        f"pinned {pin['events']}")
        errors.append(errs + workloads.mismatches(found, pin))
        per_run.append(sim)
    times = t.times()
    for run_id, sim in enumerate(per_run):
        spans = times.get(run_id, {})
        per_run[run_id] = tracer.layer_metrics(spans, sim)
        shares.append(tracer.layer_shares(spans))
    t.save(spans_path)
    metrics = {}
    for name in tracer.per_layer_names():
        if name == "trace.overhead_ratio":
            continue
        values = [r[name] for r in per_run]
        unit = tracer.unit_of(name)
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
            continue
        metrics[name] = (values[0], unit)
        if any(v != values[0] for v in values):
            errors[-1].append(f"simulated {name} differs between traced runs: {values}")
    ratio = statistics.median(traced_walls) / statistics.median(walls)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    traced_wall = statistics.median(traced_walls)
    share = {layer: statistics.median(s[layer] for s in shares) / traced_wall
             for layer in tracer.LAYERS}
    return {
        "errors": errors,
        "metrics": metrics,
        "detail": {"traced_wall_s": traced_walls, "untraced_wall_s": walls,
                   "self_share_of_traced_wall": share, "spans": str(spans_path)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "neurovirt" / "__init__.py").is_file():
        print(f"error: {SRC / 'neurovirt'} not found; run from a neurovirt checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import neurovirt

    if Path(neurovirt.__file__).resolve().parent != (SRC / "neurovirt").resolve():
        print(f"error: imported neurovirt from {neurovirt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    pins = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    job = workloads.prepare(args.workload, args.seed, run_dir)
    pin = pins.get(args.workload, {}).get(str(job.variant))
    if args.trace:
        result = traced(job, pin, args.seconds, run_dir / "spans.npz")
    else:
        result = timed(job, pin, args.seconds)

    failed = sum(1 for errs in result["errors"] if errs)
    for errs in result["errors"]:
        for err in errs:
            print(f"FAILED: {err}", file=sys.stderr)
    for name, (value, unit) in {**result["metrics"], **result.get("ungated", {})}.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "variant": job.variant,
        "trace": args.trace, "seconds": args.seconds, "environment": environment(),
        "attempted": len(result["errors"]), "failed": failed,
        "stresses": workloads.WORKLOADS[args.workload][0],
        "bypasses": workloads.WORKLOADS[args.workload][1],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in result.get("ungated", {}).items()},
        "detail": result["detail"],
    }
    (run_dir / f"results-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
