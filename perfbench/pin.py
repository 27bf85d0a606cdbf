#!/usr/bin/env python3
"""Rewrite pinned.json: every workload variant's digests and event count.

    python3 perfbench/pin.py [--workload NAME ...]

Run from the repository root, and only after a change meant to alter the
simulator's output; a change that claims a speed-up must leave
pinned.json as it is. Each variant runs once untraced and once traced,
the two must give the same digests, and the traced run counts the engine
events that ``events_per_s`` divides by.
"""

import argparse
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def pin(workload: str, variant: int, workdir: Path) -> dict:
    import tracer

    job = workloads.prepare(workload, variant, workdir)
    _, plain, errors = workloads.run_job(job)
    t = tracer.Tracer()
    with t.installed():
        t.begin_run(0)
        _, traced, traced_errors = workloads.run_job(job)
        events = t.sim_stats()["engine.events"]
    if errors or traced_errors or plain != traced:
        raise SystemExit(f"{workload} v{variant}: {errors + traced_errors} "
                         f"untraced {plain} traced {traced}")
    return {**plain, "events": events}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    path = HERE / "pinned.json"
    pins = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in args.workload or sorted(workloads.WORKLOADS):
        variants = 1 if workload == "calibration" else workloads.VARIANTS
        pins[workload] = {
            str(v): pin(workload, v, Path(".perfbench_out") / "pin") for v in range(variants)
        }
        print(workload, json.dumps(pins[workload]["0"]), flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
