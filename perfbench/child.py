"""Fresh-process probes; ``run.py`` starts them, one per measurement.

    child.py setup SCENARIO   seconds to import neurovirt.cli and load SCENARIO
    child.py rss JOB_JSON     one workload run: peak RSS in MiB, digests, errors

``src`` must be on PYTHONPATH. Each prints one JSON line. Import time and
``ru_maxrss`` are per-process quantities, so each needs its own process.
"""

import json
import resource
import sys
import time


def setup(scenario_path: str) -> dict:
    t0 = time.perf_counter()
    import neurovirt.cli  # noqa: F401  everything a `neurovirt run` imports
    from neurovirt.scenario import load_scenario

    load_scenario(scenario_path)
    return {"setup_s": time.perf_counter() - t0}


def rss(job_json: str) -> dict:
    import workloads

    job = workloads.job_from_json(job_json)
    _, found, errors = workloads.run_job(job)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"peak_rss_mib": peak_kib / 1024, "digests": found, "errors": errors}


if __name__ == "__main__":
    probe, arg = sys.argv[1], sys.argv[2]
    print(json.dumps({"setup": setup, "rss": rss}[probe](arg)))
