"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repo root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from neurovirt.scenario import load_scenario  # noqa: E402

# sha256[:16] of the CLI defaults' output, as recorded in ROADMAP.md
ROADMAP_DIGESTS = {
    "throughput": "cde039feb154267a",
    "energy": "126cd6693b475716",
    "reconfig": "1de81251a68a1e4a",
    "metrics": "b0129dec3e98bfcb",
    "trace": "69614e605ac85bde",
}


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.chdir(HERE.parent)


@pytest.fixture(scope="module")
def pins():
    return json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))


def _run(job, traced: bool):
    if not traced:
        return workloads.run_job(job)
    t = tracer.Tracer()
    with t.installed():
        t.begin_run(0)
        return workloads.run_job(job)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_a_function_of_the_variant(workload):
    gen = workloads.GENERATORS[workload]
    assert gen(3) == gen(3)
    assert gen(3) != gen(4)
    assert workloads.variant_of(workload, 3) == workloads.variant_of(
        workload, 3 + workloads.VARIANTS)


def test_calibration_ignores_the_seed():
    assert workloads.variant_of("calibration", 0) == workloads.variant_of("calibration", 7)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generated_scenarios_load_and_validate(workload, tmp_path):
    job = workloads.prepare(workload, 5, tmp_path)
    scenario = load_scenario(str(job.scenario_path))
    assert len(scenario.tasks) == job.expect["tasks"]
    assert len(scenario.reconfigs) == job.expect["reconfigs"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reproduces_untraced_and_pinned_digests(workload, tmp_path, pins):
    job = workloads.prepare(workload, 2, tmp_path)
    _, plain, errors = _run(job, traced=False)
    _, traced, traced_errors = _run(job, traced=True)
    assert errors == traced_errors == []
    assert plain == traced
    assert set(plain) == set(job.outputs) | {"counters"}
    assert workloads.mismatches(plain, pins[workload][str(job.variant)]) == []


def test_one_changed_output_byte_fails_the_check(tmp_path):
    job = workloads.prepare("sched-backlog", 1, tmp_path)
    _, found, _ = workloads.run_job(job)
    assert workloads.mismatches(found, dict(found)) == []
    trace = job.outputs["trace"]
    data = bytearray(trace.read_bytes())
    data[len(data) // 2] ^= 1
    trace.write_bytes(bytes(data))
    changed = {**found, **workloads.file_digests(job)}
    assert workloads.mismatches(changed, found) == [
        f"trace digest {changed['trace']} != pinned {found['trace']}"]


def test_missing_pin_is_a_failure():
    assert workloads.mismatches({"trace": "x"}, None)


def test_calibration_pin_matches_the_roadmap_digests(pins):
    pin = pins["calibration"]["0"]
    assert {k: pin[k] for k in ROADMAP_DIGESTS} == ROADMAP_DIGESTS


def test_every_variant_is_pinned(pins):
    for workload in workloads.GENERATORS:
        assert sorted(pins[workload], key=int) == [str(v) for v in range(workloads.VARIANTS)]


def test_layer_metrics_report_every_per_layer_name():
    names = tracer.per_layer_names()
    assert len(names) == len(set(names))
    spans = {"rng.next": (3, 0.5, 0.5), "handler.SpikeStep": (2, 1.0, 0.25)}
    sim = dict.fromkeys(tracer.SIM, 0)
    got = tracer.layer_metrics(spans, sim)
    assert set(got) | {"trace.overhead_ratio"} == set(names)
    assert got["rng.draws"] == 3 and got["rng.s"] == 0.5
    assert got["handler.SpikeStep.s"] == 1.0
    assert tracer.layer_shares(spans)["bench"] == 0.25


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibration", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
