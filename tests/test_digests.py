"""The CLI defaults' output bytes, pinned to their sha256[:16] digests.

Every output is a function of the seed, so any change to these bytes is a
behaviour change and must update the pins on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from neurovirt.cli import main

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


def test_demo_run_output_is_pinned(tmp_path):
    assert _run_digests(tmp_path, "demo.json") == ("b0129dec3e98bfcb", "69614e605ac85bde")


def test_churn_run_output_is_pinned(tmp_path):
    # 8 VMs, each with four transfer streams into a 2-slot ring, under 60
    # reconfigurations: two full ones and one zero-length partial
    assert _run_digests(tmp_path, "churn.json") == ("df8204a4aafa6558", "98585428bbd5a2bd")
