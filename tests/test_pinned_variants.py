"""Every generated benchmark variant reproduces its pinned digests.

``perfbench/test_perfbench.py`` checks variant 2 of each workload, traced
and untraced; the benchmark can draw any of the ``VARIANTS``, so this runs
each one through the CLI path and compares its output and counter digests
with ``perfbench/pinned.json``. It reads ``perfbench/`` and writes only
under ``tmp_path``.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

PINS = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_variant_matches_its_pins(workload, variant, tmp_path):
    job = workloads.prepare(workload, variant, tmp_path)
    assert job.variant == variant
    _, found, errors = workloads.run_job(job)
    assert errors == []
    assert workloads.mismatches(found, PINS[workload].get(str(variant))) == []
