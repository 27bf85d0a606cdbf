import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from neurovirt import scenario as scenario_module
from neurovirt.scenario import (
    DEFAULT_MODULE_SHARES,
    TOP,
    ParseError,
    ValidationError,
    load_scenario,
    scenario_from_dict,
)


def minimal():
    return {"schema_version": 1, "seed": 7}


def test_minimal_scenario_gets_defaults():
    sc = scenario_from_dict(minimal())
    assert sc.seed == 7
    assert sc.fabric.total.lut == 504_000
    assert sc.link.latency_ns == 10_000
    assert set(sc.modules) == set(DEFAULT_MODULE_SHARES)
    assert sc.energy.dyn_nj_per_synop == 1.0


def test_docstring_example_loads_and_shows_every_top_level_key():
    # the module docstring's JSON example is the schema's field reference
    block = scenario_module.__doc__.split(".. code-block:: json")[1].split("\n\n")[1]
    example = json.loads(block)
    scenario_from_dict(example)
    allowed, _ = TOP
    assert set(example) == allowed


def test_missing_seed_rejected():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict({"schema_version": 1})
    assert err.value.field == "$.seed"


def test_unsupported_version_rejected():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict({"schema_version": 99, "seed": 0})
    assert err.value.field == "$.schema_version"


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "schema_version": 1,\n  "seed": oops\n}\n')
    with pytest.raises(ParseError) as err:
        load_scenario(str(path))
    assert err.value.line == 3
    assert str(path) in str(err.value)


def test_load_round_trip(tmp_path):
    data = minimal()
    data["vms"] = [{"id": "a", "share": 0.25, "cores": 2}]
    data["tasks"] = [
        {"id": "t", "steps": 10, "input_rate": 2, "fan_in": 8, "mode": "spiking"}
    ]
    data["transfers"] = [{"vm": "a", "size_bytes": 4096, "count": 3}]
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    sc = load_scenario(str(path))
    assert sc.vms[0].id == "a"
    assert sc.vms[0].cores == 2
    assert sc.tasks[0].fan_in == 8
    assert sc.transfers[0].count == 3


def test_unknown_vm_reference_rejected():
    data = minimal()
    data["transfers"] = [{"vm": "ghost", "size_bytes": 4096}]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert "ghost" in str(err.value)
    assert err.value.field == "$.transfers[0].vm"


def test_unknown_module_reference_rejected():
    data = minimal()
    data["vms"] = [{"id": "a", "share": 0.25}]
    data["reconfigs"] = [{"vm": "a", "module": "ghost", "mode": "partial"}]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert err.value.field == "$.reconfigs[0].module"


def test_duplicate_vm_ids_rejected():
    data = minimal()
    data["vms"] = [{"id": "a", "share": 0.1}, {"id": "a", "share": 0.1}]
    with pytest.raises(ValidationError):
        scenario_from_dict(data)


def test_bad_peak_table_rejected():
    data = minimal()
    # {"2": 2.9} used to load and then fail mid-run at the first transfer
    for table in ({"1": 3.0, "2": 1.0}, {"1": 0.0}, {"0": 1.0}, {}, {"2": 2.9},
                  {"1": 1.5, "01": 2.0}):
        data["link"] = {"peak_gibps": table}
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert err.value.field == "$.link.peak_gibps"


def test_task_field_validation():
    data = minimal()
    data["vms"] = [{"id": "a", "share": 0.25}]
    for field, value in [
        ("steps", 0), ("data_size", -1), ("arrival_ns", -1), ("mode", "batch"), ("fan_in", True),
    ]:
        data["tasks"] = [{"id": "t", "steps": 1, "input_rate": 1, "fan_in": 1, field: value}]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert err.value.field == f"$.tasks[0].{field}"


def test_deadline_must_exceed_arrival():
    data = minimal()
    data["tasks"] = [
        {"id": "t", "steps": 1, "input_rate": 1, "fan_in": 1,
         "deadline_ns": 5, "arrival_ns": 10}
    ]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert err.value.field == "$.tasks[0].deadline_ns"


def test_custom_module_by_footprint():
    data = minimal()
    data["modules"] = [
        {"id": "x", "kind": "router",
         "footprint": {"lut": 50_400, "memory_bytes": 1_000, "io_pins": 4, "dsp": 8}}
    ]
    data["modules"].append({"id": "y", "kind": "router", "share": 0.1, "bitstream_bytes": 7})
    sc = scenario_from_dict(data)
    # bitstream follows the lut-share proportionality rule: 10% of 30 MiB
    assert sc.modules["x"].bitstream_bytes == round(30 * 1024 * 1024 * 0.1)
    assert sc.modules["y"].bitstream_bytes == 7  # an explicit size wins


@pytest.mark.parametrize("section, row", [
    ("vms", {"id": "a", "share": 0.1, "resources": {"lut": 5}}),
    ("modules", {"id": "a", "kind": "router", "share": 0.1, "footprint": {"lut": 5}}),
])
def test_share_and_explicit_resources_are_exclusive(section, row):
    data = minimal()
    data[section] = [row]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert err.value.field == f"$.{section}[0].share"


def test_footprint_and_share_modules_round_bitstream_alike():
    # 5 bytes x 252000 / 504000 lut = 2.5 bytes, which rounds half up to 3
    data = minimal()
    data["fabric"] = {"bitstream_total_bytes": 5}
    data["modules"] = [
        {"id": "fp", "kind": "router", "footprint": {"lut": 252_000}},
        {"id": "half", "kind": "router", "share": 0.5},
    ]
    sc = scenario_from_dict(data)
    assert sc.modules["fp"].bitstream_bytes == sc.modules["half"].bitstream_bytes == 3


DEMO = json.loads(
    (Path(__file__).resolve().parents[1] / "scenarios" / "demo.json").read_text()
)


def _paths(node, prefix=()):
    """The path of every value below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


VALUE_PATHS = list(_paths(DEMO))
OBJECT_PATHS = [()] + [p for p in VALUE_PATHS if isinstance(_at(DEMO, p), dict)]
# known names, so an added key is sometimes a field the demo leaves out
KEYS = st.sampled_from([
    "fabric", "link", "energy", "reconfig", "scheduler", "modules", "total",
    "bitstream_total_bytes", "neurocore_count", "peak_gibps", "1", "lut", "share",
    "resources", "footprint", "bitstream_bytes", "cores", "deadline_ns", "kind",
]) | st.text(max_size=6)
SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**63), 2**63) | st.floats()
    | st.text(max_size=6) | st.sampled_from(["router", "lif_core", "full", "spiking"])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_demo_loads_or_names_a_field(data):
    scenario = copy.deepcopy(DEMO)
    action = data.draw(st.sampled_from(["drop", "add", "swap"]))
    if action == "add":
        target = _at(scenario, data.draw(st.sampled_from(OBJECT_PATHS)))
        target[data.draw(KEYS)] = data.draw(VALUES)
    else:
        *parent, key = data.draw(st.sampled_from(VALUE_PATHS))
        target = _at(scenario, parent)
        if action == "drop":
            del target[key]
        else:
            old = target[key]
            negated = st.just(-old) if type(old) in (int, float) else st.nothing()
            target[key] = data.draw(VALUES | negated)
    try:
        scenario_from_dict(scenario)
    except ValidationError:
        pass
