import copy
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from neurovirt import scenario as scenario_module
from neurovirt.scenario import (
    MAX_SAMPLES,
    TOP,
    ParseError,
    ValidationError,
    _check_ids,
    load_scenario,
    scenario_from_dict,
)
from neurovirt.fabric import FabricConfig
from neurovirt.sched import TaskSpec, profile
from neurovirt.virt import DEFAULT_MODULE_SHARES, default_module_catalog, module_from_share


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
    sc = scenario_from_dict(example)
    allowed, _ = TOP
    assert set(example) == allowed
    # each section, and each row list's first row, shows every key its rule table allows
    s = scenario_module
    for key, section in [("fabric", s.FABRIC), ("link", s.LINK), ("energy", s.ENERGY),
                         ("reconfig", s.RECONFIG), ("scheduler", s.SCHEDULER),
                         ("modules", s.MODULE), ("vms", s.VM), ("tasks", s.TASK),
                         ("transfers", s.TRANSFER), ("reconfigs", s.RECONFIG_OP)]:
        shown = example[key][0] if isinstance(example[key], list) else example[key]
        assert set(shown) == section[0], key
    assert set(example["fabric"]["total"]) == s.RESOURCES[0]
    total, bitstream = sc.fabric.total, sc.fabric.bitstream_total_bytes
    assert sc.modules == {"lif0": module_from_share("lif0", 0.04, total, bitstream)}
    assert [(vm.id, vm.share, vm.cores) for vm in sc.vms] == [("vmA", 0.125, 2)]


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
    assert sc.tasks[0].spiking == (10, 2, 8)
    assert sc.transfers[0].count == 3


def test_rows_load_as_their_model_objects():
    data = minimal()
    data["fabric"] = {"neurons_per_core": 64}
    data["vms"] = [{"id": "a", "share": 0.25}]
    data["tasks"] = [
        {"id": "t", "steps": 10, "input_rate": 2, "fan_in": 16},
        {"id": "u", "steps": 10, "input_rate": 2, "fan_in": 128, "data_size": 4096,
         "deadline_ns": 900, "arrival_ns": 300, "mode": "spiking"},
    ]
    bare, full = scenario_from_dict(data).tasks
    # a row with only the required keys is the profile of its shape on the
    # fabric's cores: 10 x 2 x 16 synaptic ops, a quarter of a 64-neuron core
    assert bare == profile("t", 10, 2, 16, 64) == TaskSpec("t", 320, 0.25, None, 0, None)
    assert full == profile("u", 10, 2, 128, 64, deadline=900, arrival=300, spiking=True)
    assert (full.deadline, full.arrival, full.spiking) == (900, 300, (10, 2, 128))

    # data_size and a module's kind are checked and stored nowhere
    def loaded(task_extra, module_kind):
        variant = copy.deepcopy(data)
        variant["tasks"][0].update(task_extra)
        variant["modules"] = [{"id": "m", "kind": module_kind, "share": 0.1}]
        sc = scenario_from_dict(variant)
        return sc.tasks, sc.modules

    assert loaded({}, "router") == loaded({"data_size": 1 << 20}, "router")
    assert loaded({"data_size": 0}, "lif_core") == loaded({"data_size": 7}, "pooling")


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


# every whitespace character: str.split() and the regex \s both go by str.isspace()
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
ID_TEXT = st.text(st.sampled_from(WHITESPACE + ",;=ab-_\u00e9\U0001f600"), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(ID_TEXT, max_size=4))
def test_id_check_names_the_first_id_the_rule_refuses(ids):
    # the scan of the joined ids must agree with the rule applied to each
    refused = [i for i, value in enumerate(ids) if not re.fullmatch(r"[^\s,;=]+", value)]
    if not refused:
        _check_ids(ids, "$.vms")
        return
    with pytest.raises(ValidationError) as err:
        _check_ids(ids, "$.vms")
    assert err.value.field == f"$.vms[{refused[0]}].id"


def test_every_whitespace_character_is_refused_in_an_id():
    data = minimal()
    for c in WHITESPACE:
        data["vms"] = [{"id": f"vm{c}0", "share": 0.1}]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert err.value.field == "$.vms[0].id", repr(c)


def test_bad_peak_table_rejected():
    # the peak table is the model constant iodriver.PEAK_GIBPS: a file that
    # still sets one, even the default, names the key as unknown
    data = minimal()
    for table in ({"1": 1.5, "2": 2.9, "4": 5.1}, {"2": 2.9}, {}):
        data["link"] = {"latency_ns": 10_000, "peak_gibps": table}
        with pytest.raises(ValidationError, match="unknown field") as err:
            scenario_from_dict(data)
        assert err.value.field == "$.link.peak_gibps"


def test_duration_is_capped_in_sample_periods():
    data = minimal()
    data["sample_period_ns"] = 1_000
    data["duration_ns"] = (MAX_SAMPLES + 1) * 1_000 - 1  # MAX_SAMPLES samples
    assert scenario_from_dict(data).duration_ns == (MAX_SAMPLES + 1) * 1_000 - 1
    data["duration_ns"] += 1
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert err.value.field == "$.duration_ns"


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


def test_custom_module_bitstream_follows_its_share():
    data = minimal()
    data["modules"] = [
        {"id": "x", "kind": "router", "share": 0.1},
        {"id": "y", "kind": "router", "share": 0.1, "bitstream_bytes": 7},
    ]
    sc = scenario_from_dict(data)
    # bitstream follows the lut-share proportionality rule: 10% of 30 MiB
    assert sc.modules["x"].bitstream_bytes == round(30 * 1024 * 1024 * 0.1)
    assert sc.modules["y"].bitstream_bytes == 7  # an explicit size wins
    assert sc.modules["y"].footprint == sc.modules["x"].footprint


def test_share_module_bitstream_rounds_half_up():
    # 5 bytes x 252000 / 504000 lut = 2.5 bytes, which rounds half up to 3
    data = minimal()
    data["fabric"] = {"bitstream_total_bytes": 5}
    data["modules"] = [{"id": "half", "kind": "router", "share": 0.5}]
    sc = scenario_from_dict(data)
    assert sc.modules["half"].footprint.lut == 252_000
    assert sc.modules["half"].bitstream_bytes == 3


def test_spelled_out_default_catalog_loads_as_the_default():
    # the loader sizes a module row by the rule the default catalog uses
    data = minimal()
    data["modules"] = [
        {"id": name, "kind": name, "share": share}
        for name, share in DEFAULT_MODULE_SHARES.items()
    ]
    assert scenario_from_dict(data).modules == default_module_catalog(FabricConfig())


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
    "bitstream_bytes", "cores", "deadline_ns", "kind",
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
