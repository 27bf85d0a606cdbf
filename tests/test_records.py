"""The contract of every model record: constructor, equality, hash,
immutability and repr.

The field tables were read off the records when each was a generated
class, so a hand-written constructor that drops, reorders or re-defaults
a field fails here.
"""

import copy
import inspect
from collections import deque

import pytest

from neurovirt import bench, engine, fabric, iodriver, metrics, scenario, sched, snn, virt
from neurovirt.fabric import ResourceVector
from neurovirt.record import FrozenRecord, Record
from neurovirt.virt import ReconfigMode

REQUIRED = inspect.Parameter.empty


class New:
    """A default made anew for each record, equal to ``factory()``."""

    def __init__(self, factory):
        self.factory = factory


# (class, frozen, ((field, default), ...) in constructor order)
RECORDS = [
    (engine.SimEvent, False, (
        ("fire_at", REQUIRED), ("seq", REQUIRED), ("kind", REQUIRED), ("detail", ""),
        ("fn", None), ("vm", None), ("stallable", True), ("every", 0), ("repeats", 0),
        ("index", None))),
    (fabric.ResourceVector, True, (
        ("lut", 0), ("memory_bytes", 0), ("io_pins", 0), ("dsp", 0))),
    (fabric.FabricConfig, True, (
        ("total", ResourceVector(504_000, 38_000_000, 464, 1_728)), ("neurocore_count", 16),
        ("neurons_per_core", 256), ("bitstream_total_bytes", 31_457_280))),
    (iodriver.IoRing, False, (
        ("vm", REQUIRED), ("closed", False), ("inflight", New(dict)))),
    (iodriver.LinkModel, True, (
        ("latency_ns", 10_000), ("ring_capacity", 256))),
    (metrics.EnergyModel, True, (("dyn_nj_per_synop", 1.0),)),
    (metrics.MetricSample, True, tuple((name, REQUIRED) for name in (
        "at", "lut_pct", "mem_pct", "io_pct", "dsp_pct", "throughput_gibs", "energy_mj",
        "reconfig_full_ns", "reconfig_partial_ns"))),
    (scenario.VmDef, True, (("id", REQUIRED), ("share", REQUIRED), ("cores", None))),
    (scenario.TransferDef, True, (
        ("vm", REQUIRED), ("size_bytes", REQUIRED), ("start_ns", 0), ("count", 1))),
    (scenario.ReconfigOp, True, (
        ("vm", REQUIRED), ("module", REQUIRED), ("mode", ReconfigMode.PARTIAL), ("at_ns", 0))),
    (scenario.Scenario, False, (
        ("seed", REQUIRED), ("duration_ns", 10_000_000), ("sample_period_ns", 1_000_000),
        ("fabric", New(fabric.FabricConfig)), ("link", New(iodriver.LinkModel)),
        ("energy", New(metrics.EnergyModel)), ("reconfig", New(virt.ReconfigParams)),
        ("core_rate", 1), ("tick_period_ns", 100_000), ("migration_penalty_ns", 1_000_000),
        ("modules", New(dict)), ("vms", New(list)), ("tasks", New(list)),
        ("transfers", New(list)), ("reconfigs", New(list)))),
    (sched.TaskSpec, True, (
        ("id", REQUIRED), ("compute_demand", REQUIRED), ("parallelizability", REQUIRED),
        ("deadline", REQUIRED), ("arrival", 0), ("spiking", None))),
    (sched.Assignment, True, tuple((name, REQUIRED) for name in (
        "task_id", "vm_id", "cores", "start"))),
    (sched.Migration, True, tuple((name, REQUIRED) for name in (
        "task_id", "from_vm", "to_vm", "at"))),
    (sched.SchedVm, False, tuple((name, REQUIRED) for name in (
        "id", "cores_total", "cores_free"))),
    (sched._Running, False, (
        ("task", REQUIRED), ("vm_id", REQUIRED), ("cores", REQUIRED), ("finish", REQUIRED),
        ("duration", REQUIRED), ("done_event", None), ("migrated", False))),
    (snn.LifParams, True, (("v_thresh", 1.0), ("v_reset", 0.0), ("leak", 1.0))),
    (snn.CoreState, False, (("potentials", REQUIRED), ("weights", REQUIRED))),
    (snn._SpikingTask, False, (
        ("task_id", REQUIRED), ("n_inputs", REQUIRED),
        ("n_neurons", REQUIRED), ("rate", REQUIRED), ("steps", REQUIRED),
        ("next_event", None), ("replayed", 0), ("state", None), ("potentials", None))),
    (virt.DfxModule, True, tuple((name, REQUIRED) for name in (
        "id", "footprint", "bitstream_bytes"))),
    (virt.ReconfigParams, True, (
        ("config_port_bw", 419_430_400), ("partial_setup_overhead_ns", 100_000))),
    (virt.ReconfigRecord, False, tuple((name, REQUIRED) for name in (
        "vm", "mode", "started_at", "duration", "module"))),
    (virt.VirtualMachine, False, (
        ("id", REQUIRED), ("slot_id", REQUIRED), ("cores", REQUIRED), ("ring", REQUIRED),
        ("loaded", None), ("inflight_module", None), ("pending_reconfigs", New(deque)))),
    (bench.RunResult, False, tuple((name, REQUIRED) for name in (
        "metrics_csv", "engine", "scheduler", "metrics", "driver", "hypervisor",
        "executor"))),
]

# two valid argument tuples that differ, for the records whose constructor
# checks its fields; every other record takes (1, 2, ...) and (2, 3, ...)
SAMPLES = {
    fabric.FabricConfig: ((ResourceVector(8, 8, 8, 8), 4, 32, 1000),
                          (ResourceVector(8, 8, 8, 8), 4, 32, 1001)),
    snn.LifParams: ((2.0, 0.5, 0.5), (2.0, 0.5, 0.25)),
}


def _samples(cls, n):
    return SAMPLES.get(cls, (tuple(range(1, n + 1)), tuple(range(2, n + 2))))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_listed():
    # a new record needs a row above
    listed = [cls for cls, _, _ in RECORDS]
    assert len(listed) == 24
    assert set(_subclasses(Record)) - {FrozenRecord} == set(listed)


@pytest.mark.parametrize("cls, frozen, fields", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, frozen, fields):
    names = [name for name, _ in fields]
    args, other_args = _samples(cls, len(fields))
    a = cls(*args)
    b = cls(**dict(zip(names, args)))
    other = cls(*other_args)
    assert [getattr(a, name) for name in names] == list(args)
    assert [getattr(b, name) for name in names] == list(args)
    assert repr(a) == f"{cls.__qualname__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, args)) + ")"

    # the defaults, each new one made afresh
    required = [value for (_, default), value in zip(fields, args) if default is REQUIRED]
    bare, bare2 = cls(*required), cls(*required)
    for name, default in fields[len(required):]:
        if isinstance(default, New):
            assert getattr(bare, name) == default.factory()
            assert getattr(bare, name) is not getattr(bare2, name)
        else:
            assert getattr(bare, name) == default
    with pytest.raises(TypeError):
        cls(*args, None)

    if cls is engine.SimEvent:  # an event is equal only to itself
        assert a == a and a != b and hash(a) != hash(b)
        return
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != args
    assert copy.copy(a) == a
    if frozen:
        assert hash(a) == hash(b)
        assert {a, b, other} == {b, other}
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        for name in names:
            setattr(a, name, getattr(other, name))
        assert a == other


def _tables():
    """(allowed keys, ruled entries, model) of each section of the schema
    that loads by its model's constructor; the top level and the scheduler
    section both build the Scenario. Module and task rows load through
    module_from_share and profile (tests/test_scenario.py)."""
    s = scenario
    pairs = [((s.TOP, s.SCHEDULER), s.Scenario), ((s.FABRIC,), fabric.FabricConfig),
             ((s.RESOURCES,), ResourceVector), ((s.LINK,), iodriver.LinkModel),
             ((s.ENERGY,), metrics.EnergyModel), ((s.RECONFIG,), virt.ReconfigParams),
             ((s.VM,), s.VmDef), ((s.TRANSFER,), s.TransferDef),
             ((s.RECONFIG_OP,), s.ReconfigOp)]
    for sections, model in pairs:
        allowed = frozenset().union(*(keys for keys, _ in sections))
        entries = [entry for _, section_entries in sections for entry in section_entries]
        yield pytest.param(allowed, entries, model, id=model.__name__)


@pytest.mark.parametrize("allowed, entries, model", _tables())
def test_rule_tables_match_their_models(allowed, entries, model):
    # a section's keys are its model's constructor parameters, a key is
    # required exactly when its parameter has no default, and each default
    # is a value of the key's kind
    params = inspect.signature(model).parameters
    by_hand = {"schema_version", "scheduler"} if model is scenario.Scenario else set()
    assert allowed == set(params) | by_hand
    for key, kind, required, _ in entries:
        default = params[key].default
        assert required == (default is REQUIRED), key
        if not required and default is not None:
            assert default in kind.values() if type(kind) is dict else type(default) is kind
