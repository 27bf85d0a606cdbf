"""Scenario files: a versioned JSON schema for whole-simulation configs.

Top-level keys (all optional except ``schema_version`` and ``seed``):

.. code-block:: json

    {
      "schema_version": 1,
      "seed": 42,
      "duration_ns": 50000000,
      "sample_period_ns": 1000000,
      "fabric":    {"total": {"lut": 504000, "memory_bytes": 38000000,
                              "io_pins": 464, "dsp": 1728},
                    "neurocore_count": 16, "neurons_per_core": 256,
                    "bitstream_total_bytes": 31457280},
      "link":      {"latency_ns": 10000, "ring_capacity": 256,
                    "peak_gibps": {"1": 1.5, "2": 2.9, "4": 5.1}},
      "energy":    {"dyn_nj_per_synop": 1.0},
      "reconfig":  {"config_port_bw": 419430400,
                    "partial_setup_overhead_ns": 100000},
      "scheduler": {"core_rate": 1, "tick_period_ns": 100000,
                    "migration_penalty_ns": 1000000},
      "modules":   [{"id": "lif0", "kind": "lif_core", "share": 0.04}],
      "vms":       [{"id": "vmA", "share": 0.125, "cores": 2}],
      "tasks":     [{"id": "t0", "steps": 100, "input_rate": 8,
                     "fan_in": 256, "data_size": 4096,
                     "deadline_ns": null, "arrival_ns": 0,
                     "mode": "spiking"}],
      "transfers": [{"vm": "vmA", "size_bytes": 1048576,
                     "start_ns": 0, "count": 4}],
      "reconfigs": [{"vm": "vmA", "module": "lif0",
                     "mode": "partial", "at_ns": 1000000}]
    }

A run is a pure function of its scenario: ``seed`` seeds its only random
draws, a spiking task's weights and input picks. The bench commands take
no scenario and no seed; each is a pure function of its arguments.

A module's ``kind`` and a task's ``data_size`` are labels that no model
reads: reconfiguration time depends only on bitstream bytes, and a task's
duration only on its steps, input rate and fan-in. They stay in the schema
because the benchmark's generated scenarios write them.

The rule tables below (``TOP`` to ``RECONFIG_OP``) are the field
reference. Each section is read against the dataclass it builds: that
dataclass's fields are the section's keys, with their types and defaults,
and the table gives each field's range (positive, non-negative, a share in
(0, 1], or none). Every number must also be finite and below 2**63 in
magnitude. A null value means the default. Any other key is rejected as
``$.path.key: unknown field``.

VM ``share``/module ``share`` are fabric fractions; explicit ``resources``
/ ``footprint`` objects are accepted instead, but not both. A module's
``bitstream_bytes`` defaults to its lut share of the full bitstream. A VM,
module or task id is non-empty and holds no whitespace, ``,``, ``;`` or
``=``, since it is written into ``tick,seq,kind,detail`` trace lines as a
``k=v;k=v`` detail. All ids
referenced by tasks, transfers, and reconfigs must resolve, tasks need a
VM, and the VMs and reconfigured modules must fit the fabric.
The ``peak_gibps`` table starts at 1 VM, and its peaks never fall as the
VM count grows.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import types
import typing
from dataclasses import dataclass, field

from neurovirt.fabric import (
    Fabric,
    FabricConfig,
    InsufficientResources,
    ResourceVector,
    RESOURCE_CLASSES,
)
from neurovirt.iodriver import LinkModel
from neurovirt.metrics import EnergyModel
from neurovirt.sched import (
    DEFAULT_CORE_RATE,
    DEFAULT_MIGRATION_PENALTY_NS,
    DEFAULT_TICK_PERIOD_NS,
)
from neurovirt.virt import (
    DfxModule,
    ModuleKind,
    ReconfigMode,
    ReconfigParams,
    bitstream_bytes_for,
    module_from_share,
)

SCHEMA_VERSION = 1

# Default loadable-function catalog, as fabric shares. Sized so a 5% region
# slot can hold any single module and sixteen such slots fit the fabric.
DEFAULT_MODULE_SHARES = {
    "lif_core": 0.04,
    "router": 0.015,
    "pooling": 0.025,
}


class ParseError(Exception):
    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


class ValidationError(Exception):
    def __init__(self, fieldpath: str, message: str):
        self.field = fieldpath
        super().__init__(f"{fieldpath}: {message}")


@dataclass(frozen=True)
class VmDef:
    id: str
    request: ResourceVector
    cores: int | None = None


@dataclass(frozen=True)
class TaskDef:
    id: str
    steps: int
    input_rate: int
    fan_in: int
    data_size: int = 0
    deadline_ns: int | None = None
    arrival_ns: int = 0
    mode: typing.Literal["analytic", "spiking"] = "analytic"


@dataclass(frozen=True)
class TransferDef:
    vm: str
    size_bytes: int
    start_ns: int = 0
    count: int = 1


@dataclass(frozen=True)
class ReconfigOp:
    vm: str
    module: str
    mode: ReconfigMode = ReconfigMode.PARTIAL
    at_ns: int = 0


@dataclass
class Scenario:
    seed: int
    duration_ns: int = 10_000_000
    sample_period_ns: int = 1_000_000
    fabric: FabricConfig = field(default_factory=FabricConfig)
    link: LinkModel = field(default_factory=LinkModel)
    energy: EnergyModel = field(default_factory=EnergyModel)
    reconfig: ReconfigParams = field(default_factory=ReconfigParams)
    core_rate: int = DEFAULT_CORE_RATE
    tick_period_ns: int = DEFAULT_TICK_PERIOD_NS
    migration_penalty_ns: int = DEFAULT_MIGRATION_PENALTY_NS
    modules: dict[str, DfxModule] = field(default_factory=dict)
    vms: list[VmDef] = field(default_factory=list)
    tasks: list[TaskDef] = field(default_factory=list)
    transfers: list[TransferDef] = field(default_factory=list)
    reconfigs: list[ReconfigOp] = field(default_factory=list)


def default_module_catalog(config: FabricConfig) -> dict[str, DfxModule]:
    catalog = {}
    for name, share in DEFAULT_MODULE_SHARES.items():
        catalog[name] = module_from_share(
            name, ModuleKind(name), share, config.total, config.bitstream_total_bytes
        )
    return catalog


def _section(model, rules: dict, by_hand: tuple = ()):
    """Compile one section of the schema: the keys it allows, and for each
    ruled field of ``model`` its (key, kind, required, rule). A number
    field without a range rule gets :data:`ANY`."""
    hints = typing.get_type_hints(model)
    fields = {f.name: f for f in dataclasses.fields(model)}
    entries = []
    for key, rule in rules.items():
        kind = _kind(hints[key])
        if rule is None and kind in (int, float):
            rule = ANY
        required = (fields[key].default is dataclasses.MISSING
                    and fields[key].default_factory is dataclasses.MISSING)
        entries.append((key, kind, required, rule))
    return frozenset(rules).union(by_hand), tuple(entries)


def _kind(hint):
    """What :func:`_check` tests a value against: a type, or a dict from
    the allowed values of an enum or ``Literal`` to what each loads as."""
    if typing.get_origin(hint) is typing.Literal:
        return {value: value for value in typing.get_args(hint)}
    if isinstance(hint, types.UnionType):  # X | None: null means the default
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if isinstance(hint, enum.EnumMeta):
        return {member.value: member for member in hint}
    return hint


# Range rules: (lowest, highest, message), both ends allowed. Every number
# stays below 2**63 in magnitude (a JSON integer is unbounded, and a larger
# one can overflow a float conversion), and NaN is never in range.
_MAX = 2**63 - 1
_LEAST_POSITIVE = math.ulp(0.0)  # for an int, the same as >= 1
ANY = (-_MAX, _MAX, None)
POSITIVE = (_LEAST_POSITIVE, _MAX, "must be positive")
NON_NEGATIVE = (0, _MAX, "must be non-negative")
SHARE = (_LEAST_POSITIVE, 1.0, "must be in (0, 1]")

# The field reference. Each section is read against the dataclass it builds:
# its fields are the section's keys, with their types and defaults, and the
# table gives each loaded field's range rule. The keys after a table are
# documented alternatives, read by hand in scenario_from_dict.
TOP = _section(
    Scenario,
    {"seed": None, "duration_ns": POSITIVE, "sample_period_ns": POSITIVE},
    ("schema_version", "fabric", "link", "energy", "reconfig", "scheduler",
     "modules", "vms", "tasks", "transfers", "reconfigs"),
)
SCHEDULER = _section(
    Scenario,
    {"core_rate": POSITIVE, "tick_period_ns": POSITIVE, "migration_penalty_ns": NON_NEGATIVE},
)
FABRIC = _section(
    FabricConfig,
    {"total": None, "neurocore_count": POSITIVE, "neurons_per_core": POSITIVE,
     "bitstream_total_bytes": POSITIVE},
)
RESOURCES = _section(ResourceVector, {name: NON_NEGATIVE for name in RESOURCE_CLASSES})
LINK = _section(
    LinkModel, {"latency_ns": NON_NEGATIVE, "ring_capacity": POSITIVE}, ("peak_gibps",)
)
ENERGY = _section(EnergyModel, {"dyn_nj_per_synop": NON_NEGATIVE})
RECONFIG = _section(
    ReconfigParams, {"config_port_bw": POSITIVE, "partial_setup_overhead_ns": NON_NEGATIVE}
)
MODULE = _section(
    DfxModule, {"id": None, "kind": None}, ("share", "footprint", "bitstream_bytes")
)
VM = _section(VmDef, {"id": None, "cores": POSITIVE}, ("share", "resources"))
TASK = _section(
    TaskDef,
    {"id": None, "steps": POSITIVE, "input_rate": POSITIVE, "fan_in": POSITIVE,
     "data_size": NON_NEGATIVE, "deadline_ns": None, "arrival_ns": NON_NEGATIVE,
     "mode": None},
)
TRANSFER = _section(
    TransferDef,
    {"vm": None, "size_bytes": POSITIVE, "start_ns": NON_NEGATIVE, "count": POSITIVE},
)
RECONFIG_OP = _section(
    ReconfigOp, {"vm": None, "module": None, "mode": None, "at_ns": NON_NEGATIVE}
)

_JSON_TYPES = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    list: "array", dict: "object", ResourceVector: "object",
}


def _load(obj, path: str, section) -> dict:
    """The ruled fields that ``obj`` gives, each checked by :func:`_check`.
    Absent and null fields are left out, so the model's defaults apply."""
    allowed, entries = section
    if obj is None:
        obj = {}
    elif not isinstance(obj, dict):
        raise ValidationError(path, "expected an object")
    if not allowed.issuperset(obj):
        key = next(key for key in obj if key not in allowed)
        raise ValidationError(f"{path}.{key}", "unknown field")
    values = {}
    for key, kind, required, rule in entries:
        value = obj.get(key)
        if value is not None or required:
            values[key] = _check(value, kind, rule, path, key)
    return values


def _check(value, kind, rule, path: str, key):
    """``value``, found at ``path.key``, loaded as ``kind`` and held to
    ``rule``: an int is not a bool, a float accepts an int (converted only
    once it is in range), a choice resolves from its value."""
    got = type(value)
    if got is not kind and not (kind is float and got is int):
        if type(kind) is dict and got is str and value in kind:
            return kind[value]
        if kind is ResourceVector and isinstance(value, dict):
            return ResourceVector(**_load(value, f"{path}.{key}", RESOURCES))
        raise ValidationError(f"{path}.{key}", _mismatch(value, kind))
    if rule is not None and not rule[0] <= value <= rule[1]:
        raise ValidationError(f"{path}.{key}", _out_of_range(value, rule[2]))
    return value if got is kind else float(value)


def _out_of_range(value, message: str | None) -> str:
    if -_MAX <= value <= _MAX:
        return message
    if type(value) is float and not math.isfinite(value):
        return "must be finite"
    return "must be below 2**63 in magnitude"


def _mismatch(value, kind) -> str:
    if value is None:
        return "missing required field"
    if type(kind) is dict:
        return f"unknown value {value!r}; expected one of {list(kind)}"
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return f"expected {_JSON_TYPES[kind]}, got {got}"


def _is_id(text: str) -> bool:
    """``text`` is non-empty and holds no whitespace, ``,``, ``;`` or ``=``,
    so it can stand as a value in a trace line's ``k=v;k=v`` detail."""
    return text.split() == [text] and not any(c in text for c in ",;=")


def _check_ids(ids: list[str], path: str) -> None:
    """Refuse the first of a section's ids, in row order, that is not
    :func:`_is_id`."""
    # non-empty ids join into an id iff each is one, so one scan clears a
    # whole section: a regex match per id cost ~9% of scenario_from_dict
    # on 1,600 tasks
    if all(ids) and _is_id("".join(ids)):
        return
    for i, value in enumerate(ids):
        if not _is_id(value):
            raise ValidationError(
                f"{path}[{i}].id", "must be non-empty, without whitespace, ',', ';' or '='"
            )


def _rows(data: dict, key: str) -> list:
    rows = data.get(key)
    return [] if rows is None else _check(rows, list, None, "$", key)


def _share_or(row: dict, path: str, key: str, total: ResourceVector) -> ResourceVector:
    """A row's resources: a fabric ``share``, or a resource object at ``key``."""
    if row.get(key) is None:
        return total.share(_check(row.get("share"), float, SHARE, path, "share"))
    if row.get("share") is not None:
        raise ValidationError(f"{path}.share", f"give share or {key}, not both")
    return _check(row[key], ResourceVector, None, path, key)


def _peak_table(peaks) -> tuple[tuple[int, float], ...]:
    path = "$.link.peak_gibps"
    entries = []
    for key, value in _check(peaks, dict, None, "$.link", "peak_gibps").items():
        try:
            count = int(key)
        except ValueError:
            raise ValidationError(f"{path}.{key}", "keys must be VM counts") from None
        entries.append((count, _check(value, float, ANY, path, key)))
    return tuple(sorted(entries))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("$", "scenario must be a JSON object")
    version = _check(data.get("schema_version"), int, ANY, "$", "schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError("$.schema_version", f"unsupported version {version}")
    top = _load(data, "$", TOP)

    fabric_values = _load(data.get("fabric"), "$.fabric", FABRIC)
    try:
        fabric = FabricConfig(**fabric_values)
    except ValueError as exc:  # _load has checked each field on its own
        raise ValidationError("$.fabric", str(exc)) from None
    total = fabric.total

    link_values = _load(data.get("link"), "$.link", LINK)
    peaks = (data.get("link") or {}).get("peak_gibps")
    if peaks is not None:
        link_values["peak_gibps"] = _peak_table(peaks)
    try:
        link = LinkModel(**link_values)
    except ValueError as exc:  # _load has checked the rest of the section
        raise ValidationError("$.link.peak_gibps", str(exc)) from None

    scenario = Scenario(
        **top,
        **_load(data.get("scheduler"), "$.scheduler", SCHEDULER),
        fabric=fabric,
        link=link,
        energy=EnergyModel(**_load(data.get("energy"), "$.energy", ENERGY)),
        reconfig=ReconfigParams(**_load(data.get("reconfig"), "$.reconfig", RECONFIG)),
    )

    if data.get("modules") is None:
        scenario.modules = default_module_catalog(fabric)
    for i, row in enumerate(_rows(data, "modules")):
        path = f"$.modules[{i}]"
        values = _load(row, path, MODULE)
        footprint = _share_or(row, path, "footprint", total)
        bitstream = row.get("bitstream_bytes")
        if bitstream is None:
            bitstream = bitstream_bytes_for(footprint, total, fabric.bitstream_total_bytes)
        module = DfxModule(
            footprint=footprint,
            bitstream_bytes=_check(bitstream, int, NON_NEGATIVE, path, "bitstream_bytes"),
            **values,
        )
        if module.id in scenario.modules:
            raise ValidationError(f"{path}.id", f"duplicate module id {module.id!r}")
        scenario.modules[module.id] = module
    _check_ids(list(scenario.modules), "$.modules")  # the default catalog passes

    # replay the VM requests in creation order against a scratch fabric, so
    # an overcommit is reported here instead of when the run sets up
    scratch = Fabric(fabric)
    vm_requests: dict[str, ResourceVector] = {}
    for i, row in enumerate(_rows(data, "vms")):
        path = f"$.vms[{i}]"
        values = _load(row, path, VM)
        vm = VmDef(request=_share_or(row, path, "resources", total), **values)
        if vm.id in vm_requests:
            raise ValidationError(f"{path}.id", f"duplicate vm id {vm.id!r}")
        try:
            scratch.allocate(vm.request)
        except (InsufficientResources, ValueError) as exc:
            raise ValidationError(path, str(exc)) from None
        vm_requests[vm.id] = vm.request
        scenario.vms.append(vm)
    _check_ids(list(vm_requests), "$.vms")

    task_ids = set()
    for i, row in enumerate(_rows(data, "tasks")):
        path = f"$.tasks[{i}]"
        task = TaskDef(**_load(row, path, TASK))
        if task.id in task_ids:
            raise ValidationError(f"{path}.id", f"duplicate task id {task.id!r}")
        task_ids.add(task.id)
        if task.deadline_ns is not None and task.deadline_ns <= task.arrival_ns:
            raise ValidationError(f"{path}.deadline_ns", "must exceed arrival_ns")
        scenario.tasks.append(task)
    _check_ids([task.id for task in scenario.tasks], "$.tasks")
    if scenario.tasks and not scenario.vms:
        raise ValidationError("$.tasks", "no vm to run them on")

    for i, row in enumerate(_rows(data, "transfers")):
        path = f"$.transfers[{i}]"
        transfer = TransferDef(**_load(row, path, TRANSFER))
        if transfer.vm not in vm_requests:
            raise ValidationError(f"{path}.vm", f"unknown vm {transfer.vm!r}")
        scenario.transfers.append(transfer)

    for i, row in enumerate(_rows(data, "reconfigs")):
        path = f"$.reconfigs[{i}]"
        op = ReconfigOp(**_load(row, path, RECONFIG_OP))
        if op.vm not in vm_requests:
            raise ValidationError(f"{path}.vm", f"unknown vm {op.vm!r}")
        module = scenario.modules.get(op.module)
        if module is None:
            raise ValidationError(f"{path}.module", f"unknown module {op.module!r}")
        # the rule Hypervisor.exchange_module applies: a VM's slot is its request
        if not module.footprint.fits_within(vm_requests[op.vm]):
            raise ValidationError(
                f"{path}.module", f"{op.module} does not fit {op.vm}'s slot"
            )
        scenario.reconfigs.append(op)

    return scenario


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file.

    Raises ParseError with a line number on malformed JSON and
    ValidationError with a field path on schema violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from exc
    return scenario_from_dict(data)
