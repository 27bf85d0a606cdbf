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
      "link":      {"latency_ns": 10000, "ring_capacity": 256},
      "energy":    {"dyn_nj_per_synop": 1.0},
      "reconfig":  {"config_port_bw": 419430400,
                    "partial_setup_overhead_ns": 100000},
      "scheduler": {"core_rate": 1, "tick_period_ns": 100000,
                    "migration_penalty_ns": 1000000},
      "modules":   [{"id": "lif0", "kind": "lif_core", "share": 0.04,
                     "bitstream_bytes": 1258291}],
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

A row loads as its model object where one exists: a module row as its
``DfxModule``, a task row as the ``TaskSpec`` that ``sched.profile``
builds on the fabric's ``neurons_per_core``. VM, transfer and
reconfiguration rows load as plain records (``VmDef``, ``TransferDef``,
``ReconfigOp``), since their model objects exist only once a run wires
them. A module's ``kind`` and a task's ``data_size`` are labels that no
model reads: reconfiguration time depends only on bitstream bytes, and a
task's duration only on its steps, input rate and fan-in. The loader
checks both and stores neither; they stay in the schema because the
benchmark's generated scenarios write them.

The rule tables below (``TOP`` to ``RECONFIG_OP``) are the field
reference. Each lists its section's keys: for each, the kind of value it
takes (a JSON type, or a set of choices), whether it is required, and its
range (positive, non-negative, a share in (0, 1], or none). A key the
section leaves out takes the default of the model it builds. Every number
must also be finite and below 2**63 in magnitude. A null value means the
default. Any other key is rejected as ``$.path.key: unknown field``.

A VM's or module's ``share`` is its fraction of the fabric. A module's
``bitstream_bytes`` defaults to its lut share of the full bitstream. A VM,
module or task id is non-empty and holds no whitespace, ``,``, ``;`` or
``=``, since it is written into ``tick,seq,kind,detail`` trace lines as a
``k=v;k=v`` detail. All ids
referenced by tasks, transfers, and reconfigs must resolve, tasks need a
VM, and the VMs and reconfigured modules must fit the fabric.
A run schedules its samples before it starts, so ``duration_ns`` may span
at most :data:`MAX_SAMPLES` sample periods. A task's ``arrival_ns``, a
transfer's ``start_ns`` and a reconfiguration's ``at_ns`` are at most
``duration_ns``, since a later one would never fire. The link's peak
bandwidth per active-VM count is the model constant
``iodriver.PEAK_GIBPS``, not a key.
"""

from __future__ import annotations

import json
import math

from neurovirt.fabric import (
    Fabric,
    FabricConfig,
    InsufficientResources,
    ResourceVector,
    RESOURCE_CLASSES,
)
from neurovirt.iodriver import LinkModel
from neurovirt.metrics import EnergyModel
from neurovirt.record import FrozenRecord, Record
from neurovirt.sched import (
    DEFAULT_CORE_RATE,
    DEFAULT_MIGRATION_PENALTY_NS,
    DEFAULT_TICK_PERIOD_NS,
    TaskSpec,
    profile,
)
from neurovirt.virt import (
    DfxModule,
    ReconfigMode,
    ReconfigParams,
    default_module_catalog,
    module_from_share,
)

SCHEMA_VERSION = 1
# the most samples a run may take: MetricsCollector.start_sampling schedules
# every one before the run starts, in time and memory linear in their count
MAX_SAMPLES = 100_000


class ParseError(Exception):
    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


class ValidationError(Exception):
    def __init__(self, fieldpath: str, message: str):
        self.field = fieldpath
        super().__init__(f"{fieldpath}: {message}")


class VmDef(FrozenRecord):
    __slots__ = ("id", "share", "cores")

    def __init__(self, id: str, share: float, cores: int | None = None):
        setattr_ = object.__setattr__
        setattr_(self, "id", id)
        setattr_(self, "share", share)
        setattr_(self, "cores", cores)


class TransferDef(FrozenRecord):
    __slots__ = ("vm", "size_bytes", "start_ns", "count")

    def __init__(self, vm: str, size_bytes: int, start_ns: int = 0, count: int = 1):
        setattr_ = object.__setattr__
        setattr_(self, "vm", vm)
        setattr_(self, "size_bytes", size_bytes)
        setattr_(self, "start_ns", start_ns)
        setattr_(self, "count", count)


class ReconfigOp(FrozenRecord):
    __slots__ = ("vm", "module", "mode", "at_ns")

    def __init__(self, vm: str, module: str, mode: ReconfigMode = ReconfigMode.PARTIAL,
                 at_ns: int = 0):
        setattr_ = object.__setattr__
        setattr_(self, "vm", vm)
        setattr_(self, "module", module)
        setattr_(self, "mode", mode)
        setattr_(self, "at_ns", at_ns)


class Scenario(Record):
    """A whole simulation. A model or collection left as None is a new default."""

    __slots__ = ("seed", "duration_ns", "sample_period_ns", "fabric", "link", "energy",
                 "reconfig", "core_rate", "tick_period_ns", "migration_penalty_ns", "modules",
                 "vms", "tasks", "transfers", "reconfigs")

    def __init__(
        self,
        seed: int,
        duration_ns: int = 10_000_000,
        sample_period_ns: int = 1_000_000,
        fabric: FabricConfig | None = None,
        link: LinkModel | None = None,
        energy: EnergyModel | None = None,
        reconfig: ReconfigParams | None = None,
        core_rate: int = DEFAULT_CORE_RATE,
        tick_period_ns: int = DEFAULT_TICK_PERIOD_NS,
        migration_penalty_ns: int = DEFAULT_MIGRATION_PENALTY_NS,
        modules: dict[str, DfxModule] | None = None,
        vms: list[VmDef] | None = None,
        tasks: list[TaskSpec] | None = None,
        transfers: list[TransferDef] | None = None,
        reconfigs: list[ReconfigOp] | None = None,
    ):
        self.seed = seed
        self.duration_ns = duration_ns
        self.sample_period_ns = sample_period_ns
        self.fabric = FabricConfig() if fabric is None else fabric
        self.link = LinkModel() if link is None else link
        self.energy = EnergyModel() if energy is None else energy
        self.reconfig = ReconfigParams() if reconfig is None else reconfig
        self.core_rate = core_rate
        self.tick_period_ns = tick_period_ns
        self.migration_penalty_ns = migration_penalty_ns
        self.modules = {} if modules is None else modules
        self.vms = [] if vms is None else vms
        self.tasks = [] if tasks is None else tasks
        self.transfers = [] if transfers is None else transfers
        self.reconfigs = [] if reconfigs is None else reconfigs


def _section(fields: dict, required: tuple = (), by_hand: tuple = ()):
    """Compile one section of the schema from ``fields``, which maps each
    ruled key to its (kind, range rule): the keys the section allows, and
    for each ruled key its (key, kind, required, rule). A kind is what
    :func:`_check` tests a value against: a type, or a dict from each
    allowed value to what it loads as. A number field without a range rule
    gets :data:`ANY`."""
    entries = []
    for key, (kind, rule) in fields.items():
        if rule is None and kind in (int, float):
            rule = ANY
        entries.append((key, kind, key in required, rule))
    return frozenset(fields).union(by_hand), tuple(entries)


# choice kinds: each allowed value to what it loads as
MODULE_KINDS = {kind: kind for kind in ("lif_core", "router", "pooling")}
TASK_MODES = {"analytic": False, "spiking": True}  # profile's spiking flag
RECONFIG_MODES = {mode.value: mode for mode in ReconfigMode}


# Range rules: (lowest, highest, message), both ends allowed. Every number
# stays below 2**63 in magnitude (a JSON integer is unbounded, and a larger
# one can overflow a float conversion), and NaN is never in range.
_MAX = 2**63 - 1
_LEAST_POSITIVE = math.ulp(0.0)  # for an int, the same as >= 1
ANY = (-_MAX, _MAX, None)
POSITIVE = (_LEAST_POSITIVE, _MAX, "must be positive")
NON_NEGATIVE = (0, _MAX, "must be non-negative")
SHARE = (_LEAST_POSITIVE, 1.0, "must be in (0, 1]")

# The field reference: each table's keys, each with its kind and range rule,
# and which keys are required. An absent optional key takes the default of
# the model the section builds. The keys after a table are read by hand in
# scenario_from_dict.
TOP = _section(
    {"seed": (int, None), "duration_ns": (int, POSITIVE), "sample_period_ns": (int, POSITIVE)},
    required=("seed",),
    by_hand=("schema_version", "fabric", "link", "energy", "reconfig", "scheduler",
             "modules", "vms", "tasks", "transfers", "reconfigs"),
)
SCHEDULER = _section(
    {"core_rate": (int, POSITIVE), "tick_period_ns": (int, POSITIVE),
     "migration_penalty_ns": (int, NON_NEGATIVE)},
)
FABRIC = _section(
    {"total": (ResourceVector, None), "neurocore_count": (int, POSITIVE),
     "neurons_per_core": (int, POSITIVE), "bitstream_total_bytes": (int, POSITIVE)},
)
RESOURCES = _section({name: (int, NON_NEGATIVE) for name in RESOURCE_CLASSES})
LINK = _section({"latency_ns": (int, NON_NEGATIVE), "ring_capacity": (int, POSITIVE)})
ENERGY = _section({"dyn_nj_per_synop": (float, NON_NEGATIVE)})
RECONFIG = _section(
    {"config_port_bw": (int, POSITIVE), "partial_setup_overhead_ns": (int, NON_NEGATIVE)}
)
MODULE = _section(
    {"id": (str, None), "kind": (MODULE_KINDS, None), "share": (float, SHARE),
     "bitstream_bytes": (int, NON_NEGATIVE)},
    required=("id", "kind", "share"),
)
VM = _section(
    {"id": (str, None), "cores": (int, POSITIVE), "share": (float, SHARE)},
    required=("id", "share"),
)
TASK = _section(
    {"id": (str, None), "steps": (int, POSITIVE), "input_rate": (int, POSITIVE),
     "fan_in": (int, POSITIVE), "data_size": (int, NON_NEGATIVE), "deadline_ns": (int, None),
     "arrival_ns": (int, NON_NEGATIVE), "mode": (TASK_MODES, None)},
    required=("id", "steps", "input_rate", "fan_in"),
)
TRANSFER = _section(
    {"vm": (str, None), "size_bytes": (int, POSITIVE), "start_ns": (int, NON_NEGATIVE),
     "count": (int, POSITIVE)},
    required=("vm", "size_bytes"),
)
RECONFIG_OP = _section(
    {"vm": (str, None), "module": (str, None), "mode": (RECONFIG_MODES, None),
     "at_ns": (int, NON_NEGATIVE)},
    required=("vm", "module"),
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

    scenario = Scenario(
        **top,
        **_load(data.get("scheduler"), "$.scheduler", SCHEDULER),
        fabric=fabric,
        link=LinkModel(**_load(data.get("link"), "$.link", LINK)),
        energy=EnergyModel(**_load(data.get("energy"), "$.energy", ENERGY)),
        reconfig=ReconfigParams(**_load(data.get("reconfig"), "$.reconfig", RECONFIG)),
    )
    if scenario.duration_ns // scenario.sample_period_ns > MAX_SAMPLES:
        raise ValidationError("$.duration_ns", f"must be at most {MAX_SAMPLES} sample periods")

    if data.get("modules") is None:
        scenario.modules = default_module_catalog(fabric)
    for i, row in enumerate(_rows(data, "modules")):
        path = f"$.modules[{i}]"
        values = _load(row, path, MODULE)  # kind is checked, then dropped
        module = module_from_share(values["id"], values["share"], total,
                                   fabric.bitstream_total_bytes)
        if "bitstream_bytes" in values:
            module = DfxModule(module.id, module.footprint, values["bitstream_bytes"])
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
        vm = VmDef(**_load(row, path, VM))
        if vm.id in vm_requests:
            raise ValidationError(f"{path}.id", f"duplicate vm id {vm.id!r}")
        request = total.share(vm.share)
        try:
            scratch.allocate(request)
        except (InsufficientResources, ValueError) as exc:
            raise ValidationError(path, str(exc)) from None
        vm_requests[vm.id] = request
        scenario.vms.append(vm)
    _check_ids(list(vm_requests), "$.vms")

    duration = scenario.duration_ns
    neurons_per_core = fabric.neurons_per_core
    task_ids = set()
    for i, row in enumerate(_rows(data, "tasks")):
        path = f"$.tasks[{i}]"
        values = _load(row, path, TASK)  # data_size is checked, then dropped
        # an absent optional key takes profile's default
        task = profile(values["id"], values["steps"], values["input_rate"], values["fan_in"],
                       neurons_per_core, values.get("deadline_ns"),
                       values.get("arrival_ns", 0), values.get("mode", False))
        if task.id in task_ids:
            raise ValidationError(f"{path}.id", f"duplicate task id {task.id!r}")
        task_ids.add(task.id)
        if task.arrival > duration:
            raise ValidationError(f"{path}.arrival_ns", "must be at most duration_ns")
        if task.deadline is not None and task.deadline <= task.arrival:
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
        if transfer.start_ns > duration:
            raise ValidationError(f"{path}.start_ns", "must be at most duration_ns")
        scenario.transfers.append(transfer)

    for i, row in enumerate(_rows(data, "reconfigs")):
        path = f"$.reconfigs[{i}]"
        op = ReconfigOp(**_load(row, path, RECONFIG_OP))
        if op.vm not in vm_requests:
            raise ValidationError(f"{path}.vm", f"unknown vm {op.vm!r}")
        if op.at_ns > duration:
            raise ValidationError(f"{path}.at_ns", "must be at most duration_ns")
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

    Raises ParseError with a line number on a file that is not UTF-8 or
    not JSON (line 1 for nesting too deep to decode, which gives no
    position), and ValidationError with a field path on schema violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # read() decodes the whole file in one call: exc.object is all of it
            text = fh.read()
    except UnicodeDecodeError as exc:
        byte, line = exc.object[exc.start], exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"byte {byte:#04x} is not UTF-8: {exc.reason}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from exc
    except RecursionError:
        raise ParseError(path, 1, "nested too deeply to decode") from None
    return scenario_from_dict(data)
