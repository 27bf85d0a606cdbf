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
      "energy":    {"base_mj": 25.0, "slope_mj": 1.052631578947368,
                    "dyn_nj_per_synop": 1.0},
      "reconfig":  {"config_port_bw": 419430400,
                    "partial_setup_overhead_ns": 100000},
      "scheduler": {"core_rate": 1, "tick_period_ns": 100000,
                    "migration_penalty_ns": 1000000},
      "modules":   [{"id": "lif0", "kind": "lif_core", "share": 0.04}],
      "vms":       [{"id": "vmA", "share": 0.125, "cores": 2,
                     "priority": "batch"}],
      "tasks":     [{"id": "t0", "steps": 100, "input_rate": 8,
                     "fan_in": 256, "data_size": 4096,
                     "deadline_ns": null, "arrival_ns": 0,
                     "mode": "spiking"}],
      "transfers": [{"vm": "vmA", "size_bytes": 1048576,
                     "start_ns": 0, "count": 4}],
      "reconfigs": [{"vm": "vmA", "module": "lif0",
                     "mode": "partial", "at_ns": 1000000}]
    }

VM ``share``/module ``share`` are fabric fractions; explicit ``resources``
/ ``footprint`` objects are accepted instead. All ids referenced by tasks,
transfers, and reconfigs must resolve.
"""

from __future__ import annotations

import json
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
    Priority,
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
    cores: int | None
    priority: Priority


@dataclass(frozen=True)
class TaskDef:
    id: str
    steps: int
    input_rate: int
    fan_in: int
    data_size: int
    deadline_ns: int | None
    arrival_ns: int
    mode: str  # "spiking" | "analytic"


@dataclass(frozen=True)
class TransferDef:
    vm: str
    size_bytes: int
    start_ns: int
    count: int


@dataclass(frozen=True)
class ReconfigOp:
    vm: str
    module: str
    mode: ReconfigMode
    at_ns: int


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


def _expect(obj, key, kind, path, default=None, required=False):
    if key not in obj or (obj[key] is None and not required):
        if required:
            raise ValidationError(f"{path}.{key}", "missing required field")
        return default
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ValidationError(f"{path}.{key}", "expected an integer")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ValidationError(
            f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _resource_vector(obj, path) -> ResourceVector:
    if not isinstance(obj, dict):
        raise ValidationError(path, "expected an object of resource counts")
    unknown = set(obj) - set(RESOURCE_CLASSES)
    if unknown:
        raise ValidationError(path, f"unknown resource classes {sorted(unknown)}")
    values = {name: _expect(obj, name, int, path, default=0) for name in RESOURCE_CLASSES}
    try:
        return ResourceVector(**values)
    except ValueError as exc:
        raise ValidationError(path, str(exc)) from exc


def scenario_from_dict(data: dict, source: str = "<memory>") -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("$", "scenario must be a JSON object")
    version = _expect(data, "schema_version", int, "$", required=True)
    if version != SCHEMA_VERSION:
        raise ValidationError("$.schema_version", f"unsupported version {version}")
    seed = _expect(data, "seed", int, "$", required=True)

    fabric_obj = _expect(data, "fabric", dict, "$", default={})
    total = (
        _resource_vector(fabric_obj["total"], "$.fabric.total")
        if "total" in fabric_obj
        else FabricConfig().total
    )
    core_fp = (
        _resource_vector(fabric_obj["core_footprint"], "$.fabric.core_footprint")
        if "core_footprint" in fabric_obj
        else total.scaled(1, 32)
    )
    fabric = FabricConfig(
        total=total,
        neurocore_count=_expect(fabric_obj, "neurocore_count", int, "$.fabric", default=16),
        neurons_per_core=_expect(fabric_obj, "neurons_per_core", int, "$.fabric", default=256),
        core_footprint=core_fp,
        bitstream_total_bytes=_expect(
            fabric_obj, "bitstream_total_bytes", int, "$.fabric",
            default=FabricConfig().bitstream_total_bytes,
        ),
    )
    try:
        fabric.validate()
    except Exception as exc:
        raise ValidationError("$.fabric", str(exc)) from exc

    link_obj = _expect(data, "link", dict, "$", default={})
    peaks = _expect(link_obj, "peak_gibps", dict, "$.link", default=None)
    if peaks is None:
        peak_table = LinkModel().peak_gibps
    else:
        entries = []
        for key, value in peaks.items():
            try:
                count = int(key)
            except ValueError:
                raise ValidationError(
                    f"$.link.peak_gibps.{key}", "keys must be VM counts"
                ) from None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"$.link.peak_gibps.{key}", "expected a number")
            entries.append((count, float(value)))
        peak_table = tuple(sorted(entries))
    try:
        link = LinkModel(
            latency_ns=_expect(link_obj, "latency_ns", int, "$.link", default=10_000),
            peak_gibps=peak_table,
            ring_capacity=_expect(link_obj, "ring_capacity", int, "$.link", default=256),
        )
    except ValueError as exc:
        raise ValidationError("$.link", str(exc)) from exc

    energy_obj = _expect(data, "energy", dict, "$", default={})
    try:
        energy = EnergyModel(
            base_mj=_expect(energy_obj, "base_mj", float, "$.energy", default=25.0),
            slope_mj=_expect(energy_obj, "slope_mj", float, "$.energy", default=20.0 / 19.0),
            dyn_nj_per_synop=_expect(
                energy_obj, "dyn_nj_per_synop", float, "$.energy", default=1.0
            ),
        )
    except ValueError as exc:
        raise ValidationError("$.energy", str(exc)) from exc

    reconfig_obj = _expect(data, "reconfig", dict, "$", default={})
    reconfig = ReconfigParams(
        config_port_bw=_expect(
            reconfig_obj, "config_port_bw", int, "$.reconfig",
            default=ReconfigParams().config_port_bw,
        ),
        partial_setup_overhead_ns=_expect(
            reconfig_obj, "partial_setup_overhead_ns", int, "$.reconfig",
            default=ReconfigParams().partial_setup_overhead_ns,
        ),
    )

    sched_obj = _expect(data, "scheduler", dict, "$", default={})
    scenario = Scenario(
        seed=seed,
        duration_ns=_expect(data, "duration_ns", int, "$", default=10_000_000),
        sample_period_ns=_expect(data, "sample_period_ns", int, "$", default=1_000_000),
        fabric=fabric,
        link=link,
        energy=energy,
        reconfig=reconfig,
        core_rate=_expect(sched_obj, "core_rate", int, "$.scheduler", default=DEFAULT_CORE_RATE),
        tick_period_ns=_expect(
            sched_obj, "tick_period_ns", int, "$.scheduler", default=DEFAULT_TICK_PERIOD_NS
        ),
        migration_penalty_ns=_expect(
            sched_obj, "migration_penalty_ns", int, "$.scheduler",
            default=DEFAULT_MIGRATION_PENALTY_NS,
        ),
    )
    # a zero period or rate would divide by zero or reschedule at the same
    # instant forever
    positive = {
        "$.duration_ns": scenario.duration_ns,
        "$.sample_period_ns": scenario.sample_period_ns,
        "$.link.ring_capacity": link.ring_capacity,
        "$.reconfig.config_port_bw": reconfig.config_port_bw,
        "$.scheduler.core_rate": scenario.core_rate,
        "$.scheduler.tick_period_ns": scenario.tick_period_ns,
    }
    for fieldpath, value in positive.items():
        if value <= 0:
            raise ValidationError(fieldpath, "must be positive")
    if scenario.migration_penalty_ns < 0:
        raise ValidationError("$.scheduler.migration_penalty_ns", "must be non-negative")

    modules_list = _expect(data, "modules", list, "$", default=None)
    if modules_list is None:
        scenario.modules = default_module_catalog(fabric)
    else:
        for i, mod_obj in enumerate(modules_list):
            path = f"$.modules[{i}]"
            if not isinstance(mod_obj, dict):
                raise ValidationError(path, "expected an object")
            mod_id = _expect(mod_obj, "id", str, path, required=True)
            kind_name = _expect(mod_obj, "kind", str, path, required=True)
            try:
                kind = ModuleKind(kind_name)
            except ValueError:
                raise ValidationError(
                    f"{path}.kind",
                    f"unknown kind {kind_name!r}; expected one of "
                    f"{[k.value for k in ModuleKind]}",
                ) from None
            if "footprint" in mod_obj:
                footprint = _resource_vector(mod_obj["footprint"], f"{path}.footprint")
                bitstream = _expect(
                    mod_obj, "bitstream_bytes", int, path,
                    default=bitstream_bytes_for(
                        footprint, total, fabric.bitstream_total_bytes
                    ),
                )
                module = DfxModule(mod_id, kind, footprint, bitstream)
            else:
                share = _expect(mod_obj, "share", float, path, required=True)
                if not (0.0 < share <= 1.0):
                    raise ValidationError(f"{path}.share", "must be in (0, 1]")
                module = module_from_share(
                    mod_id, kind, share, total, fabric.bitstream_total_bytes
                )
            if mod_id in scenario.modules:
                raise ValidationError(f"{path}.id", f"duplicate module id {mod_id!r}")
            scenario.modules[mod_id] = module

    # replay the VM requests in creation order against a scratch fabric, so
    # an overcommit is reported here instead of when the run sets up
    scratch = Fabric(fabric)
    vm_requests: dict[str, ResourceVector] = {}
    for i, vm_obj in enumerate(_expect(data, "vms", list, "$", default=[])):
        path = f"$.vms[{i}]"
        if not isinstance(vm_obj, dict):
            raise ValidationError(path, "expected an object")
        vm_id = _expect(vm_obj, "id", str, path, required=True)
        if vm_id in vm_requests:
            raise ValidationError(f"{path}.id", f"duplicate vm id {vm_id!r}")
        if "resources" in vm_obj:
            request = _resource_vector(vm_obj["resources"], f"{path}.resources")
        else:
            share = _expect(vm_obj, "share", float, path, required=True)
            if not (0.0 < share <= 1.0):
                raise ValidationError(f"{path}.share", "must be in (0, 1]")
            request = total.share(share)
        priority_name = _expect(vm_obj, "priority", str, path, default="batch")
        try:
            priority = Priority(priority_name)
        except ValueError:
            raise ValidationError(
                f"{path}.priority",
                f"unknown priority {priority_name!r}; expected "
                f"{[p.value for p in Priority]}",
            ) from None
        cores = _expect(vm_obj, "cores", int, path, default=None)
        if cores is not None and cores <= 0:
            raise ValidationError(f"{path}.cores", "must be positive")
        try:
            scratch.allocate(request)
        except (InsufficientResources, ValueError) as exc:
            raise ValidationError(path, str(exc)) from None
        vm_requests[vm_id] = request
        scenario.vms.append(VmDef(vm_id, request, cores, priority))

    task_ids = set()
    for i, task_obj in enumerate(_expect(data, "tasks", list, "$", default=[])):
        path = f"$.tasks[{i}]"
        if not isinstance(task_obj, dict):
            raise ValidationError(path, "expected an object")
        task_id = _expect(task_obj, "id", str, path, required=True)
        if task_id in task_ids:
            raise ValidationError(f"{path}.id", f"duplicate task id {task_id!r}")
        task_ids.add(task_id)
        mode = _expect(task_obj, "mode", str, path, default="analytic")
        if mode not in ("analytic", "spiking"):
            raise ValidationError(f"{path}.mode", "expected 'analytic' or 'spiking'")
        task = TaskDef(
            id=task_id,
            steps=_expect(task_obj, "steps", int, path, required=True),
            input_rate=_expect(task_obj, "input_rate", int, path, required=True),
            fan_in=_expect(task_obj, "fan_in", int, path, required=True),
            data_size=_expect(task_obj, "data_size", int, path, default=0),
            deadline_ns=_expect(task_obj, "deadline_ns", int, path, default=None),
            arrival_ns=_expect(task_obj, "arrival_ns", int, path, default=0),
            mode=mode,
        )
        for fname in ("steps", "input_rate", "fan_in"):
            if getattr(task, fname) <= 0:
                raise ValidationError(f"{path}.{fname}", "must be positive")
        if task.deadline_ns is not None and task.deadline_ns <= task.arrival_ns:
            raise ValidationError(f"{path}.deadline_ns", "must exceed arrival_ns")
        scenario.tasks.append(task)

    for i, tr_obj in enumerate(_expect(data, "transfers", list, "$", default=[])):
        path = f"$.transfers[{i}]"
        if not isinstance(tr_obj, dict):
            raise ValidationError(path, "expected an object")
        transfer = TransferDef(
            vm=_expect(tr_obj, "vm", str, path, required=True),
            size_bytes=_expect(tr_obj, "size_bytes", int, path, required=True),
            start_ns=_expect(tr_obj, "start_ns", int, path, default=0),
            count=_expect(tr_obj, "count", int, path, default=1),
        )
        if transfer.vm not in vm_requests:
            raise ValidationError(f"{path}.vm", f"unknown vm {transfer.vm!r}")
        if transfer.size_bytes <= 0:
            raise ValidationError(f"{path}.size_bytes", "must be positive")
        if transfer.count < 1:
            raise ValidationError(f"{path}.count", "must be >= 1")
        scenario.transfers.append(transfer)

    for i, rc_obj in enumerate(_expect(data, "reconfigs", list, "$", default=[])):
        path = f"$.reconfigs[{i}]"
        if not isinstance(rc_obj, dict):
            raise ValidationError(path, "expected an object")
        mode_name = _expect(rc_obj, "mode", str, path, default="partial")
        try:
            mode = ReconfigMode(mode_name)
        except ValueError:
            raise ValidationError(
                f"{path}.mode", "expected 'full' or 'partial'"
            ) from None
        op = ReconfigOp(
            vm=_expect(rc_obj, "vm", str, path, required=True),
            module=_expect(rc_obj, "module", str, path, required=True),
            mode=mode,
            at_ns=_expect(rc_obj, "at_ns", int, path, default=0),
        )
        if op.vm not in vm_requests:
            raise ValidationError(f"{path}.vm", f"unknown vm {op.vm!r}")
        if op.module not in scenario.modules:
            raise ValidationError(f"{path}.module", f"unknown module {op.module!r}")
        # the rule Hypervisor.exchange_module applies: a VM's slot is its request
        if not scenario.modules[op.module].footprint.fits_within(vm_requests[op.vm]):
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
    return scenario_from_dict(data, source=path)
