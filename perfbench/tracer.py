"""Traced runs: spans around calls into each neurovirt module, from outside.

``Tracer.installed()`` replaces public callables of the package with
wrappers that record one span per call (name, start, end, parent, run id)
in flat arrays, and restores the originals on exit. ``Engine.schedule`` also
wraps each event's ``fn``, so every processed event gets a
``handler.<Kind>`` span. Constructors are wrapped only to keep the
instances a run creates, whose own exact counters give the simulated
statistics. Nothing here changes what the simulator computes: a traced run
must reproduce the untraced digests.
"""

from __future__ import annotations

import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from neurovirt import bench, cli, engine, fabric, iodriver, metrics, scenario, sched, snn, virt

EVENT_KINDS = (
    "SpikeStep", "SchedulerTick", "TaskArrival", "TaskDone", "TransferStart",
    "TransferComplete", "TransferRetry", "ReconfigRequest", "ReconfigDone",
    "MetricSample",
)

# the module whose code runs as each handler's own (self) time
HANDLER_LAYER = {
    "SpikeStep": "bench", "SchedulerTick": "sched", "TaskArrival": "sched",
    "TaskDone": "sched", "TransferStart": "bench", "TransferComplete": "iodriver",
    "TransferRetry": "bench", "ReconfigRequest": "bench", "ReconfigDone": "virt",
    "MetricSample": "metrics",
}

LAYERS = ("engine", "rng", "snn", "bench", "sched", "iodriver", "virt", "fabric",
          "metrics", "scenario", "cli")

# the bench.* spans report inclusive time: their share of the workload
INCLUSIVE = {
    "bench.throughput": "bench.throughput_s",
    "bench.energy": "bench.energy_s",
    "bench.reconfig": "bench.reconfig_s",
    "bench.run_scenario": "bench.run_scenario_s",
}

# every other reported time is self time: duration minus child coverage
SELF = {
    "engine.loop": "engine.loop_self_s",
    "engine.schedule": "engine.schedule_s",
    "engine.postpone": "engine.postpone_s",
    "rng.next": "rng.s",
    "snn.init": "snn.init_self_s",
    "snn.step": "snn.step_s",
    "sched.tick": "sched.tick_s",
    "sched.rebalance": "sched.rebalance_s",
    "io.submit": "io.submit_s",
    "virt.exchange": "virt.exchange_s",
    "fabric.utilization": "fabric.utilization_s",
    "metrics.sample": "metrics.sample_s",
    "metrics.export": "metrics.export_s",
    "scenario.load": "scenario.load_s",
    "cli.main": "cli.self_s",
}

CALLS = {
    "engine.schedule": "engine.scheduled",
    "engine.cancel": "engine.cancelled",
    "engine.postpone": "engine.postpone_calls",
    "rng.next": "rng.draws",
    "snn.init": "snn.init_calls",
    "snn.step": "snn.steps",
    "sched.tick": "sched.ticks",
    "io.submit": "io.submit_attempts",
    "metrics.sample": "metrics.samples",
}

SIM = (
    "engine.events", "engine.postponed_events", "snn.synops",
    "bench.throughput_over_model_max", "sched.assignments", "sched.migrations",
    "sched.deadline_misses", "sched.queue_wait_ns_p50", "io.accepted",
    "io.backpressured", "io.accept_ratio", "io.completed_gib", "virt.reconfigs_full",
    "virt.reconfigs_partial", "virt.queued", "virt.stall_full_ns",
    "virt.stall_partial_ns",
)

UNITS = {"io.completed_gib": "Gib", "sched.queue_wait_ns_p50": "ns",
         "virt.stall_full_ns": "ns", "virt.stall_partial_ns": "ns",
         "io.accept_ratio": "ratio", "bench.throughput_over_model_max": "ratio",
         "trace.overhead_ratio": "ratio"}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = list(CALLS.values()) + list(SELF.values()) + list(INCLUSIVE.values())
    names += [f"handler.{k}.{m}" for k in EVENT_KINDS for m in ("count", "s")]
    names += list(SIM) + ["trace.overhead_ratio"]
    return names


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def _throughput_over_model(csv_text: str) -> float:
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    return max(float(r[2]) / float(r[3]) for r in rows)


class Tracer:
    """Spans in flat arrays; ``run_id`` tags each span with its workload run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack = [-1]
        self.instances: dict[str, list] = {}
        self.hooked: dict[str, list] = {}

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, result)`` sees each return."""
        nid = self._intern(name)
        name_id, parent, run = self.name_id, self.parent, self.run
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _schedule(self, orig):
        def handler_span(kind, fn):
            return self.span(f"handler.{kind}", fn)

        def schedule(eng, at, kind, fn=None, *args, **kwargs):
            if fn is not None:
                fn = handler_span(kind, fn)
            return orig(eng, at, kind, fn, *args, **kwargs)

        return self.span("engine.schedule", schedule)

    def _keep(self, key: str, orig):
        kept = self.instances.setdefault(key, [])

        def init(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            kept.append(obj)

        return init

    def _record(self, key: str):
        seen = self.hooked.setdefault(key, [])
        return lambda args, result: seen.append((args, result))

    def patches(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every wrapped callable."""
        E, S, D = engine.Engine, sched.Scheduler, iodriver.IoDriver
        H, X = virt.Hypervisor, bench.SpikingExecutor
        sp = self.span
        init = sp("snn.init", snn.make_core_state)
        step = sp("snn.step", snn.step_core)
        export = sp("metrics.export", metrics.export_samples)
        load = sp("scenario.load", scenario.load_scenario)
        return [
            (cli, "main", sp("cli.main", cli.main)),
            (bench, "bench_throughput", sp("bench.throughput", bench.bench_throughput,
                                           self._record("throughput"))),
            (bench, "bench_energy", sp("bench.energy", bench.bench_energy)),
            (bench, "bench_reconfig", sp("bench.reconfig", bench.bench_reconfig)),
            (bench, "run_scenario", sp("bench.run_scenario", bench.run_scenario)),
            (scenario, "load_scenario", load),
            (cli, "load_scenario", load),
            (E, "run", sp("engine.loop", E.run)),
            (E, "run_until", sp("engine.loop", E.run_until)),
            (E, "schedule", self._schedule(E.schedule)),
            (E, "cancel", sp("engine.cancel", E.cancel)),
            (E, "postpone_pending", sp("engine.postpone", E.postpone_pending,
                                       self._record("postpone"))),
            (engine.RandomStreams, "next", sp("rng.next", engine.RandomStreams.next)),
            (snn, "make_core_state", init),
            (bench, "make_core_state", init),
            (snn, "step_core", step),
            (bench, "step_core", step),
            (S, "schedule_tick", sp("sched.tick", S.schedule_tick)),
            (S, "rebalance_on_contention", sp("sched.rebalance", S.rebalance_on_contention)),
            (S, "submit", sp("sched.submit", S.submit, self._record("submit"))),
            (D, "submit", sp("io.submit", D.submit)),
            (H, "exchange_module", sp("virt.exchange", H.exchange_module,
                                      self._record("exchange"))),
            (fabric.Fabric, "utilization", sp("fabric.utilization", fabric.Fabric.utilization)),
            (metrics.MetricsCollector, "sample", sp("metrics.sample", metrics.MetricsCollector.sample)),
            (metrics, "export_samples", export),
            (bench, "export_samples", export),
            (E, "__init__", self._keep("engine", E.__init__)),
            (S, "__init__", self._keep("sched", S.__init__)),
            (D, "__init__", self._keep("io", D.__init__)),
            (H, "__init__", self._keep("virt", H.__init__)),
            (X, "__init__", self._keep("executor", X.__init__)),
        ]

    @contextmanager
    def installed(self):
        """Wrap the package's callables for the duration of the block."""
        patches = self.patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def begin_run(self, run_id: int) -> None:
        """Start a workload run: new span tag, fresh instance and result lists."""
        self.run_id = run_id
        for kept in list(self.instances.values()) + list(self.hooked.values()):
            kept.clear()

    def sim_stats(self) -> dict[str, float]:
        """Exact simulated statistics of the current run, from its instances."""
        inst, hooked = self.instances, self.hooked
        drivers, hvs, scheds = inst.get("io", []), inst.get("virt", []), inst.get("sched", [])
        accepted = sum(d.submissions for d in drivers)
        backpressured = sum(d.backpressured for d in drivers)
        submitted = {(id(sch), task.id): (sch, task) for (sch, task), _ in hooked.get("submit", [])}
        waits = [a.start - submitted[id(s), a.task_id][1].arrival
                 for s in scheds for a in s.assignments]
        misses = sum(
            1 for sch, task in submitted.values()
            if task.deadline is not None
            and sch.finished.get(task.id, task.deadline + 1) > task.deadline
        )
        records = [r for hv in hvs for r in hv.records]
        throughput = hooked.get("throughput", [])
        return {
            "engine.events": sum(e.processed_count for e in inst.get("engine", [])),
            "engine.postponed_events": sum(r for _, r in hooked.get("postpone", [])),
            "snn.synops": sum(x.total_synops for x in inst.get("executor", [])),
            "bench.throughput_over_model_max": max(
                (_throughput_over_model(csv) for _, csv in throughput), default=0.0),
            "sched.assignments": sum(len(s.assignments) for s in scheds),
            "sched.migrations": sum(len(s.migrations) for s in scheds),
            "sched.deadline_misses": misses,
            "sched.queue_wait_ns_p50": statistics.median_low(waits) if waits else 0,
            "io.accepted": accepted,
            "io.backpressured": backpressured,
            "io.accept_ratio": accepted / (accepted + backpressured) if accepted else 0.0,
            "io.completed_gib": sum(d.completed_bits for d in drivers) / iodriver.GIB,
            "virt.reconfigs_full": sum(r.mode is virt.ReconfigMode.FULL for r in records),
            "virt.reconfigs_partial": sum(r.mode is virt.ReconfigMode.PARTIAL for r in records),
            "virt.queued": sum(r is None for _, r in hooked.get("exchange", [])),
            "virt.stall_full_ns": sum(hv.reconfig_accum[virt.ReconfigMode.FULL] for hv in hvs),
            "virt.stall_partial_ns": sum(
                hv.reconfig_accum[virt.ReconfigMode.PARTIAL] for hv in hvs),
        }

    def times(self) -> dict[int, dict[str, tuple[int, float, float]]]:
        """run id -> span name -> (calls, inclusive s, self s)."""
        n = len(self.start)
        if n == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        run = np.frombuffer(self.run, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        k = len(self.names)
        key = run.astype(np.int64) * k + name_id
        size = (int(run.max()) + 1) * k
        calls = np.bincount(key, minlength=size)
        incl = np.bincount(key, weights=dur, minlength=size)
        excl = np.bincount(key, weights=own, minlength=size)
        out: dict[int, dict[str, tuple[int, float, float]]] = {}
        for r in np.unique(run):
            base = int(r) * k
            out[int(r)] = {
                name: (int(calls[base + i]), float(incl[base + i]), float(excl[base + i]))
                for i, name in enumerate(self.names) if calls[base + i]
            }
        return out

    def save(self, path: Path) -> None:
        """Write every recorded span; ``names[name_id]`` is a span's name."""
        np.savez(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int64), run=np.frombuffer(self.run, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


def layer_metrics(spans: dict[str, tuple[int, float, float]], sim: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the overhead ratio)."""
    def get(name, i):
        return spans.get(name, (0, 0.0, 0.0))[i]

    out: dict[str, float] = {}
    for span, metric in CALLS.items():
        out[metric] = get(span, 0)
    for span, metric in SELF.items():
        out[metric] = get(span, 2)
    for span, metric in INCLUSIVE.items():
        out[metric] = get(span, 1)
    for kind in EVENT_KINDS:
        out[f"handler.{kind}.count"] = get(f"handler.{kind}", 0)
        out[f"handler.{kind}.s"] = get(f"handler.{kind}", 1)
    out.update(sim)
    return out


def layer_shares(spans: dict[str, tuple[int, float, float]]) -> dict[str, float]:
    """Self seconds per module: each span's self time goes to its module."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in spans.items():
        prefix, _, rest = name.partition(".")
        if prefix == "handler":
            layer = HANDLER_LAYER.get(rest, "bench")
        elif name == "rng.next":
            layer = "rng"
        else:
            layer = {"io": "iodriver"}.get(prefix, prefix)
        shares[layer] += own
    return shares
